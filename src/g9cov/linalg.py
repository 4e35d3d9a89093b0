"""Exact linear algebra over Q(zeta_8) and over Q, on Python ints.

A number of Z[zeta_8] is carried as the tuple of its four integer
coordinates in the basis 1, z, z^2, z^3 (z = zeta_8, z^4 = -1), a matrix
as a tuple of rows of them, over one fixed denominator per layer:
mat_mul multiplies such matrices (cyc_mul two numbers), mat_quotient
divides one by its denominator exactly, zeta_shift and zeta_power are the
signed permutations of coordinates that multiplication by z^k makes, and
right_factor turns a matrix into the integer factor of a product, which
the int64 numpy oracle reps.rep_matrices stacks into arrays.

Exact elimination over Q is RowReducer, a fraction-free row echelon form
of integer rows; rref back-substitutes it into the integer reduced row
echelon form, canonical for the row space (each pivot is a row's first
nonzero entry), so repeated runs give byte-identical output.
rref_nullspace reads the normal-form nullspace basis off that form, each
vector as integer numerators over one positive denominator.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm


class RowReducer:
    """Incremental row echelon form over Q of integer rows; a non-int entry raises ValueError."""

    def __init__(self):
        self.rows: dict[int, tuple[int, ...]] = {}

    def add(self, vec) -> tuple[int, ...] | None:
        """Insert an integer row; returns its residual, primitive with pivot > 0, or None."""
        red = list(vec)
        if not all(map(isinstance, red, repeat(int))):
            raise ValueError("RowReducer works over Q on integer rows: an entry is not an int")
        for col, row in sorted(self.rows.items()):
            if c := red[col]:
                p = row[col]
                red = [p * v - c * r for v, r in zip(red, row)]
        pivot = next((i for i, v in enumerate(red) if v), None)
        if pivot is None:
            return None
        g = gcd(*red) if red[pivot] > 0 else -gcd(*red)
        red = self.rows[pivot] = tuple([v // g for v in red])
        return red


def rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer reduced row echelon form of integer rows; returns (rows, pivot columns).

    RowReducer's rows, back-substituted last pivot first: each is primitive
    with a positive pivot (its first nonzero entry) and 0 at every other
    pivot column, so row / row[pivot] is its row of the reduced echelon form over Q.
    """
    reducer = RowReducer()
    for row in rows:
        reducer.add(row)
    pivots = sorted(reducer.rows)
    reduced = [list(reducer.rows[p]) for p in pivots]
    for k in range(len(pivots) - 1, 0, -1):
        p, low = pivots[k], reduced[k]
        for i in range(k):
            if c := reduced[i][p]:
                row = [low[p] * v - c * r for v, r in zip(reduced[i], low)]
                g = gcd(*row)
                reduced[i] = [v // g for v in row]
    return reduced, pivots


def rref_nullspace(reduced: list[list[int]], pivots: list[int], ncols: int
                   ) -> tuple[list[list[int]], list[int]]:
    """The normal-form nullspace basis of a matrix over Q, read off its rref.

    A free column f is one that is no pivot; basis vector v_f is 1 at f, 0
    at the other free columns and -r[f] / r[p] at the pivot p of each row r,
    so it has no support right of f.  Returns (nums, dens): vector i is
    nums[i] / dens[i] with dens[i] the least common denominator of its
    entries, nums[i] a list of ncols Python ints.
    """
    nums, dens = [], []
    for f in sorted(set(range(ncols)) - set(pivots)):
        den = lcm(*(r[p] // gcd(r[f], r[p]) for r, p in zip(reduced, pivots)))
        row = [0] * ncols
        row[f] = den
        for r, p in zip(reduced, pivots):
            row[p] = -r[f] * den // r[p]
        nums.append(row)
        dens.append(den)
    return nums, dens


# -- Z[zeta_8] integer coordinates ------------------------------------------------

# _SHIFTS[k][r] = (p, s): coordinate r of z^k x is s x[p], for k = 0..7
_SHIFTS = tuple(tuple(((r - k) % 4, 1 if ((r - k) % 4 + k) % 8 < 4 else -1) for r in range(4))
                for k in range(8))


def zeta_shift(x, k: int) -> tuple[int, int, int, int]:
    """z^k times the number with coordinates x: a signed permutation."""
    return tuple([s * x[p] for p, s in _SHIFTS[k % 8]])


def zeta_power(k: int, den: int) -> tuple[int, int, int, int]:
    """The coordinates of z^k over den."""
    return zeta_shift((den, 0, 0, 0), k)


def _dot(row, col) -> tuple[int, int, int, int]:
    """sum_i row[i] col[i] in Z[zeta_8], reduced through z^4 = -1."""
    s0 = s1 = s2 = s3 = 0
    for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(row, col):
        s0 += a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1
        s1 += a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2
        s2 += a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3
        s3 += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
    return s0, s1, s2, s3


def cyc_mul(a, b) -> tuple[int, int, int, int]:
    """The coordinates of the product of the numbers with coordinates a and b."""
    return _dot((a,), (b,))


def mat_mul(a, b) -> tuple:
    """The integer product a b of matrices of coordinates, n x k times k x m."""
    cols = list(zip(*b))
    return tuple([tuple([_dot(row, col) for col in cols]) for row in a])


def mat_quotient(a, den: int) -> tuple | None:
    """a / den entrywise, or None if a coordinate of a is not divisible by den."""
    if any([c % den for row in a for x in row for c in x]):
        return None
    return tuple([tuple([(x[0] // den, x[1] // den, x[2] // den, x[3] // den) for x in row])
                  for row in a])


def scalar_image(m: int, w) -> tuple:
    """w I_m for the coordinates w of one number."""
    w, zero = tuple(w), (0, 0, 0, 0)
    return tuple(tuple(w if i == j else zero for j in range(m)) for i in range(m))


def right_factor(b) -> list[list[int]]:
    """R with a.reshape(-1, 4k) @ R = (a b).reshape(-1, 4m) over Z[zeta_8], b k x m.

    Row 4i + p of R holds z^p times row i of b, coordinates flattened.
    """
    return [[s * x[i] for x in row for i, s in shift] for row in b for shift in _SHIFTS[:4]]
