"""Exact linear algebra over Q(zeta_8) and over Q, on integer Z[zeta_8] coordinates.

A number of Z[zeta_8] is carried as its four integer coordinates in the
basis 1, z, z^2, z^3 (z = zeta_8, z^4 = -1), a matrix as an (n, m, 4)
int64 array of them over one fixed denominator: CYC_STRUCT multiplies
coordinates, right_factor turns a matrix into the integer factor of a
product, and zeta_shift and zeta_power are the signed permutations of
coordinates that multiplication by z^k makes.

Exact elimination over Q is RowReducer, a fraction-free row echelon form
of integer rows; rref back-substitutes it into the integer reduced row
echelon form, canonical for the row space (each pivot is a row's first
nonzero entry), so repeated runs give byte-identical output.
rref_nullspace reads the normal-form nullspace basis off that form, each
vector as integer numerators over one positive denominator.
"""

from __future__ import annotations

from math import gcd, lcm

import numpy as np


class RowReducer:
    """Incremental row echelon form over Q of integer rows; a non-int entry raises ValueError."""

    def __init__(self):
        self.rows: dict[int, tuple[int, ...]] = {}

    def add(self, vec) -> tuple[int, ...] | None:
        """Insert an integer row; returns its residual, primitive with pivot > 0, or None."""
        red = list(vec)
        if not all(isinstance(x, int) for x in red):
            raise ValueError("RowReducer works over Q on integer rows: an entry is not an int")
        for col, row in sorted(self.rows.items()):
            if c := red[col]:
                red = [row[col] * v - c * r for v, r in zip(red, row)]
        pivot = next((i for i, v in enumerate(red) if v), None)
        if pivot is None:
            return None
        g = gcd(*red) if red[pivot] > 0 else -gcd(*red)
        red = self.rows[pivot] = tuple(v // g for v in red)
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
                   ) -> tuple[np.ndarray, list[int]]:
    """The normal-form nullspace basis of a matrix over Q, read off its rref.

    A free column f is one that is no pivot; basis vector v_f is 1 at f, 0
    at the other free columns and -r[f] / r[p] at the pivot p of each row r,
    so it has no support right of f.  Returns (nums, dens): vector i is
    nums[i] / dens[i] with dens[i] the least common denominator of its
    entries, nums a (len(dens), ncols) array of Python ints (dtype object).
    """
    free = sorted(set(range(ncols)) - set(pivots))
    nums, dens = np.zeros((len(free), ncols), dtype=object), []
    for i, f in enumerate(free):
        dens.append(lcm(*(r[p] // gcd(r[f], r[p]) for r, p in zip(reduced, pivots))))
        nums[i, f] = dens[i]
        nums[i, pivots] = [-r[f] * dens[i] // r[p] for r, p in zip(reduced, pivots)]
    return nums, dens


# -- Z[zeta_8] integer coordinates ------------------------------------------------

# CYC_STRUCT[p, q, r] is the coefficient of z^r in z^p * z^q modulo z^4 + 1,
# so the coordinates of a product are einsum("p,q,pqr->r", a, b, CYC_STRUCT).
CYC_STRUCT = np.zeros((4, 4, 4), dtype=np.int64)
for _p in range(4):
    for _q in range(4):
        CYC_STRUCT[_p, _q, (_p + _q) % 4] = 1 if _p + _q < 4 else -1


def right_factor(b: np.ndarray) -> np.ndarray:
    """R with a.reshape(-1, 4k) @ R = (a b).reshape(-1, 4m) over Z[zeta_8], b k x m."""
    return np.einsum("kjq,pqr->kpjr", b, CYC_STRUCT).reshape(4 * len(b), -1)


def zeta_shift(x: np.ndarray, k: int) -> np.ndarray:
    """z^k times the numbers with coordinates x[..., 4]: a signed permutation."""
    out = np.empty_like(x)
    for p in range(4):
        q = p + k
        out[..., q % 4] = x[..., p] if q % 8 < 4 else -x[..., p]
    return out


def zeta_power(k: int, den: int) -> np.ndarray:
    """The coordinates of z^k over den."""
    return zeta_shift(np.array([den, 0, 0, 0], dtype=np.int64), k)
