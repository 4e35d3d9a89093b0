"""Exact linear algebra over Q(zeta_8).

Matrices are immutable row-major tuples of CycNum.  Solves and the
reference nullspace come from a deterministic reduced row echelon form
(rref) whose pivot is always the first nonzero entry in column order, so
repeated runs give byte-identical output.

certified_nullspace returns the same normal-form nullspace of an integer
matrix without exact elimination: it reduces the matrix as one int64 numpy
array modulo word-size primes, lifts the result by CRT and rational
reconstruction, and returns it only once an exact certificate holds; exact
rref is the fallback.  It works over Q.  A system B = sum_r B_r zeta_8^r
over Q(zeta_8) whose normal-form nullspace basis is known to be rational
is passed as the rational rows [B_0; B_1; B_2; B_3], which have the same
normal-form basis (the covariants module proves this for its slices).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from math import isqrt, lcm

import numpy as np

from .cyclo import CycNum, ONE, ZERO, rational


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class SingularMatrixError(ZeroDivisionError):
    """A solve was requested with dependent coefficient columns."""


def _cyc(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    return rational(x)


class Mat:
    """An exact rows x cols matrix over Q(zeta_8)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(_cyc(e) for e in entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> Mat:
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(r) != m for r in rows):
            raise ShapeError("ragged rows")
        return cls(n, m, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> Mat:
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, values: Iterable) -> Mat:
        values = [_cyc(v) for v in values]
        n = len(values)
        return cls(n, n, [values[i] if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, values: Iterable) -> Mat:
        values = list(values)
        return cls(len(values), 1, values)

    def at(self, i: int, j: int) -> CycNum:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CycNum, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                acc = ZERO
                for t in range(k):
                    av = arow[t]
                    if not av.is_zero():
                        acc = acc + av * b[t * m + j]
                out.append(acc)
        return Mat(n, m, out)

    def scale(self, c) -> Mat:
        c = _cyc(c)
        return Mat(self.rows, self.cols, [c * e for e in self.entries])

    def __add__(self, other: Mat) -> Mat:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in addition")
        return Mat(self.rows, self.cols,
                   [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: Mat) -> Mat:
        return self + other.scale(-1)

    def __neg__(self) -> Mat:
        return self.scale(-1)

    def trace(self) -> CycNum:
        if self.rows != self.cols:
            raise ShapeError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def is_diagonal(self) -> bool:
        return all(self.at(i, j).is_zero()
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Mat[{rows}]"


def rref(rows: list[list[CycNum]]) -> tuple[list[list[CycNum]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns).

    Pivot choice is the first nonzero entry in column order, scanning rows
    top to bottom, which makes the result canonical for the row space.
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * e for e in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f.is_zero():
                continue
            row = rows[i]
            rows[i] = [row[j] - f * prow[j] for j in range(ncols)]
        pivots.append(c)
        r += 1
    return rows, pivots


def nullspace_from_rref(reduced: list[list[CycNum]], pivots: list[int],
                        ncols: int) -> list[list[CycNum]]:
    """Nullspace basis vectors (as coordinate lists) from an RREF."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


# -- Z[zeta_8] integer encoding ---------------------------------------------------

# CYC_STRUCT[p, q, r] is the coefficient of z^r in z^p * z^q modulo z^4 + 1,
# so the coordinates of a product are einsum("p,q,pqr->r", a, b, CYC_STRUCT).
CYC_STRUCT = np.zeros((4, 4, 4), dtype=np.int64)
for _p in range(4):
    for _q in range(4):
        CYC_STRUCT[_p, _q, (_p + _q) % 4] = 1 if _p + _q < 4 else -1


def right_factor(b: np.ndarray) -> np.ndarray:
    """R with a.reshape(-1, 4m) @ R = (a b).reshape(-1, 4m) over Z[zeta_8], b m x m."""
    m = len(b)
    return np.einsum("kjq,pqr->kpjr", b, CYC_STRUCT).reshape(4 * m, 4 * m)


def int_encoding(groups: Sequence[Sequence[CycNum]]) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer coordinates of equal-length groups of entries, one denominator per group.

    Returns (nums, dens, max_abs): nums[g, e, :] are the four integer
    coordinates (Python ints, dtype object) of entry e of group g over
    dens[g], the group's least common denominator; max_abs bounds every
    |num| and every den.
    """
    nums = np.zeros((len(groups), len(groups[0]) if groups else 0, 4), dtype=object)
    dens = np.ones(len(groups), dtype=object)
    max_abs = 1
    for g, entries in enumerate(groups):
        keys = [(e, x.key()) for e, x in enumerate(entries) if not x.is_zero()]
        den = dens[g] = lcm(*(k[4] for _, k in keys))
        for e, k in keys:
            nums[g, e] = coords = [n * (den // k[4]) for n in k[:4]]
            max_abs = max(max_abs, den, *map(abs, coords))
    return nums, dens, max_abs


def _dot_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for 2-d int64 arrays with entries of absolute value below p.

    The inner dimension is summed in blocks small enough that no partial sum
    reaches 2^63.
    """
    step = max(1, (2 ** 63 - 1) // (p - 1) ** 2 - 1)
    out = a[:, :step] @ b[:step] % p
    for s in range(step, a.shape[1], step):
        out = (out + a[:, s:s + step] @ b[s:s + step]) % p
    return out


# -- certified multimodular nullspace -----------------------------------------------

# Elimination primes keep a product of two residues below 2^62; certificate
# primes are smaller so that an int64 dot product sums 2^11 terms before it
# must reduce (see _dot_mod).  Each table lists the largest primes p = 1
# (mod 8) below its bound (2^31 and 2^26), descending, and a test recomputes
# them; the elimination is over Q, so any primes below the bounds would do.
ELIMINATION_PRIMES = (
    2147483497, 2147483489, 2147483353, 2147483249, 2147483137, 2147483033, 2147482937,
    2147482921, 2147482873, 2147482817, 2147482801, 2147482697, 2147482681, 2147482577,
    2147482481, 2147482417, 2147482409, 2147482361, 2147482273, 2147482121, 2147482081,
    2147481937, 2147481793, 2147481673, 2147481529, 2147481353, 2147481337, 2147481209,
    2147480969, 2147480921, 2147480897, 2147480849, 2147480641, 2147480369, 2147480297,
    2147480161, 2147480009, 2147479937, 2147479897, 2147479753, 2147479681, 2147479657,
    2147479601, 2147479513, 2147479489, 2147479361, 2147479273, 2147479129,
)
CERTIFICATE_PRIMES = (
    67108777, 67108753, 67108729, 67108721, 67108649, 67108633, 67108529, 67108369,
    67108313, 67108289, 67108201, 67108177, 67108081, 67108049, 67108033, 67108009,
    67107977, 67107913, 67107881, 67107809, 67107793, 67107737, 67107713, 67107697,
    67107673, 67107641, 67107617, 67107569, 67107553, 67107497, 67107473, 67107457,
    67107289, 67107241, 67107217, 67107097, 67106833, 67106761, 67106737, 67106657,
    67106561, 67106393, 67106257, 67106113, 67106033, 67105937, 67105873, 67105849,
    67105769, 67105729, 67105609, 67105553, 67105481, 67105393, 67105369, 67105249,
    67105201, 67105193, 67105081, 67104977, 67104913, 67104857, 67104841, 67104833,
)


def _rref_mod(m: np.ndarray, p: int) -> list[int]:
    """Reduce m over F_p in place with the pivot rule of rref; returns the pivot columns.

    m is int64 of shape (rows, cols) with entries in [0, p), so with
    p < 2^31 every product is below 2^62.
    """
    nrows, ncols = m.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nonzero = np.flatnonzero(m[r:, c])
        if not len(nonzero):
            continue
        # rows from r down are zero left of c, so columns c.. are all that move
        src = r + nonzero[0]
        top = m[src, c:] * pow(int(m[src, c]), -1, p) % p
        m[src, c:] = m[r, c:]
        m[r, c:] = top
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        m[hit, c:] = (m[hit, c:] - m[hit, c, None] * top) % p
        pivots.append(c)
    return pivots


class _IntRows:
    """The nonzero rows of an integer matrix, kept as their nonzero entries."""

    def __init__(self, rows: np.ndarray):
        rows = rows[(rows != 0).any(axis=1)]
        self.shape = rows.shape
        self.index = np.flatnonzero(rows)
        self.values = rows.ravel()[self.index]
        self.max_abs = max(map(abs, self.values.tolist()), default=1)

    def mod(self, p: int) -> np.ndarray:
        """The rows mod p, int64 in [0, p)."""
        out = np.zeros(self.shape[0] * self.shape[1], dtype=np.int64)
        out[self.index] = self.values % p
        return out.reshape(self.shape)


def _nullspace_mod(rows: _IntRows, p: int) -> tuple[list[int], np.ndarray]:
    """Pivots and normal-form nullspace vectors (free, ncols) mod p."""
    m = rows.mod(p)
    pivots = _rref_mod(m, p)
    free = sorted(set(range(rows.shape[1])) - set(pivots))
    vecs = np.zeros((len(free), rows.shape[1]), dtype=np.int64)
    vecs[range(len(free)), free] = 1
    vecs[:, pivots] = (-m[:len(pivots), free]).T % p
    return pivots, vecs


def _ratrec(y: int, m: int, bound: int) -> int | None:
    """Denominator d <= bound of a fraction n/d = y (mod m) with |n| <= bound."""
    r0, r1, t0, t1 = m, y, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= bound else None


def _reconstruct(residues: np.ndarray, m: int) -> tuple[np.ndarray, list[int]] | None:
    """Rational reconstruction (Wang 1981) of each vector over one denominator.

    A coordinate that is not yet a small integer at the running denominator
    is reconstructed on its own (numerator and denominator below
    sqrt(m / 2)) and its denominator joins the running one by lcm.  Returns
    integer numerators shaped like residues and one denominator per vector,
    or None unless every numerator lies 2^20 times inside (-m/2, m/2); a
    wrong reconstruction rarely passes that test, and _certify rejects it.
    """
    bound, limit = isqrt(m // 2), m >> 20
    out, dens = [], []
    for vec in residues.tolist():
        den = 1
        for y in vec:
            z = y * den % m
            if min(z, m - z) > limit:
                d = _ratrec(y, m, bound)
                if d is None:
                    return None
                den = lcm(den, d)
        nums = [y * den % m for y in vec]
        nums = [z if z <= limit else z - m for z in nums]
        if any(abs(z) > limit for z in nums):
            return None
        out.append(nums)
        dens.append(den)
    return np.array(out, dtype=object).reshape(residues.shape), dens


def _certify(rows: _IntRows, vecs: np.ndarray, dens: list[int], free: list[int],
             counters: Counter) -> bool:
    """Exact check that vecs[i] / dens[i] is the normal-form basis vector of free[i].

    Checks the normal form (1 at its own free column, 0 at the others and
    right of it) and A v = 0 by bounded CRT: every entry of A v is an
    integer of absolute value at most ncols * max|A| * max|V| (Python ints,
    so the bound cannot wrap), so if it vanishes modulo primes whose
    product exceeds twice that, it is 0.
    """
    for i, f in enumerate(free):
        v = vecs[i]
        if v[f] != dens[i] or v[free[:i]].any() or v[f + 1:].any():
            return False
    bound = rows.shape[1] * rows.max_abs * max(map(abs, vecs.flat), default=0)
    cleared = 1
    for q in CERTIFICATE_PRIMES:
        if cleared > 2 * bound:
            break
        counters["certificate_primes"] += 1
        if _dot_mod(rows.mod(q), (vecs.T % q).astype(np.int64), q).any():
            return False
        cleared *= q
    return cleared > 2 * bound


def certified_nullspace(rows: np.ndarray, ncols: int,
                        counters: Counter | None = None) -> list[list[CycNum]]:
    """The nullspace basis of nullspace_from_rref(rref(rows)) over Q, computed mod p.

    rows is an integer matrix (nrows, ncols) of Python ints or int64.
    Eliminates it modulo ELIMINATION_PRIMES until the reconstructed basis
    passes _certify, at a prime where the rank is ncols - len(basis).  A
    rank mod p never exceeds the true rank, so the nullity is at most
    len(basis); the certified vectors are independent nullspace vectors in
    normal form, hence the unique normal-form basis.  If the primes run
    out, falls back to exact rref.  Counts primes, rejected primes,
    certificate primes and fallbacks in `counters`.
    """
    counters = Counter() if counters is None else counters
    int_rows = _IntRows(rows)
    if not int_rows.shape[0]:
        return [[ONE if i == f else ZERO for i in range(ncols)] for f in range(ncols)]
    pivots, combined = None, 0
    for p in ELIMINATION_PRIMES:
        counters["primes"] += 1
        got = _nullspace_mod(int_rows, p)
        if pivots is None or (-len(got[0]), got[0]) < (-len(pivots), pivots):
            # a rank mod p only drops, and among equal ranks the true pivots
            # come first, so everything combined so far was unlucky
            counters["primes_rejected"] += combined
            pivots, residues, modulus, combined = got[0], got[1].astype(object), p, 1
        elif got[0] != pivots:
            counters["primes_rejected"] += 1
            continue
        else:
            lift = (got[1] - (residues % p).astype(np.int64)) % p * pow(modulus, -1, p) % p
            residues = residues + modulus * lift.astype(object)
            modulus *= p
            combined += 1
        free = sorted(set(range(ncols)) - set(pivots))
        if not free:
            return []       # full rank at p, hence over Q
        rec = _reconstruct(residues, modulus)
        if rec is not None and _certify(int_rows, rec[0], rec[1], free, counters):
            return [[CycNum._make((n, 0, 0, 0), den) for n in vec.tolist()]
                    for vec, den in zip(*rec)]
    counters["fallbacks"] += 1
    reduced, pivots = rref([[rational(x) for x in row] for row in rows.tolist()])
    return nullspace_from_rref(reduced, pivots, ncols)


def solve_exact(a: Mat, b: Mat) -> Mat:
    """Solve a X = b exactly for a with full column rank.

    Raises SingularMatrixError if the columns of ``a`` are dependent and
    ValueError if the system is inconsistent.
    """
    if a.rows != b.rows:
        raise ShapeError("row count mismatch in solve")
    n, s, m = a.rows, a.cols, b.cols
    aug = [list(a.row(i)) + list(b.row(i)) for i in range(n)]
    reduced, pivots = rref(aug)
    lead = [p for p in pivots if p < s]
    if len(lead) < s:
        raise SingularMatrixError("coefficient columns are dependent")
    if any(p >= s for p in pivots):
        raise ValueError("inconsistent linear system")
    x = [[ZERO] * m for _ in range(s)]
    for r, p in enumerate(lead):
        for j in range(m):
            x[p][j] = reduced[r][s + j]
    return Mat.from_rows(x)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product in lexicographic basis order: (a kron b)(v kron w) = av kron bw."""
    out = []
    for i in range(a.rows):
        for p in range(b.rows):
            for j in range(a.cols):
                aij = a.at(i, j)
                for q in range(b.cols):
                    out.append(aij * b.at(p, q))
    return Mat(a.rows * b.rows, a.cols * b.cols, out)


def mat_to_json(m: Mat) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [e.to_json() for e in m.entries]}
