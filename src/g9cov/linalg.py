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

certified_nullspace returns the normal-form nullspace of an integer matrix
without exact elimination: it reduces the matrix as one int64 numpy array
modulo word-size primes, lifts the result by CRT and rational
reconstruction, and returns it only once an exact certificate holds; the
nullspace read off rref is the fallback.  It works over Q and returns each
basis vector as integer numerators over one positive denominator.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt, lcm

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


# -- certified multimodular nullspace -----------------------------------------------

# Elimination primes keep a product of two residues below 2^62; certificate
# primes are smaller so that an int64 dot product of residues sums 2^11
# terms without wrapping.  Each table lists the largest primes p = 1
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


def _mod(rows: np.ndarray, p: int) -> np.ndarray:
    """An integer matrix (int64 or Python ints) mod p, int64 in [0, p)."""
    return (rows % p).astype(np.int64, copy=False)


def _nullspace_mod(rows: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Pivots and normal-form nullspace vectors (free, ncols) of an integer matrix mod p."""
    m = _mod(rows, p)
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


def _certify(rows: np.ndarray, max_abs: int, vecs: np.ndarray, dens: list[int],
             free: list[int], counters: Counter) -> bool:
    """Exact check that vecs[i] / dens[i] is the normal-form basis vector of free[i].

    Checks the normal form (1 at its own free column, 0 at the others and
    right of it) and A v = 0 by bounded CRT, max_abs = max|A| a Python int:
    every entry of A v is an integer of absolute value at most
    ncols * max|A| * max|V| (Python ints, so the bound cannot wrap), so if
    it vanishes modulo primes whose product exceeds twice that, it is 0.
    Modulo q the product is one int64 product of residues, which cannot
    wrap while ncols * (q - 1)^2 < 2^63; a wider matrix raises ValueError.
    """
    for i, f in enumerate(free):
        v = vecs[i]
        if v[f] != dens[i] or v[free[:i]].any() or v[f + 1:].any():
            return False
    ncols = rows.shape[1]
    bound = ncols * max_abs * max(map(abs, vecs.flat), default=0)
    cleared = 1
    for q in CERTIFICATE_PRIMES:
        if cleared > 2 * bound:
            break
        if ncols * (q - 1) ** 2 >= 2 ** 63:
            raise ValueError(f"{ncols} columns: an int64 product mod {q} could wrap")
        counters["certificate_primes"] += 1
        if (_mod(rows, q) @ _mod(vecs.T, q) % q).any():
            return False
        cleared *= q
    return cleared > 2 * bound


def certified_nullspace(rows: np.ndarray, ncols: int, counters: Counter | None = None
                        ) -> tuple[np.ndarray, list[int]]:
    """The normal-form nullspace basis of an integer matrix over Q, computed mod p.

    rows is an integer matrix (nrows, ncols) of Python ints or int64, zero
    rows allowed.  A free column f is one that is no pivot of the reduced
    row echelon form R of rows; basis vector v_f is 1 at f, 0 at the other
    free columns and -R[i][f] at the pivot column of row i, so it has no
    support right of f.  Returns (nums, dens): basis vector i is
    nums[i] / dens[i], nums a (len(dens), ncols) array of Python ints (dtype
    object), dens[i] > 0.  Eliminates rows modulo ELIMINATION_PRIMES until
    the reconstructed basis passes _certify, at a prime where the rank is
    ncols - len(basis).  A rank mod p never exceeds the true rank, so the
    nullity is at most len(basis); the certified vectors are independent
    nullspace vectors in normal form, hence the unique normal-form basis.
    If the primes run out, reads the basis off rref, exact over Q: v_f is
    den at f and -r[f] den / r[p] at the pivot p of each row r, den the lcm
    of the denominators of the r[f] / r[p].  Counts primes, rejected primes,
    certificate primes and fallbacks in `counters`.
    """
    counters = Counter() if counters is None else counters
    max_abs = int(np.abs(rows).max(initial=0))
    if not max_abs:
        return np.identity(ncols, dtype=object), [1] * ncols
    pivots, combined = None, 0
    for p in ELIMINATION_PRIMES:
        counters["primes"] += 1
        got = _nullspace_mod(rows, p)
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
            return np.zeros((0, ncols), dtype=object), []   # full rank at p, hence over Q
        rec = _reconstruct(residues, modulus)
        if rec is not None and _certify(rows, max_abs, rec[0], rec[1], free, counters):
            return rec
    counters["fallbacks"] += 1
    reduced, pivots = rref(rows.tolist())
    free = sorted(set(range(ncols)) - set(pivots))
    nums, dens = np.zeros((len(free), ncols), dtype=object), []
    for i, f in enumerate(free):
        dens.append(lcm(*(r[p] // gcd(r[f], r[p]) for r, p in zip(reduced, pivots))))
        nums[i, f] = dens[i]
        nums[i, pivots] = [-r[f] * dens[i] // r[p] for r, p in zip(reduced, pivots)]
    return nums, dens

