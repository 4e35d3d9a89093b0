"""Slow exact oracles that only the tests use.

Each one is the plain computation that a faster path in g9cov replaced;
the tests compare the two.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from g9cov import group
from g9cov.covariants import CovariantEngine, FreenessError, RowReducer, _poly_det
from g9cov.group import CLOSURE_LIMIT, NotFinitelyClosedError
from g9cov.poly import BiPoly, VecPoly
from g9cov.linalg import right_factor, scalar_image, zeta_power
from g9cov.reps import DEN, FAITHFUL_TWISTS, CensusError, ExtractionError, _check_bound


# -- CycNum: exact arithmetic in Q(zeta_8) ---------------------------------------------
#
# The plain number class the oracles below compute in.  g9cov itself carries
# a number of Q(zeta_8) as integer coordinates over a denominator (see
# g9cov.cyclo and g9cov.linalg).  A CycNum is c0 + c1*z + c2*z^2 + c3*z^3
# modulo z^4 + 1, z = zeta_8, stored as four integers over one positive
# common denominator, reduced so that the gcd of all five numbers is 1.
# Equality is therefore component-wise; rational values hash like the equal
# int or Fraction, so they are interchangeable as dict keys.

class CycNum:
    """An element of Q(zeta_8) in the basis 1, z, z^2, z^3 modulo z^4 + 1."""

    __slots__ = ("_n", "_d")

    def __init__(self, n0=0, n1=0, n2=0, n3=0, den=1):
        """(n0 + n1 z + n2 z^2 + n3 z^3) / den for rational n_i and den != 0."""
        parts = [Fraction(n) / den for n in (n0, n1, n2, n3)]
        den_all = 1
        for p in parts:
            den_all = den_all * p.denominator // gcd(den_all, p.denominator)
        nums = tuple(int(p * den_all) for p in parts)
        self._n, self._d = _reduce(nums, den_all)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _make(nums, den):
        v = CycNum.__new__(CycNum)
        v._n, v._d = _reduce(nums, den)
        return v

    @classmethod
    def zeta(cls, k: int) -> CycNum:
        """z^k for any integer k (z^8 = 1, z^4 = -1)."""
        k %= 8
        sign = 1 if k < 4 else -1
        n = [0, 0, 0, 0]
        n[k % 4] = sign
        return cls._make(tuple(n), 1)

    # -- views -----------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The four rational coordinates (c0, c1, c2, c3)."""
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    def is_zero(self) -> bool:
        return self._n == (0, 0, 0, 0)

    def __bool__(self) -> bool:
        return self._n != (0, 0, 0, 0)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._n, other._n
        da, db = self._d, other._d
        return CycNum._make(
            (a[0] * db + b[0] * da, a[1] * db + b[1] * da,
             a[2] * db + b[2] * da, a[3] * db + b[3] * da),
            da * db)

    __radd__ = __add__

    def __neg__(self):
        n = self._n
        v = CycNum.__new__(CycNum)
        v._n = (-n[0], -n[1], -n[2], -n[3])
        v._d = self._d
        return v

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        # convolution reduced by z^4 -> -1
        return CycNum._make(
            (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
             a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
             a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
             a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0),
            self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, k: int) -> CycNum:
        """The field automorphism z -> z^k for odd k in {1, 3, 5, 7}."""
        if k % 2 == 0:
            raise ValueError("Galois exponent must be odd")
        n = self._n
        out = [0, 0, 0, 0]
        for p in range(4):
            q = p * k
            s = 1 if (q % 8) < 4 else -1
            out[q % 4] += s * n[p]
        return CycNum._make(tuple(out), self._d)

    def conj(self) -> CycNum:
        """Complex conjugation, the automorphism z -> z^7 = -z^3."""
        n = self._n
        v = CycNum.__new__(CycNum)
        v._n = (n[0], -n[3], -n[2], -n[1])
        v._d = self._d
        return v

    def inverse(self) -> CycNum:
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        # a * conj(a) lies in the real subfield Q(sqrt2); multiplying by its
        # sqrt2 -> -sqrt2 image gives the rational field norm.
        c = self.conj()
        b = self * c                    # p + q*sqrt2
        b5 = b.galois(5)                # p - q*sqrt2
        norm = b * b5                   # rational and nonzero
        num = c * b5                    # self * num == norm
        return CycNum._make(tuple(n * norm._d for n in num._n),
                            num._d * norm._n[0])

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        n = self._n
        if n[1] == n[2] == n[3] == 0:
            # equal to an int or Fraction, so it must hash like one
            return hash(Fraction(n[0], self._d))
        return hash((n, self._d))

    def key(self):
        """Canonical hashable key (four numerators and the denominator)."""
        return self._n + (self._d,)

    # -- text forms ------------------------------------------------------------------

    def __str__(self):
        return render_cyc(self)

    def __repr__(self):
        return f"CycNum({render_cyc(self)})"

    def to_json(self) -> list[str]:
        """Serialize as four 'num/den' strings in basis order."""
        d = self._d
        return [f"{n}/{d}" for n in self._n]


def _reduce(nums, den):
    if den < 0:
        nums = tuple(-n for n in nums)
        den = -den
    g = gcd(*nums, den)
    if g > 1:
        nums = tuple(n // g for n in nums)
        den //= g
    return nums, den


def _coerce(x):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, int):
        v = CycNum.__new__(CycNum)
        v._n, v._d = (x, 0, 0, 0), 1
        return v
    if isinstance(x, Fraction):
        v = CycNum.__new__(CycNum)
        v._n, v._d = _reduce((x.numerator, 0, 0, 0), x.denominator)
        return v
    return NotImplemented


ZERO = CycNum(0)
ONE = CycNum(1)
Z = CycNum.zeta(1)
I_UNIT = CycNum.zeta(2)
SQRT2 = CycNum(0, 1, 0, -1)          # z - z^3
HALF_SQRT2 = CycNum(0, Fraction(1, 2), 0, Fraction(-1, 2))


def rational(x) -> CycNum:
    """Embed an int or Fraction into Q(zeta_8)."""
    v = _coerce(x)
    if v is NotImplemented:
        raise TypeError(f"cannot embed {x!r}")
    return v


def render_cyc(a: CycNum) -> str:
    """Render as an integer (or rational) combination of powers of z.

    The reference for g9cov.cyclo.render_zeta, which renders integer
    coordinates over a denominator.

    Examples: '0', '2', '-1/2', 'z^2+1', '-z^3-z', '2z', '(3/2)z^2'.
    Terms are listed with the power of z descending, constant last.
    """
    if a.is_zero():
        return "0"
    d = a._d
    pieces = []
    for p in (3, 2, 1, 0):
        n = a._n[p]
        if n == 0:
            continue
        if d == 1:
            coeff = str(abs(n))
        else:
            coeff = f"({abs(n)}/{d})"
        if p == 0:
            body = coeff if d == 1 else f"{abs(n)}/{d}"
        else:
            zpow = "z" if p == 1 else f"z^{p}"
            body = zpow if (abs(n) == 1 and d == 1) else f"{coeff}{zpow}"
        sign = "-" if n < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


# -- CycNum matrices ------------------------------------------------------------------
#
# The plain exact matrices the oracles below compute in; g9cov itself carries
# group elements and images as int64 Z[zeta_8] coordinates.

class ShapeError(ValueError):
    """Operand shapes are incompatible."""


def _cyc(x) -> CycNum:
    return x if isinstance(x, CycNum) else rational(x)


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

    def at(self, i: int, j: int) -> CycNum:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CycNum, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    # -- algebra ---------------------------------------------------------------

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

    def trace(self) -> CycNum:
        if self.rows != self.cols:
            raise ShapeError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Mat[{rows}]"


def mat_to_json(m: Mat) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [e.to_json() for e in m.entries]}


def _det2(m: Mat) -> CycNum:
    return m.at(0, 0) * m.at(1, 1) - m.at(0, 1) * m.at(1, 0)


def approx(x):
    """Float evaluation of an int, Fraction or CycNum at z = e^{i*pi/4}."""
    coords = x.coeffs if isinstance(x, CycNum) else (x, 0, 0, 0)
    w = cmath.exp(1j * cmath.pi / 4)
    return sum(float(c) * w ** p for p, c in enumerate(coords))


def is_rational(x):
    """Whether a CycNum lies in Q (its z, z^2 and z^3 coordinates are 0)."""
    return x.coeffs[1:] == (0, 0, 0)


def as_fraction(x):
    """A rational CycNum as a Fraction; ValueError otherwise."""
    if not is_rational(x):
        raise ValueError(f"not a rational number: {x}")
    return x.coeffs[0]


# CYC_STRUCT[p, q, r] is the coefficient of z^r in z^p * z^q modulo z^4 + 1,
# so the coordinates of a product are einsum("p,q,pqr->r", a, b, CYC_STRUCT).
CYC_STRUCT = np.zeros((4, 4, 4), dtype=np.int64)
for _p in range(4):
    for _q in range(4):
        CYC_STRUCT[_p, _q, (_p + _q) % 4] = 1 if _p + _q < 4 else -1


def zeta_shift(x, k):
    """z^k times the numbers with integer coordinates x[..., 4], as an array."""
    x = np.asarray(x)
    out = np.empty_like(x)
    for p in range(4):
        q = p + k
        out[..., q % 4] = x[..., p] if q % 8 < 4 else -x[..., p]
    return out


def as_tuples(array):
    """An integer array (or nested lists) as the nested tuples of Python ints of g9cov."""
    def nest(x):
        return tuple(map(nest, x)) if isinstance(x, list) else x
    return nest(np.asarray(array).tolist())


def decode_image(image, den=DEN):
    """An m x m matrix of coordinates over den (default reps.DEN) as a CycNum matrix."""
    m = len(image)
    return Mat(m, m, [CycNum(*map(int, e), den=den) for e in np.asarray(image).reshape(-1, 4)])


def encode_image(mat, den=DEN):
    """A matrix over (1/den) Z[zeta_8] as nested tuples of integer numerators over den.

    ValueError if an entry lies outside (1/den) Z[zeta_8].
    """
    nums, (lcd,) = cyc_encoding([mat.entries])
    if den % lcd:
        raise ValueError(f"an entry of {mat} is not in (1/{den}) Z[zeta_8]")
    return as_tuples(nums.reshape(mat.rows, mat.cols, 4) * (den // lcd))


def element_mat(coords):
    """A group element's (n, n, 4) coordinates over group.DEN as a Mat."""
    return decode_image(coords, group.DEN)


def element_coords(mat):
    """A Mat as group coordinates over group.DEN; ValueError outside (1/2) Z[zeta_8]."""
    return encode_image(mat, group.DEN)


@lru_cache(maxsize=None)
def rep_matrices_exact(rep, table):
    """Images of all group elements as CycNum matrices, following the BFS chain.

    The reference for reps.rep_matrices, which builds the same images as
    int64 Z[zeta_8] numerators.  Cached: the images never change.
    """
    gens = {"T": decode_image(rep.img_t), "D": decode_image(rep.img_d)}
    mats = [None] * len(table)
    for e in table.elements:
        if e.parent < 0:
            mats[e.index] = Mat.identity(rep.dim)
        else:
            mats[e.index] = mats[e.parent].matmul(gens[e.last])
    return tuple(mats)


def homomorphism_on_cayley_edges(rep, table, mats):
    """Check rho(g) rho(h) = rho(gh) for every ordered pair, on the Cayley edges.

    The reference for reps.verify_homomorphism, which checks G9's
    presentation instead.  G9 = <T, D>: if rho(e) = I and rho(g) rho(s) =
    rho(gs) for all g and s in {T, D}, then h = h's gives rho(g) rho(h) =
    rho(gh') rho(s) = rho(gh).  So only the 2 |G| Cayley edges are checked,
    one int64 product per generator on the image numerators mats of
    reps.rep_matrices, exact within COORD_BOUND.  Returns the number of
    ordered pairs certified.
    """
    if not np.array_equal(mats[table.identity], scalar_image(rep.dim, zeta_power(0, DEN))):
        raise CensusError(f"rho_{rep.rid}: the identity is not sent to I")
    _check_bound(rep.rid, mats)
    for s in (table.right[name][0] for name in table.gens):
        factor = np.array(right_factor(mats[s].tolist()), dtype=np.int64)
        lhs = (mats.reshape(-1, 4 * rep.dim) @ factor).reshape(mats.shape)
        bad = (lhs != DEN * mats[[row[s] for row in table.product]]).any(axis=(1, 2, 3))
        if bad.any():
            g = int(np.flatnonzero(bad)[0])
            raise CensusError(f"rho_{rep.rid}: homomorphism fails at pair ({g}, {s})")
    return len(table) ** 2


def coset_count(relators, gens="TD", limit=10_000):
    """The order of <gens | relators> by coset enumeration over the trivial subgroup.

    Todd-Coxeter in the HLT strategy with coincidence handling (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 2005, sec. 5.1).
    A relator is a word in the letters of gens and their inverses, written
    in lower case.  RuntimeError past limit cosets.
    """
    letters = gens + gens.lower()
    table = [dict.fromkeys(letters)]    # table[c][x] = c.x, None while undefined
    rep_of = [0]                        # rep_of[c] = c while c is live

    def find(c):
        while rep_of[c] != c:
            c = rep_of[c]
        return c

    def define(c, x):
        if len(table) >= limit:
            raise RuntimeError(f"coset enumeration passed {limit} cosets")
        table.append(dict.fromkeys(letters))
        rep_of.append(len(rep_of))
        table[c][x], table[-1][x.swapcase()] = len(table) - 1, c

    def coincidence(a, b):
        queue = []

        def merge(a, b):
            a, b = sorted((find(a), find(b)))
            if a != b:
                rep_of[b] = a
                queue.append(b)

        merge(a, b)
        for c in queue:             # merge appends while this runs
            for x in letters:
                d = table[c][x]
                if d is None:
                    continue
                table[d][x.swapcase()] = None
                mu, nu = find(c), find(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x.swapcase()] is not None:
                    merge(mu, table[nu][x.swapcase()])
                else:
                    table[mu][x], table[nu][x.swapcase()] = nu, mu

    def scan_and_fill(c, word):
        f, b, i, j = c, c, 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f, i = table[f][word[i]], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j].swapcase()] is not None:
                b, j = table[b][word[j].swapcase()], j - 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][word[i]], table[b][word[i].swapcase()] = b, f
                return
            define(f, word[i])

    c = 0
    while c < len(table):
        for word in relators:
            if rep_of[c] != c:
                break
            scan_and_fill(c, word)
        if rep_of[c] == c:
            for x in letters:
                if table[c][x] is None:
                    define(c, x)
        c += 1
    return sum(rep_of[c] == c for c in range(len(table)))


# -- exact elimination over a field ------------------------------------------------
#
# The reference for linalg.rref, which reduces integer rows fraction free
# to primitive ones: over their pivots, the same rows and pivot columns.

def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns).

    Entries are Fraction or int (any exact field scalar works).  Pivot
    choice is the first nonzero entry in column order, scanning rows top to
    bottom, which makes the result canonical for the row space.
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
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [inv * e for e in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if not f:
                continue
            row = rows[i]
            rows[i] = [row[j] - f * prow[j] for j in range(ncols)]
        pivots.append(c)
        r += 1
    return rows, pivots


def nullspace_from_rref(reduced: list[list], pivots: list[int], ncols: int) -> list[list]:
    """Nullspace basis vectors (as coordinate lists) from an RREF; 0 and 1 are ints."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


# -- the CycNum construction of the 32 representations ------------------------------
#
# The reference for reps.build_all, which builds the same generator images
# as int64 Z[zeta_8] numerators with no CycNum arithmetic.

LINEAR_IMAGES = [
    (1, 1), (1, -1), (1, I_UNIT), (1, -I_UNIT),
    (-1, 1), (-1, -1), (-1, I_UNIT), (-1, -I_UNIT),
]


class SingularMatrixError(ZeroDivisionError):
    """A solve was requested with dependent coefficient columns."""


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


@dataclass(frozen=True)
class ExactRepresentation:
    rid: int
    dim: int
    img_t: Mat
    img_d: Mat


def extract_subrep_exact(parent_t: Mat, parent_d: Mat, span: list[Mat]) -> tuple[Mat, Mat]:
    """Restrict generator images to the span of the given column vectors.

    Solves parent(s) v_j = sum_i m_ij v_i exactly for s in {T, D} and
    returns the restricted matrices; raises ExtractionError if any image
    leaves the span.
    """
    v = Mat.from_rows([[vec.at(i, 0) for vec in span] for i in range(span[0].rows)])
    out = []
    for parent in (parent_t, parent_d):
        image = parent.matmul(v)
        try:
            out.append(solve_exact(v, image))
        except ValueError as exc:
            raise ExtractionError(f"subspace is not invariant: {exc}") from exc
    return out[0], out[1]


def _twist(rid: int, k: int, base: ExactRepresentation) -> ExactRepresentation:
    t, d = LINEAR_IMAGES[k - 1]
    return ExactRepresentation(rid, base.dim, base.img_t.scale(t), base.img_d.scale(d))


def _e(n: int, *positions: int) -> Mat:
    """Sum of standard basis column vectors (1-based positions) in C^n."""
    return Mat(n, 1, [ONE if (i + 1) in positions else ZERO for i in range(n)])


def build_all_exact(table) -> list[ExactRepresentation]:
    """Construct rho_1..rho_32 in CycNum Mat arithmetic; index i lives at position i-1."""
    reps = [None] * 33

    for k in range(1, 9):
        t, d = LINEAR_IMAGES[k - 1]
        reps[k] = ExactRepresentation(k, 1, Mat.from_rows([[t]]), Mat.from_rows([[d]]))

    nat_t, nat_d = element_mat(table.gens["T"]), element_mat(table.gens["D"])
    reps[9] = ExactRepresentation(9, 2, nat_t, nat_d)
    for pos, k in enumerate(FAITHFUL_TWISTS[1:], start=10):
        reps[pos] = _twist(pos, k, reps[9])

    # symmetric square inside rho_9 (x) rho_9
    t99, d99 = kron(nat_t, nat_t), kron(nat_d, nat_d)
    sym2 = [_e(4, 1), _e(4, 2, 3), _e(4, 4)]
    t21, d21 = extract_subrep_exact(t99, d99, sym2)
    reps[21] = ExactRepresentation(21, 3, t21, d21)
    for k in range(2, 9):
        reps[20 + k] = _twist(20 + k, k, reps[21])

    # symmetric cube inside rho_9 (x) rho_21
    t921, d921 = kron(nat_t, t21), kron(nat_d, d21)
    sym3 = [_e(6, 1), _e(6, 2, 4), _e(6, 3, 5), _e(6, 6)]
    t29, d29 = extract_subrep_exact(t921, d921, sym3)
    reps[29] = ExactRepresentation(29, 4, t29, d29)
    for k in (2, 3, 4):
        reps[28 + k] = _twist(28 + k, k, reps[29])

    # invariant plane inside rho_9 (x) rho_29
    t929, d929 = kron(nat_t, t29), kron(nat_d, d29)
    plane = [_e(8, 1, 8), _e(8, 3, 6)]
    t19, d19 = extract_subrep_exact(t929, d929, plane)
    reps[19] = ExactRepresentation(19, 2, t19, d19)
    reps[17] = _twist(17, 2, reps[19])
    reps[18] = _twist(18, 3, reps[19])
    reps[20] = _twist(20, 4, reps[19])

    out = [r for r in reps[1:] if r is not None]
    if len(out) != 32:
        raise ExtractionError("construction did not produce 32 representations")
    return out


class CycRowReducer:
    """Incremental row echelon form over Q(zeta_8) on CycNum entries.

    The reference for linalg.RowReducer, which reduces integer rows to
    primitive ones: over their pivots, the same normalized residuals, in the
    same order.
    """

    def __init__(self):
        self.rows = {}

    def add(self, vec):
        """Insert a vector; returns the normalized residual, None if dependent."""
        vec = list(vec)
        for col in sorted(self.rows):
            c = vec[col]
            if not c.is_zero():
                vec = [v - c * r for v, r in zip(vec, self.rows[col])]
        pivot = next((i for i, v in enumerate(vec) if not v.is_zero()), None)
        if pivot is None:
            return None
        inv = vec[pivot].inverse()
        self.rows[pivot] = vec = [inv * v for v in vec]
        return vec


def coeff_vector(vec, coords):
    """The coefficients of a VecPoly at the listed (component, x-exponent) coordinates.

    Raises ValueError if vec has support outside coords.
    """
    cset = set(coords)
    for j, p in enumerate(vec.components):
        for a, b in p.terms:
            if (j, a) not in cset:
                raise ValueError(f"unexpected term x^{a} y^{b} in component {j}")
    return [vec.components[j].coeff(a, vec.degree - a) for j, a in coords]


def as_fractions(nums, dens):
    """Integer numerators nums[i] over one denominator dens[i] per vector, as Fraction vectors."""
    return [[Fraction(int(n), den) for n in row] for row, den in zip(nums, dens)]


def integer_row(values):
    """int and Fraction values scaled by their least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values]


def parse_poly_text(text):
    """The BiPoly whose to_text() is text, for int and Fraction coefficients.

    to_text writes the terms as [-]body, then " + body" or " - body", each
    body being coeff, monomial or coeff*monomial with monomial x^a*y^b
    (an exponent 1 omitted); "0" is the zero polynomial.
    """
    if text == "0":
        return BiPoly()
    tokens = text.split(" ")
    first = tokens[0]
    signed = [(-1 if first.startswith("-") else 1, first.removeprefix("-"))]
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        if sign not in ("+", "-"):
            raise ValueError(f"no sign between the terms of {text!r}")
        signed.append((-1 if sign == "-" else 1, body))
    terms = {}
    for sign, body in signed:
        coeff, exps = Fraction(1), {"x": 0, "y": 0}
        for factor in body.split("*"):
            var, _, power = factor.partition("^")
            if var in exps:
                exps[var] = int(power or 1)
            else:
                coeff = Fraction(factor)
        mono = (exps["x"], exps["y"])
        if mono in terms or not coeff:
            raise ValueError(f"monomial {mono} twice, or with coefficient 0, in {text!r}")
        terms[mono] = sign * coeff
    return BiPoly(terms)


def as_cyc(p):
    """A BiPoly with every coefficient lifted to CycNum."""
    return BiPoly({k: rational(c) for k, c in p.terms.items()})


def generator_det_exact(engine, rid):
    """det[g_1 .. g_m] in CycNum arithmetic.

    The reference for CovariantEngine.generator_det, which expands the same
    generators' primitive integer rows over Z and divides by their pivots.
    """
    cols = [[as_cyc(p) for p in g.components] for _, g in engine.generators(rid).gens]
    return _poly_det([list(row) for row in zip(*cols)])


def det_relation_exact(engine, rid):
    """CovariantEngine.det_relation with its coefficient ratio and exact
    comparison in CycNum arithmetic.

    Runs the factorization on a fresh engine holding generator_det_exact as
    the determinant and gamma, delta lifted to CycNum, so its constant
    comes back as a CycNum.
    """
    eng = CovariantEngine(engine.table, list(engine.reps.values()))
    eng._dets[rid] = generator_det_exact(engine, rid)
    eng.gamma, eng.delta = as_cyc(engine.gamma), as_cyc(engine.delta)
    return eng.det_relation(rid)


def mat_pow(m, k):
    """m^k for a square Mat and k >= 0 by repeated squaring."""
    if m.rows != m.cols:
        raise ShapeError("power of a non-square matrix")
    if k < 0:
        raise ValueError("negative power of a matrix")
    result = Mat.identity(m.rows)
    while k:
        if k & 1:
            result = result.matmul(m)
        m = m.matmul(m)
        k >>= 1
    return result


def mat_key(m):
    """Canonical hashable key built from the reduced entry coordinates."""
    return (m.rows, m.cols) + tuple(e.key() for e in m.entries)


def closure_exact(gens, limit=CLOSURE_LIMIT):
    """The BFS closure of group.closure in CycNum matrix products.

    Returns (mats, words, parents, right) in discovery order; right[name][i]
    is the index of element i times the generator name.  The reference for
    the integer closure, which must find the same elements in the same order.
    """
    size = gens[0][1].rows
    mats, words, parents = [Mat.identity(size)], [""], [-1]
    index = {mat_key(mats[0]): 0}
    right = {name: [] for name, _ in gens}
    frontier = [0]
    while frontier:
        next_frontier = []
        for ei in frontier:
            for name, g in gens:
                m = mats[ei].matmul(g)
                k = mat_key(m)
                if k not in index:
                    if len(mats) >= limit:
                        raise NotFinitelyClosedError(f"closure exceeded {limit} elements")
                    index[k] = len(mats)
                    next_frontier.append(len(mats))
                    mats.append(m)
                    words.append(words[ei] + name)
                    parents.append(ei)
                right[name].append(index[k])
        frontier = next_frontier
    return mats, words, parents, right


def inner_product(row_a, row_b, table):
    """(1/|G|) sum over classes of |C| a(C) conj(b(C)); rational for characters."""
    acc = ZERO
    for pos, bid in enumerate(table.class_block_order):
        size = len(table.classes[bid])
        acc = acc + row_a[pos] * row_b[pos].conj() * size
    if not is_rational(acc):
        raise RuntimeError(f"non-rational character pairing: {acc}")
    return as_fraction(acc) / len(table)


@lru_cache(maxsize=None)
def inverse_det_series_exact(trace, det, cutoff):
    """CycNum coefficients of 1 / (1 - trace*t + det*t^2) through t^cutoff."""
    coeffs = [ONE, trace][:cutoff + 1]
    for _ in range(2, cutoff + 1):
        coeffs.append(trace * coeffs[-1] - det * coeffs[-2])
    return tuple(coeffs)


def molien_series_elementwise(table, cutoff, mats):
    """Naive 192-term element sum in CycNum; oracle for the class-summed formula."""
    acc = [ZERO] * (cutoff + 1)
    for e in table.elements:
        tr_inv = mats[table.inverse[e.index]].trace()
        if tr_inv.is_zero():
            continue
        mat = element_mat(e.coords)
        expansion = inverse_det_series_exact(mat.trace(), _det2(mat), cutoff)
        for n in range(cutoff + 1):
            acc[n] = acc[n] + tr_inv * expansion[n]
    out = []
    for n, value in enumerate(acc):
        q = as_fraction(value) / len(table)
        if q.denominator != 1:
            raise ValueError(f"element sum gave non-integer {q} at t^{n}")
        out.append(int(q))
    return out


def decode(nums, den=DEN):
    """The CycNum with integer coordinates nums over den (default reps.DEN)."""
    return CycNum._make(tuple(map(int, nums)), den)


def decode_rows(nums, den=DEN):
    """A (rows, cols, 4) integer coordinate array over den (default reps.DEN)
    as rows of CycNum: the class traces of a session as its characters, or a
    reference table (den 1)."""
    return [[decode(e, den) for e in row] for row in nums]


def decode_images(images):
    """The int64 image array of reps.rep_matrices as CycNum matrices."""
    return [decode_image(img) for img in images]


def cyc_from_json(parts):
    """Inverse of CycNum.to_json."""
    return CycNum(*[Fraction(p) for p in parts])


def mat_from_json(data):
    """Inverse of mat_to_json, the matrix rendering of group --format json."""
    return Mat(data["rows"], data["cols"], [cyc_from_json(e) for e in data["entries"]])


@lru_cache(maxsize=None)
def _image_power(g, row, k):
    """(g[row, 0] x + g[row, 1] y)^k, memoized per matrix, row and exponent."""
    if k == 0:
        return BiPoly.constant(1)
    return _image_power(g, row, k - 1) * BiPoly({(1, 0): g.at(row, 0), (0, 1): g.at(row, 1)})


@lru_cache(maxsize=None)
def _monomial_image(g, a, b):
    """x^a y^b evaluated at x -> g x, memoized per matrix and exponents."""
    return _image_power(g, 0, a) * _image_power(g, 1, b)


def vec_substitute(vec, g):
    """Componentwise substitution x -> g x of a VecPoly.

    The same expansion as BiPoly.substitute, but the images of the
    monomials are shared across calls: the full-group covariance tests
    substitute every group element into many vectors.
    """
    def substitute(p):
        out = BiPoly()
        for (a, b), c in p.terms.items():
            out = out + _monomial_image(g, a, b).scale(c)
        return out
    return VecPoly([substitute(p) for p in vec.components], vec.degree)


def mat_apply(vec, m):
    """Matrix action on a VecPoly: (m F)_i = sum_j m[i, j] F_j."""
    if m.cols != len(vec.components):
        raise ValueError("matrix width does not match vector length")
    out = []
    for i in range(m.rows):
        acc = BiPoly()
        for j in range(m.cols):
            c = m.at(i, j)
            if not c.is_zero():
                acc = acc + vec.components[j].scale(c)
        out.append(acc)
    return VecPoly(out, vec.degree)


def binomial_table(d):
    """table[a][b] = coefficient of x^b y^(d-b) in (x+y)^a (x-y)^(d-a).

    Row a holds the coefficients p_k of P = (1+x)^a (x-1)^(d-a), which
    satisfies (x^2 - 1) P' = (d x + d - 2a) P.  Comparing the coefficients
    of x^k gives (k+1) p_(k+1) = -(d-2a) p_k - (d-k+1) p_(k-1), a division
    that is exact, from p_0 = (-1)^(d-a) and p_(-1) = 0: O(d^2) in all.
    """
    table = []
    for a in range(d + 1):
        row, before = [(-1) ** (d - a)], 0
        for k in range(d):
            row.append((-(d - 2 * a) * row[k] - (d - k + 1) * before) // (k + 1))
            before = row[k]
        table.append(row)
    return table


def t_rows_exact(rep, d, coords):
    """CycNum rows of the T constraint on the kept coefficients.

    The reference for CovariantEngine._t_rows, which builds the same rows
    times reps.DEN as integer Z[zeta_8] coordinates.  The substitution side
    is scaled by sqrt(2)^d so its entries are the integer coefficients of
    (x+y)^a (x-y)^(d-a).  Rows that get no entry are dropped.
    """
    u = binomial_table(d)
    m = rep.dim
    scaled_t = decode_image(rep.img_t).scale(CycNum(0, 1, 0, -1) ** d)
    col_index = {c: i for i, c in enumerate(coords)}
    ncols = len(coords)
    rows = []
    for j in range(m):
        kept_a = [a for (jj, a) in coords if jj == j]
        for b in range(d, -1, -1):
            row = [ZERO] * ncols
            nonzero = False
            for a in kept_a:
                v = u[a][b]
                if v:
                    row[col_index[(j, a)]] = rational(v)
                    nonzero = True
            for l in range(m):
                if (l, b) in col_index:
                    s = scaled_t.at(j, l)
                    if not s.is_zero():
                        idx = col_index[(l, b)]
                        row[idx] = row[idx] - s
                        nonzero = True
            if nonzero:
                rows.append(row)
    return rows


def tau_reduced_rows(full, d, reps, mates):
    """The rows (j, b) with 2b >= d of A E, zero rows dropped, as nested lists.

    The reference for the rows of CovariantEngine._tau_system: full is the
    T system A on every kept coordinate, (m, d + 1, ncols) with row (j, b)
    at [j, d - b]; column g of A E is A at reps[g], plus s times A at k for
    each (g, k, s) in mates.
    """
    out = []
    for j in range(len(full)):
        for b in range(d, (d + 1) // 2 - 1, -1):
            row = [full[j, d - b, i] for i in reps]
            for g, k, s in mates:
                row[g] += s * full[j, d - b, k]
            if any(row):
                out.append(row)
    return out


def cyc_encoding(rows):
    """Integer Z[zeta_8] coordinates of rows of CycNum (or int or Fraction) entries.

    Returns (nums, dens): nums[g, e, :] are the four integer coordinates
    (dtype object) of entry e of row g over dens[g], the row's least common
    denominator.
    """
    keys = np.array([[rational(x).key() for x in row] for row in rows], dtype=object)
    keys = keys.reshape(len(rows), len(rows[0]) if rows else 0, 5)
    dens = [lcm(*row) for row in keys[..., 4].tolist()]
    return keys[..., :4] * (np.array(dens, dtype=object)[:, None] // keys[..., 4])[..., None], dens


def int_rows(rows):
    """CycNum rows as an integer Z[zeta_8] array, one row of coordinates per row.

    Each row is scaled by its least common denominator, which leaves the
    nullspace unchanged.
    """
    return cyc_encoding(rows)[0]


def rational_rows(rows):
    """Rational CycNum rows as an integer matrix.

    Each row is scaled by its least common denominator; raises ValueError
    if an entry has a nonzero z, z^2 or z^3 coordinate.
    """
    nums = int_rows(rows)
    if nums[..., 1:].any():
        raise ValueError("the rows are not rational")
    return nums[..., 0]


def covariance_failure_lifted(engine, rid, vec):
    """CovariantEngine.covariance_failure through the Z[zeta_8] lift of the exact rows.

    Reads neither the engine's integer T rows nor its central-character
    shortcut: the CycNum T rows of t_rows_exact, at any degree, and the
    coefficients at the kept coordinates are lifted to integer Z[zeta_8]
    coordinates over their least common denominators (cyc_encoding) and
    multiplied through CYC_STRUCT on all four lanes.
    """
    rep = engine.reps[rid]
    coords = engine._d_coords(rep, vec.degree)
    try:
        coeffs = coeff_vector(vec, coords)
    except ValueError:
        return "D"
    rows = t_rows_exact(rep, vec.degree, coords)
    if not rows:
        return None
    image = np.einsum("gcp,cq,pqr->gr", cyc_encoding(rows)[0], cyc_encoding([coeffs])[0][0],
                      CYC_STRUCT)
    return "T" if image.any() else None


def galois(x, k):
    """The automorphism z -> z^k (k odd) on integer coordinates x[..., 4]."""
    out = np.empty_like(x)
    for p in range(4):
        q = p * k
        out[..., q % 4] = x[..., p] if q % 8 < 4 else -x[..., p]
    return out


def _zeta_mul(a, b):
    """Z[zeta_8] products of the coordinates a[..., 4] and b[..., 4], broadcast."""
    return sum(a[..., p, None] * zeta_shift(b, p) for p in range(4) if a[..., p].any())


def _primitive(rows):
    """Each row of coordinates rows[i, :, 4] divided by the gcd of its entries."""
    g = np.array([gcd(*row) or 1 for row in rows.reshape(len(rows), -1).tolist()],
                 dtype=object)
    return rows // g[:, None, None]


def cyc_nullspace(nums, ncols):
    """nullspace_from_rref(rref(rows)) over Q(zeta_8), on integer coordinates.

    nums[i, c, :] are the four integer Z[zeta_8] coordinates of entry c of
    row i (a row may be scaled by any nonzero number: the nullspace stays).
    The elimination is rref's, pivot at the first nonzero entry in column
    order, rows scanned top to bottom, but fraction free in Python ints,
    with no CycNum: an irrational pivot entry is made its norm, an integer,
    by multiplying the pivot row by the entry's three Galois conjugates;
    every other row is cleared as N row - f pivot row, N the integer pivot
    entry; and each changed row is divided by the gcd of its coordinates.
    Pivot entries stay nonzero integers, so the reduced rows are the rref
    rows times them.  Returns the basis like nullspace_from_rref, with
    CycNum entries at the pivot columns.
    """
    m = np.array(nums, dtype=object).reshape(-1, ncols, 4)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        nonzero = np.flatnonzero(m[r:, c].any(axis=1))
        if not len(nonzero):
            continue
        src = r + nonzero[0]
        m[[r, src]] = m[[src, r]]
        p = m[r, c].copy()
        if p[1:].any():
            m[r] = _zeta_mul(m[r], _zeta_mul(galois(p, 3), _zeta_mul(galois(p, 5), galois(p, 7))))
        m[r] = _primitive(m[r:r + 1])[0]
        hit = np.flatnonzero(m[:, c].any(axis=1))
        hit = hit[hit != r]
        if len(hit):
            m[hit] = _primitive(m[r, c, 0] * m[hit] - _zeta_mul(m[hit, c][:, None], m[r]))
        pivots.append(c)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = 1
        for k, c in enumerate(pivots):
            v[c] = CycNum._make(tuple(-m[k, f]), m[k, c, 0])
        basis.append(v)
    return basis


def slice_dense(engine, rid, d):
    """Reference solver: the plain T and D constraint system, no pruning.

    Certifies that CovariantEngine.slice, which drops coordinates by the
    central and diagonal-D constraints and solves what is left exactly, computes
    the same normal-form basis.  Returns that basis as a tuple of VecPoly,
    like CovariantSlice.basis.
    """
    rep = engine.reps[rid]
    m = rep.dim
    coords = [(j, a) for j in range(m) for a in range(d, -1, -1)]
    col_index = {c: i for i, c in enumerate(coords)}
    ncols = len(coords)
    u = binomial_table(d)
    rows = []
    scaled_t = decode_image(rep.img_t).scale(CycNum(0, 1, 0, -1) ** d)
    for j in range(m):
        for b in range(d, -1, -1):
            row = [ZERO] * ncols
            for a in range(d + 1):
                if u[a][b]:
                    row[col_index[(j, a)]] = rational(u[a][b])
            for l in range(m):
                s = scaled_t.at(j, l)
                if not s.is_zero():
                    idx = col_index[(l, b)]
                    row[idx] = row[idx] - s
            rows.append(row)
    img_d = decode_image(rep.img_d)
    i_pow = [CycNum.zeta(0), CycNum.zeta(2), CycNum.zeta(4), CycNum.zeta(6)]
    for j in range(m):
        for b in range(d, -1, -1):
            row = [ZERO] * ncols
            row[col_index[(j, b)]] = i_pow[(d - b) % 4]
            for l in range(m):
                s = img_d.at(j, l)
                if not s.is_zero():
                    idx = col_index[(l, b)]
                    row[idx] = row[idx] - s
            rows.append(row)
    reduced, pivots = rref(rows)
    return tuple(VecPoly.from_coeffs(coords, v, m, d)
                 for v in nullspace_from_rref(reduced, pivots, ncols))


def covariance_check(vec, image, natural):
    """Exact check of F(s x) = rho(s) F(x) for one group element."""
    return vec_substitute(vec, natural) == mat_apply(vec, image)


@lru_cache(maxsize=None)
def scalar_product(theta, phi, a, b):
    """theta^a * phi^b, memoized on the forms themselves."""
    return (theta ** a) * (phi ** b)


def verify_free_by_elimination(engine, rid, top):
    """Free-module check by row reduction of every product theta^a phi^b g_j.

    For each degree d <= top the products of degree d must be linearly
    independent and as many as the Molien coefficient.  Returns the report
    of CovariantEngine.verify_free, which proves this from the generator
    determinant instead.
    """
    genset = engine.generators(rid)
    mol = engine.molien(rid)
    rep = engine.reps[rid]
    for d in range(top + 1):
        prods = []
        for gdeg, g in genset.gens:
            rest = d - gdeg
            if rest < 0 or rest % 8:
                continue
            for b in range(rest // 24 + 1):
                rem = rest - 24 * b
                if rem % 8 == 0:
                    prods.append(g.mul_poly(
                        scalar_product(engine.theta, engine.phi, rem // 8, b)))
        expected = mol.coefficient(d)
        if len(prods) != expected:
            raise FreenessError(
                f"rho_{rid} degree {d}: {len(prods)} products, "
                f"Molien coefficient {expected}")
        if prods:
            coords = [(j, a) for j in range(rep.dim) for a in range(d, -1, -1)]
            reducer = RowReducer()
            for p in prods:
                if reducer.add(integer_row(coeff_vector(p, coords))) is None:
                    raise FreenessError(
                        f"rho_{rid} degree {d}: dependent products")
    return {"rep": rid, "generator_degrees": genset.degrees}
