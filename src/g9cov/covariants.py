"""Modules of covariants: slices, generators, and their structure.

A rho-covariant is a vector F of homogeneous polynomials with
F(s x) = rho(s) F(x) for every group element s.  The two generator
constraints suffice: covariance multiplies along words, and that rho is
a homomorphism is certified by G9's presentation (reps.verify_homomorphism).

The degree-d slice is computed as the nullspace of an exact linear
system on the coefficients c_(j,a) of x^a y^(d-a) in F_j.  Three
reductions cut the system down before any elimination happens, all exact
consequences of the same covariance condition:

  * the central element zI acts on degree-d polynomials by z^d and on
    the module by a scalar z^r; unless d = r (mod 8) the slice is zero,
    and a vector that meets the D constraint is covariant only if it is 0;
  * every rho(D) here is diagonal, so the D constraint just selects,
    per component j, the x^a y^(d-a) with i^(d-a) equal to the j-th
    diagonal entry;
  * the swap tau: (x, y) -> (y, x) is T D^2 T (checked on coordinates),
    so every covariant has F(y, x) = rho(T) rho(D)^2 rho(T) F(x, y).  That
    matrix is checked to be a signed permutation of order 2, with sign s_l
    at (l, perm[l]), so c_(l,a) = s_l c_(perm[l], d-a): the kept
    coordinates fall into swap pairs and each pair's right-most coordinate
    is one unknown, c = E u.  A coordinate that is its own partner with
    s_l = -1, or whose partner is not kept, is 0.

What is left is the T constraint A on the kept coefficients, built
(times reps.DEN) as an integer matrix of Python ints, column by column.
The central scalar is read off the image of zI (reps.central_residue), no
other image is built.  A is rational by one exact check per
representation: _symmetry checks that t = rho(T) sqrt(2)^(r mod 2) has
zeta_8, zeta_8^2 and zeta_8^3 coordinates 0.  A solved degree d is r mod
8, so scaling the substitution side by sqrt(2)^d, which makes it the
integer coefficients of (x+y)^a (x-y)^(d-a), scales rho(T) to
2^(d // 2) t.  Elimination of a rational matrix never leaves Q, so its
normal-form nullspace over Q(zeta_8) is the one over Q, byte for byte.
A is solved as B, the rows (j, b) with 2b >= d of A E: about half the
unknowns and half the rows.  Three facts make this exact:

  * null(A) lies in im(E) by the swap reduction above, and E is
    injective, so null(A) = E null(A E);
  * on swap-symmetric F, G = F o T - rho(T) F satisfies
    G o tau = rho(D^2) G, so row (j, b) of A E is rho(D^2)_jj times row
    (j, d - b).  This is checked exactly on every system before the rows
    with 2b < d are dropped, so null(A E) = null(B);
  * each unknown sits at its pair's right-most column, so E maps the
    canonical nullspace normal form of B onto that of A: basis vector v_f
    is 1 at its free column f (no pivot of the reduced row echelon form),
    0 at the other free columns and has no support right of f.

linalg.rref reduces the integer matrix B exactly, and
linalg.rref_nullspace reads the normal-form basis off it.  Every slice
dimension is cross checked against the Molien coefficient; for a T system
the linear solver and the character-theoretic pipeline so certify each
other degree by degree.

The T system is solved through degree T_SYSTEM_DEGREE, verify's
crosscheck range; the rest comes from the free products theta^a psi^b g
of generators g (products), psi being theta^3 - phi over its content: the
sparse gamma^4 (42 gamma^4 = theta^3 - phi, checked by cli._check_invariants),
and C[theta, psi] = C[theta, phi] = R.  At each degree of the sweep the
new generators are an RREF complement in the slice of the products of
those below, which span R_+ M_d (linalg.RowReducer; each is a primitive
integer row over its positive pivot, its first nonzero entry).  Above
T_SYSTEM_DEGREE, slice d is the span of the products of all generators
on the swap-paired unknowns: in M_d as theta and psi are rho_1-invariant
(covariance_failure, once per engine), all of M_d by the Molien cross
check (freeness predicts it; the code does not assume it).  rref with the
columns reversed makes each row's pivot its last nonzero column, its free
column f, so read back reversed each primitive row is nums_i with den_i
its positive pivot.  The tests compare it with the T system up to degree 250.

The module is free (Chevalley, Amer. J. Math. 77 (1955)), so by Stanley's
criterion (Bull. AMS 1 (1979)) rank-many covariants, independent over
C[theta, phi] and with the numerator's exponents as degrees, are a basis.
generators() checks count and degrees exactly.  verify_free proves
independence and span without elimination:

  * det[g_1 .. g_m] != 0 (generator_det, shared with det_relation; for
    rank 1 the generator itself), so the g_j are independent over C(x, y);
  * theta and phi are algebraically independent: a nonzero relation
    between forms of degrees 8 and 24 can be taken weighted homogeneous,
    and divided by a power of theta it becomes a polynomial over C
    satisfied by phi / theta^3, which is then constant; so it suffices
    that theta != 0 and phi is not a constant multiple of theta^3;
  * so sum_j p_j(theta, phi) g_j = 0 forces each p_j(theta, phi) = 0 and
    then each p_j = 0: the products theta^a phi^b g_j are independent;
  * they are covariants, and in each degree d exactly as many as the
    Molien coefficient dim M(rho)_d: their degrees are the numerator's
    multiset (checked by generators() and again by verify_free), so the
    count is the closed form of MolienResult.coefficient; they span M_d.

det_relation factors det[g_1 .. g_m] as c delta^e gamma^k (Stanley,
J. Algebra 49 (1977)), every rank alike: for rank 1 this is the closed
form gamma^k delta^e of the generator, which verify_linear_generators
reads.  delta and gamma are coprime (delta is nonzero on the six lines
of gamma = -x y (x^4 - y^4)), so (e, k) is unique; for e in (2, 1, 0) the
degree fixes k, and one coefficient ratio and one exact comparison
(_multiple) decide each candidate.  No polynomial division is needed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, product
from math import comb, gcd, prod
from operator import add, neg, sub

from . import group
from .group import GroupTable, multiply
from .linalg import RowReducer, rref, rref_nullspace, zeta_power, zeta_shift
from .molien import MolienResult, molien_series
from .poly import BiPoly, VecPoly, fundamental_invariants
# rep_matrices is re-exported: perfbench/spans.py wraps it under this name
from .reps import (DEN, CensusError, Representation, central_residue, class_traces,  # noqa: F401
                   rep_matrices)
from . import reference

# slices through this degree solve the T system; above it they are spanned
# by the free products of the generators (module docstring)
T_SYSTEM_DEGREE = 40


class CrossCheckError(RuntimeError):
    """A structural check of the slice solver (the swap, _symmetry, a dropped
    T row) failed, or a slice dimension and its Molien coefficient disagree."""


class FreenessError(RuntimeError):
    """Generator count, independence, or span failed at some degree."""


class FactorizationError(RuntimeError):
    """A generator determinant is not a constant times delta^e gamma^k."""


class GeneratorMismatchError(RuntimeError):
    """An extracted generator differs from its expected closed form."""


@dataclass(frozen=True, eq=False)
class CovariantSlice:
    """Basis vector i has coefficient nums[i][c] / dens[i] at coords[c]."""
    rep_id: int
    rank: int                             # components of each vector
    degree: int
    coords: tuple[tuple[int, int], ...]   # (component, x-exponent) positions
    nums: tuple[tuple[int, ...], ...]     # dim rows of len(coords) Python ints
    dens: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.dens)

    @cached_property
    def basis(self) -> tuple[VecPoly, ...]:
        return tuple(VecPoly.from_coeffs(self.coords, [Fraction(n, den) for n in row],
                                         self.rank, self.degree)
                     for row, den in zip(self.nums, self.dens))


@dataclass(frozen=True)
class GeneratorSet:
    """Each generator is (degree, coords, row): row / its pivot at coords, as RowReducer made it."""
    rep_id: int
    rank: int                             # components of each generator
    rows: tuple[tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]], ...]  # degree ascending

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _, _ in self.rows)

    @cached_property
    def gens(self) -> tuple[tuple[int, VecPoly], ...]:
        out = []
        for d, coords, row in self.rows:
            pivot = next(filter(None, row))
            out.append((d, VecPoly.from_coeffs(coords, [Fraction(v, pivot) for v in row],
                                               self.rank, d)))
        return tuple(out)


@dataclass(frozen=True)
class TauRecord:
    degree: int
    found: bool


@dataclass(frozen=True, eq=False)
class _Symmetry:
    residue: int                # the central scalar is zeta_8^residue
    expo: tuple[int, ...]       # rho(D)_jj = i^expo[j], so rho(D^2)_jj = (-1)^expo[j]
    t: tuple[tuple[int, ...], ...]   # rho(T) sqrt(2)^(residue mod 2) times DEN, rows
    perm: tuple[int, ...]       # rho(tau) has sign[l] at (l, perm[l]), tau = T D^2 T
    sign: tuple[int, ...]


def _tau_pairing(coords: list[tuple[int, int]], d: int, perm: tuple[int, ...],
                 sign: tuple[int, ...]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The columns of E: each unknown is a swap pair's right-most coordinate.

    Covariants satisfy c_(l, a) = sign[l] * c_(perm[l], d - a).  Returns
    reps, the coordinate index of each unknown in ascending order, and
    mates, (unknown, partner index, sign) for each pair of two coordinates.
    A coordinate whose partner is not kept, or that is its own partner
    with sign -1, is 0 and belongs to no unknown.
    """
    index = {c: i for i, c in enumerate(coords)}
    reps: list[int] = []
    mates: list[tuple[int, int, int]] = []
    for i, (l, a) in enumerate(coords):
        k = index.get((perm[l], d - a))
        if k is None or k > i or (k == i and sign[l] < 0):
            continue
        if k < i:
            mates.append((len(reps), k, sign[l]))
        reps.append(i)
    return reps, mates


@lru_cache(maxsize=None)
def _binomial_table(d: int) -> tuple[tuple[int, ...], ...]:
    """table[a][b] = coefficient of x^b y^(d-b) in (x+y)^a (x-y)^(d-a).

    Row 0 is (x-y)^d.  For P_a = (x+y)^a (x-y)^(d-a), y (P_a + P_(a+1)) =
    x (P_(a+1) - P_a), so each next row is a running sum of the previous.
    The table is a tuple of tuples, so one cached copy serves every engine.
    """
    table = [tuple(comb(d, b) * (-1) ** (d - b) for b in range(d + 1))]
    for a in range(d):
        prev = table[a]
        step = [(-1) ** (d - a - 1)] + [-(x + y) for x, y in zip(prev, prev[1:])]
        table.append(tuple(accumulate(step)))
    return tuple(table)


class CovariantEngine:
    """Shared caches for slices, generators and their determinants."""

    def __init__(self, table: GroupTable, reps: list[Representation]):
        self.table = table
        self.reps = {r.rid: r for r in reps}
        self.gamma, self.theta, self.delta, self.phi = fundamental_invariants()
        self._molien: dict[int, MolienResult] = {}
        self._slices: dict[tuple[int, int], CovariantSlice] = {}
        self._gens: dict[int, GeneratorSet] = {}
        self._dets: dict[int, BiPoly] = {}
        self._symmetries: dict[int, _Symmetry] = {}
        t, d = table.gens["T"], table.gens["D"]
        one, zero = zeta_power(0, group.DEN), (0, 0, 0, 0)
        if multiply(multiply(t, d), multiply(d, t)) != ((zero, one), (one, zero)):
            raise CrossCheckError("T D^2 T is not the swap (x, y) -> (y, x)")
        # slices_solved by a T system, and the rows and cells (rows x
        # columns) of those systems
        self.counters: Counter[str] = Counter()

    # -- cached building blocks ---------------------------------------------------

    def molien(self, rid: int) -> MolienResult:
        if rid not in self._molien:
            rep = self.reps[rid]
            self._molien[rid] = molien_series(rep, self.table, class_traces(rep, self.table))
        return self._molien[rid]

    # -- the slice solver -----------------------------------------------------------

    def _symmetry(self, rid: int) -> _Symmetry:
        """The central residue, D exponents, rational T and swap pattern of rho_rid, cached.

        Raises CrossCheckError, naming the representation, unless rho(D) is
        diagonal with powers of i, zI acts by zeta_8^r times the identity,
        rho(T) sqrt(2)^(r mod 2) is rational and rho(T) rho(D)^2 rho(T) is a
        signed permutation of order 2 (see the module docstring).
        """
        if rid not in self._symmetries:
            rep = self.reps[rid]
            ids = range(rep.dim)
            diag = [rep.img_d[j][j] for j in ids]
            if any(rep.img_d[j][l] != (0, 0, 0, 0) for j in ids for l in ids if j != l):
                raise CrossCheckError(f"rho_{rid}: D image is not diagonal")
            i_powers = [zeta_power(2 * e, DEN) for e in range(4)]
            if not all(x in i_powers for x in diag):
                raise CrossCheckError(f"rho_{rid}: a D eigenvalue is not a power of i")
            expo = tuple(i_powers.index(x) for x in diag)
            try:
                residue = central_residue(rep, self.table)
            except CensusError as exc:
                raise CrossCheckError(str(exc)) from None
            odd = residue % 2
            t = [[tuple(p - q for p, q in zip(zeta_shift(x, 1), zeta_shift(x, 3)))
                  for x in row] for row in rep.img_t] if odd else rep.img_t
            if any(x[1:] != (0, 0, 0) for row in t for x in row):
                raise CrossCheckError(f"rho_{rid}: rho(T) sqrt(2)^{odd} is not rational")
            t = tuple(tuple(x[0] for x in row) for row in t)
            # rho(tau) = rho(T) diag((-1)^e_j) rho(T) is tau / (DEN^2 2^odd)
            tau = [[sum(t[j][k] * (-1) ** expo[k] * t[k][l] for k in ids) for l in ids]
                   for j in ids]
            unit = DEN ** 2 << odd
            perm = tuple(next((l for l in ids if tau[j][l]), 0) for j in ids)
            sign = tuple(tau[j][perm[j]] // unit for j in ids)
            signed = [[sign[j] * unit if l == perm[j] else 0 for l in ids] for j in ids]
            if not (all(x in (-1, 1) for x in sign) and tau == signed
                    and all(perm[perm[j]] == j and sign[perm[j]] == sign[j] for j in ids)):
                raise CrossCheckError(f"rho_{rid}: rho(T) rho(D)^2 rho(T) is not a "
                                      f"signed permutation of order 2")
            self._symmetries[rid] = _Symmetry(residue, expo, t, perm, sign)
        return self._symmetries[rid]

    def _d_coords(self, rep: Representation, d: int) -> list[tuple[int, int]]:
        """Coordinates (j, a) where x^a y^(d-a) meets the diagonal-D constraint.

        D = diag(1, i) scales x^a y^(d-a) by i^(d-a), which must be rho(D)_jj.
        """
        return [(j, a) for j, e in enumerate(self._symmetry(rep.rid).expo)
                for a in range(d, -1, -1) if (d - a - e) % 4 == 0]

    def _kept_coords(self, rep: Representation, d: int) -> list[tuple[int, int]] | None:
        """Coordinates surviving the central and diagonal-D constraints.

        Returns None when the central scalar rules the whole degree out.
        """
        if (d - self._symmetry(rep.rid).residue) % 8:
            return None
        return self._d_coords(rep, d)

    def _t_rows(self, rep: Representation, d: int,
                coords: list[tuple[int, int]]) -> list[list[int]]:
        """The T constraint on the coefficients at coords, times DEN, over Z, by columns.

        Requires d = residue (mod 8), as at every solved degree.  Row (j, b)
        is DEN * u[a, b] at each column (j, a), u the _binomial_table(d),
        minus 2^(d // 2) _Symmetry.t at the columns (l, b): the substitution
        side scaled by sqrt(2)^d (see the module docstring).  Returns one
        column per coordinate, each a list of m (d + 1) Python ints with row
        (j, b) at j (d + 1) + d - b.
        """
        t, n = self._symmetry(rep.rid).t, d + 1
        scale = 2 ** (d // 2)
        u = _binomial_table(d)
        cols = []
        for l, a in coords:
            col = [0] * (rep.dim * n)
            col[l * n:(l + 1) * n] = [DEN * v for v in reversed(u[a])]
            for j, row in enumerate(t):
                col[j * n + d - a] -= scale * row[l]
            cols.append(col)
        return cols

    def _tau_system(self, rep: Representation, d: int, coords: list[tuple[int, int]]
                    ) -> tuple[list[int], list[tuple[int, int, int]], list[tuple[int, ...]]]:
        """The T constraint on the swap-paired unknowns: (reps, mates, rows).

        Unknown g is the coefficient at coords[reps[g]]; (g, k, s) in mates
        sets coords[k] to s times it (see _tau_pairing).  The rows of B are
        the T rows (j, b) with 2b >= d of A E, in order j, then b
        descending, zero rows dropped; each other row (j, b) must equal
        rho(D^2)_jj times row (j, d - b), or CrossCheckError names the
        representation and the degree.  rows is B as an integer matrix,
        len(B) tuples of len(reps) Python ints.
        """
        sym = self._symmetry(rep.rid)
        reps, mates = _tau_pairing(coords, d, sym.perm, sym.sign)
        cols = self._t_rows(rep, d, coords)
        for g, k, s in mates:
            cols[reps[g]] = list(map(add if s > 0 else sub, cols[reps[g]], cols[k]))
        cols = [cols[i] for i in reps]
        n, h = d + 1, d // 2 + 1
        for col in cols:
            for j, e in enumerate(sym.expo):
                block, swapped = col[j * n:(j + 1) * n], col[j * n:j * n + n - h][::-1]
                if block[h:] != (list(map(neg, swapped)) if e % 2 else swapped):
                    raise CrossCheckError(f"rho_{rep.rid} degree {d}: a dropped T row is not "
                                          f"rho(D^2) times its swapped row")
        rows = [row for j in range(rep.dim)
                for row in zip(*(col[j * n:j * n + h] for col in cols)) if any(row)]
        return reps, mates, rows

    def covariance_failure(self, rid: int, vec: VecPoly) -> str | None:
        """The first generator, "D" then "T", at which vec is not rho_rid-covariant.

        Returns None when vec(s x) = rho_rid(s) vec(x) for s = D and s = T,
        hence for every element of G9 = <T, D>.  D holds exactly when vec
        has no support outside _d_coords.  Then at a degree d other than the
        residue r mod 8, T fails unless vec = 0: else vec(z x) = z^d vec(x)
        would equal rho(zI) vec(x) = z^r vec(x).  At d = r (mod 8), T holds
        exactly when the integer T rows (_t_rows) annihilate vec's coefficients.
        """
        rep = self.reps[rid]
        coords = self._d_coords(rep, vec.degree)
        index = {c: i for i, c in enumerate(coords)}
        coeffs = [0] * len(coords)
        for j, p in enumerate(vec.components):
            for (a, _), c in p.terms.items():
                if (j, a) not in index:
                    return "D"
                coeffs[index[j, a]] = c
        if (vec.degree - self._symmetry(rid).residue) % 8:
            return "T" if any(coeffs) else None
        image = [0] * (rep.dim * (vec.degree + 1))
        for c, col in zip(coeffs, self._t_rows(rep, vec.degree, coords)):
            if c:
                image = [x + c * y for x, y in zip(image, col)]
        return "T" if any(image) else None

    def slice(self, rid: int, d: int) -> CovariantSlice:
        """The space of homogeneous degree-d covariants of rho_rid.

        Through T_SYSTEM_DEGREE the nullspace of the T system, above it the
        span of the products of generators() (see the module docstring);
        CrossCheckError names the representation and the degree if theta or
        phi is not rho_1-invariant there.
        """
        if d < 0:
            raise ValueError(f"rho_{rid} degree {d}: the degree is negative")
        if (rid, d) in self._slices:
            return self._slices[rid, d]
        rep = self.reps[rid]
        coords = self._kept_coords(rep, d)
        if coords is None:
            coords, nums, dens = [], (), []
        else:
            if d <= T_SYSTEM_DEGREE:
                reps, mates, rows = self._tau_system(rep, d, coords)
                u, dens = rref_nullspace(*rref(rows), len(reps))
                self.counters.update(slices_solved=1, rows=len(rows),
                                     cells=len(rows) * len(reps))
            elif not self._invariants_covariant:
                raise CrossCheckError(f"rho_{rid} degree {d}: theta or phi is not "
                                      f"rho_1-invariant")
            else:
                sym = self._symmetry(rid)
                reps, mates = _tau_pairing(coords, d, sym.perm, sym.sign)
                reduced, pivots = rref([[row[i] for i in reversed(reps)] for row in
                                        self.products(rid, d, self.generators(rid).rows)])
                u = [row[::-1] for row in reversed(reduced)]
                dens = [row[p] for row, p in zip(reduced[::-1], pivots[::-1])]
            nums = []                                   # E u
            for row in u:
                full = [0] * len(coords)
                for g, i in enumerate(reps):
                    full[i] = row[g]
                for g, k, s in mates:
                    full[k] = s * row[g]
                nums.append(tuple(full))
        result = CovariantSlice(rid, rep.dim, d, tuple(coords), tuple(nums), tuple(dens))
        expected = self.molien(rid).coefficient(d)
        if expected != result.dim:
            raise CrossCheckError(
                f"rho_{rid} degree {d}: solver dimension {result.dim}, "
                f"Molien coefficient {expected}")
        self._slices[rid, d] = result
        return result

    # -- generators -------------------------------------------------------------------

    def products(self, rid: int, d: int, gens) -> list[list[int]]:
        """Integer rows of theta^a psi^b g at slice d's coordinates, in a fixed order.

        gens holds (degree, coords, row) as GeneratorSet.rows does; each g of
        degree below d contributes, b descending over all g (the order that
        eliminates cheapest).  A term c x^s y^(k-s) of theta^a psi^b adds c
        times g's row at slice d's coordinates with x-exponents shifted by s.
        """
        index = {c: i for i, c in enumerate(self._kept_coords(self.reps[rid], d) or ())}
        gens = [g for g in gens if g[0] < d]
        thetas = list(accumulate([BiPoly.constant(1)] + [self.theta] * (d // 8), BiPoly.__mul__))
        psis = list(accumulate([BiPoly.constant(1)] + [self.psi] * (d // 24), BiPoly.__mul__))
        out = []
        for b, (e, coords, vec) in product(range(d // 24, -1, -1), gens):
            if (a := (d - e) // 8 - 3 * b) < 0:
                continue
            row = [0] * len(index)
            for (s, _), c in (thetas[a] * psis[b]).terms.items():
                cols = [index.get((j, x + s)) for j, x in coords]
                if None in cols:
                    raise ValueError(f"rho_{rid} degree {d}: a product term is off the slice")
                for col, v in zip(cols, vec):
                    if v:
                        row[col] += c * v
            out.append(row)
        return out

    def generators(self, rid: int) -> GeneratorSet:
        """Minimal free-module generators, extracted degree by degree.

        The sweep ends at the Molien numerator's top degree or T_SYSTEM_DEGREE,
        whichever is lower, then checks exactly that there are rank many
        generators and that their degrees are the numerator's multiset.
        """
        if rid in self._gens:
            return self._gens[rid]
        rep = self.reps[rid]
        residue = self._symmetry(rid).residue
        numerator = self.molien(rid).numerator
        top = min(numerator[-1][0], T_SYSTEM_DEGREE)
        gens = []
        for d in range(residue, top + 1, 8):
            sl = self.slice(rid, d)
            if not sl.dim:
                continue
            reducer = RowReducer()
            for row in self.products(rid, d, gens):
                reducer.add(row)
            for row in sl.nums:
                res = reducer.add(row)
                if res is not None:
                    gens.append((d, sl.coords, res))
        if len(gens) != rep.dim:
            raise FreenessError(
                f"rho_{rid}: {len(gens)} generators by degree {top}, "
                f"expected {rep.dim}")
        result = GeneratorSet(rid, rep.dim, tuple(gens))
        expected = tuple(g for g, c in numerator for _ in range(c))
        if result.degrees != expected:
            raise FreenessError(
                f"rho_{rid}: generator degrees {result.degrees} by degree {top}, "
                f"Molien numerator degrees {expected}")
        self._gens[rid] = result
        return result

    def verify_free(self, rid: int) -> dict:
        """Free-module check: theta^a phi^b g_j fill every slice.

        Checks, with no elimination, the hypotheses of the freeness argument
        in the module docstring: generator degrees equal to the numerator's
        multiset, theta and phi algebraically independent, det[g_j] != 0.
        FreenessError names the representation (for a count, also the lowest
        degree where the products and the Molien coefficient differ).
        """
        genset = self.generators(rid)
        mol = self.molien(rid)
        have, want = Counter(genset.degrees), Counter(dict(mol.numerator))
        if have != want:
            # counts agree below the lowest degree d where the multisets
            # differ, and differ at d by the difference of the multiplicities
            d = min((have - want) + (want - have))
            products = MolienResult(rid, tuple(sorted(have.items()))).coefficient(d)
            raise FreenessError(f"rho_{rid} degree {d}: {products} products, "
                                f"Molien coefficient {mol.coefficient(d)}")
        if not self._invariants_independent:
            raise FreenessError(f"rho_{rid}: theta and phi are algebraically dependent")
        if self.generator_det(rid).is_zero():
            raise FreenessError(f"rho_{rid}: generator determinant is zero")
        return {"rep": rid, "generator_degrees": genset.degrees}

    @cached_property
    def psi(self) -> BiPoly:
        """theta^3 - phi over its content, an integer form: gamma^4 (module docstring)."""
        diff = self.theta ** 3 - self.phi
        content = gcd(*diff.terms.values())
        return BiPoly({k: c // content for k, c in diff.terms.items()})

    @cached_property
    def _invariants_covariant(self) -> bool:
        """theta and psi are rho_1-invariant (so is phi), so they map covariants to covariants."""
        return not any(self.covariance_failure(1, VecPoly([f])) for f in (self.theta, self.psi))

    @cached_property
    def _invariants_independent(self) -> bool:
        """theta and phi are nonzero and phi is not a multiple of theta^3 (module docstring)."""
        theta3 = self.theta ** 3
        return not (theta3.is_zero() or self.phi.is_zero()) and _multiple(self.phi, theta3) is None

    # -- determinant factorization -----------------------------------------------------

    def generator_det(self, rid: int) -> BiPoly:
        """det[g_1 .. g_m], generators as columns; for rank 1 the generator.

        Generator k is its primitive integer row over the row's pivot: the
        determinant of the rows, expanded over Z, times the product of 1/pivot.
        """
        if rid not in self._dets:
            genset = self.generators(rid)
            cols = [VecPoly.from_coeffs(coords, row, genset.rank, d).components
                    for d, coords, row in genset.rows]
            scale = Fraction(1, prod(next(filter(None, row)) for _, _, row in genset.rows))
            self._dets[rid] = _poly_det([list(row) for row in zip(*cols)]).scale(scale)
        return self._dets[rid]

    def det_relation(self, rid: int) -> tuple[int, int, Fraction]:
        """Factor det[generators] as c * delta^e * gamma^k; returns (e, k, c).

        delta and gamma are coprime, so (e, k) is unique: each candidate of
        the determinant's degree is one exact comparison (_multiple).  For
        rank 1 the determinant is the generator, gamma^k delta^e times c.
        """
        det = self.generator_det(rid)
        if det.is_zero():
            raise FactorizationError(f"rho_{rid}: generator determinant is zero")
        deg = det.degree()
        for e in (2, 1, 0):
            k, r = divmod(deg - 12 * e, 6)
            if not r and k >= 0 and (c := _multiple(det, self.delta ** e * self.gamma ** k)):
                return e, k, c
        raise FactorizationError(f"rho_{rid}: determinant of degree {deg} is not "
                                 f"c * delta^e * gamma^k")

    # -- swap-symmetry structure ----------------------------------------------------------

    def tau_structure(self, rid: int) -> list[TauRecord]:
        """Per generator of a rank-3 or rank-4 module, a swap-symmetric representative.

        The pattern is (f, g, s*tau(f)) with tau(g) = s*g in rank 3, or
        (f, g, s*tau(g), s*tau(f)) in rank 4, with the sign s fixed per
        representation (reference.TAU_SIGNS), that is F o tau = s * P F for
        the reversal P, or c_(l, a) = s * c_(m-1-l, d-a) on the integer row.
        Every covariant satisfies F o tau = rho(tau) F (tau = T D^2 T, see
        the module docstring), and _symmetry certifies rho(tau) exactly as a
        signed permutation.  So when that permutation is the reversal with
        every sign s, each generator is its own swap-symmetric
        representative; this is checked exactly on its integer row all the
        same.  Otherwise every record has found=False.
        """
        m = self.reps[rid].dim
        if m < 3:
            return []
        s = reference.TAU_SIGNS[rid]
        sym = self._symmetry(rid)
        pattern = sym.perm == tuple(range(m - 1, -1, -1)) and sym.sign == (s,) * m
        records = []
        for d, coords, row in self.generators(rid).rows:
            coeff = dict(zip(coords, row))
            found = pattern and all(v == s * coeff.get((m - 1 - l, d - a), 0)
                                    for (l, a), v in coeff.items())
            records.append(TauRecord(d, found))
        return records

    # -- rank-1 closed forms -----------------------------------------------------------------

    def verify_linear_generators(self) -> dict[int, Fraction]:
        """The eight rank-1 modules are generated by gamma^a delta^b.

        Returns, per representation, the constant c with gamma^a delta^b =
        c * generator; raises GeneratorMismatchError when det_relation
        factors the generator with other exponents.
        """
        out = {}
        for rid, (a, b) in reference.LINEAR_GENERATOR_POWERS.items():
            e, k, c = self.det_relation(rid)
            if (k, e) != (a, b):
                raise GeneratorMismatchError(f"rho_{rid}: generator is a multiple of "
                                             f"gamma^{k} delta^{e}, expected gamma^{a} delta^{b}")
            out[rid] = 1 / c
        return out


def _multiple(f: BiPoly, g: BiPoly):
    """The nonzero c with f = c * g, or None; g is nonzero.

    One coefficient ratio gives the only candidate, and one exact
    comparison decides it.
    """
    k, v = next(iter(g.terms.items()))
    c = Fraction(1) / v * f.terms.get(k, 0)
    return c if c and f == g.scale(c) else None


def _poly_det(mat: list[list[BiPoly]]) -> BiPoly:
    """Determinant of a small polynomial matrix by expansion along the first column."""
    if len(mat) == 1:
        return mat[0][0]
    acc = BiPoly()
    for i, row in enumerate(mat):
        if not row[0].is_zero():
            term = row[0] * _poly_det([r[1:] for k, r in enumerate(mat) if k != i])
            acc = acc + (-term if i % 2 else term)
    return acc
