"""Modules of covariants: slices, generators, and their structure.

A rho-covariant is a vector F of homogeneous polynomials with
F(s x) = rho(s) F(x) for every group element s.  The two generator
constraints suffice: covariance multiplies along words, and that rho is
a homomorphism is certified on the Cayley edges (reps.verify_homomorphism).

The degree-d slice is computed as the nullspace of an exact linear
system on the coefficients c_(j,a) of x^a y^(d-a) in F_j.  Three
reductions cut the system down before any elimination happens, all exact
consequences of the same covariance condition:

  * the central element zI acts on degree-d polynomials by z^d and on
    the module by a scalar; unless these agree the slice is zero;
  * every rho(D) here is diagonal, so the D constraint just selects,
    per component j, the x^a y^(d-a) with i^(d-a) equal to the j-th
    diagonal entry;
  * the swap tau: (x, y) -> (y, x) is T D^2 T (checked as 2x2 matrices),
    so every covariant has F(y, x) = rho(T) rho(D)^2 rho(T) F(x, y).  That
    matrix is checked to be a signed permutation of order 2, with sign s_l
    at (l, perm[l]), so c_(l,a) = s_l c_(perm[l], d-a): the kept
    coordinates fall into swap pairs and each pair's right-most coordinate
    is one unknown, c = E u.  A coordinate that is its own partner with
    s_l = -1, or whose partner is not kept, is 0.

What is left is the T constraint A on the kept coefficients, built
(times reps.DEN, with no CycNum) as an integer array of Z[zeta_8]
coordinates, int64 whenever a bound from d and rho(T) proves it fits.
It is solved as B, the rows (j, b) with 2b >= d of A E: about half the
unknowns and half the rows.  Three facts make this exact:

  * null(A) lies in im(E) by the swap reduction above, and E is
    injective, so null(A) = E null(A E);
  * on swap-symmetric F, G = F o T - rho(T) F satisfies
    G o tau = rho(D^2) G, so row (j, b) of A E is rho(D^2)_jj times row
    (j, d - b).  This is checked exactly on every system before the rows
    with 2b < d are dropped, so null(A E) = null(B);
  * each unknown sits at its pair's right-most column, so E maps the
    canonical nullspace normal form of B onto that of A: basis vector v_f
    is 1 at its free column f, 0 at the other free columns and has no
    support right of f, exactly what rref + nullspace_from_rref produce.

B is solved over Q.  For k = 3, 5, 7 let sigma_k be the automorphism
zeta_8 -> zeta_8^k of Q(zeta_8), applied entrywise (on coordinates it is a
signed permutation).  _symmetry checks exactly, for s = T and D, that
sigma_k(s) lies in G9 and that sigma_k(rho(sigma_k(s))) = rho(s).  Then:

  * sigma_k is a field automorphism, so it is multiplicative on
    matrices and maps G9 = <T, D> into G9; so g -> sigma_k(rho(sigma_k(g)))
    is a homomorphism of G9, equal to rho on the generators, hence to rho;
  * applying sigma_k to the coefficients of a covariant F gives F' with
    F'(sigma_k(g) x) = sigma_k(rho(g)) F'(x).  As sigma_k is an involution
    (k^2 = 1 mod 8), g = sigma_k(h) gives F'(h x) = rho(h) F'(x): sigma_k
    maps M(rho)_d onto itself;
  * null(A) is M(rho)_d on the kept coordinates, and E has entries 0 and
    +-1, so null(B) = {u : E u in null(A)} is sigma_k-stable;
  * sigma_k maps a normal-form basis vector of null(B) to a vector of
    null(B) in the same normal form, and that basis is unique, so sigma_k
    fixes it: it is rational;
  * a rational v has B v = 0 exactly when B_r v = 0 for each r, where
    B = sum_r B_r zeta_8^r.  So null(B) = null_Q([B_0; B_1; B_2; B_3])
    tensored with Q(zeta_8), and the two have the same normal-form basis,
    byte for byte.

linalg.certified_nullspace solves that integer matrix multimodularly
(Cabay, "Exact solution of linear equations", SYMSAM 1971; rational
reconstruction after Wang, SYMSAC 1981): it is eliminated as one int64
array modulo primes p, the residues are combined by CRT and lifted to
fractions.  The result is accepted only if exact checks prove it,
whatever primes were used:

  * every vector has the normal form above, so the vectors are
    independent;
  * at some prime the rank is ncols - k; a rank mod p never exceeds the
    rank over Q, so the nullity is at most k;
  * B_r v = 0 for every row, by bounded CRT: each entry of the
    integer-scaled product is at most ncols * max|B_r| * max|V| in
    absolute value and vanishes modulo certificate primes whose product
    exceeds twice that, so it is 0.

The k vectors then span the nullspace, and a nullspace vector whose last
nonzero coordinate is f exists only for non-pivot f, so they are the
normal-form basis of B, and E maps them to that of A, byte for byte.
Should the prime table run out, exact rref of the rational rows is the
fallback.  The certificate never reads Molien: each slice dimension is
still cross checked against the Molien coefficient, so the linear solver
and the character-theoretic pipeline certify each other degree by degree.

Generators of the module over the invariant ring C[theta, phi] are
extracted bottom up: at each degree the new generators are an RREF
complement of theta * M_(d-8) + phi * M_(d-24) inside the slice,
normalized to leading coefficient 1.  The sweep stops at the top degree
of the Molien numerator.  The module is free (Chevalley, Amer. J. Math.
77 (1955)), so by Stanley's criterion (Bull. AMS 1 (1979)) rank-many
covariants, independent over C[theta, phi] and with the numerator's
exponents as degrees, are a basis.  generators() checks count and degrees
exactly.  verify_free proves independence and span without elimination:

  * det[g_1 .. g_m] != 0 (generator_det, shared with det_relation; for
    rank 1 the generator itself), so the g_j are independent over C(x, y);
  * theta and phi are algebraically independent: a nonzero relation
    between forms of degrees 8 and 24 can be taken weighted homogeneous,
    and divided by a power of theta it becomes a polynomial over C
    satisfied by phi / theta^3, which is then constant; so it suffices
    that theta != 0 and phi is not a constant multiple of theta^3;
  * so sum_j p_j(theta, phi) g_j = 0 forces each p_j(theta, phi) = 0 and
    then each p_j = 0: the products theta^a phi^b g_j are independent;
  * they are covariants, and in each degree d they are exactly as many as
    the Molien coefficient dim M(rho)_d: generators() checks that their
    degrees are the numerator's multiset, which makes the count in degree d
    the closed form of MolienResult.coefficient (verify_free recounts it
    through FREENESS_DEGREE), so they span every slice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .cyclo import CycNum, ZERO
from .group import GroupTable
from .linalg import CYC_STRUCT, Mat, certified_nullspace, int_encoding
# rref is re-exported: perfbench/spans.py wraps it under this name
from .linalg import rref  # noqa: F401
from .molien import MolienResult, molien_series
from .poly import BiPoly, VecPoly, fundamental_invariants
from .reps import DEN, Representation, decode, rep_matrices, scalar_image
from . import reference

FREENESS_DEGREE = 64    # verify_free counts products in each degree through this


class CrossCheckError(RuntimeError):
    """Solver dimension and Molien coefficient disagree."""


class FreenessError(RuntimeError):
    """Generator count, independence, or span failed at some degree."""


class FactorizationError(RuntimeError):
    """A generator determinant is not a constant times delta^e gamma^k."""


class GeneratorMismatchError(RuntimeError):
    """An extracted generator differs from its expected closed form."""


@dataclass(frozen=True)
class CovariantSlice:
    rep_id: int
    degree: int
    coords: tuple[tuple[int, int], ...]   # (component, x-exponent) positions
    basis: tuple[VecPoly, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class GeneratorSet:
    rep_id: int
    gens: tuple[tuple[int, VecPoly], ...]   # (degree, generator), degree ascending

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.gens)


@dataclass(frozen=True)
class TauRecord:
    degree: int
    found: bool
    witness: VecPoly | None


@dataclass(frozen=True)
class _Symmetry:
    residue: int                # the central scalar is zeta_8^residue
    expo: tuple[int, ...]       # rho(D)_jj = i^expo[j], so rho(D^2)_jj = (-1)^expo[j]
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


class RowReducer:
    """Incremental row echelon form over Q(zeta_8) for rank questions."""

    def __init__(self):
        self.rows: dict[int, list[CycNum]] = {}

    def reduce(self, vec: list[CycNum]) -> list[CycNum]:
        vec = list(vec)
        for col in sorted(self.rows):
            c = vec[col]
            if not c.is_zero():
                row = self.rows[col]
                vec = [v - c * r for v, r in zip(vec, row)]
        return vec

    def add(self, vec: list[CycNum]) -> list[CycNum] | None:
        """Insert a vector; returns the normalized residual, None if dependent."""
        red = self.reduce(vec)
        pivot = next((i for i, v in enumerate(red) if not v.is_zero()), None)
        if pivot is None:
            return None
        inv = red[pivot].inverse()
        red = [inv * v for v in red]
        self.rows[pivot] = red
        return red


def _galois(x: np.ndarray, k: int) -> np.ndarray:
    """zeta_8 -> zeta_8^k (k odd) on Z[zeta_8] coordinates x[..., 4]: a signed permutation."""
    out = np.empty_like(x)
    for p in range(4):
        out[..., p * k % 4] = x[..., p] if p * k % 8 < 4 else -x[..., p]
    return out


def _binomial_table(d: int) -> np.ndarray:
    """table[a, b] = coefficient of x^b y^(d-b) in (x+y)^a (x-y)^(d-a), Python ints.

    Row 0 is (x-y)^d.  For P_a = (x+y)^a (x-y)^(d-a), y (P_a + P_(a+1)) =
    x (P_(a+1) - P_a), so each next row is a running sum of the previous.
    """
    table = np.empty((d + 1, d + 1), dtype=object)
    table[0] = [comb(d, b) * (-1) ** (d - b) for b in range(d + 1)]
    for a in range(d):
        step = np.empty(d + 1, dtype=object)
        step[0] = (-1) ** (d - a - 1)
        step[1:] = -(table[a, :-1] + table[a, 1:])
        table[a + 1] = np.cumsum(step)
    table.flags.writeable = False
    return table


class CovariantEngine:
    """Shared caches for slices, generators and their determinants."""

    def __init__(self, table: GroupTable, reps: list[Representation]):
        self.table = table
        self.reps = {r.rid: r for r in reps}
        self.gamma, self.theta, self.delta, self.phi = fundamental_invariants()
        self._mats: dict[int, np.ndarray] = {}
        self._molien: dict[int, MolienResult] = {}
        self._slices: dict[tuple[int, int], CovariantSlice] = {}
        self._gens: dict[int, GeneratorSet] = {}
        self._subst: dict[int, np.ndarray] = {}
        self._dets: dict[int, BiPoly] = {}
        self._symmetries: dict[int, _Symmetry] = {}
        t, d = table.gens["T"], table.gens["D"]
        if t.matmul(d).matmul(d).matmul(t) != Mat.from_rows([[0, 1], [1, 0]]):
            raise CrossCheckError("T D^2 T is not the swap (x, y) -> (y, x)")
        self._central_index = table.lookup(Mat.identity(2).scale(CycNum.zeta(1)))
        self._t_index = table.lookup(t)
        # slices_solved, and the rows and cells (rows x columns) of their
        # systems; primes, primes_rejected, certificate_primes and fallbacks
        # of certified_nullspace
        self.counters: Counter[str] = Counter()

    # -- cached building blocks ---------------------------------------------------

    def matrices(self, rid: int) -> np.ndarray:
        if rid not in self._mats:
            self._mats[rid] = rep_matrices(self.reps[rid], self.table)
        return self._mats[rid]

    def molien(self, rid: int) -> MolienResult:
        if rid not in self._molien:
            self._molien[rid] = molien_series(self.reps[rid], self.table,
                                              self.matrices(rid))
        return self._molien[rid]

    def _subst_table(self, d: int) -> np.ndarray:
        if d not in self._subst:
            self._subst[d] = _binomial_table(d)
        return self._subst[d]

    # -- the slice solver -----------------------------------------------------------

    @cached_property
    def _galois_gens(self) -> list[tuple[int, str, int, int]]:
        """(k, name, index of s, index of sigma_k(s)) for k = 3, 5, 7 and s = T, D.

        Raises CrossCheckError unless every sigma_k(s) lies in G9.
        """
        out = []
        for k in (3, 5, 7):
            for name, s in self.table.gens.items():
                try:
                    image = self.table.lookup(Mat(2, 2, [e.galois(k) for e in s.entries]))
                except KeyError:
                    raise CrossCheckError(f"sigma_{k}({name}) is not in G9") from None
                out.append((k, name, self.table.lookup(s), image))
        return out

    def _symmetry(self, rid: int) -> _Symmetry:
        """The central residue, D exponents and swap pattern of rho_rid, cached.

        Raises CrossCheckError, naming the representation, unless rho(D) is
        diagonal with powers of i, rho(T) rho(D)^2 rho(T) is a signed
        permutation of order 2, the central element zI acts by a power
        of zeta_8 times the identity and sigma_k(rho(sigma_k(s))) = rho(s)
        for k = 3, 5, 7 and s = T, D (see the module docstring).
        """
        if rid not in self._symmetries:
            rep = self.reps[rid]
            img_d = rep.img_d
            if not img_d.is_diagonal():
                raise CrossCheckError(f"rho_{rid}: D image is not diagonal")
            i_powers = [CycNum.zeta(2 * e) for e in range(4)]
            expo = tuple(next((e for e, w in enumerate(i_powers) if w == img_d.at(j, j)), None)
                         for j in range(rep.dim))
            if None in expo:
                raise CrossCheckError(f"rho_{rid}: a D eigenvalue is not a power of i")
            # rho(tau) = rho(T) rho(D)^2 rho(T) times DEN^2, with rho(D)^2 = diag((-1)^e_j)
            d2 = (-1) ** np.array(expo)
            images = self.matrices(rid)
            t = images[self._t_index]
            tau = np.einsum("ljp,j,jkq,pqr->lkr", t, d2, t, CYC_STRUCT)
            ids = np.arange(rep.dim)
            perm = (tau != 0).any(axis=2).argmax(axis=1)
            sign = tau[ids, perm, 0] // DEN ** 2
            signed = np.zeros_like(tau)
            signed[ids, perm, 0] = sign * DEN ** 2
            if not (np.isin(sign, (-1, 1)).all() and np.array_equal(tau, signed)
                    and np.array_equal(perm[perm], ids) and np.array_equal(sign[perm], sign)):
                raise CrossCheckError(f"rho_{rid}: rho(T) rho(D)^2 rho(T) is not a "
                                      f"signed permutation of order 2")
            central = images[self._central_index]
            if not np.array_equal(central, scalar_image(rep.dim, central[0, 0])):
                raise CrossCheckError(f"rho_{rid}: central element is not scalar")
            residue = next((k for k in range(8) if CycNum.zeta(k) == decode(central[0, 0])),
                           None)
            if residue is None:
                raise CrossCheckError(f"rho_{rid}: central scalar is not a power of zeta_8")
            for k, name, s, image in self._galois_gens:
                if not np.array_equal(_galois(images[image], k), images[s]):
                    raise CrossCheckError(f"rho_{rid}: sigma_{k}(rho(sigma_{k}({name}))) "
                                          f"is not rho({name})")
            self._symmetries[rid] = _Symmetry(residue, expo, tuple(perm.tolist()),
                                              tuple(sign.tolist()))
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
                coords: list[tuple[int, int]]) -> np.ndarray:
        """The T constraint on the coefficients at coords, times DEN, over Z[zeta_8].

        Row (j, b) is DEN * u[a, b] at each column (j, a), u the
        _subst_table(d), minus the numerators over DEN of rho(T) scaled
        by sqrt(2)^d at the columns (l, b): scaling the substitution side
        by sqrt(2)^d makes it the integer coefficients of (x+y)^a (x-y)^(d-a).
        Returns (m, d + 1, len(coords), 4) integer coordinates, row (j, b) at
        [j, d - b]: int64 when twice the entry bound (|u[a, b]| <= 2^d) fits,
        so that _tau_system's sums of two columns do too, else Python ints.
        """
        m = rep.dim
        t = self.matrices(rep.rid)[self._t_index]
        if d % 2:       # times sqrt(2) = z - z^3
            t = t @ np.tensordot([0, 1, 0, -1], CYC_STRUCT, axes=(0, 1))
        bound = DEN * 2 ** d + int(np.abs(t).max()) * 2 ** (d // 2)
        dtype = np.int64 if 2 * bound < 2 ** 63 else object
        scaled = t.astype(dtype) * 2 ** (d // 2)
        comp, expo = np.array(coords, dtype=int).reshape(-1, 2).T
        cols = np.arange(len(coords))
        rows = np.zeros((m, d + 1, len(coords), 4), dtype=dtype)
        rows[comp, :, cols, 0] = DEN * self._subst_table(d)[expo, ::-1].astype(dtype)
        rows[:, d - expo, cols] -= scaled[:, comp]
        return rows

    def _tau_system(self, rep: Representation, d: int, coords: list[tuple[int, int]]
                    ) -> tuple[list[int], list[tuple[int, int, int]], np.ndarray]:
        """The T constraint on the swap-paired unknowns: (reps, mates, rows).

        Unknown g is the coefficient at coords[reps[g]]; (g, k, s) in mates
        sets coords[k] to s times it (see _tau_pairing).  The rows of B are
        the T rows (j, b) with 2b >= d of A E, in order j, then b
        descending, zero rows dropped; each other row (j, b) must equal
        rho(D^2)_jj times row (j, d - b), or CrossCheckError names the
        representation and the degree.  rows[r] is B_r, the integer
        coefficient of zeta_8^r in B, shape (4, len(B), len(reps)).
        """
        sym = self._symmetry(rep.rid)
        reps, mates = _tau_pairing(coords, d, sym.perm, sym.sign)
        rows = self._t_rows(rep, d, coords)
        if mates:
            g, k, s = np.array(mates).T
            mate = rows[:, :, k]
            mate *= s[:, None]      # in place: the peak stays at twice the full system
            rows[:, :, np.array(reps)[g]] += mate
        rows = rows[:, :, reps]
        h = d // 2 + 1
        d2 = (-1) ** np.array(sym.expo)[:, None, None, None]
        if not np.array_equal(rows[:, h:], rows[:, ::-1][:, h:] * d2):
            raise CrossCheckError(f"rho_{rep.rid} degree {d}: a dropped T row is not "
                                  f"rho(D^2) times its swapped row")
        rows = rows[:, :h].reshape(rep.dim * h, len(reps), 4)
        return reps, mates, rows[(rows != 0).any(axis=(1, 2))].transpose(2, 0, 1)

    def covariance_failure(self, rid: int, vec: VecPoly) -> str | None:
        """The first generator, "D" then "T", at which vec is not rho_rid-covariant.

        Returns None when vec(s x) = rho_rid(s) vec(x) for s = D and s = T,
        hence for every element of G9 = <T, D>.  D holds exactly when vec
        has no support outside _d_coords; T exactly when the integer T rows
        of the solver (_t_rows) annihilate vec's coefficients there.
        """
        rep = self.reps[rid]
        coords = self._d_coords(rep, vec.degree)
        try:
            coeffs = vec.coeff_vector(coords)
        except ValueError:
            return "D"
        nums, _, _ = int_encoding([coeffs])
        image = np.einsum("jbcp,cq,pqr->jbr", self._t_rows(rep, vec.degree, coords),
                          nums[0], CYC_STRUCT)
        return "T" if image.any() else None

    def slice(self, rid: int, d: int) -> CovariantSlice:
        """The space of homogeneous degree-d covariants of rho_rid."""
        key = (rid, d)
        cached = self._slices.get(key)
        if cached is not None:
            return cached
        rep = self.reps[rid]
        coords = self._kept_coords(rep, d)
        if coords is None:
            result = CovariantSlice(rid, d, (), ())
        else:
            reps, mates, rows = self._tau_system(rep, d, coords)
            # the basis is rational (module docstring): solve [B_0; B_1; B_2; B_3]
            reduced = certified_nullspace(np.concatenate(rows), len(reps), self.counters)
            self.counters["slices_solved"] += 1
            self.counters["rows"] += rows.shape[1]
            self.counters["cells"] += rows.shape[1] * rows.shape[2]
            basis = []
            for u in reduced:       # E u: the coefficients at every kept coordinate
                vec = [ZERO] * len(coords)
                for g, i in enumerate(reps):
                    vec[i] = u[g]
                for g, k, s in mates:
                    vec[k] = u[g] if s > 0 else -u[g]
                basis.append(VecPoly.from_coeffs(coords, vec, rep.dim, d))
            result = CovariantSlice(rid, d, tuple(coords), tuple(basis))
        expected = self.molien(rid).coefficient(d)
        if expected != result.dim:
            raise CrossCheckError(
                f"rho_{rid} degree {d}: solver dimension {result.dim}, "
                f"Molien coefficient {expected}")
        self._slices[key] = result
        return result

    # -- generators -------------------------------------------------------------------

    def decomposables(self, rid: int, d: int) -> list[VecPoly]:
        """theta * M_(d-8) + phi * M_(d-24) spanning vectors, in a fixed order."""
        out = []
        for f, shift in ((self.theta, 8), (self.phi, 24)):
            if d - shift >= 0:
                lower = self.slice(rid, d - shift)
                out.extend(b.mul_poly(f) for b in lower.basis)
        return out

    def generators(self, rid: int) -> GeneratorSet:
        """Minimal free-module generators, extracted degree by degree.

        The sweep ends at the top degree of the Molien numerator, then checks
        exactly that there are rank many generators and that their degrees
        are the numerator's multiset (see the module docstring for why).
        """
        cached = self._gens.get(rid)
        if cached is not None:
            return cached
        rep = self.reps[rid]
        residue = self._symmetry(rid).residue
        numerator = self.molien(rid).numerator
        top = numerator[-1][0]
        gens: list[tuple[int, VecPoly]] = []
        for d in range(residue, top + 1, 8):
            sl = self.slice(rid, d)
            if not sl.basis:
                continue
            reducer = RowReducer()
            for vec in self.decomposables(rid, d):
                reducer.add(vec.coeff_vector(list(sl.coords)))
            for b in sl.basis:
                res = reducer.add(b.coeff_vector(list(sl.coords)))
                if res is None:
                    continue
                if len(gens) == rep.dim:
                    raise FreenessError(
                        f"rho_{rid}: generator beyond rank {rep.dim} at degree {d}")
                gens.append((d, VecPoly.from_coeffs(list(sl.coords), res, rep.dim, d)))
        if len(gens) != rep.dim:
            raise FreenessError(
                f"rho_{rid}: {len(gens)} generators by degree {top}, "
                f"expected {rep.dim}")
        result = GeneratorSet(rid, tuple(gens))
        expected = tuple(g for g, c in numerator for _ in range(c))
        if result.degrees != expected:
            raise FreenessError(
                f"rho_{rid}: generator degrees {result.degrees} by degree {top}, "
                f"Molien numerator degrees {expected}")
        self._gens[rid] = result
        return result

    def verify_free(self, rid: int) -> dict:
        """Free-module check: theta^a phi^b g_j fill every slice.

        Checks exactly the hypotheses of the freeness argument (Stanley,
        Bull. AMS 1 (1979); Chevalley, Amer. J. Math. 77 (1955); proof in
        the module docstring), with no elimination: the products of each
        degree d <= FREENESS_DEGREE are as many as the Molien coefficient,
        theta and phi are algebraically independent, and det[g_j] is
        nonzero.  Then the products are independent and span every slice.
        Raises FreenessError naming the representation (and the degree).
        """
        genset = self.generators(rid)
        mol = self.molien(rid)
        for d in range(FREENESS_DEGREE + 1):
            # products theta^a phi^b g_j of degree d: d - d_j - 24 b = 8 a >= 0
            count = sum(1 for dj in genset.degrees for b24 in range(0, d - dj + 1, 24)
                        if (d - dj - b24) % 8 == 0)
            if count != mol.coefficient(d):
                raise FreenessError(
                    f"rho_{rid} degree {d}: {count} products, "
                    f"Molien coefficient {mol.coefficient(d)}")
        # forms of degrees 8 and 24 are algebraically dependent exactly when
        # one is zero or phi is a constant multiple of theta^3
        theta3 = self.theta ** 3
        if theta3.is_zero() or self.phi.is_zero() or (
                self.phi.normalized() == theta3.normalized()):
            raise FreenessError(
                f"rho_{rid}: theta and phi are algebraically dependent")
        if self.generator_det(rid).is_zero():
            raise FreenessError(f"rho_{rid}: generator determinant is zero")
        return {"rep": rid, "degrees_checked": FREENESS_DEGREE + 1,
                "generator_degrees": genset.degrees}

    # -- determinant factorization -----------------------------------------------------

    def generator_det(self, rid: int) -> BiPoly:
        """det[g_1 .. g_m], generators as columns; for rank 1 the generator."""
        if rid not in self._dets:
            cols = [g.components for _, g in self.generators(rid).gens]
            self._dets[rid] = _poly_det([list(row) for row in zip(*cols)])
        return self._dets[rid]

    def det_relation(self, rid: int) -> tuple[int, int, CycNum]:
        """Factor det[generators] as c * delta^e * gamma^k; returns (e, k, c)."""
        genset = self.generators(rid)
        det = self.generator_det(rid)
        if det.is_zero():
            raise FactorizationError(f"rho_{rid}: generator determinant is zero")
        total = det.degree()
        if total != sum(genset.degrees):
            raise FactorizationError(f"rho_{rid}: determinant degree {total}")
        rest, e = _divide_out(det, self.delta * self.delta, 2)
        if e == 0:
            rest, e = _divide_out(det, self.delta, 1)
            if e == 0:
                raise FactorizationError(f"rho_{rid}: delta does not divide")
        k, r = divmod(total - 12 * e, 6)
        if r or k < 0:
            raise FactorizationError(
                f"rho_{rid}: degree {total} incompatible with e={e}")
        rest, ok = _divide_out(rest, self.gamma ** k, 1) if k else (rest, 1)
        if not ok:
            raise FactorizationError(f"rho_{rid}: gamma^{k} does not divide")
        terms = list(rest.terms.items())
        if len(terms) != 1 or terms[0][0] != (0, 0):
            raise FactorizationError(f"rho_{rid}: nonconstant quotient {rest!r}")
        return e, k, terms[0][1]

    # -- swap-symmetry structure ----------------------------------------------------------

    def tau_structure(self, rid: int) -> list[TauRecord]:
        """Per generator of a rank-3 or rank-4 module, a swap-symmetric representative.

        The pattern is (f, g, s*tau(f)) with tau(g) = s*g in rank 3, or
        (f, g, s*tau(g), s*tau(f)) in rank 4, with the sign s fixed per
        representation (reference.TAU_SIGNS), that is F o tau = s * P F
        for the reversal P.  Every covariant satisfies F o tau = rho(tau) F
        (tau = T D^2 T, see the module docstring), and _symmetry certifies
        rho(tau) exactly as a signed permutation.  So when that permutation
        is the reversal with every sign s, each generator is its own
        witness; this is checked exactly on each generator all the same.
        Otherwise every record has found=False: absence is reported, never
        silently passed.
        """
        m = self.reps[rid].dim
        if m < 3:
            return []
        s = reference.TAU_SIGNS[rid]
        sym = self._symmetry(rid)
        pattern = sym.perm == tuple(range(m - 1, -1, -1)) and sym.sign == (s,) * m
        records = []
        for d, g in self.generators(rid).gens:
            found = pattern and all(c.is_zero() for c in self._tau_constraints(m, s, g))
            records.append(TauRecord(d, found, g if found else None))
        return records

    @staticmethod
    def _tau_constraints(dim: int, s: int, v: VecPoly) -> list[BiPoly]:
        c = v.components
        if dim == 3:
            return [c[2] - c[0].tau().scale(s), c[1].tau() - c[1].scale(s)]
        return [c[2] - c[1].tau().scale(s), c[3] - c[0].tau().scale(s)]

    # -- rank-1 closed forms -----------------------------------------------------------------

    def verify_linear_generators(self) -> dict[int, CycNum]:
        """The eight rank-1 modules are generated by gamma^a delta^b.

        Returns the proportionality constant per representation; raises
        GeneratorMismatchError when an extracted generator is not a scalar
        multiple of its octahedral closed form.
        """
        out = {}
        for rid, (a, b) in reference.LINEAR_GENERATOR_POWERS.items():
            genset = self.generators(rid)
            if len(genset.gens) != 1:
                raise GeneratorMismatchError(f"rho_{rid}: expected one generator")
            d, g = genset.gens[0]
            expected = (self.gamma ** a) * (self.delta ** b)
            if d != expected.degree():
                raise GeneratorMismatchError(
                    f"rho_{rid}: generator degree {d}, expected {expected.degree()}")
            poly = g.components[0]
            _, lead = expected.leading()
            if poly != expected.normalized():
                raise GeneratorMismatchError(
                    f"rho_{rid}: generator is not proportional to the closed form")
            out[rid] = lead
        return out


def _divide_out(poly: BiPoly, divisor: BiPoly, power: int) -> tuple[BiPoly, int]:
    """Try an exact division; returns (quotient, power) or (poly, 0)."""
    from .poly import NotDivisibleError
    try:
        return poly.divide_exact(divisor), power
    except NotDivisibleError:
        return poly, 0


def _poly_det(mat: list[list[BiPoly]]) -> BiPoly:
    """Determinant of a small polynomial matrix by column expansion."""
    n = len(mat)
    memo: dict[tuple[int, ...], BiPoly] = {}

    def minor(rows: tuple[int, ...], col: int) -> BiPoly:
        if len(rows) == 1:
            return mat[rows[0]][col]
        key = rows + (col,)
        got = memo.get(key)
        if got is not None:
            return got
        acc = BiPoly()
        for pos, r in enumerate(rows):
            entry = mat[r][col]
            if entry.is_zero():
                continue
            rest = rows[:pos] + rows[pos + 1:]
            term = entry * minor(rest, col + 1)
            acc = acc + (term if pos % 2 == 0 else -term)
        memo[key] = acc
        return acc

    return minor(tuple(range(n)), 0)
