"""Slow exact oracles that only the tests use.

Each one is the plain computation that a faster path in g9cov replaced;
the tests compare the two.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from g9cov.covariants import CovariantSlice, FreenessError, RowReducer
from g9cov.cyclo import CycNum, ONE, ZERO, rational
from g9cov.group import CLOSURE_LIMIT, NotFinitelyClosedError
from g9cov.linalg import Mat, ShapeError, int_encoding, nullspace_from_rref, rref
from g9cov.molien import _det2
from g9cov.poly import BiPoly, VecPoly


def is_rational(x):
    """Whether a CycNum lies in Q (its z, z^2 and z^3 coordinates are 0)."""
    return x.coeffs[1:] == (0, 0, 0)


def as_fraction(x):
    """A rational CycNum as a Fraction; ValueError otherwise."""
    if not is_rational(x):
        raise ValueError(f"not a rational number: {x}")
    return x.coeffs[0]


@lru_cache(maxsize=None)
def rep_matrices_exact(rep, table):
    """Images of all group elements as CycNum matrices, following the BFS chain.

    The reference for reps.rep_matrices, which builds the same images as
    int64 Z[zeta_8] numerators.  Cached: the images never change.
    """
    mats = [None] * len(table)
    for e in table.elements:
        if e.parent < 0:
            mats[e.index] = Mat.identity(rep.dim)
        else:
            mats[e.index] = mats[e.parent].matmul(rep.image(e.last))
    return tuple(mats)


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


def _is_prime(n):
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic for odd 7 < n < 3.2e9."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_1_mod_8(below, count):
    """The `count` largest primes p < below with p = 1 (mod 8), descending."""
    out = []
    n = (below - 2) // 8 * 8 + 1
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n -= 8
    return tuple(out)


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
        expansion = inverse_det_series_exact(e.mat.trace(), _det2(e.mat), cutoff)
        for n in range(cutoff + 1):
            acc[n] = acc[n] + tr_inv * expansion[n]
    out = []
    for n, value in enumerate(acc):
        q = as_fraction(value) / len(table)
        if q.denominator != 1:
            raise ValueError(f"element sum gave non-integer {q} at t^{n}")
        out.append(int(q))
    return out


def decode_images(images):
    """The int64 image array of reps.rep_matrices as CycNum matrices."""
    m = images.shape[1]
    return [Mat(m, m, [CycNum(*map(int, e), den=4) for e in img.reshape(-1, 4)])
            for img in images]


def cyc_from_json(parts):
    """Inverse of CycNum.to_json."""
    return CycNum(*[Fraction(p) for p in parts])


def mat_from_json(data):
    """Inverse of linalg.mat_to_json, which the CLI uses for group --format json."""
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
    if m.cols != len(vec):
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
    """table[a][b] = coefficient of x^b y^(d-b) in (x+y)^a (x-y)^(d-a)."""
    plus = [[1]]
    minus = [[1]]
    for _ in range(d):
        prev = plus[-1]
        plus.append([(prev[i - 1] if i else 0) + (prev[i] if i < len(prev) else 0)
                     for i in range(len(prev) + 1)])
        prev = minus[-1]
        minus.append([(prev[i - 1] if i else 0) - (prev[i] if i < len(prev) else 0)
                      for i in range(len(prev) + 1)])
    table = []
    for a in range(d + 1):
        pa, mb = plus[a], minus[d - a]
        row = [0] * (d + 1)
        for i, pi in enumerate(pa):
            if pi:
                for j, mj in enumerate(mb):
                    if mj:
                        row[i + j] += pi * mj
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
    scaled_t = rep.img_t.scale(CycNum(0, 1, 0, -1) ** d)
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
    T system A on every kept coordinate, (m, d + 1, ncols, 4) with row
    (j, b) at [j, d - b]; column g of A E is A at reps[g], plus s times A
    at k for each (g, k, s) in mates.
    """
    out = []
    for j in range(len(full)):
        for b in range(d, (d + 1) // 2 - 1, -1):
            row = [list(full[j, d - b, i]) for i in reps]
            for g, k, s in mates:
                row[g] = [x + s * y for x, y in zip(row[g], full[j, d - b, k])]
            if any(any(entry) for entry in row):
                out.append(row)
    return out


def int_rows(rows):
    """CycNum rows as the integer Z[zeta_8] array certified_nullspace takes.

    Each row is scaled by its least common denominator, which leaves the
    nullspace unchanged.
    """
    return int_encoding(rows)[0]


def stacked_rows(rows):
    """CycNum rows B = sum_r B_r z^r as the integer matrix [B_0; B_1; B_2; B_3].

    The rational rows certified_nullspace takes: over Q they have the
    nullspace of B intersected with Q^ncols, each row of B scaled by its
    least common denominator.
    """
    nums = int_rows(rows)
    return np.concatenate(nums.transpose(2, 0, 1))


def slice_dense(engine, rid, d):
    """Reference solver: the plain T and D constraint system, no pruning.

    Certifies that CovariantEngine.slice, which drops coordinates by the
    central and diagonal-D constraints and solves multimodularly, computes
    the same normal-form basis.
    """
    rep = engine.reps[rid]
    m = rep.dim
    coords = [(j, a) for j in range(m) for a in range(d, -1, -1)]
    col_index = {c: i for i, c in enumerate(coords)}
    ncols = len(coords)
    u = binomial_table(d)
    rows = []
    scaled_t = rep.img_t.scale(CycNum(0, 1, 0, -1) ** d)
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
    img_d = rep.img_d
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
    basis = [VecPoly.from_coeffs(coords, v, m, d)
             for v in nullspace_from_rref(reduced, pivots, ncols)]
    return CovariantSlice(rid, d, tuple(coords), tuple(basis))


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
    independent and as many as the Molien coefficient.  Returns the same
    report as CovariantEngine.verify_free (with top = FREENESS_DEGREE),
    which proves this from the generator determinant instead.
    """
    genset = engine.generators(rid)
    mol = engine.molien(rid)
    rep = engine.reps[rid]
    checked = 0
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
                if reducer.add(p.coeff_vector(coords)) is None:
                    raise FreenessError(
                        f"rho_{rid} degree {d}: dependent products")
        checked += 1
    return {"rep": rid, "degrees_checked": checked,
            "generator_degrees": genset.degrees}
