import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm

import numpy as np
import pytest

from g9cov import reference
from g9cov.covariants import RowReducer
from g9cov.poly import BiPoly, fundamental_invariants
from oracles import (I_UNIT, ONE, CycNum, CycRowReducer, Mat, Z, as_fraction, as_fractions,
                     binomial_table, coeff_vector, covariance_check, covariance_failure_lifted,
                     cyc_encoding, cyc_nullspace, decode_image, det_relation_exact, element_mat,
                     encode_image, generator_det_exact, int_rows, integer_row,
                     nullspace_from_rref, rational, rational_rows, rep_matrices_exact, rref,
                     scalar_product, slice_dense, t_rows_exact, tau_reduced_rows,
                     verify_free_by_elimination)

GAMMA, THETA, DELTA, PHI = fundamental_invariants()


def test_solve_degree_examples(engine):
    sl = engine.slice(3, 6)
    assert sl.dim == 1
    assert sl.basis[0].components[0] in (GAMMA, -GAMMA)

    sl = engine.slice(9, 1)
    assert sl.dim == 1
    assert sl.basis[0].to_text() == ["x", "y"]

    assert engine.slice(9, 5).dim == 0


def test_monomial_covariant_of_sym3(engine):
    sl = engine.slice(29, 3)
    assert sl.dim == 1
    assert sl.basis[0].to_text() == ["x^3", "x^2*y", "x*y^2", "y^3"]


def test_reduced_solver_equals_plain_system(engine):
    # the pruned solver must reproduce the plain T+D nullspace basis exactly
    samples = [(3, 6), (9, 1), (9, 5), (9, 9), (9, 2), (21, 2), (21, 10),
               (19, 4), (29, 3), (1, 8), (17, 8), (31, 9), (25, 6), (12, 11)]
    for rid, d in samples:
        assert engine.slice(rid, d).basis == slice_dense(engine, rid, d), (rid, d)


def test_extraction_degrees_examples(engine):
    assert engine.generators(21).degrees == (2, 10, 18)
    assert engine.generators(13).degrees == (5, 13)
    assert engine.generators(31).degrees == (9, 9, 17, 25)


def test_extraction_degrees_all(engine):
    for rid, want in reference.GENERATOR_DEGREES.items():
        assert engine.generators(rid).degrees == tuple(sorted(want)), rid


def test_extraction_stops_at_numerator_top_degree(sess):
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    for rid in (31, 29):
        top = eng.molien(rid).numerator[-1][0]
        eng.generators(rid)
        solved = [d for r, d in eng._slices if r == rid]
        assert solved and max(solved) <= top, (rid, top, sorted(solved))


def test_extraction_rejects_wrong_numerator(sess):
    # the sweep end, the slice cross-checks and the final degree check all
    # read the numerator, so a numerator that disagrees with the module
    # must be fatal
    from dataclasses import replace
    from g9cov.covariants import CovariantEngine, CrossCheckError, FreenessError
    good = sess.engine.molien(29)                 # degrees 3, 11, 19, 27
    head, (top, count) = good.numerator[:-1], good.numerator[-1]
    eng = CovariantEngine(sess.table, sess.reps)
    eng._molien[29] = replace(good, numerator=head)
    with pytest.raises(FreenessError, match=r"rho_29\b.*degree 19\b"):
        eng.generators(29)
    # the top generator moved up by 8 leaves degree 27 one short
    eng = CovariantEngine(sess.table, sess.reps)
    eng._molien[29] = replace(good, numerator=head + ((top + 8, count),))
    with pytest.raises(CrossCheckError, match=r"rho_29 degree 27: solver dimension 5, "
                                              r"Molien coefficient 4"):
        eng.generators(29)


def test_extraction_rejects_surplus_generators(sess, monkeypatch):
    # with no products every basis vector of every slice is new: rho_13
    # (degrees 5, 13) gets theta * g_5 as a third generator at degree 13,
    # which the final count check rejects
    from g9cov.covariants import CovariantEngine, FreenessError
    eng = CovariantEngine(sess.table, sess.reps)
    monkeypatch.setattr(eng, "products", lambda rid, d, gens: [])
    with pytest.raises(FreenessError, match=r"rho_13: 3 generators by degree 13, expected 2"):
        eng.generators(13)


def test_products_reject_a_product_off_the_slice(sess):
    # x^7 y in place of theta shifts the degree-5 generator of rho_13 to
    # x-exponents that the diagonal-D constraint rules out in degree 13
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    gens = sess.engine.generators(13).rows
    assert len(eng.products(13, 13, gens)) == 1
    eng.theta = BiPoly({(7, 1): 1})
    with pytest.raises(ValueError, match=r"rho_13 degree 13: a product term is off the slice"):
        eng.products(13, 13, gens)


def test_generators_are_covariants(sess):
    # spot check: every generator satisfies the defining identity on both
    # group generators (sufficiency is covered by the full-group test in
    # test_acceptance.py)
    for rid in (9, 19, 21, 29, 32):
        mats = rep_matrices_exact(sess.rep(rid), sess.table)
        t_idx = sess.table.lookup(sess.table.gens["T"])
        d_idx = sess.table.lookup(sess.table.gens["D"])
        for _, g in sess.engine.generators(rid).gens:
            for idx in (t_idx, d_idx):
                natural = element_mat(sess.table.elements[idx].coords)
                assert covariance_check(g, mats[idx], natural)


def test_generator_normalization(engine):
    # leading coefficient 1 in component-major graded-lex coordinate order
    for rid in range(1, 33):
        for d, g in engine.generators(rid).gens:
            coords = [(j, a) for j in range(len(g.components)) for a in range(d, -1, -1)]
            vec = coeff_vector(g, coords)
            lead = next(v for v in vec if v)
            assert lead == 1


def test_free_module_spans(engine):
    # the determinant proof against the elimination oracle through degree 64
    for rid in (1, 3, 9, 13, 19, 21, 25, 29, 31):
        report = engine.verify_free(rid)
        assert report == {"rep": rid, "generator_degrees": engine.generators(rid).degrees}
        assert verify_free_by_elimination(engine, rid, 64) == report


@pytest.mark.parametrize("rid, d", [(21, 250), (31, 121)])
def test_deep_slice_is_spanned_by_free_products(engine, rid, d):
    # verify_free proves the products theta^a phi^b g_j independent and, in
    # each degree, as many as the Molien coefficient.  So a deep slice is
    # their span when they are dim many and each product p lies in it: in
    # normal form, L p = sum_i p[f_i] (L / den_i) nums_i, with f_i the free
    # column of vector i and L the lcm of the dens.  That is a product of
    # integer rows, and it shares nothing with the deep elimination
    sl = engine.slice(rid, d)
    assert engine.verify_free(rid)["generator_degrees"] == engine.generators(rid).degrees
    prods = [g.mul_poly(scalar_product(engine.theta, engine.phi, (d - gd - 24 * b) // 8, b))
             for gd, g in engine.generators(rid).gens
             for b in range((d - gd) // 24 + 1) if (d - gd) % 8 == 0]
    assert len(prods) == sl.dim > 0
    free = [max(c for c, x in enumerate(row) if x) for row in sl.nums]
    assert [sl.nums[i][f] for i, f in enumerate(free)] == list(sl.dens)
    rows = np.array([integer_row(coeff_vector(p, sl.coords)) for p in prods], dtype=object)
    scale = lcm(*sl.dens)
    weights = np.array([scale // den for den in sl.dens], dtype=object)[:, None]
    nums = np.array(sl.nums, dtype=object)
    assert np.array_equal(scale * rows, rows[:, free] @ (weights * nums))


def test_row_reducer_equals_cyclotomic_reference():
    # random rational vectors, some of them combinations of earlier ones:
    # the integer reducer on each vector times its least common denominator
    # gives primitive integer rows with a positive pivot that, over that
    # pivot, are the CycNum reference's residuals, in order
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(1, 12)
        vecs = []
        for _ in range(rng.randint(1, 10)):
            if vecs and rng.random() < 0.3:
                coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in vecs]
                vecs.append([sum((c * v[i] for c, v in zip(coeffs, vecs)), Fraction(0))
                             for i in range(n)])
            else:
                vecs.append([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             if rng.random() < 0.7 else Fraction(0) for _ in range(n)])
        fast, ref = RowReducer(), CycRowReducer()
        got = [fast.add(integer_row(v)) for v in vecs]
        want = [ref.add([rational(x) for x in v]) for v in vecs]
        assert [g is None for g in got] == [w is None for w in want], trial
        for row, res in zip(got, want):
            if row is None:
                continue
            pivot = next(v for v in row if v)
            assert all(type(x) is int for x in row) and pivot > 0, trial
            assert gcd(*row) == 1, trial
            assert [Fraction(v, pivot) for v in row] == res, trial


def test_row_reducer_rejects_irrational_entries():
    reducer = RowReducer()
    reducer.add([1, 0])
    with pytest.raises(ValueError, match="RowReducer works over Q"):
        reducer.add([ONE, CycNum.zeta(1)])
    with pytest.raises(ValueError, match="RowReducer works over Q"):
        reducer.add([CycNum(0, 0, 0, 1, den=3), ONE])
    # integer rows only: a Fraction, even an integral one, is rejected
    for entry in (Fraction(1, 2), Fraction(3)):
        with pytest.raises(ValueError, match="RowReducer works over Q"):
            reducer.add([1, entry])


def _engine_with_generators(sess, rid, gens):
    # each (degree, VecPoly) becomes its primitive integer row at the full
    # component-major graded-lex coordinates of its degree
    from g9cov.covariants import CovariantEngine, GeneratorSet
    eng = CovariantEngine(sess.table, sess.reps)
    m = eng.reps[rid].dim
    rows = []
    for d, g in gens:
        coords = tuple((j, a) for j in range(m) for a in range(d, -1, -1))
        row = integer_row(coeff_vector(g, coords))
        content = gcd(*row) if next(v for v in row if v) > 0 else -gcd(*row)
        rows.append((d, coords, tuple(v // content for v in row)))
    eng._gens[rid] = GeneratorSet(rid, m, tuple(rows))
    assert eng._gens[rid].gens == tuple(gens)
    return eng


def test_generators_reject_wrong_degrees(sess, monkeypatch):
    # with the degree-5 slice counted as products and nothing at degree 13,
    # rho_13 gets its two generators both in degree 13: the count is right,
    # so only the degree check can reject them
    from g9cov.covariants import CovariantEngine, FreenessError
    eng = CovariantEngine(sess.table, sess.reps)
    monkeypatch.setattr(eng, "products",
                        lambda rid, d, gens: list(eng.slice(rid, 5).nums) if d == 5 else [])
    with pytest.raises(FreenessError, match=re.escape(
            "rho_13: generator degrees (13, 13) by degree 13, "
            "Molien numerator degrees (5, 13)")):
        eng.generators(13)


def test_free_rejects_zero_determinant(sess):
    # rho_13 has generators in degrees 5 and 13; theta * g_5 in place of g_13
    # keeps the degree multiset (and so the count) but makes det = 0
    from g9cov.covariants import FreenessError
    (d5, g5), (d13, _) = sess.engine.generators(13).gens
    assert (d5, d13) == (5, 13)
    eng = _engine_with_generators(sess, 13, [(5, g5), (13, g5.mul_poly(THETA))])
    assert eng.generator_det(13).is_zero()
    with pytest.raises(FreenessError, match=r"rho_13\b.*determinant is zero"):
        eng.verify_free(13)
    with pytest.raises(FreenessError, match=r"rho_13 degree 13: dependent products"):
        verify_free_by_elimination(eng, 13, 64)


def test_free_rejects_shifted_degree(sess):
    # a generator moved from degree 13 to 21 (theta * g_13): det stays
    # nonzero, the count of products in degree 13 drops to 1
    from g9cov.covariants import FreenessError
    (_, g5), (_, g13) = sess.engine.generators(13).gens
    eng = _engine_with_generators(sess, 13, [(5, g5), (21, g13.mul_poly(THETA))])
    assert not eng.generator_det(13).is_zero()
    with pytest.raises(FreenessError,
                       match=r"rho_13 degree 13: 1 products, Molien coefficient 2"):
        eng.verify_free(13)


@pytest.mark.parametrize("phi", ["theta^3", "7 theta^3", "zero"])
def test_free_rejects_dependent_invariants(sess, phi):
    # phi is read only after the generators are in place, so only the
    # independence check can catch a phi that is a multiple of theta^3
    from g9cov.covariants import FreenessError
    eng = _engine_with_generators(sess, 13, sess.engine.generators(13).gens)
    eng.phi = {"theta^3": THETA ** 3, "7 theta^3": (THETA ** 3).scale(7),
               "zero": BiPoly()}[phi]
    with pytest.raises(FreenessError, match=r"rho_13: theta and phi are algebraically dependent"):
        eng.verify_free(13)


def test_free_accepts_independent_replacement_of_phi(sess):
    # the independence check is not a comparison with the true phi: any
    # degree-24 form off the line of theta^3 passes
    eng = _engine_with_generators(sess, 13, sess.engine.generators(13).gens)
    eng.phi = THETA ** 3 + DELTA * DELTA
    assert eng.verify_free(13) == {"rep": 13, "generator_degrees": (5, 13)}


def test_det_relation_examples(engine):
    e, k, c = engine.det_relation(9)
    assert (e, k) == (1, 1) and c != 0
    assert sum(engine.generators(9).degrees) == 18

    e, k, c = engine.det_relation(25)
    assert (e, k) == (2, 3)

    e, k, c = engine.det_relation(29)
    assert (e, k) == (2, 6)
    assert sum(engine.generators(29).degrees) == 60


def test_det_relation_factors_rank_one(engine):
    # a rank-1 determinant is the generator, gamma^a delta^b over its
    # leading coefficient (-1)^a
    for rid, (a, b) in reference.LINEAR_GENERATOR_POWERS.items():
        assert engine.det_relation(rid) == (b, a, (-1) ** a), rid


def test_det_relation_recovers_every_factorization(sess):
    # delta and gamma are coprime, so c delta^e gamma^k gives back (e, k, c)
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    for e, k, c in product((0, 1, 2), range(7), (1, -1, Fraction(3, 7), Fraction(-22, 5), 66)):
        eng._dets[9] = (DELTA ** e * GAMMA ** k).scale(c)
        assert eng.det_relation(9) == (e, k, c), (e, k, c)


def test_delta_and_gamma_are_coprime():
    # gamma, of degree 6, vanishes at six points on distinct lines, so their
    # lines are all its linear factors; delta is nonzero at each, so no
    # factor of gamma divides delta and (e, k) in c delta^e gamma^k is unique
    def at(f, x, y):
        return sum(c * x ** a * y ** b for (a, b), c in f.terms.items())

    points = [(1, 0), (0, 1), (1, 1), (1, -1), (1, I_UNIT), (1, -I_UNIT)]
    assert all(x1 * y2 != x2 * y1 for (x1, y1), (x2, y2) in combinations(points, 2))
    assert GAMMA.degree() == len(points)
    assert all(at(GAMMA, x, y) == 0 for x, y in points)
    assert [at(DELTA, x, y) for x, y in points] == [1, 1, -64, -64, -64, -64]


def test_det_relation_rejects_a_perturbed_determinant(sess):
    # one term of a true determinant doubled: no c delta^e gamma^k is equal
    from g9cov.covariants import CovariantEngine, FactorizationError
    for rid in (5, 13, 29):
        eng = CovariantEngine(sess.table, sess.reps)
        terms = dict(sess.engine.generator_det(rid).terms)
        top = max(terms)
        terms[top] *= 2
        eng._dets[rid] = BiPoly(terms)
        with pytest.raises(FactorizationError, match=re.escape(
                f"rho_{rid}: determinant of degree {eng._dets[rid].degree()} is not "
                f"c * delta^e * gamma^k")):
            eng.det_relation(rid)


def test_linear_generators_reject_wrong_exponents(sess):
    # gamma delta, over its leading coefficient -1, in place of rho_3's gamma
    from g9cov.covariants import GeneratorMismatchError
    from g9cov.poly import VecPoly
    eng = _engine_with_generators(sess, 3, ((18, VecPoly([-(GAMMA * DELTA)])),))
    with pytest.raises(GeneratorMismatchError, match=re.escape(
            "rho_3: generator is a multiple of gamma^1 delta^1, expected gamma^1 delta^0")):
        eng.verify_linear_generators()


def test_cross_check_guards_against_wrong_molien(sess):
    # a solver/Molien disagreement must be fatal, not silent
    from dataclasses import replace
    from g9cov.covariants import CovariantEngine, CrossCheckError
    eng = CovariantEngine(sess.table, sess.reps)
    good = sess.engine.molien(3)
    assert good.numerator == ((6, 1),)
    eng._molien[3] = replace(good, numerator=((6, 2),))
    with pytest.raises(CrossCheckError):
        eng.slice(3, 6)


def test_cross_check_above_degree_64(sess):
    # every degree reads the same exact numerator, so a wrong term must be
    # fatal above degree 64 too.  A deep slice is spanned by the products of
    # the generators, which the sweep through T_SYSTEM_DEGREE finds; a
    # numerator term at degree 70 is then a generator degree that no sweep
    # reached, and the degree check rejects it before any deep slice forms
    from dataclasses import replace
    from g9cov.covariants import CovariantEngine, FreenessError
    good = sess.engine.molien(3)
    assert sess.engine.slice(3, 70).dim == good.coefficient(70) == 3
    eng = CovariantEngine(sess.table, sess.reps)
    eng._molien[3] = replace(good, numerator=((6, 1), (70, 1)))
    with pytest.raises(FreenessError, match=re.escape(
            "rho_3: generator degrees (6,) by degree 40, Molien numerator degrees (6, 70)")):
        eng.slice(3, 70)
    assert not [d for _, d in eng._slices if d > 40]


def test_det_relations_all(engine):
    for rid, (e_want, k_want) in reference.DET_EXPONENTS.items():
        e, k, c = engine.det_relation(rid)
        assert (e, k) == (e_want, k_want), rid
        assert c != 0
        degs = engine.generators(rid).degrees
        assert sum(degs) == 12 * e + 6 * k, rid


def test_tau_structure_examples(engine):
    recs = engine.tau_structure(21)
    assert [r.degree for r in recs] == [2, 10, 18]
    assert all(r.found for r in recs)
    f, g, h = engine.generators(21).gens[0][1].components
    assert h == f.tau() and g.tau() == g

    recs = engine.tau_structure(23)
    assert all(r.found for r in recs)
    f, g, h = engine.generators(23).gens[0][1].components
    assert h == -f.tau() and g.tau() == -g

    assert engine.tau_structure(5) == []  # rank 1: out of pattern scope


def test_tau_structure_quadruples(engine):
    for rid in (29, 30):
        for rec, (_, gen) in zip(engine.tau_structure(rid), engine.generators(rid).gens):
            assert rec.found
            f, g, gt, ft = gen.components
            assert gt == g.tau() and ft == f.tau()
    for rid in (31, 32):
        for rec, (_, gen) in zip(engine.tau_structure(rid), engine.generators(rid).gens):
            assert rec.found
            f, g, gt, ft = gen.components
            assert gt == -g.tau() and ft == -f.tau()


@pytest.mark.parametrize("fault", ["swap_sign", "generator", "coordinate_dropped"])
def test_tau_structure_reports_absence(sess, fault):
    # the witness is the generator itself only while rho(tau) is the
    # reversal with the reference sign and the generator has the pattern;
    # a term whose swap partner is not among the generator's coordinates
    # (the partner is 0) breaks the pattern too
    from dataclasses import replace
    from g9cov.covariants import CovariantEngine, GeneratorSet
    from g9cov.poly import VecPoly
    gens = sess.engine.generators(21).gens
    if fault == "swap_sign":
        eng = _engine_with_generators(sess, 21, gens)
        eng._symmetries[21] = replace(eng._symmetry(21), sign=(1, -1, 1))
        expected = [False, False, False]
    elif fault == "generator":
        (d, g), rest = gens[0], gens[1:]
        f0, f1, f2 = g.components
        eng = _engine_with_generators(sess, 21, ((d, VecPoly([f0, f1, f2.scale(2)])),) + rest)
        expected = [False, True, True]
    else:
        rows = sess.engine.generators(21).rows
        d, coords, row = rows[0]
        i = next(i for i, (j, _) in enumerate(coords) if j == 2 and row[i])
        eng = CovariantEngine(sess.table, sess.reps)
        eng._gens[21] = GeneratorSet(21, 3, ((d, coords[:i] + coords[i + 1:],
                                             row[:i] + row[i + 1:]),) + rows[1:])
        expected = [False, True, True]
    records = eng.tau_structure(21)
    assert [r.found for r in records] == expected


def test_covariance_failure_matches_substitution_oracle(sess, monkeypatch):
    # the integer predicate against substitution and the matrix action, on
    # the lowest-degree slice basis vector of every representation, as is
    # and with one coefficient bumped by 1 (x^d, then x^(d-1) y, of
    # component 0): it names the first generator, D then T, the oracle
    # rejects.  Then at one degree of each parity other than the residue
    # mod 8: a nonzero vector with D's support fails T by the central
    # character, and the zero vector is covariant, both without T rows
    from g9cov.covariants import CovariantEngine
    from g9cov.group import standard_generators
    from g9cov.poly import VecPoly
    t, d = map(element_mat, standard_generators())
    engine = sess.engine
    seen = set()
    for rid in range(1, 33):
        rep = sess.rep(rid)
        deg = engine.molien(rid).numerator[0][0]
        vec = engine.slice(rid, deg).basis[0]
        assert engine.covariance_failure(rid, vec) is None, rid
        for a in range(deg, max(deg - 2, -1), -1):
            comps = list(vec.components)
            comps[0] = comps[0] + BiPoly({(a, deg - a): 1})
            bumped = VecPoly(comps, deg)
            if not covariance_check(bumped, decode_image(rep.img_d), d):
                expected = "D"
            elif not covariance_check(bumped, decode_image(rep.img_t), t):
                expected = "T"
            else:
                expected = None
            assert engine.covariance_failure(rid, bumped) == expected, (rid, a)
            seen.add(expected)
    assert seen == {"D", "T", None}
    honest, calls = CovariantEngine._t_rows, []

    def counted(self, *args):
        calls.append(args)
        return honest(self, *args)
    monkeypatch.setattr(CovariantEngine, "_t_rows", counted)
    off_residue = 0
    for rid in range(1, 33):
        rep = sess.rep(rid)
        residue = engine._symmetry(rid).residue
        for first in (residue + 1, residue + 2):
            # the lowest degree of this parity, other than the residue mod 8,
            # where D allows a term
            deg = next(e for e in range(first, residue + 8, 2) if engine._d_coords(rep, e))
            (j, a), *_ = engine._d_coords(rep, deg)
            comps = [BiPoly()] * rep.dim
            comps[j] = BiPoly({(a, deg - a): 1})
            vec = VecPoly(comps, deg)
            assert covariance_check(vec, decode_image(rep.img_d), d), (rid, deg)
            assert not covariance_check(vec, decode_image(rep.img_t), t), (rid, deg)
            assert engine.covariance_failure(rid, vec) == "T", (rid, deg)
            assert engine.covariance_failure(rid, VecPoly([BiPoly()] * rep.dim, deg)) is None
            off_residue += 1
    assert off_residue == 64 and not calls


def test_covariance_failure_equals_lifted_path(sess):
    # the integer T rows contracted with the int/Fraction coefficients give
    # the verdicts of the old path through the Z[zeta_8] lift: every
    # generator of all 32 reps, a copy with its first kept coefficient
    # perturbed by 1/3, a copy with a term off the kept coordinates, and
    # the four octahedral forms under rho_1, rho_3 and rho_5
    from g9cov.poly import VecPoly
    engine = sess.engine
    cases = []
    for rid in range(1, 33):
        m = sess.rep(rid).dim
        for d, g in engine.generators(rid).gens:
            kept = engine._d_coords(sess.rep(rid), d)
            off = [(j, a) for j in range(m) for a in range(d, -1, -1) if (j, a) not in kept]
            for (j, a), c in [(kept[0], Fraction(1, 3))] + [(o, 1) for o in off[:1]]:
                comps = list(g.components)
                comps[j] = comps[j] + BiPoly({(a, d - a): c})
                cases.append((rid, VecPoly(comps, d)))
            cases.append((rid, g))
    cases += [(rid, VecPoly([f])) for rid in (1, 3, 5) for f in (GAMMA, THETA, DELTA, PHI)]
    verdicts = [engine.covariance_failure(rid, v) for rid, v in cases]
    assert verdicts == [covariance_failure_lifted(engine, rid, v) for rid, v in cases]
    assert len(cases) == 227 and set(verdicts) == {"D", "T", None}


def test_rank_one_closed_forms(engine):
    consts = engine.verify_linear_generators()
    assert set(consts) == set(range(1, 9))
    assert all(c != 0 for c in consts.values())
    # rho_5 generator is delta itself, degree 12; rho_8 degree 30; rho_1 constant
    assert engine.generators(5).gens[0][1].components[0] == DELTA
    assert engine.generators(8).degrees == (30,)
    one = engine.generators(1).gens[0][1]
    assert one.degree == 0 and one.components[0] == BiPoly.constant(1)


def test_degree_zero_slices(engine):
    # only the trivial representation has constants
    for rid in range(1, 33):
        assert engine.slice(rid, 0).dim == (1 if rid == 1 else 0)


def _rows(engine, rid, d):
    rep = engine.reps[rid]
    coords = engine._kept_coords(rep, d)
    return (t_rows_exact(rep, d, coords), len(coords)) if coords else ([], 0)


def test_integer_t_rows_equal_exact_rows(engine):
    # the integer system is DEN times the CycNum rows, which are rational,
    # zero rows dropped, and the swap-reduced system (which must pass its
    # dropped-row check) is the upper half of its rows times E;
    # rho_30 in degree 255 has coefficients past 2^63, so nothing may wrap:
    # the columns are Python ints
    from g9cov.reps import DEN
    cases = [(r, d) for r in range(1, 33) for d in range(41)] + \
        [(25, 70), (30, 63), (30, 255)]
    checked = 0
    for rid, d in cases:
        rep = engine.reps[rid]
        coords = engine._kept_coords(rep, d)
        if not coords:
            continue
        cols = engine._t_rows(rep, d, coords)
        assert [len(col) for col in cols] == [rep.dim * (d + 1)] * len(coords), (rid, d)
        assert {type(x) for col in cols for x in col} == {int}, (rid, d)
        # row (j, b) of the system sits at j (d + 1) + d - b of each column
        full = np.array(cols, dtype=object).T.reshape(rep.dim, d + 1, len(coords))
        got = full.reshape(-1, len(coords))
        got = got[(got != 0).any(axis=1)]
        # got[g] = DEN * want[g] = DEN * nums[g] / dens[g], compared over Z
        nums, dens = cyc_encoding([r for r in t_rows_exact(rep, d, coords)
                                   if any(not x.is_zero() for x in r)])
        assert not nums[..., 1:].any(), (rid, d)
        assert len(dens) == len(got), (rid, d)
        assert np.array_equal(got * np.array(dens, dtype=object)[:, None],
                              nums[..., 0].reshape(got.shape) * DEN), (rid, d)
        reps, mates, reduced = engine._tau_system(rep, d, coords)
        want = tau_reduced_rows(full, d, reps, mates)
        assert [list(row) for row in reduced] == [[int(x) for x in row] for row in want], (rid, d)
        checked += 1
    assert checked == 164
    assert max(abs(x) for x in got.flat) > 2 ** 63
    assert max(abs(x) for row in reduced for x in row) > 2 ** 63


def test_binomial_table_closed_form():
    # coefficient of x^b y^(d-b) in (x+y)^a (x-y)^(d-a), from math.comb, in
    # Python ints on both sides of 2^63 (every entry is at most 2^d)
    from g9cov.covariants import _binomial_table
    for d in range(71):
        table = _binomial_table(d)
        assert type(table) is tuple and {type(row) for row in table} == {tuple}, d
        want = [[sum(comb(a, i) * comb(d - a, b - i) * (-1) ** (d - a - b + i)
                     for i in range(max(0, b - d + a), min(a, b) + 1))
                 for b in range(d + 1)] for a in range(d + 1)]
        assert [list(row) for row in table] == want, d


def test_oracle_binomial_table_equals_convolution():
    # the oracle's coefficient recurrence against the plain convolution of
    # the rows of (x+y)^a and (x-y)^(d-a) for small d, and against the
    # solver's running-sum table at a few larger d
    from g9cov.covariants import _binomial_table
    for d in range(17):
        plus = [[comb(a, i) for i in range(a + 1)] for a in range(d + 1)]
        minus = [[comb(e, i) * (-1) ** (e - i) for i in range(e + 1)] for e in range(d + 1)]
        want = []
        for a in range(d + 1):
            row = [0] * (d + 1)
            for i, pi in enumerate(plus[a]):
                for j, mj in enumerate(minus[d - a]):
                    row[i + j] += pi * mj
            want.append(row)
        assert binomial_table(d) == want, d
    for d in (0, 1, 2, 5, 8, 13, 40, 61, 62, 100):
        assert binomial_table(d) == [list(row) for row in _binomial_table(d)], d


def test_slice_path_builds_no_cycnum_rows(sess):
    # no g9cov module can reach CycNum (test_public_names_resolve): the T
    # system is rows of Python ints, eliminated over Z, and the basis is int
    # and Fraction
    from g9cov import linalg
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    rep = eng.reps[29]
    coords = eng._kept_coords(rep, 27)
    reps, _, rows = eng._tau_system(rep, 27, coords)
    assert {type(x) for row in rows for x in row} == {int}
    reduced, pivots = linalg.rref(rows)
    nums, dens = linalg.rref_nullspace(reduced, pivots, len(reps))
    assert len(pivots) + len(dens) == len(reps)
    assert {type(x) for row in nums for x in row} | {type(x) for x in dens} == {int}
    sl = eng.slice(29, 27)
    want = _oracle(t_rows_exact(rep, 27, coords), len(coords))
    assert sl.coords == tuple(coords) and as_fractions(sl.nums, sl.dens) == want
    assert type(sl.nums) is tuple and {type(row) for row in sl.nums} == {tuple}
    assert {type(x) for row in sl.nums for x in row} == {int}
    basis = [coeff_vector(b, coords) for b in sl.basis]
    assert basis == want
    assert {type(x) for vec in basis for x in vec} <= {int, Fraction}


def test_covariant_layer_builds_no_cycnum(sess):
    # slices, generators and determinants carry int and Fraction alone
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    rids = (5, 13, 21, 29)      # ranks 1, 2, 3 and 4
    assert [eng.reps[rid].dim for rid in rids] == [1, 2, 3, 4]
    polys = []
    for rid in rids:
        degree = eng.molien(rid).numerator[-1][0] + 8
        polys += [p for b in eng.slice(rid, degree).basis for p in b.components]
        polys += [p for _, g in eng.generators(rid).gens for p in g.components]
        polys.append(eng.generator_det(rid))
        e, k, c = eng.det_relation(rid)
        polys.append(BiPoly.constant(c))
    assert eng.det_relation(5)[:2] == (1, 0)
    types = {type(c) for p in polys for c in p.terms.values()}
    assert types and types <= {int, Fraction}


def test_determinant_exponents_predicted_from_rho_t_and_rho_d(engine):
    # Stanley (J. Algebra 49 (1977)): the determinant of a basis of a free
    # covariant module is c prod_H l_H^(m_H), m_H read off the eigenvalues
    # of rho at the reflection fixing H.  For G9: the 6 lines of gamma are
    # fixed by D = diag(1, i), so k = sum_j expo_j for rho(D)_jj = i^expo_j;
    # the 12 lines of delta are fixed by T, so e = (dim - chi(T)) / 2, the
    # multiplicity of -1 in rho(T), chi(T) read off the five base traces
    from g9cov.reps import DEN, class_traces
    column = engine.table.class_labels.index("T")
    for rid in range(1, 33):
        rep = engine.reps[rid]
        chi_t = class_traces(rep, engine.table)[column]
        assert chi_t[1:] == (0, 0, 0) and chi_t[0] % DEN == 0, rid
        e, odd = divmod(rep.dim - chi_t[0] // DEN, 2)
        k = sum(engine._symmetry(rid).expo)
        assert not odd, rid
        assert engine.det_relation(rid)[:2] == (e, k), rid
        if rid <= 8:
            assert reference.LINEAR_GENERATOR_POWERS[rid] == (k, e), rid
        else:
            assert reference.DET_EXPONENTS[rid] == (e, k), rid


def test_generator_det_equals_cyclotomic_reference(engine):
    # the determinants and their factorizations in int/Fraction arithmetic
    # against the same computations in CycNum arithmetic, for all 32 reps
    from g9cov.covariants import FactorizationError

    def outcome(fn, rid):
        try:
            return fn(engine, rid)
        except FactorizationError as exc:
            return str(exc)

    for rid in range(1, 33):
        exact = generator_det_exact(engine, rid)
        assert all(isinstance(c, CycNum) for c in exact.terms.values()), rid
        assert engine.generator_det(rid) == exact, rid
        got = outcome(type(engine).det_relation, rid)
        want = outcome(det_relation_exact, rid)
        assert got == want, rid
        if isinstance(want, tuple):
            assert isinstance(want[2], CycNum) and isinstance(got[2], (int, Fraction)), rid


def _oracle(rows, ncols):
    reduced, pivots = rref(list(rows))
    return nullspace_from_rref(reduced, pivots, ncols)


def test_cyc_nullspace_equals_cycnum_rref(engine):
    # the integer-coordinate elimination oracle against rref on CycNum rows:
    # a few small slice systems, and random systems over Q(zeta_8) whose
    # nullspaces are not rational
    systems = [_rows(engine, rid, d) for rid, d in ((9, 1), (21, 10), (29, 27), (31, 9))]
    rng = random.Random(11)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[CycNum(*[rng.randint(-3, 3) for _ in range(4)], den=rng.randint(1, 4))
                 if rng.random() < 0.6 else CycNum(0) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:   # a dependent row
            c = CycNum(rng.randint(-2, 2), rng.randint(-2, 2))
            rows.append([c * x + y for x, y in zip(rows[0], rows[1])])
        systems.append((rows, ncols))
    irrational = 0
    for rows, ncols in systems:
        want = _oracle([list(r) for r in rows], ncols)
        got = cyc_nullspace(int_rows(rows), ncols)
        assert got == want
        assert [[type(x) for x in v] for v in got] == [[type(x) for x in v] for v in want]
        irrational += any(rational(x).key()[1:4] != (0, 0, 0) for v in got for x in v)
    assert irrational > 5


def test_certified_nullspace_equals_exact_rref(engine):
    # rref_nullspace over Q, on the rational rows of the full system
    # (rational_rows checks that their zeta coordinates are 0), and the
    # engine's slice, against the exact elimination oracle over Q(zeta_8) on
    # every slice with rows through degree 40, and on two deep slices, which
    # the engine spans by free products: the rational solve of the module
    # docstring, checked case by case
    from g9cov import linalg
    cases = [(r, d) for r in range(1, 33) for d in range(41)] + [(25, 70), (30, 63)]
    solved = 0
    for rid, d in cases:
        rows, ncols = _rows(engine, rid, d)
        if rows:
            want = cyc_nullspace(int_rows(rows), ncols)
            exact = linalg.rref(rational_rows(rows).tolist())
            assert as_fractions(*linalg.rref_nullspace(*exact, ncols)) == want, (rid, d)
            coords = engine._kept_coords(engine.reps[rid], d)
            sl = engine.slice(rid, d)
            assert as_fractions(sl.nums, sl.dens) == want, (rid, d)
            assert [coeff_vector(b, coords) for b in sl.basis] == want, (rid, d)
            solved += 1
    assert solved == 163


def test_deep_slices_equal_t_system_solve(engine):
    # above T_SYSTEM_DEGREE a slice is the reduced span of the theta and phi
    # products of lower slices; its (nums, dens) must be the T system's
    # normal-form nullspace byte for byte, at every nonzero slice of degrees
    # 41 to 70 and at three deep points
    from g9cov import linalg
    from g9cov.covariants import T_SYSTEM_DEGREE
    assert T_SYSTEM_DEGREE == 40
    cases = [(r, d) for r in range(1, 33) for d in range(41, 71)
             if engine.molien(r).coefficient(d)] + [(31, 121), (29, 123), (21, 250)]
    for rid, d in cases:
        sl = engine.slice(rid, d)
        rep = engine.reps[rid]
        reps, _, rows = engine._tau_system(rep, d, engine._kept_coords(rep, d))
        nums, dens = linalg.rref_nullspace(*linalg.rref(rows), len(reps))
        assert ([[row[i] for i in reps] for row in sl.nums], list(sl.dens)) == (nums, dens), \
            (rid, d)
    assert len(cases) == 123


def test_deep_slice_solves_no_lower_deep_slice(sess, monkeypatch):
    # rho_29 at degree 123 spans the products of its generators, which the
    # sweep finds on T systems: slice calls nest two deep (the deep slice,
    # then a T system under generators()) whatever the degree, and no other
    # slice above T_SYSTEM_DEGREE is solved or cached
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    honest, depth, deepest = CovariantEngine.slice, [0], [0]

    def nested(self, rid, d):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return honest(self, rid, d)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(CovariantEngine, "slice", nested)
    eng.slice(29, 123)
    assert deepest[0] == 2
    assert [key for key in eng._slices if key[1] > 40] == [(29, 123)]
    assert eng.counters["slices_solved"] == len([d for r, d in eng._slices if d <= 40])


def test_deep_slice_rejects_generators_that_span_too_little(sess):
    # theta * g_5 in place of g_13 keeps rho_13's generator degrees (5, 13),
    # but its products repeat those of g_5: at degree 45 they span 2 of the
    # 4 dimensions that Molien counts, and the cross check must refuse
    from g9cov.covariants import CovariantEngine, CrossCheckError, GeneratorSet
    eng = CovariantEngine(sess.table, sess.reps)
    g5 = sess.engine.generators(13).rows[0]
    (theta_g5,) = eng.products(13, 13, [g5])
    coords = tuple(eng._kept_coords(eng.reps[13], 13))
    eng._gens[13] = GeneratorSet(13, 2, (g5, (13, coords, tuple(theta_g5))))
    with pytest.raises(CrossCheckError, match=r"rho_13 degree 45: solver dimension 2, "
                                              r"Molien coefficient 4"):
        eng.slice(13, 45)


@pytest.mark.parametrize("form", ["theta", "phi"])
def test_deep_slice_needs_invariant_theta_and_phi(sess, form):
    # a theta or phi moved by T (x^e added) would span products that are not
    # covariants: a deep slice must refuse before it forms any, naming the
    # representation and the degree; the T systems below are unaffected
    from g9cov.covariants import CovariantEngine, CrossCheckError
    from g9cov.poly import VecPoly
    eng = CovariantEngine(sess.table, sess.reps)
    e = 8 if form == "theta" else 24
    setattr(eng, form, getattr(eng, form) + BiPoly({(e, 0): 1}))
    assert eng.covariance_failure(1, VecPoly([getattr(eng, form)])) == "T"
    with pytest.raises(CrossCheckError,
                       match=r"rho_21 degree 58: theta or phi is not rho_1-invariant"):
        eng.slice(21, 58)
    assert not [d for _, d in eng._slices if d > 40]
    assert eng.slice(21, 34).dim == sess.engine.slice(21, 34).dim


def _verify_counting_fractions(sess, monkeypatch, only):
    """A fresh session after `verify --only <only>`, and the Fractions made
    through the name covariants looks up; linalg has no Fraction at all."""
    from collections import Counter
    from g9cov import cli, covariants, linalg
    from g9cov.covariants import CovariantEngine
    from g9cov.session import Session
    assert not hasattr(linalg, "Fraction")
    calls = Counter()

    def counting(*args, _make=covariants.Fraction):
        calls[covariants.__name__] += 1
        return _make(*args)

    monkeypatch.setattr(covariants, "Fraction", counting)
    fresh = Session(sess.table, sess.reps, CovariantEngine(sess.table, sess.reps))
    monkeypatch.setattr(cli, "get_session", lambda: fresh)
    assert cli.main(["verify", "--only", only]) == 0
    return fresh, calls


def test_crosscheck_makes_no_fraction(sess, monkeypatch):
    # verify's crosscheck on a fresh session carries every slice basis as
    # integer numerators over one denominator: no Fraction is made through
    # the name covariants looks up
    fresh, calls = _verify_counting_fractions(sess, monkeypatch, "crosscheck")
    assert fresh.engine.counters["slices_solved"] > 100 and not calls
    # the counter sees the Fractions that printing a basis makes
    fresh.engine.slice(29, 27).basis
    assert calls["g9cov.covariants"] > 0


def test_generator_extraction_makes_no_fraction(sess, monkeypatch):
    # generators keep primitive integer rows: extracting all 32 generator
    # sets after the crosscheck makes no Fraction either, until a
    # generator is read as a VecPoly
    fresh, calls = _verify_counting_fractions(sess, monkeypatch, "crosscheck,generators")
    assert len(fresh.engine._gens) == 32 and not calls
    # equal generator sets from two engines compare and hash equal
    genset = fresh.engine.generators(29)
    assert genset == sess.engine.generators(29) and hash(genset) == hash(sess.engine.generators(29))
    assert all(type(v) is int for _, _, row in genset.rows for v in row)
    genset.gens
    assert calls["g9cov.covariants"] > 0


def test_engine_counts_slices(sess, monkeypatch):
    from collections import Counter
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    eng.slice(29, 27)
    eng.slice(29, 27)       # cached
    eng.slice(29, 28)       # ruled out by the central character
    # 28 kept columns pair into 14 unknowns; the 4 x 14 rows (j, b) with
    # 2b >= 27 are all nonzero
    assert eng.counters == Counter(slices_solved=1, rows=56, cells=56 * 14)
    # verify's crosscheck solves 165 T systems; a deep slice above it solves
    # none, its lower slices through degree 40 being cached
    fresh, _ = _verify_counting_fractions(sess, monkeypatch, "crosscheck")
    want = Counter(slices_solved=165, rows=3192, cells=31063)
    assert fresh.engine.counters == want
    fresh.engine.slice(29, 59)
    assert fresh.engine.counters == want


def test_tau_pairing_keeps_right_most_coordinates():
    # components 0 and 1 swap, 2 and 3 are fixed; degree 2
    from g9cov.covariants import _tau_pairing
    coords = [(0, 2), (0, 1), (1, 2), (1, 1), (1, 0), (2, 2), (2, 1), (2, 0), (3, 1)]
    reps, mates = _tau_pairing(coords, 2, (1, 0, 2, 3), (1, 1, -1, 1))
    # (1, 2) pairs with (0, 0), which is not kept; (2, 1) is its own
    # partner with sign -1; (3, 1) is its own partner with sign 1
    assert [coords[i] for i in reps] == [(1, 1), (1, 0), (2, 0), (3, 1)]
    assert mates == [(0, 1, 1), (1, 0, 1), (2, 5, -1)]


def _engine_with_images(sess, rid, img_t=None, img_d=None):
    """An engine whose rho_rid has the given CycNum generator images."""
    from dataclasses import replace
    from g9cov.covariants import CovariantEngine
    rep = sess.rep(rid)
    fake = replace(rep, img_t=rep.img_t if img_t is None else encode_image(img_t),
                   img_d=rep.img_d if img_d is None else encode_image(img_d))
    return CovariantEngine(sess.table, [fake if r.rid == rid else r for r in sess.reps])


def test_irrational_t_system_is_caught(sess):
    # rho_21 conjugated by P = diag(1, z, 1) is an equivalent representation
    # with the same D image, rho(tau) and central scalar (zeta_8^2), but its
    # T image is not rational.  Its slices have irrational normal-form bases
    # (degree 2: dimension 1 over Q(zeta_8), none over Q), so the rational
    # solve must not run: _symmetry rejects the representation before any
    # slice is built, and caches nothing
    from g9cov.covariants import CrossCheckError
    p, p_inv = Mat.diagonal([1, Z, 1]), Mat.diagonal([1, Z ** 7, 1])
    rep = sess.rep(21)
    eng = _engine_with_images(sess, 21,
                              img_t=p.matmul(decode_image(rep.img_t)).matmul(p_inv))
    dense = slice_dense(eng, 21, 2)
    assert len(dense) == 1
    assert any(isinstance(c, CycNum) and c.key()[1:4] != (0, 0, 0)
               for poly in dense[0].components
               for c in poly.terms.values())
    with pytest.raises(CrossCheckError, match=r"rho_21: rho\(T\) sqrt\(2\)\^0 is not rational"):
        eng.slice(21, 2)
    assert not eng._slices and not eng._symmetries
    # the genuine rho_21 solves its degree-2 slice
    assert sess.engine.slice(21, 2).dim == 1


def test_t_images_are_rational_up_to_sqrt2(engine):
    # why the T rows are rational: for all 32 representations
    # rho(T) sqrt(2)^(residue mod 2) has zeta coordinates 0 (the check of
    # _symmetry, which keeps it as _Symmetry.t), every solved degree d is
    # the central residue mod 8 (so d and the residue have one parity), and
    # the binomial rows are integers
    from g9cov.reps import DEN
    sqrt2 = CycNum(0, 1, 0, -1)
    for rid in range(1, 33):
        rep = engine.reps[rid]
        sym = engine._symmetry(rid)
        t = decode_image(rep.img_t).scale(sqrt2 ** (sym.residue % 2))
        assert type(sym.t) is tuple and {type(row) for row in sym.t} == {tuple}, rid
        # as_fraction raises unless the z, z^2 and z^3 coordinates are 0
        assert [list(row) for row in sym.t] == [[as_fraction(t.at(j, l)) * DEN
                                                 for l in range(rep.dim)]
                                                for j in range(rep.dim)], rid
        kept = [d for d in range(41) if engine._kept_coords(rep, d) is not None]
        assert kept == list(range(sym.residue, 41, 8)), rid


def test_slice_rejects_negative_degrees(sess):
    # before any cache is read or filled
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    for rid, d in ((1, -8), (9, -1)):
        with pytest.raises(ValueError, match=rf"rho_{rid} degree {d}: the degree is negative"):
            eng.slice(rid, d)
    assert not (eng._slices or eng._molien or eng._symmetries)


@pytest.mark.parametrize("fault", ["swap", "d_eigenvalue", "central", "central_not_scalar",
                                   "tau_entries", "tau_order", "pairing_sign", "dropped_row"])
def test_swap_reduction_faults_are_caught(sess, monkeypatch, fault):
    # every fact the swap reduction rests on is checked exactly, and each
    # fault is caught by its own check, named in the message
    import copy
    from g9cov import covariants, group, reps
    from g9cov.covariants import CovariantEngine, CrossCheckError
    from g9cov.linalg import zeta_power
    from g9cov.reps import DEN, scalar_image
    tau_msg = r"rho\(T\) rho\(D\)\^2 rho\(T\) is not a signed permutation of order 2"
    rid, d = 9, 1
    table = sess.table
    word = table.elements[table.lookup(scalar_image(2, zeta_power(1, group.DEN)))].word

    def with_central(eng, central):
        # reps.image gives zI's word (read from the table) the image central
        # under the engine's rho_9, a fresh object, so no cached residue is read
        fake, honest = eng.reps[9], reps.image
        monkeypatch.setattr(reps, "image", lambda rep, w: central if rep is fake and w == word
                            else honest(rep, w))
    if fault == "swap":
        table = copy.copy(sess.table)
        table.gens = dict(table.gens, D=table.gens["T"])
        with pytest.raises(CrossCheckError, match=r"T D\^2 T is not the swap"):
            CovariantEngine(table, sess.reps)
        return
    if fault == "d_eigenvalue":
        eng, msg = _engine_with_images(sess, 9, img_d=Mat.diagonal([1, CycNum(0, 0, 2, 0)])), \
            r"rho_9: a D eigenvalue is not a power of i"
    elif fault == "central":
        # zI acting by 2
        eng, msg = _engine_with_images(sess, 9), \
            r"rho_9: central scalar is not a power of zeta_8"
        with_central(eng, scalar_image(2, [2 * DEN, 0, 0, 0]))
    elif fault == "central_not_scalar":
        # zI acting by diag(z, z^3)
        eng, msg = _engine_with_images(sess, 9), \
            r"rho_9: central element is not scalar"
        z = scalar_image(2, zeta_power(1, DEN))
        with_central(eng, (z[0], (z[1][0], zeta_power(3, DEN))))
    elif fault == "tau_entries":
        # 2 T keeps rho(T) sqrt(2) rational and makes rho(tau) four times the
        # swap: an involutive pattern with entries 4, not +-1; the honest
        # central image keeps the scalar zeta_8 (the image built from 2 T
        # would fail the central check first)
        t = decode_image(sess.rep(9).img_t).scale(CycNum(2))
        eng, msg = _engine_with_images(sess, 9, img_t=t), rf"rho_9: {tau_msg}"
        with_central(eng, reps.image(sess.rep(9), word))
    elif fault == "tau_order":
        # a 3-cycle for T makes rho(tau) a signed 3-cycle
        cycle = Mat.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        rid, d = 21, 2
        eng, msg = _engine_with_images(sess, 21, img_t=cycle), rf"rho_21: {tau_msg}"
    else:
        rid, d = 29, 27
        eng = CovariantEngine(sess.table, sess.reps)
        msg = r"rho_29 degree 27: a dropped T row is not rho\(D\^2\) times its swapped row"
        if fault == "pairing_sign":
            honest = covariants._tau_pairing

            def flipped(*args):
                reps, mates = honest(*args)
                (g, k, s), rest = mates[0], mates[1:]
                return reps, [(g, k, -s)] + rest
            monkeypatch.setattr(covariants, "_tau_pairing", flipped)
        else:
            honest = CovariantEngine._t_rows

            def tampered(self, rep, d, coords):
                cols = honest(self, rep, d, coords)
                cols[0][d] += 1         # row (0, b = 0), dropped as 2b < d
                return cols
            monkeypatch.setattr(CovariantEngine, "_t_rows", tampered)
    with pytest.raises(CrossCheckError, match=msg):
        eng.slice(rid, d)
