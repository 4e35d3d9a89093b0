import numpy as np
import pytest

from g9cov import reference
from g9cov.cyclo import CycNum
from g9cov.poly import BiPoly, fundamental_invariants
from oracles import (covariance_check, int_rows, rep_matrices_exact, slice_dense,
                     stacked_rows, t_rows_exact, tau_reduced_rows,
                     verify_free_by_elimination)

GAMMA, THETA, DELTA, PHI = fundamental_invariants()


def test_solve_degree_examples(engine):
    sl = engine.slice(3, 6)
    assert sl.dim == 1
    assert sl.basis[0].components[0] in (GAMMA, GAMMA.normalized(), -GAMMA)

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
        fast = engine.slice(rid, d)
        dense = slice_dense(engine, rid, d)
        assert fast.basis == dense.basis, (rid, d)


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
                assert covariance_check(g, mats[idx], sess.table.elements[idx].mat)


def test_generator_normalization(engine):
    # leading coefficient 1 in component-major graded-lex coordinate order
    for rid in range(1, 33):
        for d, g in engine.generators(rid).gens:
            coords = [(j, a) for j in range(len(g)) for a in range(d, -1, -1)]
            vec = g.coeff_vector(coords)
            lead = next(v for v in vec if not v.is_zero())
            assert lead == CycNum(1)


def test_free_module_spans(engine):
    # the determinant proof against the elimination oracle through degree 64
    for rid in (1, 3, 9, 13, 19, 21, 25, 29, 31):
        report = engine.verify_free(rid)
        assert report["degrees_checked"] == 65
        assert verify_free_by_elimination(engine, rid, 64) == report


def _engine_with_generators(sess, rid, gens):
    from g9cov.covariants import CovariantEngine, GeneratorSet
    eng = CovariantEngine(sess.table, sess.reps)
    eng._gens[rid] = GeneratorSet(rid, tuple(gens))
    return eng


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
    assert eng.verify_free(13)["degrees_checked"] == 65


def test_det_relation_examples(engine):
    e, k, c = engine.det_relation(9)
    assert (e, k) == (1, 1) and not c.is_zero()
    assert sum(engine.generators(9).degrees) == 18

    e, k, c = engine.det_relation(25)
    assert (e, k) == (2, 3)

    e, k, c = engine.det_relation(29)
    assert (e, k) == (2, 6)
    assert sum(engine.generators(29).degrees) == 60


def test_det_relation_rejects_rank_one(engine):
    from g9cov.covariants import FactorizationError
    with pytest.raises(FactorizationError):
        engine.det_relation(3)


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
    # every degree reads the same exact numerator, so a wrong coefficient
    # must be fatal above degree 64 too
    from dataclasses import replace
    from g9cov.covariants import CovariantEngine, CrossCheckError
    good = sess.engine.molien(3)
    assert sess.engine.slice(3, 70).dim == good.coefficient(70) == 3
    eng = CovariantEngine(sess.table, sess.reps)
    eng._molien[3] = replace(good, numerator=((6, 2),))
    with pytest.raises(CrossCheckError, match="rho_3 degree 70"):
        eng.slice(3, 70)


def test_det_relations_all(engine):
    for rid, (e_want, k_want) in reference.DET_EXPONENTS.items():
        e, k, c = engine.det_relation(rid)
        assert (e, k) == (e_want, k_want), rid
        assert not c.is_zero()
        degs = engine.generators(rid).degrees
        assert sum(degs) == 12 * e + 6 * k, rid


def test_tau_structure_examples(engine):
    recs = engine.tau_structure(21)
    assert [r.degree for r in recs] == [2, 10, 18]
    assert all(r.found for r in recs)
    w = recs[0].witness
    f, g, h = w.components
    assert h == f.tau() and g.tau() == g

    recs = engine.tau_structure(23)
    assert all(r.found for r in recs)
    f, g, h = recs[0].witness.components
    assert h == -f.tau() and g.tau() == -g

    assert engine.tau_structure(5) == []  # rank 1: out of pattern scope


def test_tau_structure_quadruples(engine):
    for rid in (29, 30):
        for rec in engine.tau_structure(rid):
            assert rec.found
            f, g, gt, ft = rec.witness.components
            assert gt == g.tau() and ft == f.tau()
    for rid in (31, 32):
        for rec in engine.tau_structure(rid):
            assert rec.found
            f, g, gt, ft = rec.witness.components
            assert gt == -g.tau() and ft == -f.tau()


@pytest.mark.parametrize("fault", ["swap_sign", "generator"])
def test_tau_structure_reports_absence(sess, fault):
    # the witness is the generator itself only while rho(tau) is the
    # reversal with the reference sign and the generator has the pattern
    from dataclasses import replace
    from g9cov.poly import VecPoly
    gens = sess.engine.generators(21).gens
    if fault == "swap_sign":
        eng = _engine_with_generators(sess, 21, gens)
        eng._symmetries[21] = replace(eng._symmetry(21), sign=(1, -1, 1))
        expected = [False, False, False]
    else:
        (d, g), rest = gens[0], gens[1:]
        f0, f1, f2 = g.components
        eng = _engine_with_generators(sess, 21, ((d, VecPoly([f0, f1, f2.scale(2)])),) + rest)
        expected = [False, True, True]
    records = eng.tau_structure(21)
    assert [r.found for r in records] == expected
    assert [r.witness is not None for r in records] == expected


def test_covariance_failure_matches_substitution_oracle(sess):
    # the integer predicate against substitution and the matrix action, on
    # the lowest-degree slice basis vector of every representation, as is
    # and with one coefficient bumped by 1 (x^d, then x^(d-1) y, of
    # component 0): it names the first generator, D then T, the oracle rejects
    from g9cov.cyclo import ONE
    from g9cov.group import standard_generators
    from g9cov.poly import VecPoly
    t, d = standard_generators()
    engine = sess.engine
    seen = set()
    for rid in range(1, 33):
        rep = sess.rep(rid)
        deg = engine.molien(rid).numerator[0][0]
        vec = engine.slice(rid, deg).basis[0]
        assert engine.covariance_failure(rid, vec) is None, rid
        for a in range(deg, max(deg - 2, -1), -1):
            bumped = vec + VecPoly.from_coeffs([(0, a)], [ONE], rep.dim, deg)
            if not covariance_check(bumped, rep.image("D"), d):
                expected = "D"
            elif not covariance_check(bumped, rep.image("T"), t):
                expected = "T"
            else:
                expected = None
            assert engine.covariance_failure(rid, bumped) == expected, (rid, a)
            seen.add(expected)
    assert seen == {"D", "T", None}


def test_rank_one_closed_forms(engine):
    consts = engine.verify_linear_generators()
    assert set(consts) == set(range(1, 9))
    assert all(not c.is_zero() for c in consts.values())
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
    # the integer system is DEN times the CycNum rows, zero rows dropped, and
    # the swap-reduced system (which must pass its dropped-row check) is the
    # upper half of its rows times E; rho_30 in degree 255 has coefficients
    # past 2^63, so nothing may wrap: the rows are int64 only through
    # degree 59, where the entry bound of _t_rows fits
    from g9cov.reps import DEN
    cases = [(r, d) for r in range(1, 33) for d in range(41)] + \
        [(25, 70), (30, 63), (30, 255)]
    checked = 0
    for rid, d in cases:
        rep = engine.reps[rid]
        coords = engine._kept_coords(rep, d)
        if not coords:
            continue
        full = engine._t_rows(rep, d, coords)
        assert full.shape == (rep.dim, d + 1, len(coords), 4), (rid, d)
        assert full.dtype == (np.int64 if d < 60 else object), (rid, d)
        got = full.reshape(-1, len(coords), 4)
        got = got[(got != 0).any(axis=(1, 2))]
        want = [r for r in t_rows_exact(rep, d, coords) if any(not x.is_zero() for x in r)]
        assert [[CycNum._make(tuple(e), DEN) for e in row] for row in got.tolist()] == want, \
            (rid, d)
        reps, mates, reduced = engine._tau_system(rep, d, coords)
        assert reduced.dtype == full.dtype, (rid, d)
        assert np.moveaxis(reduced, 0, -1).tolist() == tau_reduced_rows(full, d, reps, mates), \
            (rid, d)
        checked += 1
    assert checked == 164
    assert max(abs(x) for x in got.flat) > 2 ** 63
    assert max(abs(x) for x in reduced.flat) > 2 ** 63


def test_slice_path_builds_no_cycnum_rows(sess, monkeypatch):
    # the T system is assembled, reduced and eliminated with no CycNum and
    # no int_encoding; CycNum appears only in the certified basis vectors
    from g9cov import linalg
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    rep = eng.reps[29]
    coords = eng._kept_coords(rep, 27)

    def forbidden(*args, **kwargs):
        raise AssertionError("built on the slice path")
    monkeypatch.setattr(linalg, "int_encoding", forbidden)
    monkeypatch.setattr(CycNum, "__init__", forbidden)
    monkeypatch.setattr(CycNum, "_make", staticmethod(forbidden))
    reps, _, rows = eng._tau_system(rep, 27, coords)
    got = linalg._nullspace_mod(linalg._IntRows(np.concatenate(rows)),
                                linalg.ELIMINATION_PRIMES[0])
    monkeypatch.undo()
    assert got is not None and len(got[0]) + len(got[1]) == len(reps)
    basis = [b.coeff_vector(coords) for b in eng.slice(29, 27).basis]
    assert basis == _oracle(t_rows_exact(rep, 27, coords), len(coords))


def _oracle(rows, ncols):
    from g9cov.linalg import nullspace_from_rref, rref
    reduced, pivots = rref(list(rows))
    return nullspace_from_rref(reduced, pivots, ncols)


def test_certified_nullspace_equals_exact_rref(engine):
    # the multimodular solver over Q, on the four coordinate rows of the full
    # system and on the engine's swap-reduced one, against the exact
    # elimination oracle over Q(zeta_8) on every slice with rows through
    # degree 40, and on two deep slices: the rational descent of the module
    # docstring, checked case by case
    from collections import Counter
    from g9cov.linalg import certified_nullspace
    cases = [(r, d) for r in range(1, 33) for d in range(41)] + [(25, 70), (30, 63)]
    counters = Counter()
    solved = 0
    for rid, d in cases:
        rows, ncols = _rows(engine, rid, d)
        if rows:
            want = _oracle(rows, ncols)
            assert certified_nullspace(stacked_rows(rows), ncols, counters) == want, (rid, d)
            # the swap-reduced system of the engine gives the same basis
            coords = engine._kept_coords(engine.reps[rid], d)
            assert [b.coeff_vector(coords) for b in engine.slice(rid, d).basis] == want, \
                (rid, d)
            solved += 1
    assert solved == 163
    assert counters["fallbacks"] == 0 and counters["certificate_primes"] > 0


def test_engine_counts_slices_and_primes(sess):
    from g9cov.covariants import CovariantEngine
    eng = CovariantEngine(sess.table, sess.reps)
    eng.slice(29, 27)
    eng.slice(29, 27)       # cached
    eng.slice(29, 28)       # ruled out by the central character
    assert eng.counters["slices_solved"] == 1
    # 28 kept columns pair into 14 unknowns; the 4 x 14 rows (j, b) with
    # 2b >= 27 are all nonzero
    assert eng.counters["rows"] == 56 and eng.counters["cells"] == 56 * 14
    assert eng.counters["primes"] >= 1 and eng.counters["certificate_primes"] >= 1
    assert eng.counters["fallbacks"] == 0


@pytest.mark.parametrize("fault", ["off_nullspace", "off_normal_form"])
def test_corrupted_reconstruction_falls_back(sess, monkeypatch, fault):
    # a wrong reconstruction: the certificate must reject every attempt, the
    # exact fallback must engage, and the basis stays right
    from g9cov import linalg
    from g9cov.covariants import CovariantEngine
    honest = linalg._reconstruct

    def corrupt(residues, m):
        got = honest(residues, m)
        if got is not None:
            vecs, dens = got
            vecs = vecs.copy()
            if fault == "off_nullspace":
                # for rho_21 in degree 18 column 0 of the swap-reduced system
                # is a pivot column left of vector 0's free column 5: caught
                # by A v = 0
                vecs[0, 0] += 1
            else:
                # v_0 + v_1 stays in the nullspace but is nonzero at the free
                # column of v_1: caught by the normal form
                vecs[0] = vecs[0] * dens[1] + vecs[1] * dens[0]
                dens = [dens[0] * dens[1]] + dens[1:]
            got = vecs, dens
        return got

    eng = CovariantEngine(sess.table, sess.reps)
    monkeypatch.setattr(linalg, "_reconstruct", corrupt)
    basis = eng.slice(21, 18).basis
    assert eng.counters["fallbacks"] == 1
    assert eng.counters["primes"] == len(linalg.ELIMINATION_PRIMES)
    monkeypatch.undo()
    assert basis == slice_dense(sess.engine, 21, 18).basis


def test_certificate_needs_enough_primes(engine):
    # an entry shifted by a product of certificate primes vanishes modulo
    # each of them; the magnitude bound must demand a prime that sees it,
    # at whichever pivot column of the first vector the shift lands
    from collections import Counter
    from math import prod
    from g9cov.linalg import CERTIFICATE_PRIMES, _certify, _IntRows, int_encoding
    rows, ncols = _rows(engine, 29, 35)
    basis = _oracle(rows, ncols)
    nums, dens, _ = int_encoding(basis)
    vecs = nums[..., 0]
    assert not nums[..., 1:].any()      # the basis is rational
    free = [max(c for c in range(ncols) if not v[c].is_zero()) for v in basis]
    pivots = sorted(set(range(free[0])) - set(free))[:4]
    assert len(pivots) == 4
    system = _IntRows(stacked_rows(rows))
    counters = Counter()
    assert _certify(system, vecs, list(dens), free, counters)
    honest = counters["certificate_primes"]
    for pivot in pivots:
        for shift in (1, prod(CERTIFICATE_PRIMES[:honest + 2])):
            bad = vecs.copy()
            bad[0, pivot] += shift
            counters = Counter()
            assert not _certify(system, bad, list(dens), free, counters), (pivot, shift)
            assert counters["certificate_primes"] < len(CERTIFICATE_PRIMES)
        assert counters["certificate_primes"] > honest + 2


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
    from dataclasses import replace
    from g9cov.covariants import CovariantEngine
    rep = sess.rep(rid)
    fake = replace(rep, img_t=rep.img_t if img_t is None else img_t,
                   img_d=rep.img_d if img_d is None else img_d)
    return CovariantEngine(sess.table, [fake if r.rid == rid else r for r in sess.reps])


def test_galois_instability_is_caught(sess):
    # rho_21 conjugated by P = diag(1, z, 1) is an equivalent representation
    # with the same D image, rho(tau) and central scalar, but
    # sigma_3(rho(sigma_3(T))) = sigma_3(P) rho_21(T) sigma_3(P)^-1 is not
    # its T image.  Its slices have irrational normal-form bases (degree 2:
    # dimension 1 over Q(zeta_8), none over Q), so the rational solve must
    # not run
    from g9cov.covariants import CrossCheckError
    from g9cov.cyclo import Z
    from g9cov.linalg import Mat
    p, p_inv = Mat.diagonal([1, Z, 1]), Mat.diagonal([1, Z ** 7, 1])
    rep = sess.rep(21)
    eng = _engine_with_images(sess, 21, img_t=p.matmul(rep.img_t).matmul(p_inv))
    dense = slice_dense(eng, 21, 2)
    assert dense.dim == 1
    assert any(c.key()[1:4] != (0, 0, 0) for poly in dense.basis[0].components
               for c in poly.terms.values())
    with pytest.raises(CrossCheckError, match=r"rho_21: sigma_3\(rho\(sigma_3\(T\)\)\) "
                                              r"is not rho\(T\)"):
        eng.slice(21, 2)
    # the genuine representations all pass
    for rid in range(1, 33):
        sess.engine._symmetry(rid)


@pytest.mark.parametrize("fault", ["swap", "d_eigenvalue", "central", "tau_entries",
                                   "tau_order", "pairing_sign", "dropped_row"])
def test_swap_reduction_faults_are_caught(sess, monkeypatch, fault):
    # every fact the swap reduction rests on is checked exactly, and each
    # fault is caught by its own check, named in the message
    import copy
    from g9cov import covariants
    from g9cov.covariants import CovariantEngine, CrossCheckError
    from g9cov.linalg import Mat
    from g9cov.reps import DEN, scalar_image
    tau_msg = r"rho\(T\) rho\(D\)\^2 rho\(T\) is not a signed permutation of order 2"
    rid, d = 9, 1
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
        eng, msg = CovariantEngine(sess.table, sess.reps), \
            r"rho_9: central scalar is not a power of zeta_8"
        images = eng.matrices(9).copy()
        images[eng._central_index] = scalar_image(2, [2 * DEN, 0, 0, 0])
        eng._mats[9] = images
    elif fault == "tau_entries":
        # sqrt(2) T makes rho(tau) twice the swap: an involutive pattern
        # with entries 2, not +-1
        t = sess.rep(9).img_t.scale(CycNum(0, 1, 0, -1))
        eng, msg = _engine_with_images(sess, 9, img_t=t), rf"rho_9: {tau_msg}"
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
                rows = honest(self, rep, d, coords)
                rows[0, d, 0, 0] += 1       # row (0, b = 0), dropped as 2b < d
                return rows
            monkeypatch.setattr(CovariantEngine, "_t_rows", tampered)
    with pytest.raises(CrossCheckError, match=msg):
        eng.slice(rid, d)
