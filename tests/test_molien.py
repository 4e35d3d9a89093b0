from fractions import Fraction

import pytest

from g9cov import molien, reference
from g9cov.group import CLASS_BASES, GroupElement, GroupTable, class_inverses, class_sizes
from g9cov.molien import MolienError, _class_factors, _class_numerator, molien_series
from g9cov.reps import central_residue, class_traces
from oracles import (ZERO, CycNum, Mat, _det2, element_coords, element_mat,
                     inverse_det_series_exact, molien_series_elementwise, rep_matrices_exact)

ONE = (1, 0, 0, 0)      # the integer coordinates of 1


def integral(x):
    """The integer coordinate tuple of an integral CycNum."""
    *nums, den = x.key()
    assert den == 1, x
    return tuple(nums)


def one_class_table(mat):
    """A GroupTable holding only the element mat, as the class x at every reference column."""
    table = GroupTable([GroupElement(0, "", -1, "", element_coords(mat))], {}, {}, {})
    table.inverse, table.classes, table.class_of = [0], [[0]], [0]
    table.class_labels, table.class_reps, table.class_block_order = ["x"] * 32, [0] * 32, [0] * 32
    return table


def test_trivial_rep_series(engine):
    res = engine.molien(1)
    assert res.head(4) == [(0, 1), (8, 1), (16, 1), (24, 2)]
    assert res.numerator == ((0, 1),)


def test_natural_rep_series(engine):
    assert engine.molien(9).head(5) == [(1, 1), (9, 1), (17, 2), (25, 3), (33, 3)]


def test_sym2_series(engine):
    res = engine.molien(21)
    assert res.head(4) == [(2, 1), (10, 2), (18, 3), (26, 4)]
    assert res.numerator == ((2, 1), (10, 1), (18, 1))


def test_numerator_from_series_head():
    # independent numerator oracle on the frozen degree-41 head of rho_31:
    # n_d = c_d - c_(d-8) - c_(d-24) + c_(d-32)
    head = dict(reference.SERIES_HEADS[31])
    n = {d: head.get(d, 0) - head.get(d - 8, 0) - head.get(d - 24, 0)
         + head.get(d - 32, 0) for d in head}
    assert {d: c for d, c in n.items() if c} == {9: 2, 17: 1, 25: 1}


def test_numerators_all(engine, reps):
    for r in reps:
        res = engine.molien(r.rid)
        assert res.coefficient(0) == (1 if r.rid == 1 else 0)
        assert sum(c for _, c in res.numerator) == r.dim
        assert all(c > 0 for _, c in res.numerator)


def test_series_heads_match_reference(engine):
    for rid, head in reference.SERIES_HEADS.items():
        assert engine.molien(rid).head(len(head)) == head, rid


def test_numerator_matches_generator_degrees(engine):
    for rid, degs in reference.GENERATOR_DEGREES.items():
        got = []
        for d, c in engine.molien(rid).numerator:
            got.extend([d] * c)
        assert tuple(got) == tuple(sorted(degs))


def test_class_sum_equals_element_sum(sess):
    # the five-base sum at n = r (mod 8) against the CycNum sum over all 192
    # exact images, every coefficient through degree 64, for every residue r
    for r in sess.reps:
        naive = molien_series_elementwise(sess.table, 64, rep_matrices_exact(r, sess.table))
        assert naive == list(sess.engine.molien(r.rid).series(64)), r.rid


def test_coefficient_closed_form_inverts_denominator(engine):
    # the closed form times (1 - t^8)(1 - t^24) gives back the numerator in
    # every degree through 256, and nothing above it
    for rid in range(1, 33):
        res = engine.molien(rid)
        c = res.series(256)
        prod = {d: c[d] - (c[d - 8] if d >= 8 else 0) - (c[d - 24] if d >= 24 else 0)
                + (c[d - 32] if d >= 32 else 0) for d in range(257)}
        assert {d: v for d, v in prod.items() if v} == dict(res.numerator), rid


def test_tampered_class_expansion_is_rejected(sess, monkeypatch):
    # coordinate 0 of Q_I[16 + k] moved by 1 for k < 8 breaks integrality at
    # t^(16 + r): the 8 central classes carry chi = dim, so it gains dim / 24
    target = sess.table.class_labels[0]

    def tampered(label, trace, det):
        q = _class_numerator(label, trace, det)
        if label == target:
            q = [(x[0] + (16 <= n < 24),) + x[1:] for n, x in enumerate(q)]
        return q

    monkeypatch.setattr(molien, "_class_numerator", tampered)
    for r in sess.reps:
        n = 16 + central_residue(r, sess.table)
        with pytest.raises(MolienError, match=rf"rho_{r.rid}: coefficient of t\^{n} is"):
            molien_series(r, sess.table, class_traces(r, sess.table))


def test_numerator_must_sum_to_the_dimension(sess):
    # rho_1's images under the name of rho_9: a valid numerator, 1, whose
    # coefficients sum to 1, not to dim rho_9 = 2
    with pytest.raises(MolienError, match=r"^rho_9: numerator coefficients sum to 1, not dim 2$"):
        molien_series(sess.rep(9), sess.table, class_traces(sess.rep(1), sess.table))


def test_central_character_must_be_a_power_of_zeta(sess):
    # the five-base sum needs rho(zI) = zeta_8^r I, read off tr rho(zI) =
    # zeta_8^r dim: rho_9's character with 0 at zI has no such r
    traces = list(class_traces(sess.rep(9), sess.table))
    traces[1] = (0, 0, 0, 0)
    with pytest.raises(MolienError, match=r"^rho_9: tr rho\(zI\) = 0 is not a power of "
                                          r"zeta_8 times the dimension$"):
        molien_series(sess.rep(9), sess.table, tuple(traces))


def test_class_numerator_needs_integral_class_data():
    # the class data is read off the element's coordinates at each base
    # column: trace 1/2 with det 0, then trace 1 with det 1/2
    h = Fraction(1, 2)
    with pytest.raises(MolienError, match=r"class x: Q_h needs integral trace and det, "
                                          r"got 1/2, 0$"):
        _class_factors(one_class_table(Mat.diagonal([h, 0])))
    with pytest.raises(MolienError, match=r"class x: Q_h needs integral trace and det, "
                                          r"got 1, 1/2$"):
        _class_factors(one_class_table(Mat.from_rows([[h, h], [-h, h]])))
    assert type(_class_numerator("x", ONE, ONE)) is tuple   # cached and shared


def test_class_numerator_rejects_factor_that_does_not_divide():
    # 1 - 3t + t^2 has no root of unity as a root, so the remainder is not 0
    with pytest.raises(MolienError, match=r"class x: 1 - \(3\)t \+ \(1\)t\^2 does not divide"):
        _class_numerator("x", (3, 0, 0, 0), ONE)


def test_class_numerator_times_class_factor_is_denominator(table):
    # Q_h * (1 - tr t + det t^2) = (1 - t^8)(1 - t^24) exactly at each base h,
    # and the CycNum division for every class z^k h, its representative the
    # matrix zeta^k h, is Q_h(zeta^k t)
    want = [ZERO] * 33
    for d, v in ((0, 1), (8, -1), (24, -1), (32, 1)):
        want[d] = CycNum(v)
    sizes, inverse = class_sizes(table), class_inverses(table)
    pos = 0
    for (_, count), factors in zip(CLASS_BASES, _class_factors(table), strict=True):
        label = table.class_labels[pos]
        m = element_mat(table.elements[table.class_reps[pos]].coords)
        tr, det = m.trace(), _det2(m)
        assert factors == (sum(sizes[pos:pos + count]), inverse[pos], label,
                           integral(tr), integral(det)), label
        q = [CycNum(*x) for x in _class_numerator(label, integral(tr), integral(det))]
        assert len(q) == 31
        q += [ZERO, ZERO]
        prod = [q[n] - (tr * q[n - 1] if n >= 1 else ZERO)
                + (det * q[n - 2] if n >= 2 else ZERO) for n in range(33)]
        assert prod == want, label
        for k in range(count):
            m = element_mat(table.elements[table.class_reps[pos + k]].coords)
            inv = inverse_det_series_exact(m.trace(), _det2(m), 32)
            div = [sum((want[d] * inv[n - d] for d in (0, 8, 24, 32) if d <= n), ZERO)
                   for n in range(33)]
            assert div == [CycNum.zeta(k * n) * x for n, x in enumerate(q)], (label, k)
        pos += count
    assert pos == len(table.class_reps)


def test_class_numerator_built_once_per_class(sess):
    # Q_h depends only on the base: all 32 numerators build at most 5 class
    # numerators, not one per (rep, class) pair, and share them
    _class_numerator.cache_clear()
    for r in sess.reps:
        molien_series(r, sess.table, class_traces(r, sess.table))
    info = _class_numerator.cache_info()
    assert info.misses <= 5 and info.misses + info.hits > 5, info
    pos = 0
    for _, count in CLASS_BASES:
        m = element_mat(sess.table.elements[sess.table.class_reps[pos]].coords)
        label = sess.table.class_labels[pos]
        assert type(_class_numerator(label, integral(m.trace()),
                                     integral(_det2(m)))) is tuple, label
        pos += count
    assert _class_numerator.cache_info().misses == info.misses


def test_cutoff_guard(sess):
    # the numerator is exact, so no series length is too short to read it
    # and there is no cutoff left to pass: 40 terms, once refused, are the
    # head of the same series read to degree 256
    traces = class_traces(sess.reps[0], sess.table)
    res = molien_series(sess.reps[0], sess.table, traces)
    assert res.numerator == ((0, 1),)
    assert res.series(40) == res.series(256)[:41]
    with pytest.raises(TypeError):
        molien_series(sess.reps[0], sess.table, traces, 40)
