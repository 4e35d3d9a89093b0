from fractions import Fraction

import pytest

from g9cov import molien, reference
from g9cov.group import GroupElement, GroupTable
from g9cov.molien import MolienError, _class_factors, _class_numerator, _unpack, molien_series
from g9cov.reps import class_traces
from oracles import (ZERO, CycNum, Mat, _det2, element_coords, element_mat,
                     molien_series_elementwise, rep_matrices_exact)

ONE = (1, 0, 0, 0)      # the integer coordinates of 1


def integral(x):
    """The integer coordinate tuple of an integral CycNum."""
    *nums, den = x.key()
    assert den == 1, x
    return tuple(nums)


def one_class_table(mat):
    """A GroupTable holding only the element mat, as the one class x."""
    table = GroupTable([GroupElement(0, "", -1, "", element_coords(mat))], {}, {}, {})
    table.class_labels, table.class_reps = ["x"], [0]
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
    # the packed integer class sum against the CycNum element sum, through degree 64
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
    # one coefficient of one class's Q_c moved by 1 breaks integrality: at
    # the identity class chi = dim, so t^16 gains dim / 192
    target = sess.table.class_labels[0]

    def tampered(label, trace, det):
        packed, height = _class_numerator(label, trace, det)
        if label == target:     # coordinate 0 of t^16, packed
            packed = (packed[0] + (1 << (16 * molien.SLOT)),) + packed[1:]
        return packed, height

    monkeypatch.setattr(molien, "_class_numerator", tampered)
    for r in sess.reps:
        with pytest.raises(MolienError, match=rf"rho_{r.rid}: coefficient of t\^16 is"):
            molien_series(r, sess.table, class_traces(r, sess.table))


def test_numerator_must_sum_to_the_dimension(sess):
    # rho_1's images under the name of rho_9: a valid numerator, 1, whose
    # coefficients sum to 1, not to dim rho_9 = 2
    with pytest.raises(MolienError, match=r"^rho_9: numerator coefficients sum to 1, not dim 2$"):
        molien_series(sess.rep(9), sess.table, class_traces(sess.rep(1), sess.table))


def test_class_sum_refuses_weights_past_the_packing_bound(sess):
    # the digits of the packed class sum are exact only below 2^(SLOT - 1):
    # traces 2^60 times too large would alias, so the sum is refused
    rep = sess.rep(9)
    huge = tuple(tuple(x << 60 for x in t) for t in class_traces(rep, sess.table))
    with pytest.raises(MolienError, match=rf"^rho_9: the class sum exceeds "
                                          rf"2\^{molien.SLOT - 1} per coefficient$"):
        molien_series(rep, sess.table, huge)


def test_class_numerator_needs_integral_class_data():
    # the class data is read off the element's coordinates: trace 1/2 with
    # det 0, then trace 1 with det 1/2
    h = Fraction(1, 2)
    with pytest.raises(MolienError, match=r"class x: Q_c needs integral trace and det, "
                                          r"got 1/2, 0$"):
        _class_factors(one_class_table(Mat.diagonal([h, 0])))
    with pytest.raises(MolienError, match=r"class x: Q_c needs integral trace and det, "
                                          r"got 1, 1/2$"):
        _class_factors(one_class_table(Mat.from_rows([[h, h], [-h, h]])))
    assert type(_class_numerator("x", ONE, ONE)) is tuple   # cached and shared


def test_class_numerator_rejects_factor_that_does_not_divide():
    # 1 - 3t + t^2 has no root of unity as a root, so the remainder is not 0
    with pytest.raises(MolienError, match=r"class x: 1 - \(3\)t \+ \(1\)t\^2 does not divide"):
        _class_numerator("x", (3, 0, 0, 0), ONE)


def test_class_numerator_times_class_factor_is_denominator(table):
    # Q_c * (1 - tr t + det t^2) = (1 - t^8)(1 - t^24) exactly, every class
    want = [ZERO] * 33
    for d, v in ((0, 1), (8, -1), (24, -1), (32, 1)):
        want[d] = CycNum(v)
    factors = _class_factors(table)
    for pos, (label, r) in enumerate(zip(table.class_labels, table.class_reps)):
        m = element_mat(table.elements[r].coords)
        tr, det = m.trace(), _det2(m)
        assert factors[pos] == (label, integral(tr), integral(det)), label
        packed, height = _class_numerator(label, integral(tr), integral(det))
        rows = list(zip(*map(_unpack, packed)))
        assert height == max(abs(x) for row in rows for x in row), label
        q = [CycNum(*row) for row in rows]
        assert len(q) == 31
        q += [ZERO, ZERO]
        prod = [q[n] - (tr * q[n - 1] if n >= 1 else ZERO)
                + (det * q[n - 2] if n >= 2 else ZERO) for n in range(33)]
        assert prod == want, label


def test_class_numerator_built_once_per_class(sess):
    # Q_c depends only on the class: all 32 numerators build at most 32
    # class numerators, not one per (rep, class) pair, and share them
    _class_numerator.cache_clear()
    for r in sess.reps:
        molien_series(r, sess.table, class_traces(r, sess.table))
    info = _class_numerator.cache_info()
    assert info.misses <= 32 and info.misses + info.hits > 32, info
    for label, r in zip(sess.table.class_labels, sess.table.class_reps):
        m = element_mat(sess.table.elements[r].coords)
        assert type(_class_numerator(label, integral(m.trace()),
                                     integral(_det2(m)))) is tuple, label


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
