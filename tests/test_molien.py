import pytest

from g9cov import molien, reference
from g9cov.cyclo import CycNum, ONE, ZERO
from g9cov.molien import (CutoffError, MolienError, _det2, _inverse_det_series,
                          molien_series, numerator_of)
from oracles import molien_series_elementwise, rep_matrices_exact


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
        assert res.series[0] == (1 if r.rid == 1 else 0)
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
    # the int64 class sum against the CycNum element sum, through degree 64
    for r in sess.reps:
        naive = molien_series_elementwise(sess.table, 64, rep_matrices_exact(r, sess.table))
        assert naive == list(sess.engine.molien(r.rid).series), r.rid


def test_tampered_class_expansion_is_rejected(sess, monkeypatch):
    # one coefficient of one class's 1/det(I - t s) moved by 1 breaks
    # integrality: at the identity class chi = dim, so t^16 gains dim / 192
    target = sess.table.elements[sess.table.class_reps[0]].mat

    def tampered(trace, det, cutoff):
        out = _inverse_det_series(trace, det, cutoff)
        if (trace, det) == (target.trace(), _det2(target)):
            out = out.copy()
            out[16, 0] += 1
        return out

    monkeypatch.setattr(molien, "_inverse_det_series", tampered)
    for r in sess.reps:
        with pytest.raises(MolienError, match=rf"rho_{r.rid}: coefficient of t\^16 is"):
            molien_series(r, sess.table, 64, sess.mats[r.rid])


def test_inverse_det_series_needs_integral_class_data():
    with pytest.raises(MolienError, match="integral trace and det"):
        _inverse_det_series(CycNum(1, den=2), ONE, 8)
    assert not _inverse_det_series(ONE, ONE, 8).flags.writeable


def test_inverse_det_series_inverts_each_class_factor(table):
    # expansion * (1 - tr t + det t^2) = 1 + O(t^(cutoff + 1)) for every class
    cutoff = 64
    for r in table.class_reps:
        m = table.elements[r].mat
        tr, det = m.trace(), _det2(m)
        c = [CycNum(*row) for row in _inverse_det_series(tr, det, cutoff).tolist()]
        assert len(c) == cutoff + 1
        prod = [c[n] - (tr * c[n - 1] if n >= 1 else ZERO)
                + (det * c[n - 2] if n >= 2 else ZERO) for n in range(cutoff + 1)]
        assert prod == [ONE] + [ZERO] * cutoff, table.elements[r].word


def test_inverse_det_series_expanded_once_per_class(sess):
    # the expansion depends only on the class: all 32 series at one cutoff
    # expand at most 32 factors, not one per (rep, class) pair
    _inverse_det_series.cache_clear()
    for r in sess.reps:
        molien_series(r, sess.table, 64, sess.mats[r.rid])
    info = _inverse_det_series.cache_info()
    assert info.misses <= 32 and info.misses + info.hits > 32, info


def test_cutoff_guard(sess):
    with pytest.raises(CutoffError):
        molien_series(sess.reps[0], sess.table, 40, sess.mats[1])
    # a lone coefficient above cutoff - 32 cannot be separated from the tail
    with pytest.raises(CutoffError):
        numerator_of([0] * 40 + [1] + [0] * 20, 60)
