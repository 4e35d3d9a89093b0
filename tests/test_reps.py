import copy
from fractions import Fraction

import numpy as np
import pytest

from g9cov import reference
from g9cov.group import build_group, class_inverses, multiply, standard_generators
from g9cov.group import class_sizes
from g9cov.covariants import CovariantEngine
from g9cov.session import Session
from g9cov.reps import (COORD_BOUND, PRESENTATION, CensusError, ExtractionError, ImageError,
                        Representation, _check_relations, _tensor, build_all, character_gram,
                        class_traces, extract_subrep, image, rep_matrices, scalar_image,
                        verify_census, verify_homomorphism)
from oracles import (CYC_STRUCT, HALF_SQRT2, I_UNIT, ZERO, CycNum, Mat, as_fraction, as_tuples,
                     build_all_exact, coset_count, decode, decode_image, decode_images,
                     decode_rows, element_coords, element_mat, encode_image,
                     homomorphism_on_cayley_edges, inner_product, mat_pow, rep_matrices_exact)

H = Fraction(1, 2)


def by_id(reps, rid):
    return next(r for r in reps if r.rid == rid)


@pytest.fixture(scope="module")
def images(sess):
    """rid -> the int64 images of all elements under rho_rid (the rep_matrices oracle)."""
    out = {}
    for m in (1, 2, 3, 4):
        batch = [r for r in sess.reps if r.dim == m]
        out.update(zip((r.rid for r in batch), rep_matrices(batch, sess.table)))
    return out


def test_sym2_extraction_matrices(reps):
    r21 = by_id(reps, 21)
    assert decode_image(r21.img_t) == Mat.from_rows([[H, 1, H], [H, 0, -H], [H, -1, H]])
    assert decode_image(r21.img_d) == Mat.diagonal([1, I_UNIT, -1])


def test_sym3_extraction_matrices(reps):
    r29 = by_id(reps, 29)
    q = HALF_SQRT2 * CycNum(H)  # 1 / (2 sqrt 2)
    assert decode_image(r29.img_d) == Mat.diagonal([1, I_UNIT, -1, -I_UNIT])
    assert decode_image(r29.img_t) == Mat.from_rows([
        [q, 3 * q, 3 * q, q],
        [q, q, -q, -q],
        [q, -q, -q, q],
        [q, -3 * q, 3 * q, -q]])


def test_plane_extraction_matrices(reps):
    r19 = by_id(reps, 19)
    assert decode_image(r19.img_t) == Mat.from_rows([[H, 3 * H], [H, -H]])
    assert decode_image(r19.img_d) == Mat.diagonal([1, -1])
    # the order-2 twist flips D but keeps T
    r17 = by_id(reps, 17)
    assert decode_image(r17.img_t) == decode_image(r19.img_t)
    assert decode_image(r17.img_d) == Mat.diagonal([-1, 1])


def test_generator_relations_all(reps):
    for r in reps:
        t, d = decode_image(r.img_t), decode_image(r.img_d)
        assert t.matmul(t) == Mat.identity(r.dim)
        assert mat_pow(d, 4) == Mat.identity(r.dim)


def test_tensor_with_sym3_diagonal(reps):
    # the 8-dimensional tensor product has eight diagonal entries; some
    # published displays of it list nine (see README)
    r9, r29 = by_id(reps, 9), by_id(reps, 29)
    got = decode_image(_tensor(19, r9, r29).img_d)
    z = CycNum.zeta
    assert got == Mat.diagonal([1, z(2), -1, -z(2), z(2), -1, -z(2), 1])


def test_extract_subrep_full_basis_is_identity_case():
    t, d = (encode_image(element_mat(g)) for g in standard_generators())
    r = extract_subrep(9, Representation(9, 2, t, d), [[0], [1]])
    assert np.array_equal(r.img_t, t) and np.array_equal(r.img_d, d)


def test_extract_subrep_rejects_non_invariant_span(reps):
    rho99 = _tensor(21, by_id(reps, 9), by_id(reps, 9))
    with pytest.raises(ExtractionError,
                       match=r"^rho_21: the subspace is not invariant under the T image$"):
        extract_subrep(21, rho99, [[0], [1]])


@pytest.mark.parametrize("quarters, match", [
    (1, r"^rho_21: a tensor product is not in \(1/4\) Z\[zeta_8\]$"),
    (2 ** 18, rf"^rho_21: an image coordinate exceeds {COORD_BOUND}$"),
], ids=["sixteenth", "bound"])
def test_tensor_product_checks_its_range(table, quarters, match):
    # (1/4) (x) (1/4) = 1/16 leaves (1/4) Z[zeta_8]; 2^16 (x) 2^16 is 2^34
    # quarters: exact in the Python ints of the construction, and refused by
    # the int64 BFS of verify, the one place where the bound matters
    x = scalar_image(1, [quarters, 0, 0, 0])
    one_dim = Representation(1, 1, x, x)
    with pytest.raises(ImageError, match=match):
        rep_matrices([_tensor(21, one_dim, one_dim)], table)


def test_build_all_makes_no_cycnum_arithmetic():
    # no g9cov module can reach CycNum or Mat (test_public_names_resolve): the
    # group, the construction, the engine, Molien and the symmetry checks
    # read tuples of Python int coordinates
    table = build_group()
    out = build_all(table)
    engine = CovariantEngine(table, out)
    for rid in range(1, 33):
        engine.molien(rid)
        engine._symmetry(rid)
    assert [r.rid for r in out] == list(range(1, 33))
    for r in out:
        for img in (r.img_t, r.img_d):
            assert type(img) is tuple and len(img) == r.dim, r.rid
            assert all(type(row) is tuple and len(row) == r.dim for row in img), r.rid
            assert {(type(x), len(x)) for row in img for x in row} == {(tuple, 4)}, r.rid
            assert {type(c) for row in img for x in row for c in x} == {int}, r.rid


def test_build_all_equals_cycnum_construction(table, reps):
    exact = build_all_exact(table)
    assert [(r.rid, r.dim) for r in reps] == [(e.rid, e.dim) for e in exact]
    for r, e in zip(reps, exact):
        assert decode_image(r.img_t) == e.img_t, r.rid
        assert decode_image(r.img_d) == e.img_d, r.rid


@pytest.mark.parametrize("rid", [1, 9, 21, 29])
def test_relation_check_rejects_scaled_generators(reps, rid):
    # the relations are checked on the integer images; i T squares to -I and
    # z D has fourth power -I, so each must be named
    r = by_id(reps, rid)
    _check_relations(rid, r.img_t, r.img_d)
    with pytest.raises(ExtractionError, match=rf"rho_{rid}: T image is not an involution"):
        _check_relations(rid, as_tuples(_times_zeta(r.img_t, 2)), r.img_d)
    with pytest.raises(ExtractionError, match=rf"rho_{rid}: D image has order not dividing 4"):
        _check_relations(rid, r.img_t, as_tuples(_times_zeta(r.img_d, 1)))


def evaluate(rep, word):
    """Image of a group element given by its generator word."""
    m = Mat.identity(rep.dim)
    for ch in word:
        m = m.matmul(decode_image(image(rep, ch)))
    return m


def test_evaluate_examples(table, reps):
    t, d = map(element_mat, standard_generators())
    td = table.elements[table.lookup(element_coords(t.matmul(d)))]
    assert evaluate(by_id(reps, 9), td.word) == t.matmul(d)
    for e in table.elements[:20]:
        assert evaluate(by_id(reps, 1), e.word) == Mat.identity(1)
    assert evaluate(by_id(reps, 7), "T") == Mat.from_rows([[-1]])
    assert evaluate(by_id(reps, 7), "D") == Mat.from_rows([[I_UNIT]])


def test_character_spot_values(sess, chars):
    z = CycNum.zeta
    assert chars[8][24] == -z(3)      # chi_9 at the TD class
    assert chars[20][12] == z(2)      # chi_21 at the D class
    for i, r in enumerate(sess.reps):
        assert chars[i][0] == CycNum(r.dim)


def test_characters_are_class_functions(sess):
    for r in sess.reps:
        mats = rep_matrices_exact(r, sess.table)
        for block in sess.table.classes:
            traces = {mats[i].trace() for i in block}
            assert len(traces) == 1


def test_inner_products(sess, chars):
    assert inner_product(chars[0], chars[0], sess.table) == 1
    assert inner_product(chars[8], chars[8], sess.table) == 1
    assert inner_product(chars[8], chars[14], sess.table) == 0


def test_inner_product_against_raw_sum(sess, chars):
    # independent oracle: the raw element-by-element average
    for i, j in [(0, 0), (8, 8), (8, 14), (20, 22), (28, 30)]:
        acc = ZERO
        mi = rep_matrices_exact(sess.reps[i], sess.table)
        mj = rep_matrices_exact(sess.reps[j], sess.table)
        for e in sess.table.elements:
            acc = acc + mi[e.index].trace() * mj[e.index].trace().conj()
        want = Fraction(1 if i == j else 0)
        assert as_fraction(acc) / len(sess.table) == want
        assert inner_product(chars[i], chars[j], sess.table) == want


def test_census(sess):
    report = verify_census(sess.reps, sess.table, sess.traces)
    assert report["sum_squares"] == 192
    assert report["pairs_checked"] == 1024
    dims = [r.dim for r in sess.reps]
    assert dims.count(2) == 12 and dims.count(1) == 8
    assert dims.count(3) == 8 and dims.count(4) == 4


def test_twist_coherence(chars):
    # the character of a twist is the pointwise product of character rows
    pairs = {10: 3, 11: 2, 13: 5, 16: 8, 22: 2, 28: 8, 30: 2, 31: 3, 17: None}
    for rid, k in pairs.items():
        if k is None:
            continue
        base = {10: 9, 11: 9, 13: 9, 16: 9, 22: 21, 28: 21, 30: 29, 31: 29}[rid]
        got = chars[rid - 1]
        expect = [a * b for a, b in zip(chars[k - 1], chars[base - 1])]
        assert got == expect


def test_five_base_traces_equal_traces_of_all_images(sess, images):
    # the class traces read off five images and the central scalar against
    # the einsum traces of the int64 images of all 192 elements, for all 32
    # reps; and the column that Molien reads for s^-1 against the traces of
    # the images of the inverses of the representatives
    table = sess.table
    inverse = class_inverses(table)
    for r in sess.reps:
        got = class_traces(r, table)
        mats = images[r.rid]
        assert got == as_tuples(np.einsum("cjjr->cr", mats[table.class_reps])), r.rid
        at_inverse = np.einsum("cjjr->cr", mats[table.inverse][table.class_reps])
        assert tuple(got[c] for c in inverse) == as_tuples(at_inverse), r.rid


def test_homomorphism_single_rep(sess):
    assert verify_homomorphism(sess.rep(29), sess.table) == 192 * 192


def _relators():
    # lhs = rhs as the relator lhs rhs^-1, an inverse letter in lower case
    return [lhs + rhs[::-1].swapcase() for lhs, rhs in PRESENTATION]


def test_presentation_has_order_192():
    # the theorem verify_homomorphism cites, by coset enumeration over the
    # trivial subgroup; first the enumerator on two groups of known order:
    # S_3 = <T, D | T^2, D^2, (TD)^3> and G(4, 1, 2) = <T, D | T^2, D^4,
    # (TD)^2 (DT)^-2> of order 4^2 2! = 32
    assert coset_count(["TT", "DD", "TDTDTD"]) == 6
    assert coset_count(["TT", "DDDD", "TDTDtdtd"]) == 32
    assert _relators() == ["TT", "DDDD", "TDTDTDtdtdtd"]
    assert coset_count(_relators()) == 192


def test_braid_length_is_six(table):
    # on the group's own 2x2 generators, the alternating words TDT... and
    # DTD... of length n first agree at n = 6: no shorter braid relation holds
    equal = []
    for n in range(1, 7):
        ends = [table.elements[table.identity].coords] * 2
        for k in range(n):
            ends = [multiply(ends[0], table.gens["TD"[k % 2]]),
                    multiply(ends[1], table.gens["DT"[k % 2]])]
        equal.append(ends[0] == ends[1])
    assert equal == [False] * 5 + [True]


def test_presentation_agrees_with_cayley_edges(sess, images):
    # the relation certificate and the int64 Cayley-edge oracle on all 32 reps
    for r in sess.reps:
        assert verify_homomorphism(r, sess.table) == 192 * 192, r.rid
        assert homomorphism_on_cayley_edges(r, sess.table, images[r.rid]) == 192 * 192, r.rid


def _negate_d00(rep):
    d = [list(row) for row in rep.img_d]
    d[0][0] = tuple(-c for c in d[0][0])
    return Representation(rep.rid, rep.dim, rep.img_t, tuple(map(tuple, d)))


def test_tampered_generator_images_agree_with_cayley_edges(sess):
    # rho(D)_00 negated: rho_21 keeps T^2 = D^4 = I but breaks the braid
    # relation, and the oracle an edge of D; rho_9 becomes a representation
    # with the character of rho_14, which both accept; for rho_29 an image
    # leaves (1/4) Z[zeta_8], and both name rho_29
    table = sess.table
    bad = _negate_d00(sess.rep(21))
    _check_relations(21, bad.img_t, bad.img_d)
    with pytest.raises(CensusError, match=r"^rho_21: the relation TDTDTD = DTDTDT fails$"):
        verify_homomorphism(bad, table)
    with pytest.raises(CensusError, match=r"^rho_21: homomorphism fails at pair \(22, 1\)$"):
        homomorphism_on_cayley_edges(bad, table, rep_matrices([bad], table)[0])
    other = _negate_d00(sess.rep(9))
    assert class_traces(other, table) == sess.traces[13]
    assert verify_homomorphism(other, table) == 192 * 192
    assert homomorphism_on_cayley_edges(other, table, rep_matrices([other], table)[0]) == \
        192 * 192
    bad = _negate_d00(sess.rep(29))
    outside = r"^rho_29: an image of word length 5 is not in \(1/4\) Z\[zeta_8\]$"
    with pytest.raises(ImageError, match=outside):
        verify_homomorphism(bad, table)
    with pytest.raises(ImageError, match=outside):
        rep_matrices([bad], table)


def test_presentation_checks_the_group_table(sess):
    # D's right action replaced by D^2's: T^2 = 1 and (D^2)^4 = 1 hold, and the
    # braid relation fails in the table although every rep satisfies it;
    # a table of 96 elements is refused by its order
    tampered = copy.copy(sess.table)
    d = sess.table.right["D"]
    tampered.right = dict(sess.table.right, D=[d[d[g]] for g in range(len(d))])
    with pytest.raises(CensusError,
                       match=r"^the group table breaks the relation TDTDTD = DTDTDT$"):
        verify_homomorphism(sess.rep(1), tampered)
    short = copy.copy(sess.table)
    short.elements = short.elements[:96]
    with pytest.raises(CensusError, match=r"^the group table has 96 elements, not 192$"):
        verify_homomorphism(sess.rep(1), short)


def _times_zeta(images, k):
    """Multiply every entry by z^k (0 <= k < 4), on the integer coordinates."""
    return np.einsum("...p,pr->...r", images, CYC_STRUCT[:, k])


# The three tests below corrupt element images, which verify no longer
# builds: they test the Cayley-edge oracle that verify_homomorphism replaced.

def test_homomorphism_catches_every_single_corrupted_image(sess, images):
    # the Cayley edges of T and D touch every element, so scaling any one
    # non-identity image by z^2 breaks some edge
    rep, mats = sess.rep(29), images[29]
    for g in range(1, len(sess.table)):
        bad = mats.copy()
        bad[g] = _times_zeta(mats[g], 2)
        with pytest.raises(CensusError, match="rho_29: homomorphism fails"):
            homomorphism_on_cayley_edges(rep, sess.table, bad)


def test_homomorphism_checks_the_edges_of_both_generators(sess, images):
    # scaling a whole right coset g<s> by z^2 keeps every s-edge intact
    # (g = the other generator keeps e and s out of it), so only the other
    # generator's edges can expose it
    table, rep, mats = sess.table, sess.rep(29), images[29]
    for name, other_name in (("T", "D"), ("D", "T")):
        s, other = table.lookup(table.gens[name]), table.lookup(table.gens[other_name])
        coset, x = [other], table.product[other][s]
        while x != other:
            coset.append(x)
            x = table.product[x][s]
        bad = mats.copy()
        bad[coset] = _times_zeta(mats[coset], 2)
        with pytest.raises(CensusError, match=rf", {other}\)$"):
            homomorphism_on_cayley_edges(rep, table, bad)


def test_homomorphism_requires_identity_image(sess, images):
    # all-zero images satisfy every edge 0 * 0 = 0; only rho(e) = I rules them out
    with pytest.raises(CensusError, match="identity"):
        homomorphism_on_cayley_edges(sess.rep(29), sess.table, np.zeros_like(images[29]))


def test_wrong_generator_image_fails_edge_check(table):
    # diag(1, z) has order 8, so images built along the BFS words of G9
    # cannot form a homomorphism: the presentation names D^4 = 1, the
    # oracle an edge
    t = element_mat(standard_generators()[0])
    bad = Representation(9, 2, encode_image(t), encode_image(Mat.diagonal([1, CycNum.zeta(1)])))
    with pytest.raises(CensusError, match=r"^rho_9: the relation DDDD = 1 fails$"):
        verify_homomorphism(bad, table)
    with pytest.raises(CensusError, match="rho_9: homomorphism fails"):
        homomorphism_on_cayley_edges(bad, table, rep_matrices([bad], table)[0])


def test_kernel_images_equal_exact_oracle(sess, images):
    # every coordinate of every image of every representation, decoded
    for r in sess.reps:
        assert decode_images(images[r.rid]) == list(rep_matrices_exact(r, sess.table)), r.rid


def test_kernel_images_are_read_only(images):
    with pytest.raises(ValueError):
        images[9][0, 0, 0, 0] = 0


@pytest.mark.parametrize("d_coords, match", [
    ([1, 0, 0, 0], r"rho_1: an image of word length 2 is not in \(1/4\)"),
    ([2 ** 29, 0, 0, 0], rf"rho_1: an image coordinate exceeds {COORD_BOUND}$"),
    ([2 ** 22, 0, 0, 0], rf"rho_1: an image coordinate exceeds {COORD_BOUND}"),
], ids=["product-sixteenth", "generator-bound", "product-bound"])
def test_kernel_rejects_images_outside_its_range(table, d_coords, match):
    # coordinates over DEN = 4: D = [[1/4]]: D^2 = 1/16 leaves (1/4) Z[zeta_8];
    # D = [[2^27]] is 2^29 quarters; D = [[2^20]]: D^2 is 2^42 quarters
    bad = Representation(1, 1, scalar_image(1, [4, 0, 0, 0]), scalar_image(1, d_coords))
    with pytest.raises(ImageError, match=match):
        rep_matrices([bad], table)


def test_images_read_through_traces_equal_exact_oracle(sess, images, monkeypatch):
    # a fresh session reads its traces without the images of the BFS, and
    # the oracle's images, one batch per dimension, are read-only
    monkeypatch.setattr("g9cov.reps.rep_matrices", None)
    fresh = Session(sess.table, sess.reps, CovariantEngine(sess.table, sess.reps))
    assert fresh.traces == sess.traces
    assert sorted(images) == list(range(1, 33))
    assert not any(images[rid].flags.writeable for rid in images)


@pytest.mark.parametrize("rid, scale, match", [
    (5, Fraction(1, 4), r"rho_5: an image of word length 2 is not in \(1/4\)"),
    (5, 2 ** 20,
     rf"rho_5: an image coordinate exceeds {COORD_BOUND} in an image of word length 2$"),
    (27, Fraction(1, 4), r"rho_27: an image of word length 2 is not in \(1/4\)"),
], ids=["rho5-quarter", "rho5-bound", "rho27-quarter"])
def test_batched_images_name_the_failing_rep(sess, rid, scale, match):
    # a bad D image on a rep that is not first in its dimension batch: the
    # error names that rep and the word length, not the batch's first rep
    reps = [Representation(r.rid, r.dim, r.img_t,
                           encode_image(decode_image(r.img_d).scale(scale)))
            if r.rid == rid else r for r in sess.reps]
    batch = [r for r in reps if r.dim == by_id(reps, rid).dim]
    assert batch[0].rid != rid
    with pytest.raises(ImageError, match=match):
        rep_matrices(batch, sess.table)


def _moved(traces, rid, col, quarters):
    """traces with chi_rid at class col moved by quarters / 4."""
    rows = [list(row) for row in traces]
    x = rows[rid - 1][col]
    rows[rid - 1][col] = (x[0] + quarters, *x[1:])
    return tuple(map(tuple, rows))


def test_integer_gram_equals_inner_product(sess, chars):
    # the census Gram entries i <= j against the CycNum class sum, on the
    # true traces and on traces with chi_5 moved by 2^70 / 4, past int64,
    # at the class of z^3 I
    scale = len(sess.table) * 16
    gram = character_gram(sess.traces, sess.table)
    assert sorted(gram) == [(i, j) for i in range(32) for j in range(i, 32)]
    for (i, j), x in gram.items():
        assert decode(x, scale) == CycNum(inner_product(chars[i], chars[j], sess.table)), (i, j)
    bad = _moved(sess.traces, 5, 3, 2 ** 70)
    gram = character_gram(bad, sess.table)
    rows = decode_rows(bad)
    sizes = class_sizes(sess.table)
    for i, j in gram:
        raw = sum((size * a * b.conj() for size, a, b in zip(sizes, rows[i], rows[j])),
                  CycNum(0))
        assert decode(gram[i, j], scale) == raw / len(sess.table), (i, j)


def test_census_rejects_a_wrong_dimension_multiset(sess):
    # rho_32, of dimension 4, replaced by a second rho_1
    reps = [r for r in sess.reps if r.rid != 32] + [sess.rep(1)]
    with pytest.raises(CensusError,
                       match=r"^dimension multiset \[(1, ){9}(2, ){12}(3, ){8}4, 4, 4\] is wrong$"):
        verify_census(reps, sess.table, sess.traces)


def test_census_rejects_a_table_of_the_wrong_order(sess):
    # the 32 right dimensions, whose squares sum to 192, against 96 elements
    short = copy.copy(sess.table)
    short.elements = short.elements[:96]
    with pytest.raises(CensusError, match=r"^sum of squared dimensions is 192, not 96$"):
        verify_census(sess.reps, short, sess.traces)


def test_census_names_a_tampered_pair(sess):
    # chi_5 at the class of z^3 I moved by 1/4: its pairing with chi_1 breaks first
    with pytest.raises(CensusError, match=r"^<chi_1, chi_5> = 1/768, expected 0$"):
        verify_census(sess.reps, sess.table, _moved(sess.traces, 5, 3, 1))


def test_character_table_vs_reference_detailed(chars):
    ref = decode_rows(reference.printed_character_table(), 1)
    for i in range(32):
        rid = i + 1
        if rid in (29, 30, 31):
            continue
        assert chars[i] == ref[i], f"row {rid}"
    # the three remaining printed rows hold the characters of the twisted
    # numbering: row 29 -> rho_30, row 30 -> rho_31, row 31 -> rho_29
    for row, src in reference.CHARACTER_ROW_SOURCE.items():
        assert ref[row - 1] == chars[src - 1]
    # and no identity assignment exists for them
    for rid in (29, 30, 31):
        assert chars[rid - 1] != ref[rid - 1]


def _rows_breaking_central_rule(chars):
    # zI is central, so rho(zI) is a scalar c I; a nonzero covariant F of
    # degree d has F(zx) = z^d F(x), forcing c = z^d.  Hence chi_i(1) is the
    # rank of the (free) covariant module and chi_i(zI) = dim(rho_i) z^d0, d0
    # the first degree of the Hilbert series of rho_i.  Columns 0 and 1 are
    # the classes of I and zI.
    bad = []
    for rid in range(1, 33):
        dim = len(reference.GENERATOR_DEGREES[rid])
        d0 = reference.SERIES_HEADS[rid][0][0]
        row = chars[rid - 1]
        if row[0] != dim or row[1] != CycNum.zeta(d0) * dim:
            bad.append(rid)
    return bad


def test_reference_character_table_numbering_from_reference_data():
    # session-free: the degree tables alone decide the row numbering
    assert _rows_breaking_central_rule(decode_rows(reference.character_table(), 1)) == []
    assert _rows_breaking_central_rule(
        decode_rows(reference.printed_character_table(), 1)) == [29, 30, 31]


def test_printed_character_table_is_read_only():
    # parsed once and shared by every caller, so no caller may change it:
    # nested tuples of 32 rows of 32 coordinate tuples
    printed, ordered = reference.printed_character_table(), reference.character_table()
    assert printed is reference.printed_character_table()
    for table in (printed, ordered):
        assert type(table) is tuple and [len(row) for row in table] == [32] * 32
        assert {(type(row), type(x), len(x)) for row in table for x in row} == \
            {(tuple, tuple, 4)}
        with pytest.raises(TypeError):
            table[0][0] = 7
    assert printed[0][0] == (1, 0, 0, 0)
    # the package order is the printed order under CHARACTER_ROW_SOURCE
    for row, src in reference.CHARACTER_ROW_SOURCE.items():
        assert ordered[src - 1] == printed[row - 1], row
