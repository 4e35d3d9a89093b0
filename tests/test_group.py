import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from g9cov import reference
from g9cov.group import (COORD_BOUND, NotFinitelyClosedError, class_orders, class_sizes,
                         closure, multiply, reference_class_matrices, standard_generators)
from oracles import CycNum, Mat, closure_exact, element_coords, element_mat


def test_closure_sizes(table):
    assert len(table) == 192
    t, d = standard_generators()
    assert len(closure([("D", d)])) == 4
    assert len(closure([("I", element_coords(Mat.identity(2)))])) == 1


def test_closure_guard():
    shear = element_coords(Mat.from_rows([[1, 1], [0, 1]]))
    with pytest.raises(NotFinitelyClosedError):
        closure([("S", shear)], limit=500)
    # closure takes coordinates over 2, so diag(1/3, 1) has no input form:
    # the encoder rejects it, and closure names a generator past the bound
    third = Mat.diagonal([Fraction(1, 3), 1])
    with pytest.raises(ValueError, match=r"is not in \(1/2\) Z\[zeta_8\]"):
        element_coords(third)
    big = element_coords(Mat.diagonal([Fraction(COORD_BOUND + 1, 2), 1]))
    floats = tuple(tuple(tuple(float(c) for c in x) for x in row) for row in shear)
    for bad in (big, floats):
        with pytest.raises(ValueError, match=r"generator S is not integer coordinates within"):
            closure([("T", standard_generators()[0]), ("S", bad)])
    # products are checked too: S^2 = diag(1/4, 1) leaves (1/2) Z[zeta_8],
    # and the powers of diag(2, 1) leave the coordinate bound
    for entry, length in ((Fraction(1, 2), 2), (2, 24)):
        with pytest.raises(ValueError, match=rf"word of length {length} ending in S leaves"):
            closure([("S", element_coords(Mat.diagonal([entry, 1])))])


def test_integer_closure_matches_exact_closure():
    t, d = map(element_mat, standard_generators())
    # outside both groups; diag(1/3, 1) has an entry outside (1/2) Z[zeta_8],
    # so it has no coordinates to look up
    outside = [t.scale(2), Mat.diagonal([Fraction(1, 2), 1]),
               Mat.from_rows([[1, 1], [0, 1]]), Mat.identity(1)]
    with pytest.raises(ValueError):
        element_coords(Mat.diagonal([Fraction(1, 3), 1]))
    for gens in ([("T", t), ("D", d)], [("D", d)]):
        group = closure([(name, element_coords(g)) for name, g in gens])
        mats, words, parents, right = closure_exact(gens)
        assert [element_mat(e.coords) for e in group.elements] == mats, gens
        assert [e.word for e in group.elements] == words
        assert [e.parent for e in group.elements] == parents
        assert [e.last for e in group.elements] == [w[-1:] for w in words]
        assert group.right == right
        assert [group.lookup(element_coords(m)) for m in mats] == list(range(len(mats)))
        for m in outside:
            with pytest.raises(KeyError):
                group.lookup(element_coords(m))


def test_derived_fields_are_declared():
    # every derived field reads None until the step that computes it has run
    small = closure([("D", standard_generators()[1])])
    assert small.identity is None and small.product is None
    assert small.class_labels is None and small.class_reps is None
    small.compute_products()
    assert small.identity == 0


def test_multiply_matches_exact_product():
    t, d = standard_generators()
    for a, b in ((t, d), (d, t), (t, t)):
        assert element_mat(multiply(a, b)) == element_mat(a).matmul(element_mat(b))
    half = element_coords(Mat.diagonal([Fraction(1, 2), 1]))
    with pytest.raises(ValueError, match=r"a product leaves \(1/2\) Z\[zeta_8\]"):
        multiply(half, half)


def test_reference_representatives_equal_exact_products():
    # the z^k shifts and integer products against CycNum matrix arithmetic
    t, d = map(element_mat, standard_generators())
    bases = {"I": Mat.identity(2), "D^2": d.matmul(d), "D": d, "T": t, "TD": t.matmul(d)}
    reps = reference_class_matrices()
    assert len(reps) == 32
    for label, coords in reps:
        power, _, base = label.rpartition("*")
        k = {"": 0, "z": 1}[power] if power in ("", "z") else int(power.removeprefix("z^"))
        assert element_mat(coords) == bases[base].scale(CycNum.zeta(k)), label


def test_class_count_and_sizes(table):
    assert len(table.classes) == 32
    assert Counter(len(b) for b in table.classes) == Counter({1: 8, 6: 12, 12: 4, 8: 8})
    assert sum(len(b) for b in table.classes) == 192
    assert class_sizes(table) == reference.CLASS_SIZES


def test_element_orders(table):
    t, d = map(element_mat, standard_generators())
    assert table.orders[table.lookup(element_coords(t.matmul(d)))] == 24
    assert table.orders[table.identity] == 1
    z5td = t.matmul(d).scale(CycNum.zeta(5))
    assert table.orders[table.lookup(element_coords(z5td))] == 3
    assert all(192 % o == 0 for o in table.orders)
    assert class_orders(table) == reference.CLASS_ORDERS


def test_reference_classes_distinct(table):
    assert len(table.class_reps) == 32
    assert len({table.class_of[i] for i in table.class_reps}) == 32
    # identity class is the singleton at position 1
    assert table.class_reps[0] == table.identity
    assert len(table.classes[table.class_of[table.identity]]) == 1
    # the class of D has size 6 and order 4
    _, d = standard_generators()
    pos = table.class_labels.index("D")
    assert class_sizes(table)[pos] == 6
    assert class_orders(table)[pos] == 4
    assert table.class_of[table.lookup(d)] == table.class_block_order[pos]


def evaluate_word(table, word):
    m = Mat.identity(2)
    for ch in word:
        m = m.matmul(element_mat(table.gens[ch]))
    return m


def brute_force_products(table):
    """Cayley table from all n^2 exact matrix products: the oracle for the
    table read off the BFS tree."""
    mats = [element_mat(e.coords) for e in table.elements]
    return [[table.lookup(element_coords(a.matmul(b))) for b in mats] for a in mats]


def test_words_reevaluate(table):
    for e in table.elements:
        assert evaluate_word(table, e.word) == element_mat(e.coords)
    # BFS words are shortest: lengths are monotone along discovery order
    lengths = [len(e.word) for e in table.elements]
    assert lengths == sorted(lengths)


def test_group_closed_under_product_and_inverse(table):
    n = len(table)
    for i in range(n):
        assert 0 <= table.inverse[i] < n
        assert table.product[i][table.inverse[i]] == table.identity
    assert all(0 <= v < n for row in table.product for v in row)


def test_products_match_exact_matrix_products():
    t, d = standard_generators()
    for gens in ([("T", t), ("D", d)], [("D", d)]):
        group = closure(gens)
        group.compute_products()
        assert group.product == brute_force_products(group), gens


def test_reference_matching_rejects_wrong_group():
    from g9cov.group import ReferenceMismatchError, match_reference_classes
    _, d = standard_generators()
    small = closure([("D", d)])
    small.compute_products()
    small.compute_orders()
    small.compute_classes()
    with pytest.raises(ReferenceMismatchError):
        match_reference_classes(small)


def test_reference_matching_rejects_conjugate_representatives(table, monkeypatch):
    # z*T replaced by another element of the class of T: every representative
    # is in the group and there are still 32 of them, but two share a class
    from g9cov import group
    from g9cov.group import ReferenceMismatchError
    reps = reference_class_matrices()
    labels = [label for label, _ in reps]
    t = table.lookup(reps[labels.index("T")][1])
    other = next(i for i in table.classes[table.class_of[t]] if i != t)
    reps[labels.index("z*T")] = ("z*T", table.elements[other].coords)
    monkeypatch.setattr(group, "reference_class_matrices", lambda: reps)
    with pytest.raises(ReferenceMismatchError,
                       match=r"^representative z\*T is conjugate to an earlier representative$"):
        group.match_reference_classes(copy.copy(table))


def test_conjugation_permutes_classes(table):
    rng = random.Random(31)
    for g in rng.sample(range(len(table)), 10):
        ginv = table.inverse[g]
        for block in table.classes:
            image = {table.product[table.product[g][h]][ginv] for h in block}
            assert image == set(block)
