import random
from fractions import Fraction
from math import gcd

import pytest

from g9cov import linalg
from g9cov.group import standard_generators
from g9cov.linalg import rref_nullspace
from oracles import (I_UNIT, ONE, ZERO, CycNum, Mat, ShapeError, SingularMatrixError, as_fractions,
                     element_mat, int_rows, kron, mat_from_json, mat_pow, mat_to_json,
                     nullspace_from_rref, rational, rref, solve_exact)


def rnd_mat(rng, n, m=None, span=3):
    m = n if m is None else m
    return Mat(n, m, [CycNum(*[Fraction(rng.randint(-span, span), rng.randint(1, 3))
                               for _ in range(4)]) for _ in range(n * m)])


def test_generator_relations():
    t, d = map(element_mat, standard_generators())
    assert t.matmul(t) == Mat.identity(2)
    assert mat_pow(d, 4) == Mat.identity(2)
    with pytest.raises(ValueError, match="negative power"):
        mat_pow(d, -1)


def test_matmul_identity_random():
    rng = random.Random(3)
    for _ in range(20):
        m = rnd_mat(rng, 3)
        assert Mat.identity(3).matmul(m) == m
        assert m.matmul(Mat.identity(3)) == m
    with pytest.raises(ShapeError):
        rnd_mat(rng, 2).matmul(rnd_mat(rng, 3))


def oracle_nullspace(rows, ncols):
    reduced, pivots = rref([list(r) for r in rows])
    return nullspace_from_rref(reduced, pivots, ncols)


def cyc_rows(rows):
    return [[rational(x) for x in r] for r in rows]


def solved(rows, ncols):
    """rref_nullspace of integer rows as Fraction vectors, after checking its (nums, dens) form."""
    nums, dens = rref_nullspace(*linalg.rref(rows), ncols)
    assert [len(row) for row in nums] == [ncols] * len(dens) and all(den > 0 for den in dens)
    assert all(type(x) is int for row in nums for x in row) and all(type(x) is int for x in dens)
    return as_fractions(nums, dens)


def test_nullspace_examples():
    assert solved([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == []
    assert solved([[0, 0], [0, 0]], 2) == [[ONE, ZERO], [ZERO, ONE]]
    assert solved([], 2) == [[ONE, ZERO], [ZERO, ONE]]
    # hand elimination of [[1,1],[1,1]]: one free column, vector (-1, 1)
    assert solved([[1, 1], [1, 1]], 2) == [[CycNum(-1), ONE]]
    # one free column right of a fractional pivot: (-1/3, 1), numerators (-1, 3) over 3
    assert solved([[3, 1]], 2) == [[CycNum(Fraction(-1, 3)), ONE]]
    nums, dens = rref_nullspace(*linalg.rref([[3, 1]]), 2)
    assert (nums, dens) == ([[-1, 3]], [3])


def test_nullspace_exactness_and_rank():
    rng = random.Random(9)
    for _ in range(20):
        ints = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(3)]
        rows = cyc_rows(ints)
        basis = solved(ints, 5)
        assert basis == oracle_nullspace(rows, 5)
        m = Mat.from_rows(rows)
        for v in basis:
            assert all(e.is_zero() for e in m.matmul(Mat(len(v), 1, v)).entries)
        assert len(rref([list(v) for v in basis])[1]) == len(basis)   # independent


def test_integer_rref_matches_field_rref():
    # linalg.rref against the Fraction oracle on seeded integer matrices with
    # zero rows, duplicate rows, negative leading entries and entries past
    # 2^64: the same pivots, each row the oracle row times its pivot entry,
    # primitive and with a positive pivot; and a matrix with no rows
    rng = random.Random(41)
    systems = [[], [[0, 0, 0]], [[-4, 6, 2], [2, -3, -1]], [[0, -3, 6], [0, 0, 5], [7, 1, 0]]]
    for _ in range(60):
        ncols = rng.randint(1, 8)
        span = 2 ** 70 if rng.random() < 0.2 else 5
        rows = [[rng.randint(-span, span) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(rng.randint(1, 6))]
        rows += [[0] * ncols] + [list(rng.choice(rows)) for _ in range(rng.randint(0, 2))]
        rows += [[-x for x in rng.choice(rows)]]
        rng.shuffle(rows)
        systems.append(rows)
    seen_big = 0
    for rows in systems:
        got, pivots = linalg.rref(rows)
        want, want_pivots = rref([[Fraction(x) for x in r] for r in rows])
        assert pivots == want_pivots, rows
        assert len(got) == len(pivots)
        for row, ref, p in zip(got, want, pivots):
            assert all(type(x) is int for x in row) and row[p] > 0 and gcd(*row) == 1
            assert row == [x * row[p] for x in ref], rows
            assert not any(row[q] for q in pivots if q != p)
        seen_big += any(abs(x) > 2 ** 64 for r in got for x in r)
    assert seen_big > 3
    # a non-int entry is refused by the RowReducer underneath
    with pytest.raises(ValueError, match="RowReducer works over Q"):
        linalg.rref([[Fraction(1, 2), 1]])


def test_certified_nullspace_matches_rref_on_rational_rows():
    # rref_nullspace against the Fraction oracle: dependent rows with
    # fractional entries, each scaled to integers by its least common
    # denominator: low rank, many free columns; then an all-zero matrix, one
    # with no rows, zero rows interleaved with nonzero ones, and rows with
    # entries past 2^63
    rng = random.Random(33)
    systems = []
    for _ in range(15):
        ncols = rng.randint(2, 9)
        base = [[rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 if rng.random() < 0.6 else ZERO for _ in range(ncols)]
                for _ in range(rng.randint(1, 4))]
        rows = base + [[sum((rng.randint(-3, 3) * r[c] for r in base), ZERO)
                        for c in range(ncols)] for _ in range(3)]
        rng.shuffle(rows)
        systems.append((int_rows(rows)[..., 0].tolist(), ncols))
    big = 2 ** 64 + 13
    systems += [([[0] * 4] * 3, 4), ([], 3),
                ([[0, 0, 0, 0], [0, 2, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0],
                  [1, 1, 3, 0], [0, 0, 0, 0], [1, 3, 3, 1]], 4),
                ([[big, 3 * big + 1, 5, 0], [0, 0, 0, 0],
                  [2 * big, 6 * big + 2, 10, 0], [1, -big, 0, 2 ** 70]], 4)]
    for rows, ncols in systems:
        assert solved(rows, ncols) == oracle_nullspace(cyc_rows(rows), ncols), rows


def test_kron_reference_values():
    t, d = map(element_mat, standard_generators())
    assert kron(d, d) == Mat.diagonal([1, I_UNIT, I_UNIT, -1])
    rho21_d = Mat.diagonal([1, I_UNIT, -1])
    assert kron(d, rho21_d) == Mat.diagonal([1, I_UNIT, -1, I_UNIT, -1, -I_UNIT])
    assert kron(Mat.identity(2), Mat.identity(2)) == Mat.identity(4)


def test_kron_mixed_product_sampled():
    rng = random.Random(15)
    for _ in range(20):
        a, b = rnd_mat(rng, 2), rnd_mat(rng, 2)
        c, d = rnd_mat(rng, 3), rnd_mat(rng, 3)
        assert kron(a, c).matmul(kron(b, d)) == kron(a.matmul(b), c.matmul(d))


def test_solve_exact():
    t = element_mat(standard_generators()[0])
    x = solve_exact(t, Mat.identity(2))
    assert t.matmul(x) == Mat.identity(2)
    with pytest.raises(ValueError):
        solve_exact(Mat(2, 1, [1, 0]), Mat(2, 1, [0, 1]))
    with pytest.raises(SingularMatrixError):
        solve_exact(Mat.from_rows([[1, 1], [1, 1]]), Mat.identity(2))


def test_json_round_trip():
    rng = random.Random(21)
    m = rnd_mat(rng, 2, 3)
    assert mat_from_json(mat_to_json(m)) == m
