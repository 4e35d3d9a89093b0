import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from g9cov import linalg
from g9cov.group import standard_generators
from g9cov.linalg import (CERTIFICATE_PRIMES, ELIMINATION_PRIMES, _certify, _nullspace_mod,
                          _reconstruct, certified_nullspace)
from oracles import (I_UNIT, ONE, ZERO, CycNum, Mat, ShapeError, SingularMatrixError, _is_prime,
                     _primes_1_mod_8, as_fractions, element_mat, int_rows, kron, mat_from_json,
                     mat_pow, mat_to_json, nullspace_from_rref, rational, rref, solve_exact)


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


def q_rows(rows, ncols):
    """Integer rows as the (nrows, ncols) matrix certified_nullspace takes."""
    return np.array(rows, dtype=object).reshape(len(rows), ncols)


def solved(rows, ncols, counters=None):
    """certified_nullspace as Fraction vectors, after checking its (nums, dens) form."""
    nums, dens = certified_nullspace(rows, ncols, counters)
    assert nums.shape == (len(dens), ncols) and all(den > 0 for den in dens)
    assert all(type(x) is int for x in nums.flat) and all(type(x) is int for x in dens)
    return as_fractions(nums, dens)


def test_nullspace_examples():
    assert solved(q_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3), 3) == []
    assert solved(q_rows([[0, 0], [0, 0]], 2), 2) == [[ONE, ZERO], [ZERO, ONE]]
    assert solved(q_rows([], 2), 2) == [[ONE, ZERO], [ZERO, ONE]]
    # hand elimination of [[1,1],[1,1]]: one free column, vector (-1, 1)
    assert solved(q_rows([[1, 1], [1, 1]], 2), 2) == [[CycNum(-1), ONE]]
    # one free column right of a fractional pivot: (-1/3, 1)
    assert solved(q_rows([[3, 1]], 2), 2) == [[CycNum(Fraction(-1, 3)), ONE]]
    # int64 rows give the same basis as Python ints: numerators (-1, 3) over 3
    nums, dens = certified_nullspace(np.array([[3, 1]], dtype=np.int64), 2)
    assert (nums.tolist(), dens) == ([[-1, 3]], [3])


def test_nullspace_exactness_and_rank():
    rng = random.Random(9)
    for _ in range(20):
        ints = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(3)]
        rows = cyc_rows(ints)
        basis = solved(q_rows(ints, 5), 5)
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


def test_certified_nullspace_matches_rref_on_rational_rows(monkeypatch):
    # dependent rows with fractional entries, each scaled to integers by its
    # least common denominator: low rank, many free columns; then an
    # all-zero matrix, one with no rows, zero rows interleaved with nonzero
    # ones, and Python-int rows with entries past 2^63
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
        systems.append(int_rows(rows)[..., 0])
    big = 2 ** 64 + 13
    systems += [np.zeros((3, 4), dtype=np.int64), np.zeros((0, 3), dtype=np.int64),
                np.array([[0, 0, 0, 0], [0, 2, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0],
                          [1, 1, 3, 0], [0, 0, 0, 0], [1, 3, 3, 1]], dtype=np.int64),
                np.array([[big, 3 * big + 1, 5, 0], [0, 0, 0, 0],
                          [2 * big, 6 * big + 2, 10, 0], [1, -big, 0, 2 ** 70]], dtype=object)]
    counters = Counter()
    for rows in systems:
        ncols = rows.shape[1]
        assert solved(rows, ncols, counters) == \
            oracle_nullspace([[rational(x) for x in r] for r in rows.tolist()], ncols)
        # with no elimination primes the exact fallback gives the same bytes;
        # a zero matrix needs no elimination at all
        with monkeypatch.context() as m:
            m.setattr(linalg, "ELIMINATION_PRIMES", ())
            forced = Counter()
            nums, dens = certified_nullspace(rows, ncols, forced)
        want = certified_nullspace(rows, ncols)
        assert (nums.tolist(), dens) == (want[0].tolist(), want[1])
        assert all(type(x) is int for x in nums.flat) and all(den > 0 for den in dens)
        assert forced["fallbacks"] == (1 if rows.any() else 0) and not forced["primes"]
    assert counters["fallbacks"] == 0 and counters["primes_rejected"] == 0


def test_prime_tables():
    # the literal tables are the largest primes = 1 (mod 8) below their bounds
    assert ELIMINATION_PRIMES == _primes_1_mod_8(2 ** 31, 48)
    assert CERTIFICATE_PRIMES == _primes_1_mod_8(2 ** 26, 64)
    for table, below in ((ELIMINATION_PRIMES, 2 ** 31), (CERTIFICATE_PRIMES, 2 ** 26)):
        assert list(table) == sorted(set(table), reverse=True) and table[0] < below
        for p in table[:3] + table[-2:]:
            assert p % 8 == 1 and all(p % q for q in range(3, isqrt(p) + 1, 2)), p
    # includes the Carmichael numbers and base-2 strong pseudoprimes below 5000
    assert [n for n in range(9, 5000, 2) if _is_prime(n)] == \
        [n for n in range(9, 5000, 2) if all(n % q for q in range(3, isqrt(n) + 1, 2))]


def test_certificate_product_does_not_wrap():
    # row (-1, ..., -1, -(n - 1)) and vector (-1, ..., -1, 1) / 1: modulo the
    # largest certificate prime q every residue but two is q - 1, so the
    # int64 product of residues sums n - 1 terms (q - 1)^2.  For n = 2048
    # that is just below 2^63 and the vector is certified, while the same
    # vector off by one is not; for n = 2049 it could wrap and is refused
    q = CERTIFICATE_PRIMES[0]
    assert 2048 * (q - 1) ** 2 < 2 ** 63 <= 2049 * (q - 1) ** 2
    for n in (2048, 2049):
        rows = np.full((1, n), -1, dtype=np.int64)
        rows[0, -1] = -(n - 1)
        vecs = np.full((1, n), -1, dtype=object)
        vecs[0, -1] = 1
        bad = vecs.copy()
        bad[0, 0] = -2
        if n == 2048:
            counters = Counter()
            assert _certify(rows, n - 1, vecs, [1], [n - 1], counters)
            assert counters["certificate_primes"] == 1
            assert not _certify(rows, n - 1, bad, [1], [n - 1], Counter())
        else:
            with pytest.raises(ValueError, match=f"2049 columns: an int64 product mod {q}"):
                _certify(rows, n - 1, vecs, [1], [n - 1], Counter())


def test_rank_drop_at_a_prime_is_rejected():
    # [[1, 1], [1, 1 + p]] has rank 2 but rank 1 modulo p: the kernel vector
    # (-1, 1) read off at p must not survive, the next prime supersedes it
    p = ELIMINATION_PRIMES[0]
    counters = Counter()
    assert solved(q_rows([[1, 1], [1, 1 + p]], 2), 2, counters) == []
    assert counters["primes"] == 2 and counters["primes_rejected"] == 1
    assert counters["fallbacks"] == 0


def test_pivot_shift_at_a_prime_is_rejected():
    # [[p, 1]]: modulo p the pivot moves from column 0 to column 1 at equal rank
    p = ELIMINATION_PRIMES[0]
    counters = Counter()
    assert solved(q_rows([[p, 1]], 2), 2, counters) == [[CycNum(Fraction(-1, p)), ONE]]
    assert counters["primes_rejected"] == 1 and counters["fallbacks"] == 0


def test_rank_drop_at_a_later_column_is_rejected():
    # [[1, 1, 1], [1, 1, 1 + p]] pivots at column 0 and, over Q, at column 2;
    # modulo p it has no second pivot, so p's nullspace (two free columns)
    # must give way to the next prime's (one free column)
    p = ELIMINATION_PRIMES[0]
    ints = [[1, 1, 1], [1, 1, 1 + p]]
    assert _nullspace_mod(q_rows(ints, 3), p)[0] == [0]
    counters = Counter()
    assert solved(q_rows(ints, 3), 3, counters) == oracle_nullspace(cyc_rows(ints), 3)
    assert counters["primes"] == 2 and counters["primes_rejected"] == 1
    assert counters["fallbacks"] == 0


def test_later_pivots_at_a_later_prime_are_rejected(monkeypatch):
    # [[a, b]] with a, b near 2^40: (-b/a, 1) needs three primes to
    # reconstruct.  The second prime is made to report the same rank with a
    # later pivot, column 1 for column 0: its residues must not be combined,
    # the prime is counted as rejected, and the basis is still rref's
    a, b = 2 ** 40 + 15, 2 ** 40 - 3
    honest, seen = linalg._nullspace_mod, []

    def shifted(rows, p):
        seen.append(p)
        if len(seen) == 2:
            return [1], np.array([[1, 0]], dtype=np.int64)
        return honest(rows, p)

    monkeypatch.setattr(linalg, "_nullspace_mod", shifted)
    counters = Counter()
    nums, dens = certified_nullspace(q_rows([[a, b]], 2), 2, counters)
    assert as_fractions(nums, dens) == oracle_nullspace(cyc_rows([[a, b]]), 2)
    assert (nums.tolist(), dens) == ([[-b, a]], [a])
    assert counters["primes_rejected"] == 1 and counters["fallbacks"] == 0
    assert counters["primes"] == len(seen) > 3


def test_certificate_bound_is_not_int64(monkeypatch):
    # an int64 system with entries near 2^40 and a basis vector (-b, a) / a:
    # ncols * max|B| * max|V| is about 2^81, past int64.  A pivot entry
    # shifted by the product of the first three certificate primes vanishes
    # modulo each of them; only a bound computed without wrapping asks for
    # the fourth, which sees it.  certified_nullspace hands _certify max|B|
    # of the int64 rows as a Python int
    a, b = 2 ** 40 + 15, 2 ** 40 - 3
    rows = np.array([[a, b], [2 * a, 2 * b]], dtype=np.int64)
    vecs = np.array([[-b, a]], dtype=object)
    counters = Counter()
    assert 2 * a * a > 2 ** 63 and _certify(rows, 2 * a, vecs, [a], [1], counters)
    assert counters["certificate_primes"] == 4
    shift = CERTIFICATE_PRIMES[0] * CERTIFICATE_PRIMES[1] * CERTIFICATE_PRIMES[2]
    bad = vecs.copy()
    bad[0, 0] += shift
    counters = Counter()
    assert not _certify(rows, 2 * a, bad, [a], [1], counters)
    assert counters["certificate_primes"] == 4
    seen = []

    def spy(rows, max_abs, *args):
        seen.append(max_abs)
        return _certify(rows, max_abs, *args)

    monkeypatch.setattr(linalg, "_certify", spy)
    nums, dens = certified_nullspace(rows, 2)
    assert (nums.tolist(), dens) == ([[-b, a]], [a])
    assert seen and all(type(m) is int and m == 2 * a for m in seen)


def test_certificate_rejects_when_primes_run_out():
    # (-1, 1) / 1 spans the nullspace of [[1, 1]]; scaled by 2^1700 in
    # numerators and denominator alike it is the same vector, but its bound
    # exceeds the product of all 64 certificate primes (about 2^1664), so
    # the certificate cannot close and must say so
    system = np.array([[1, 1]], dtype=np.int64)
    counters = Counter()
    assert _certify(system, 1, np.array([[-1, 1]], dtype=object), [1], [1], counters)
    k = 2 ** 1700
    counters = Counter()
    assert not _certify(system, 1, np.array([[-k, k]], dtype=object), [k], [1], counters)
    assert counters["certificate_primes"] == len(CERTIFICATE_PRIMES)


def test_reconstruction_rejects_numerators_past_the_limit():
    # modulo two elimination primes, 2^41 is a small integer at the running
    # denominator 1, but the next coordinate, 1/2^10, raises the denominator
    # to 2^10 and pushes the first numerator to 2^51, past m >> 20 (about
    # 2^42): the vector must be rejected, not returned
    m = ELIMINATION_PRIMES[0] * ELIMINATION_PRIMES[1]
    assert 2 ** 41 <= m >> 20 < 2 ** 51
    residues = np.array([[2 ** 41, pow(2 ** 10, -1, m)]], dtype=object)
    assert _reconstruct(residues, m) is None
    nums, dens = _reconstruct(np.array([[2 ** 30, pow(2 ** 10, -1, m)]], dtype=object), m)
    assert (nums.tolist(), dens) == ([[2 ** 40, 1]], [2 ** 10])


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
