import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from g9cov.cyclo import CycNum, I_UNIT, ONE, ZERO, rational
from g9cov.group import standard_generators
from g9cov.linalg import (CERTIFICATE_PRIMES, ELIMINATION_PRIMES, Mat, ShapeError,
                          SingularMatrixError, _IntRows, _certify, _dot_mod, _nullspace_mod,
                          certified_nullspace, int_encoding, kron, mat_to_json,
                          nullspace_from_rref, rref, solve_exact)
from oracles import _is_prime, _primes_1_mod_8, int_rows, mat_from_json, mat_pow


def rnd_mat(rng, n, m=None, span=3):
    m = n if m is None else m
    return Mat(n, m, [CycNum(*[Fraction(rng.randint(-span, span), rng.randint(1, 3))
                               for _ in range(4)]) for _ in range(n * m)])


def test_generator_relations():
    t, d = standard_generators()
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


def test_nullspace_examples():
    assert certified_nullspace(q_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3), 3) == []
    assert certified_nullspace(q_rows([[0, 0], [0, 0]], 2), 2) == [[ONE, ZERO], [ZERO, ONE]]
    assert certified_nullspace(q_rows([], 2), 2) == [[ONE, ZERO], [ZERO, ONE]]
    # hand elimination of [[1,1],[1,1]]: one free column, vector (-1, 1)
    assert certified_nullspace(q_rows([[1, 1], [1, 1]], 2), 2) == [[CycNum(-1), ONE]]
    # one free column right of a fractional pivot: (-1/3, 1)
    assert certified_nullspace(q_rows([[3, 1]], 2), 2) == [[CycNum(Fraction(-1, 3)), ONE]]
    # int64 rows give the same basis as Python ints
    assert certified_nullspace(np.array([[3, 1]], dtype=np.int64), 2) == \
        [[CycNum(Fraction(-1, 3)), ONE]]


def test_nullspace_exactness_and_rank():
    rng = random.Random(9)
    for _ in range(20):
        ints = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(3)]
        rows = cyc_rows(ints)
        basis = certified_nullspace(q_rows(ints, 5), 5)
        assert basis == oracle_nullspace(rows, 5)
        m = Mat.from_rows(rows)
        for v in basis:
            assert all(e.is_zero() for e in m.matmul(Mat.column(v)).entries)
        assert len(rref([list(v) for v in basis])[1]) == len(basis)   # independent


def test_certified_nullspace_matches_rref_on_rational_rows():
    # dependent rows with fractional entries, each scaled to integers by its
    # least common denominator: low rank, many free columns
    rng = random.Random(33)
    counters = Counter()
    for _ in range(15):
        ncols = rng.randint(2, 9)
        base = [[rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 if rng.random() < 0.6 else ZERO for _ in range(ncols)]
                for _ in range(rng.randint(1, 4))]
        rows = base + [[sum((rng.randint(-3, 3) * r[c] for r in base), ZERO)
                        for c in range(ncols)] for _ in range(3)]
        rng.shuffle(rows)
        assert certified_nullspace(int_rows(rows)[..., 0], ncols, counters) == \
            oracle_nullspace(rows, ncols)
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


def test_dot_mod_no_overflow():
    # signed operands at an elimination prime; entries near a certificate
    # prime, summed over more than one inner block
    rng = np.random.default_rng(1)
    p, q = ELIMINATION_PRIMES[0], CERTIFICATE_PRIMES[0]
    cases = [(p, rng.integers(0, p, (3, 40)), rng.integers(-p + 1, p, (40, 2))),
             (q, rng.integers(q - 50, q, (3, 5000)), rng.integers(q - 50, q, (5000, 2)))]
    for p, a, b in cases:
        want = (a.astype(object) @ b.astype(object)) % p
        got = _dot_mod(a, b, p)
        assert got.shape == want.shape and (got == want).all()


def test_int_encoding_round_trip():
    rng = random.Random(4)
    groups = [[CycNum(*[Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(4)])
               if rng.random() < 0.7 else ZERO for _ in range(5)] for _ in range(6)]
    nums, dens, max_abs = int_encoding(groups)
    assert nums.shape == (6, 5, 4)
    for g, entries in enumerate(groups):
        for e, x in enumerate(entries):
            assert CycNum(*[Fraction(int(n), int(dens[g])) for n in nums[g, e]]) == x
    assert max_abs == max([abs(n) for n in nums.flat] + list(dens))


def test_rank_drop_at_a_prime_is_rejected():
    # [[1, 1], [1, 1 + p]] has rank 2 but rank 1 modulo p: the kernel vector
    # (-1, 1) read off at p must not survive, the next prime supersedes it
    p = ELIMINATION_PRIMES[0]
    counters = Counter()
    assert certified_nullspace(q_rows([[1, 1], [1, 1 + p]], 2), 2, counters) == []
    assert counters["primes"] == 2 and counters["primes_rejected"] == 1
    assert counters["fallbacks"] == 0


def test_pivot_shift_at_a_prime_is_rejected():
    # [[p, 1]]: modulo p the pivot moves from column 0 to column 1 at equal rank
    p = ELIMINATION_PRIMES[0]
    counters = Counter()
    assert certified_nullspace(q_rows([[p, 1]], 2), 2, counters) == \
        [[CycNum(Fraction(-1, p)), ONE]]
    assert counters["primes_rejected"] == 1 and counters["fallbacks"] == 0


def test_rank_drop_at_a_later_column_is_rejected():
    # [[1, 1, 1], [1, 1, 1 + p]] pivots at column 0 and, over Q, at column 2;
    # modulo p it has no second pivot, so p's nullspace (two free columns)
    # must give way to the next prime's (one free column)
    p = ELIMINATION_PRIMES[0]
    ints = [[1, 1, 1], [1, 1, 1 + p]]
    assert _nullspace_mod(_IntRows(q_rows(ints, 3)), p)[0] == [0]
    counters = Counter()
    assert certified_nullspace(q_rows(ints, 3), 3, counters) == \
        oracle_nullspace(cyc_rows(ints), 3)
    assert counters["primes"] == 2 and counters["primes_rejected"] == 1
    assert counters["fallbacks"] == 0


def test_certificate_bound_is_not_int64():
    # an int64 system with entries near 2^40 and a basis vector (-b, a) / a:
    # ncols * max|B| * max|V| is about 2^81, past int64.  A pivot entry
    # shifted by the product of the first three certificate primes vanishes
    # modulo each of them; only a bound computed without wrapping asks for
    # the fourth, which sees it
    a, b = 2 ** 40 + 15, 2 ** 40 - 3
    rows = np.array([[a, b], [2 * a, 2 * b]], dtype=np.int64)
    system = _IntRows(rows)
    vecs = np.array([[-b, a]], dtype=object)
    counters = Counter()
    assert 2 * a * a > 2 ** 63 and _certify(system, vecs, [a], [1], counters)
    assert counters["certificate_primes"] == 4
    shift = CERTIFICATE_PRIMES[0] * CERTIFICATE_PRIMES[1] * CERTIFICATE_PRIMES[2]
    bad = vecs.copy()
    bad[0, 0] += shift
    counters = Counter()
    assert not _certify(system, bad, [a], [1], counters)
    assert counters["certificate_primes"] == 4
    assert certified_nullspace(rows, 2) == [[CycNum(Fraction(-b, a)), ONE]]


def test_kron_reference_values():
    t, d = standard_generators()
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
    t, _ = standard_generators()
    x = solve_exact(t, Mat.identity(2))
    assert t.matmul(x) == Mat.identity(2)
    with pytest.raises(ValueError):
        solve_exact(Mat.column([1, 0]), Mat.column([0, 1]))
    with pytest.raises(SingularMatrixError):
        solve_exact(Mat.from_rows([[1, 1], [1, 1]]), Mat.identity(2))


def test_json_round_trip():
    rng = random.Random(21)
    m = rnd_mat(rng, 2, 3)
    assert mat_from_json(mat_to_json(m)) == m
