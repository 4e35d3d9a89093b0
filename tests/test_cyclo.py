import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g9cov import group
from g9cov.cyclo import parse_zeta, render_zeta, to_json
from g9cov.reps import DEN
from oracles import (CycNum, HALF_SQRT2, I_UNIT, ONE, SQRT2, Z, ZERO, approx, as_fraction,
                     cyc_from_json, is_rational)


def rnd(rng, span=9):
    return CycNum(*[Fraction(rng.randint(-span, span), rng.randint(1, 7))
                    for _ in range(4)])


def test_add_examples():
    assert Z + (-Z) == ZERO
    assert CycNum(1) + I_UNIT == CycNum(1, 0, 1, 0)
    assert HALF_SQRT2 + HALF_SQRT2 == SQRT2


def test_mul_examples():
    assert Z * CycNum.zeta(3) == CycNum(-1)
    assert SQRT2 * SQRT2 == CycNum(2)
    assert I_UNIT * I_UNIT == CycNum(-1)


def test_inverse_examples():
    assert Z.inverse() == -CycNum.zeta(3)
    assert CycNum(2).inverse() == CycNum(Fraction(1, 2))
    assert SQRT2.inverse() == HALF_SQRT2
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conj_examples():
    assert I_UNIT.conj() == -I_UNIT
    assert ONE.conj() == ONE
    assert SQRT2.conj() == SQRT2
    rng = random.Random(7)
    for _ in range(50):
        a = rnd(rng)
        assert a.conj().conj() == a


def test_approx_examples():
    assert abs(approx(I_UNIT) - 1j) < 1e-12
    assert abs(approx(SQRT2) - 2 ** 0.5) < 1e-12
    assert approx(ZERO) == 0
    assert approx(3) == 3 and approx(Fraction(-1, 2)) == -0.5


def test_ring_axioms_sampled():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = rnd(rng), rnd(rng), rnd(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c


def test_conj_is_ring_automorphism():
    rng = random.Random(13)
    for _ in range(200):
        a, b = rnd(rng), rnd(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_inverse_is_exact():
    rng = random.Random(17)
    for _ in range(200):
        a = rnd(rng)
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_approx_multiplicative_within_tolerance():
    rng = random.Random(19)
    for _ in range(200):
        a = rnd(rng, span=1000)
        b = rnd(rng, span=1000)
        assert abs(approx(a * b) - approx(a) * approx(b)) < 1e-9 * (
            1 + abs(approx(a)) * abs(approx(b)))


def test_powers_of_zeta():
    assert CycNum.zeta(4) == CycNum(-1)
    assert CycNum.zeta(8) == ONE
    assert CycNum.zeta(-1) == CycNum.zeta(7)
    assert Z ** 4 == CycNum(-1)
    assert Z ** -1 == Z.inverse()


def test_canonical_form_and_hash():
    a = CycNum(Fraction(2, 4), Fraction(-6, 4))
    b = CycNum(Fraction(1, 2), Fraction(-3, 2))
    assert a == b and hash(a) == hash(b)
    assert hash(CycNum(1)) == hash(1) and {1: "one"}.get(CycNum(1)) == "one"
    assert a.coeffs == (Fraction(1, 2), Fraction(-3, 2), Fraction(0), Fraction(0))


def test_constructor_honours_den():
    assert CycNum(1, 0, 0, 0, den=2) == Fraction(1, 2)
    assert CycNum(2, 4, 0, 6, den=-4) == CycNum(Fraction(-1, 2), -1, 0, Fraction(-3, 2))
    assert CycNum(Fraction(1, 3), den=Fraction(2, 3)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        CycNum(1, den=0)


fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50)
cyc_values = st.tuples(fractions, fractions, fractions, fractions).map(
    lambda parts: CycNum(*parts))
# one value in several types: ints and Fractions, as themselves and as CycNum
any_value = st.one_of(st.integers(-10**6, 10**6), fractions, cyc_values,
                      fractions.map(CycNum), st.integers(-10**6, 10**6).map(CycNum))


@given(any_value, any_value)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


@given(fractions)
def test_rational_cycnum_is_interchangeable_dict_key(q):
    v = CycNum(q)
    assert v == q and hash(v) == hash(q)
    assert {q: "x"}.get(v) == "x" and {v: "x"}.get(q) == "x"
    if q.denominator == 1:
        assert {int(q): "x"}.get(v) == "x"


@given(cyc_values)
def test_truthiness_is_nonzero(x):
    assert bool(x) == (not x.is_zero())
    assert not ZERO and not CycNum(0, den=5) and ONE and Z


@given(cyc_values)
def test_hash_follows_canonical_form(a):
    # the same value reached by arithmetic hashes the same
    b = (a + ONE) - ONE
    c = (a * Z) * Z.inverse()
    assert a == b == c and hash(a) == hash(b) == hash(c)


@given(st.tuples(*[st.integers(-10**6, 10**6)] * 4),
       st.integers(-10**6, 10**6).filter(bool))
def test_constructor_den_matches_make(nums, den):
    assert CycNum(*nums, den=den) == CycNum._make(nums, den)


def test_json_round_trip():
    rng = random.Random(23)
    for _ in range(30):
        a = rnd(rng)
        assert cyc_from_json(a.to_json()) == a
    assert ONE.to_json() == ["1/1", "0/1", "0/1", "0/1"]


def test_render_and_parse():
    for s in ["0", "1", "-1", "2z", "-2z^3", "z^2+1", "-z^3-z", "z^3-z", "-z^2+1"]:
        assert render_zeta(parse_zeta(s), 1) == s
    assert render_zeta((1, 0, 0, 0), 2) == "1/2"
    assert render_zeta((0, 3, 0, 0), -6) == "-(1/2)z"
    assert parse_zeta("z^2 + 1") == (1, 0, 1, 0)
    assert parse_zeta("z^4 + 3z^9 - z^15") == (-1, 3, 0, 1)
    assert to_json((2, 0, -4, 6), -4) == ["-1/2", "0/2", "2/2", "-3/2"]


@pytest.mark.parametrize("text", ["", " ", "z^", "2x", "^2", "1/2", "z^-1", "zz", "2z^2^3",
                                  "i", "(1/2)z", "+", "-", "1+", "1--2"])
def test_malformed_literals_raise(text):
    with pytest.raises(ValueError, match="cyclotomic"):
        parse_zeta(text)


small_or_large = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))
coords = st.tuples(*[small_or_large] * 4)
# the denominator times a common factor of all five, so that non-reduced
# and negative denominators are drawn often
scaled = st.builds(lambda nums, den, k: (tuple(k * n for n in nums), k * den),
                   coords, st.one_of(st.integers(1, 12), st.integers(1, 10**6)),
                   st.integers(-12, 12).filter(bool))


@given(scaled)
def test_text_forms_equal_the_oracle(x):
    nums, den = x
    want = CycNum._make(nums, den)
    assert render_zeta(nums, den) == str(want)
    assert to_json(nums, den) == want.to_json()
    assert cyc_from_json(to_json(nums, den)) == want


@given(coords)
def test_parse_inverts_render(nums):
    assert parse_zeta(render_zeta(nums, 1)) == nums


def test_text_forms_on_characters_and_group_elements(sess):
    # the 1024 character values over reps.DEN and the 192 x 4 element entries
    # over group.DEN, as the chartable and group --format json commands see them
    values = [(t, DEN) for row in sess.traces for t in row]
    values += [(c, group.DEN) for e in sess.table.elements for row in e.coords for c in row]
    assert len(values) == 1024 + 192 * 4
    for nums, den in values:
        want = CycNum._make(tuple(int(n) for n in nums), den)
        assert render_zeta(nums, den) == str(want) and to_json(nums, den) == want.to_json()
    for t in (t for row in sess.traces for t in row):
        assert tuple(DEN * x for x in parse_zeta(render_zeta(t, DEN))) == t


def test_rational_predicates():
    assert is_rational(CycNum(3)) and as_fraction(CycNum(3)) == 3
    assert not is_rational(Z)
    with pytest.raises(ValueError):
        as_fraction(Z)
