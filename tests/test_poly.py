import random

import pytest
from hypothesis import example, given, settings, strategies as st

from g9cov.group import standard_generators
from g9cov.poly import BiPoly, VecPoly, fundamental_invariants
from oracles import (I_UNIT, CycNum, Mat, approx, coeff_vector, element_mat, mat_apply,
                     parse_poly_text, vec_substitute)

GAMMA, THETA, DELTA, PHI = fundamental_invariants()


def rnd_poly(rng, max_exp=4, terms=4):
    return BiPoly({(rng.randint(0, max_exp), rng.randint(0, max_exp)):
                   rng.randint(-5, 5) for _ in range(terms)})


def test_invariant_literals():
    assert [p.degree() for p in (GAMMA, THETA, DELTA, PHI)] == [6, 8, 12, 24]
    assert THETA.coeff(4, 4) == CycNum(14)
    assert DELTA.coeff(8, 4) == CycNum(-33)
    assert PHI.coeff(12, 12) == CycNum(2576)
    assert GAMMA.to_text() == "-x^5*y + x*y^5"


def test_inexact_coefficients_raise():
    with pytest.raises(TypeError):
        BiPoly({(0, 0): 0.5})
    with pytest.raises(TypeError):
        THETA.scale(0.5)


def test_phi_identity():
    assert (PHI - (DELTA * DELTA + (GAMMA ** 4).scale(66))).is_zero()


def test_substitute_examples():
    t, d = map(element_mat, standard_generators())
    assert THETA.substitute(t) == THETA
    assert GAMMA.substitute(d) == GAMMA.scale(I_UNIT)
    assert THETA.substitute(Mat.identity(2)) == THETA


def test_substitute_numeric_oracle():
    # float evaluation of f(gv) must agree with substitute(f, g) evaluated at v
    rng = random.Random(41)
    t, d = map(element_mat, standard_generators())
    td = t.matmul(d)

    def fval(p, x, y):
        return sum(approx(c) * x ** a * y ** b for (a, b), c in p.terms.items())

    for g in (t, d, td):
        ga = [[approx(g.at(i, j)) for j in range(2)] for i in range(2)]
        for _ in range(20):
            f = rnd_poly(rng)
            x = rng.uniform(-1, 1)
            y = rng.uniform(-1, 1)
            gx = ga[0][0] * x + ga[0][1] * y
            gy = ga[1][0] * x + ga[1][1] * y
            assert abs(fval(f.substitute(g), x, y) - fval(f, gx, gy)) < 1e-9


def test_substitution_is_ring_homomorphism():
    rng = random.Random(43)
    t, d = map(element_mat, standard_generators())
    for _ in range(30):
        f, g = rnd_poly(rng), rnd_poly(rng)
        for a in (t, d):
            assert (f + g).substitute(a) == f.substitute(a) + g.substitute(a)
            assert (f * g).substitute(a) == f.substitute(a) * g.substitute(a)


def test_substitution_composition():
    # with the action f |-> f(g x), composing substitutions follows the
    # matrix product: f((g h) x) expands as substitute(substitute(f, g), h)
    rng = random.Random(47)
    t, d = map(element_mat, standard_generators())
    gens = [t, d, t.matmul(d)]
    for _ in range(20):
        f = rnd_poly(rng)
        for a in gens:
            for b in gens:
                assert f.substitute(a.matmul(b)) == f.substitute(a).substitute(b)


def test_tau():
    assert GAMMA.tau() == -GAMMA
    assert THETA.tau() == THETA
    rng = random.Random(53)
    for _ in range(30):
        f, g = rnd_poly(rng), rnd_poly(rng)
        assert f.tau().tau() == f
        assert (f * g).tau() == f.tau() * g.tau()


# int and Fraction coefficients, a few terms of degree at most 4 in x and in y
coeffs = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7))
polys = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs,
                        max_size=5).map(BiPoly)
bounded = settings(max_examples=50, deadline=None)


@bounded
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    zero, one = BiPoly(), BiPoly.constant(1)
    assert (f + g) + h == f + (g + h) and f + g == g + f
    assert f + zero == f and (f + (-f)).is_zero() and f - g == f + (-g)
    assert (f * g) * h == f * (g * h) and f * g == g * f
    assert f * one == f and (f * zero).is_zero()
    assert f * (g + h) == f * g + f * h


@bounded
@given(polys, polys)
def test_tau_is_an_involutive_ring_automorphism(f, g):
    assert f.tau().tau() == f
    assert (f + g).tau() == f.tau() + g.tau()
    assert (f * g).tau() == f.tau() * g.tau()
    assert BiPoly.constant(1).tau() == BiPoly.constant(1)


def test_theta_phi_fixed_by_whole_group(table):
    for e in table.elements:
        assert THETA.substitute(element_mat(e.coords)) == THETA
        assert PHI.substitute(element_mat(e.coords)) == PHI


def test_vecpoly_basics():
    x, y = BiPoly({(1, 0): 1}), BiPoly({(0, 1): 1})
    v = VecPoly([x, y])
    assert v.degree == 1 and len(v.components) == 2
    w = v.mul_poly(THETA)
    assert w.degree == 9
    t = element_mat(standard_generators()[0])
    assert vec_substitute(v, t) == mat_apply(v, t)  # the defining covariant identity
    with pytest.raises(ValueError):
        VecPoly([x, THETA])
    coords = [(0, 1), (0, 0), (1, 1), (1, 0)]
    assert coeff_vector(v, coords) == [CycNum(1), CycNum(0), CycNum(0), CycNum(1)]
    assert VecPoly.from_coeffs(coords, coeff_vector(v, coords), 2, 1) == v


def test_poly_text_form():
    assert DELTA.to_text() == "x^12 - 33*x^8*y^4 - 33*x^4*y^8 + y^12"
    p = BiPoly({(2, 3): CycNum(1, 0, 1, 0)})
    assert p.to_text() == "(z^2+1)*x^2*y^3"


# homogeneous of degree at most 12, int and Fraction coefficients of several digits
wide_coeffs = st.one_of(st.integers(-10**6, 10**6),
                        st.fractions(-10**3, 10**3, max_denominator=10**3))
homogeneous = st.integers(0, 12).flatmap(lambda d: st.dictionaries(
    st.integers(0, d).map(lambda a: (a, d - a)), wide_coeffs, max_size=d + 1)).map(BiPoly)


@bounded
@given(homogeneous)
@example(BiPoly())
@example(DELTA)
def test_poly_text_form_round_trips(p):
    assert parse_poly_text(p.to_text()) == p
