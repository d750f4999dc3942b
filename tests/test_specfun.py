"""Quadrature rules, Gamma function, and shifted-monomial algebra."""

import math

import numpy as np
import pytest

from ddgfrac.specfun import (
    QuadRule,
    gamma_fn,
    gauss_jacobi,
    gauss_legendre,
    polynomial_in_shifted_basis,
)

# oracle values computed with mpmath at 40 digits
GAMMA_79 = 4122.7094842854417122
JACOBI_T3_MU04 = 1.1365509315480811836  # int (1-t)^(mu-1) t^3 dt, mu = 0.4


def test_gamma_integer_and_half():
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-15)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_gamma_oracle_value():
    assert gamma_fn(7.9) == pytest.approx(GAMMA_79, rel=1e-13)


def test_gamma_domain_error():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            gamma_fn(bad)


def test_gamma_recurrence_property():
    for x in np.linspace(0.1, 10.0, 34):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


def test_gauss_legendre_small_rules():
    r1 = gauss_legendre(1)
    assert r1.nodes == pytest.approx([0.0], abs=1e-15)
    assert r1.weights == pytest.approx([2.0], rel=1e-15)
    r2 = gauss_legendre(2)
    assert r2.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-15)
    assert r2.weights == pytest.approx([1.0, 1.0], rel=1e-15)


def test_gauss_legendre_exactness_x8():
    rule = gauss_legendre(5)
    got = rule.weights @ rule.nodes**8
    assert got == pytest.approx(2.0 / 9.0, abs=1e-14)


def test_gauss_legendre_range_errors():
    for n in (0, -1, 65):
        with pytest.raises(ValueError):
            gauss_legendre(n)


def test_gauss_jacobi_zero_exponents_is_legendre():
    gj = gauss_jacobi(1, 0.0, 0.0)
    gl = gauss_legendre(1)
    assert gj.nodes == pytest.approx(gl.nodes, abs=1e-15)
    assert gj.weights == pytest.approx(gl.weights, rel=1e-14)


def test_gauss_jacobi_singular_moment():
    rule = gauss_jacobi(4, -0.5, 0.0)
    assert rule.weights.sum() == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)


def test_gauss_jacobi_oracle_t3():
    rule = gauss_jacobi(6, 0.4 - 1.0, 0.0)
    assert rule.weights @ rule.nodes**3 == pytest.approx(JACOBI_T3_MU04, rel=1e-12)


def test_gauss_jacobi_exponent_errors():
    with pytest.raises(ValueError):
        gauss_jacobi(4, -1.0, 0.0)
    with pytest.raises(ValueError):
        gauss_jacobi(4, 0.0, -1.5)


@pytest.mark.parametrize("kind,a,b", [("legendre", None, None),
                                      ("jacobi", -0.5, 0.0),
                                      ("jacobi", 0.25, 0.75)])
def test_quadrature_moment_exactness(kind, a, b):
    # every rule integrates its weighted monomials up to degree 2n-1
    for n in (1, 2, 4, 8):
        if kind == "legendre":
            rule = gauss_legendre(n)
            moments = [2.0 / (p + 1) if p % 2 == 0 else 0.0 for p in range(2 * n)]
        else:
            rule = gauss_jacobi(n, a, b)
            # moments of (1-t)^a (1+t)^b t^p via recursive exact quadrature
            big = gauss_jacobi(40, a, b)
            moments = [big.weights @ big.nodes**p for p in range(2 * n)]
        for p in range(2 * n):
            got = rule.weights @ rule.nodes**p
            assert got == pytest.approx(moments[p], abs=1e-12 * max(1, abs(moments[p])))


def test_jacobi_weight_mass_matches_rule():
    for a, b in ((-0.5, 0.0), (0.3, -0.2), (1.0, 2.0)):
        rule = gauss_jacobi(10, a, b)
        # the weight's mass is a Beta-function value
        mass = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) \
            / math.gamma(a + b + 2.0)
        assert rule.weights.sum() == pytest.approx(mass, rel=1e-12)


def test_quadrule_invariants():
    with pytest.raises(ValueError):
        QuadRule(np.array([0.5, -0.5]), np.array([1.0, 1.0]))  # not increasing
    with pytest.raises(ValueError):
        QuadRule(np.array([-0.5, 0.5]), np.array([1.0, -1.0]))  # negative weight
    with pytest.raises(ValueError):
        QuadRule(np.array([-2.0, 0.5]), np.array([1.0, 1.0]))  # outside [-1,1]


def test_shift_x_squared():
    out = polynomial_in_shifted_basis([0.0, 0.0, 1.0], 1.0, 1.0)
    assert out == pytest.approx([1.0, 2.0, 1.0], abs=1e-15)


def test_shift_constant_invariant():
    for c in (-3.0, 0.0, 7.5):
        out = polynomial_in_shifted_basis([4.2], 1.0, (c + 13.7) - c)
        assert out == pytest.approx([4.2], abs=1e-15)


def test_shift_round_trip():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(6)
    there = polynomial_in_shifted_basis(coeffs, 1.0, -1.9 - 0.3)
    back = polynomial_in_shifted_basis(there, 1.0, 0.3 - (-1.9))
    assert back == pytest.approx(coeffs, abs=1e-13)
