"""Quadrature rules, Gamma function, and shifted-monomial algebra."""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from ddgfrac import fracops, meshbasis, models, specfun
from ddgfrac.specfun import (
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
    x1, w1 = gauss_legendre(1)
    assert x1 == pytest.approx([0.0], abs=1e-15)
    assert w1 == pytest.approx([2.0], rel=1e-15)
    x2, w2 = gauss_legendre(2)
    assert x2 == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-15)
    assert w2 == pytest.approx([1.0, 1.0], rel=1e-15)


def test_gauss_legendre_exactness_x8():
    x, w = gauss_legendre(5)
    got = w @ x**8
    assert got == pytest.approx(2.0 / 9.0, abs=1e-14)


def test_gauss_legendre_range_errors():
    for n in (0, -1, 65):
        with pytest.raises(ValueError):
            gauss_legendre(n)


def test_gauss_jacobi_zero_exponents_is_legendre():
    (xj, wj), (xl, wl) = gauss_jacobi(1, 0.0, 0.0), gauss_legendre(1)
    assert xj == pytest.approx(xl, abs=1e-15)
    assert wj == pytest.approx(wl, rel=1e-14)


def test_gauss_jacobi_singular_moment():
    _x, w = gauss_jacobi(4, -0.5, 0.0)
    assert w.sum() == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)


def test_gauss_jacobi_oracle_t3():
    x, w = gauss_jacobi(6, 0.4 - 1.0, 0.0)
    assert w @ x**3 == pytest.approx(JACOBI_T3_MU04, rel=1e-12)


def test_gauss_jacobi_exponent_errors():
    with pytest.raises(ValueError):
        gauss_jacobi(4, -1.0, 0.0)
    with pytest.raises(ValueError):
        gauss_jacobi(4, 0.0, -1.5)


def test_gauss_jacobi_range_errors():
    for n in (0, 65):
        with pytest.raises(ValueError, match=r"point count must be in \[1, 64\]"):
            gauss_jacobi(n, -0.5, 0.0)


@pytest.mark.parametrize("kind,a,b", [("legendre", None, None),
                                      ("jacobi", -0.5, 0.0),
                                      ("jacobi", 0.25, 0.75)])
def test_quadrature_moment_exactness(kind, a, b):
    # every rule integrates its weighted monomials up to degree 2n-1
    for n in (1, 2, 4, 8):
        if kind == "legendre":
            x, w = gauss_legendre(n)
            moments = [2.0 / (p + 1) if p % 2 == 0 else 0.0 for p in range(2 * n)]
        else:
            x, w = gauss_jacobi(n, a, b)
            # moments of (1-t)^a (1+t)^b t^p via recursive exact quadrature
            xb, wb = gauss_jacobi(40, a, b)
            moments = [wb @ xb**p for p in range(2 * n)]
        for p in range(2 * n):
            got = w @ x**p
            assert got == pytest.approx(moments[p], abs=1e-12 * max(1, abs(moments[p])))


def test_jacobi_weight_mass_matches_rule():
    for a, b in ((-0.5, 0.0), (0.3, -0.2), (1.0, 2.0)):
        _x, w = gauss_jacobi(10, a, b)
        # the weight's mass is a Beta-function value
        mass = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) \
            / math.gamma(a + b + 2.0)
        assert w.sum() == pytest.approx(mass, rel=1e-12)


def test_gauss_jacobi_matches_scipy_roots_jacobi():
    # scipy's rule as an independent oracle (scipy is a test dependency only)
    for n in range(1, 17):
        for a in (0.0, 0.1, 0.5, 0.9, 0.99):
            for b in (0.0, 0.1, 0.5, 0.9, 0.99):
                (x, w), (xs, ws) = gauss_jacobi(n, a, b), roots_jacobi(n, a, b)
                assert np.abs(x - xs).max() <= 2e-15, (n, a, b)
                assert np.abs(w / ws - 1.0).max() <= 5e-13, (n, a, b)


def test_gauss_jacobi_chebyshev_closed_forms():
    # a + b = -1 and a + b = 0 are where the generic recurrence divides 0/0
    for n in range(1, 17):
        i = np.arange(n, 0, -1)
        x, w = gauss_jacobi(n, -0.5, -0.5)   # first kind, weight 1/sqrt(1-t^2)
        assert np.abs(x - np.cos((2 * i - 1) * np.pi / (2 * n))).max() <= 2e-15
        assert np.abs(w - np.pi / n).max() <= 1e-14
        # weight sqrt((1+t)/(1-t)): nodes cos((2i-1) pi/(2n+1)), weights
        # 2 pi (1 + t_i)/(2n+1); its mirror swaps the exponents
        t = np.cos((2 * i - 1) * np.pi / (2 * n + 1))
        for sign, (a, b) in ((1, (-0.5, 0.5)), (-1, (0.5, -0.5))):
            x, w = gauss_jacobi(n, a, b)
            want = np.sort(sign * t)
            assert np.abs(x - want).max() <= 2e-15, (n, a, b)
            assert np.abs(w / (2 * np.pi * (1 + sign * want) / (2 * n + 1)) - 1).max() <= 1e-13


def test_rules_have_increasing_interior_nodes_and_positive_weights():
    rules = [gauss_legendre(n) for n in range(1, 65)]
    rules += [gauss_jacobi(n, a, b) for n in range(1, 65)
              for a in (0.0, 0.5, 0.99) for b in (0.0, 0.5, 0.99)]
    for x, w in rules:
        assert x.shape == w.shape == (x.size,)
        assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
        assert np.all(w > 0)


def test_rules_are_built_once_and_read_only():
    # each rule is memoised per argument tuple, so every caller shares one
    # pair of arrays; a write to them would corrupt every later caller, so
    # it must raise
    for rule, args in ((gauss_legendre, (7,)), (gauss_jacobi, (5, 0.0, 0.4))):
        x, w = rule(*args)
        before = (x.copy(), w.copy())
        for a in (x, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0
        again = rule(*args)
        assert again[0] is x and again[1] is w
        assert np.array_equal(x, before[0]) and np.array_equal(w, before[1])
    # an equal argument of another numeric type reads the same rule
    assert gauss_jacobi(5, 0, 0.4)[0] is gauss_jacobi(5, 0.0, 0.4)[0]
    # bad arguments still raise on every call: errors are not memoised
    for _ in range(2):
        with pytest.raises(ValueError):
            gauss_legendre(0)


def test_rules_are_called_through_each_module_binding(monkeypatch):
    # the traced bench counts rule calls by replacing the name that each
    # module binds (bench/child.py), so the memo must sit behind those names:
    # a build that reads a rule still calls every module's binding, and a
    # second build calls them as often as the first
    calls, seen = {}, []
    for module in (meshbasis, fracops, models):
        for name in ("gauss_legendre", "gauss_jacobi"):
            rule = getattr(module, name, None)
            if rule is None:
                continue
            assert rule is getattr(specfun, name)
            key = f"{module.__name__.split('.')[-1]}.{name}"

            def counted(*args, _rule=rule, _key=key):
                calls[_key] = calls.get(_key, 0) + 1
                return _rule(*args)
            monkeypatch.setattr(module, name, counted)
    for _ in range(2):
        calls.clear()
        models.build_problem(models.make_example("ex1", 1.5, 8, 2)).initial_state()
        seen.append(dict(calls))
    assert sorted(seen[0]) == ["fracops.gauss_jacobi", "fracops.gauss_legendre",
                               "meshbasis.gauss_legendre", "models.gauss_legendre"]
    assert seen[1] == seen[0]


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
