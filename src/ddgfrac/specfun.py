"""Special functions and quadrature rules used throughout the solver.

Provides the Gamma function on the positive axis, Gauss-Legendre and
Gauss-Jacobi rules on [-1, 1] as (nodes, weights) arrays, and exact
re-centering of polynomials in shifted-monomial form.  The Jacobi rules
carry the weight (1-t)^a_exp (1+t)^b_exp, which is what makes the weakly
singular kernels |x - s|^(mu-1) integrable exactly after an affine map.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

MAX_QUAD_POINTS = 64


def gamma_fn(x: float) -> float:
    """Euler Gamma function for x > 0.

    Thin wrapper over the C library implementation (Lanczos based), which is
    well below the 1e-13 relative error budget on (0, 50].
    """
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Legendre rule, exact for
    polynomials of degree 2n-1."""
    if not 1 <= n <= MAX_QUAD_POINTS:
        raise ValueError(f"point count must be in [1, {MAX_QUAD_POINTS}], got {n}")
    return leggauss(n)


def gauss_jacobi(n: int, a_exp: float, b_exp: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Jacobi rule for the weight
    (1-t)^a_exp (1+t)^b_exp.

    Exact for (1-t)^a_exp (1+t)^b_exp p(t) with deg p <= 2n-1.  Nodes and
    weights come from the Golub-Welsch eigenvalue problem for the Jacobi
    recurrence (scipy's ``roots_jacobi``).
    """
    if not 1 <= n <= MAX_QUAD_POINTS:
        raise ValueError(f"point count must be in [1, {MAX_QUAD_POINTS}], got {n}")
    if a_exp <= -1 or b_exp <= -1:
        raise ValueError(f"weight exponents must exceed -1, got ({a_exp}, {b_exp})")
    return roots_jacobi(n, a_exp, b_exp)


def polynomial_in_shifted_basis(coeffs_t, scale: float, shift: float) -> np.ndarray:
    """Coefficients of p(scale*y + shift) in powers of y, given p in powers of t.

    Used to move a reference-element polynomial into the local coordinate of
    a physical cell; with scale = 1 it re-centres p, exactly up to rounding in
    the products (the binomial coefficients are integers).
    """
    a = np.asarray(coeffs_t, dtype=float)
    n = a.size
    out = np.zeros(n)
    for r in range(n):
        if a[r] == 0.0:
            continue
        for m in range(r + 1):
            out[m] += a[r] * math.comb(r, m) * scale**m * shift ** (r - m)
    return out
