"""Special functions and quadrature rules used throughout the solver.

Provides the Gamma function on the positive axis, Gauss-Legendre and
Gauss-Jacobi rules on [-1, 1] as (nodes, weights) arrays, both from numpy,
and exact re-centering of polynomials in shifted-monomial form.  Each rule
is built once per argument tuple and process and handed out read-only, so
every caller shares it and none can write to it; the memo keeps one entry
(at most 1 KB) per distinct tuple, and a run reads a few dozen.  The Jacobi
rules carry the weight (1-t)^a_exp (1+t)^b_exp, which is what makes the
weakly singular kernels |x - s|^(mu-1) integrable exactly after an affine map.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_QUAD_POINTS = 64


def gamma_fn(x: float) -> float:
    """Euler Gamma function for x > 0.

    Thin wrapper over the C library implementation (Lanczos based), which is
    well below the 1e-13 relative error budget on (0, 50].
    """
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Legendre rule, exact for
    polynomials of degree 2n-1 (read-only, shared between calls)."""
    if not 1 <= n <= MAX_QUAD_POINTS:
        raise ValueError(f"point count must be in [1, {MAX_QUAD_POINTS}], got {n}")
    return _read_only(*leggauss(n))


@functools.lru_cache(maxsize=None)
def gauss_jacobi(n: int, a_exp: float, b_exp: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Jacobi rule for the weight
    (1-t)^a_exp (1+t)^b_exp (read-only, shared between calls).

    Exact for (1-t)^a_exp (1+t)^b_exp p(t) with deg p <= 2n-1.  Golub-Welsch
    (Math. Comp. 23, 1969): nodes and weights from the eigenpairs of the Jacobi
    matrix, its k = 0, 1 entries cancelled to stay finite at a + b = 0 and -1.
    """
    if not 1 <= n <= MAX_QUAD_POINTS:
        raise ValueError(f"point count must be in [1, {MAX_QUAD_POINTS}], got {n}")
    if a_exp <= -1 or b_exp <= -1:
        raise ValueError(f"weight exponents must exceed -1, got ({a_exp}, {b_exp})")
    a, b = float(a_exp), float(b_exp)
    s = 2.0 * np.arange(n) + a + b                       # 2k + a + b
    k = np.arange(2, n)
    diag = np.r_[(b - a) / (a + b + 2), (b * b - a * a) / (s[1:] * (s[1:] + 2))]
    off2 = np.r_[4 * (1 + a) * (1 + b) / ((a + b + 2) ** 2 * (a + b + 3)),
                 4 * k * (k + a) * (k + b) * (k + a + b) / (s[2:] ** 2 * (s[2:] ** 2 - 1))]
    nodes, v = np.linalg.eigh(np.diag(diag) + np.diag(np.sqrt(off2[:n - 1]), -1))
    mu0 = 2 ** (a + b + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
    return _read_only(nodes, mu0 * v[0] ** 2)


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
