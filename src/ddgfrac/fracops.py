"""The block-Toeplitz Galerkin operator of the two-sided Riemann-Liouville
fractional integral of order mu = 2 - alpha, and the Riesz derivative of
global polynomials.

The operator applied to a function g supported on [a, b] (zero extension
outside) is

    riesz_int(g)(x) = (I_left^mu g + I_right^mu g)(x) / (2 cos(pi mu / 2)),

and the matrix B holds the inner products of that image against every test
basis function.  On a uniform mesh B is block Toeplitz, so only one block
per cell offset is ever computed, and the operator is kept as those K
blocks: memory grows linearly in K and there is no DOF cap.  The solver
applies B through FFTs above a crossover size (``models.BlockOperator``);
``FracOperator.B`` gathers the blocks into the dense matrix on request, as
the tests' reference (the dense E gathers its own rows).  The blocks are

* self cell: the power rule turns I^mu of a polynomial into a finite sum of
  y^(r+mu) terms, integrated exactly against a Gauss-Jacobi(0, mu) rule;
* adjacent cell: the truncated integral equals a difference of two power-rule
  series (based at either cell edge); the singular-endpoint part again uses
  the Jacobi rule exactly, the analytic part a high-order Legendre rule;
* separated cells: the kernel is analytic, and a tensor Gauss-Legendre rule
  converges geometrically; with W the weighted basis values at its nodes,
  all K - 2 blocks are two matrix products, W^T (kernel W).

Forcing terms for manufactured solutions use the closed-form Riesz
derivative of a polynomial on [a, b] (both one-sided Caputo derivatives of
order alpha taken on the finite domain): one power-rule series in
(x-a)^(j-alpha) and (b-x)^(j-alpha), evaluated pointwise or projected onto
every cell at once, with the singular side of the two end cells integrated
exactly by Gauss-Jacobi rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .meshbasis import ElementBasis, Mesh1D, cell_centers_and_points, mass_solve, project
from .specfun import (
    gamma_fn,
    gauss_jacobi,
    gauss_legendre,
    polynomial_in_shifted_basis,
)

# point counts for the analytic-kernel quadratures; the nearest admissible
# singularity sits one cell away, giving a Bernstein ellipse rho ~= 5.8 and
# errors far below assembly tolerance at these sizes
_N_SMOOTH = 16
_N_FAR = 14


@dataclass(frozen=True)
class FracOperator:
    """Galerkin operator of the Riesz fractional integral of order mu.

    ``left[m]`` is the unscaled left-integral block between cells k and
    k - m; the right-integral blocks are its reflections ``right[m]``.
    """

    left: np.ndarray
    riesz_scale: float
    mesh: Mesh1D
    basis: ElementBasis

    @property
    def right(self) -> np.ndarray:
        return self.left[:, ::-1, ::-1]

    def toeplitz_blocks(self) -> np.ndarray:
        """Scaled blocks T[d + K - 1] = B[k, k - d] for offsets |d| < K."""
        diag = self.left[:1] + self.right[:1]
        return self.riesz_scale * np.concatenate(
            [self.right[:0:-1], diag, self.left[1:]])

    @property
    def B(self) -> np.ndarray:
        """Dense matrix gathered from the blocks (the tests' reference)."""
        K, n = self.mesh.K, self.basis.n_nodes
        offset = np.arange(K)[:, None] - np.arange(K)[None, :] + K - 1
        B4 = self.toeplitz_blocks()[offset]               # (K, K, n, n)
        return B4.transpose(0, 2, 1, 3).reshape(K * n, K * n)


def _basis_monomial_coeffs(basis: ElementBasis, h: float) -> np.ndarray:
    """Coefficients C[j, r] with ell_j(y) = sum_r C[j, r] y^r, y in [0, h]."""
    n = basis.n_nodes
    C = np.zeros((n, n))
    for j in range(n):
        roots = np.delete(basis.ref_nodes, j)
        coeffs_t = np.poly(roots)[::-1] * basis.bary_w[j] if roots.size else np.array([1.0])
        C[j, :coeffs_t.size] = polynomial_in_shifted_basis(
            coeffs_t, scale=2.0 / h, shift=-1.0
        )
    return C


def _left_integral_blocks(mesh: Mesh1D, basis: ElementBasis, mu: float) -> np.ndarray:
    """Blocks BL[m][i, j] = (phi_{k,i}, I_left^mu phi_{k-m,j}) for offsets m >= 0."""
    K, n, h = mesh.K, basis.n_nodes, mesh.dx
    C = _basis_monomial_coeffs(basis, h)             # about the left edge
    D = np.vstack([polynomial_in_shifted_basis(C[j], 1.0, h) for j in range(n)])
    r = np.arange(n)
    gam = _power_rule(r, -mu)

    blocks = np.zeros((K, n, n))

    t, w = gauss_jacobi(basis.N + 2, 0.0, mu)
    WLj = w[:, None] * basis.eval_matrix(t)
    pow1pt = (1.0 + t)[:, None] ** r[None, :]

    def singular_endpoint_block(coeffs):
        # exact: integrand is (1+t)^mu times a polynomial of degree <= 2N
        scaled = coeffs * gam[None, :] * (0.5 * h) ** r[None, :]
        return (0.5 * h) ** (1.0 + mu) * (WLj.T @ (pow1pt @ scaled.T))

    blocks[0] = singular_endpoint_block(C)

    if K > 1:
        t, w = gauss_legendre(_N_SMOOTH)
        y = h + 0.5 * h * (1.0 + t)
        V = w[:, None] * (y[:, None] ** (r[None, :] + mu)) @ (C * gam[None, :]).T
        blocks[1] = 0.5 * h * (basis.eval_matrix(t).T @ V) - singular_endpoint_block(D)

    if K > 2:
        t, w = gauss_legendre(_N_FAR)
        WL = w[:, None] * basis.eval_matrix(t)
        s = 0.5 * h * (1.0 + t)
        x = np.arange(2, K)[:, None] * h + s
        kernel = (x[:, :, None] - s) ** (mu - 1.0)
        # sum_gq kernel[m, g, q] w_g w_q ell_i(g) ell_j(q) as two products
        blocks[2:] = (0.25 * h * h / gamma_fn(mu)) * (WL.T @ (kernel @ WL))
    return blocks


def assemble_frac_operator(mesh: Mesh1D, basis: ElementBasis, alpha: float) -> FracOperator:
    """Assemble the offset blocks of the two-sided fractional integral.

    The integrals are truncated to [a, b] (zero extension outside), and the
    operator couples every pair of cells.  The right-sided integral blocks
    come from the left-sided ones through the exact reflection identity of a
    symmetric nodal basis on a uniform mesh.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"fractional order must lie in (1, 2), got {alpha}")
    mu = 2.0 - alpha
    return FracOperator(
        left=_left_integral_blocks(mesh, basis, mu),
        riesz_scale=1.0 / (2.0 * math.cos(0.5 * math.pi * mu)),
        mesh=mesh, basis=basis,
    )


def _power_rule(p, order: float) -> np.ndarray:
    """Gamma(p + 1) / Gamma(p + 1 - order) for every power p: the factor by
    which the order-``order`` derivative based at 0 maps y^p to y^(p - order)
    (a negative order is the integral of order -order)."""
    return np.array([gamma_fn(pp + 1.0) / gamma_fn(pp + 1.0 - order) for pp in p])


def _riesz_series(alpha: float, coeffs, a: float, b: float):
    """(j, ca, db, s) with, for the polynomial p of ``coeffs``,

        (-Laplacian)^(alpha/2) p(x) = s (sum_j ca_j (x-a)^(j-alpha)
                                         + sum_j db_j (b-x)^(j-alpha)).

    The one-sided Caputo derivatives annihilate degrees 0 and 1, so j runs
    from 2 and a linear p gives an empty series.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"order must lie in (1, 2) for this solver, got {alpha}")
    c = np.asarray(coeffs, dtype=float)
    j = np.arange(2, c.size)
    g = _power_rule(j, alpha)
    ca = polynomial_in_shifted_basis(c, 1.0, a)[2:] * g
    db = (polynomial_in_shifted_basis(c, 1.0, b) * (-1.0) ** np.arange(c.size))[2:] * g
    return j, ca, db, 1.0 / (2.0 * math.cos(0.5 * math.pi * alpha))


def riesz_frac_deriv_poly(alpha: float, coeffs, a: float, b: float, x):
    """(-Laplacian)^(alpha/2) of a global polynomial on [a, b] at points x.

    Both Caputo derivatives are taken on the finite domain, combined with the
    1/(2 cos(pi alpha / 2)) Riesz factor.  alpha = 2 falls back to the
    classical limit -p''(x).
    """
    xs = np.asarray(x, dtype=float)
    if alpha == 2.0:
        out = -P.polyval(xs, P.polyder(coeffs, 2))
    else:
        j, ca, db, s = _riesz_series(alpha, coeffs, a, b)
        xs = xs[..., None]
        out = s * (((xs - a) ** (j - alpha)) @ ca + ((b - xs) ** (j - alpha)) @ db)
    return out if np.ndim(out) else float(out)


def project_riesz_poly(alpha: float, coeffs, mesh: Mesh1D, basis: ElementBasis) -> np.ndarray:
    """L2-project (-Laplacian)^(alpha/2) of a global polynomial onto the mesh.

    The image is a sum of (x-a)^(j-alpha) and (b-x)^(j-alpha) profiles, only
    Hoelder continuous at the endpoints, so plain Gauss-Legendre projection
    on the first/last cell is quadrature limited.  Both series are evaluated
    on a high-order Legendre rule in every cell, where the integrand is
    analytic, except the singular side of the two end cells: there a
    Gauss-Jacobi(0, 2-alpha) rule integrates the singular factor exactly.
    """
    a, b = mesh.a, mesh.b
    if alpha == 2.0:
        # a Legendre rule exact for -p'' times a degree-N basis function
        return project(lambda x: riesz_frac_deriv_poly(alpha, coeffs, a, b, x), mesh, basis,
                       n_quad=max(basis.N + 2, (len(coeffs) + basis.N) // 2 + 1)).values
    j, ca, db, s = _riesz_series(alpha, coeffs, a, b)
    mu, h, K = 2.0 - alpha, mesh.dx, mesh.K

    t, w = gauss_legendre(_N_SMOOTH)
    x = cell_centers_and_points(mesh, t)[..., None]
    left = ((x - a) ** (j - alpha)) @ ca
    right = ((b - x) ** (j - alpha)) @ db
    left[0] = right[-1] = 0.0     # the singular sides, added below
    weak = 0.5 * h * ((left + right) * w) @ basis.eval_matrix(t)

    # y = distance to the end: y^(j-alpha) = y^mu y^(j-2), the Jacobi weight
    # taking y^mu; integer powers y^(j-2) keep the rule exact to round-off
    n_jac = max((j.size - 1 + basis.N) // 2 + 2, 2)
    for k, side, coef, exps in ((0, 1.0, ca, (0.0, mu)), (K - 1, -1.0, db, (mu, 0.0))):
        t, w = gauss_jacobi(n_jac, *exps)
        y = 0.5 * h * (1.0 + side * t)
        poly = (y[:, None] ** (j - 2)) @ coef
        weak[k] += (0.5 * h) ** (1.0 + mu) * (w * poly) @ basis.eval_matrix(t)

    return mass_solve(mesh, basis, s * weak)
