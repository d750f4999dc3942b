"""1D mesh, nodal element basis, and the broken polynomial space.

The basis is a nodal Lagrange basis on Legendre-Gauss-Lobatto points
(midpoint for degree 0).  Element operators are reference-interval
quantities; physical scaling by the cell size happens at the call sites
(derivatives pick up 2/dx per order, integrals dx/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

from .specfun import gauss_legendre

MAX_DEGREE = 8


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of [a, b] into K cells."""

    a: float
    b: float
    K: int
    boundaries: np.ndarray

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.K


def build_mesh(a: float, b: float, K: int) -> Mesh1D:
    """Uniform mesh with K cells of width dx = (b - a)/K."""
    if not a < b:
        raise ValueError(f"domain endpoints must satisfy a < b, got ({a}, {b})")
    if K < 1:
        raise ValueError(f"cell count must be positive, got {K}")
    boundaries = np.linspace(a, b, K + 1)
    return Mesh1D(a=float(a), b=float(b), K=int(K), boundaries=boundaries)


def _lgl_nodes(N: int) -> np.ndarray:
    """Legendre-Gauss-Lobatto points: roots of (1 - t^2) P_N'(t)."""
    if N == 0:
        return np.array([0.0])
    cN = np.zeros(N + 1)
    cN[N] = 1.0
    interior = npleg.legroots(npleg.legder(cN))
    return np.concatenate(([-1.0], np.sort(interior), [1.0]))


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.ones(nodes.size)
    for i in range(nodes.size):
        for j in range(nodes.size):
            if j != i:
                w[i] /= nodes[i] - nodes[j]
    return w


def _lagrange_eval(nodes: np.ndarray, bary_w: np.ndarray, points) -> np.ndarray:
    """Matrix L with L[g, i] = ell_i(points[g]) (barycentric, exact at nodes)."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    L = np.zeros((pts.size, nodes.size))
    diffs = pts[:, None] - nodes[None, :]
    exact = np.isclose(diffs, 0.0, rtol=0.0, atol=1e-14)
    on_node = exact.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = bary_w[None, :] / diffs
    L[~on_node] = terms[~on_node] / terms[~on_node].sum(axis=1, keepdims=True)
    L[on_node] = exact[on_node].astype(float)
    return L


@dataclass(frozen=True)
class ElementBasis:
    """Degree-N nodal Lagrange basis on the reference interval [-1, 1].

    ``trace_left``/``trace_right`` stack the value, first- and
    second-derivative evaluation rows at the endpoints (reference
    derivatives; multiply by (2/dx)^order for physical ones).  For the
    convection kernel, ``trace`` (n, 2) is [v_L, v_R], so a cell's traces
    come out in mesh order, and ``conv_apply`` (n + 2, n) is
    [M D; -v_R; v_L] M^-1^T: a cell's f values and its right and left face
    fluxes to its DOFs.
    """

    N: int
    ref_nodes: np.ndarray
    mass: np.ndarray
    diff: np.ndarray
    trace_left: np.ndarray
    trace_right: np.ndarray
    mass_inv: np.ndarray = field(repr=False)
    bary_w: np.ndarray = field(repr=False)
    trace: np.ndarray = field(repr=False)
    conv_apply: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.N + 1

    def eval_matrix(self, points) -> np.ndarray:
        """Matrix L with L[g, i] = ell_i(points[g]) (barycentric, exact at nodes)."""
        return _lagrange_eval(self.ref_nodes, self.bary_w, points)


def build_basis(N: int) -> ElementBasis:
    """Nodal basis on LGL points (midpoint for N = 0) with exact mass matrix."""
    if not 0 <= N <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}], got {N}")
    nodes = _lgl_nodes(N)
    bary = _barycentric_weights(nodes)

    gap = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(gap, 1.0)
    diff = (bary[None, :] / bary[:, None]) / gap
    np.fill_diagonal(diff, 0.0)
    if N > 0:   # at N = 0 the entry stays +0.0, where -sum would give -0.0
        np.fill_diagonal(diff, -diff.sum(axis=1))

    # mass via GL(N+1): exact for the degree-2N integrand
    gl_nodes, gl_weights = gauss_legendre(N + 1)
    V = _lagrange_eval(nodes, bary, gl_nodes)
    mass = V.T @ (gl_weights[:, None] * V)
    mass = 0.5 * (mass + mass.T)
    mass_inv = np.linalg.inv(mass)

    vl, vr = _lagrange_eval(nodes, bary, [-1.0, 1.0])
    trace_left, trace_right = (np.vstack([v, v @ diff, v @ diff @ diff]) for v in (vl, vr))
    return ElementBasis(
        N=N, ref_nodes=nodes, mass=mass, diff=diff,
        trace_left=trace_left, trace_right=trace_right, mass_inv=mass_inv,
        bary_w=bary, trace=np.column_stack([vl, vr]),
        conv_apply=np.vstack([mass @ diff, -vr, vl]) @ mass_inv.T,
    )


@dataclass
class FieldVector:
    """Global DOF vector for one scalar field, element-major layout."""

    values: np.ndarray
    mesh: Mesh1D
    basis: ElementBasis

    def __post_init__(self):
        expected = self.mesh.K * self.basis.n_nodes
        if self.values.size != expected:
            raise ValueError(
                f"DOF vector length {self.values.size} does not match "
                f"K*(N+1) = {expected}"
            )

    @property
    def by_cell(self) -> np.ndarray:
        return self.values.reshape(self.mesh.K, self.basis.n_nodes)


def cell_centers_and_points(mesh: Mesh1D, ref_points: np.ndarray) -> np.ndarray:
    """Physical coordinates of reference points in every cell, shape (K, npts)."""
    left = mesh.boundaries[:-1]
    return left[:, None] + 0.5 * mesh.dx * (ref_points[None, :] + 1.0)


def project(f, mesh: Mesh1D, basis: ElementBasis, n_quad: int = None) -> FieldVector:
    """Element-wise L2 projection of f using a Gauss-Legendre(N+2) rule.

    ``n_quad`` overrides the point count when the integrand degree is known
    to exceed what the default rule integrates exactly.  A complex f gives
    complex coefficients.
    """
    nodes, weights = gauss_legendre(basis.N + 2 if n_quad is None else n_quad)
    X = cell_centers_and_points(mesh, nodes)
    F = np.asarray(f(X))
    F = np.broadcast_to(F, X.shape).astype(np.promote_types(F.dtype, float))
    L = basis.eval_matrix(nodes)
    # cell Jacobian dx/2 cancels against the mass-inverse scaling
    rhs = F @ (weights[:, None] * L)
    coeffs = rhs @ basis.mass_inv.T
    return FieldVector(coeffs.ravel(), mesh, basis)


def eval_field(u: FieldVector, points) -> np.ndarray:
    """Evaluate the broken-polynomial field, real or complex, at physical points.

    Points on interior cell boundaries evaluate the left cell's polynomial;
    anything outside [a, b] is a domain error.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    mesh, basis = u.mesh, u.basis
    if np.any(pts < mesh.a) or np.any(pts > mesh.b):
        raise ValueError("evaluation points must lie inside the domain")
    cell = np.clip(np.searchsorted(mesh.boundaries, pts, side="left") - 1, 0, mesh.K - 1)
    t = 2.0 * (pts - mesh.boundaries[cell]) / mesh.dx - 1.0
    return np.einsum("pi,pi->p", basis.eval_matrix(t), u.by_cell[cell])


def l2_error(u: FieldVector, exact) -> float:
    """Broken L2 distance to a function of x, by Gauss-Legendre(N+3) per cell
    (complex fields and functions measure |u_h - u|)."""
    nodes, weights = gauss_legendre(u.basis.N + 3)
    X = cell_centers_and_points(u.mesh, nodes)
    uh = u.by_cell @ u.basis.eval_matrix(nodes).T
    diff = uh - np.asarray(exact(X))
    err2 = 0.5 * u.mesh.dx * np.einsum("g,kg->", weights, (diff * diff.conj()).real)
    return float(np.sqrt(max(err2, 0.0)))


def mass_solve(mesh: Mesh1D, basis: ElementBasis, rhs: np.ndarray) -> np.ndarray:
    """Apply the inverse of the global (block-diagonal) mass matrix."""
    n = basis.n_nodes
    r = rhs.reshape(mesh.K, n)
    return (2.0 / mesh.dx) * (r @ basis.mass_inv.T).ravel()


def mass_solve_mat(mesh: Mesh1D, basis: ElementBasis, X: np.ndarray) -> np.ndarray:
    """Cell mass inverse applied to every column of each n-row block of X.

    X is a dense K*n-row matrix, or any stack of cell blocks with n rows.
    """
    n = basis.n_nodes
    blocks = X.reshape(-1, n, X.shape[1])
    out = np.einsum("ij,kjc->kic", basis.mass_inv, blocks)
    return (2.0 / mesh.dx) * out.reshape(X.shape)
