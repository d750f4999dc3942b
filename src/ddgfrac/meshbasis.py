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
    if N == 1:
        return np.array([-1.0, 1.0])
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


@dataclass(frozen=True)
class ElementBasis:
    """Degree-N nodal Lagrange basis on the reference interval [-1, 1].

    ``trace_left``/``trace_right`` stack the value, first- and
    second-derivative evaluation rows at the endpoints (reference
    derivatives; multiply by (2/dx)^order for physical ones).  For the
    convection kernel, ``trace`` (n, 2) is [v_R, v_L] and ``conv_apply``
    (n + 2, n) is [M D; -v_R; v_L] M^-1^T: a cell's f values and its right
    and left face fluxes to its DOFs.
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
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        L = np.zeros((pts.size, self.n_nodes))
        diffs = pts[:, None] - self.ref_nodes[None, :]
        exact = np.isclose(diffs, 0.0, rtol=0.0, atol=1e-14)
        on_node = exact.any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self.bary_w[None, :] / diffs
        L[~on_node] = terms[~on_node] / terms[~on_node].sum(axis=1, keepdims=True)
        L[on_node] = exact[on_node].astype(float)
        return L


def build_basis(N: int) -> ElementBasis:
    """Nodal basis on LGL points (midpoint for N = 0) with exact mass matrix."""
    if not 0 <= N <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}], got {N}")
    nodes = _lgl_nodes(N)
    bary = _barycentric_weights(nodes)

    n = N + 1
    if N == 0:
        diff = np.zeros((1, 1))
    else:
        diff = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    diff[i, j] = (bary[j] / bary[i]) / (nodes[i] - nodes[j])
        np.fill_diagonal(diff, -diff.sum(axis=1))

    basis = ElementBasis(
        N=N, ref_nodes=nodes, mass=np.empty((n, n)), diff=diff,
        trace_left=np.empty((3, n)), trace_right=np.empty((3, n)),
        mass_inv=np.empty((n, n)), bary_w=bary, trace=np.empty((n, 2)),
        conv_apply=np.empty((n + 2, n)),
    )
    # mass via GL(N+1): exact for the degree-2N integrand
    rule = gauss_legendre(N + 1)
    V = basis.eval_matrix(rule.nodes)
    mass = V.T @ (rule.weights[:, None] * V)
    mass = 0.5 * (mass + mass.T)
    object.__setattr__(basis, "mass", mass)
    object.__setattr__(basis, "mass_inv", np.linalg.inv(mass))

    for attr, point in (("trace_left", -1.0), ("trace_right", 1.0)):
        row = basis.eval_matrix([point])[0]
        object.__setattr__(
            basis, attr, np.vstack([row, row @ diff, row @ diff @ diff])
        )
    vl, vr = basis.trace_left[0], basis.trace_right[0]
    object.__setattr__(basis, "trace", np.column_stack([vr, vl]))
    object.__setattr__(basis, "conv_apply",
                       np.vstack([mass @ diff, -vr, vl]) @ basis.mass_inv.T)
    return basis


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
    rule = gauss_legendre(basis.N + 2 if n_quad is None else n_quad)
    X = cell_centers_and_points(mesh, rule.nodes)
    F = np.asarray(f(X))
    F = np.broadcast_to(F, X.shape).astype(np.promote_types(F.dtype, float))
    L = basis.eval_matrix(rule.nodes)
    # cell Jacobian dx/2 cancels against the mass-inverse scaling
    rhs = F @ (rule.weights[:, None] * L)
    coeffs = rhs @ basis.mass_inv.T
    return FieldVector(coeffs.ravel(), mesh, basis)


def eval_field(u: FieldVector, points) -> np.ndarray:
    """Evaluate the broken-polynomial field at physical points.

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


def l2_norm(u: FieldVector) -> float:
    """Broken L2 norm via the exact block mass matrix."""
    c = u.by_cell
    return float(np.sqrt(0.5 * u.mesh.dx * np.einsum("ki,ij,kj->", c, u.basis.mass, c)))


def l2_error(u: FieldVector, exact) -> float:
    """Broken L2 distance to a function of x, by Gauss-Legendre(N+3) per cell
    (complex fields and functions measure |u_h - u|)."""
    rule = gauss_legendre(u.basis.N + 3)
    X = cell_centers_and_points(u.mesh, rule.nodes)
    L = u.basis.eval_matrix(rule.nodes)
    uh = u.by_cell @ L.T
    diff = uh - np.asarray(exact(X))
    err2 = 0.5 * u.mesh.dx * np.einsum("g,kg->", rule.weights, (diff * diff.conj()).real)
    return float(np.sqrt(max(err2, 0.0)))


def global_mass_matrix(mesh: Mesh1D, basis: ElementBasis) -> np.ndarray:
    """Dense block-diagonal mass matrix (test and diagnostic use)."""
    n = basis.n_nodes
    M = np.zeros((mesh.K * n, mesh.K * n))
    block = 0.5 * mesh.dx * basis.mass
    for k in range(mesh.K):
        M[k * n:(k + 1) * n, k * n:(k + 1) * n] = block
    return M


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
