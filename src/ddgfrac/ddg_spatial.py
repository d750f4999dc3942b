"""Direct DG spatial discretization.

The second-derivative variable q is defined weakly against every test
function phi by

    (q, phi) = -(du/dx, dphi/dx) - sum_faces( (du/dx)* [phi] + {dphi/dx} [u] )

with the derivative numerical flux

    (du/dx)* = beta0 [u]/h + {du/dx} + beta1 h [d2u/dx2],

jumps [w] = w_plus - w_minus and averages {w} = (w_plus + w_minus)/2.
The boundary closure is for homogeneous Dirichlet data only: the
solution's ghost traces are mirrored (u_ext = -u_int, derivatives copied)
while test functions take a zero exterior trace with {dphi/dx} = dphi/dx / 2;
that combination is consistent and keeps the beta1-free part of the
bilinear form symmetric.  Inhomogeneous data reach the solver through the
lift in ``models``, never through this operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .meshbasis import ElementBasis, FieldVector, Mesh1D, build_basis, mass_solve_mat


@dataclass(frozen=True)
class FluxParams:
    """Coefficients of the derivative numerical flux."""

    beta0: float
    beta1: float = 0.0

    def __post_init__(self):
        if not 0 <= self.beta0 < np.inf:
            raise ValueError(f"beta0 must be non-negative and finite, got {self.beta0}")
        if not np.isfinite(self.beta1):
            raise ValueError(f"beta1 must be finite, got {self.beta1}")


def default_flux(N: int) -> FluxParams:
    """Degree-adapted default: beta0 = max(1, (N+1)^2/2), beta1 = 0.

    The second-derivative jump term is the one interface term without a
    symmetric partner in the weak form; leaving it off keeps the spatial
    operator adjoint-consistent, which measurably sharpens fine-grid errors
    for solutions with nonzero boundary curvature.  beta1 can still be set
    explicitly where a run calls for it.
    """
    return FluxParams(beta0=max(1.0, 0.5 * (N + 1.0) ** 2), beta1=0.0)


@dataclass(frozen=True)
class DdgOperators:
    """Assembled weak second-derivative operator, closed for zero data.

    q DOFs are recovered as q = M^-1 A u, with the homogeneous Dirichlet
    closure built into A.  On the uniform mesh A is block tridiagonal:
    every interior cell row holds (lower, diag, upper), and the two
    boundary cells replace diag with ``first``/``last`` (one block when
    K = 1).  ``solved`` is derived: the blocks mass-solved once, as (diag,
    lower, upper, first, last) in one (5, n, n) array that ``compose`` and
    ``models.BlockOperator`` read.  ``A`` gathers the dense matrix on request.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    first: np.ndarray
    last: np.ndarray
    flux: FluxParams
    mesh: Mesh1D
    basis: ElementBasis
    solved: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        blocks = np.stack([self.diag, self.lower, self.upper, self.first, self.last])
        object.__setattr__(self, "solved", mass_solve_mat(self.mesh, self.basis, blocks))

    @property
    def A(self) -> np.ndarray:
        K, n = self.mesh.K, self.basis.n_nodes
        A4 = np.zeros((K, n, K, n))
        k = np.arange(K)
        A4[k, :, k, :] = self.diag
        A4[k[1:], :, k[:-1], :] = self.lower
        A4[k[:-1], :, k[1:], :] = self.upper
        A4[0, :, 0, :] = self.first
        A4[-1, :, -1, :] = self.last
        return A4.reshape(K * n, K * n)

    def compose(self, MB: np.ndarray) -> np.ndarray:
        """MB M^-1 A in O(n^2 p), summed as the dense product sums: cell column
        j is MB's zero-padded cell columns j - 1, j, j + 1 times the stacked
        upper, diagonal (first, last at j = 0, K - 1) and lower solved blocks."""
        n = self.basis.n_nodes
        D, lo, up, first, last = self.solved
        W = np.pad(MB, ((0, 0), (n, n)))
        win = np.lib.stride_tricks.sliding_window_view(W, 3 * n, axis=1)[:, ::n]
        E = win @ np.concatenate([up, D, lo])
        E[:, 0] = win[:, 0] @ np.concatenate([up, first, lo])
        E[:, -1] = win[:, -1] @ np.concatenate([up, last, lo])
        return E.reshape(MB.shape)


def _interior_face(basis: ElementBasis, flux: FluxParams, h: float):
    """Interior-face blocks of A: -(du/dx)* [phi] - {dphi/dx} [u].

    Split by the side of the test (rows) and trial (columns) cell, the
    blocks are (minus_flux, minus_avg, plus_flux, plus_avg, upper, lower):
    the minus cell's diagonal gains minus_flux - minus_avg, the plus
    cell's -plus_flux - plus_avg, and upper/lower couple minus to plus and
    plus to minus.
    """
    vl, dl, sl = basis.trace_left
    vr, dr, sr = basis.trace_right
    # reference trace rows; physical derivatives pick up 2/dx per order
    dl_x, dr_x = (2.0 / h) * dl, (2.0 / h) * dr
    sl_x, sr_x = (2.0 / h) ** 2 * sl, (2.0 / h) ** 2 * sr
    # flux_m/flux_p weigh the minus/plus cell's DOFs in (du/dx)*
    flux_m = -flux.beta0 / h * vr + 0.5 * dr_x - flux.beta1 * h * sr_x
    flux_p = +flux.beta0 / h * vl + 0.5 * dl_x + flux.beta1 * h * sl_x
    return (np.outer(vr, flux_m), np.outer(0.5 * dr_x, -vr),
            np.outer(vl, flux_p), np.outer(0.5 * dl_x, vl),
            np.outer(vr, flux_p) - np.outer(0.5 * dr_x, vl),
            -np.outer(vl, flux_m) - np.outer(0.5 * dl_x, -vr))


def assemble_q_operator(mesh: Mesh1D, basis: ElementBasis,
                        flux: FluxParams) -> DdgOperators:
    """Assemble the blocks of A, with the homogeneous Dirichlet closure.

    Each block sums the same face terms, in the same order, as a per-face
    accumulation into the dense matrix would.
    """
    if flux.beta0 <= 0:
        raise ValueError("penalization requires beta0 > 0")
    K, h = mesh.K, mesh.dx

    vl, dl_x = basis.trace_left[0], (2.0 / h) * basis.trace_left[1]
    vr, dr_x = basis.trace_right[0], (2.0 / h) * basis.trace_right[1]

    vol = -(2.0 / h) * basis.diff.T @ basis.mass @ basis.diff

    minus_flux, minus_avg, plus_flux, plus_avg, upper, lower = \
        _interior_face(basis, flux, h)
    # a cell is the + side of its left face and the - side of its right face
    diag = vol - plus_flux - plus_avg + minus_flux - minus_avg

    # boundary faces need the full degree-dependent penalty even when a run
    # uses a small interior beta0 (half-cell trace constant)
    b0_bdry = max(flux.beta0, 0.5 * (basis.N + 1.0) ** 2)

    # left boundary face: mirrored ghost, [u] = 2u, [phi] = +phi;
    # -{dphi/dx}[u] is the second term
    left_flux = np.outer(vl, 2.0 * b0_bdry / h * vl + dl_x)
    left_avg = np.outer(0.5 * dl_x, 2.0 * vl)

    # right boundary face: mirrored ghost, [u] = -2u, [phi] = -phi
    right_flux = np.outer(vr, -2.0 * b0_bdry / h * vr + dr_x)
    right_avg = np.outer(0.5 * dr_x, 2.0 * vr)

    if K == 1:
        first = last = vol - left_flux - left_avg + right_flux + right_avg
    else:
        first = vol + minus_flux - minus_avg - left_flux - left_avg
        last = vol - plus_flux - plus_avg + right_flux + right_avg

    return DdgOperators(lower=lower, diag=diag, upper=upper, first=first,
                        last=last, flux=flux, mesh=mesh, basis=basis)


# a face's (minus, plus) pair to its average and to minus its half jump
_MEAN, _HALF_JUMP = np.array([0.5, 0.5]), np.array([0.5, -0.5])


@dataclass(frozen=True)
class ConvectionFlux:
    """Convective flux function f(u) and its derivative f'(u)."""

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]


def convection_rhs(
    u: FieldVector,
    conv: ConvectionFlux,
    bc: Callable[[float], tuple],
    t: float = 0.0,
) -> np.ndarray:
    """-M^-1 of the weak divergence of f(u), with a global Lax-Friedrichs flux,
    as a new (K * n,) array.

    Cell k gets (2/h) M^-1 ((f(u), dphi/dx) - f*_{k+1} phi(1) + f*_k phi(-1)),
    f* = {f} - (c/2) [u] on the face's (minus, plus) states, the outer two
    being the Dirichlet data (left, right) = ``bc(t)``, and c = max |f'|
    over all of them.  ``basis.trace`` ([v_L, v_R]) writes every cell's
    traces into one vector S = [left, l_0, r_0, ..., r_{K-1}, right], whose
    (K + 1, 2) view holds each face's (minus, plus) pair, so f and f' run
    once on it; ``basis.conv_apply`` maps the cells' f values and face
    fluxes to the DOFs in one product.
    """
    cells = u.by_cell
    K, n = cells.shape
    S = np.empty(2 * K + 2)
    np.dot(cells, u.basis.trace, out=S[1:-1].reshape(K, 2))
    S[0], S[-1] = bc(t)
    faces = S.reshape(K + 1, 2)
    # np.dot: these products are too small for matmul's extra call cost
    fstar = np.dot(conv.f(faces), _MEAN) + np.abs(conv.df(S)).max() * np.dot(faces, _HALF_JUMP)
    weak = np.empty((K, n + 2))
    weak[:, :n] = conv.f(cells)
    weak[:, n] = fstar[1:]
    weak[:, n + 1] = fstar[:-1]
    out = np.dot(weak, u.basis.conv_apply)
    out *= 2.0 / u.mesh.dx
    return out.reshape(-1)


@dataclass
class AdmissibilityReport:
    min_ratio: float
    min_value: float
    admissible: bool
    gamma: float     # the check's own parameters, defaults included
    mu_pen: float
    witness: Optional[np.ndarray] = field(default=None)


def _two_cell_forms(basis: ElementBasis, flux: FluxParams):
    """Quadratic forms on a two-cell probe with unit cells [0,1], [1,2].

    The face form is minus the symmetric part of the solver's own
    interior-face blocks, so it tests the DDG form the solver runs.
    """
    n = basis.n_nodes
    minus_flux, minus_avg, plus_flux, plus_avg, upper, lower = \
        _interior_face(basis, flux, 1.0)
    F = np.block([[minus_flux - minus_avg, upper],
                  [lower, -plus_flux - plus_avg]])
    face = -0.5 * (F + F.T)
    grad = np.zeros((2 * n, 2 * n))
    gblock = 2.0 * basis.diff.T @ basis.mass @ basis.diff
    grad[:n, :n] = gblock
    grad[n:, n:] = gblock
    jump = np.concatenate([-basis.trace_right[0], basis.trace_left[0]])
    return grad, face, np.outer(jump, jump), jump


def check_admissibility(
    flux: FluxParams,
    N: int,
    gamma: float = 0.5,
    mu_pen: float = 0.25,
) -> AdmissibilityReport:
    """Exact check of the flux admissibility inequality.

    Over two-cell degree-N polynomials u, asks whether

        G(u) = gamma (u', u') + (u')*[u] + {u'}[u] - mu_pen [u]^2 >= 0

    on unit cells (h = 1), with the face terms of ``assemble_q_operator``.
    ``min_value`` is the smallest eigenvalue of G in the DOF coordinates, and
    its unit eigenvector is the witness of a violation.  ``min_ratio`` is the
    minimum of (G(u) + mu_pen [u]^2) / [u]^2 over u with [u] != 0, so the
    pair is admissible exactly when min_ratio >= mu_pen.  For beta1 = 0,
    min_ratio = beta0 - N^2 / (2 gamma).
    """
    if not 0.0 < gamma < 1.0 or not 0.0 < mu_pen <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1) and mu_pen in (0, 1], "
                         f"got {gamma:g} and {mu_pen:g}")

    grad, face, pen, jump = _two_cell_forms(build_basis(N), flux)
    numer = gamma * grad + face
    vals, vecs = np.linalg.eigh(numer - mu_pen * pen)
    min_value = float(vals[0])

    # minimize numer over u = u0 + Z y with [u0] = 1, where Z spans the
    # jump-free DOFs less the constants (numer maps constants to zero, and
    # they are jump-free since the nodal basis sums to one); on Z, numer is
    # gamma * grad, which is positive definite there
    u0 = jump / (jump @ jump)
    Z = np.linalg.svd(np.vstack([jump, np.ones_like(jump)]))[2][2:].T
    b = Z.T @ numer @ u0
    y = np.linalg.solve(Z.T @ numer @ Z, b)
    min_ratio = float(u0 @ numer @ u0 - b @ y)

    admissible = min_value >= -1e-10
    return AdmissibilityReport(min_ratio, min_value, admissible, gamma, mu_pen,
                               None if admissible else vecs[:, 0])
