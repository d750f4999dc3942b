"""The block fractional-integral operator and Riesz derivatives of polynomials."""

import math

import numpy as np
import pytest

from ddgfrac.ddg_spatial import assemble_q_operator, default_flux
from ddgfrac.fracops import (
    assemble_frac_operator,
    project_riesz_poly,
    riesz_frac_deriv_poly,
)
from ddgfrac.meshbasis import (
    FieldVector,
    build_basis,
    build_mesh,
    l2_error,
    mass_solve,
    mass_solve_mat,
    project,
)
from ddgfrac.models import BlockOperator
from ddgfrac.specfun import (
    gamma_fn,
    gauss_jacobi,
    gauss_legendre,
    polynomial_in_shifted_basis,
)

# oracles computed with 40-digit adaptive quadrature
B11_MU05 = 1.0638460810704871412          # 1/(Gamma(2.5) cos(pi/4))
RIESZ_X2_A15_X05 = -2.2567583341910251478
RIESZ_X11_A11_X1 = -44.458853207226804721
RIESZ_X13_A11_X1 = -53.469902862750574191
LEFT_CAPUTO_X11_A11_X1 = 13.909793835549355


def test_operator_single_cell_closed_form():
    mesh, basis = build_mesh(0.0, 1.0, 1), build_basis(0)
    op = assemble_frac_operator(mesh, basis, 1.5)
    assert op.B[0, 0] == pytest.approx(B11_MU05, abs=1e-11)
    assert op.riesz_scale == pytest.approx(1.0 / (2.0 * math.cos(0.25 * math.pi)))


def test_operator_symmetry_and_psd_random():
    rng = np.random.default_rng(42)
    for _ in range(5):
        K = int(rng.integers(3, 14))
        N = int(rng.integers(0, 5))
        alpha = float(rng.uniform(1.05, 1.95))
        mesh, basis = build_mesh(-1.0, 1.0, K), build_basis(N)
        B = assemble_frac_operator(mesh, basis, alpha).B
        assert np.abs(B - B.T).max() <= 1e-10 * np.abs(B).max()
        eigs = np.linalg.eigvalsh(0.5 * (B + B.T))
        assert eigs.min() >= -1e-10 * np.abs(eigs).max()


def test_operator_classical_limit():
    mesh, basis = build_mesh(-1.0, 1.0, 10), build_basis(3)
    B = assemble_frac_operator(mesh, basis, 2.0 - 1e-3).B
    M = np.kron(np.eye(mesh.K), 0.5 * mesh.dx * basis.mass)
    assert np.abs(B - M).max() <= 5e-3 * np.abs(M).max()


def test_operator_alpha_range():
    mesh, basis = build_mesh(0.0, 1.0, 2), build_basis(1)
    for alpha in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(ValueError):
            assemble_frac_operator(mesh, basis, alpha)


def test_operator_blocks_have_no_size_cap():
    # 24,576 DOFs: past the old dense cap, yet only K blocks are stored
    mesh, basis = build_mesh(-1.0, 1.0, 8192), build_basis(2)
    op = assemble_frac_operator(mesh, basis, 1.5)
    assert op.left.shape == (8192, 3, 3)
    assert op.toeplitz_blocks().shape == (2 * 8192 - 1, 3, 3)
    assert np.all(np.isfinite(op.left))


def test_project_riesz_poly_classical_limit_is_exact():
    # at alpha = 2 the image f = -p'' is a polynomial: its projection matches
    # a 30-point Legendre projection to round-off, in L2 relative to ||f||,
    # on ex1's and ex7's u0 and on x^5 and x^11
    P = np.polynomial.polynomial
    for c in (P.polypow([-1.0, 0.0, 1.0], 4), P.polypow([-1.0, 0.0, 1.0], 5),
              [0.0] * 5 + [1.0], [0.0] * 11 + [1.0]):
        d2 = P.polyder(c, 2)
        norm = math.sqrt(np.diff(P.polyval([-1.0, 1.0], P.polyint(P.polymul(d2, d2))))[0])
        for K in (1, 4, 16, 64):
            mesh = build_mesh(-1.0, 1.0, K)
            for N in range(1, 9):
                basis = build_basis(N)
                want = project(lambda x: -P.polyval(x, d2), mesh, basis, n_quad=30).values
                got = project_riesz_poly(2.0, c, mesh, basis)
                err = l2_error(FieldVector(got - want, mesh, basis), np.zeros_like)
                assert err <= 1e-13 * norm


def _far_blocks_by_double_sum(mesh, basis, mu):
    """left[m] for m >= 2, one offset at a time, as the explicit double sum
    over the 14-point tensor Gauss-Legendre rule of

        1/Gamma(mu) int_{cell k} int_{cell k-m} phi_i(x) (x - s)^(mu-1) phi_j(s)."""
    (t, w), h = gauss_legendre(14), mesh.dx
    L = basis.eval_matrix(t)
    s = 0.5 * h * (1.0 + t)
    blocks = np.zeros((mesh.K - 2, basis.n_nodes, basis.n_nodes))
    for m in range(2, mesh.K):
        for g in range(t.size):
            kern = (m * h + s[g] - s) ** (mu - 1.0)
            blocks[m - 2] += w[g] * np.outer(L[g], (w * kern) @ L)
    return (0.25 * h * h / gamma_fn(mu)) * blocks


def test_far_blocks_match_double_sum():
    # the separated-cell blocks, formed as two matrix products over all
    # offsets, against the quadrature they stand for summed offset by offset
    for K in (3, 17, 128):
        for N in range(9):
            mesh, basis = build_mesh(-1.0, 1.0, K), build_basis(N)
            for alpha in (1.05, 1.5, 1.95):
                got = assemble_frac_operator(mesh, basis, alpha).left[2:]
                want = _far_blocks_by_double_sum(mesh, basis, 2.0 - alpha)
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_dense_view_gathers_toeplitz_blocks():
    mesh, basis = build_mesh(-1.0, 1.0, 5), build_basis(2)
    op = assemble_frac_operator(mesh, basis, 1.3)
    B, n, s = op.B, 3, op.riesz_scale
    assert np.array_equal(B[3 * n:4 * n, 1 * n:2 * n], s * op.left[2])
    assert np.array_equal(B[1 * n:2 * n, 3 * n:4 * n], s * op.right[2])
    assert np.array_equal(B[2 * n:3 * n, 2 * n:3 * n], s * (op.left[0] + op.right[0]))


def _frac_applies(mesh, basis, alpha):
    """M^-1 B as the dense matrix and as the FFT stage of ``BlockOperator``,
    which acts along the cell axis of an (n, rows, K) array."""
    op = assemble_frac_operator(mesh, basis, alpha)
    MB = mass_solve_mat(mesh, basis, op.B)
    block = BlockOperator(assemble_q_operator(mesh, basis, default_flux(basis.N)), op)
    K, n = mesh.K, basis.n_nodes

    def fft_stage(q):
        return block._frac(q.reshape(K, n).T[:, None, :])[:, 0].T.ravel()

    return op, (lambda q: MB @ q, fft_stage)


def test_apply_frac_zero_linearity_psd():
    mesh, basis = build_mesh(-1.0, 1.0, 8), build_basis(2)
    op, applies = _frac_applies(mesh, basis, 1.4)
    M = np.kron(np.eye(mesh.K), 0.5 * mesh.dx * basis.mass)
    scale = np.linalg.norm(op.B, 2)
    for apply in applies:
        assert np.abs(apply(np.zeros(24))).max() == 0.0

        rng = np.random.default_rng(1)
        q1, q2 = rng.standard_normal(24), rng.standard_normal(24)
        want = 2.0 * apply(q1) - 3.0 * apply(q2)
        assert apply(2.0 * q1 - 3.0 * q2) == pytest.approx(want, rel=1e-12, abs=1e-12)

        for _ in range(100):
            q = rng.standard_normal(24)
            assert apply(q) @ M @ q >= -1e-10 * scale * (q @ q)


def test_apply_frac_boundedness():
    mesh, basis = build_mesh(0.0, 1.0, 12), build_basis(2)
    op, applies = _frac_applies(mesh, basis, 1.7)
    # measure the operator constant once from the exact L2 operator norm
    M = np.kron(np.eye(mesh.K), 0.5 * mesh.dx * basis.mass)
    R = np.linalg.cholesky(M)
    C = np.linalg.norm(np.linalg.solve(R, op.B @ np.linalg.inv(R.T)), 2)
    assert math.isfinite(C)
    for apply in applies:
        rng = np.random.default_rng(12)
        for _ in range(100):
            q = rng.standard_normal(36)
            r = apply(q)
            ratio = math.sqrt((r @ M @ r) / (q @ M @ q))
            assert ratio <= C * (1.0 + 1e-10)


def test_riesz_poly_classical_limit():
    got = riesz_frac_deriv_poly(2.0, [0.0, 0.0, 1.0], 0.0, 1.0, np.array([0.1, 0.5]))
    assert got == pytest.approx([-2.0, -2.0], abs=1e-14)


def test_riesz_poly_rejects_orders_outside_the_open_range():
    # alpha = 2 has its classical branch; every other order must lie in (1, 2)
    for alpha in (1.0, 2.5):
        with pytest.raises(ValueError, match=r"order must lie in \(1, 2\)"):
            riesz_frac_deriv_poly(alpha, [0.0, 0.0, 1.0], 0.0, 1.0, 0.5)


def test_riesz_poly_oracle_x2():
    got = riesz_frac_deriv_poly(1.5, [0.0, 0.0, 1.0], 0.0, 1.0, 0.5)
    assert got == pytest.approx(RIESZ_X2_A15_X05, rel=1e-10)


def test_riesz_poly_x11():
    c = np.zeros(12)
    c[11] = 1.0
    # the left-sided term alone at x = 1 is Gamma(12)/Gamma(12 - alpha)
    left_only = gamma_fn(12.0) / gamma_fn(12.0 - 1.1)
    assert left_only == pytest.approx(LEFT_CAPUTO_X11_A11_X1, rel=1e-12)
    got = riesz_frac_deriv_poly(1.1, c, 0.0, 1.0, 1.0)
    assert got == pytest.approx(RIESZ_X11_A11_X1, rel=1e-10)


def test_riesz_poly_x13():
    # past the degree 12 that was once a hard cap, same oracle and tolerance
    c = np.zeros(14)
    c[13] = 1.0
    got = riesz_frac_deriv_poly(1.1, c, 0.0, 1.0, 1.0)
    assert got == pytest.approx(RIESZ_X13_A11_X1, rel=1e-10)


def test_project_riesz_poly_matches_operator_path():
    # independent route: L2-projected exact image vs B applied to projected q
    c = np.polynomial.polynomial.polysub(
        np.polynomial.polynomial.polyfromroots([0.0] * 5), [0.0, 1.0])
    mesh, basis = build_mesh(0.0, 1.0, 12), build_basis(3)
    alpha = 1.3
    d2 = np.polynomial.polynomial.polyder(c, 2)
    qex = project(lambda x: np.polynomial.polynomial.polyval(x, d2), mesh, basis).values
    op = assemble_frac_operator(mesh, basis, alpha)
    via_B = mass_solve(mesh, basis, op.B @ qex)
    via_series = -project_riesz_poly(alpha, c, mesh, basis)
    diff = l2_error(FieldVector(via_B - via_series, mesh, basis), np.zeros_like)
    assert diff <= 1e-12



def _project_riesz_per_cell(alpha, c, mesh, basis):
    """The per-cell projection loop that ``project_riesz_poly`` replaced."""
    a, b = mesh.a, mesh.b
    if alpha == 2.0:
        d2 = np.polynomial.polynomial.polyder(c, 2) if c.size > 2 else np.zeros(1)
        # exact for the degree d2.size - 1 + N integrand
        return project(lambda x: -np.polynomial.polynomial.polyval(x, d2),
                       mesh, basis, n_quad=(d2.size + basis.N) // 2 + 2).values
    mu = 2.0 - alpha
    n, h, K = basis.n_nodes, mesh.dx, mesh.K
    weak = np.zeros((K, n))
    g = np.array([gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - alpha) for p in range(2, c.size)])
    ca = polynomial_in_shifted_basis(c, 1.0, a)[2:] * g
    db = (polynomial_in_shifted_basis(c, 1.0, b) * (-1.0) ** np.arange(c.size))[2:] * g
    jj = np.arange(2, c.size)
    tg, wg = gauss_legendre(16)
    Ls = basis.eval_matrix(tg)
    n_jac = max((c.size - 3 + basis.N) // 2 + 2, 2)
    (tL, wL), (tR, wR) = gauss_jacobi(n_jac, 0.0, mu), gauss_jacobi(n_jac, mu, 0.0)
    LjL, LjR = basis.eval_matrix(tL), basis.eval_matrix(tR)
    for k in range(K):
        x = mesh.boundaries[k] + 0.5 * h * (1.0 + tg)
        if k == 0:
            y = 0.5 * h * (1.0 + tL)
            poly = (y[:, None] ** (jj[None, :] - 2)) @ ca
            weak[k] += (0.5 * h) ** (1.0 + mu) * (wL * poly) @ LjL
        else:
            vals = ((x[:, None] - a) ** (jj[None, :] - alpha)) @ ca
            weak[k] += 0.5 * h * (wg * vals) @ Ls
        if k == K - 1:
            y = 0.5 * h * (1.0 - tR)
            poly = (y[:, None] ** (jj[None, :] - 2)) @ db
            weak[k] += (0.5 * h) ** (1.0 + mu) * (wR * poly) @ LjR
        else:
            vals = ((b - x[:, None]) ** (jj[None, :] - alpha)) @ db
            weak[k] += 0.5 * h * (wg * vals) @ Ls
    return mass_solve(mesh, basis, weak / (2.0 * math.cos(0.5 * math.pi * alpha)))


@pytest.mark.parametrize("degree", [2, 5, 11, 13])
def test_project_riesz_poly_matches_per_cell_loop(degree):
    # all cells at once against the per-cell loop, on a polynomial with
    # every coefficient set and on one that vanishes at both ends
    P = np.polynomial.polynomial
    rng = np.random.default_rng(degree)
    for c in (rng.standard_normal(degree + 1),
              P.polymul(P.polyfromroots([0.0, 1.0]), rng.standard_normal(degree - 1))):
        for K in (1, 2, 3, 16, 128):
            mesh = build_mesh(0.0, 1.0, K) if K % 2 else build_mesh(-1.0, 1.0, K)
            for N in (1, 3, 8):
                basis = build_basis(N)
                for alpha in (1.05, 1.5, 1.95, 2.0):
                    want = _project_riesz_per_cell(alpha, c, mesh, basis)
                    got = project_riesz_poly(alpha, c, mesh, basis)
                    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
