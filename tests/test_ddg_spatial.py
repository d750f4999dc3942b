"""DDG weak second derivative, fluxes, convection, and admissibility."""

import math

import numpy as np
import pytest
import sympy as sp

from ddgfrac.ddg_spatial import (
    BoundarySpec,
    ConvectionFlux,
    FluxParams,
    _interior_face,
    _two_cell_forms,
    assemble_q_operator,
    check_admissibility,
    convection_rhs,
    default_flux,
)
from ddgfrac.fracops import assemble_frac_operator
from ddgfrac.meshbasis import (
    build_basis,
    build_mesh,
    global_mass_matrix,
    l2_error,
    mass_solve,
    mass_solve_mat,
    project,
)
from ddgfrac.models import BlockOperator, make_example


def _solver_flux(traces_minus, traces_plus, h, flux):
    """(du/dx)* at an interior face, from the face blocks the solver assembles.

    Each side is the quadratic with the given (u, u', u'') face traces; its
    DOFs meet the flux weights of the minus and plus cell, which the blocks
    carry as minus_flux = outer(vr, w_minus) and plus_flux = outer(vl,
    w_plus).  On LGL nodes vr and vl pick the end DOFs.
    """
    basis = build_basis(2)
    minus_flux, _, plus_flux, _, _, _ = _interior_face(basis, flux, h)
    w_minus, w_plus = minus_flux[-1], plus_flux[0]
    physical = (2.0 / h) ** np.arange(3)[:, None]
    cm = np.linalg.solve(physical * basis.trace_right, traces_minus)
    cp = np.linalg.solve(physical * basis.trace_left, traces_plus)
    return w_minus @ cm + w_plus @ cp


def test_flux_continuous_data():
    traces = (1.3, 0.7, -2.0)
    got = _solver_flux(traces, traces, 0.25, FluxParams(2.0, 0.1))
    assert got == pytest.approx(0.7, rel=1e-15)


def test_flux_jump_example():
    got = _solver_flux((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.5, FluxParams(1.0, 0.0))
    assert got == pytest.approx(2.0, rel=1e-15)


def test_flux_with_beta1_hand_value():
    # one-sided quadratic data: u- = 1, u'- = 2, u''- = 4; u+ side zero
    flux = FluxParams(1.0, 1.0 / 12.0)
    h = 0.2
    got = _solver_flux((1.0, 2.0, 4.0), (0.0, 0.0, 0.0), h, flux)
    want = 1.0 / h * (0.0 - 1.0) + 0.5 * (2.0 + 0.0) + h / 12.0 * (0.0 - 4.0)
    assert got == pytest.approx(want, rel=1e-14)


def test_flux_side_swap_identity():
    # exchanging sides flips jump terms and keeps averages
    rng = np.random.default_rng(0)
    flux = FluxParams(1.7, 0.09)
    tm, tp = rng.standard_normal(3), rng.standard_normal(3)
    f1 = _solver_flux(tm, tp, 0.3, flux)
    f2 = _solver_flux(tp, tm, 0.3, flux)
    avg = 0.5 * (tm[1] + tp[1])
    assert f1 - avg == pytest.approx(-(f2 - avg), rel=1e-12, abs=1e-13)


def _q(ops, u):
    """q = M^-1 A u, A gathered from its blocks (zero Dirichlet data)."""
    return mass_solve(ops.mesh, ops.basis, ops.A @ u)


def test_q_of_cubic_is_its_second_derivative():
    # u = x (1 - x) (x - 0.3) vanishes at both ends, so the homogeneous
    # closure is consistent and q is u'' = 2.6 - 6x exactly
    mesh, basis = build_mesh(0.0, 1.0, 4), build_basis(3)
    ops = assemble_q_operator(mesh, basis, default_flux(3))
    u = project(lambda x: x * (1.0 - x) * (x - 0.3), mesh, basis)
    want = project(lambda x: 2.6 - 6.0 * x, mesh, basis)
    assert np.abs(_q(ops, u.values) - want.values).max() <= 1e-10


def test_q_of_quadratic_is_two():
    mesh, basis = build_mesh(0.0, 1.0, 5), build_basis(3)
    ops = assemble_q_operator(mesh, basis, default_flux(3))
    u = project(lambda x: x * (x - 1.0), mesh, basis)
    assert np.abs(_q(ops, u.values) - 2.0).max() <= 1e-10


def test_assembly_matches_symbolic_weak_form():
    """Independent sympy assembly of the 4x4 system: K=2 cells on [0,2], N=1."""
    beta0 = 3.0
    mesh, basis = build_mesh(0.0, 2.0, 2), build_basis(1)
    ops = assemble_q_operator(mesh, basis, FluxParams(beta0, 0.0))

    x = sp.Symbol("x")
    # (expression, (cell_left, cell_right)); zero outside the cell
    funcs = [(1 - x, (0, 1)), (x, (0, 1)), (2 - x, (1, 2)), (x - 1, (1, 2))]

    def traces(func, point, side):
        expr, (a, b) = func
        inside = (a < point < b) or (point == a and side == "+") \
            or (point == b and side == "-")
        if not inside:
            return sp.Integer(0), sp.Integer(0)
        return expr.subs(x, point), sp.diff(expr, x).subs(x, point)

    A_sym = sp.zeros(4, 4)
    h = 1
    b0b = sp.Rational(3)   # max(beta0, (N+1)^2/2) = 3 here
    for j, uj in enumerate(funcs):
        for i, phi in enumerate(funcs):
            val = sp.Integer(0)
            if uj[1] == phi[1]:
                a, b = uj[1]
                val -= sp.integrate(sp.diff(uj[0], x) * sp.diff(phi[0], x), (x, a, b))
            # interior face at x = 1
            um, dm = traces(uj, 1, "-")
            up, dp = traces(uj, 1, "+")
            pm, pdm = traces(phi, 1, "-")
            pp, pdp = traces(phi, 1, "+")
            fstar = beta0 / h * (up - um) + (dp + dm) / 2
            val += -(fstar * (pp - pm) + (pdp + pdm) / 2 * (up - um))
            # boundary faces with mirrored ghosts (homogeneous data)
            u0, d0 = traces(uj, 0, "+")
            p0, pd0 = traces(phi, 0, "+")
            val += -((2 * b0b / h * u0 + d0) * p0 + sp.Rational(1, 2) * pd0 * 2 * u0)
            u2, d2 = traces(uj, 2, "-")
            p2, pd2 = traces(phi, 2, "-")
            val += -((-2 * b0b / h * u2 + d2) * (-p2)
                     + sp.Rational(1, 2) * pd2 * (-2 * u2))
            A_sym[i, j] = val
    got = np.array(A_sym.evalf(), dtype=float)
    assert ops.A == pytest.approx(got, abs=1e-12)


def _fused_and_block_E(mesh, basis, N, alpha):
    """E = M^-1 B M^-1 A as the dense fused matrix and as a BlockOperator."""
    ops = assemble_q_operator(mesh, basis, default_flux(N))
    fop = assemble_frac_operator(mesh, basis, alpha)
    E = mass_solve_mat(mesh, basis, fop.B) @ mass_solve_mat(mesh, basis, ops.A)
    return E, BlockOperator(ops, fop)


def test_fractional_diffusion_rhs_zero_and_energy():
    # u_t = eps E u through both applies of E the solver uses
    mesh, basis = build_mesh(-1.0, 1.0, 8), build_basis(2)
    E, op = _fused_and_block_E(mesh, basis, 2, 1.5)
    assert np.abs(0.7 * (E @ np.zeros(24))).max() == 0.0
    assert np.abs(0.7 * op(np.zeros(24))).max() == 0.0

    M = global_mass_matrix(mesh, basis)
    rng = np.random.default_rng(3)
    scale = np.abs(M).max()
    for _ in range(100):
        u = rng.standard_normal(24)
        for r in (E @ u, op(u)):
            assert u @ M @ r <= 1e-10 * scale * (u @ u)


def test_heat_limit_decay_rate():
    # alpha -> 2 on [0, 2]: sin(pi x) decays at rate -eps pi^2
    eps = 0.8
    mesh, basis = build_mesh(0.0, 2.0, 32), build_basis(3)
    E, op = _fused_and_block_E(mesh, basis, 3, 2.0 - 1e-3)
    u = project(lambda x: np.sin(np.pi * x), mesh, basis).values
    M = global_mass_matrix(mesh, basis)
    for r in (eps * (E @ u), eps * op(u)):
        rate = (u @ M @ r) / (u @ M @ u)
        assert rate == pytest.approx(-eps * math.pi**2, rel=0.02)


def test_composed_operator_dissipative():
    for alpha in (1.1, 1.5, 1.9):
        for N in (1, 2, 3):
            mesh, basis = build_mesh(-1.0, 1.0, 16), build_basis(N)
            E, _op = _fused_and_block_E(mesh, basis, N, alpha)
            assert np.linalg.eigvals(E).real.max() <= 1e-8


def test_convection_consistency_constant_state():
    mesh, basis = build_mesh(0.0, 1.0, 6), build_basis(2)
    conv = ConvectionFlux(f=lambda u: np.exp(u) + u**3, df=lambda u: np.exp(u) + 3 * u**2)
    c = 1.37
    u = project(lambda x: 0.0 * x + c, mesh, basis)
    rhs = convection_rhs(u, conv, BoundarySpec(left=c, right=c), 0.0)
    assert np.abs(rhs.values).max() <= 1e-12 * (1.0 + abs(conv.f(np.array([c]))[0]))


def test_convection_lax_friedrichs_value():
    # equal traces reproduce f(u): flux consistency through a linear profile
    mesh, basis = build_mesh(0.0, 1.0, 4), build_basis(1)
    conv = ConvectionFlux(f=lambda u: 0.5 * u * u, df=lambda u: u)
    u = project(lambda x: np.ones_like(x), mesh, basis)
    rhs = convection_rhs(u, conv, BoundarySpec(left=1.0, right=1.0), 0.0)
    assert np.abs(rhs.values).max() <= 1e-12


def _convection_face_by_face(u, conv, bc, t):
    """-M^-1 of the weak divergence, accumulated one face at a time: the
    literal formula the fused kernel reproduces."""
    mesh, basis = u.mesh, u.basis
    cells = u.by_cell
    vl, vr = basis.trace_left[0], basis.trace_right[0]
    minus = np.concatenate([[bc.left_at(t)], cells @ vr])
    plus = np.concatenate([cells @ vl, [bc.right_at(t)]])
    speed = np.abs(conv.df(np.concatenate([minus, plus]))).max()
    weak = -(conv.f(cells) @ (basis.mass @ basis.diff))
    for j in range(mesh.K + 1):
        fstar = 0.5 * (conv.f(minus[j]) + conv.f(plus[j])) - 0.5 * speed * (plus[j] - minus[j])
        if j > 0:           # face j is the right end of cell j - 1
            weak[j - 1] += fstar * vr
        if j < mesh.K:      # and the left end of cell j
            weak[j] -= fstar * vl
    return -(2.0 / mesh.dx) * weak @ basis.mass_inv.T


def test_convection_fused_kernel_matches_face_by_face():
    # ex3 (boundary data zero up to round-off) and ex4 (lifted: data
    # exp(-t) / 100 at x = 1) states plus noise, for Burgers and a flux
    # with no symmetry
    fluxes = (ConvectionFlux(f=lambda u: 0.5 * u * u, df=lambda u: u),
              ConvectionFlux(f=lambda u: np.exp(u) + u**3, df=lambda u: np.exp(u) + 3 * u**2))
    rng = np.random.default_rng(11)
    t = 0.3
    for name in ("ex3", "ex4"):
        for K in (1, 7, 64, 256):
            for N in range(1, 9):
                spec = make_example(name, 1.5, K, N)
                mesh, basis = build_mesh(*spec.domain, K), build_basis(N)
                u = project(lambda x: spec.exact[0](x, t), mesh, basis)
                u.values += 1e-3 * rng.standard_normal(u.values.size)
                for conv in fluxes:
                    got = convection_rhs(u, conv, spec.bcs[0], t).values
                    want = _convection_face_by_face(u, conv, spec.bcs[0], t).ravel()
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_convection_linear_advection_order():
    conv = ConvectionFlux(f=lambda u: 2.0 * u, df=lambda u: 2.0 + 0.0 * u)
    errs = []
    for K in (8, 16, 32):
        mesh, basis = build_mesh(-1.0, 1.0, K), build_basis(2)
        u = project(lambda x: np.sin(np.pi * x), mesh, basis)
        rhs = convection_rhs(u, conv, BoundarySpec(
            left=math.sin(-math.pi), right=math.sin(math.pi)), 0.0)
        errs.append(l2_error(rhs, lambda x: -2.0 * np.pi * np.cos(np.pi * x)))
    order = math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
    # the strong-norm residual of the weak divergence converges at order N
    # (the evolved solution gains the extra order); N = 2 here
    assert min(order) >= 1.9


def test_assemble_rejects_zero_penalty():
    mesh, basis = build_mesh(0.0, 1.0, 2), build_basis(1)
    with pytest.raises(ValueError):
        assemble_q_operator(mesh, basis, FluxParams(0.0, 0.0))
    with pytest.raises(ValueError):
        FluxParams(-1.0, 0.0)


def test_admissibility_default_flux_passes():
    rep = check_admissibility(default_flux(2), 2, gamma=0.5, mu_pen=0.25)
    assert rep.admissible
    assert rep.witness is None
    assert rep.min_ratio >= 0.25


def test_admissibility_zero_flux_fails_with_witness():
    rep = check_admissibility(FluxParams(0.0, 0.0), 1, gamma=0.5, mu_pen=0.25)
    assert not rep.admissible
    assert rep.witness is not None
    # witness really violates the inequality
    assert rep.min_value < -1e-6


def test_admissibility_penalty_only_degree_zero():
    rep = check_admissibility(FluxParams(1.0, 0.0), 0, gamma=0.5, mu_pen=0.25)
    assert rep.admissible


def test_admissibility_parameter_guard():
    with pytest.raises(ValueError):
        check_admissibility(FluxParams(1.0, 0.0), 1, gamma=1.5)
    with pytest.raises(ValueError):
        check_admissibility(FluxParams(1.0, 0.0), 1, mu_pen=0.0)


@pytest.mark.parametrize("N", range(7))
def test_admissibility_min_ratio_closed_form_beta1_zero(N):
    # with beta1 = 0 the exact constrained minimum is beta0 - N^2 / (2 gamma)
    for gamma in (0.25, 0.5, 0.75):
        for beta0 in (0.0, 0.7, 3.0, 12.5, 80.0):
            rep = check_admissibility(FluxParams(beta0, 0.0), N, gamma=gamma)
            expected = beta0 - N**2 / (2.0 * gamma)
            assert abs(rep.min_ratio - expected) <= 1e-10 * max(1.0, abs(beta0))


@pytest.mark.parametrize("N", range(7))
def test_admissibility_threshold_beta1_zero(N):
    # admissible exactly when beta0 >= N^2 / (2 gamma) + mu_pen
    for gamma in (0.25, 0.5, 0.75):
        for mu_pen in (0.25, 1.0):
            edge = N**2 / (2.0 * gamma) + mu_pen
            for beta0 in (max(0.0, edge - 0.5), edge + 0.5, 2.0 * edge):
                rep = check_admissibility(FluxParams(beta0, 0.0), N,
                                          gamma=gamma, mu_pen=mu_pen)
                assert rep.admissible == (beta0 >= edge), (gamma, mu_pen, beta0)


@pytest.mark.parametrize("beta0, beta1, N, min_value, min_ratio, admissible", [
    (0.0, 0.0, 1, -2.09629, -1.0, False),
    (1.0, 1.0 / 12.0, 2, -3.33400, -25.0 / 12.0, False),
    (4.5, 0.0, 2, 0.0, 0.5, True),
    (8.0, 0.0, 3, -0.822754, -1.0, False),
    (2.0, 0.0, 2, -2.67307, -2.0, False),
    (1.0, 0.0, 0, 0.0, 1.0, True),
])
def test_admissibility_exact_minimum(beta0, beta1, N, min_value, min_ratio,
                                     admissible):
    flux = FluxParams(beta0, beta1)
    rep = check_admissibility(flux, N)
    assert rep.min_ratio == pytest.approx(min_ratio, abs=1e-12)
    assert rep.min_value == pytest.approx(min_value, rel=1e-5, abs=1e-12)
    assert rep.admissible == admissible

    grad, face, pen, _ = _two_cell_forms(build_basis(N), flux)
    G = 0.5 * grad + face - 0.25 * pen
    U = np.random.default_rng(0).standard_normal((1000, G.shape[0]))
    rayleigh = np.einsum("si,ij,sj->s", U, G, U) / np.einsum("si,si->s", U, U)
    assert rep.min_value <= rayleigh.min()
    if not admissible:
        w = rep.witness
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
        assert abs(w @ G @ w - rep.min_value) <= 1e-12


@pytest.mark.parametrize("beta0, beta1", [(1.0, 1.0 / 12.0), (4.5, 0.0), (0.3, 0.7)])
@pytest.mark.parametrize("N", range(5))
def test_admissibility_face_form_is_the_solvers(N, beta0, beta1):
    # the checker's face form is minus the symmetric part of the interior
    # face blocks that assemble_q_operator uses (K = 3 unit cells, h = 1)
    flux, basis = FluxParams(beta0, beta1), build_basis(N)
    ops = assemble_q_operator(build_mesh(0.0, 3.0, 3), basis, flux)
    face = _two_cell_forms(basis, flux)[1]
    n = basis.n_nodes
    D, M = basis.diff, basis.mass
    tol = 5e-15 * np.abs(ops.diag).max()
    assert np.abs(face[:n, n:] + 0.5 * (ops.upper + ops.lower.T)).max() <= tol
    diag_sum = face[:n, :n] + face[n:, n:]
    want = -0.5 * (ops.diag + ops.diag.T) - 2.0 * D.T @ M @ D
    assert np.abs(diag_sum - want).max() <= tol
