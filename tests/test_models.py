"""Problem families and the named examples: manufactured forcings and exact solutions."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from ddgfrac.ddg_spatial import assemble_q_operator, default_flux
from ddgfrac.fracops import assemble_frac_operator, riesz_frac_deriv_poly
from ddgfrac.meshbasis import (
    FieldVector,
    build_basis,
    build_mesh,
    global_mass_matrix,
    l2_norm,
    mass_solve_mat,
    project,
)
from ddgfrac.models import (
    EXAMPLES,
    MATRIX_FREE_MIN_DOF,
    BlockOperator,
    ProblemSpec,
    build_problem,
    make_example,
)
from ddgfrac.specfun import gamma_fn
from ddgfrac.timestep import RunControl, integrate

RIESZ_X11_A11_X1 = -44.458853207226804721


def test_zero_state_unforced_families():
    for name, alpha in (("ex5", 1.4), ("nls_soliton", 1.5), ("manakov", 2.0)):
        spec = make_example(name, alpha, 8, 1)
        spec.forcing = ()
        prob = build_problem(spec)
        z = np.zeros(spec.n_components * prob.n, dtype=complex if spec.is_complex else float)
        assert np.abs(prob.rhs(0.3, z)).max() == 0.0


def test_manufactured_rhs_consistency_refines():
    # residual of the projected exact state against the projected time
    # derivative shrinks under refinement (strong-norm rate is reduced by
    # the weak q-recovery; the solution error itself converges at N + 1)
    for N, floor in ((1, 1.5), (2, 1.7)):
        res = []
        for K in (8, 16, 32):
            spec = make_example("ex1", 1.3, K, N)
            prob = build_problem(spec)
            r = prob.rhs(0.0, prob.initial_state())
            expect = project(lambda x: -((x**2 - 1.0) ** 4), prob.mesh, prob.basis)
            res.append(l2_norm(FieldVector(r - expect.values, prob.mesh, prob.basis)))
        orders = [math.log2(res[i - 1] / res[i]) for i in (1, 2)]
        assert min(orders) >= floor


def _complex_normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def test_nls_linear_case_matches_hand_build():
    # f == 1 with nl_eps multiplying u reduces to the linear equation
    # u_t = i (eps E u + nl_eps u)
    spec = make_example("ex7", 1.5, 6, 2)
    spec.forcing = ()
    spec.nonlinearity = lambda rho: [np.ones_like(r) for r in rho]
    prob = build_problem(spec)
    u = _complex_normal(np.random.default_rng(0), prob.n)
    r = prob.rhs(0.0, u)
    want = 1j * (spec.eps * (prob.E @ u) + spec.nl_eps * u)
    assert r.dtype == complex
    assert r.real == pytest.approx(want.real, rel=1e-12, abs=1e-12)
    assert r.imag == pytest.approx(want.imag, rel=1e-12, abs=1e-12)


def test_nls_semidiscrete_norm_balance():
    # |Re <u, u_t>| stays below 1e-8 of the squared norm (unforced).  This
    # holds by parity, not by structure: the soliton's real part is even and
    # its imaginary part odd, and E is not self-adjoint in the L2 product
    # (test_schrodinger_term_conserves_the_g_norm checks the identity that
    # does hold)
    spec = make_example("nls_soliton", 1.5, 96, 2)
    prob = build_problem(spec)
    s = prob.initial_state()
    r = prob.rhs(0.0, s)
    M = 0.5 * prob.mesh.dx * prob.basis.mass
    K = prob.mesh.K

    def inner(a, b):
        return complex(np.einsum("ki,ij,kj->", a.reshape(K, -1).conj(), M, b.reshape(K, -1)))

    drift = inner(s, r).real
    norm2 = inner(s, s).real
    assert norm2 > 0.0 and abs(drift) <= 1e-8 * norm2


def test_schrodinger_term_conserves_the_g_norm():
    # with beta1 = 0, A is symmetric, so G E = A with G = M B^-1 M (G = M at
    # alpha = 2): E is self-adjoint in the G product and Re <u, i E u>_G = 0
    # on any complex state.  In the L2 product M the rate is not zero for
    # alpha < 2, so the check depends on G.
    rng = np.random.default_rng(5)
    for alpha in (1.1, 1.5, 2.0):
        for N in (1, 2, 3):
            prob = build_problem(make_example("ex7", alpha, 16, N))
            assert prob.spec.flux.beta1 == 0.0
            M = global_mass_matrix(prob.mesh, prob.basis)
            G = M if alpha == 2.0 else M @ np.linalg.solve(
                assemble_frac_operator(prob.mesh, prob.basis, alpha).B, M)
            for _ in range(3):
                u = _complex_normal(rng, prob.n)
                re, im = prob.apply_E(np.stack([u.real, u.imag]))
                iEu = 1j * (re + 1j * im)

                def rate(W):
                    scale = np.sqrt((u.conj() @ W @ u).real * (iEu.conj() @ W @ iEu).real)
                    return abs((u.conj() @ W @ iEu).real) / scale

                assert rate(G) <= 1e-12
                if alpha < 2.0:
                    assert rate(M) > 1e-4


def test_stacked_forcing_is_the_sum_of_its_terms():
    # g = T(t) @ H, H stacking the projected profiles, on a zero state with
    # no other term left: rhs(t, 0) = g
    for name in ("ex1", "ex2", "ex4", "ex7"):
        spec = make_example(name, 1.4, 12, 3)
        spec.conv = None
        prob = build_problem(spec)
        H = prob.forcing[1]
        assert H.shape == (len(spec.forcing), prob.n)
        z = np.zeros(prob.n, dtype=complex if spec.is_complex else float)
        for t in (0.0, 0.3, 0.9):
            want = sum(f(t) * h.project_onto(prob.mesh, prob.basis, spec.alpha)
                       for f, h in spec.forcing)
            assert _rel(prob.rhs(t, z), want) <= 1e-14


def test_gauge_covariance_of_cubic_term():
    # rhs(e^{i theta} u) = e^{i theta} rhs(u)
    spec = make_example("nls_soliton", 1.5, 24, 2)
    prob = build_problem(spec)
    u = _complex_normal(np.random.default_rng(4), prob.n)
    phase = np.exp(0.77j)
    r, rrot = prob.rhs(0.0, u), prob.rhs(0.0, phase * u)
    want = phase * r
    assert rrot.real == pytest.approx(want.real, rel=1e-11, abs=1e-11)
    assert rrot.imag == pytest.approx(want.imag, rel=1e-11, abs=1e-11)


def test_coupled_symmetric_reduction_stays_equal():
    spec = make_example("manakov", 1.6, 32, 2)   # identical fields, no coupling
    prob = build_problem(spec)
    s = prob.initial_state()
    n = prob.n
    # mirror the second field onto the first so both complex fields coincide
    s[n:] = s[:n]
    ctrl = RunControl(t0=0.0, T=0.2, cfl_c=0.05)
    out, _, _, _ = integrate(prob.rhs, s, ctrl, prob.mesh.dx, 1.6)
    assert np.array_equal(out[:n], out[n:])


def test_exact_library_values():
    ex1 = make_example("ex1", 1.3, 4, 1).exact
    xs = np.linspace(-1, 1, 7)
    assert ex1[0](xs, 0.0) == pytest.approx((xs**2 - 1) ** 4, abs=1e-14)

    # the colliding soliton pair (ex9): manakov's reference at alpha = 2
    ex9 = make_example("manakov", 2.0, 4, 1)
    ics = ex9.ic
    assert len(ex9.exact) == len(ics) == 2
    for comp, ic in zip(ex9.exact, ics):
        assert np.iscomplexobj(ic(xs))
        assert np.abs(comp(xs, 0.0) - ic(xs)).max() <= 1e-14

    ex7 = make_example("ex7", 1.5, 4, 1).exact
    assert len(ex7) == 1
    for t in (0.0, 0.4, 1.3):  # |exp(-it)| = 1, so the modulus is static
        val = complex(ex7[0](0.3, t))
        assert val == pytest.approx(np.exp(-1j * t) * (0.3**2 - 1.0) ** 5, rel=1e-12)
        assert abs(val) == pytest.approx(abs(0.3**2 - 1.0) ** 5, rel=1e-12)


def _profile(h, alpha, domain, xs):
    """h(xs) = poly(xs) + frac_scale (-lap)^(alpha/2) base(xs) of a ForcingProfile."""
    frac = 0.0 if h.base is None else riesz_frac_deriv_poly(alpha, h.base, *domain, xs)
    return np.polynomial.polynomial.polyval(xs, h.poly) + h.frac_scale * frac


def test_forcing_ex1_classical_limit():
    spec = make_example("ex1", 2.0, 4, 1)
    (tf, h), = spec.forcing   # data vanish at +-1: no lift term
    xs = np.linspace(-0.9, 0.9, 5)
    u0 = (xs**2 - 1) ** 4
    d2 = np.polynomial.polynomial.polyval(
        xs, np.polynomial.polynomial.polyder(
            np.polynomial.polynomial.polypow([-1.0, 0.0, 1.0], 4), 2))
    assert abs(tf(0.0)) == pytest.approx(1.0)
    assert tf(0.0) * _profile(h, 2.0, spec.domain, xs) == pytest.approx(
        -u0 - spec.eps * d2, rel=1e-12)


def test_forcing_ex1_even_symmetry():
    # even base polynomial: the two one-sided derivatives agree at x = 0
    c = np.polynomial.polynomial.polypow([-1.0, 0.0, 1.0], 4)
    left_plus_right = riesz_frac_deriv_poly(1.6, c, -1.0, 1.0, np.array([-0.37, 0.37]))
    assert abs(left_plus_right[0] - left_plus_right[1]) <= 1e-11


def test_forcing_ex2_anchor_value():
    alpha = 1.1
    # the first term is the residual of exp(-t) x^11; the second lifts the
    # boundary value u(1) = 1
    spec = make_example("ex2", alpha, 4, 1)
    (tf, h), _lift = spec.forcing
    eps = gamma_fn(12.0 - alpha) / gamma_fn(12.0)
    want = -1.0 + eps * RIESZ_X11_A11_X1
    got = tf(0.0) * _profile(h, alpha, spec.domain, np.array([1.0]))[0]
    assert got == pytest.approx(want, rel=1e-10)


def test_forcing_unknown_name():
    with pytest.raises(KeyError):
        make_example("nope", 1.5, 4, 1)


def test_every_example_builds():
    for name in EXAMPLES:
        for alpha in (1.3, 2.0):
            spec = make_example(name, alpha, 6, 2)
            prob = build_problem(spec)
            r = prob.rhs(0.1, prob.initial_state())
            assert r.shape == (spec.n_components * prob.n,) and np.isfinite(r).all()


def test_cross_coupling_sets_the_coupling():
    # one key couples the two fields: the linear w2 of coupled_strong and
    # the nonlinear beta of manakov
    strong = make_example("coupled_strong", 1.6, 4, 1, cross_coupling=0.0175)
    assert strong.coupling == ((1.0, 0.0175), (0.0175, 1.0))
    assert make_example("coupled_strong", 1.6, 4, 1).coupling == ((1.0, 1.0), (1.0, 1.0))
    rho = [np.array([2.0, 0.5]), np.array([3.0, 7.0])]
    f1, f2 = make_example("manakov", 1.6, 4, 1, cross_coupling=0.3).nonlinearity(rho)
    assert np.array_equal(f1, rho[0] + 0.3 * rho[1])
    assert np.array_equal(f2, 0.3 * rho[0] + rho[1])


@pytest.mark.parametrize("name", ["ex2", "ex4", "ex8"])
def test_lift_carries_the_dirichlet_data(name):
    # the lift is the one Dirichlet path: bcs are derived from it and hold
    # the exact solution at both ends, and the lifted initial state plus the
    # lift is the projection of the exact initial data
    spec = make_example(name, 1.5, 6, 2)
    a, b = spec.domain
    for bc, exact in zip(spec.bcs, spec.exact):
        for t in (0.0, 0.3):
            assert bc.left_at(t) == pytest.approx(exact(a, t), abs=1e-15)
            assert bc.right_at(t) == pytest.approx(exact(b, t), abs=1e-15)
    prob = build_problem(spec)
    full = prob.full_fields(prob.initial_state().reshape(spec.n_components, prob.n), 0.0)
    for u, exact in zip(full, spec.exact):
        want = project(lambda x: exact(x, 0.0), prob.mesh, prob.basis).values
        assert np.abs(u - want).max() <= 1e-14
    with pytest.raises(TypeError):
        ProblemSpec(family=spec.family, alpha=1.5, domain=spec.domain, K=6, N=2,
                    T=1.0, bcs=spec.bcs)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(family="weird", alpha=1.5, domain=(0, 1), K=4, N=1, T=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(family="diffusion", alpha=2.5, domain=(0, 1), K=4, N=1, T=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(family="convection_diffusion", alpha=1.5, domain=(0, 1),
                    K=4, N=1, T=1.0)  # missing convective flux
    with pytest.raises(ValueError):
        ProblemSpec(family="nls", alpha=1.5, domain=(0, 1), K=4, N=1, T=1.0)
    # one coefficient of each kind is shared by every field; a tuple is
    # rejected, not broadcast
    spec = ProblemSpec(family="coupled_nls", alpha=1.5, domain=(0, 1), K=4, N=1,
                       T=1.0, eps=0.5, nonlinearity=lambda rho: rho)
    assert spec.eps == 0.5 and spec.nl_eps == 1.0
    assert spec.n_components == 2 and spec.is_complex
    for coeffs in ({"eps": (1.0, 2.0)}, {"nl_eps": (1.0, 2.0)}):
        with pytest.raises(TypeError):
            ProblemSpec(family="coupled_nls", alpha=1.5, domain=(0, 1), K=4, N=1,
                        T=1.0, nonlinearity=lambda rho: rho, **coeffs)


def test_fields_drive_roles_norms_and_errors():
    for name, roles, dtype in (("ex1", ("u",), float), ("ex7", ("u",), complex),
                               ("ex8", ("u1", "u2"), complex)):
        spec = make_example(name, 1.5, 8, 2)
        prob = build_problem(spec)
        assert prob.roles == roles and spec.n_components == len(roles)
        s = prob.initial_state()
        assert s.dtype == dtype and s.size == len(roles) * prob.n
        comps = prob.full_fields(s.reshape(spec.n_components, prob.n), 0.0)
        # a complex field's squared norm is that of its real part plus its
        # imaginary part
        want = [sum(l2_norm(FieldVector(part, prob.mesh, prob.basis)) ** 2
                    for part in ((c.real, c.imag) if spec.is_complex else (c,)))
                for c in comps]
        assert prob.l2_norms_squared(s) == pytest.approx(want, rel=1e-12)
        errs = prob.field_errors(s, 0.0)
        assert len(errs) == len(roles) and all(0.0 <= e < 1e-2 for e in errs)


def test_epsilon_values():
    def eps(name, alpha):
        return make_example(name, alpha, 4, 1).eps

    assert eps("ex1", 1.1) == pytest.approx(gamma_fn(7.9) / gamma_fn(9.0), rel=1e-14)
    assert eps("ex1", 1.1) == pytest.approx(0.10224973919358734, rel=1e-12)
    assert eps("ex4", 1.2) == pytest.approx(gamma_fn(3.8) / gamma_fn(5.0), rel=1e-14)
    assert eps("ex8", 1.1) == pytest.approx(gamma_fn(4.9) / (2 * gamma_fn(6.0)), rel=1e-14)


def test_stable_dt_cap_scales_with_the_family_coefficient():
    # cap = safety / (1.15 |eps| rho(E)) on a fixed mesh, so the cap pins
    # that every family scales the radius by its fractional coefficient
    def cap(name, eps, nl_eps=None):
        spec = make_example(name, 1.5, 16, 2)
        spec.eps = eps
        if nl_eps is not None:
            spec.nl_eps = nl_eps
        return build_problem(spec).stable_dt_cap()

    assert cap("ex1", 0.25) == pytest.approx(4.0 * cap("ex1", 1.0), rel=1e-12)
    # nls: |eps|; the nonlinear coefficient plays no part
    nls = cap("ex7", 0.05)
    assert nls == pytest.approx(20.0 * cap("ex7", 1.0), rel=1e-12)
    assert cap("ex7", 0.05, nl_eps=1000.0) == nls
    # coupled_nls: |eps|, shared by the two fields
    unit = cap("ex8", 1.0)
    assert cap("ex8", 0.5) == pytest.approx(2.0 * unit, rel=1e-12)
    assert cap("ex8", -0.5) == pytest.approx(2.0 * unit, rel=1e-12)


def test_stable_dt_cap_reads_the_physical_speed():
    # ex4 evolves x^4/100 minus its lift x/100; the advective rate reads the
    # physical data, whose largest nodal value is u0(1) = 0.01
    spec = make_example("ex4", 1.5, 16, 2)
    seen = []
    spec.conv = dataclasses.replace(spec.conv, df=lambda u: seen.append(np.abs(u).max()) or u)
    build_problem(spec).stable_dt_cap()
    assert seen == [pytest.approx(0.01, rel=1e-12)]


AGREE_ALPHAS = (1.05, 1.3, 1.5, 1.7, 1.95, 2.0)


def _operators(K, N, alpha):
    mesh, basis = build_mesh(-1.0, 1.0, K), build_basis(N)
    qop = assemble_q_operator(mesh, basis, default_flux(N))
    fop = None if alpha == 2.0 else assemble_frac_operator(mesh, basis, alpha)
    return qop, fop


def _rel(got, want):
    """Norm-wise relative difference over all entries."""
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _ddg_by_blocks(qop, X):
    """M^-1 A applied to the rows of X one block row at a time."""
    mesh, basis = qop.mesh, qop.basis
    c = X.reshape(X.shape[0], mesh.K, -1)
    q = c @ qop.diag.T
    q[:, 1:] += c[:, :-1] @ qop.lower.T
    q[:, :-1] += c[:, 1:] @ qop.upper.T
    q[:, 0] += c[:, 0] @ (qop.first - qop.diag).T
    q[:, -1] += c[:, -1] @ (qop.last - qop.diag).T
    return ((2.0 / mesh.dx) * q @ basis.mass_inv.T).reshape(X.shape)


def _frac_by_offsets(fop, X):
    """M^-1 B applied to the rows of X by summing its blocks offset by offset."""
    mesh, basis, K = fop.mesh, fop.basis, fop.mesh.K
    c = X.reshape(X.shape[0], K, -1)
    p = c @ (fop.left[0] + fop.right[0]).T
    for d in range(1, K):
        p[:, d:] += c[:, :K - d] @ fop.left[d].T
        p[:, :K - d] += c[:, d:] @ fop.right[d].T
    p = (2.0 / mesh.dx) * fop.riesz_scale * p @ basis.mass_inv.T
    return p.reshape(X.shape)


def test_block_operator_matches_dense_view():
    # N = 0..8, every alpha, 1/2/4 components.  For K <= 128 the whole apply
    # is checked against the dense views A and B.  At K = 1024 the dense
    # views would need up to 680 MB, so each stage is checked on its own
    # against block-by-block sums: composed, the two float64 round-offs of
    # this ill-conditioned product (alpha = 1.05 at N = 8) reach 1e-13.
    rng = np.random.default_rng(11)
    worst = 0.0
    for K in (1, 2, 3, 17, 128, 1024):
        for N in range(9):
            for alpha in AGREE_ALPHAS:
                qop, fop = _operators(K, N, alpha)
                mesh, basis = qop.mesh, qop.basis
                op = BlockOperator(qop, fop)
                X = rng.standard_normal((4, K * (N + 1)))
                if K == 1024:
                    q, ref_q = op.ddg(X), _ddg_by_blocks(qop, X)
                    pairs = [(q[:m], ref_q[:m]) for m in (1, 2, 4)]
                    if fop is not None:
                        ref_p = _frac_by_offsets(fop, q)
                        pairs += [(op.frac(q[:m]), ref_p[:m]) for m in (1, 2, 4)]
                else:
                    MA = mass_solve_mat(mesh, basis, qop.A)
                    MB = (np.eye(K * (N + 1)) if fop is None
                          else mass_solve_mat(mesh, basis, fop.B))
                    ref = X @ MA.T @ MB.T
                    pairs = [(op(X[:m]), ref[:m]) for m in (1, 2, 4)]
                worst = max([worst] + [_rel(got, want) for got, want in pairs])
                assert op(X[0]).shape == X[0].shape
    assert worst <= 1e-13


def test_alpha_2_E_is_the_block_ddg_stage():
    # at alpha = 2, E = M^-1 A is applied by BlockOperator's DDG stage alone
    # at every size, never fused into a dense matrix; E, its row apply and
    # the complex-row F agree with the dense mass solve of A
    rng = np.random.default_rng(7)
    for K in (1, 2, 3, 17, 200):
        for N in range(9):
            prob = build_problem(make_example("manakov", 2.0, K, N))
            E = mass_solve_mat(prob.mesh, prob.basis, prob.qop.A)
            assert isinstance(prob.E, LinearOperator)
            assert isinstance(prob.apply_E, BlockOperator)
            assert prob.apply_E.symbol is None
            assert _rel(prob.E @ np.eye(prob.n), E) <= 1e-13
            X = rng.standard_normal((4, prob.n))
            for m in (1, 2, 4):
                assert _rel(prob.apply_E(X[:m]), X[:m] @ E.T) <= 1e-13
            assert _rel(prob.apply_E(X[0]), E @ X[0]) <= 1e-13
            comps = X[:2] + 1j * X[2:]
            assert _rel(prob._frac_apply(comps), comps @ E.T) <= 1e-13


@pytest.mark.parametrize("name,alpha", [("ex1", 1.5), ("ex7", 1.1), ("manakov", 2.0)])
def test_problem_above_crossover_matches_dense_path(name, alpha):
    spec = make_example(name, alpha, 300, 2)
    prob = build_problem(spec)
    assert prob.n >= MATRIX_FREE_MIN_DOF and isinstance(prob.E, LinearOperator)
    mesh, basis, qop = prob.mesh, prob.basis, prob.qop
    MB = (np.eye(prob.n) if alpha == 2.0 else
          mass_solve_mat(mesh, basis, assemble_frac_operator(mesh, basis, alpha).B))
    E = MB @ mass_solve_mat(mesh, basis, qop.A)
    dense = dataclasses.replace(prob, E=E, apply_E=lambda X: X @ E.T)

    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, prob.n))
    assert _rel(X @ prob.E.T, X @ E.T) <= 1e-13
    assert _rel(prob.E @ X[0], E @ X[0]) <= 1e-13
    assert prob.stable_dt_cap() == pytest.approx(dense.stable_dt_cap(), rel=1e-13)
    s = prob.initial_state() + 0.1 * rng.standard_normal(spec.n_components * prob.n)
    assert _rel(prob.rhs(0.2, s), dense.rhs(0.2, s)) <= 1e-13
