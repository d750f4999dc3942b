"""Problem families and the named examples: manufactured forcings and exact solutions."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.sparse.linalg import LinearOperator

from ddgfrac.ddg_spatial import ConvectionFlux, FluxParams, assemble_q_operator, default_flux
from ddgfrac.fracops import assemble_frac_operator, riesz_frac_deriv_poly
from ddgfrac.meshbasis import (
    FieldVector,
    build_basis,
    build_mesh,
    l2_error,
    mass_solve_mat,
    project,
)
from ddgfrac.models import (
    ARNOLDI_STEPS,
    EXAMPLES,
    FOLD_MIN_DOF,
    MATRIX_FREE_MIN_DOF,
    RK4_RADIUS,
    _BURGERS,
    BlockOperator,
    ForcingProfile,
    ProblemSpec,
    _manufactured,
    build_problem,
    make_example,
)
from ddgfrac.specfun import gamma_fn
from ddgfrac.timestep import RunControl, erk4_step, integrate
from test_ddg_spatial import _convection_face_by_face

RIESZ_X11_A11_X1 = -44.458853207226804721


def test_zero_state_unforced_families():
    for name, alpha in (("ex5", 1.4), ("nls_soliton", 1.5), ("manakov", 2.0)):
        spec = dataclasses.replace(make_example(name, alpha, 8, 1), forcing=())
        prob = build_problem(spec)
        z = np.zeros((spec.n_components, prob.n), dtype=complex if spec.is_complex else float)
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
            res.append(l2_error(FieldVector(r[0] - expect.values, prob.mesh, prob.basis),
                                np.zeros_like))
        orders = [math.log2(res[i - 1] / res[i]) for i in (1, 2)]
        assert min(orders) >= floor


def _complex_normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def test_nls_linear_case_matches_hand_build():
    # no density weight and a coupling c I reduce the equation to the
    # linear u_t = i (eps E u + c u)
    c = 0.7
    spec = dataclasses.replace(make_example("ex7", 1.5, 6, 2), forcing=(),
                               nl_coupling=[[0.0]], coupling=c * np.eye(1))
    prob = build_problem(spec)
    u = _complex_normal(np.random.default_rng(0), (1, prob.n))
    r = prob.rhs(0.0, u)
    want = 1j * (spec.eps * (u @ prob.E.T) + c * u)
    assert r.dtype == complex
    assert r.real == pytest.approx(want.real, rel=1e-12, abs=1e-12)
    assert r.imag == pytest.approx(want.imag, rel=1e-12, abs=1e-12)


def _dense_E(prob):
    """E = M^-1 B M^-1 A as the product of the dense views."""
    mesh, basis, alpha = prob.mesh, prob.basis, prob.spec.alpha
    MB = (np.eye(prob.n) if alpha == 2.0 else
          mass_solve_mat(mesh, basis, assemble_frac_operator(mesh, basis, alpha).B))
    return MB @ mass_solve_mat(mesh, basis, prob.qop.A)


def _per_field_rhs(prob, t, comps):
    """The RHS as a loop over the fields, the reference for the one ``rhs``:
    eps E u + g - f(u)_x for a real field, with the convection term summed
    face by face on the lifted field, and i (eps E u + P(f u) + coupling u)
    + g for a complex one, in complex arithmetic, each factor written as
    sum_k W[j][k] rho_k and each coupling as a sum over the fields.  It
    builds its own Gauss rule, Lagrange values and mass matrix, and applies
    E as ``comps @ _dense_E(prob).T``."""
    spec, basis = prob.spec, prob.basis
    g = sum((f(t) * h.project_onto(prob.mesh, basis, spec.alpha) for f, h in spec.forcing), 0.0)
    F = comps @ _dense_E(prob).T
    nodes = prob.mesh.boundaries[:-1, None] + 0.5 * prob.mesh.dx * (basis.ref_nodes + 1.0)
    full = comps if spec.lift is None else comps + spec.lift[0](t) * P.polyval(
        nodes, spec.lift[1]).ravel()
    if not spec.is_complex:
        conv = 0.0 if spec.conv is None else _convection_face_by_face(
            FieldVector(full[0], prob.mesh, basis), spec.conv, spec.bcs[0], t).ravel()
        return (spec.eps * F[0] + g + conv)[None]
    x, w = np.polynomial.legendre.leggauss(2 * basis.N + 3)
    r = basis.ref_nodes
    L = np.array([[np.prod([(xg - r[k]) / (r[i] - r[k]) for k in range(len(r)) if k != i])
                   for i in range(len(r))] for xg in x])
    back = (w[:, None] * L) @ np.linalg.inv(L.T @ (w[:, None] * L)).T
    W = spec.nl_coupling.tolist()
    at_quad = [u.reshape(prob.mesh.K, -1) @ L.T for u in full]
    rho = [(u * u.conj()).real for u in at_quad]
    out = np.empty_like(F)
    for j, u in enumerate(at_quad):
        f = sum(w * r for w, r in zip(W[j], rho))
        d = spec.eps * F[j] + ((f * u) @ back).ravel()
        if spec.coupling is not None:
            d = d + sum(w * full[k] for k, w in enumerate(spec.coupling[j]))
        out[j] = 1j * d + g
    return out


def _assert_rhs_matches_reference(specs, rng, initial=True):
    """rhs against ``_per_field_rhs`` on the initial state (if ``initial``)
    and a random one, at t = 0 and 0.3, without writing to the state."""
    for spec in specs:
        prob = build_problem(spec)
        assert isinstance(prob.E_columns, BlockOperator) == (
            spec.alpha == 2.0 or prob.n >= MATRIX_FREE_MIN_DOF)
        assert (prob.E_forced is not None) == (
            not spec.is_complex and spec.alpha < 2.0 and prob.n < FOLD_MIN_DOF)
        # distinct random fields, so that no weight multiplies equal rows
        shape = (spec.n_components, prob.n)
        noise = _complex_normal(rng, shape) if spec.is_complex else rng.standard_normal(shape)
        for state in (prob.initial_state(), noise)[not initial:]:
            for t in (0.0, 0.3):
                want = _per_field_rhs(prob, t, state)
                before = state.copy()
                got = prob.rhs(t, state)
                err = np.abs(got - want).max()
                assert got.shape == shape and err <= 1e-13 * np.abs(want).max(), (
                    spec.family, spec.alpha, err)
                # rhs reads the RK4 state: no write may reach it
                assert state.tobytes() == before.tobytes()


def _schrodinger_cases():
    # dense E
    yield make_example("ex7", 1.3, 12, 2)
    yield make_example("ex8", 1.5, 12, 2)     # lifted
    yield make_example("nls_soliton", 1.5, 16, 2)
    yield make_example("coupled_strong", 1.6, 16, 2, cross_coupling=0.0175)
    for beta in (1.0, 0.3):
        yield make_example("manakov", 1.6, 16, 2, cross_coupling=beta)
    # an nls lift: every complex family with and without one
    tilt = (lambda t: complex(np.exp(-1j * t)), np.array([0.3, -0.5]))
    yield dataclasses.replace(make_example("ex7", 1.4, 10, 3), lift=tilt)
    # asymmetric weights: contracting the wrong axis of either matrix differs
    yield dataclasses.replace(make_example("ex8", 1.4, 12, 3),
                              coupling=[[1.0, 0.3], [-0.8, 0.5]],
                              nl_coupling=[[0.2, 1.7], [0.9, -0.4]])
    # BlockOperator: the DDG stage alone at alpha = 2, and with the FFT
    # stage from MATRIX_FREE_MIN_DOF on
    for beta in (1.0, 0.3):
        yield make_example("manakov", 2.0, 16, 2, cross_coupling=beta)
    yield make_example("ex8", 2.0, 12, 2)
    yield dataclasses.replace(make_example("ex7", 2.0, 10, 3), lift=tilt)
    for name in ("nls_soliton", "manakov"):
        spec = make_example(name, 1.6, 200, 2)
        yield spec
        yield dataclasses.replace(spec, lift=tilt)


def test_schrodinger_rhs_matches_per_field_reference():
    _assert_rhs_matches_reference(_schrodinger_cases(), np.random.default_rng(11))


def test_real_rhs_matches_per_field_reference():
    # the dense E with its forcing columns (``E_forced``) on ex1, ex2 and
    # ex4 (both lifted, so with nonzero boundary data), Burgers convection
    # with (ex4) and without (ex3, ex5) a lift, and alpha = 2
    rng = np.random.default_rng(13)
    cases = [make_example("ex1", 1.3, 12, 2), make_example("ex2", 1.7, 10, 3),
             make_example("ex3", 1.5, 16, 2),
             make_example("ex4", 1.4, 12, 3), make_example("ex5", 1.6, 20, 2),
             make_example("ex4", 2.0, 12, 2)]
    _assert_rhs_matches_reference(cases, rng)
    # the matrix-free E, and the largest burgers_table cell, on a random
    # state: on ex1's smooth initial state at K = 300, max |E u| is 3.9e-5
    # of max |E| |u|, and the two sides' difference of 7e-16 |E| |u| reads
    # 3.4e-12 of the result; ex3's at K = 128, N = 2 reads 2.0e-13 of it,
    # with or without the forcing columns
    _assert_rhs_matches_reference([make_example("ex1", 1.6, 300, 2),
                                   make_example("ex3", 1.5, 128, 2)], rng, initial=False)


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
            assert prob.qop.flux.beta1 == 0.0
            M = np.kron(np.eye(prob.mesh.K), 0.5 * prob.mesh.dx * prob.basis.mass)
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
    # no other term left: rhs(t, 0) = g.  ex3's and ex4's Burgers terms give
    # way to a zero flux, whose convection term is exactly zero.  The real
    # dense cells add g as E_forced's last columns, H^T / eps, times eps;
    # the folded ex1 and the complex ex7 add T(t) @ H
    for name, K in (("ex1", 12), ("ex2", 12), ("ex3", 12), ("ex4", 12), ("ex7", 12),
                    ("ex1", FOLD_MIN_DOF // 4)):
        spec = make_example(name, 1.4, K, 3)
        if spec.conv is not None:
            spec = dataclasses.replace(spec, conv=ConvectionFlux(np.zeros_like, np.zeros_like))
        prob = build_problem(spec)
        H = prob.forcing[1]
        assert H.shape == (len(spec.forcing), prob.n)
        if prob.E_forced is not None:
            assert prob.E_forced.shape == (prob.n, prob.n + len(H))
            assert np.array_equal(prob.E_forced[:, prob.n:], H.T / spec.eps)
        z = np.zeros((1, prob.n), dtype=complex if spec.is_complex else float)
        for t in (0.0, 0.3, 0.9):
            want = sum(f(t) * h.project_onto(prob.mesh, prob.basis, spec.alpha)
                       for f, h in spec.forcing)
            assert _rel(prob.rhs(t, z), want) <= 1e-14
        # no forcing term at all: m = 0 columns, a zero right-hand side, and
        # an RK4 step that stays at zero
        unforced = build_problem(dataclasses.replace(spec, forcing=()))
        assert unforced.forcing[1].shape == (0, prob.n)
        if unforced.E_forced is not None:
            assert unforced.E_forced.shape == (prob.n, prob.n)
        assert np.abs(unforced.rhs(0.3, z)).max() == 0.0
        assert np.abs(erk4_step(unforced.rhs, z, 0.3, 1e-3)).max() == 0.0


def _unfolded_E(prob):
    """The dense E as its own (n, n) array: the fused top half and its mirror,
    concatenated; the reference for ``E_forced``'s first n columns."""
    mesh, basis, qop, K = prob.mesh, prob.basis, prob.qop, prob.mesh.K
    n, p, h = prob.n, basis.n_nodes, (prob.n + 1) // 2
    fop = assemble_frac_operator(mesh, basis, prob.spec.alpha)
    T = mass_solve_mat(mesh, basis, fop.toeplitz_blocks())
    k, i, l, j = np.ogrid[:(K + 1) // 2, :p, :K, :p]
    top = qop.compose(T[k - l + K - 1, i, j].reshape(-1, n))[:h]
    return np.concatenate([top, top[:n - h, ::-1][::-1]])


@pytest.mark.parametrize("name,alpha,K,N", [
    ("ex1", 1.5, 1, 2), ("ex2", 1.7, 10, 3), ("ex3", 1.5, 32, 1), ("ex3", 1.5, 128, 2),
    ("ex4", 1.4, 7, 2), ("ex1", 1.5, FOLD_MIN_DOF // 2 - 1, 1)])
def test_dense_real_E_is_the_first_columns_of_E_forced(name, alpha, K, N):
    # below FOLD_MIN_DOF on real rows, E is the first n columns of one
    # (n, n + m) array whose last m columns are H^T / eps; E, and its apply
    # on (n,), (1, n) and (3, n) rows, are bitwise the separate unfolded E's
    prob = build_problem(make_example(name, alpha, K, N))
    n, H = prob.n, prob.forcing[1]
    assert prob.E_forced.shape == (n, n + len(H))
    want = _unfolded_E(prob)
    assert prob.E.shape == (n, n) and np.array_equal(prob.E, want)
    assert np.array_equal(prob.E_forced[:, :n], want)
    X = np.random.default_rng(K).standard_normal((3, n))
    for rows in (X[0], X[:1], X):
        assert np.array_equal(prob.apply_E(rows), (want @ rows.T).T)


def test_gauge_covariance_of_cubic_term():
    # rhs(e^{i theta} u) = e^{i theta} rhs(u)
    spec = make_example("nls_soliton", 1.5, 24, 2)
    prob = build_problem(spec)
    u = _complex_normal(np.random.default_rng(4), (1, prob.n))
    phase = np.exp(0.77j)
    r, rrot = prob.rhs(0.0, u), prob.rhs(0.0, phase * u)
    want = phase * r
    assert rrot.real == pytest.approx(want.real, rel=1e-11, abs=1e-11)
    assert rrot.imag == pytest.approx(want.imag, rel=1e-11, abs=1e-11)


def test_coupled_symmetric_reduction_stays_equal():
    spec = make_example("manakov", 1.6, 32, 2)   # identical fields, no coupling
    prob = build_problem(spec)
    s = prob.initial_state()
    # mirror the second field onto the first so both complex fields coincide
    s[1] = s[0]
    ctrl = RunControl(T=0.2, cfl_c=0.05)
    out, _, _, _ = integrate(prob.rhs, s, ctrl, prob.mesh.dx, 1.6)
    assert np.array_equal(out[0], out[1])


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


def test_a_profile_past_the_rule_limit_is_rejected_by_the_rule():
    # degree 130 at N = 2 needs 68 Gauss points; gauss_legendre owns the
    # 64-point limit and names it, where a cap would under-integrate
    profile = ForcingProfile(np.ones(131))
    with pytest.raises(ValueError, match=r"point count must be in \[1, 64\], got 68"):
        profile.project_onto(build_mesh(-1.0, 1.0, 4), build_basis(2), 1.5)


def test_forcing_unknown_name():
    with pytest.raises(KeyError):
        make_example("nope", 1.5, 4, 1)


def test_every_example_builds():
    for name in EXAMPLES:
        for alpha in (1.3, 2.0):
            spec = make_example(name, alpha, 6, 2)
            prob = build_problem(spec)
            r = prob.rhs(0.1, prob.initial_state())
            assert r.shape == (spec.n_components, prob.n) and np.isfinite(r).all()


def test_cross_coupling_sets_the_coupling():
    # one key couples the two fields: the linear w2 of coupled_strong and
    # the nonlinear beta of manakov
    strong = make_example("coupled_strong", 1.6, 4, 1, cross_coupling=0.0175)
    assert np.array_equal(strong.coupling, [[1.0, 0.0175], [0.0175, 1.0]])
    assert np.array_equal(strong.nl_coupling, np.ones((2, 2)))
    assert np.array_equal(make_example("coupled_strong", 1.6, 4, 1).coupling, np.ones((2, 2)))
    manakov = make_example("manakov", 1.6, 4, 1, cross_coupling=0.3)
    assert np.array_equal(manakov.nl_coupling, [[1.0, 0.3], [0.3, 1.0]])
    assert manakov.coupling is None


@pytest.mark.parametrize("name", ["ex2", "ex4", "ex8"])
def test_lift_carries_the_dirichlet_data(name):
    # the lift is the one Dirichlet path: bcs are derived from it and hold
    # the exact solution at both ends, and the lifted initial state plus the
    # lift is the projection of the exact initial data
    spec = make_example(name, 1.5, 6, 2)
    a, b = spec.domain
    for bc, exact in zip(spec.bcs, spec.exact):
        for t in (0.0, 0.3):
            assert bc(t) == pytest.approx((exact(a, t), exact(b, t)), abs=1e-15)
    prob = build_problem(spec)
    full = prob.full_fields(prob.initial_state(), 0.0)
    for u, exact in zip(full, spec.exact):
        want = project(lambda x: exact(x, 0.0), prob.mesh, prob.basis).values
        assert np.abs(u - want).max() <= 1e-14
    with pytest.raises(TypeError):
        ProblemSpec(family=spec.family, alpha=1.5, domain=spec.domain, K=6, N=2,
                    T=1.0, bcs=spec.bcs)


def test_round_off_at_an_endpoint_is_no_lift():
    # ex3's u0 = (x^2 - 1)^4 / 100 reads -1.7e-18 at +-1, the rounding of its
    # /100 coefficients, inside Horner's bound: no lift and no lift forcing
    spec = make_example("ex3", 1.5, 8, 2)
    assert spec.exact[0](1.0, 0.0) != 0.0
    assert spec.lift is None and len(spec.forcing) == 2
    assert spec.bcs[0](0.3) == (0.0, 0.0)
    # data off zero by about 20x the bound is lifted; so are ex2, ex4 and ex8
    u0 = P.polyadd(P.polypow([-1.0, 0.0, 1.0], 4) / 100.0, [1e-14])
    assert _manufactured("convection_diffusion", (-1.0, 1.0), u0, (1.0, 0.0), 1.5)["lift"]
    for name, n_terms in (("ex2", 2), ("ex4", 3), ("ex8", 2)):
        spec = make_example(name, 1.5, 8, 2)
        assert spec.lift is not None and len(spec.forcing) == n_terms


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
    # one eps is shared by every field (a tuple is rejected, not
    # broadcast); both couplings are fields x fields float matrices, and
    # any other shape is rejected
    def coupled(**terms):
        return ProblemSpec(family="coupled_nls", alpha=1.5, domain=(0, 1), K=4, N=1,
                           T=1.0, **terms)

    spec = coupled(eps=0.5, nl_coupling=[[1, 0], [0, 1]])
    assert spec.eps == 0.5 and spec.coupling is None
    assert spec.nl_coupling.dtype == float and np.array_equal(spec.nl_coupling, np.eye(2))
    assert spec.n_components == 2 and spec.is_complex
    with pytest.raises(TypeError):
        coupled(eps=(1.0, 2.0), nl_coupling=np.eye(2))
    for terms in ({"nl_coupling": 1.0}, {"nl_coupling": [1.0, 1.0]},
                  {"nl_coupling": np.eye(3)}, {"nl_coupling": [[1.0, 1.0], [1.0]]},
                  {"nl_coupling": np.eye(2), "coupling": [[1.0]]},
                  {"nl_coupling": np.eye(2), "coupling": np.ones((2, 2, 1))}):
        with pytest.raises(ValueError):
            coupled(**terms)
    with pytest.raises(ValueError):
        ProblemSpec(family="nls", alpha=1.5, domain=(0, 1), K=4, N=1, T=1.0,
                    nl_coupling=np.eye(2))
    # the spec is frozen, and an edit through replace runs every check again
    spec = make_example("manakov", 2.0, 8, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.nl_coupling = np.eye(2)
    with pytest.raises(ValueError, match="read-only"):
        spec.nl_coupling[0, 1] = 5.0
    for w in ([[1.0, 2.0, 3.0]], None):
        with pytest.raises(ValueError, match="nl_coupling"):
            dataclasses.replace(spec, nl_coupling=w)
    # a non-finite weight is an input error, not a non-finite first rhs
    for bad in (float("nan"), float("inf"), -float("inf")):
        for name in ("coupling", "nl_coupling"):
            with pytest.raises(ValueError, match=f"^{name} must be a finite"):
                dataclasses.replace(spec, **{name: [[1.0, bad], [bad, 1.0]]})
        with pytest.raises(ValueError, match="^nl_coupling must be a finite"):
            make_example("manakov", 2.0, 16, 1, T=0.05, cross_coupling=bad)
    with pytest.raises(ValueError, match="convective flux"):
        dataclasses.replace(make_example("ex4", 1.4, 12, 3), conv=None)
    # terms a family ignores are rejected: a convective flux outside
    # convection_diffusion, couplings on the real families
    with pytest.raises(ValueError, match="convective flux"):
        dataclasses.replace(make_example("ex7", 1.5, 16, 2), conv=_BURGERS)
    for terms in ({"coupling": [[3.0]]}, {"nl_coupling": [[5.0]]}):
        with pytest.raises(ValueError, match="takes no coupling"):
            dataclasses.replace(make_example("ex1", 1.5, 16, 2), **terms)
    # ic and exact hold one callable per field: a short exact tuple would
    # make zip drop a field's error, a short ic would fail inside rhs
    ex8, ex7 = make_example("ex8", 1.5, 8, 2), make_example("ex7", 1.5, 8, 2)
    for spec, name, value in ((ex8, "exact", ex8.exact[:1]), (ex8, "ic", ex8.ic[:1]),
                              (ex7, "exact", ex7.exact * 2), (ex7, "ic", ex7.ic * 2)):
        with pytest.raises(ValueError, match=rf"{name} must hold one callable per field "
                                             rf"\({spec.n_components}\)"):
            dataclasses.replace(spec, **{name: value})


def test_problem_spec_rejects_an_eps_out_of_range():
    # stable_dt_cap divides by |eps| rho(E), so eps = 0 is rejected.  A
    # negative eps runs a real family's diffusion backwards (ex1 at K = 16
    # ends T = 0.5 at max |u| 153 against 0.61 for +eps, with no failure
    # raised), and only flips a complex family's dispersion (see the dt cap
    # scaling test)
    # An infinite eps would give ex1 a cap of 0.0 and a run that fails with
    # "computed time step is not positive"
    inf = float("inf")
    for name, eps in (("ex1", 0.0), ("ex1", -0.0), ("ex1", float("nan")),
                      ("ex1", -0.05), ("ex3", -1.0), ("ex7", 0.0), ("ex8", -0.0),
                      ("ex1", inf), ("ex3", inf), ("ex7", inf), ("ex8", -inf),
                      ("ex7", float("nan"))):
        with pytest.raises(ValueError, match=r"eps must be > 0 \(\|eps\| for a complex"):
            dataclasses.replace(make_example(name, 1.5, 8, 2), eps=eps)
    dataclasses.replace(make_example("ex8", 1.5, 8, 2), eps=-0.5)


def test_a_replaced_degree_takes_its_own_default_flux():
    # flux=None is resolved at assembly, so an edit of N does not keep the
    # old degree's beta0 (4.5 at N = 2 against 12.5 at N = 4); a flux that
    # is given is kept
    replaced = dataclasses.replace(make_example("ex1", 1.5, 16, 2), N=4)
    assert replaced.flux is None
    want = build_problem(make_example("ex1", 1.5, 16, 4)).qop.flux
    assert build_problem(replaced).qop.flux == want == default_flux(4)
    given = make_example("ex1", 1.5, 16, 2, flux=FluxParams(3.0))
    assert build_problem(dataclasses.replace(given, N=4)).qop.flux == FluxParams(3.0)


def test_fields_drive_roles_norms_and_errors():
    for name, roles, dtype in (("ex1", ("u",), float), ("ex7", ("u",), complex),
                               ("ex8", ("u1", "u2"), complex)):
        spec = make_example(name, 1.5, 8, 2)
        prob = build_problem(spec)
        assert prob.roles == roles and spec.n_components == len(roles)
        s = prob.initial_state()
        assert s.dtype == dtype and s.shape == (len(roles), prob.n)
        comps = prob.full_fields(s, 0.0)
        # a complex field's squared norm is that of its real part plus its
        # imaginary part
        want = [sum(l2_error(FieldVector(part, prob.mesh, prob.basis), np.zeros_like) ** 2
                    for part in ((c.real, c.imag) if spec.is_complex else (c,)))
                for c in comps]
        assert prob.l2_norms_squared(s) == pytest.approx(want, rel=1e-12)
        errs = prob.field_errors(s, 0.0)
        assert len(errs) == len(roles) and all(0.0 <= e < 1e-2 for e in errs)


def test_a_spec_without_initial_data_or_exact_solution_says_so():
    prob = build_problem(ProblemSpec(family="diffusion", alpha=1.5, domain=(0.0, 1.0),
                                     K=4, N=1, T=1.0))
    with pytest.raises(ValueError, match="problem has no initial data"):
        prob.initial_state()
    with pytest.raises(ValueError, match="problem has no exact solution"):
        prob.field_errors(np.zeros((1, prob.n)), 0.0)


def test_epsilon_values():
    def eps(name, alpha):
        return make_example(name, alpha, 4, 1).eps

    assert eps("ex1", 1.1) == pytest.approx(gamma_fn(7.9) / gamma_fn(9.0), rel=1e-14)
    assert eps("ex1", 1.1) == pytest.approx(0.10224973919358734, rel=1e-12)
    assert eps("ex4", 1.2) == pytest.approx(gamma_fn(3.8) / gamma_fn(5.0), rel=1e-14)
    assert eps("ex8", 1.1) == pytest.approx(gamma_fn(4.9) / (2 * gamma_fn(6.0)), rel=1e-14)


def test_stable_dt_cap_scales_with_the_family_coefficient():
    # cap = 0.9 r / (|eps| rho(E)) on a fixed mesh, r the family's RK4
    # radius, so the cap pins that every family scales the spectral radius
    # by its fractional coefficient
    def cap(name, eps, nl_scale=None):
        spec = dataclasses.replace(make_example(name, 1.5, 16, 2), eps=eps)
        if nl_scale is not None:
            spec = dataclasses.replace(spec, nl_coupling=nl_scale * spec.nl_coupling)
        return build_problem(spec).stable_dt_cap()

    assert cap("ex1", 0.25) == pytest.approx(4.0 * cap("ex1", 1.0), rel=1e-12)
    # nls: |eps|; the density weights play no part
    nls = cap("ex7", 0.05)
    assert nls == pytest.approx(20.0 * cap("ex7", 1.0), rel=1e-12)
    assert cap("ex7", 0.05, nl_scale=1000.0) == nls
    # coupled_nls: |eps|, shared by the two fields
    unit = cap("ex8", 1.0)
    assert cap("ex8", 0.5) == pytest.approx(2.0 * unit, rel=1e-12)
    assert cap("ex8", -0.5) == pytest.approx(2.0 * unit, rel=1e-12)


def _rk4_amplification(z):
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


def test_rk4_radii_lie_in_the_stability_region():
    # |R(z)| <= 1 for RK4's R(z) = sum_{k<=4} z^k / k! on the imaginary
    # segment |y| <= r (Schrodinger families) and on the left half-disc of
    # radius r (real families), and 1.01 r leaves the region, so the radii
    # are the region's own.  The cap puts |lambda| dt at 0.9 r rho / rho_est
    # <= 0.9 r / 0.985 (test below), inside both.
    r_im, r_disc = RK4_RADIUS[True], RK4_RADIUS[False]
    y = np.linspace(-r_im, r_im, 20001)
    assert np.abs(_rk4_amplification(1j * y)).max() <= 1.0 + 1e-14
    radius = np.linspace(0.0, r_disc, 801)[:, None]
    angle = np.linspace(0.5 * np.pi, 1.5 * np.pi, 3601)[None, :]
    assert np.abs(_rk4_amplification(radius * np.exp(1j * angle))).max() <= 1.0 + 1e-14
    assert abs(_rk4_amplification(1.01j * r_im)) > 1.0
    assert abs(_rk4_amplification(1.01 * r_disc * np.exp(1j * np.radians(122.7)))) > 1.0


# configs/ run and table sizes on every E path: unfolded dense (ex5, n =
# 150), folded (n = 512 in [FOLD_MIN_DOF, MATRIX_FREE_MIN_DOF)) and matrix-free
# (manakov, n = 600); the lowest-reading cell over every configs/ size (ex1
# alpha 1.6 K 20 N 4) and the two worst cells of a 30-step power iteration; and
# cells with n <= ARNOLDI_STEPS, where the Krylov space is the whole space:
# K = 1, and ex3 K = 10 N = 1, whose last step breaks down
POWER_CELLS = [("manakov", 1.6, 200, 2), ("manakov", 2.0, 200, 2), ("ex7", 1.1, 128, 3),
               *[("ex5", a, 50, 2) for a in (1.2, 1.4, 1.6, 1.8, 2.0)],
               *[("ex1", a, 128, 3) for a in (1.1, 1.3, 1.6)],
               ("ex1", 1.6, 32, 1), ("nls_soliton", 1.4, 200, 2), ("ex1", 1.6, 20, 4),
               ("ex1", 1.5, 1, 2), ("manakov", 2.0, 1, 2), ("ex3", 1.5, 10, 1)]


def _rho_from_cap(prob):
    """The cap's |rho(E)| estimate: without initial data the cap has no
    advective term, so cap = 0.9 r / (|eps| rho_est)."""
    spec = prob.spec
    return 0.9 * RK4_RADIUS[spec.is_complex] / (abs(spec.eps) * prob.stable_dt_cap())


@pytest.mark.parametrize("name,alpha,K,N", POWER_CELLS)
def test_stable_dt_cap_power_iteration_finds_the_spectral_radius(name, alpha, K, N):
    # the cap's Arnoldi rho against max |eig| of the dense E = M^-1 B M^-1 A;
    # over all 180 distinct configs/ and bench/configs/ sizes up to n = 1,300
    # the ratio is 0.987-1.0004 (30 power-iteration steps from a random
    # vector read 0.949-1.003), and the n <= ARNOLDI_STEPS cells read 1 to round-off
    prob = build_problem(dataclasses.replace(make_example(name, alpha, K, N), ic=None))
    mesh, basis = prob.mesh, prob.basis
    E = mass_solve_mat(mesh, basis, prob.qop.A)
    if alpha < 2.0:
        E = mass_solve_mat(mesh, basis, assemble_frac_operator(mesh, basis, alpha).B) @ E
    rho = np.abs(np.linalg.eigvals(E)).max()
    ratio = _rho_from_cap(prob) / rho
    assert 0.985 <= ratio <= 1.001
    if prob.n <= ARNOLDI_STEPS:
        assert ratio == pytest.approx(1.0, abs=1e-13)


def test_stable_dt_cap_is_deterministic_on_every_E_path():
    # no random start vector: two calls, and two builds, give bitwise-equal
    # caps on the unfolded dense, the folded and the matrix-free E
    sizes = []
    for cell in (("ex7", 1.3, 32, 2), ("ex1", 1.5, 128, 3), ("manakov", 1.6, 200, 2)):
        spec = make_example(*cell)
        prob = build_problem(spec)
        sizes.append(prob.n)
        cap = prob.stable_dt_cap()
        assert prob.stable_dt_cap() == cap
        assert build_problem(spec).stable_dt_cap() == cap
    assert sizes[0] < FOLD_MIN_DOF <= sizes[1] < MATRIX_FREE_MIN_DOF <= sizes[2]


def test_stable_dt_cap_stops_where_the_krylov_space_closes():
    # E = Q [[A, 0], [0, D]] Q^T with the cap's start vector (the documented
    # Weyl sequence) in the invariant span of Q's first three columns, so the
    # Krylov space closes after three steps and rho(E) = rho(A) (D's
    # eigenvalues are 0.5).  Past that point Arnoldi would continue from a
    # normalised round-off vector into D, whose field of values reaches ~10
    # (0.5 I plus 10 on the superdiagonal): without the stop the estimate
    # reads 9.7-10.2 here instead of 4.43
    prob = build_problem(dataclasses.replace(make_example("ex1", 1.5, 10, 3), ic=None))
    n = prob.n
    start = np.arange(1, n + 1) * 0.6180339887498949 % 1.0 - 0.5
    Q, _ = np.linalg.qr(np.column_stack(
        [start, np.random.default_rng(0).standard_normal((n, n - 1))]))
    A = np.array([[1.0, 2.0, 0.5], [2.0, 3.0, 1.0], [0.5, 1.0, -2.0]])
    T = np.zeros((n, n))
    T[:3, :3] = A
    T[3:, 3:] = 0.5 * np.eye(n - 3) + 10.0 * np.eye(n - 3, k=1)
    E = Q @ T @ Q.T
    prob = dataclasses.replace(prob, E_columns=lambda V: E @ V)
    assert _rho_from_cap(prob) == pytest.approx(np.abs(np.linalg.eigvalsh(A)).max(), rel=1e-12)


def test_stable_dt_cap_reads_the_physical_speed():
    # ex4 evolves x^4/100 minus its lift x/100; the advective rate reads the
    # physical data, whose largest nodal value is u0(1) = 0.01
    spec = make_example("ex4", 1.5, 16, 2)
    seen = []
    spec = dataclasses.replace(spec, conv=dataclasses.replace(
        spec.conv, df=lambda u: seen.append(np.abs(u).max()) or u))
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
    q[:, 0], q[:, -1] = c[:, 0] @ qop.first.T, c[:, -1] @ qop.last.T
    q[:, 1:] += c[:, :-1] @ qop.lower.T
    q[:, :-1] += c[:, 1:] @ qop.upper.T
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


def _on_rows(columns):
    """A map on the columns of an array, applied to the rows of X."""
    return lambda X: columns(X.T).T


def test_block_operator_matches_dense_view():
    # N = 0..8, every alpha, 1/2/4 components.  For K <= 128 the whole apply
    # is checked against the dense views A and B.  At K = 1024 the dense
    # views would need up to 680 MB, so each stage on its own and the
    # composed apply are checked against block-by-block sums; the FFT
    # stage's round-off at alpha = 1.05, N = 8 keeps those pairs near 1e-13.
    rng = np.random.default_rng(11)
    worst = 0.0
    for K in (1, 2, 3, 17, 128, 1024):
        for N in range(9):
            for alpha in AGREE_ALPHAS:
                qop, fop = _operators(K, N, alpha)
                mesh, basis = qop.mesh, qop.basis
                op = _on_rows(BlockOperator(qop, fop))
                X = rng.standard_normal((4, K * (N + 1)))
                if K == 1024:
                    # the DDG stage alone is BlockOperator(qop, None); the
                    # FFT stage is checked on that stage's own output
                    ddg = _on_rows(BlockOperator(qop, None)) if fop is not None else op
                    q, ref_q = ddg(X), _ddg_by_blocks(qop, X)
                    pairs = [(ddg(X[:m]), ref_q[:m]) for m in (1, 2, 4)]
                    ref = ref_q
                    if fop is not None:
                        ref_p = _frac_by_offsets(fop, q)
                        pairs += [(op(X[:m]), ref_p[:m]) for m in (1, 2, 4)]
                        ref = _frac_by_offsets(fop, ref_q)
                    pairs += [(op(X[:m]), ref[:m]) for m in (1, 2, 4)]
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
            assert isinstance(prob.E_columns, BlockOperator)
            assert prob.E_columns.symbol is None
            assert _rel(prob.E @ np.eye(prob.n), E) <= 1e-13
            X = rng.standard_normal((4, prob.n))
            for m in (1, 2, 4):
                assert _rel(prob.apply_E(X[:m]), X[:m] @ E.T) <= 1e-13
            assert _rel(prob.apply_E(X[0]), E @ X[0]) <= 1e-13
            comps = X[:2] + 1j * X[2:]
            # complex rows straight through the DDG stage, as the bench's E kernel
            assert _rel(prob.apply_E(comps), comps @ E.T) <= 1e-13
            assert _rel(prob.apply_E(comps[1]), E @ comps[1]) <= 1e-13


def _assert_matches_dense_fusion(prob):
    """E, stable_dt_cap and rhs of a matrix-free problem against the same
    problem with E fused into the dense M^-1 B M^-1 A."""
    assert isinstance(prob.E, LinearOperator)
    E = _dense_E(prob)
    dense = dataclasses.replace(prob, E_columns=lambda V: E @ V)

    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, prob.n))
    assert _rel(X @ prob.E.T, X @ E.T) <= 1e-13
    assert _rel(prob.E @ X[0], E @ X[0]) <= 1e-13
    assert prob.stable_dt_cap() == pytest.approx(dense.stable_dt_cap(), rel=1e-13)
    s = prob.initial_state() + 0.1 * rng.standard_normal((prob.spec.n_components, prob.n))
    assert _rel(prob.rhs(0.2, s), dense.rhs(0.2, s)) <= 1e-13
    Z = X + 1j * rng.standard_normal(X.shape)
    assert _rel(prob.apply_E(Z), Z @ E.T) <= 1e-13
    assert _rel(prob.E @ Z[0], E @ Z[0]) <= 1e-13


@pytest.mark.parametrize("name,alpha", [("ex1", 1.5), ("ex7", 1.1), ("manakov", 2.0)])
def test_problem_above_crossover_matches_dense_path(name, alpha):
    prob = build_problem(make_example(name, alpha, 300, 2))
    assert prob.n >= MATRIX_FREE_MIN_DOF
    _assert_matches_dense_fusion(prob)


def test_circulant_is_padded_to_a_fast_length():
    # K = 193: 2K = 386 = 2 * 193 is padded to 400 = 2^4 5^2
    prob = build_problem(make_example("manakov", 1.6, 193, 2))
    assert prob.n >= MATRIX_FREE_MIN_DOF and prob.E_columns.fft_len == 400
    _assert_matches_dense_fusion(prob)


@pytest.mark.parametrize("name,alpha,N", [("ex1", 1.5, 2), ("ex7", 1.1, 3), ("manakov", 1.6, 1)])
def test_E_is_dense_below_the_crossover_and_matrix_free_from_it(name, alpha, N):
    K = -(-MATRIX_FREE_MIN_DOF // (N + 1))   # the smallest mesh at or above it
    below = build_problem(make_example(name, alpha, K - 1, N))
    assert below.n < MATRIX_FREE_MIN_DOF and isinstance(below.E, np.ndarray)
    at = build_problem(make_example(name, alpha, K, N))
    assert at.n >= MATRIX_FREE_MIN_DOF
    _assert_matches_dense_fusion(at)


def test_dense_E_is_fused_from_the_ddg_blocks():
    # E = MB M^-1 A from the three block diagonals of M^-1 A, against the
    # dense product; K = 1 has one block (first = last), K = 2 no interior
    # cell
    for K in (1, 2, 3, 17, 150):
        for N in range(1, 5):
            for alpha in (1.1, 1.5, 1.9):
                qop, fop = _operators(K, N, alpha)
                mesh, basis = qop.mesh, qop.basis
                MB = mass_solve_mat(mesh, basis, fop.B)
                want = MB @ mass_solve_mat(mesh, basis, qop.A)
                got = qop.compose(MB)
                assert _rel(got, want) <= 1e-13, (K, N, alpha)


def test_dense_E_takes_complex_rows_as_pairs():
    # the dense path below the crossover: build_problem's E is the fused
    # one, and complex rows (one, or a stack of two) go through the float
    # view of their (re, im) pairs
    rng = np.random.default_rng(2)
    for name in ("ex7", "ex8"):
        prob = build_problem(make_example(name, 1.5, 17, 3))
        assert isinstance(prob.E, np.ndarray)
        E = _dense_E(prob)
        assert _rel(prob.E, E) <= 1e-13
        Z = _complex_normal(rng, (2, prob.n))
        assert _rel(prob.apply_E(Z), Z @ E.T) <= 1e-13
        assert _rel(prob.apply_E(Z[1]), E @ Z[1]) <= 1e-13
        assert _rel(prob.apply_E(Z.real), Z.real @ E.T) <= 1e-13


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_E_is_centrosymmetric(alpha):
    # J E J = E for the DOF reversal J, on the dense product the fold does
    # not build: a uniform mesh, a symmetric nodal basis and a two-sided
    # integral, for any flux; odd and even K, so odd n at even N
    for N in range(5):
        for K in (7, 8):
            for flux in (None, FluxParams(1.0, 1.0 / 12.0), FluxParams(3.0, 0.3)):
                E = _dense_E(build_problem(make_example("ex1", alpha, K, N, flux=flux)))
                assert _rel(E[::-1, ::-1], E) <= 1e-14, (N, K, flux)


def test_folded_E_matches_the_dense_product():
    # E unfolded at build below FOLD_MIN_DOF and kept as its folded half from
    # it, on both sides of the threshold and up to the largest dense size,
    # odd n included: E itself and real and complex (n,) and (m, n) rows
    # against the dense product
    rng = np.random.default_rng(4)
    odd_K = lambda p: -(-FOLD_MIN_DOF // p) | 1    # the first odd K with n >= it
    for name, alpha, N, K in (("ex1", 1.5, 2, 9), ("ex1", 1.5, 1, FOLD_MIN_DOF // 2 - 1),
                              ("ex7", 1.3, 1, FOLD_MIN_DOF // 2), ("ex8", 1.6, 2, odd_K(3)),
                              ("ex1", 1.1, 4, odd_K(5)),
                              ("ex7", 1.9, 3, (MATRIX_FREE_MIN_DOF - 1) // 4)):
        prob = build_problem(make_example(name, alpha, K, N))
        assert not isinstance(prob.E_columns, BlockOperator)
        folded = prob.E_columns.__qualname__.startswith("_folded_E.")
        assert folded == (prob.n >= FOLD_MIN_DOF), (K, N)
        E = _dense_E(prob)
        assert _rel(prob.E, E) <= 1e-13
        X = rng.standard_normal((3, prob.n))
        for Z in (X, X + 1j * rng.standard_normal(X.shape)):
            for rows in (Z[:1], Z, Z[1]):
                got = prob.apply_E(rows)
                assert got.shape == rows.shape and got.dtype == rows.dtype
                assert _rel(got, rows @ E.T) <= 1e-13, (K, N, rows.shape)


# one cell per E path: (example, alpha, K, N, path); K = 1 on the dense
# and the DDG-only path, odd n on the folded one, and two complex fields
E_PATH_CELLS = [("ex1", 1.5, 1, 2, "dense"), ("ex8", 1.5, 17, 2, "dense"),
                ("ex1", 1.5, 135, 2, "folded"), ("ex8", 1.6, 134, 2, "folded"),
                ("ex1", 1.5, 300, 1, "fft"), ("manakov", 1.6, 200, 2, "fft"),
                ("manakov", 2.0, 1, 3, "ddg"), ("ex7", 2.0, 16, 2, "ddg")]


@pytest.mark.parametrize("name,alpha,K,N,path", E_PATH_CELLS)
def test_every_E_path_is_a_real_column_map(name, alpha, K, N, path):
    # apply_E alone turns rows into columns: a real row is one column and a
    # complex row the columns of its real and imaginary parts, and E_columns
    # maps them, bit for bit.  The dense fusion and the DDG stage both read
    # DdgOperators.solved, the mass-solved blocks, which is derived
    prob = build_problem(make_example(name, alpha, K, N))
    E_columns, qop = prob.E_columns, prob.qop
    got_path = (("ddg" if E_columns.symbol is None else "fft")
                if isinstance(E_columns, BlockOperator)
                else "folded" if E_columns.__qualname__.startswith("_folded_E.") else "dense")
    assert got_path == path
    for i, block in enumerate((qop.diag, qop.lower, qop.upper, qop.first, qop.last)):
        assert np.array_equal(qop.solved[i], mass_solve_mat(prob.mesh, prob.basis, block))
    with pytest.raises(dataclasses.FrozenInstanceError):
        qop.solved = qop.solved
    rng = np.random.default_rng(K)
    X = rng.standard_normal((3, prob.n))
    for Z in (X, X + 1j * rng.standard_normal(X.shape)):
        for rows in (Z[0], Z[:1], Z):
            parts = [p for r in np.atleast_2d(rows)
                     for p in ((r.real, r.imag) if np.iscomplexobj(Z) else (r,))]
            W = E_columns(np.column_stack(parts))
            want = W[:, 0::2] + 1j * W[:, 1::2] if np.iscomplexobj(Z) else W
            got = prob.apply_E(rows)
            assert got.dtype == rows.dtype
            assert np.array_equal(got, want.T.reshape(rows.shape)), (path, rows.shape)


def test_manakov_bench_cell_is_matrix_free():
    # the bench's manakov_soliton alpha = 1.6 cell (K = 200, N = 2: n = 600)
    prob = build_problem(make_example("manakov", 1.6, 200, 2, cross_coupling=1.0))
    assert prob.n == 600 >= MATRIX_FREE_MIN_DOF and prob.E_columns.fft_len == 2 * 200
    _assert_matches_dense_fusion(prob)


def test_l2_norms_squared_match_per_field_einsum():
    # all fields in one product, against one einsum per field, with and
    # without a lift, on real and complex states
    rng = np.random.default_rng(3)
    for name in ("ex1", "ex4", "ex7", "ex8", "manakov"):
        prob = build_problem(make_example(name, 1.5, 12, 2))
        m = prob.spec.n_components
        s = rng.standard_normal((m, prob.n))
        if prob.spec.is_complex:
            s = s + 1j * rng.standard_normal((m, prob.n))
        mass = 0.5 * prob.mesh.dx * prob.basis.mass
        for t in (0.0, 0.3):
            full = prob.full_fields(s, t)
            want = [np.einsum("ki,ij,kj->", c.reshape(prob.mesh.K, -1).conj(), mass,
                              c.reshape(prob.mesh.K, -1)).real for c in full]
            got = prob.l2_norms_squared(s, t)
            assert len(got) == m and all(type(v) is float for v in got)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
