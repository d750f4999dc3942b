"""RK4 stepping and the fractional CFL rule."""

import math
import re
import warnings

import numpy as np
import pytest

from ddgfrac.timestep import (
    MAX_OBSERVATIONS,
    IntegrationError,
    RunControl,
    cfl_timestep,
    erk4_step,
    integrate,
)


def test_zero_rhs_keeps_state():
    s = np.array([1.0, -2.0, 3.5])
    out = erk4_step(lambda t, u: 0.0 * u, s, 0.0, 0.1)
    assert np.array_equal(out, s)


def test_stability_polynomial_exact():
    lam, dt = -1.7, 0.31
    z = lam * dt
    out = erk4_step(lambda t, u: lam * u, np.array([1.0]), 0.0, dt)
    want = 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    assert out[0] == pytest.approx(want, rel=1e-15)


def test_cosine_quadrature_oracle():
    state = np.array([0.0])
    t = 0.0
    for _ in range(10):
        state = erk4_step(lambda t, u: np.array([math.cos(t)]), state, t, 0.1)
        t += 0.1
    assert abs(state[0] - math.sin(1.0)) <= 1e-5


def test_nan_raises_with_diagnostic():
    def rhs(t, u):
        return u * np.inf

    with pytest.raises(IntegrationError, match="non-finite"):
        erk4_step(rhs, np.array([1.0]), 0.0, 0.1)



def test_divergence_report_names_component_time_and_growth():
    # only the second block, or in (2, 2) rows only DOF 1 of row 'im', grows
    # (amplification ~65 per step at z = 5) and overflows inside the product
    # before the state check sees it
    G = np.diag([0.0, 0.0, 50.0, 50.0])
    W = np.array([[0.0, 0.0], [0.0, 50.0]])
    ctrl = RunControl(T=100.0, cfl_c=0.1, dt_override=0.1)
    for rhs, state0, dof in ((lambda t, u: G @ u, np.ones(4), 0),
                             (lambda t, u: W * u, np.ones((2, 2)), 1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IntegrationError) as info:
                integrate(rhs, state0, ctrl, 0.1, 1.5, labels=("re", "im"))
        assert [str(w.message) for w in caught] == []
        msg = str(info.value)
        m = re.fullmatch(rf"non-finite state in component 'im' \(DOF {dof}\) after the "
                         r"step from t = (\S+) with dt = 0\.1; max \|state\| grew "
                         r"from 1 at t = 0 to (\S+) over (\d+) steps", msg)
        assert m, msg
        t_fail, peak, steps = float(m.group(1)), float(m.group(2)), int(m.group(3))
        assert t_fail == pytest.approx(0.1 * steps)
        assert 1e290 < peak < 1e309 and steps > 100
        assert info.value.state.shape == state0.shape
        assert not np.all(np.isfinite(info.value.state))


def test_cfl_formula():
    ctrl = RunControl(T=1.0, cfl_c=0.1)
    assert cfl_timestep(ctrl, 0.1, 1.5) == pytest.approx(0.1 * 0.1**1.5, rel=1e-15)
    assert cfl_timestep(ctrl, 0.1, 1.5) == pytest.approx(3.1623e-3, rel=1e-4)
    ctrl2 = RunControl(T=1.0, cfl_c=0.1, dt_override=0.007)
    assert cfl_timestep(ctrl2, 0.1, 1.5) == 0.007


def test_integrate_lands_exactly_on_T():
    calls = []

    def rhs(t, u):
        calls.append(t)
        return -u

    ctrl = RunControl(T=0.95, cfl_c=0.1, dt_override=0.3)
    state, snaps, dt, n = integrate(rhs, np.array([1.0]), ctrl, 1.0, 1.5)
    # 3 full steps of 0.3 plus one shortened step of 0.05
    assert n == 4
    assert state[0] == pytest.approx(math.exp(-0.95), rel=1e-4)


def test_integrate_snapshots_hit_times():
    ctrl = RunControl(T=1.0, cfl_c=0.1, dt_override=0.24,
                      snapshot_times=(0.5,))
    state, snaps, dt, n = integrate(lambda t, u: -u, np.array([2.0]), ctrl, 1.0, 1.5)
    assert set(snaps) == {0.5}
    assert snaps[0.5][0] == pytest.approx(2.0 * math.exp(-0.5), rel=1e-4)


def test_integrate_thins_observations_to_a_stride():
    # the observer sees t = 0, every stride-th step and the last one, with
    # stride = max(1, (n_steps + 1) // MAX_OBSERVATIONS); the snapshot at
    # 0.3 splits a step, so 1,025 steps give stride 2 and an odd last step
    evals, seen = [], []

    def rhs(t, u):
        evals.append(t)
        return -u

    ctrl = RunControl(T=1.0, cfl_c=0.1, dt_override=1.0 / 1024,
                      snapshot_times=(0.3,))
    _, snaps, _, n = integrate(rhs, np.array([1.0]), ctrl, 1.0, 1.5,
                               observer=lambda t, u: seen.append((len(evals) // 4, t)))
    stride = (n + 1) // MAX_OBSERVATIONS
    assert MAX_OBSERVATIONS == 400 and n == 1025 and stride == 2
    assert [step for step, _t in seen] == list(range(0, n, stride)) + [n]
    assert seen[0][1] == 0.0 and seen[-1][1] == 1.0
    assert set(snaps) == {0.3}


def test_fourth_order_richardson():
    def rhs(t, u):
        return np.array([u[1], -u[0]])  # harmonic oscillator

    errs = []
    for dt in (0.1, 0.05):
        ctrl = RunControl(T=2.0, cfl_c=0.5, dt_override=dt)
        s, _, _, _ = integrate(rhs, np.array([1.0, 0.0]), ctrl, 1.0, 1.0)
        errs.append(abs(s[0] - math.cos(2.0)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)


def test_linear_homogeneity():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    A = A - A.T - 2.0 * np.eye(4)

    def rhs(t, u):
        return A @ u

    u0 = rng.standard_normal(4)
    ctrl = RunControl(T=0.7, cfl_c=0.2, dt_override=0.07)
    s1, _, _, _ = integrate(rhs, u0, ctrl, 1.0, 1.0)
    s2, _, _, _ = integrate(rhs, 3.0 * u0, ctrl, 1.0, 1.0)
    assert s2 == pytest.approx(3.0 * s1, rel=1e-13)


def test_integrate_keeps_a_complex_state():
    # u_t = -i u: the state stays complex and follows exp(-it) u0
    u0 = np.array([1.0 + 0.5j])
    ctrl = RunControl(T=1.0, cfl_c=0.1, dt_override=0.05,
                      snapshot_times=(0.5,))
    state, snaps, _, _ = integrate(lambda t, u: -1j * u, u0, ctrl, 1.0, 1.5)
    assert state.dtype == complex and snaps[0.5].dtype == complex
    assert abs(state[0] - np.exp(-1j) * u0[0]) <= 1e-6
    assert abs(snaps[0.5][0] - np.exp(-0.5j) * u0[0]) <= 1e-6


def test_control_validation():
    with pytest.raises(ValueError):
        RunControl(T=0.0, cfl_c=0.1)
    with pytest.raises(ValueError):
        RunControl(T=1.0, cfl_c=1.5)
    with pytest.raises(ValueError):
        RunControl(T=1.0, cfl_c=0.1, dt_override=-0.1)
    # a non-finite T or step is an input error, not a run of no or one step
    for T in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="need T > 0 and finite"):
            RunControl(T=T, cfl_c=0.1)
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt_override must be positive and finite"):
            RunControl(T=1.0, cfl_c=0.1, dt_override=dt)
    # the CFL constant has no default here: the family's default belongs to
    # ProblemSpec (0.05 for the Schrodinger families, 0.1 otherwise)
    with pytest.raises(TypeError):
        RunControl(T=1.0)
    with pytest.raises(ValueError):
        erk4_step(lambda t, u: u, np.zeros(1), 0.0, 0.0)
