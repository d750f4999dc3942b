"""Classical explicit RK4 method-of-lines stepping with the fractional CFL rule.

The step size follows dt = cfl_c * dx^alpha unless overridden; the final
partial step is shortened so runs land exactly on T, and snapshot times are
hit exactly by the same mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

MAX_OBSERVATIONS = 400  # strided steps an observer sees, besides t = 0 and the last


class IntegrationError(RuntimeError):
    """Raised when a stage or state stops being finite.

    ``state`` holds the non-finite result of the failed step, when known.
    """

    def __init__(self, message: str, state: Optional[np.ndarray] = None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class RunControl:
    T: float
    cfl_c: float
    dt_override: Optional[float] = None
    snapshot_times: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"need T > 0 and finite, got {self.T}")
        if not 0.0 < self.cfl_c < 1.0:
            raise ValueError(f"cfl_c must lie in (0, 1), got {self.cfl_c}")
        if self.dt_override is not None and not 0 < self.dt_override < np.inf:
            raise ValueError(f"dt_override must be positive and finite, got {self.dt_override}")


def erk4_step(rhs: Callable, state: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical four-stage RK4 step from t to t + dt."""
    if dt <= 0:
        raise ValueError(f"step size must be positive, got {dt}")
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = rhs(t + dt, state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError(
            f"non-finite state after step at t = {t:.6g}, dt = {dt:.3g}", out)
    return out


def cfl_timestep(control: RunControl, dx: float, alpha: float,
                 dt_cap: Optional[float] = None) -> float:
    if control.dt_override is not None:
        return control.dt_override
    dt = control.cfl_c * dx**alpha
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    return dt


def integrate(
    rhs: Callable,
    state0: np.ndarray,
    control: RunControl,
    dx: float,
    alpha: float,
    observer: Optional[Callable[[float, np.ndarray], None]] = None,
    dt_cap: Optional[float] = None,
    labels: Sequence[str] = ("state",),
):
    """March state0 from 0 to T; returns (state, snapshots, dt, n_steps).

    Snapshot times are landed on exactly by shortening the step; snapshots
    maps each requested time to a copy of the state there.  ``dt_cap``
    bounds the CFL-rule step where the spatial operator's measured spectral
    radius demands it (an explicit override is taken literally).  The state
    keeps its dtype (real or complex) and has ``len(labels)`` rows, named by
    ``labels`` when a step diverges.  The observer sees t = 0, the last step
    and every max(1, (n_steps + 1) // ``MAX_OBSERVATIONS``)-th step.
    """
    dt = cfl_timestep(control, dx, alpha, dt_cap)
    if dt <= 0:
        raise IntegrationError("computed time step is not positive")

    events = sorted(t for t in set(control.snapshot_times) if 0.0 < t <= control.T)
    events.append(control.T)
    plan, t = [], 0.0  # (event time, [(t, step) of the steps reaching it])
    for target in events:
        steps = []
        while t < target - 1e-13 * max(1.0, abs(target)):
            steps.append((t, min(dt, target - t)))
            t += steps[-1][1]
        plan.append((target, steps))
        t = target
    total = sum(len(steps) for _, steps in plan)
    stride = max(1, (total + 1) // MAX_OBSERVATIONS)

    state = np.array(state0, copy=True)
    n_steps, snapshots = 0, {}
    if observer is not None:
        observer(0.0, state)
    peak0 = float(np.abs(state).max(initial=0.0))

    # a diverging run overflows inside the RHS kernels before the state
    # check sees it; report it once, below, instead of as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for target, steps in plan:
            for t, step in steps:
                try:
                    state = erk4_step(rhs, state, t, step)
                except IntegrationError as exc:
                    # name the first non-finite entry by its state row
                    size = exc.state.size // len(labels)
                    i = int(np.flatnonzero(~np.isfinite(exc.state))[0])
                    raise IntegrationError(
                        f"non-finite state in component {labels[i // size]!r} "
                        f"(DOF {i % size}) after the step from t = {t:.6g} with "
                        f"dt = {step:.3g}; max |state| grew from {peak0:.3g} at "
                        f"t = 0 to {np.abs(state).max():.3g} over "
                        f"{n_steps} steps", exc.state) from None
                n_steps += 1
                if observer is not None and (n_steps % stride == 0 or n_steps == total):
                    observer(t + step, state)
            if target < control.T or target in control.snapshot_times:
                snapshots[target] = state.copy()
    return state, snapshots, dt, n_steps
