"""Closed-loop assembly and fixed-step integration.

The augmented state stacks the plant state x, the observer auxiliary
states dhat, the gain-search states zeta, and the approximator weights
theta into one vector of dimension 3n + l, integrated with classic
fourth-order Runge-Kutta at a fixed step. The barrier preconditions are
checked at every stage evaluation, not just at accepted steps, because a
stage state outside an envelope makes the controller math undefined.
Runs are deterministic: the same configuration produces bit-identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import BarrierViolation
from .controller import BacksteppingCascade, ConstraintConfig, GainConfig, Records
from .observer import initial_dhat
# ClosedLoop.rate inlines the observer rates; they stay bound here because
# bench/tracing.py counts the observer layer through them.
from .observer import dhat_rate_final, dhat_rate_inner  # noqa: F401
from .approximator import RbfNetwork
from .plant import PlantSpec
from .signals import ConfigError, TimeSignal, finite_number, finite_numbers


class InfeasibleInitialCondition(RuntimeError):
    """An initial error coordinate already sits outside its envelope."""

    def __init__(self, level: int, z0: float, psi0: float):
        self.level = level
        self.z0 = z0
        self.psi0 = psi0
        super().__init__(
            f"initial error at level {level} is infeasible: |z({level})(0)| = {abs(z0):.6g} "
            f">= psi({level})(0) = {psi0:.6g}"
        )


class NonFiniteState(RuntimeError):
    """The integrated state left the representable range (NaN or overflow)."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"state became non-finite at t={t:.6g}")


# Past 2**53 steps a step index k no longer converts to a distinct float,
# so t = k * h can no longer advance at every step.
_MAX_STEPS = 2 ** 53


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs.

    Valid by construction: __post_init__ checks the run-level fields
    (through check_run_fields) and the relations between the components,
    and raises ConfigError naming every field at fault. Each component
    checks its own fields when it is built. The fields are frozen; build
    a variant with dataclasses.replace, which checks it again.
    """

    plant: PlantSpec
    constraints: ConstraintConfig
    rbf: RbfNetwork
    gains: GainConfig
    observer_gains: tuple
    reference: TimeSignal
    horizon: float = 20.0
    step: float = 1e-3
    decimation: int = 10
    initial_x: tuple = ()
    output_path: str | None = None

    def __post_init__(self) -> None:
        problems = []
        own = check_run_fields(vars(self), problems)
        n = self.plant.n
        if self.constraints.n != n:
            problems.append(("constraints.Psi", f"{self.constraints.n} levels for a plant of order {n}"))
        if len(self.gains.k) != n:
            problems.append(("gains.k", f"need {n} gains, got {len(self.gains.k)}"))
        if own["observer_gains"] is not None and len(own["observer_gains"]) != n:
            problems.append((".observer_gains", f"need {n} gains, got {len(own['observer_gains'])}"))
        if own["initial_x"] is not None and len(own["initial_x"]) != n:
            problems.append((".initial_x", f"need {n} entries, got {len(own['initial_x'])}"))
        if self.rbf.n != n:
            problems.append(("rbf.centers", f"centers have dimension {self.rbf.n}, "
                                            f"expected the plant order {n}"))
        if problems:
            raise ConfigError(problems)
        for name, value in own.items():
            object.__setattr__(self, name, value)


def check_run_fields(fields: dict, problems: list) -> dict:
    """RunConfig's checks on its run-level fields, the ones that need no
    component.

    fields maps names to values, a RunConfig's or a JSON document's; a
    run-level field left out takes its default. Appends a (path, message)
    problem for each field at fault and returns the checked numbers as
    RunConfig keeps them.
    """
    horizon = step = None
    before = len(problems)
    try:
        horizon = finite_number(fields.get("horizon", RunConfig.horizon))
        if horizon < 0:
            problems.append((".horizon", f"must be >= 0, got {horizon}"))
    except ValueError as exc:
        problems.append((".horizon", str(exc)))
    try:
        step = finite_number(fields.get("step", RunConfig.step))
        if not step > 0:
            problems.append((".step", f"must be > 0, got {step}"))
    except ValueError as exc:
        problems.append((".step", str(exc)))
    if len(problems) == before and horizon / step > _MAX_STEPS:  # both are valid here
        message = f"horizon / step = {horizon / step:.6g} steps, more than 2**53"
        problems += [(".horizon", message), (".step", message)]
    decimation = fields.get("decimation", RunConfig.decimation)
    if isinstance(decimation, bool) or not isinstance(decimation, int):
        problems.append((".decimation", f"expected an integer, got {decimation!r}"))
    elif decimation < 1:
        problems.append((".decimation", f"must be >= 1, got {decimation}"))
    output_path = fields.get("output_path", RunConfig.output_path)
    if output_path is not None and not isinstance(output_path, str):
        problems.append((".output_path", f"expected a string, got {output_path!r}"))
    observer_gains = finite_numbers(fields["observer_gains"], ".observer_gains", problems)
    problems += [(f".observer_gains[{i}]", f"must be > 0, got {g}")
                 for i, g in enumerate(observer_gains or ()) if not g > 0]
    initial_x = finite_numbers(fields.get("initial_x", RunConfig.initial_x), ".initial_x", problems)
    return {"horizon": horizon, "step": step, "observer_gains": observer_gains,
            "initial_x": initial_x}


@dataclass
class RunMetrics:
    """Run-level summaries over every accepted step (not just recorded ones)."""

    tracking_rmse_tail: float
    max_constraint_ratio: np.ndarray
    max_error_ratio: np.ndarray
    max_abs_u: float
    final_theta_norm: float
    max_abs_y_d: float
    observed_max_abs_v: np.ndarray
    max_abs_zeta: np.ndarray
    max_abs_eps_hat: np.ndarray
    max_theta_norm: float
    # max |d eps_hat/dt| by step differencing; the smoothness bound on the
    # true lumped uncertainty is unobservable, so this is diagnostic only
    max_abs_eps_hat_rate: np.ndarray
    # per level, the first accepted step at which the signal the error
    # coordinate is measured from (y_d at level 1, v_{i-1} above) exceeded
    # the reserve Psi_i - psi_i still held, or None; |x_i| < Psi_i is
    # guaranteed only while it has not
    reserve_exceeded_at: list


@dataclass
class SimResult:
    """Recorded trajectory plus metrics for one completed run. records
    reads the run's read-only record table; times and trajectory are
    views of its t and state columns."""

    records: Records
    metrics: RunMetrics
    config: RunConfig = field(repr=False)

    @property
    def times(self) -> np.ndarray:
        return self.records.table[:, self.records.layout.at["t"]]

    @property
    def trajectory(self) -> np.ndarray:
        return self.records.table[:, self.records.layout.state]


def rk4_step(f, t: float, y, h: float, k1=None):
    """One classic fourth-order Runge-Kutta step of y' = f(t, y); k1 is
    f(t, y) where the caller has it already."""
    if k1 is None:
        k1 = f(t, y)
    half = 0.5 * h
    k2 = f(t + half, y + half * k1)
    k3 = f(t + half, y + half * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class ClosedLoop:
    """Augmented dynamics of plant + observer + gain search + weights.

    The disturbance values d_i(t) are kept in a one-entry memo keyed on
    the float t, as the cascade keeps its time signals, so each is
    evaluated once per distinct stage time.
    """

    def __init__(self, plant: PlantSpec, cascade: BacksteppingCascade):
        self.plant = plant
        self.cascade = cascade
        self.n = plant.n
        self.l = cascade.rbf.l
        self.dim = 3 * self.n + self.l
        self._neg_kobs = [-g for g in cascade.observer_gains]
        self._memo_t = None
        self._memo = None

    def derivative(self, t: float, s: np.ndarray) -> np.ndarray:
        """ds/dt at (t, s), from one cascade pass."""
        return self.rate(t, *self.cascade_pass(t, s))

    def cascade_pass(self, t: float, s: np.ndarray):
        """(floats, outputs): the augmented state s read once as a list of
        floats, and the outputs of the cascade pass at (t, s)."""
        n = self.n
        floats = s.tolist()
        return floats, self.cascade._eval(t, floats[:n], floats[n:2 * n], floats[2 * n:3 * n],
                                          s[3 * n:])

    def rate(self, t: float, floats: list, outputs) -> np.ndarray:
        """ds/dt at t from cascade_pass's floats and outputs at that
        state."""
        _, _, eps_hat, _, _, u, zeta_rate, theta_rate, nn_out = outputs
        n = self.n
        if t != self._memo_t:
            self._memo = [sig.value(t) for sig in self.plant.disturbances]
            self._memo_t = t
        # the observer rates -k_i (x_{i+1} + eps_hat_i) and, at the last
        # level, -k_n (nn_out + u + eps_hat_n), as observer.py states them
        neg_kobs = self._neg_kobs
        head = self.plant.rhs(t, floats[:n], u, self._memo)
        for i in range(n - 1):
            head.append(neg_kobs[i] * (floats[i + 1] + eps_hat[i]))
        head.append(neg_kobs[n - 1] * (nn_out + u + eps_hat[n - 1]))
        head += zeta_rate
        if isinstance(theta_rate, list):
            head += theta_rate
            return np.array(head, dtype=float)
        return np.concatenate((head, theta_rate))


def run(config: RunConfig) -> SimResult:
    """Integrate the closed loop over [0, horizon] at the fixed step.

    Raises InfeasibleInitialCondition if some |z_i(0)| >= psi_i(0),
    BarrierViolation (with level and time) if an error coordinate reaches
    its envelope at any accepted step or RK4 stage, and NonFiniteState if
    the state leaves the representable range or a step's arithmetic
    overflows. Never continues past a violation.

    Each time point makes one cascade pass, on the state read once as
    floats; the metrics, for the kept steps one row of the record table,
    and the next step's k1 are built from it and from the cascade's time
    signals at that time. A run of N steps makes 4N + 1 passes.
    """
    cascade = BacksteppingCascade(
        config.reference, config.constraints, config.gains, config.observer_gains, config.rbf
    )
    loop = ClosedLoop(config.plant, cascade)
    n, l = loop.n, loop.l
    h = config.step

    z0 = cascade.initial_errors(config.initial_x)
    for i, psi0 in enumerate(cascade.time_signals(0.0)[2]):
        if not (abs(z0[i]) < psi0):
            raise InfeasibleInitialCondition(i + 1, z0[i], psi0)

    s = np.zeros(loop.dim)
    s[:n] = config.initial_x
    s[n:2 * n] = initial_dhat(config.observer_gains, z0)

    steps = int(round(config.horizon / h)) if config.horizon > 0 else 0
    decimation = config.decimation
    layout = cascade.layout
    rows = steps // decimation + 1 + (steps % decimation > 0)
    table = np.empty((rows, layout.width))
    kept = 0

    max_constraint_ratio = [0.0] * n
    max_error_ratio = [0.0] * n
    max_abs_v = [0.0] * (n - 1)
    max_abs_zeta = [0.0] * n
    max_abs_eps_hat = [0.0] * n
    max_eps_hat_rate = [0.0] * n
    reserve_exceeded_at = [None] * n
    max_abs_u = 0.0
    max_abs_y_d = 0.0
    max_theta_norm = 0.0
    tail_sq_sum = 0.0
    tail_count = 0
    prev_eps_hat = None

    deriv = loop.derivative
    try:
        for k in range(steps + 1):
            t = k * h
            floats, outputs = loop.cascade_pass(t, s)
            z, _, eps_hat, _, v, u, _, _, _ = outputs
            x = floats[:n]
            zeta = floats[2 * n:3 * n]
            theta = s[3 * n:]

            y_d, bounds, envelopes, _ = cascade.time_signals(t)
            if abs(y_d) > max_abs_y_d:
                max_abs_y_d = abs(y_d)
            for i in range(n):
                bound = bounds[i]
                envelope = envelopes[i]
                cr = abs(x[i]) / bound
                if cr > max_constraint_ratio[i]:
                    max_constraint_ratio[i] = cr
                er = abs(z[i]) / envelope
                if er > max_error_ratio[i]:
                    max_error_ratio[i] = er
                if reserve_exceeded_at[i] is None and abs(x[i] - z[i]) > bound - envelope:
                    reserve_exceeded_at[i] = t
                if abs(zeta[i]) > max_abs_zeta[i]:
                    max_abs_zeta[i] = abs(zeta[i])
                if abs(eps_hat[i]) > max_abs_eps_hat[i]:
                    max_abs_eps_hat[i] = abs(eps_hat[i])
                if prev_eps_hat is not None:
                    rate = abs(eps_hat[i] - prev_eps_hat[i]) / h
                    if rate > max_eps_hat_rate[i]:
                        max_eps_hat_rate[i] = rate
            for i, vi in enumerate(v):
                if abs(vi) > max_abs_v[i]:
                    max_abs_v[i] = abs(vi)
            if abs(u) > max_abs_u:
                max_abs_u = abs(u)
            prev_eps_hat = eps_hat
            theta_norm = math.sqrt(theta.dot(theta))  # what np.linalg.norm computes for a vector
            if theta_norm > max_theta_norm:
                max_theta_norm = theta_norm
            if 2 * k >= steps:
                tail_sq_sum += z[0] ** 2
                tail_count += 1

            if k % decimation == 0 or k == steps:
                cascade.write_row(table[kept], t, floats, outputs, theta_norm)
                kept += 1

            if k == steps:  # no step follows, so no rate is needed
                break
            s = rk4_step(deriv, t, s, h, loop.rate(t, floats, outputs))
            if not np.isfinite(s).all():
                raise NonFiniteState((k + 1) * h)
    except BarrierViolation as exc:
        # a NaN error coordinate means the state blew up, not that a
        # finite trajectory crossed its envelope
        if math.isnan(exc.z) or math.isnan(exc.psi):
            raise NonFiniteState(exc.t if exc.t is not None else t) from exc
        raise
    except OverflowError as exc:  # a float power past the double range in a step
        raise NonFiniteState((k + 1) * h) from exc

    if kept != rows:
        raise RuntimeError(f"wrote {kept} record rows, expected {rows}")
    table.flags.writeable = False
    metrics = RunMetrics(
        tracking_rmse_tail=math.sqrt(tail_sq_sum / tail_count),
        max_constraint_ratio=np.array(max_constraint_ratio),
        max_error_ratio=np.array(max_error_ratio),
        max_abs_u=max_abs_u,
        final_theta_norm=theta_norm,
        max_abs_y_d=max_abs_y_d,
        observed_max_abs_v=np.array(max_abs_v),
        max_abs_zeta=np.array(max_abs_zeta),
        max_abs_eps_hat=np.array(max_abs_eps_hat),
        max_theta_norm=max_theta_norm,
        max_abs_eps_hat_rate=np.array(max_eps_hat_rate),
        reserve_exceeded_at=reserve_exceeded_at,
    )
    return SimResult(Records(table, layout), metrics, config)
