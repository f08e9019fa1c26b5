"""Closed-loop assembly and fixed-step integration.

The augmented state stacks the plant state x, the observer auxiliary
states dhat, the gain-search states zeta, and the approximator weights
theta, 3n + l numbers, into one list (see ClosedLoop for its layout),
integrated with classic fourth-order Runge-Kutta at a fixed step.

A ClosedLoop compiles its whole loop from its RunConfig, and is the
cascade map at one instant as well; passgen's docstring says what the
compiled functions do. run keeps the feasibility check, the table, the
mapping of a non-finite barrier crossing to NonFiniteState and the
RunMetrics the loop returns.

The barrier preconditions are checked at every stage evaluation, not
just at accepted steps, because a stage state outside an envelope makes
the controller math undefined. Runs are deterministic: the same
configuration produces bit-identical results.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .barrier import BarrierViolation
from .controller import BacksteppingCascade, ConstraintConfig, GainConfig, RecordLayout, Records
from .observer import initial_dhat
# The generated pass inlines the observer rates; they stay bound here
# because bench/tracing.py patches the observer layer through them.
from .observer import dhat_rate_final, dhat_rate_inner  # noqa: F401
from .approximator import COUNT, RbfNetwork
from .passgen import NonFiniteState, compile_pass
from .plant import PlantSpec
from .signals import ConfigError, TimeSignal, number, number_field, numbers

if TYPE_CHECKING:
    import numpy as np


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


# Past 2**53 steps a step index k no longer converts to a distinct float,
# so t = k * h can no longer advance at every step.
_MAX_STEPS = 2 ** 53


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs.

    Valid by construction: __post_init__ checks the run-level fields and
    the relations between the components, and raises ConfigError naming
    every field at fault, as the JSON document names it (".horizon",
    "rbf.centers"). Each component checks its own fields when it is
    built; one that is None is named ("plant"), and then the relations are
    not checked. rbf is a network, or a node count l (named "rbf.l"),
    which is laid out as RbfNetwork.lattice(l, plant.n). The fields are
    frozen; build a variant with dataclasses.replace, which checks it
    again.
    """

    plant: PlantSpec
    constraints: ConstraintConfig
    rbf: RbfNetwork | int
    gains: GainConfig
    observer_gains: tuple
    reference: TimeSignal
    initial_x: tuple
    horizon: float = 20.0
    step: float = 1e-3
    decimation: int = 10
    output_path: str | None = None

    def __post_init__(self) -> None:
        problems = []
        horizon = number_field(self, "horizon", problems, ".horizon", at_least=0)
        step = number_field(self, "step", problems, ".step", above=0)
        if not problems and horizon / step > _MAX_STEPS:
            message = f"horizon / step = {horizon / step:.6g} steps, more than 2**53"
            problems += [(".horizon", message), (".step", message)]
        number_field(self, "decimation", problems, ".decimation", integer=True, at_least=1)
        if self.output_path is not None and not isinstance(self.output_path, str):
            problems.append((".output_path", f"expected a string, got {self.output_path!r}"))
        elif self.output_path == "":  # not a path; unset is null
            problems.append((".output_path", "expected a file path, got an empty string"))
        observer_gains = numbers(self.observer_gains, ".observer_gains", problems, above=0)
        limit = 2.0 ** 256  # the controller takes the last gain's fourth power, a float below this
        if observer_gains and observer_gains[-1] is not None and observer_gains[-1] >= limit:
            problems.append((f".observer_gains[{len(observer_gains) - 1}]",
                             f"must be below {limit:.6g}, got {observer_gains[-1]}"))
        initial_x = numbers(self.initial_x, ".initial_x", problems)
        lattice = not isinstance(self.rbf, RbfNetwork)  # a node count, or at fault
        if lattice:
            number(self.rbf, "rbf.l", problems, **COUNT)
        missing = [(name, "expected a component, got None")
                   for name in ("plant", "constraints", "gains", "reference")
                   if getattr(self, name) is None]
        if missing:
            raise ConfigError(problems + missing)
        n = self.plant.n
        if self.constraints.n != n:
            problems.append(("constraints.Psi", f"{self.constraints.n} levels for a plant of order {n}"))
        if len(self.gains.k) != n:
            problems.append(("gains.k", f"need {n} gains, got {len(self.gains.k)}"))
        if observer_gains is not None and len(observer_gains) != n:
            problems.append((".observer_gains", f"need {n} gains, got {len(observer_gains)}"))
        if initial_x is not None and len(initial_x) != n:
            problems.append((".initial_x", f"need {n} entries, got {len(initial_x)}"))
        if not lattice and self.rbf.n != n:
            problems.append(("rbf.centers", f"centers have dimension {self.rbf.n}, "
                                            f"expected the plant order {n}"))
        if problems:
            raise ConfigError(problems)
        if lattice:
            object.__setattr__(self, "rbf", RbfNetwork.lattice(self.rbf, n))
        object.__setattr__(self, "observer_gains", observer_gains)
        object.__setattr__(self, "initial_x", initial_x)


@dataclass
class RunMetrics:
    """Run-level summaries over every accepted step (not just recorded
    ones). A per-level field is a tuple of floats, one per level."""

    tracking_rmse_tail: float
    max_constraint_ratio: tuple
    max_error_ratio: tuple
    max_abs_u: float
    final_theta_norm: float
    max_abs_y_d: float
    observed_max_abs_v: tuple
    max_abs_zeta: tuple
    max_abs_eps_hat: tuple
    max_theta_norm: float
    # max |d eps_hat/dt| by step differencing; the smoothness bound on the
    # true lumped uncertainty is unobservable, so this is diagnostic only
    max_abs_eps_hat_rate: tuple
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


def rk4_step(f, t: float, y: list, h: float) -> list:
    """One classic fourth-order Runge-Kutta step of y' = f(t, y).

    y and every rate f returns are lists of equal length whose entries
    are floats or float64 arrays; each stage input and the combine are
    formed entry by entry, as a + (h/2) * b and a + (h/6) * (k1 + 2 k2 +
    2 k3 + k4), so an entry rounds as the same expression on an array
    would. A run's generated loop forms its stages and combine alike."""
    k1 = f(t, y)
    half = 0.5 * h
    k2 = f(t + half, [a + half * b for a, b in zip(y, k1)])
    k3 = f(t + half, [a + half * b for a, b in zip(y, k2)])
    k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
    sixth = h / 6.0
    return [a + sixth * (p + 2.0 * q + 2.0 * r + w) for a, p, q, r, w in zip(y, k1, k2, k3, k4)]


class ClosedLoop(BacksteppingCascade):
    """Augmented dynamics of plant + observer + gain search + weights, as
    its RunConfig, config, sets them up, and the controller map at one
    instant (step and _eval, see BacksteppingCascade).

    The augmented state is a list: the 3n floats x, dhat and zeta, then
    the l weights, as floats for a float-weight network (see
    RbfNetwork.float_weights) and otherwise as one float64 array, the
    list's last entry. A rate has the same layout.

    rates, integrate and signals are the loop's generated functions (see
    passgen), compiled when the loop is built from the text it keeps as
    source: rates(t, *s) is ds/dt as a tuple, integrate is the whole run
    loop, and signals(t) is (y_d, Psi, psi, dpsi/dt) at t, the last three
    tuples over the levels. They share one memo of the time signals and
    the disturbances d_i(t) of the last distinct t, so each is evaluated
    once per distinct stage time. layout is the record table's format.
    """

    def __init__(self, config: RunConfig):
        self.config, rbf = config, config.rbf
        self.n, self.l, self.float_weights = config.plant.n, rbf.l, rbf.float_weights
        self.dim = 3 * self.n + self.l
        self.layout = RecordLayout(self.n, self.l)
        self.source, (self.rates, self.integrate, self.signals) = compile_pass(config, self.layout)

    def state(self, x, dhat, zeta, theta) -> list:
        """The augmented state in this loop's layout, from its four parts,
        sequences of numbers: n each of x, dhat and zeta, then l of theta.
        Raises ValueError naming a part of another length."""
        for name, part, size in (("x", x, self.n), ("dhat", dhat, self.n),
                                 ("zeta", zeta, self.n), ("theta", theta, self.l)):
            if len(part) != size:
                raise ValueError(f"{name}: expected {size} entries, got {len(part)}")
        head = [float(v) for part in (x, dhat, zeta) for v in part]
        if self.float_weights:
            return head + [float(w) for w in theta]
        import numpy as np

        return head + [np.array(theta, dtype=float)]

    def derivative(self, t: float, s: list) -> list:
        """ds/dt at (t, s), from one pass."""
        return list(self.rates(t, *s))


def run(config: RunConfig) -> SimResult:
    """Integrate the closed loop over [0, horizon] at the fixed step.

    Raises InfeasibleInitialCondition if some |z_i(0)| >= psi_i(0),
    BarrierViolation (with level and time) if an error coordinate reaches
    its envelope at any accepted step or RK4 stage, and NonFiniteState if
    the state leaves the representable range or a step's arithmetic fails
    (an overflow, a division by zero, or sin or cos of inf). Never
    continues past a violation. Raises ConfigError naming .horizon and
    .step if the record table the run asks for cannot be allocated.

    The loop itself is the generated integrate (see passgen).
    """
    loop = ClosedLoop(config)
    # The run starts at rest: every gain-search state is zero, so every
    # virtual control is zero at t = 0 and only y_d enters the first level.
    # The loop's memo keeps these signals for integrate's first pass.
    y_d, _, psi0, _ = loop.signals(0.0)
    x0 = config.initial_x
    z0 = [x0[0] - y_d, *x0[1:]]
    for i, (z, psi) in enumerate(zip(z0, psi0)):
        if not (abs(z) < psi):
            raise InfeasibleInitialCondition(i + 1, z, psi)

    h, decimation = config.step, config.decimation
    steps = int(round(config.horizon / h)) if config.horizon > 0 else 0
    rows, width = steps // decimation + 1 + (steps % decimation > 0), loop.layout.width
    try:
        # an anonymous map's pages are taken as the rows are written: a run
        # that aborts early holds only what it wrote
        table = memoryview(mmap.mmap(-1, 8 * rows * width)).cast("d")
    except (MemoryError, OverflowError, OSError) as exc:
        message = f"the record table of {rows} rows by {width} columns cannot be allocated"
        raise ConfigError([(".horizon", message), (".step", message)]) from exc
    args = (loop.rates, table, 0.0, steps, h, decimation,
            *loop.state(x0, initial_dhat(config.observer_gains, z0), [0.0] * loop.n,
                        [0.0] * loop.l))
    try:
        metrics = loop.integrate(*args)
    except BarrierViolation as exc:
        # a NaN or infinite error coordinate means the state blew up, not
        # that a finite trajectory crossed its envelope
        if not (math.isfinite(exc.z) and math.isfinite(exc.psi)):
            raise NonFiniteState(exc.t) from exc
        raise
    return SimResult(Records(table, loop.layout), RunMetrics(**metrics), config)
