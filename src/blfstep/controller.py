"""Backstepping cascade with barrier envelopes and gain search.

Level by level the cascade forms the error coordinate z_i = x_i - v_{i-1}
(v_0 is the reference), its barrier factor Q_i, the uncertainty estimate
eps_hat_i, and a stabilizing function alpha_i; the virtual control for
the next level is v_i = N(zeta_i) * alpha_i where N is the gain-search
function, and zeta_i integrates Q_i * alpha_i. The last level emits the
actual input u and the weight update for the approximator.

Error envelopes. Each state bound Psi_i(t) is split between the error
coordinate and the virtual control feeding it: a reserve A_{i-1} for
|v_{i-1}| is subtracted from the envelope and z_i must stay inside what
remains. The reserve is released exponentially,

    psi_i(t) = Psi_i(t) - A_{i-1} * exp(-r_i * t),
    r_i = |dPsi_i/dt(0)| / (Psi_i(0) - A_{i-1}),

so psi_i(0) = Psi_i(0) - A_{i-1} exactly, and for a constant bound
(r_i = 0) the subtraction holds verbatim for all time. For a shrinking
bound a fixed subtraction would go nonpositive as soon as Psi_i dips
below A_{i-1}, leaving the barrier undefined mid-run even for perfectly
behaved trajectories; releasing the reserve at the envelope's own
initial contraction rate keeps the error tube positive whenever the
initial split is feasible (A_{i-1} < Psi_i(0)). Positivity is still
re-checked every step through the barrier evaluation.

The cascade is compiled with the rest of the loop; passgen's docstring
says how, and BacksteppingCascade is the map it gives at one instant.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

# The generated pass inlines these helpers; they stay bound here because
# bench/tracing.py patches the barrier and observer layers through them.
from .barrier import blf_value, damped_inverse, nussbaum, q_value  # noqa: F401
from .observer import estimate  # noqa: F401
from .signals import ConfigError, number, number_field, numbers, parts


@dataclass(frozen=True)
class GainConfig:
    """Per-level feedback gains k, weight-update rate lam, leakage eta,
    and the regularizer delta for the reciprocal barrier term."""

    k: tuple
    lam: float
    eta: float
    delta: float = 1e-4

    def __post_init__(self) -> None:
        problems = []
        object.__setattr__(self, "k", numbers(self.k, "k", problems, above=0))
        for name, path in (("lam", "lambda"), ("eta", "eta"), ("delta", "delta")):
            number_field(self, name, problems, path, above=0)
        if problems:
            raise ConfigError(problems)


class ConstraintConfig:
    """State bounds Psi_i(t) plus the per-level reserves A_{i-1} for the
    virtual controls, from which the error envelopes psi_i(t) follow."""

    def __init__(self, state_bounds, virtual_bounds):
        problems = []
        bounds = parts(state_bounds, "Psi", problems)
        reserves = numbers(virtual_bounds, "A", problems, at_least=0)
        if bounds is not None and reserves is not None and len(reserves) != len(bounds):
            problems.append(("A", f"need one virtual-control bound per level: got "
                                  f"{len(reserves)} for {len(bounds)} state bounds"))
        rates = []
        for i, (bound, reserve) in enumerate(zip(bounds or (), reserves or ())):
            if bound is None or reserve is None:
                continue
            psi0, rate0 = bound.value(0.0), bound.derivative(0.0)
            if not (math.isfinite(psi0) and math.isfinite(rate0)):
                problems.append((f"Psi[{i}]", f"must be finite at t = 0: Psi({i + 1})(0) = "
                                              f"{psi0:g}, dPsi({i + 1})/dt(0) = {rate0:g}"))
            elif not psi0 > reserve:
                problems.append((f"A[{i}]", f"infeasible envelope split at level {i + 1}: "
                                            f"Psi({i + 1})(0) = {psi0:g} does not exceed "
                                            f"A[{i}] = {reserve:g}"))
            elif not math.isfinite(rate := abs(rate0) / (psi0 - reserve)):
                problems.append((f"A[{i}]", f"release rate |dPsi({i + 1})/dt(0)| / (Psi({i + 1})(0)"
                                            f" - A[{i}]) = {rate:g} is not finite"))
            else:
                rates.append(rate)
        if problems:
            raise ConfigError(problems)
        self.state_bounds, self.virtual_bounds = bounds, reserves
        self.release_rates = tuple(rates)

    @property
    def n(self) -> int:
        return len(self.state_bounds)

    def state_bound(self, i: int, t: float) -> float:
        """Psi_i(t) for level i (0-based)."""
        return self.state_bounds[i].value(t)

    def envelope(self, i: int, t: float) -> float:
        """Error envelope psi_i(t) for level i (0-based)."""
        return self.level_signals(i, t)[1]

    def envelope_rate(self, i: int, t: float) -> float:
        """d/dt of the error envelope (analytic)."""
        return self.level_signals(i, t)[2]

    def level_signals(self, i: int, t: float) -> tuple:
        """(Psi_i(t), psi_i(t), dpsi_i/dt(t)) for level i (0-based): one
        evaluation of the state bound, and one exp(-r_i t) for the
        envelope and its rate."""
        bound, rate = self.state_bounds[i].value_and_derivative(t)
        reserve = self.virtual_bounds[i]
        if reserve == 0.0:
            return bound, bound, rate
        r = self.release_rates[i]
        held = math.exp(-r * t)
        return bound, bound - reserve * held, rate + r * reserve * held


class RecordLayout:
    """The record format, said once: the column groups of a record table,
    one float64 row per kept instant, in the order the generated pass
    writes them (see passgen), each cell from the pass's local of the
    column's name. A vector group names its columns group1, group2, ...;
    a scalar group (size None) is one column named after the group. A
    record (read), the CSV columns and SimResult's arrays are read
    through it."""

    def __init__(self, n: int, l: int):
        self.at, self.index, self.names = {}, {}, {}
        for group, size in (("t", None), ("x", n), ("dhat", n), ("zeta", n), ("theta", l),
                            ("Psi", n), ("psi", n), ("z", n), ("q", n), ("eps_hat", n),
                            ("alpha", n), ("v", n - 1), ("u", None), ("zeta_rate", n),
                            ("theta_rate", l), ("nn_out", None), ("barrier_energy", None),
                            ("theta_norm", None), ("y_d", None)):
            start = len(self.index)
            self.at[group] = start if size is None else slice(start, start + size)
            self.names[group] = [group] if size is None else [f"{group}{i + 1}" for i in range(size)]
            self.index.update((name, start + i) for i, name in enumerate(self.names[group]))
        self.width = len(self.index)
        self.state = slice(1, self.at["theta"].stop)

    def columns(self, groups) -> list:
        """The column names of the given groups, in that order."""
        return [name for group in groups for name in self.names[group]]

    def read(self, row) -> SimpleNamespace:
        """The record a row, a float64 array, holds: one attribute per
        group, a float for a scalar group and a read-only view of the row
        for a vector group. Records compare their attributes, so == on two
        of them raises ValueError (an array's truth value)."""
        row = row.view()
        row.flags.writeable = False
        return SimpleNamespace(**{group: row[at] if isinstance(at, slice) else float(row[at])
                                  for group, at in self.at.items()})


class Records(Sequence):
    """Read-only sequence of records over the rows of a record table,
    each read by RecordLayout.read; a slice gives a Records over the
    selected rows.

    The table is held once, as flat: a read-only memoryview of floats, the
    rows one after another, each layout.width cells in the layout's order.
    table is the same cells as a read-only float64 array of rows, a view
    made on first access."""

    def __init__(self, flat, layout: RecordLayout):
        self.flat = memoryview(flat).toreadonly()
        self.layout = layout

    @functools.cached_property
    def table(self):
        import numpy as np

        return np.frombuffer(self.flat).reshape(-1, self.layout.width)

    def __len__(self) -> int:
        return len(self.flat) // self.layout.width

    def __getitem__(self, index):
        if isinstance(index, slice):
            width, rows = self.layout.width, array("d")
            for k in range(len(self))[index]:
                rows.extend(self.flat[k * width:(k + 1) * width])
            return Records(rows, self.layout)
        return self.layout.read(self.table[index])

    def columns(self, names):
        """The named columns as a float64 array, one row per record (a copy)."""
        return self.table[:, [self.layout.index[name] for name in names]]


class BacksteppingCascade:
    """Pure map from (t, x, dhat, zeta, theta) to the controller outputs.

    Everything is evaluated at the same instant, left to right: the
    virtual control of level i feeds the error coordinate of level i+1
    with no time lag.

    The base class of simengine.ClosedLoop, which gives it layout, rates,
    integrate and state; _eval and step are the map's entry points. Repeat
    calls with the same inputs give identical outputs, whatever was
    evaluated in between.
    """

    def _eval(self, t: float, x, dhat, zeta, theta):
        """Cascade pass; returns the record-table row at t as a float64
        array, its cells in self.layout's order.

        x, dhat, zeta and theta are sequences of real numbers, arrays
        included, which self.state shapes as a run holds them. The pass is
        the loop's integrate from t0 = t taking no step, of the smallest h
        (no cell reads h; a NonFiniteState is dated t + h, which is t
        beyond 1e-307). It updates a run's metrics too, so it ends as a
        run at that state does: past |z_1| of about 1.34e154 the tail
        sum's z1 ** 2 overflows, and _eval raises NonFiniteState.
        """
        import numpy as np

        row = array("d", [0.0]) * self.layout.width
        self.integrate(self.rates, row, t, 0, 5e-324, 1, *self.state(x, dhat, zeta, theta))
        return np.frombuffer(row)

    def step(self, t: float, x, dhat, zeta, theta) -> SimpleNamespace:
        """The record of _eval's row, read by RecordLayout.read (pure;
        repeat calls with the same inputs produce identical records)."""
        return self.layout.read(self._eval(t, x, dhat, zeta, theta))


def lyapunov_decay_rates(gains: GainConfig, observer_gains, basis_bound: float) -> tuple:
    """Guaranteed decay rate per level, a tuple of floats (diagnostic
    only); the one place that states the sufficient stability conditions.

    Inner levels: min(2*k_i, 2*(k_eps_i - 1)). Final level:
    min(2*k_n, 2*(k_eps_n - 1 - basis_bound^2/2), lam*eta). A
    nonpositive value means the sufficient stability condition is not
    met for that level at the given gains, and the report warns once for
    that level. Margins within 1e-9 of zero are reported as exactly
    zero: they are not certifiable, and the basis bound typically
    arrives through a square root whose round trip leaves that much
    noise.
    """
    problems = []
    number(basis_bound, "basis_bound", problems, at_least=0)
    kobs = numbers(observer_gains, "observer_gains", problems)
    n = len(gains.k)
    if kobs is not None and len(kobs) != n:
        problems.append(("observer_gains", f"need {n} observer gains, got {len(kobs)}"))
    if problems:
        raise ConfigError(problems)
    rates = [min(2.0 * gains.k[i], 2.0 * (kobs[i] - 1.0)) for i in range(n - 1)]
    rates.append(min(
        2.0 * gains.k[n - 1],
        2.0 * (kobs[n - 1] - 1.0 - basis_bound ** 2 / 2.0),
        gains.lam * gains.eta,
    ))
    return tuple(0.0 if abs(r) <= 1e-9 else r for r in rates)
