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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .approximator import RbfNetwork
from .barrier import BarrierViolation, blf_value
# _eval inlines these helpers; they stay bound here because
# bench/tracing.py counts the barrier and observer layers through them.
from .barrier import damped_inverse, nussbaum, q_value  # noqa: F401
from .observer import estimate  # noqa: F401
from .signals import ConfigError, TimeSignal, finite_field, finite_numbers


class ControllerError(ConfigError):
    """Controller configuration is invalid."""


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
        k = finite_numbers(self.k, "k", problems)
        object.__setattr__(self, "k", k)
        positive = [(f"k[{i}]", v) for i, v in enumerate(k or ())]
        for name, path in (("lam", "lambda"), ("eta", "eta"), ("delta", "delta")):
            value = finite_field(self, name, problems, path)
            if value is not None:
                positive.append((path, value))
        problems += [(path, f"must be > 0, got {v}") for path, v in positive if not v > 0]
        if problems:
            raise ControllerError(problems)


class ConstraintConfig:
    """State bounds Psi_i(t) plus the per-level reserves A_{i-1} for the
    virtual controls, from which the error envelopes psi_i(t) follow. A
    state bound given as None failed to build and was named by its
    builder: it counts as a level, is not checked, and nothing is built."""

    def __init__(self, state_bounds, virtual_bounds):
        problems = []
        self.state_bounds = tuple(state_bounds)
        self.virtual_bounds = finite_numbers(virtual_bounds, "A", problems)
        if self.virtual_bounds is not None and len(self.virtual_bounds) != self.n:
            problems.append(("A", f"need one virtual-control bound per level: got "
                                  f"{len(self.virtual_bounds)} for {self.n} state bounds"))
        rates = []
        for i, (bound, reserve) in enumerate(zip(self.state_bounds, self.virtual_bounds or ())):
            if reserve < 0:
                problems.append((f"A[{i}]", f"must be >= 0, got {reserve}"))
            elif bound is None:
                continue
            elif not (psi0 := bound.value(0.0)) > reserve:
                problems.append((f"A[{i}]", f"infeasible envelope split at level {i + 1}: "
                                            f"Psi({i + 1})(0) = {psi0:g} does not exceed "
                                            f"A[{i}] = {reserve:g}"))
            else:
                rates.append(abs(bound.derivative(0.0)) / (psi0 - reserve))
        if problems or None in self.state_bounds:
            raise ControllerError(problems)
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


@dataclass(eq=False)
class StepRecord:
    """Controller internals at one instant (all arrays are per level)."""

    z: np.ndarray
    q: np.ndarray
    eps_hat: np.ndarray
    alpha: np.ndarray
    v: np.ndarray
    u: float
    zeta_rate: np.ndarray
    theta_rate: np.ndarray
    barrier_energy: float


class RecordLayout:
    """The record format, said once: the column groups of a record table,
    one float64 row per kept instant, in the order
    BacksteppingCascade.write_row fills them. A vector group names its
    columns group1, group2, ...; a scalar group (size None) is one column
    named after the group. StepRecord, the CSV columns and SimResult's
    arrays are read through it."""

    def __init__(self, n: int, l: int):
        self.at, self.index, self.names = {}, {}, {}
        for group, size in (("t", None), ("x", n), ("dhat", n), ("zeta", n), ("theta", l),
                            ("Psi", n), ("psi", n), ("z", n), ("q", n), ("eps_hat", n),
                            ("alpha", n), ("v", n - 1), ("u", None), ("zeta_rate", n),
                            ("theta_rate", l), ("barrier_energy", None), ("theta_norm", None),
                            ("y_d", None)):
            start = len(self.index)
            self.at[group] = start if size is None else slice(start, start + size)
            self.names[group] = [group] if size is None else [f"{group}{i + 1}" for i in range(size)]
            self.index.update((name, start + i) for i, name in enumerate(self.names[group]))
        self.width = len(self.index)
        self.state = slice(1, self.at["theta"].stop)
        self._record_at = [(f.name, self.at[f.name]) for f in fields(StepRecord)]

    def columns(self, groups) -> list:
        """The column names of the given groups, in that order."""
        return [name for group in groups for name in self.names[group]]

    def read(self, row: np.ndarray) -> StepRecord:
        """The StepRecord a row holds: a float per scalar group, a view of
        the row per vector group."""
        return StepRecord(**{name: row[at] if isinstance(at, slice) else float(row[at])
                             for name, at in self._record_at})


class Records(Sequence):
    """Read-only sequence of StepRecord over the rows of a record table;
    a slice gives a Records over the selected rows."""

    def __init__(self, table: np.ndarray, layout: RecordLayout):
        self.table = table
        self.layout = layout

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Records(self.table[index], self.layout)
        return self.layout.read(self.table[index])

    def columns(self, names) -> np.ndarray:
        """The named columns, one row per record (a copy)."""
        return self.table[:, [self.layout.index[name] for name in names]]


class BacksteppingCascade:
    """Pure map from (t, x, dhat, zeta, theta) to the controller outputs.

    Everything is evaluated at the same instant, left to right: the
    virtual control of level i feeds the error coordinate of level i+1
    with no time lag.

    The time-only signals y_d(t), Psi_i(t), psi_i(t) and dpsi_i/dt are
    kept in a one-entry memo keyed on the float t (see time_signals).
    They are a pure function of t, so a repeat call at the same t reuses
    them unchanged and the cascade stays pure: repeat calls with the same
    inputs give identical outputs, whatever was evaluated in between.
    """

    def __init__(self, reference: TimeSignal, constraints: ConstraintConfig,
                 gains: GainConfig, observer_gains, rbf: RbfNetwork):
        self.reference = reference
        self.constraints = constraints
        self.gains = gains
        self.observer_gains = tuple(float(g) for g in observer_gains)
        self.rbf = rbf
        self.n = constraints.n
        if len(gains.k) != self.n:
            raise ControllerError(f"need {self.n} feedback gains, got {len(gains.k)}")
        if len(self.observer_gains) != self.n:
            raise ControllerError(f"need {self.n} observer gains, got {len(self.observer_gains)}")
        for i, g in enumerate(self.observer_gains):
            if not g > 0:
                raise ControllerError(f"observer gain k_eps[{i + 1}] must be > 0, got {g}")
        if rbf.n != self.n:
            raise ControllerError(f"approximator input dimension {rbf.n} does not match order {self.n}")
        # The per-run constants of the pass, bound once: (k_i, k_eps_i) per
        # level, the final level's reciprocal term and the weight law.
        self._level_gains = tuple(zip(gains.k, self.observer_gains))
        self._reciprocal = (gains.delta, self.observer_gains[-1] ** 4 / 8.0)
        self._weight_law = (gains.lam, self.observer_gains[-1] ** 2, gains.eta)
        self._float_weights = rbf.float_weights
        self.layout = RecordLayout(self.n, rbf.l)
        self._memo_t = None
        self._memo = None

    def initial_errors(self, x0) -> np.ndarray:
        """Error coordinates at t = 0 for a run started at rest.

        The gain-search states start at zero, so every virtual control is
        exactly zero at t = 0 regardless of alpha; only the reference
        enters the first level.
        """
        x0 = np.asarray(x0, dtype=float)
        z0 = x0.copy()
        z0[0] = x0[0] - self.time_signals(0.0)[0]
        return z0

    def time_signals(self, t: float):
        """(y_d(t), Psi, psi, psi_rate), the last three tuples over the
        levels of Psi_i(t), psi_i(t) and dpsi_i/dt(t).

        Computed once per distinct t and reused while t repeats, as it
        does across an RK4 step (k1, the kept row and the run's
        metrics share t, k2 and k3 share t + h/2). A t that differs in
        the last bit is a new time.
        """
        if t != self._memo_t:
            levels = [self.constraints.level_signals(i, t) for i in range(self.n)]
            self._memo = (self.reference.value(t), *zip(*levels))
            self._memo_t = t
        return self._memo

    def _eval(self, t: float, x, dhat, zeta, theta):
        """Cascade pass; returns (z, q, eps_hat, alpha, v, u, zeta_rate,
        theta_rate, nn_out, weights) with per-level lists of floats.
        theta_rate is a list of floats for a float-weight network (see
        RbfNetwork.float_weights) and an array beyond; weights is theta as
        one float64 array, the one the pass's dot reads.

        x, dhat and zeta are sequences of floats (lists in a run; arrays
        give the same bits). theta is a sequence of floats for a
        float-weight network and an array beyond. The scalar work runs on
        Python floats, which round exactly as numpy float64 scalars and
        elementwise array operations do. The barrier factor, the
        estimate, the gain search and the damped inverse are written out
        here as barrier.py and observer.py state them.
        """
        last = self.n - 1
        phi = self.rbf.basis(x)
        weights = np.asarray(theta, dtype=float)
        v_prev, _, psis, psi_rates = self.time_signals(t)
        z = []
        q = []
        eps_hat = []
        alpha = []
        zeta_rate = []
        v = []
        u = 0.0
        nn_out = 0.0
        for i, (ki, gi) in enumerate(self._level_gains):
            zi = x[i] - v_prev
            psi = psis[i]
            if not (abs(zi) < psi):
                raise BarrierViolation(zi, psi, level=i + 1, t=t)
            qi = zi / ((psi - zi) * (psi + zi))
            ei = dhat[i] + gi * zi
            wall_rate = (zi / psi) * psi_rates[i]
            search = zeta[i]
            gain = search * search * math.cos(search)
            if i < last:
                ai = ki * zi + ei + qi - wall_rate
                v_prev = gain * ai
                v.append(v_prev)
            else:
                delta, reciprocal_gain = self._reciprocal
                nn_out = float(weights.dot(phi))  # the BLAS dot that theta @ phi calls
                ai = (ki * zi + ei + 0.5 * qi - wall_rate + nn_out
                      + qi / (qi * qi + delta) * reciprocal_gain)
                u = gain * ai
            z.append(zi)
            q.append(qi)
            eps_hat.append(ei)
            alpha.append(ai)
            zeta_rate.append(qi * ai)
        lam, kn_sq, eta = self._weight_law
        qn = q[last]
        if self._float_weights:
            theta_rate = [lam * (qn * p - kn_sq * w - eta * w) for p, w in zip(phi.tolist(), theta)]
        else:
            theta_rate = lam * (qn * phi - kn_sq * weights - eta * weights)
        return z, q, eps_hat, alpha, v, u, zeta_rate, theta_rate, nn_out, weights

    def step(self, t: float, x, dhat, zeta, theta) -> StepRecord:
        """Full controller record at one instant (pure; repeat calls with
        the same inputs produce identical records)."""
        row = np.empty(self.layout.width)
        outputs = self._eval(t, x, dhat, zeta, theta)
        weights = outputs[-1]
        self.write_row(row, t, [*x, *dhat, *zeta], outputs, math.sqrt(weights.dot(weights)))
        return self.layout.read(row)

    def write_row(self, row: np.ndarray, t: float, s, outputs, theta_norm: float) -> None:
        """Fill a record-table row at t from the augmented state s (its
        3n floats x, dhat, zeta come first; the weights are read from
        outputs), the outputs _eval returned for it and ||theta||."""
        z, q, eps_hat, alpha, v, u, zeta_rate, theta_rate, _, weights = outputs
        y_d, bounds, psis, _ = self.time_signals(t)
        energy = 0.0
        for i in range(self.n):
            energy += blf_value(z[i], psis[i])
        row[:] = [t, *s[:3 * self.n], *weights.tolist(), *bounds, *psis, *z, *q, *eps_hat,
                  *alpha, *v, u, *zeta_rate, *theta_rate, energy, theta_norm, y_d]


def lyapunov_decay_rates(gains: GainConfig, observer_gains, basis_bound: float) -> np.ndarray:
    """Guaranteed decay rate per level (diagnostic only); the one place
    that states the sufficient stability conditions.

    Inner levels: min(2*k_i, 2*(k_eps_i - 1)). Final level:
    min(2*k_n, 2*(k_eps_n - 1 - basis_bound^2/2), lam*eta). A
    nonpositive value means the sufficient stability condition is not
    met for that level at the given gains, and the report warns once for
    that level. Margins within 1e-9 of zero are reported as exactly
    zero: they are not certifiable, and the basis bound typically
    arrives through a square root whose round trip leaves that much
    noise.
    """
    if basis_bound < 0:
        raise ValueError(f"basis bound must be >= 0, got {basis_bound}")
    kobs = tuple(float(g) for g in observer_gains)
    n = len(gains.k)
    if len(kobs) != n:
        raise ValueError(f"need {n} observer gains, got {len(kobs)}")
    rates = np.empty(n)
    for i in range(n - 1):
        rates[i] = min(2.0 * gains.k[i], 2.0 * (kobs[i] - 1.0))
    rates[n - 1] = min(
        2.0 * gains.k[n - 1],
        2.0 * (kobs[n - 1] - 1.0 - basis_bound ** 2 / 2.0),
        gains.lam * gains.eta,
    )
    rates[np.abs(rates) <= 1e-9] = 0.0
    return rates
