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
from dataclasses import dataclass

import numpy as np

from .approximator import RbfNetwork
from .barrier import BarrierViolation, blf_value, damped_inverse, nussbaum, q_value
from .observer import estimate
from .signals import ConfigError, TimeSignal, finite_field, finite_numbers


# Up to this many weights the weight update costs less elementwise on
# Python floats than as numpy array operations, whose fixed cost per call
# outweighs short vectors (crossover near 28 weights, measured with
# timeit). Both forms round every element identically.
_FLOAT_WEIGHTS_MAX = 24


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
    virtual controls, from which the error envelopes psi_i(t) follow."""

    def __init__(self, state_bounds, virtual_bounds):
        problems = []
        self.state_bounds = tuple(state_bounds)
        self.virtual_bounds = finite_numbers(virtual_bounds, "A", problems)
        if self.virtual_bounds is not None and len(self.virtual_bounds) != self.n:
            problems.append(("A", f"need one virtual-control bound per level: got "
                                  f"{len(self.virtual_bounds)} for {self.n} state bounds"))
        rates = []
        for i, (bound, reserve) in enumerate(zip(self.state_bounds, self.virtual_bounds or ())):
            psi0 = bound.value(0.0)
            if reserve < 0:
                problems.append((f"A[{i}]", f"must be >= 0, got {reserve}"))
            elif not psi0 > reserve:
                problems.append((f"A[{i}]", f"infeasible envelope split at level {i + 1}: "
                                            f"Psi({i + 1})(0) = {psi0:g} does not exceed "
                                            f"A[{i}] = {reserve:g}"))
            else:
                rates.append(abs(bound.derivative(0.0)) / (psi0 - reserve))
        if problems:
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
        return self._envelope(i, t, self.state_bounds[i].value(t))

    def _envelope(self, i: int, t: float, bound: float) -> float:
        """psi_i(t) from the state bound Psi_i(t) = bound."""
        reserve = self.virtual_bounds[i]
        if reserve == 0.0:
            return bound
        return bound - reserve * math.exp(-self.release_rates[i] * t)

    def envelope_rate(self, i: int, t: float) -> float:
        """d/dt of the error envelope (analytic)."""
        reserve = self.virtual_bounds[i]
        rate = self.state_bounds[i].derivative(t)
        if reserve == 0.0:
            return rate
        r = self.release_rates[i]
        return rate + r * reserve * math.exp(-r * t)


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
    """Columns of a record table, one float64 row per kept instant, in the
    order BacksteppingCascade.write_row fills them: t, the augmented state
    (x, dhat, zeta, theta), Psi_i, psi_i, the cascade outputs, the barrier
    energy, ||theta|| and y_d. A vector group names its columns group1,
    group2, ...; a scalar group (size None) takes the group's name."""

    def __init__(self, n: int, l: int):
        self.at, self.index = {}, {}
        for group, size in (("t", None), ("x", n), ("dhat", n), ("zeta", n), ("theta", l),
                            ("Psi", n), ("psi", n), ("z", n), ("q", n), ("eps_hat", n),
                            ("alpha", n), ("v", n - 1), ("u", None), ("zeta_rate", n),
                            ("theta_rate", l), ("barrier_energy", None), ("theta_norm", None),
                            ("y_d", None)):
            start = len(self.index)
            if size is None:
                self.at[group] = self.index[group] = start
            else:
                self.at[group] = slice(start, start + size)
                self.index.update((f"{group}{i + 1}", start + i) for i in range(size))
        self.width = len(self.index)
        self.state = slice(1, self.at["theta"].stop)

    def read(self, row: np.ndarray) -> StepRecord:
        """The StepRecord a row holds; its arrays are views of the row."""
        at = self.at
        return StepRecord(row[at["z"]], row[at["q"]], row[at["eps_hat"]], row[at["alpha"]],
                          row[at["v"]], float(row[at["u"]]), row[at["zeta_rate"]],
                          row[at["theta_rate"]], float(row[at["barrier_energy"]]))


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
        # Constants of the final level, hoisted out of the hot loop.
        self._kn4_over_8 = self.observer_gains[-1] ** 4 / 8.0
        self._kn_sq = self.observer_gains[-1] ** 2
        self._float_weights = rbf.l <= _FLOAT_WEIGHTS_MAX
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
        """(y_d(t), [Psi_i(t)], [psi_i(t)], [dpsi_i/dt(t)]) for every level.

        Computed once per distinct t and reused while t repeats, as it
        does across an RK4 step (k1, the kept row and the run's
        metrics share t, k2 and k3 share t + h/2). A t that differs in
        the last bit is a new time.
        """
        if t != self._memo_t:
            c = self.constraints
            bounds = [bound.value(t) for bound in c.state_bounds]
            self._memo = (self.reference.value(t), bounds,
                          [c._envelope(i, t, bound) for i, bound in enumerate(bounds)],
                          [c.envelope_rate(i, t) for i in range(self.n)])
            self._memo_t = t
        return self._memo

    def _eval(self, t: float, x, dhat, zeta, theta):
        """Cascade pass; returns (z, q, eps_hat, alpha, v, u, zeta_rate,
        theta_rate, nn_out) with per-level lists of floats. theta_rate is
        a list of floats for up to _FLOAT_WEIGHTS_MAX weights and an array
        beyond.

        x, dhat, zeta and theta are arrays; the scalar work runs on Python
        floats, which round exactly as numpy float64 scalars and
        elementwise array operations do.
        """
        n = self.n
        k = self.gains.k
        kobs = self.observer_gains
        phi = self.rbf.basis(x)
        v_prev, _, psis, psi_rates = self.time_signals(t)
        x = x.tolist()
        dhat = dhat.tolist()
        zeta = zeta.tolist()
        z = []
        q = []
        eps_hat = []
        alpha = []
        zeta_rate = []
        v = []
        u = 0.0
        nn_out = 0.0
        for i in range(n):
            zi = x[i] - v_prev
            psi = psis[i]
            if not (abs(zi) < psi):
                raise BarrierViolation(zi, psi, level=i + 1, t=t)
            qi = q_value(zi, psi)
            ei = estimate(dhat[i], kobs[i], zi)
            wall_rate = (zi / psi) * psi_rates[i]
            if i < n - 1:
                ai = k[i] * zi + ei + qi - wall_rate
                v_prev = nussbaum(zeta[i]) * ai
                v.append(v_prev)
            else:
                nn_out = float(theta @ phi)
                ai = (k[i] * zi + ei + 0.5 * qi - wall_rate + nn_out
                      + damped_inverse(qi, self.gains.delta) * self._kn4_over_8)
                u = nussbaum(zeta[i]) * ai
            z.append(zi)
            q.append(qi)
            eps_hat.append(ei)
            alpha.append(ai)
            zeta_rate.append(qi * ai)
        lam = self.gains.lam
        qn = q[n - 1]
        kn_sq = self._kn_sq
        eta = self.gains.eta
        if self._float_weights:
            theta_rate = [lam * (qn * p - kn_sq * w - eta * w)
                          for p, w in zip(phi.tolist(), theta.tolist())]
        else:
            theta_rate = lam * (qn * phi - kn_sq * theta - eta * theta)
        return z, q, eps_hat, alpha, v, u, zeta_rate, theta_rate, nn_out

    def step(self, t: float, x, dhat, zeta, theta) -> StepRecord:
        """Full controller record at one instant (pure; repeat calls with
        the same inputs produce identical records)."""
        row = np.empty(self.layout.width)
        self.write_row(row, t, np.concatenate((x, dhat, zeta, theta)),
                       self._eval(t, x, dhat, zeta, theta), math.sqrt(theta @ theta))
        return self.layout.read(row)

    def write_row(self, row: np.ndarray, t: float, s, outputs, theta_norm: float) -> None:
        """Fill a record-table row at t from the augmented state s, the
        outputs _eval returned for it and ||theta||."""
        z, q, eps_hat, alpha, v, u, zeta_rate, theta_rate, _ = outputs
        y_d, bounds, psis, _ = self.time_signals(t)
        energy = 0.0
        for i in range(self.n):
            energy += blf_value(z[i], psis[i])
        row[:] = [t, *s.tolist(), *bounds, *psis, *z, *q, *eps_hat, *alpha, *v, u, *zeta_rate,
                  *theta_rate, energy, theta_norm, y_d]


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
