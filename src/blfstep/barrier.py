"""Scalar barrier and gain-search primitives.

Every controller level funnels its error coordinate z through these
functions. The log barrier 0.5*log(psi^2/(psi^2 - z^2)) and its gradient
factor Q = z/(psi^2 - z^2) are undefined outside |z| < psi, so leaving
the envelope raises BarrierViolation instead of clamping: a clamp would
silently mask exactly the property the closed loop is supposed to
guarantee.
"""

from __future__ import annotations

import math

from .signals import ConfigError, number


class BarrierViolation(RuntimeError):
    """An error coordinate reached or left its envelope |z| < psi."""

    def __init__(self, z: float, psi: float, level: int | None = None, t: float | None = None):
        self.z = z
        self.psi = psi
        self.level = level
        self.t = t
        where = f" at level {level}" if level is not None else ""
        when = f", t={t:.6g}" if t is not None else ""
        super().__init__(f"barrier violated{where}{when}: |z|={abs(z):.6g} >= psi={psi:.6g}")


def _check(z: float, psi: float) -> None:
    if not (abs(z) < psi):
        raise BarrierViolation(z, psi)


def blf_value(z: float, psi: float) -> float:
    """Log-barrier value 0.5*log(psi^2/(psi^2 - z^2)).

    Zero exactly at z = 0, strictly increasing in |z|, divergent as
    |z| -> psi.
    """
    _check(z, psi)
    s = (z / psi) ** 2
    return -0.5 * math.log1p(-s)

def q_value(z: float, psi: float) -> float:
    """Barrier gradient factor z/(psi^2 - z^2); same sign as z."""
    _check(z, psi)
    return z / ((psi - z) * (psi + z))


def nussbaum(zeta: float) -> float:
    """Gain-search function zeta^2 * cos(zeta): even, with sign swings of
    growing amplitude, so the running integral sweeps both signs."""
    return zeta * zeta * math.cos(zeta)


def log_bound_gap(z: float, psi: float) -> float:
    """Slack z^2/(psi^2 - z^2) - log(psi^2/(psi^2 - z^2)).

    Strictly positive for any 0 < |z| < psi and zero only at z = 0; this
    is the inequality that lets the barrier value be absorbed into a
    quadratic dissipation term. Computed via log1p so the sign survives
    tiny |z|.
    """
    _check(z, psi)
    s = (z / psi) ** 2
    return s / (1.0 - s) + math.log1p(-s)


def damped_inverse(q: float, delta: float) -> float:
    """Regularized reciprocal q/(q^2 + delta).

    Agrees with 1/q for |q| >> sqrt(delta), is odd, vanishes at q = 0,
    and is bounded by 1/(2*sqrt(delta)) everywhere, which removes the
    singularity of the raw 1/Q feedback term at z = 0.
    """
    problems = []
    if number(delta, "delta", problems, above=0) is None:
        raise ConfigError(problems)
    return q / (q * q + delta)
