"""Composite-uncertainty observer.

Each level i carries an auxiliary state dhat_i whose role is to estimate
the lumped uncertainty eps_i acting on that level's error dynamics
(disturbance plus the derivative of the upstream virtual control; the
final level additionally absorbs the approximator error and the
(beta - 1)*u mismatch). The estimate is recovered algebraically as

    eps_hat_i = dhat_i + k_i * z_i

and the auxiliary state integrates the rates below. For a frozen plant
the estimation error then decays as exp(-k_i * t).
"""

from __future__ import annotations


def estimate(dhat: float, gain: float, z: float) -> float:
    """Uncertainty estimate eps_hat = dhat + gain * z."""
    return dhat + gain * z


def dhat_rate_inner(gain: float, x_next: float, eps_hat: float) -> float:
    """Auxiliary-state rate -gain*(x_next + eps_hat) for levels below the last."""
    return -gain * (x_next + eps_hat)


def dhat_rate_final(gain: float, nn_out: float, u: float, eps_hat: float) -> float:
    """Auxiliary-state rate -gain*(nn_out + u + eps_hat) for the last level."""
    return -gain * (nn_out + u + eps_hat)


def initial_dhat(gains, z0) -> list:
    """Start from eps_hat(0) = 0: dhat_i(0) = -gain_i * z_i(0), a list of
    floats.

    There is no prior knowledge of the lumped uncertainty, so the
    estimate starts at zero rather than at an arbitrary value.
    """
    return [-g * z for g, z in zip(gains, z0)]
