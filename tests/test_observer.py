import math
from dataclasses import replace

import numpy as np
import pytest

from blfstep.observer import (
    dhat_rate_final,
    dhat_rate_inner,
    estimate,
    initial_dhat,
)
from blfstep.simengine import rk4_step, run


def test_estimate_examples():
    assert estimate(0.0, 7.0, 0.0) == 0.0
    z0 = 0.37
    assert estimate(-7.0 * z0, 7.0, z0) == 0.0
    assert estimate(1.0, 7.0, 0.5) == 4.5


def test_estimate_additive():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d1, d2, z1, z2, k = rng.normal(size=5)
        lhs = estimate(d1 + d2, k, z1 + z2)
        rhs = estimate(d1, k, z1) + estimate(d2, k, z2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_inner_rate_examples():
    assert dhat_rate_inner(7.0, 0.0, 0.0) == 0.0
    assert dhat_rate_inner(7.0, 1.0, 0.0) == -7.0
    assert dhat_rate_inner(7.0, 1.0, -1.0) == 0.0


def test_final_rate_examples():
    assert dhat_rate_final(7.0, 0.0, 0.0, 0.0) == 0.0
    assert dhat_rate_final(7.0, 0.5, -0.5, 0.0) == 0.0
    assert dhat_rate_final(1.0, 1.0, 1.0, 1.0) == -3.0


def test_initial_dhat_zeroes_the_estimate():
    gains = (7.0, 3.0)
    z0 = (0.05, -0.02)
    dhat0 = initial_dhat(gains, z0)
    for d, k, z in zip(dhat0, gains, z0):
        assert estimate(d, k, z) == 0.0


@pytest.mark.parametrize("gain", [1.0, 7.0])
def test_estimation_error_decays_exponentially(gain):
    """Frozen inner channel: z' = x2 + eps with x2 = 0 and constant eps.

    The estimation error then obeys err' = -gain * err, so the simulated
    error must match err(0)*exp(-gain*t) at the checkpoints.
    """
    eps = 1.0
    h = 1e-5

    def field(t, y):
        z, dhat = y
        return [eps, dhat_rate_inner(gain, 0.0, estimate(dhat, gain, z))]

    y = [0.0, 0.0]  # err(0) = eps - estimate(0) = eps
    t = 0.0
    checkpoints = {0.1, 0.5, 1.0}
    steps = int(round(1.0 / h))
    for k in range(1, steps + 1):
        y = rk4_step(field, t, y, h)
        t = k * h
        if round(t, 9) in checkpoints:
            err = eps - estimate(y[1], gain, y[0])
            assert abs(err - eps * math.exp(-gain * t)) < 1e-6


def test_level_one_estimation_error_within_its_bound(sec6_config):
    """Level 1 of the flagship against the simulator's truth.

    The lumped uncertainty at level 1 is eps_1 = d_1(t) - y_d'(t) =
    0.2 cos(pi t) - cos t, with |eps_1'| <= 0.2 pi + 1 = S. The observer
    gives e_1' = -k_1 e_1 + eps_1' for e_1 = eps_1 - eps_hat_1, so at every
    accepted step |e_1(t)| <= |e_1(0)| exp(-k_1 t) + (1 - exp(-k_1 t)) S / k_1.
    Only the recorded eps_hat_1 is read from the run.
    """
    res = run(replace(sec6_config, horizon=3.0, decimation=1))
    k1 = sec6_config.observer_gains[0]
    assert k1 == 7.0
    sup_rate = 0.2 * math.pi + 1.0
    times = res.times.tolist()
    errors = [0.2 * math.cos(math.pi * t) - math.cos(t) - eps_hat
              for t, eps_hat in zip(times, res.records.columns(["eps_hat1"])[:, 0].tolist())]
    assert len(errors) == 3001 and errors[0] == 0.2 - 1.0
    worst = 0.0
    for t, e in zip(times, errors):
        decay = math.exp(-k1 * t)
        bound = abs(errors[0]) * decay + (1.0 - decay) * sup_rate / k1
        assert abs(e) <= bound, t
        if t > 0:
            worst = max(worst, abs(e) / bound)
    assert 0.99 < worst < 1.0
