"""The flagship's fixed-step RK4 run against scipy's DOP853 over the full horizon.

    PYTHONPATH=src python3 tools/dop853_check.py

Runs the bundled ``paper_sec6.json`` at decimation 1, then integrates the
same closed loop (the generated ``ClosedLoop.rates`` from the run's
initial state) with DOP853 at rtol 1e-10, atol 1e-12, sampled at every
step time. Prints the largest ``|x_rk4 - x_dop853|`` over the plant
states and each integrator's peak ``|x_2| / Psi_2``, with ``Psi_2`` read
from ``ClosedLoop.signals``. Needs scipy; takes about 20 s on a 2-vCPU
Xeon. The tier-1 test ``test_rk4_agrees_with_dop853`` covers [0, 1] s.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
from scipy.integrate import solve_ivp

import blfstep
from blfstep import ClosedLoop


def main() -> None:
    cfg = dataclasses.replace(blfstep.load_config_file(blfstep.paper_sec6_path()), decimation=1)
    start = time.perf_counter()
    res = blfstep.run(cfg)
    rk4_s = time.perf_counter() - start
    loop = ClosedLoop(cfg)
    start = time.perf_counter()
    sol = solve_ivp(lambda t, y: loop.rates(t, *y.tolist()), (0.0, res.times[-1]),
                    res.trajectory[0], method="DOP853", rtol=1e-10, atol=1e-12, t_eval=res.times)
    dop_s = time.perf_counter() - start
    if not sol.success:
        raise SystemExit(f"DOP853 failed: {sol.message}")
    n = cfg.plant.n
    rk4_x = res.trajectory[:, :n]
    dop_x = sol.y[:n].T
    psi2 = np.array([loop.signals(t)[1][1] for t in res.times.tolist()])
    gap = np.abs(rk4_x - dop_x)
    worst = np.unravel_index(np.argmax(gap), gap.shape)
    print(f"horizon {res.times[-1]:g} s, step {cfg.step:g}: {len(res.times) - 1} RK4 steps "
          f"({rk4_s:.1f} s), {sol.nfev} DOP853 evaluations ({dop_s:.1f} s)")
    print(f"max |x_rk4 - x_dop853| = {gap[worst]:.3g} (x{worst[1] + 1} at t = {res.times[worst[0]]:.4g} s)")
    for name, x2 in (("RK4", rk4_x[:, 1]), ("DOP853", dop_x[:, 1])):
        ratio = np.abs(x2) / psi2
        peak = int(np.argmax(ratio))
        print(f"{name:>6}: peak |x2|/Psi2 = {ratio[peak]:.4f} at t = {res.times[peak]:.4g} s")


if __name__ == "__main__":
    main()
