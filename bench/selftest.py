"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

They run each workload on shortened configurations, check that the
output checks flag a wrong reference, and check that the entry point
refuses a checkout without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MEASURED_IN_WORKER = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "cli_s"}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def tiny_workload(name: str, tmp_path: Path) -> worker.Workload:
    """The workload with its horizons cut to a few hundred steps."""
    configs = workloads.write_configs(ROOT, name, 0, tmp_path)
    if name == "flagship":
        configs = [tmp_path / "flagship.json"]
        configs[0].write_text(json.dumps(workloads.flagship_doc(ROOT)), encoding="utf-8")
    for path in configs:
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["horizon"] = 0.2
        path.write_text(json.dumps(doc), encoding="utf-8")
    reference = {"seed": None}
    if name != "sweep":
        op = worker.library_op(configs[0], tmp_path / "ref.csv")
        reference = checks.summary(op["outcome"], op["report"], tmp_path / "ref.csv")
    return worker.Workload(name, 0, tmp_path, configs, reference)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_finishes_with_every_metric(name, tmp_path):
    w = tiny_workload(name, tmp_path)
    worker.warm_up(w)
    plain, traced, window, tracer = worker.measure(w, 0.0, trace=True)
    assert len(plain) == len(traced) == 1
    problems = [p for u in plain + traced for op in u["ops"] for p in op["problems"]]
    assert problems == []
    assert set(worker.end_to_end(plain, window)) == MEASURED_IN_WORKER
    layers, mismatches = worker.per_layer(w, plain, traced, tracer)
    assert set(layers) == PER_LAYER and mismatches == []
    ops = len(w.configs)
    runs = 2 * ops if name == "sweep" else 1
    assert layers["controller.eval_calls"] == runs * (200 * 4 + 201)
    assert layers["simengine.rk4_calls"] == runs * 200


def test_output_check_flags_wrong_reference(tmp_path):
    w = tiny_workload("flagship", tmp_path)
    good = dict(w.reference)
    assert checks.check_summary(good, w.reference) == []
    for key, wrong in (("tracking_rmse_tail", good["tracking_rmse_tail"] * (1 + 1e-4)),
                       ("verdict", "PASS" if good["verdict"] == "FAIL" else "FAIL"),
                       ("max_error_ratio", [good["max_error_ratio"][0] * 1.01,
                                            good["max_error_ratio"][1]]),
                       ("csv_rows", good["csv_rows"] + 1)):
        problems = checks.check_summary(good, dict(w.reference, **{key: wrong}))
        assert len(problems) == 1 and problems[0].startswith(key)
    report = "closed-loop run report\n\nverdict: FAIL\n"
    assert checks.check_exit(2, report, expected=2) == []
    assert checks.check_exit(2, report, expected=0) != []
    assert checks.check_exit(0, report) != []


def test_recorded_reference_covers_every_workload():
    reference = checks.load_reference()
    assert set(reference) == set(workloads.NAMES)
    assert reference["flagship"]["tracking_rmse_tail"] == 0.05162609011108663
    sweep = reference["sweep"]
    assert len(sweep["exit_codes"]) == len(sweep["completed"]) == workloads.SWEEP_SCENARIOS


def test_sweep_scenarios_repeat_per_seed_and_balance_signs():
    base = workloads.flagship_doc(ROOT)
    docs = workloads.sweep_docs(base, 7)
    assert docs == workloads.sweep_docs(base, 7) != workloads.sweep_docs(base, 8)
    betas = [d["plant"]["beta"] for d in docs]
    assert sum(b < 0 for b in betas) == len(docs) // 2
    assert all(0.5 <= abs(b) <= 2.0 for b in betas)
    for d in docs:
        assert all(0.0 <= s["amplitude"] <= 0.3 for s in d["plant"]["disturbances"])
        assert 0.5 <= d["reference"]["amplitude"] <= 1.0
        assert (d["horizon"], d["decimation"]) == (2.0, 1)


def test_tracer_uninstall_restores_the_package():
    import blfstep
    from blfstep import controller, simengine

    before = (blfstep.run, simengine.rk4_step, controller.q_value,
              controller.BacksteppingCascade.__dict__["_eval"])
    tracer = tracing.Tracer()
    tracer.install()
    assert blfstep.run is not before[0]
    tracer.uninstall()
    after = (blfstep.run, simengine.rk4_step, controller.q_value,
             controller.BacksteppingCascade.__dict__["_eval"])
    assert after == before


def test_entry_point_refuses_checkout_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "flagship", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
