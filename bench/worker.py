"""One benchmark run of one workload, in a closed loop with one client.

``run.py`` starts this file in a fresh process, with the BLAS thread
count pinned to 1 and the checkout's ``src`` on PYTHONPATH:

    python3 bench/worker.py <workload> <seed> <seconds> <trace> <out_dir> <config>...

It drives the package only through its public calls
(``load_config_file``, ``run``, ``emit_csv``, ``emit_report`` and
``cli.main``), checks every output, and prints one JSON object as the
last line of its standard output.

A *unit* is one iteration of the loop: one library operation (parse,
run, emit) on ``flagship`` and ``wide_rbf``; one pass over all
scenarios on ``sweep``, each scenario through ``cli.main`` and then
through the library. Units start only after the previous one ends.
With trace 0 untraced units run until ``seconds`` have passed; with
trace 1 an untraced and a traced unit alternate until then, and the
tracing overhead is the ratio of their wall times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import expected_rows

import blfstep

clock = time.perf_counter
RUN_FAILURES = (blfstep.BarrierViolation, blfstep.InfeasibleInitialCondition,
                blfstep.NonFiniteState)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Untraced library operations emit each result again until this long has
# been spent emitting it. Emission is short, and the host's speed changes
# within a second, so emit_s needs the repeats. Traced units emit once,
# like a user.
EMIT_SECONDS = 0.3


class Workload:
    """A workload's inputs, output files and reference."""

    def __init__(self, name: str, seed: int, out_dir: Path, configs: list,
                 reference: dict, emit_seconds: float = 0.0):
        self.name = name
        self.seed = seed
        self.out = out_dir
        self.configs = [Path(p) for p in configs]
        self.docs = [json.loads(p.read_text(encoding="utf-8")) for p in self.configs]
        self.reference = reference
        self.emit_seconds = emit_seconds

    def path(self, kind: str, i: int, suffix: str) -> Path:
        return self.out / f"{kind}-{i:02d}.{suffix}"


def library_op(config_path: Path, csv_path: Path, emit_seconds: float = 0.0) -> dict:
    """Parse, run and emit one configuration as a library user would.

    A completed run's emission repeats until ``emit_seconds`` have been
    spent on it. ``emit_s`` holds one time per emission; ``scenario_s``
    counts the first.
    """
    csv_path.unlink(missing_ok=True)
    t0 = clock()
    config = blfstep.load_config_file(str(config_path))
    t1 = clock()
    try:
        outcome = blfstep.run(config)
    except RUN_FAILURES as exc:
        outcome = exc
    t2 = clock()
    completed = isinstance(outcome, blfstep.SimResult)
    emit_s, spent = [], 0.0
    while not emit_s or (completed and spent < emit_seconds):
        start = clock()
        if completed:
            blfstep.emit_csv(outcome, str(csv_path))
        report = blfstep.emit_report(outcome)
        emit_s.append(clock() - start)
        spent += emit_s[-1]
    return {"run_s": t2 - t1, "emit_s": emit_s, "scenario_s": t2 - t0 + emit_s[0],
            "outcome": outcome, "report": report, "completed": completed}


def cli_op(config_path: Path, csv_path: Path, report_path: Path):
    """``blfstep simulate`` in this process; returns (code, seconds, stdout)."""
    csv_path.unlink(missing_ok=True)
    report_path.unlink(missing_ok=True)
    printed = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(printed):
        code = blfstep.cli.main(["simulate", str(config_path), "--out", str(csv_path),
                                 "--report", str(report_path)])
    return code, clock() - t0, printed.getvalue()


def accepted_steps(outcome, doc: dict) -> int:
    """RK4 steps a run completed: all of them, or those before its abort."""
    step = doc.get("step", 1e-3)
    if isinstance(outcome, blfstep.SimResult):
        return int(round(doc.get("horizon", 20.0) / step))
    return int(math.floor((getattr(outcome, "t", None) or 0.0) / step + 1e-9))


def _finish(op: dict, doc: dict, csv_paths: list, runs: int) -> dict:
    """Fields every checked operation carries besides its timings."""
    written = [p for p in csv_paths if p.is_file()]
    op["steps"] = accepted_steps(op["outcome"], doc)
    op["runs"] = runs
    op["csv_rows"] = sum(checks.csv_rows(p) for p in written)
    op["csv_bytes"] = sum(p.stat().st_size for p in written)
    del op["outcome"]
    return op


def fixed_op(w: Workload) -> dict:
    """flagship / wide_rbf: one library operation checked against the reference."""
    csv_path = w.path("lib", 0, "csv")
    op = library_op(w.configs[0], csv_path, w.emit_seconds)
    w.path("lib", 0, "txt").write_text(op["report"], encoding="utf-8")
    if op["completed"]:
        got = checks.summary(op["outcome"], op["report"], csv_path)
        op["problems"] = checks.check_summary(got, w.reference)
        op["csv_sha256"] = got["csv_sha256"]
    else:
        op["problems"] = [f"run did not complete: {op['outcome']}"]
    return _finish(op, w.docs[0], [csv_path], runs=1)


def sweep_op(w: Workload, i: int) -> dict:
    """One scenario through ``cli.main``, then through the library."""
    cli_csv, cli_report = w.path("cli", i, "csv"), w.path("cli", i, "txt")
    code, cli_s, printed = cli_op(w.configs[i], cli_csv, cli_report)
    lib_csv = w.path("lib", i, "csv")
    op = library_op(w.configs[i], lib_csv, w.emit_seconds)
    w.path("lib", i, "txt").write_text(op["report"], encoding="utf-8")
    op["scenario_s"] = cli_s
    expected = None
    op["problems"] = []
    if w.seed == w.reference["seed"]:
        expected = w.reference["exit_codes"][i]
        if op["completed"] != w.reference["completed"][i]:
            op["problems"].append(f"completed is {op['completed']}, reference "
                                  f"{w.reference['completed'][i]}")
    op["problems"] += checks.check_cli_outputs(
        code, printed, cli_report, cli_csv, expected_rows(w.docs[i]), op["report"],
        lib_csv if op["completed"] else None, expected)
    return _finish(op, w.docs[i], [cli_csv, lib_csv], runs=2)


def run_unit(w: Workload, tracer: tracing.Tracer | None) -> dict:
    """One loop iteration; every operation in it is checked."""
    count = len(w.configs) if w.name == "sweep" else 1
    ops = []
    before = tracer.snapshot() if tracer else None
    first_op = tracer.op if tracer else 0
    start = clock()
    for i in range(count):
        try:
            ops.append(sweep_op(w, i) if w.name == "sweep" else fixed_op(w))
        except Exception:  # a traceback is a failed operation, not a crash
            ops.append({"problems": ["traceback:\n" + traceback.format_exc()],
                        "failed_op": True})
        if tracer:
            tracer.op += 1
    unit = {"wall_s": clock() - start, "ops": ops}
    if tracer:
        unit["layers"] = tracing.layer_totals(before, tracer.snapshot())
        unit["op_ids"] = range(first_op, tracer.op)
    return unit


def warm_up(w: Workload) -> None:
    """Load every module and code path once on a short run, untimed."""
    doc = dict(w.docs[0], horizon=0.05)
    path = w.out / "warmup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    library_op(path, w.out / "warmup.csv")
    cli_op(path, w.out / "warmup-cli.csv", w.out / "warmup-cli.txt")


def measure(w: Workload, seconds: float, trace: bool):
    """Closed loop for ``seconds``; returns (untraced units, traced units,
    window seconds, tracer)."""
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []
    start = clock()
    while True:
        plain.append(run_unit(w, None))
        if tracer:
            tracer.install()
            try:
                traced.append(run_unit(w, tracer))
            finally:
                tracer.uninstall()
        if clock() - start >= seconds:
            break
    return plain, traced, clock() - start, tracer


def good_ops(units: list) -> list:
    return [op for u in units for op in u["ops"] if not op.get("failed_op")]


def end_to_end(units: list, window: float) -> dict:
    """The end-to-end metrics of the untraced units.

    Times are means, not medians. The host's speed drifts by up to a
    fifth over minutes, and a run holds only a few flagship-sized runs,
    so the mean is the steadier estimate from run to run. Short samples,
    such as single emissions, also fall into the fast or the slow
    periods of a shared core, and a median of them jumps between the
    two. The median and tail of ``run`` times are reported beside.
    """
    ops = good_ops(units)
    emits = [t for op in ops if op["completed"] for t in op["emit_s"]]
    run_total = sum(op["run_s"] for op in ops)
    return {
        "run_s": run_total / len(ops),
        "steps_per_s": sum(op["steps"] for op in ops) / run_total,
        "emit_s": statistics.fmean(emits),
        "runs_per_s": len(ops) / window,
        "scenario_s": statistics.fmean(op["scenario_s"] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tail(samples: list):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return math.floor(100 * (len(ordered) - 10) / len(ordered)), ordered[-11]


def per_layer(w: Workload, plain: list, traced: list, tracer) -> tuple:
    """Per-layer metrics of one traced unit, and any count mismatch."""
    def calls(unit, key):
        return unit["layers"].get(key, (0, 0.0))[0]

    def self_s(unit, *keys):
        return sum(unit["layers"].get(k, (0, 0.0))[1] for k in keys)

    def span_s(unit, name):
        return tracing.span_seconds(tracer.spans, name, unit["op_ids"])

    doc = w.docs[0]
    l, n = doc["rbf"]["l"], doc["plant"]["n"]
    first = traced[0]
    # Time points each run visits: its accepted steps plus the start.
    points = sum((op["steps"] + 1) * op["runs"] for op in good_ops([first]))
    basis = calls(first, "approximator")
    counts = {
        "signals.calls": calls(first, "signals"),
        "controller.eval_calls": calls(first, "controller.eval"),
        "controller.step_calls": calls(first, "controller.step"),
        "controller.evals_per_step": calls(first, "controller.eval") / points,
        "approximator.basis_calls": basis,
        # Computed from l and n, not measured: per basis call l*n
        # subtractions, multiplies and adds less l, then a negation,
        # a division and an exp per node; compulsory bytes are the
        # centers and widths read and the basis vector written.
        "approximator.flops": basis * l * (3 * n + 2),
        "approximator.bytes": basis * 8 * l * (n + 2),
        "plant.calls": calls(first, "plant"),
        "barrier.calls": calls(first, "barrier"),
        "observer.calls": calls(first, "observer"),
        "simengine.rk4_calls": calls(first, "simengine.rk4"),
        "cli.csv_rows": sum(op["csv_rows"] for op in good_ops([first])),
        "cli.csv_bytes": sum(op["csv_bytes"] for op in good_ops([first])),
    }
    mismatches = []
    for unit in traced[1:]:
        for key in ("signals", "controller.eval", "controller.step", "approximator",
                    "plant", "barrier", "observer", "simengine.rk4"):
            if calls(unit, key) != calls(first, key):
                mismatches.append(f"{key} calls {calls(unit, key)} != {calls(first, key)} "
                                  "in an identical traced unit")

    def med(fn):
        return statistics.median(fn(u) for u in traced)

    times = {
        "signals.self_s": med(lambda u: self_s(u, "signals")),
        "controller.self_s": med(lambda u: self_s(u, "controller.eval", "controller.step")),
        "approximator.self_s": med(lambda u: self_s(u, "approximator")),
        "plant.self_s": med(lambda u: self_s(u, "plant")),
        "barrier.self_s": med(lambda u: self_s(u, "barrier")),
        "observer.self_s": med(lambda u: self_s(u, "observer")),
        "simengine.rk4_self_s": med(lambda u: self_s(u, "simengine.rk4")),
        "simengine.derivative_self_s": med(lambda u: self_s(u, "simengine.derivative")),
        "simengine.loop_self_s": med(lambda u: self_s(u, "simengine.run")),
        "cli.parse_s": med(lambda u: span_s(u, "cli.parse")),
        "cli.emit_csv_s": med(lambda u: span_s(u, "cli.emit_csv")),
        "cli.emit_report_s": med(lambda u: span_s(u, "cli.emit_report")),
        "trace.overhead": statistics.median(u["wall_s"] for u in traced)
        / statistics.median(u["wall_s"] for u in plain),
    }
    return {**counts, **times}, mismatches


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv: list) -> int:
    name, seed, seconds, trace, out_dir, *configs = argv
    root = Path(__file__).resolve().parent.parent
    package = Path(blfstep.__file__).resolve()
    if root / "src" not in package.parents:
        print(f"error: imported blfstep from {package}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    reference = checks.load_reference()[name]
    w = Workload(name, int(seed), Path(out_dir), configs, reference,
                 emit_seconds=0.0 if trace == "1" else EMIT_SECONDS)
    warm_up(w)
    plain, traced, window, tracer = measure(w, float(seconds), trace == "1")
    if not any(op["completed"] for op in good_ops(plain + traced)):
        print("error: no run completed, so the metrics are undefined", file=sys.stderr)
        for unit in plain + traced:
            for op in unit["ops"]:
                print("\n".join(op["problems"]), file=sys.stderr)
        return 1

    problems = [p for u in plain + traced for op in u["ops"] for p in op["problems"]]
    failed = sum(1 for u in plain + traced for op in u["ops"] if op["problems"])
    attempted = sum(len(u["ops"]) for u in plain + traced)
    result = {"attempted": attempted, "failed": failed, "env": environment()}
    if tracer:
        result["metrics"], mismatches = per_layer(w, plain, traced, tracer)
        problems += mismatches
        result["layer_table"] = [[key, parent, calls, secs]
                                 for (key, parent), (calls, secs) in sorted(tracer.agg.items())]
        spans_path = w.out / f"spans-{name}-{seed}.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                          "spans": tracer.spans}), encoding="utf-8")
        result["spans_file"] = str(spans_path)
    else:
        result["metrics"] = end_to_end(plain, window)
    run_times = [op["run_s"] for op in good_ops(plain)]
    result["run_s_samples"] = len(run_times)
    result["run_s_median"] = statistics.median(run_times)
    result["run_s_tail"] = tail(run_times)
    hashes = {op.get("csv_sha256") for op in good_ops(plain + traced)}
    if "csv_sha256" in reference:
        result["csv_identical"] = hashes == {reference["csv_sha256"]}
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
