"""Benchmark of the blfstep simulator: one workload per run, or all of them.

    python3 bench/run.py --workload flagship --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. With ``--trace 0`` a run reports the end-to-end
metrics listed in ``BENCHMARK.json``: set-up time measured in fresh
processes, the closed-loop measurements of ``worker.py`` and the wall
time of the cold command-line run. With ``--trace 1`` it reports the
per-layer metrics from a traced worker instead. Every output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs every workload ``BENCHMARK.json`` lists, in both modes, and
prefixes metric names with the workload. ``wide_rbf`` is not listed
there (see README.md) and runs only by name. Files go to ``bench/out/``.

Exits 1 when a step of the benchmark fails and 2 when the checkout has
no package source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
# Cold command-line runs repeat in rounds over the configs until both
# limits are reached.
COLD_CLI_SECONDS = 9
COLD_CLI_MIN_RUNS = 4
WORKER_TIMEOUT_S = 150
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import blfstep\n"
    "blfstep.load_config_file(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class BenchError(RuntimeError):
    """A step of the benchmark itself failed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list, timeout: float) -> subprocess.CompletedProcess:
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    try:
        return subprocess.run(args, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[1:3]} did not finish within {timeout} s") from exc


def setup_seconds(config: Path) -> float:
    """Median time of ``import blfstep`` plus loading one config, each
    measured in a fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = run_child([sys.executable, "-c", SETUP_PROBE, str(config)], 60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def cold_cli(configs: list, docs: list, out: Path, expected: list) -> tuple:
    """Cold ``python -m blfstep simulate`` runs, checked against the
    worker's library outputs for the same configs.

    Rounds of one run per config repeat until ``COLD_CLI_SECONDS`` have
    passed and ``COLD_CLI_MIN_RUNS`` have run. Returns (cli_s, runs, failed runs, problems): cli_s is the
    mean wall time of a run, a mean for the reason ``worker.end_to_end``
    gives.
    """
    times, problems, failed = [], [], 0
    start = time.perf_counter()
    while (time.perf_counter() - start < COLD_CLI_SECONDS
           or len(times) < COLD_CLI_MIN_RUNS):
        for i, config in enumerate(configs):
            csv_path, report_path = out / f"cold-{i:02d}.csv", out / f"cold-{i:02d}.txt"
            csv_path.unlink(missing_ok=True)
            report_path.unlink(missing_ok=True)
            t0 = time.perf_counter()
            proc = run_child([sys.executable, "-m", "blfstep", "simulate", str(config),
                              "--out", str(csv_path), "--report", str(report_path)], 120)
            times.append(time.perf_counter() - t0)
            lib_csv = out / f"lib-{i:02d}.csv"
            found = checks.check_cli_outputs(
                proc.returncode, proc.stdout, report_path, csv_path,
                workloads.expected_rows(docs[i]),
                (out / f"lib-{i:02d}.txt").read_text(encoding="utf-8"),
                lib_csv if lib_csv.is_file() else None, expected[i])
            if "Traceback" in proc.stderr:
                found.append("cold CLI run printed a traceback")
            failed += bool(found)
            problems += [f"cold CLI, config {i}: {p}" for p in found]
    return statistics.fmean(times), len(times), failed, problems


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "commit": commit}


def declared() -> tuple:
    """Workload names, and metric units by trace mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([w["name"] for w in spec["workloads"]],
            {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in spec["per_layer"]}})


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns the full result record."""
    out = BENCH / "out" / workload
    out.mkdir(parents=True, exist_ok=True)
    configs = workloads.write_configs(ROOT, workload, seed, out)
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in configs]
    ref = checks.load_reference()[workload]

    metrics = {}
    if not trace:
        metrics["setup_s"] = setup_seconds(configs[0])
    proc = run_child([sys.executable, str(BENCH / "worker.py"), workload, str(seed),
                      str(seconds), str(trace), str(out), *map(str, configs)],
                     WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    if not trace:
        if workload == "sweep":
            expected = ref["exit_codes"] if seed == ref["seed"] else [None] * len(configs)
        else:
            expected = [ref["exit_code"]]
        metrics["cli_s"], runs, failed, problems = cold_cli(configs, docs, out, expected)
        result["attempted"] += runs
        result["failed"] += failed
        result["problems"] += problems
    result["metrics"] = metrics
    result["env"].update(environment())
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    path = out / f"result-{workload}-{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def print_result(result: dict, units: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"({result['seconds']} s)")
    for name, unit in units.items():
        line = f"  {name:30s} {result['metrics'][name]:.6g} {unit}"
        if name == "run_s":
            tail = result["run_s_tail"]
            line += (f"   mean of {result['run_s_samples']} runs; median "
                     f"{result['run_s_median']:.6g} s; "
                     + (f"p{tail[0]} = {tail[1]:.6g} s" if tail else
                        "no percentile has ten samples beyond it"))
        print(line)
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':30s} {rate:.6g}   ({result['failed']} of "
          f"{result['attempted']} operations failed their output check)")
    if "csv_identical" in result:
        print(f"  {'csv_identical':30s} {str(result['csv_identical']).lower()}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"  env: {json.dumps(result['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blfstep" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'blfstep'}", file=sys.stderr)
        return 2
    names, metrics = declared()
    if args.workload == "all":
        runs = [(w, t) for w in names for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        try:
            result = run_once(workload, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        units = metrics[str(trace)]
        if set(result["metrics"]) != set(units):
            print(f"error: {workload} reported {sorted(result['metrics'])}, "
                  f"BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
            return 1
        print_result(result, units)
        prefix = f"{workload}." if args.workload == "all" else ""
        summary["metrics"].update(
            {prefix + name: {"value": result["metrics"][name], "unit": unit}
             for name, unit in units.items()})
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["correct"] &= result["failed"] == 0 and not result["problems"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
