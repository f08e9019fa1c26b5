"""Alternating parent/change benchmark pairs, summarised as BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR LABEL PAIRS WORKLOAD... [--change TEXT]

For each workload, pair N (seed N, N = 0 .. PAIRS-1) runs

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

once in each checkout, the parent first on even seeds and the change
first on odd ones, with S the ``run_seconds`` of the change's
BENCHMARK.json, and reads each run's last JSON line. Then it makes one
traced flagship run (seed 0, trace 1) in each checkout and records its
per-layer metrics side by side.

Writes ``BENCH_<label>.json`` in the current directory: per workload and
end-to-end metric, the median and [q1, q3] of each side's runs and the
number of pairs in which the change was better; the traced counts and
self times; and whether every run's CSV matched the bench reference.
Also prints one table per workload. Standard library only; writes
nothing under either checkout's ``bench/`` beyond what ``bench/run.py``
itself writes there, and reads back the result file it writes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ENV_PROBE = (
    "import json, sys, numpy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
    "                  'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
)


def bench_run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``bench/run.py`` run; returns its last JSON line, plus the
    ``csv_identical`` of the result file it wrote, where it has one."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {checkout}: {' '.join(command[1:])} exited with "
                         f"{proc.returncode}\n{proc.stderr}")
    summary = json.loads(lines[-1])
    written = checkout / "bench" / "out" / workload / f"result-{workload}-{seed}-trace{trace}.json"
    summary["csv_identical"] = json.loads(written.read_text(encoding="utf-8")).get("csv_identical")
    return summary


def spread(values: list) -> dict:
    if len(values) < 2:
        values = values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 5), "q1_q3": [round(q1, 5), round(q3, 5)]}


def summarise(pairs: list, better: dict) -> dict:
    """Per metric: unit, each side's median and quartiles, and the count
    of pairs where the change was better."""
    table = {}
    for name, entry in pairs[0]["change"]["metrics"].items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        table[name] = {"unit": entry["unit"],
                       **{side: spread(values[side]) for side in SIDES},
                       "change_better_in": f"{wins}/{len(pairs)}"}
    return table


def print_table(workload: str, table: dict) -> None:
    print(f"== {workload}")
    print(f"  {'metric':14s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
          f" {'ratio':>7s} {'better':>7s}")
    for name, row in table.items():
        cells = []
        for side in SIDES:
            q1, q3 = row[side]["q1_q3"]
            cells.append(f"{row[side]['median']:.5g} [{q1:.5g}, {q3:.5g}]")
        ratio = row["change"]["median"] / row["parent"]["median"]
        print(f"  {name:14s} {cells[0]:>34s} {cells[1]:>34s} {ratio:7.3f} "
              f"{row['change_better_in']:>7s}")


def commit_of(checkout: Path):
    try:
        return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("label")
    parser.add_argument("pairs", type=int)
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--change", dest="description", default="",
                        help="one line saying what the change does")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seconds = spec["run_seconds"]

    env = json.loads(subprocess.run([sys.executable, "-c", ENV_PROBE], capture_output=True,
                                    text=True, check=True).stdout)
    doc = {
        "label": args.label,
        "change": args.description,
        "parent_commit": commit_of(dirs["parent"]),
        "machine": {"cpu_model": cpu_model(), "cpus_usable": len(os.sched_getaffinity(0))},
        **env,
        "command": f"python3 bench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "protocol": f"{args.pairs} alternating parent/change pairs per workload, seeds "
                    f"0-{args.pairs - 1}, parent first on even seeds; median [q1, q3] over "
                    f"the {args.pairs} runs of each side",
        "end_to_end": {},
    }
    runs = []
    for workload in args.workloads:
        pairs = []
        for seed in range(args.pairs):
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            pair = {side: bench_run(dirs[side], workload, seed, seconds, 0) for side in order}
            runs += pair.values()
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} emit_s {pair[side]['metrics']['emit_s']['value']:.4g}" for side in SIDES),
                file=sys.stderr)
        doc["end_to_end"][workload] = summarise(pairs, better)
        print_table(workload, doc["end_to_end"][workload])

    traced = {side: bench_run(dirs[side], "flagship", 0, seconds, 1) for side in SIDES}
    runs += traced.values()
    doc["traced_flagship"] = {
        "command": f"python3 bench/run.py --workload flagship --seed 0 --seconds {seconds} "
                   "--trace 1",
        # per-layer metrics measured in seconds under self_s, every other one under counts
        **{group: {name: {side: traced[side]["metrics"][name]["value"] for side in SIDES}
                   for name in traced["change"]["metrics"] if (units[name] == "s") == timed}
           for group, timed in (("counts", False), ("self_s", True))},
    }
    print("== traced flagship (parent, change)")
    for group in ("counts", "self_s"):
        for name, row in doc["traced_flagship"][group].items():
            print(f"  {name:30s} {row['parent']:>14.6g} {row['change']:>14.6g}")

    reference = json.loads((dirs["change"] / "bench" / "reference.json").read_text(encoding="utf-8"))
    failed = sum(r["failed"] + (not r["correct"]) for r in runs)
    identical = all(r["csv_identical"] is not False for r in runs)
    doc["output"] = {"flagship_csv_sha256": reference["flagship"]["csv_sha256"],
                     "csv_identical_every_run": identical,
                     "failed_operations": failed}
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 1 if failed or not identical else 0


if __name__ == "__main__":
    sys.exit(main())
