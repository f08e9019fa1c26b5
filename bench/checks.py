"""Output checks. Each check returns a list of problems; empty means correct.

``flagship`` and ``wide_rbf`` are compared with ``reference.json``,
recorded from this benchmark's own runs (see ``record_reference.py``).
Verdicts, exit codes and CSV row counts must match exactly; the
per-state maximum ratios and the tail rmse must match to a relative
tolerance of ``REL_TOL``, loose enough for a reordered floating-point
sum and tight enough that any change of trajectory shows. Whether the
CSV is byte-identical to the recorded one is reported, not required.

``sweep`` runs have no stored trajectories: the exit code must agree
with the report's verdict, a completed run must have the CSV row count
its horizon, step and decimation give, an aborted run must write no
CSV, and the in-process CLI and the library must produce the same
bytes. For the reference seed the exit codes must also match the
recorded ones.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-6
REFERENCE = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_rows(path: Path) -> int:
    """Data rows of a CSV written by emit_csv (lines after the header)."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def report_code(report: str) -> int | None:
    """Exit code the report's outcome calls for: 0 for ``verdict: PASS``,
    2 for ``verdict: FAIL`` or an aborted run, 1 for a run not started."""
    lines = report.splitlines()
    if not lines:
        return None
    if lines[-1] == "verdict: PASS":
        return 0
    if lines[-1] == "verdict: FAIL" or lines[0] == "run aborted":
        return 2
    if lines[0] == "run not started":
        return 1
    return None


def summary(result, report: str, csv_path: Path) -> dict:
    """What the fixed-workload reference records about one completed run."""
    m = result.metrics
    return {
        "verdict": report.splitlines()[-1].removeprefix("verdict: "),
        "max_constraint_ratio": [float(v) for v in m.max_constraint_ratio],
        "max_error_ratio": [float(v) for v in m.max_error_ratio],
        "tracking_rmse_tail": float(m.tracking_rmse_tail),
        "csv_rows": csv_rows(csv_path),
        "csv_sha256": sha256(csv_path),
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_summary(got: dict, ref: dict) -> list:
    problems = []
    for key in ("verdict", "csv_rows"):
        if got[key] != ref[key]:
            problems.append(f"{key}: got {got[key]!r}, reference {ref[key]!r}")
    for key in ("max_constraint_ratio", "max_error_ratio"):
        if len(got[key]) != len(ref[key]) or not all(
                _close(a, b) for a, b in zip(got[key], ref[key])):
            problems.append(f"{key}: got {got[key]}, reference {ref[key]}")
    if not _close(got["tracking_rmse_tail"], ref["tracking_rmse_tail"]):
        problems.append(f"tracking_rmse_tail: got {got['tracking_rmse_tail']!r}, "
                        f"reference {ref['tracking_rmse_tail']!r}")
    return problems


def check_exit(code, report: str, expected: int | None = None) -> list:
    """An exit code must agree with its report and, if given, the reference."""
    problems = []
    if code != report_code(report):
        problems.append(f"exit code {code!r} disagrees with the report "
                        f"(report calls for {report_code(report)!r})")
    if expected is not None and code != expected:
        problems.append(f"exit code {code!r}, reference {expected!r}")
    return problems


def check_cli_outputs(code, printed: str, report_path: Path, csv_path: Path,
                      rows: int, lib_report: str, lib_csv: Path | None,
                      expected: int | None = None) -> list:
    """One CLI run against the library run of the same configuration.

    ``lib_csv`` is None when the library run did not complete, in which
    case the CLI must not have written a CSV either.
    """
    report = report_path.read_text(encoding="utf-8") if report_path.is_file() else ""
    problems = check_exit(code, report, expected)
    if printed != report:
        problems.append("printed report differs from the --report file")
    if report != lib_report:
        problems.append("CLI report differs from emit_report on the library run")
    if lib_csv is None:
        if csv_path.exists():
            problems.append("aborted run wrote a CSV")
    elif not csv_path.is_file():
        problems.append("completed run wrote no CSV")
    else:
        if csv_rows(csv_path) != rows:
            problems.append(f"CSV has {csv_rows(csv_path)} rows, expected {rows}")
        if csv_path.read_bytes() != lib_csv.read_bytes():
            problems.append("CLI CSV differs from emit_csv on the library run")
    return problems
