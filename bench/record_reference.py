"""Record ``reference.json`` from the package in this checkout.

    python3 bench/record_reference.py

The output checks compare every benchmark run with this file, so run it
only when a change of the simulator's results is intended, and say so
in the change that commits the new file.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SWEEP_SEED = 0


def main() -> int:
    out = BENCH / "out" / "reference"
    out.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name in ("flagship", "wide_rbf"):
        config = workloads.write_configs(ROOT, name, SWEEP_SEED, out)[0]
        csv_path = out / f"{name}.csv"
        op = worker.library_op(config, csv_path)
        code, _, _ = worker.cli_op(config, out / "cli.csv", out / "cli.txt")
        reference[name] = {"exit_code": code,
                           **checks.summary(op["outcome"], op["report"], csv_path)}
    codes, completed = [], []
    for i, config in enumerate(workloads.write_configs(ROOT, "sweep", SWEEP_SEED, out)):
        csv_path = out / f"sweep-{i:02d}.csv"
        csv_path.unlink(missing_ok=True)
        code, _, _ = worker.cli_op(config, csv_path, out / f"sweep-{i:02d}.txt")
        codes.append(code)
        completed.append(csv_path.is_file())
    reference["sweep"] = {"seed": SWEEP_SEED, "exit_codes": codes, "completed": completed}
    checks.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(reference, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
