"""Check the golden corpus's float-layout cases through the command line.

Runs each case of pins.json whose network has float weights, so that the
run needs no numpy, as `python -m blfstep simulate <case>.json --out
<csv> --report <report>`, and compares the CSV's sha256 (none where the
run writes no CSV), the report's sha256 and the exit code with the pins.
It uses the standard library only, so it runs on a Python with neither
numpy nor pytest installed:

    PYTHONPATH=src python tests/golden/check.py

It prints one line per case and exits 1 if any case differs from its pins.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def sha256(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def main() -> int:
    pins = json.loads((HERE / "pins.json").read_text())
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, pin in pins.items():
            if not pin["float_layout"]:
                continue
            csv, report = Path(tmp, f"{name}.csv"), Path(tmp, f"{name}.txt")
            code = subprocess.run([sys.executable, "-m", "blfstep", "simulate",
                                   str(HERE / f"{name}.json"), "--out", str(csv),
                                   "--report", str(report)], capture_output=True).returncode
            got = {"exit_code": code, "csv_sha256": sha256(csv), "report_sha256": sha256(report)}
            wrong = [key for key, value in got.items() if value != pin[key]]
            print(f"{name}: " + (f"differs in {', '.join(wrong)}" if wrong else "ok"))
            differ += bool(wrong)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
