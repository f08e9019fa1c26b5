"""The golden corpus: the bytes and the exit code of each case, pinned.

tests/golden holds one run configuration per case and pins.json, which
gives for each case the exit code of `blfstep simulate <case>.json --out
<csv> --report <report>`, the sha256 of the CSV (null where the run writes
none), the sha256 of the report, and whether the network has float
weights. The cases are 2 s variants of the flagship, unless their name
says otherwise: the flagship; decimation 1 and 1,000; horizon 0; a
horizon (1.2345 s at decimation 7) whose last row ends a partial
decimation block; beta = -1 (a level-2 crossing); a zero level-1 reserve;
an l = 30 array layout; a third-order plant with constant bounds and
disturbances (a level-3 crossing); a sum reference and a cos-kind bound; a
drift of 302 monomials, more than one generated statement sums; a drift
power that overflows (NonFiniteState); and an initial state outside its
envelope. A change that moves a pin says why, per pin.

tests/golden/check.py runs the float-layout cases through `python -m
blfstep` with the standard library only, for a Python without numpy.
"""

import hashlib
import json
from pathlib import Path

import pytest

from blfstep.cli import load_config_file, main

GOLDEN = Path(__file__).resolve().parent / "golden"
PINS = json.loads((GOLDEN / "pins.json").read_text())


def test_every_case_is_pinned():
    assert sorted(p.stem for p in GOLDEN.glob("*.json") if p.name != "pins.json") == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_case_matches_its_pins(name, tmp_path, capsys):
    pin, doc = PINS[name], str(GOLDEN / f"{name}.json")
    csv, report = tmp_path / "run.csv", tmp_path / "report.txt"
    code = main(["simulate", doc, "--out", str(csv), "--report", str(report)])
    capsys.readouterr()
    got = {"exit_code": code,
           "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None,
           "report_sha256": hashlib.sha256(report.read_bytes()).hexdigest(),
           "float_layout": load_config_file(doc).rbf.float_weights}
    assert got == pin
