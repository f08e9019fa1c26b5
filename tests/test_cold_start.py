"""A cold start without numpy.

Importing the package, parsing a configuration and a whole command-line
run of a float-weight network (at most 24 nodes) never import numpy; only
the array layout beyond 24 nodes and the library's array views do. Each
case runs in a child interpreter that starts without numpy, and its
outputs are compared byte for byte with the same run made in this
process, where numpy is loaded.
"""

import json
import subprocess
import sys

import numpy as np  # loaded here, so the library runs below are made with numpy
import pytest

import blfstep
from blfstep.cli import emit_csv, emit_report, main, verdict_code

# Runs blfstep.cli.main on the child's arguments with its output captured,
# and prints one JSON line: the exit code, what main printed, and whether
# numpy was imported.
CHILD = (
    "import contextlib, io, json, sys\n"
    "from blfstep import cli\n"
    "out, err = io.StringIO(), io.StringIO()\n"
    "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'out': out.getvalue(), 'err': err.getvalue(),\n"
    "                  'numpy': 'numpy' in sys.modules}))\n"
)
RUN_FAILURES = (blfstep.BarrierViolation, blfstep.InfeasibleInitialCondition,
                blfstep.NonFiniteState)


def child_main(*args) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, *map(str, args)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout)


def sec6_doc(**changes) -> dict:
    with open(blfstep.paper_sec6_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    for path, value in changes.items():
        *parents, key = path.split("__")
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
    return doc


def test_import_and_parse_leave_numpy_unloaded():
    probe = ("import sys, blfstep\n"
             "blfstep.load_config_file(blfstep.paper_sec6_path())\n"
             "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("doc, code, numpy_loaded", [
    pytest.param(sec6_doc(horizon=0.5), 0, False, id="flagship-0.5s"),
    # beta < 0: the gain search loses the sign, and level 2 crosses its
    # envelope near t = 0.6 s
    pytest.param(sec6_doc(plant__beta=-1.0, horizon=1.0), 2, False, id="beta-negative-abort"),
    pytest.param(sec6_doc(initial_x=[0.0, 0.2]), 1, False, id="infeasible-start"),
    # one node past the float-weight limit: the run imports numpy itself
    pytest.param(sec6_doc(rbf={"l": 25}, horizon=0.5), 0, True, id="array-layout-l25"),
])
def test_cold_run_matches_the_library_run(doc, code, numpy_loaded, tmp_path):
    config_path, csv_path, report_path = (tmp_path / name for name in
                                          ("run.json", "run.csv", "run.txt"))
    config_path.write_text(json.dumps(doc))
    got = child_main("simulate", config_path, "--out", csv_path, "--report", report_path)

    config = blfstep.load_config_file(str(config_path))
    try:
        outcome = blfstep.run(config)
    except RUN_FAILURES as exc:
        outcome = exc
    report = emit_report(outcome)
    assert got == {"code": code, "out": report, "err": "", "numpy": numpy_loaded}
    assert verdict_code(outcome) == code
    assert report_path.read_text() == report
    if isinstance(outcome, blfstep.SimResult):
        emit_csv(outcome, str(tmp_path / "library.csv"))
        assert csv_path.read_bytes() == (tmp_path / "library.csv").read_bytes()
        table = outcome.records.table
        assert table.dtype == np.float64 and not table.flags.writeable
        assert table.tobytes() == outcome.records.flat.tobytes()
    else:
        assert not csv_path.exists()


def test_cold_config_error_matches_the_library(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sec6_doc(horizon=-1.0, plant__beta=0)))
    got = child_main("simulate", path)
    assert main(["simulate", str(path)]) == 1
    captured = capsys.readouterr()
    assert got == {"code": 1, "out": captured.out, "err": captured.err, "numpy": False}
    assert "plant.beta" in got["err"] and ".horizon" in got["err"]
