import errno
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import blfstep
from blfstep import cli, signals
from blfstep.approximator import RbfNetwork
from blfstep.cli import (
    ConfigError,
    config_to_dict,
    csv_header,
    emit_csv,
    emit_report,
    main,
    parse_config,
    verdict_code,
)
from blfstep.signals import SIGNALS, ExpDecay, SignalSum, Sinusoid
from blfstep.simengine import RunConfig

from test_simengine import third_order_config


# The flagship CSV's sha256, pinned: a change that moves one bit of the
# trajectory or of a written cell changes it.
FLAGSHIP_SHA256 = "15dcab1d694423961fb2af4865d44a7f0c3ffebaec46ea3fb8fd69498d7515ca"

# Environment settings under which numpy and OpenBLAS dispatch as on other
# CPUs: the default; numpy without AVX-512 and OpenBLAS's Haswell kernels;
# OpenBLAS's Nehalem kernels.
NO_AVX512 = "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"
CPU_DISPATCH = {"default": {},
                "no-avx512-haswell": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512,
                                      "OPENBLAS_CORETYPE": "Haswell"},
                "nehalem": {"OPENBLAS_CORETYPE": "Nehalem"}}


def sec6_text():
    with open(blfstep.paper_sec6_path(), "r", encoding="utf-8") as fh:
        return fh.read()


def reserve_line(report: str, level: int) -> str:
    """The report line that checks the level's reserve: |y_d| at level 1,
    |v_{level-1}| above."""
    label = "reference bound:" if level == 1 else f"max |v{level - 1}|"
    (line,) = [line for line in report.splitlines() if label in line]
    return line


class TestParse:
    def test_bundled_sec6_values(self):
        cfg = parse_config(sec6_text())
        assert cfg.plant.n == 2
        assert cfg.gains.k == (5.0, 5.0)
        assert cfg.observer_gains == (7.0, 7.0)
        assert cfg.gains.eta == 4.0 and cfg.gains.lam == 14.0
        assert cfg.constraints.virtual_bounds == (1.0, 2.0)
        assert cfg.rbf.l == 12
        assert cfg.horizon == 20.0 and cfg.step == 1e-3 and cfg.decimation == 10
        assert cfg.plant.beta == 1.0
        assert cfg.reference.value(math.pi / 2) == pytest.approx(1.0)

    def test_empty_document_names_missing_fields(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{}")
        assert [path for path, _ in err.value.problems] == [
            "plant", "constraints", "rbf", "gains", "observer_gains", "reference", "initial_x"]
        assert all(msg == "missing required field" for _, msg in err.value.problems)

    def test_null_centers_and_widths_are_not_the_lattice(self):
        doc = json.loads(sec6_text())
        doc["rbf"] = {"l": 12, "centers": None, "widths": None}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.problems == [("rbf.centers", "expected a list of rows, got None"),
                                      ("rbf.widths", "expected a list of numbers, got None")]

    def test_zero_beta_rejected_with_key(self):
        doc = json.loads(sec6_text())
        doc["plant"]["beta"] = 0.0
        with pytest.raises(ConfigError, match="beta"):
            parse_config(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = json.loads(sec6_text())
        doc["extra_knob"] = 1
        with pytest.raises(ConfigError, match="extra_knob"):
            parse_config(json.dumps(doc))

    def test_nested_unknown_key_rejected(self):
        doc = json.loads(sec6_text())
        doc["gains"]["kp"] = 1.0
        with pytest.raises(ConfigError, match="gains.kp"):
            parse_config(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")

    def test_dimension_cross_checks(self):
        doc = json.loads(sec6_text())
        doc["observer_gains"] = [7.0]
        with pytest.raises(ConfigError, match="observer_gains"):
            parse_config(json.dumps(doc))

    def test_round_trip(self):
        cfg = parse_config(sec6_text())
        again = parse_config(json.dumps(config_to_dict(cfg)))
        assert again.plant == cfg.plant
        assert again.reference == cfg.reference
        assert again.gains == cfg.gains
        assert again.observer_gains == cfg.observer_gains
        assert again.constraints.state_bounds == cfg.constraints.state_bounds
        assert again.constraints.virtual_bounds == cfg.constraints.virtual_bounds
        assert np.array_equal(again.rbf.centers, cfg.rbf.centers)
        assert np.array_equal(again.rbf.widths, cfg.rbf.widths)
        assert (again.horizon, again.step, again.decimation) == (
            cfg.horizon, cfg.step, cfg.decimation)
        assert again.initial_x == cfg.initial_x

    def test_round_trip_of_every_field_kind(self):
        # explicit centers, a sum signal, a third-order plant and an output path
        base = third_order_config()
        cfg = replace(base, rbf=RbfNetwork(base.rbf.centers.tolist(), [1.5] * base.rbf.l),
                      reference=SignalSum((Sinusoid(0.3, 0.5), ExpDecay(0.1, 2.0, 0.0))),
                      output_path="run.csv")
        doc = config_to_dict(cfg)
        again = parse_config(json.dumps(doc))
        _assert_same_config(again, cfg)
        assert config_to_dict(again) == doc
        assert doc["reference"]["kind"] == "sum" and doc["output_path"] == "run.csv"

    def test_unset_output_path_is_written_as_null(self, sec6_config):
        doc = config_to_dict(sec6_config)
        assert doc["output_path"] is None
        assert parse_config(json.dumps(doc)).output_path is None


def _formats():
    """Every record format the run document uses, _RUN first."""
    found, todo = {}, [cli._RUN]
    while todo:
        format = todo.pop(0)
        if id(format) in found:
            continue
        found[id(format)] = format
        for _, _, items in format[1]:
            if isinstance(items, list):
                (items,) = items
            if items is SIGNALS:
                todo += signals._KINDS.values()
            elif items is not None:
                todo.append(items)
    return list(found.values())


def test_run_format_names_each_run_config_field_once():
    attributes = [attribute for _, attribute, _ in cli._RUN[1]]
    assert sorted(attributes) == sorted(f.name for f in fields(RunConfig))


@pytest.mark.parametrize("format", _formats(),
                         ids=lambda f: "rbf" if f is cli._RBF else f[0].__name__)
def test_format_names_every_constructor_parameter(format):
    make, record_fields = format
    params = list(inspect.signature(make).parameters)
    attributes = [attribute for _, attribute, _ in record_fields]
    assert sorted(attributes) == sorted(params)
    assert len({key for key, _, _ in record_fields}) == len(record_fields)


class TestCsv:
    def test_header_column_count(self):
        # t, x*2, Psi*2, psi*2, z*2, v*1, u, eps_hat*2, zeta*2, theta_norm, y_d
        assert len(csv_header(2)) == 17

    def test_sec6_first_row(self, sec6_result, tmp_path):
        path = tmp_path / "run.csv"
        emit_csv(sec6_result, str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == csv_header(2)
        row = dict(zip(header, (float(v) for v in lines[1].split(","))))
        assert row["t"] == 0.0
        assert row["x1"] == 0.0 and row["x2"] == 0.0
        assert row["Psi1"] == pytest.approx(2.1, abs=1e-12)
        assert row["Psi2"] == pytest.approx(2.1, abs=1e-12)
        assert row["psi1"] == pytest.approx(1.1, abs=1e-12)
        assert row["psi2"] == pytest.approx(0.1, abs=1e-12)
        assert row["y_d"] == 0.0
        assert len(lines) == 1 + len(sec6_result.records)

    def test_rows_round_trip_exactly(self, sec6_result, tmp_path):
        path = tmp_path / "run.csv"
        emit_csv(sec6_result, str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        n = 2
        for k in (1, 137, len(lines) - 1):
            vals = [float(v) for v in lines[k].split(",")]
            row = dict(zip(header, vals))
            i = k - 1
            t = float(sec6_result.times[i])
            state = sec6_result.trajectory[i]
            rec = sec6_result.records[i]
            assert row["t"] == t
            assert row["x1"] == state[0] and row["x2"] == state[1]
            assert row["z1"] == rec.z[0] and row["z2"] == rec.z[1]
            assert row["v1"] == rec.v[0] and row["u"] == rec.u
            assert row["eps_hat1"] == rec.eps_hat[0]
            assert row["zeta1"] == state[2 * n] and row["zeta2"] == state[2 * n + 1]
            assert row["theta_norm"] == float(np.linalg.norm(state[3 * n:]))

    def test_flagship_bytes_match_the_pinned_hash(self, sec6_result, tmp_path):
        # a refactor keeps the bytes; this is the hash on every host class
        # the dispatch test below imitates
        path = tmp_path / "flagship.csv"
        emit_csv(sec6_result, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FLAGSHIP_SHA256

    def test_flagship_bytes_do_not_depend_on_cpu_dispatch(self, tmp_path):
        # numpy's SIMD loops and OpenBLAS's kernels are chosen from the CPU
        # at import; each child chooses as another host class would. An
        # unknown feature name only warns, so the settings run anywhere.
        digests = {}
        for name, variables in CPU_DISPATCH.items():
            out = tmp_path / f"{len(digests)}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "blfstep", "simulate", blfstep.paper_sec6_path(),
                 "--horizon", "2", "--out", str(out)],
                env={**os.environ, **variables}, capture_output=True, text=True)
            assert proc.returncode in (0, 2), proc.stderr
            digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert len(set(digests.values())) == 1, digests

    def test_zero_horizon_gives_header_and_initial_row(self, tmp_path):
        cfg = blfstep.load_config_file(blfstep.paper_sec6_path())
        cfg = replace(cfg, horizon=0.0)
        res = blfstep.run(cfg)
        path = tmp_path / "initial.csv"
        emit_csv(res, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(csv_header(2))
        assert len(lines) == 2

    def test_empty_result_gives_header_only(self, sec6_result, tmp_path):
        from dataclasses import replace

        empty = replace(sec6_result, records=sec6_result.records[:0])
        path = tmp_path / "empty.csv"
        emit_csv(empty, str(path))
        assert path.read_text() == ",".join(csv_header(2)) + "\n"


class TestReport:
    def test_sec6_report_content(self, sec6_result):
        text = emit_report(sec6_result)
        # the second state exceeds its bound on this config, so FAIL
        assert "constraints: FAIL" in text
        assert "warning: mu[2] = 0" in text
        assert "tracking transient decay: PASS" in text
        assert "max |v1|" in text

    def test_report_pass_for_short_run(self):
        cfg = blfstep.load_config_file(blfstep.paper_sec6_path())
        cfg = replace(cfg, horizon=0.5)
        res = blfstep.run(cfg)
        # before the gain-search transient the flagship stays within both bounds
        text = emit_report(res)
        assert "constraints: PASS" in text
        assert verdict_code(res) == 0

    def test_report_is_the_same_at_every_decimation(self, sec6_config):
        # each verdict is taken over every accepted time point: at decimation
        # 1,000 the rows kept at t <= 2 are those at t = 0, 1 and 2 s, and at
        # 2,001 only the first row and the last
        reports = {decimation: emit_report(blfstep.run(replace(
                       sec6_config, horizon=2.0, decimation=decimation)))
                   for decimation in (1, 10, 500, 1000, 2000, 2001)}
        assert "tracking transient decay: PASS" in reports[1]
        assert all(report == reports[1] for report in reports.values())

    def test_report_reads_no_record_row(self, sec6_config):
        res = blfstep.run(replace(sec6_config, horizon=2.0))
        assert emit_report(replace(res, records=res.records[:0])) == emit_report(res)

    def test_violation_report_and_code(self):
        exc = blfstep.BarrierViolation(0.2, 0.1, level=1, t=3.25)
        text = emit_report(exc)
        assert "constraints: FAIL at level 1, t=3.25" in text
        assert verdict_code(exc) == 2

    def test_infeasible_report_and_code(self):
        exc = blfstep.InfeasibleInitialCondition(2, 0.2, 0.1)
        text = emit_report(exc)
        assert "FAIL at level 2" in text
        assert verdict_code(exc) == 1


class TestMain:
    def test_simulate_short_horizon(self, tmp_path, capsys):
        out = tmp_path / "short.csv"
        report = tmp_path / "short.txt"
        code = main(["simulate", blfstep.paper_sec6_path(),
                     "--horizon", "0.5", "--out", str(out), "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 0
        assert "constraints: PASS" in captured.out
        assert out.exists() and report.exists()
        assert report.read_text() == captured.out

    def test_flag_overrides_beat_file_values(self, tmp_path, capsys):
        code = main(["simulate", blfstep.paper_sec6_path(),
                     "--horizon", "0.5", "--step", "0.002"])
        captured = capsys.readouterr()
        assert code == 0
        assert "horizon: 0.5 s" in captured.out and "step: 0.002 s" in captured.out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["simulate", str(bad)]) == 1
        assert "missing required field" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["simulate", "no_such_file.json"]) == 1
        assert "no such configuration" in capsys.readouterr().err

    def test_bundled_name_fallback(self, capsys):
        code = main(["simulate", "paper_sec6.json", "--horizon", "0.5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "using bundled configuration" in captured.err

    def test_infeasible_initial_exit_code(self, tmp_path, capsys):
        doc = json.loads(sec6_text())
        doc["initial_x"] = [0.0, 0.2]
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 1
        assert "FAIL at level 2" in capsys.readouterr().out


@pytest.mark.parametrize("bound, reserve, path", [
    # an infinite rate: the reserve's release rate would be inf, psi(1)(0) NaN
    pytest.param({"kind": "sin", "amplitude": 1e300, "angular_frequency": 1e300, "phase": 1.0},
                 1.0, "constraints.Psi[0]", id="infinite-rate"),
    # an infinite bound: every ratio to it would read 0
    pytest.param({"kind": "sum", "terms": [{"kind": "constant", "c": 1.7e308},
                                           {"kind": "constant", "c": 1.7e308}]},
                 1.0, "constraints.Psi[0]", id="infinite-bound"),
    # a finite rate over a split one ulp wide: the release rate overflows
    pytest.param({"kind": "sum", "terms": [{"kind": "constant", "c": 2.0},
                                           {"kind": "sin", "amplitude": 1e300,
                                            "angular_frequency": 1.0, "phase": 0.0}]},
                 1.9999999999999998, "constraints.A[0]", id="infinite-release-rate"),
])
def test_a_bound_not_finite_at_t0_is_a_config_error(tmp_path, capsys, bound, reserve, path):
    doc = json.loads(sec6_text())
    doc["constraints"]["Psi"][0] = bound
    doc["constraints"]["A"][0] = reserve
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    out = tmp_path / "run.csv"
    assert main(["simulate", str(tmp_path / "doc.json"), "--horizon", "0.05",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"  {path}: " in captured.err
    assert captured.out == "" and not out.exists()


class TestParseEdges:
    def test_delta_defaults_when_absent(self):
        doc = json.loads(sec6_text())
        del doc["gains"]["delta"]
        cfg = parse_config(json.dumps(doc))
        assert cfg.gains.delta == 1e-4

    def test_centers_without_widths_rejected(self):
        doc = json.loads(sec6_text())
        doc["rbf"]["centers"] = [[0.0, 0.0]] * 12
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.problems == [("rbf.widths", "missing required field")]

    @pytest.mark.parametrize("listed, missing", [("centers", "widths"), ("widths", "centers")])
    def test_one_of_centers_and_widths_names_the_other_missing(self, listed, missing, tmp_path,
                                                               capsys):
        doc = json.loads(sec6_text())
        doc["rbf"][listed] = {"centers": [[0.0, 0.0]] * 12, "widths": [2.0] * 12}[listed]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: invalid configuration:\n  rbf.{missing}: missing required field\n")

    def test_center_count_must_match_l(self):
        doc = json.loads(sec6_text())
        doc["rbf"]["centers"] = [[0.0, 0.0]] * 3
        doc["rbf"]["widths"] = [2.0] * 3
        with pytest.raises(ConfigError, match="centers"):
            parse_config(json.dumps(doc))

    def test_negative_step_flag_rejected(self, capsys):
        assert main(["simulate", blfstep.paper_sec6_path(), "--step", "-0.001"]) == 1
        assert "--step" in capsys.readouterr().err

    def test_reference_bound_line_in_report(self, sec6_result):
        text = emit_report(sec6_result)
        assert "reference bound: max |y_d|" in text
        # the reserve A[0] = 1 is released at r1 = 0.7 / (2.1 - 1); sin t first
        # exceeds exp(-r1 t) at t = 0.69686 (root found independently), so
        # the first accepted step past it is t = 0.697
        line = reserve_line(text, 1)
        assert "reserve 1*exp(-0.636364 t) : EXCEEDED, first at t = 0.697" in line

    def test_reserve_judged_as_released(self, sec6_result, capsys):
        # at t = 0.7, max |v1| = 1.8 is below A[1] = 2 but not below the
        # reserve 2 exp(-6 t) still held, and |x2| already exceeds Psi2
        code = main(["simulate", blfstep.paper_sec6_path(), "--horizon", "0.7"])
        assert code == 2
        assert "EXCEEDED" in reserve_line(capsys.readouterr().out, 2)
        cfg = blfstep.load_config_file(blfstep.paper_sec6_path())
        cfg = replace(cfg, horizon=0.7)
        for res in (blfstep.run(cfg), sec6_result):
            text = emit_report(res)
            for i, ratio in enumerate(res.metrics.max_constraint_ratio):
                if ratio >= 1.0:
                    assert "EXCEEDED" in reserve_line(text, i + 1), (i + 1, text)


def _set(path, value):
    """Mutation of the flagship document: set the field at path to value."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


NON_FINITE_CASES = [
    # (command-line flags, document mutation, field the diagnostic names)
    pytest.param(["--horizon", "nan"], None, "--horizon", id="flag-horizon-nan"),
    pytest.param(["--horizon", "inf"], None, "--horizon", id="flag-horizon-inf"),
    pytest.param(["--step", "inf"], None, "--step", id="flag-step-inf"),
    pytest.param(["--step", "nan"], None, "--step", id="flag-step-nan"),
    pytest.param(["--step", "1e-320"], None, "--step", id="flag-step-overflows-count"),
    pytest.param(["--horizon", "1e300"], None, "--horizon", id="flag-horizon-past-step-limit"),
    pytest.param([], _set(["step"], math.inf), ".step", id="json-step-inf"),
    pytest.param([], _set(["horizon"], math.nan), ".horizon", id="json-horizon-nan"),
    pytest.param([], _set(["plant", "beta"], math.nan), "plant.beta", id="json-beta-nan"),
    pytest.param([], _set(["gains", "k"], [math.inf, 5.0]), "gains.k[0]", id="json-k-inf"),
    pytest.param([], _set(["reference", "amplitude"], -math.inf), "reference.amplitude",
                 id="json-signal-minus-inf"),
    pytest.param([], _set(["gains", "eta"], 10 ** 400), "gains.eta", id="json-int-past-float"),
    pytest.param([], _set(["rbf"], {"l": 2, "centers": [[0.0, math.nan], [1.0, 1.0]],
                                    "widths": [2.0, 2.0]}), "rbf.centers", id="json-center-nan"),
    pytest.param([], _set(["rbf"], {"l": 2, "centers": [[0.0, 0.0], [1.0, 1.0]],
                                    "widths": [2.0, math.inf]}), "rbf.widths", id="json-width-inf"),
]


@pytest.mark.parametrize("flags, mutate, field", NON_FINITE_CASES)
def test_non_finite_numbers_are_config_errors(flags, mutate, field, tmp_path, capsys):
    path = blfstep.paper_sec6_path()
    if mutate is not None:
        doc = json.loads(sec6_text())
        mutate(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
    assert main(["simulate", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.err.count(field) == 1, captured.err
    lines = [line.strip().removeprefix("error: ") for line in captured.err.splitlines()]
    assert any(line.startswith(f"{field}: ") for line in lines), captured.err
    assert "verdict" not in captured.out


NEGATIVE_RATE_SUM = {"kind": "sum", "terms": [{"kind": "constant", "c": 1.0},
                                              {"kind": "expdecay", "a": 1.0, "b": -0.5, "c": 1.1}]}


@pytest.mark.parametrize("mutate, field", [
    pytest.param(_set(["constraints", "Psi", 1], NEGATIVE_RATE_SUM),
                 "constraints.Psi[1].terms[1].b", id="Psi-term"),
    pytest.param(_set(["reference"], NEGATIVE_RATE_SUM), "reference.terms[1].b",
                 id="reference-term"),
])
def test_nested_signal_error_names_its_field(mutate, field, tmp_path, capsys):
    doc = json.loads(sec6_text())
    mutate(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    lines = [line.strip().removeprefix("error: ") for line in capsys.readouterr().err.splitlines()]
    assert [line for line in lines if line.startswith(f"{field}: ")] == [
        f"{field}: must be >= 0, got -0.5"], lines


def test_empty_output_path_is_a_config_error(tmp_path, capsys, monkeypatch):
    # "" is no path; before it was read as unset, and the run wrote no CSV
    doc = {**json.loads(sec6_text()), "horizon": 0.1, "output_path": ""}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "  .output_path: expected a file path, got an empty string" in captured.err.splitlines()
    assert "verdict" not in captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_empty_out_flag_is_a_config_error(tmp_path, capsys, monkeypatch):
    # --out "" is no path; before it was read as no flag, and the run wrote no CSV
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", blfstep.paper_sec6_path(), "--horizon", "0.01", "--out", ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --out: expected a file path, got an empty string\n"
    assert list(tmp_path.iterdir()) == []


def test_empty_report_flag_is_a_config_error(tmp_path, capsys, monkeypatch):
    # --report "" is no path; before it was read as no flag, and the run
    # exited 0 without a report
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", blfstep.paper_sec6_path(), "--horizon", "0.01",
                 "--out", "run.csv", "--report", ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --report: expected a file path, got an empty string\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("document, args, printed", [
    pytest.param({}, ["doc.json", "--out", "doc.json"],
                 "error: --out: doc.json is the configuration file\n", id="out-over-config"),
    pytest.param({"output_path": "./doc.json"}, ["doc.json"],
                 "error: .output_path: ./doc.json is the configuration file\n",
                 id="output-path-over-config"),
    pytest.param({}, ["doc.json", "--out", "x", "--report", "x"],
                 "error: --report: x is the --out file\n", id="report-over-out"),
    pytest.param({"output_path": "x"}, ["doc.json", "--report", "./x"],
                 "error: --report: ./x is the .output_path file\n", id="report-over-output-path"),
    pytest.param({}, ["paper_sec6.json", "--out", "configs/paper_sec6.json"],
                 "using bundled configuration paper_sec6.json\n"
                 "error: --out: configs/paper_sec6.json is the configuration file\n",
                 id="out-over-bundled"),
])
def test_an_output_over_the_input_or_the_other_output_is_a_config_error(
        document, args, printed, tmp_path, capsys, monkeypatch):
    # before, the CSV or the report overwrote the configuration, or the
    # report the CSV, and the run exited 0. The bundled configurations are
    # looked up in a copy, so that a failing run cannot write over the
    # package's own file.
    doc = json.dumps({**json.loads(sec6_text()), "horizon": 0.01, **document})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.resources, "files", lambda package: tmp_path / "configs")
    (tmp_path / "configs").mkdir()
    for name in ("doc.json", "configs/paper_sec6.json"):
        (tmp_path / name).write_text(doc)
    (tmp_path / "x").write_bytes(b"kept\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(["simulate", *args]) == 1
    assert capsys.readouterr() == ("", printed)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("target, args, printed", [
    pytest.param("doc.json", ["doc.json", "--out", "link"],
                 "error: --out: link is the configuration file\n", id="out-over-config"),
    pytest.param("x", ["doc.json", "--out", "x", "--report", "link"],
                 "error: --report: link is the --out file\n", id="report-over-out"),
])
def test_an_output_hard_linked_to_the_input_or_the_other_output_is_a_config_error(
        target, args, printed, tmp_path, capsys, monkeypatch):
    # a hard link has its own real path; before, the CSV overwrote the
    # configuration through it, or the report the CSV, and the run exited 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(
        json.dumps({**json.loads(sec6_text()), "horizon": 0.01}))
    (tmp_path / "x").write_bytes(b"kept\n")
    os.link(tmp_path / target, tmp_path / "link")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["simulate", *args]) == 1
    assert capsys.readouterr() == ("", printed)
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("change, printed", [
    # dhat2(0) = -7 * 1e308 overflows
    pytest.param({"initial_x": [0.0, 1e308], "Psi": {"kind": "constant", "c": 1.7e308}},
                 "  |z| = 5e+304 reached psi = 1.09997\n", id="initial-dhat"),
    # the 30-node network's basis squares x2 - c past the float range
    pytest.param({"initial_x": [0.0, 1e200], "Psi": {"kind": "constant", "c": 1e300},
                  "rbf": {"l": 30}}, "  |z| = 5e+196 reached psi = 1.09997\n", id="wide-basis"),
])
def test_an_overflowing_run_prints_no_numpy_warning(change, printed, tmp_path):
    doc = json.loads(sec6_text())
    doc["constraints"]["Psi"][1] = change.pop("Psi")
    doc.update(change)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "blfstep", "simulate", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stderr == ""
    assert proc.stdout == "run aborted\nconstraints: FAIL at level 1, t=0.0005\n" + printed


def test_record_table_that_cannot_be_allocated_is_a_diagnostic(sec6_config, tmp_path, capsys,
                                                                monkeypatch):
    # 10**12 + 1 rows of 51 cells, 371 TiB: past a 47-bit address space, so
    # nothing is allocated. Before, numpy's MemoryError ended in a traceback.
    message = "the record table of 1000000000001 rows by 51 columns cannot be allocated"
    with pytest.raises(ConfigError) as err:
        blfstep.run(replace(sec6_config, step=1e-300, horizon=1e-287))
    assert err.value.problems == [(".horizon", message), (".step", message)]
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", blfstep.paper_sec6_path(), "--step", "1e-300", "--horizon", "1e-287",
                 "--out", "run.csv", "--report", "run.txt"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --horizon: {message}\nerror: --step: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_output_error_leaves_no_file_of_the_run(tmp_path, capsys, monkeypatch):
    # the CSV is written first; before, a report that could not be
    # written left it behind
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", blfstep.paper_sec6_path(), "--horizon", "0.01",
                 "--out", "a.csv", "--report", "missing/r.txt"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: missing/r.txt: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    # a full disk fails a write, not an open, and the error names no file
    def emit_csv(result, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x1\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "emit_csv", emit_csv)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", blfstep.paper_sec6_path(), "--horizon", "0.01",
                 "--out", "a.csv"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: a.csv: {os.strerror(errno.ENOSPC)}\n"
    assert list(tmp_path.iterdir()) == []


def test_cross_field_problem_names_only_the_flags_given(capsys):
    # horizon / step is a problem of both fields; only --horizon was given,
    # so the step's is named by its document path
    assert main(["simulate", blfstep.paper_sec6_path(), "--horizon", "1e300"]) == 1
    message = "horizon / step = 1e+303 steps, more than 2**53"
    assert capsys.readouterr().err.splitlines() == [f"error: --horizon: {message}",
                                                    f"error: .step: {message}"]


def test_integer_literal_past_the_digit_limit_is_config_error():
    # json.loads raises a plain ValueError past the int conversion limit
    text = sec6_text().replace('"eta": 4.0', '"eta": 1' + "0" * 5000)
    with pytest.raises(ConfigError):
        parse_config(text)


def test_rbf_centers_must_match_plant_order(tmp_path, capsys):
    doc = json.loads(sec6_text())
    doc["rbf"] = {"l": 2, "centers": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], "widths": [2.0, 2.0]}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [path for path, _ in err.value.problems] == ["rbf.centers"]
    assert "dimension 3" in str(err.value)
    path = tmp_path / "centers.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    assert "rbf.centers" in capsys.readouterr().err


def test_default_lattice_over_more_than_32_axes_runs(tmp_path, capsys):
    # the lattice spans the plant order; np.meshgrid, which built it
    # before, took at most 32 axes and ended this run in a traceback
    n = 40
    doc = {"plant": {"n": n, "f": [], "beta": 1.0,
                     "disturbances": [{"kind": "constant", "c": 0.0}] * n},
           "constraints": {"Psi": [{"kind": "constant", "c": 2.0}] * n, "A": [0.0] + [0.5] * (n - 1)},
           "rbf": {"l": 2}, "gains": {"k": [2.0] * n, "lambda": 1.0, "eta": 1.0},
           "observer_gains": [2.0] * n, "reference": {"kind": "constant", "c": 0.0},
           "initial_x": [0.1] + [0.0] * (n - 1), "horizon": 0.05, "step": 0.001}
    path = tmp_path / "order40.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "levels: 40   rbf nodes: 2" in out and out.endswith("verdict: PASS\n") and err == ""


def test_component_and_run_level_problems_named_in_one_attempt():
    doc = json.loads(sec6_text())
    doc["plant"]["beta"] = math.nan
    doc["horizon"] = -1
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [path for path, _ in err.value.problems] == ["plant.beta", ".horizon"]


BROKEN_SIGNAL = {"kind": "expdecay", "a": 1.0, "b": -0.5, "c": 1.1}


@pytest.mark.parametrize("changes, paths", [
    pytest.param({("plant", "f", 1, "coeff"): math.nan, ("plant", "beta"): math.nan},
                 ["plant.f[1].coeff", "plant.beta"], id="monomial-and-beta"),
    # the failed first monomial keeps its place: the second is still f[1]
    pytest.param({("plant", "f", 0): "x^3", ("plant", "f", 1, "exponents"): [0, 1, 0]},
                 ["plant.f[0]", "plant.f[1].exponents"], id="monomial-index-kept"),
    # a failed disturbance still counts toward one per state
    pytest.param({("plant", "disturbances", 0): BROKEN_SIGNAL},
                 ["plant.disturbances[0].b"], id="disturbance-counted"),
    pytest.param({("plant", "disturbances", 1): BROKEN_SIGNAL, ("plant", "n"): 1},
                 ["plant.disturbances[1].b", "plant.n"], id="disturbance-and-order"),
    pytest.param({("constraints", "Psi", 0): BROKEN_SIGNAL, ("constraints", "A", 1): math.nan},
                 ["constraints.Psi[0].b", "constraints.A[1]"], id="bound-and-reserve"),
    # A[0] = 5 would be infeasible against the flagship's Psi1(0) = 2.1,
    # but a failed Psi[0] has nothing to check it against
    pytest.param({("constraints", "Psi", 0): BROKEN_SIGNAL, ("constraints", "A", 0): 5.0,
                  ("constraints", "A", 1): -1.0},
                 ["constraints.Psi[0].b", "constraints.A[1]"], id="bound-skips-its-relation"),
    # a lattice's dimension is the plant order, but its node count needs no plant
    pytest.param({("plant", "beta"): math.nan, ("rbf", "l"): -1},
                 ["plant.beta", "rbf.l"], id="beta-and-lattice-size"),
])
def test_nested_part_failure_still_checks_the_record(changes, paths):
    doc = json.loads(sec6_text())
    for path, value in changes.items():
        _set(path, value)(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [path for path, _ in err.value.problems] == paths


@pytest.mark.parametrize("changes, problems", [
    pytest.param({("constraints", "Psi", 1, "bogus"): 1.0},
                 [("constraints.Psi[1].bogus", "unknown key")], id="unknown-key-in-a-bound"),
    # the second list is read although the first is not a list
    pytest.param({("plant", "f"): 3, ("plant", "disturbances"): "sin"},
                 [("plant.f", "expected a list"), ("plant.disturbances", "expected a list")],
                 id="two-non-lists"),
    # every entry of a list is checked, and one out of range still leaves
    # the next checked against its relations
    pytest.param({("gains", "k"): [-1, "x"]},
                 [("gains.k[0]", "must be > 0, got -1"), ("gains.k[1]", "expected a number, got 'x'")],
                 id="gain-sign-and-type"),
    pytest.param({("constraints", "A"): [-1, 100]},
                 [("constraints.A[0]", "must be >= 0, got -1"),
                  ("constraints.A[1]", "infeasible envelope split at level 2: Psi(2)(0) = 2.1 "
                                       "does not exceed A[1] = 100")],
                 id="reserve-sign-and-split"),
    # an empty list reads as a tuple, and is named as an empty list
    pytest.param({("reference",): {"kind": "sum", "terms": []}},
                 [("reference.terms", "expected at least one signal")], id="empty-sum"),
    # the node count is checked beside listed centers too
    *[pytest.param({("rbf",): {"l": l, "centers": [[0.0, 0.0]], "widths": [1.0]}},
                   [("rbf.l", f"expected an integer, got {l!r}")], id=f"node-count-{l!r}")
      for l in (True, 1.0, "1")],
])
def test_record_problems_named_at_their_path(changes, problems):
    doc = json.loads(sec6_text())
    for path, value in changes.items():
        _set(path, value)(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.problems == problems


def test_rmse_window_ends_at_the_last_accepted_time(tmp_path, capsys):
    # round(1.0006 / 1e-3) = 1001 steps: the run ends at t = 1001 * 1e-3, past the horizon
    doc = {**json.loads(sec6_text()), "horizon": 1.0006}
    path, out = tmp_path / "doc.json", tmp_path / "run.csv"
    path.write_text(json.dumps(doc))
    main(["simulate", str(path), "--out", str(out)])
    last = float(out.read_text().splitlines()[-1].split(",")[0])
    assert last == 1001 * 1e-3
    assert f"  rmse of y - y_d over [0.5005, {last:g}]: " in capsys.readouterr().out
    assert f"{last:g}" == "1.001"


def _sec6_run(horizon):
    return blfstep.run(replace(blfstep.load_config_file(blfstep.paper_sec6_path()),
                               horizon=horizon))


OUTCOMES = [
    # (outcome, its exit code, the report line or header that states it)
    pytest.param(lambda: _sec6_run(0.5), 0, "verdict: PASS", id="passing-run"),
    pytest.param(lambda: _sec6_run(0.7), 2, "verdict: FAIL", id="failing-run"),
    pytest.param(lambda: blfstep.BarrierViolation(0.2, 0.1, level=1, t=3.25), 2, "run aborted",
                 id="barrier-violation"),
    pytest.param(lambda: blfstep.NonFiniteState(1.5), 2, "run aborted", id="non-finite-state"),
    pytest.param(lambda: blfstep.InfeasibleInitialCondition(2, 0.2, 0.1), 1, "run not started",
                 id="infeasible-initial-condition"),
]


@pytest.mark.parametrize("make, code, line", OUTCOMES)
def test_report_agrees_with_exit_code(make, code, line):
    outcome = make()
    report = emit_report(outcome)
    assert verdict_code(outcome) == code
    assert line in report.splitlines()
    assert ("constraints: PASS" in report) == ("verdict: PASS" in report) == (code == 0)


def _doc_paths(node, prefix=()):
    """The key path of every field in a JSON document, nested ones too."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _doc_paths(child, prefix + (key,))


# Integers stay small: an rbf.l of 10**9 would allocate gigabytes.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _assert_same_config(a, b):
    assert a.plant == b.plant and a.gains == b.gains and a.reference == b.reference
    assert a.constraints.state_bounds == b.constraints.state_bounds
    assert a.constraints.virtual_bounds == b.constraints.virtual_bounds
    assert np.array_equal(a.rbf.centers, b.rbf.centers)
    assert np.array_equal(a.rbf.widths, b.rbf.widths)
    for name in ("observer_gains", "horizon", "step", "decimation", "initial_x", "output_path"):
        assert getattr(a, name) == getattr(b, name), name


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(list(_doc_paths(json.loads(sec6_text())))), value=JSON_VALUES)
@example(path=("rbf",), value={"l": 1, "centers": [{}], "widths": [1.0]})
@example(path=("rbf", "l"), value=10 ** 400)
def test_one_field_mutation_parses_or_is_config_error(path, value):
    doc = json.loads(sec6_text())
    _set(path, value)(doc)
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    _assert_same_config(parse_config(json.dumps(config_to_dict(cfg))), cfg)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _drop(path):
    """Mutation of the flagship document: delete the key at path."""
    def mutate(doc):
        del _at(doc, path[:-1])[path[-1]]
    return mutate


SEC6_DOC = json.loads(sec6_text())
# the document's leaves, and its objects, the document itself among them
_LEAVES = [p for p in _doc_paths(SEC6_DOC) if not isinstance(_at(SEC6_DOC, p), (dict, list))]
_OBJECTS = [()] + [p for p in _doc_paths(SEC6_DOC) if isinstance(_at(SEC6_DOC, p), dict)]
LEAF_MUTATIONS = (
    st.builds(_set, st.sampled_from(_LEAVES),
              st.sampled_from([None, True, -1, 0, 1e308, "x", [], {}, [1], 10 ** 400]))
    | st.sampled_from([obj + (key,) for obj in _OBJECTS for key in _at(SEC6_DOC, obj)]).map(_drop)
    | st.sampled_from(_OBJECTS).map(lambda obj: _set(obj + ("bogus",), 1.0))
)


@settings(max_examples=300, deadline=None)
@given(mutate=LEAF_MUTATIONS)
def test_one_leaf_mutation_parses_or_names_a_field_for_each_problem(mutate):
    doc = json.loads(sec6_text())
    mutate(doc)
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError as exc:  # any other exception fails the test
        assert type(exc) is ConfigError, repr(exc)
        assert exc.problems
        keys = set(SEC6_DOC) | set(doc)
        for path, _ in exc.problems:
            assert path and (path == "(document)" or path.startswith(".")
                             or re.match(r"[^.\[]+", path)[0] in keys), exc.problems
    else:
        assert isinstance(cfg, RunConfig)


# Plain numbers as well, so that many mutations still parse and run.
@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(list(_doc_paths(json.loads(sec6_text())))),
       value=st.floats(-3.0, 30.0) | st.integers(-3, 30) | JSON_VALUES)
@example(path=("plant", "f", 0, "exponents"), value=[10 ** 400, 0])
@example(path=("plant", "f", 0, "exponents"), value=[10 ** 300, 0])
@example(path=("observer_gains", 1), value=1e200)
def test_one_field_mutation_exits_0_1_or_2_without_traceback(path, value, tmp_path_factory):
    doc = json.loads(sec6_text())
    doc["horizon"] = 0.02
    _set(path, value)(doc)
    text = json.dumps(doc)
    try:
        cfg = parse_config(text)
    except ConfigError:
        cfg = None
    # a mutated horizon or step may ask for millions of steps
    assume(cfg is None or cfg.horizon <= 1000 * cfg.step)
    config_path = tmp_path_factory.getbasetemp() / "mutation.json"
    config_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["simulate", str(config_path)])
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    assert code in (0, 1, 2)
    event(f"exit {code}")
    # exit 1 is a configuration error, or a valid configuration whose
    # initial state already lies outside an envelope
    not_started = out.startswith("run not started\n")
    assert (code == 1) == (cfg is None or not_started), (code, out, err)
    if cfg is None:
        assert out == "" and err.startswith("error: invalid configuration:\n"), (out, err)
    else:
        assert out.startswith(("closed-loop run report\n", "run aborted\n", "run not started\n"))


class TestStabilityWarnings:
    """One warning per level whose printed decay rate mu is not positive,
    naming that level's observer gain."""

    @staticmethod
    def stability_warnings(result, observer_gains):
        config = replace(result.config, observer_gains=observer_gains)
        text = emit_report(replace(result, config=config))
        (rates,) = [line for line in text.splitlines() if "decay rates mu:" in line]
        return rates, [line for line in text.splitlines()
                       if line.startswith("  warning:") and ("mu[" in line or "k_eps[" in line)]

    def test_one_warning_for_an_inner_gain_at_its_limit(self, sec6_result):
        _, warnings = self.stability_warnings(sec6_result, (1.0, 7.0))
        level_1 = [w for w in warnings if "mu[1]" in w or "k_eps[1]" in w]
        assert len(level_1) == 1
        assert level_1[0].startswith("  warning: mu[1] = 0 ") and "k_eps[1] = 1" in level_1[0]
        assert len(warnings) == 2 and warnings[1].startswith("  warning: mu[2] = 0 ")

    def test_no_warning_beside_a_positive_rate(self, sec6_result):
        rates, warnings = self.stability_warnings(sec6_result, (1.0 + 7e-10, 7.0))
        assert rates.endswith(": 1.4e-09, 0")
        assert [w for w in warnings if "mu[1]" in w or "k_eps[1]" in w] == []


def _drift_exponents_doc(tmp_path, exponents, horizon):
    doc = json.loads(sec6_text())
    doc["plant"]["f"][0]["exponents"] = exponents
    doc["horizon"] = horizon
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_exponent_past_the_float_range_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", _drift_exponents_doc(tmp_path, [10 ** 400, 0], 0.01)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "plant.f[0].exponents[0]:" in err


def test_overflowing_drift_ends_in_non_finite_state(tmp_path, capsys):
    # x1 ** 1e300 overflows once x1 > 1, which the flagship reaches near t = 1.15
    assert main(["simulate", _drift_exponents_doc(tmp_path, [10 ** 300, 0], 3.0)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("run aborted\nstate: FAIL non-finite at t=") and err == ""


def test_overflowing_signal_argument_ends_in_non_finite_state(tmp_path, capsys):
    doc = json.loads(sec6_text())
    doc["plant"]["disturbances"][0] = {"kind": "sin", "amplitude": 0.0,
                                       "angular_frequency": 1e308, "phase": 1e308}
    doc["horizon"] = 1.0
    path = tmp_path / "signal.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "run aborted\nstate: FAIL non-finite at t=0.798\n" and err == ""


def test_underflowing_envelope_ends_in_non_finite_state(tmp_path, capsys):
    # psi1 = 1e-200 squares to 0.0, so the barrier factor of z1 = 0 at rest
    # divides by zero in the first step
    doc = json.loads(sec6_text())
    doc["constraints"] = {"Psi": [{"kind": "constant", "c": 1e-200},
                                  {"kind": "constant", "c": 1.0}], "A": [0.0, 0.0]}
    doc["horizon"] = 0.1
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "run aborted\nstate: FAIL non-finite at t=0.001\n" and err == ""


@pytest.mark.parametrize("change, disturbance, printed", [
    # the first observer gain drives z2 to inf at the first stage: the
    # state blew up, no finite trajectory crossed an envelope
    pytest.param({"observer_gains": [1e200, 7.0]}, None,
                 "run aborted\nstate: FAIL non-finite at t=0.0005\n", id="infinite-z"),
    pytest.param({}, {"kind": "constant", "c": 5.0},
                 "run aborted\nconstraints: FAIL at level 2, t=0.222\n"
                 "  |z| = 1.76876 reached psi = 1.44739\n", id="finite-crossing"),
])
def test_only_a_finite_crossing_reports_its_level(change, disturbance, printed, tmp_path,
                                                  capsys):
    doc = {**json.loads(sec6_text()), **change, "horizon": 1}
    if disturbance is not None:
        doc["plant"]["disturbances"][0] = disturbance
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == printed and err == ""


@pytest.mark.parametrize("change, problem", [
    pytest.param({"observer_gains": [7.0, 1e200]},
                 (".observer_gains[1]", "must be below 1.15792e+77, got 1e+200"),
                 id="observer-gain"),
    pytest.param({"rbf": {"l": 10 ** 400}},
                 ("rbf.l", f"must be <= 1000000, got {10 ** 400}"), id="lattice-size"),
])
def test_number_too_large_for_the_run_is_a_config_error(change, problem, tmp_path, capsys):
    doc = {**json.loads(sec6_text()), **change}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.problems == [problem]
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid configuration:\n") and problem[0] in err


def test_deeply_nested_document_is_a_config_error(tmp_path, capsys):
    # 600 nested sums are 1,200 JSON levels, past what json.loads reads
    sums = '{"kind": "sum", "terms": [' * 600 + '{"kind": "constant", "c": 0.0}' + "]}" * 600
    doc = json.loads(sec6_text())
    del doc["reference"]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc)[:-1] + ', "reference": ' + sums + "}")
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.count("error: invalid configuration:") == 1
    assert err.splitlines()[1].startswith("  (document): "), err


def test_drift_of_thousands_of_monomials_compiles_and_runs(tmp_path, capsys):
    # one + chain of 4,000 terms is too deep for CPython's compiler; the
    # generated drift sums it in statements, in the same order
    doc = {**json.loads(sec6_text()), "horizon": 0.01}
    doc["plant"]["f"] = [{"coeff": 1e-12, "exponents": [i % 3, i % 2]} for i in range(4000)]
    path = tmp_path / "long_drift.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 0
    assert capsys.readouterr().out.endswith("verdict: PASS\n")
    # at rest (zeta = 0, so u = 0) and t = 0, where d2 = 0, x2's rate is the
    # drift alone: the same bits as PlantSpec sums it
    loop = blfstep.ClosedLoop(parse_config(json.dumps(doc)))
    rate = loop.derivative(0.0, loop.state([0.3, -0.05], np.zeros(2), np.zeros(2), np.ones(12)))
    assert rate[1] == loop.config.plant.nonlinearity([0.3, -0.05]) != 0.0


class TestFileErrors:
    """A file the CLI cannot read or write is one error line and exit 1."""

    @staticmethod
    def error_line(capsys):
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        return err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path)]) == 1
        assert self.error_line(capsys).startswith(f"error: {tmp_path}: ")

    def test_missing_config_file_names_the_path_first(self, capsys):
        # the same "error: <path>: <reason>" form as every other unreadable file
        assert main(["simulate", "no_such_file.json"]) == 1
        assert self.error_line(capsys).startswith("error: no_such_file.json: ")

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(sec6_text().replace('"n"', '"n\xe9"').encode("latin-1"))
        assert main(["simulate", str(path)]) == 1
        assert self.error_line(capsys).startswith(f"error: {path}: not UTF-8 text")

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_output_under_a_missing_directory(self, flag, tmp_path, capsys):
        target = tmp_path / "missing" / "run.txt"
        code = main(["simulate", blfstep.paper_sec6_path(), "--horizon", "0.01",
                     flag, str(target)])
        assert code == 1
        assert self.error_line(capsys) == f"error: {target}: No such file or directory\n"
