import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import blfstep
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
        assert any(path == "plant" for path, _ in err.value.problems)
        assert all(msg == "missing required field" for _, msg in err.value.problems)

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

    def test_flagship_bytes_match_bench_reference(self, sec6_result, tmp_path):
        # bench/run.py records the flagship CSV's hash; a refactor keeps the bytes
        bench = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
        expected = json.loads(bench.read_text(encoding="utf-8"))["flagship"]["csv_sha256"]
        path = tmp_path / "flagship.csv"
        emit_csv(sec6_result, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected

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


class TestParseEdges:
    def test_delta_defaults_when_absent(self):
        doc = json.loads(sec6_text())
        del doc["gains"]["delta"]
        cfg = parse_config(json.dumps(doc))
        assert cfg.gains.delta == 1e-4

    def test_centers_without_widths_rejected(self):
        doc = json.loads(sec6_text())
        doc["rbf"]["centers"] = [[0.0, 0.0]] * 12
        with pytest.raises(ConfigError, match="together"):
            parse_config(json.dumps(doc))

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
        f"{field}: exponential rate must be >= 0 for boundedness, got -0.5"], lines


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
])
def test_record_problems_named_at_their_path(changes, problems):
    doc = json.loads(sec6_text())
    for path, value in changes.items():
        _set(path, value)(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.problems == problems


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
                 ("rbf.l", f"must be at most 1000000, got {10 ** 400}"), id="lattice-size"),
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
