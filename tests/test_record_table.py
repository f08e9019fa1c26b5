"""The run's record table: the CSV against an oracle that does not read
it, emission without signal evaluations, and the records sequence."""

from dataclasses import fields, replace

import numpy as np
import pytest

import blfstep
from blfstep.approximator import RbfNetwork
from blfstep.cli import csv_header, emit_csv, emit_report
from blfstep.controller import ConstraintConfig, Records, StepRecord
from blfstep.signals import Constant, ExpDecay, SignalSum, Sinusoid
from blfstep.simengine import ClosedLoop, run

from test_controller import reference_norm
from test_simengine import third_order_config


def bits(value):
    return [v.hex() for v in np.atleast_1d(np.asarray(value, dtype=float)).tolist()]


def oracle_csv(result) -> bytes:
    """The CSV as emit_csv wrote it before the record table: the time
    signals evaluated from the config per row, the controller outputs
    read by name from a fresh cascade pass at the recorded state,
    ||theta|| from reference_norm, and each cell through repr(float(v))."""
    cfg = result.config
    n = cfg.plant.n
    loop = ClosedLoop(cfg)
    lines = [",".join(csv_header(n))]
    for t, state in zip(result.times.tolist(), np.array(result.trajectory)):
        x, dhat, zeta, theta = state[:n], state[n:2 * n], state[2 * n:3 * n], state[3 * n:]
        cells = loop._eval(t, x, dhat, zeta, theta)
        z, eps_hat, v, u = (cells[loop.layout.at[g]] for g in ("z", "eps_hat", "v", "u"))
        row = [t, *x]
        row += [cfg.constraints.state_bounds[i].value(t) for i in range(n)]
        row += [cfg.constraints.envelope(i, t) for i in range(n)]
        row += [*z, *v, u, *eps_hat, *zeta, reference_norm(theta), cfg.reference.value(t)]
        lines.append(",".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def emitted(result, tmp_path) -> bytes:
    path = tmp_path / "run.csv"
    emit_csv(result, str(path))
    return path.read_bytes()


def assert_records_equal_fresh_steps(result):
    cfg = result.config
    n = cfg.plant.n
    loop = ClosedLoop(cfg)
    for t, s, rec in zip(result.times.tolist(), result.trajectory, result.records):
        fresh = loop.step(t, s[:n], s[n:2 * n], s[2 * n:3 * n], s[3 * n:])
        for f in fields(StepRecord):
            got, want = getattr(rec, f.name), getattr(fresh, f.name)
            assert type(got) is type(want), (t, f.name)
            assert bits(got) == bits(want), (t, f.name)


@pytest.mark.parametrize("decimation", [1, 7, 10])
def test_flagship_csv_matches_the_oracle(sec6_config, decimation, tmp_path):
    res = run(replace(sec6_config, horizon=1.0, decimation=decimation))
    assert emitted(res, tmp_path) == oracle_csv(res)


def test_flagship_records_equal_fresh_steps(sec6_config):
    res = run(replace(sec6_config, horizon=1.0))
    assert len(res.records) == 101
    assert_records_equal_fresh_steps(res)


def test_third_order_csv_and_records_match_the_oracle(tmp_path):
    res = run(third_order_config())
    assert "v2" in csv_header(3)
    assert emitted(res, tmp_path) == oracle_csv(res)
    assert_records_equal_fresh_steps(res)


def test_wide_network_csv_and_records_match_the_oracle(sec6_config, tmp_path):
    # past 24 weights the cascade returns theta_rate as an array
    res = run(replace(sec6_config, rbf=RbfNetwork.lattice(30, 2), horizon=1.0))
    assert res.records[0].theta_rate.shape == (30,)
    assert emitted(res, tmp_path) == oracle_csv(res)
    assert_records_equal_fresh_steps(res)


def test_emission_evaluates_no_signal(sec6_result, tmp_path, monkeypatch):
    csv, report = emitted(sec6_result, tmp_path), emit_report(sec6_result)

    def forbidden(*args, **kwargs):
        raise AssertionError("emission evaluated a time signal")

    for cls in (Constant, Sinusoid, ExpDecay, SignalSum):
        monkeypatch.setattr(cls, "value", forbidden)
        monkeypatch.setattr(cls, "derivative", forbidden)
    for name in ("envelope", "state_bound", "envelope_rate"):
        monkeypatch.setattr(ConstraintConfig, name, forbidden)
    assert emitted(sec6_result, tmp_path) == csv
    assert emit_report(sec6_result) == report


def test_records_behave_as_a_list_of_step_records(sec6_config):
    res = run(replace(sec6_config, horizon=0.1))
    records = res.records
    as_list = list(records)
    assert len(records) == len(as_list) == 11
    assert all(isinstance(rec, StepRecord) for rec in as_list)
    assert all(bits(getattr(records[-1], f.name)) == bits(getattr(as_list[-1], f.name))
               for f in fields(StepRecord))
    part = records[2:5]
    assert type(part) is Records and len(part) == 3
    assert [bits(rec.z) for rec in part] == [bits(rec.z) for rec in as_list[2:5]]
    assert list(res.times[2:5]) == list(part.columns(["t"])[:, 0])
    with pytest.raises(IndexError):
        records[11]


def test_result_arrays_are_read_only_views_of_the_table(sec6_config):
    res = run(replace(sec6_config, horizon=0.1))
    table = res.records.table
    assert np.shares_memory(res.times, table) and np.shares_memory(res.trajectory, table)
    for array in (res.times, res.trajectory, res.records[0].z):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_result_arrays_follow_replaced_records(sec6_config, tmp_path):
    res = run(replace(sec6_config, horizon=0.1))
    part = replace(res, records=res.records[2:5])
    assert bits(part.times) == bits(res.times[2:5])
    assert bits(part.trajectory.ravel()) == bits(res.trajectory[2:5].ravel())
    lines = emitted(part, tmp_path).decode().splitlines()
    assert lines[0] == ",".join(csv_header(2)) and len(lines) == 1 + 3
    assert [float(line.split(",")[0]) for line in lines[1:]] == res.times[2:5].tolist()


def test_step_record_fields_are_layout_groups(sec6_result):
    layout = sec6_result.records.layout
    rec = sec6_result.records[-1]
    row = sec6_result.records.table[-1]
    for f in fields(StepRecord):
        value, at = getattr(rec, f.name), layout.at[f.name]
        if isinstance(at, slice):  # a vector group: a view of its columns
            assert np.shares_memory(value, row) and len(value) == len(layout.names[f.name])
        else:
            assert type(value) is float and value == row[at]
