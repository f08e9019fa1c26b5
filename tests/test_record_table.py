"""The run's record table: the CSV against an oracle that does not read
it, emission without signal evaluations, and the records sequence."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import blfstep
from blfstep.approximator import RbfNetwork
from blfstep.cli import csv_header, emit_csv, emit_report
from blfstep.controller import ConstraintConfig, Records
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
        for group in loop.layout.at:
            got, want = getattr(rec, group), getattr(fresh, group)
            assert type(got) is type(want), (t, group)
            assert bits(got) == bits(want), (t, group)


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
    groups = list(records.layout.at)
    assert all(type(rec) is SimpleNamespace and list(vars(rec)) == groups for rec in as_list)
    assert all(bits(getattr(records[-1], group)) == bits(getattr(as_list[-1], group))
               for group in groups)
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
    for group, at in layout.at.items():
        value = getattr(rec, group)
        if isinstance(at, slice):  # a vector group: a view of its columns
            assert np.shares_memory(value, row) and len(value) == len(layout.names[group])
        else:
            assert type(value) is float and value == row[at]


@pytest.mark.parametrize("l", [12, 30], ids=["float", "array"])
def test_a_record_has_every_layout_group_with_the_bits_of_its_row(sec6_config, l):
    # the record of a run's row and of the map at the same state alike
    res = run(replace(sec6_config, rbf=l, horizon=0.05, decimation=1))
    table, layout, n = res.records.table, res.records.layout, res.config.plant.n
    loop = ClosedLoop(res.config)
    for k in (0, len(res.records) - 1):
        s = res.trajectory[k]
        fresh = loop.step(float(res.times[k]), s[:n], s[n:2 * n], s[2 * n:3 * n], s[3 * n:])
        for rec in (res.records[k], fresh):
            assert list(vars(rec)) == list(layout.at)
            for group, at in layout.at.items():
                value = getattr(rec, group)
                assert bits(value) == bits(table[k, at]), (k, group)
                if isinstance(at, slice):  # a read-only view of its columns
                    assert type(value) is np.ndarray and value.base is not None, group
                    assert not value.flags.writeable, group
                else:
                    assert type(value) is float, group
    # records compare their attributes: == on two of them meets an array
    with pytest.raises(ValueError):
        res.records[0] == res.records[0]


def test_the_generated_pass_names_each_column_after_the_layout():
    # every cell of a float-weight row is a name of integrate, the layout's
    # column name: a local, or for the time signals (y_d, Psi_i, psi_i) the
    # memo integrate shares with rates and signals; only the barrier energy
    # is an expression
    for cfg in (blfstep.load_config_file(blfstep.paper_sec6_path()), third_order_config()):
        loop = ClosedLoop(cfg)
        assert loop.float_weights
        code = loop.integrate.__code__
        names = set(code.co_varnames) | set(code.co_freevars)
        columns = [name for name in loop.layout.index if name != "barrier_energy"]
        assert [name for name in columns if name not in names] == []
        assert {"eps_hat1", "alpha1", "zeta_rate1", "theta1", "theta_rate1", "nn_out",
                "theta_norm"} <= set(code.co_varnames)
