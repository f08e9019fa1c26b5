import math
import sys
import traceback
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blfstep
from blfstep import simengine
from blfstep.approximator import RbfNetwork
from blfstep.controller import ConstraintConfig, GainConfig
from blfstep.plant import Monomial, PlantSpec
from blfstep.signals import Constant, ExpDecay, Sinusoid
from blfstep.simengine import (
    ClosedLoop,
    ConfigError,
    InfeasibleInitialCondition,
    NonFiniteState,
    RunConfig,
    rk4_step,
    run,
)


def quiet_config(**overrides):
    """Zero-disturbance integrator chain with constant envelopes."""
    fields = dict(
        plant=PlantSpec(n=2, f=(), beta=1.0,
                        disturbances=(Constant(0.0), Constant(0.0))),
        constraints=ConstraintConfig((Constant(2.0), Constant(2.0)), (0.0, 0.0)),
        rbf=RbfNetwork.lattice(4, 2),
        gains=GainConfig(k=(5.0, 5.0), lam=14.0, eta=4.0),
        observer_gains=(7.0, 7.0),
        reference=Constant(0.0),
        horizon=1.0,
        step=1e-3,
        decimation=10,
        initial_x=(0.0, 0.0),
    )
    fields.update(overrides)
    return RunConfig(**fields)


class TestRk4:
    def test_exponential_single_step(self):
        (y1,) = rk4_step(lambda t, y: [-y[0]], 0.0, [1.0], 0.1)
        assert abs(y1 - 0.9048375) < 1e-12
        assert abs(y1 - math.exp(-0.1)) < 2.5e-7

    def test_fourth_order_convergence(self):
        def global_error(h):
            y, t = [1.0], 0.0
            n = int(round(1.0 / h))
            for k in range(n):
                y = rk4_step(lambda t, y: [-y[0]], t, y, h)
                t = (k + 1) * h
            return abs(y[0] - math.exp(-1.0))

        ratio = global_error(1e-2) / global_error(5e-3)
        assert 14.0 <= ratio <= 18.0

    def test_zero_field_leaves_state_unchanged(self):
        y = [1.0, -2.0, 0.5]
        out = rk4_step(lambda t, y: [0.0, 0.0, 0.0], 0.0, y, 0.3)
        assert out == y

    def test_vector_harmonic_oscillator(self):
        def field(t, y):
            return [y[1], -y[0]]

        y, t, h = [1.0, 0.0], 0.0, 1e-3
        for k in range(1000):
            y = rk4_step(field, t, y, h)
            t = (k + 1) * h
        assert y[0] == pytest.approx(math.cos(1.0), abs=1e-9)
        assert y[1] == pytest.approx(-math.sin(1.0), abs=1e-9)

    def test_float_entries_and_an_array_entry_round_alike(self):
        # the float layout and the block layout of the augmented state go
        # through the same step; an array entry must round as its floats
        def field(t, y):
            return [-2.0 * v + math.sin(t) for v in y]

        def block_field(t, y):
            return [-2.0 * y[0] + math.sin(t), -2.0 * y[1] + math.sin(t)]

        floats = [0.3, -1.7, 2.1]
        block = [0.3, np.array([-1.7, 2.1])]
        for k in range(50):
            floats = rk4_step(field, k * 0.01, floats, 0.01)
            block = rk4_step(block_field, k * 0.01, block, 0.01)
        assert isinstance(block[1], np.ndarray)
        assert [v.hex() for v in floats] == [v.hex() for v in [block[0], *block[1].tolist()]]


class TestClosedLoopDerivative:
    def test_sec6_rest_derivative(self, sec6_config):
        cfg = sec6_config
        loop = ClosedLoop(cfg)
        ds = loop.derivative(0.0, [0.0] * loop.dim)
        assert len(ds) == 18
        assert ds[0] == pytest.approx(0.2, abs=1e-15)
        assert all(v == 0.0 for v in ds[1:])

    def test_equilibrium_of_quiet_loop(self):
        cfg = quiet_config()
        loop = ClosedLoop(cfg)
        assert all(v == 0.0 for v in loop.derivative(0.0, [0.0] * loop.dim))

    @staticmethod
    def quiet_loop(l):
        return ClosedLoop(quiet_config(rbf=RbfNetwork.lattice(l, 2)))

    def test_dimension_contract(self):
        # up to 24 weights ride in the state as floats
        loop = self.quiet_loop(4)
        assert loop.dim == 3 * 2 + 4
        rng = np.random.default_rng(1)
        s = loop.state(rng.uniform(-0.5, 0.5, 2), np.zeros(2), np.zeros(2), np.zeros(4))
        ds = loop.derivative(0.1, s)
        assert len(s) == len(ds) == loop.dim
        assert all(isinstance(v, float) for v in s + ds)

    def test_dimension_contract_of_the_weight_block(self):
        # past 24 weights they ride as one array, the state's last entry
        loop = self.quiet_loop(30)
        assert loop.dim == 3 * 2 + 30
        rng = np.random.default_rng(1)
        s = loop.state(rng.uniform(-0.5, 0.5, 2), np.zeros(2), np.zeros(2), np.zeros(30))
        ds = loop.derivative(0.1, s)
        assert len(s) == len(ds) == 3 * 2 + 1
        assert all(isinstance(v, float) for v in s[:-1] + ds[:-1])
        assert s[-1].shape == ds[-1].shape == (30,)


class TestRun:
    def test_zero_horizon_gives_initial_record_only(self):
        res = run(quiet_config(horizon=0.0))
        assert list(res.times) == [0.0]
        assert res.trajectory.shape == (1, 10)
        assert len(res.records) == 1

    @pytest.mark.parametrize("l", [12, 30])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_ends_in_non_finite_state(self, sec6_config, monkeypatch, l,
                                                        bad):
        # one weight turns non-finite in the second step: the run's loop
        # takes the last stage's rates from the loop it built, and there
        # one weight's rate is spoiled, in the float layout a float of the
        # rates, in the block layout an entry of their last array
        calls = []

        class Spoiled(ClosedLoop):
            def __init__(self, *args):
                super().__init__(*args)
                rates = self.rates

                def spoiled(t, *s):
                    ds = list(rates(t, *s))
                    calls.append(t)
                    if len(calls) == 6:  # k4 of the second step
                        if isinstance(ds[-1], np.ndarray):
                            ds[-1] = ds[-1].copy()
                            ds[-1][l // 2] = bad
                        else:
                            ds[-l // 2] = bad
                    return tuple(ds)

                self.rates = spoiled

        monkeypatch.setattr(simengine, "ClosedLoop", Spoiled)
        cfg = replace(sec6_config, rbf=RbfNetwork.lattice(l, 2), horizon=0.01)
        with pytest.raises(NonFiniteState) as err:
            run(cfg)
        assert err.value.t == 2 * cfg.step
        assert len(calls) == 2 * 3

    def test_infeasible_initial_condition_names_level(self, sec6_config):
        cfg = blfstep.load_config_file(blfstep.paper_sec6_path())
        cfg = replace(cfg, initial_x=(0.0, 0.2))  # |z2(0)| = 0.2 >= psi2(0) = 0.1
        with pytest.raises(InfeasibleInitialCondition) as err:
            run(cfg)
        assert err.value.level == 2

    def test_barrier_violation_aborts_run(self):
        # strong constant pull with gateless control cannot hold a unit tube
        cfg = quiet_config(
            plant=PlantSpec(n=2, f=(), beta=1.0,
                            disturbances=(Constant(2.0), Constant(0.0))),
            constraints=ConstraintConfig((Constant(1.0), Constant(8.0)), (0.0, 0.0)),
            horizon=5.0,
        )
        with pytest.raises(blfstep.BarrierViolation) as err:
            run(cfg)
        assert err.value.level in (1, 2)
        assert err.value.t is not None and 0.0 < err.value.t <= 5.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_state_detected(self):
        cfg = quiet_config(
            constraints=ConstraintConfig((Constant(1e300), Constant(1e300)), (0.0, 0.0)),
            gains=GainConfig(k=(1e250, 1.0), lam=1.0, eta=1.0),
            observer_gains=(1.0, 1.0),
            initial_x=(1e60, 0.0),
            horizon=0.1,
        )
        with pytest.raises(NonFiniteState):
            run(cfg)

    def test_signal_argument_past_the_float_range_is_non_finite_state(self):
        # 1e308 * t + 1e308 passes the double range at t = 0.7977, and
        # math.sin(inf) raises ValueError in the step that reaches it
        overflowing = Sinusoid(0.0, 1e308, 1e308)
        cfg = quiet_config(plant=PlantSpec(n=2, f=(), beta=1.0,
                                           disturbances=(overflowing, Constant(0.0))))
        with pytest.raises(NonFiniteState) as err:
            run(cfg)
        assert err.value.t == pytest.approx(0.798)

    def test_config_error_in_a_step_is_not_non_finite_state(self):
        class Failing(Constant):
            def value(self, t):
                raise ConfigError([("c", "bad signal")])

        cfg = quiet_config(plant=PlantSpec(n=2, f=(), beta=1.0,
                                           disturbances=(Failing(0.0), Constant(0.0))))
        with pytest.raises(ConfigError, match="bad signal"):
            run(cfg)

    def test_run_is_deterministic(self):
        # delta large enough that the reciprocal term stays gentle
        gains = GainConfig(k=(5.0, 5.0), lam=14.0, eta=4.0, delta=1.0)
        cfg_a = quiet_config(horizon=0.5, initial_x=(0.3, -0.2), gains=gains)
        cfg_b = quiet_config(horizon=0.5, initial_x=(0.3, -0.2), gains=gains)
        a, b = run(cfg_a), run(cfg_b)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert a.metrics.tracking_rmse_tail == b.metrics.tracking_rmse_tail
        assert a.metrics.max_error_ratio == b.metrics.max_error_ratio

    def test_times_uniform_and_increasing(self, sec6_result):
        dt = np.diff(sec6_result.times)
        assert np.all(dt > 0)
        assert np.allclose(dt, dt[0], rtol=0, atol=1e-12)

    def test_sec6_metrics_shape_and_boundedness(self, sec6_result):
        m = sec6_result.metrics
        assert len(m.max_constraint_ratio) == 2
        assert len(m.max_error_ratio) == 2
        assert len(m.observed_max_abs_v) == 1
        for value in (m.max_abs_u, m.final_theta_norm, m.max_theta_norm,
                      m.tracking_rmse_tail):
            assert math.isfinite(value)
        assert all(map(math.isfinite, m.max_abs_zeta))
        assert all(map(math.isfinite, m.max_abs_eps_hat))
        assert len(m.max_abs_eps_hat_rate) == 2
        assert all(r >= 0 and math.isfinite(r) for r in m.max_abs_eps_hat_rate)
        # error envelopes were respected on every accepted step
        assert all(r < 1.0 for r in m.max_error_ratio)

    def test_basis_norm_bound_holds_along_trajectory(self, sec6_config, sec6_result):
        net = sec6_config.rbf
        bound = net.norm_bound()
        for state in sec6_result.trajectory[::50]:
            assert np.linalg.norm(net.basis(state[:2])) <= bound

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            quiet_config(step=0.0)

    def test_initial_state_length_checked(self):
        with pytest.raises(ValueError):
            quiet_config(initial_x=(0.0,))


    def test_infeasible_level_one(self):
        cfg = blfstep.load_config_file(blfstep.paper_sec6_path())
        cfg = replace(cfg, initial_x=(1.2, 0.0))  # |z1(0)| = 1.2 >= psi1(0) = 1.1
        with pytest.raises(InfeasibleInitialCondition) as err:
            run(cfg)
        assert err.value.level == 1

    def test_decimation_respected(self):
        res = run(quiet_config(horizon=0.1, decimation=25))
        # records at steps 0, 25, 50, 75, 100
        assert len(res.times) == 5
        assert res.times[1] == pytest.approx(0.025)

    def test_decimation_changes_only_which_rows_are_kept(self, sec6_config):
        # Metrics cover every accepted step, recorded or not, so they must
        # not depend on the decimation; a kept row equals the decimation-1
        # row at the same time, bit for bit.
        def bits(value):
            if value is None:
                return None
            return [float(v).hex() for v in np.atleast_1d(np.asarray(value, dtype=float))]

        def metric_bits(res):
            m = res.metrics
            return {f.name: [bits(v) for v in getattr(m, f.name)]
                    if f.name == "reserve_exceeded_at" else bits(getattr(m, f.name))
                    for f in fields(m)}

        def row_bits(res, j):
            rec = res.records[j]
            return ([bits(res.trajectory[j])]
                    + [bits(getattr(rec, f.name)) for f in fields(rec)])

        every = run(replace(sec6_config, horizon=1.0, decimation=1))
        assert len(every.records) == 1001
        by_time = {float(t): j for j, t in enumerate(every.times)}
        for decimation in (7, 10):
            res = run(replace(sec6_config, horizon=1.0, decimation=decimation))
            assert metric_bits(res) == metric_bits(every), decimation
            assert res.times[-1] == every.times[-1]
            assert len(res.records) == len(range(0, 1001, decimation)) + (1000 % decimation > 0)
            for j, t in enumerate(res.times):
                assert row_bits(res, j) == row_bits(every, by_time[float(t)]), (decimation, t)


def third_order_config():
    """Damped third-order plant; exercises the middle cascade level."""
    return RunConfig(
        plant=PlantSpec(
            n=3,
            f=(Monomial(-2.0, (0, 0, 1)), Monomial(-1.0, (1, 0, 0))),
            beta=1.0,
            disturbances=(Constant(0.02), Constant(0.0), Sinusoid(0.05, 1.0, 0.0, "sin")),
        ),
        constraints=ConstraintConfig(
            (Constant(3.0), Constant(3.0), Constant(6.0)), (0.6, 1.0, 2.0)),
        rbf=RbfNetwork.lattice(8, 3),
        gains=GainConfig(k=(2.0, 2.0, 2.0), lam=5.0, eta=2.0, delta=1.0),
        observer_gains=(4.0, 4.0, 6.0),
        reference=Sinusoid(0.3, 0.5, 0.0, "sin"),
        horizon=20.0,
        step=1e-3,
        decimation=10,
        initial_x=(0.1, 0.0, 0.0),
    )


class TestThirdOrder:
    def test_closed_loop_completes_with_all_levels_engaged(self):
        res = run(third_order_config())
        m = res.metrics
        assert res.trajectory.shape[1] == 3 * 3 + 8
        assert len(m.max_error_ratio) == 3
        assert len(m.observed_max_abs_v) == 2
        # every level saw real error activity yet stayed inside its envelope
        assert all(r > 0.01 for r in m.max_error_ratio)
        assert all(r < 1.0 for r in m.max_error_ratio)
        assert all(r < 1.0 for r in m.max_constraint_ratio)
        assert m.max_abs_u > 1.0
        assert all(v > 0.0 for v in m.observed_max_abs_v)

    def test_middle_level_record_fields(self):
        res = run(third_order_config())
        rec = res.records[len(res.records) // 2]
        assert rec.z.shape == (3,) and rec.alpha.shape == (3,)
        assert rec.v.shape == (2,)
        assert rec.theta_rate.shape == (8,)
        assert np.isfinite(rec.barrier_energy)


def named_fields(err):
    return [path for path, _ in err.value.problems]


class TestRunConfigValidity:
    def test_fields_are_frozen(self, sec6_config):
        with pytest.raises(FrozenInstanceError):
            sec6_config.horizon = 1.0

    @pytest.mark.parametrize("overrides, field", [
        ({"horizon": math.nan}, ".horizon"),
        ({"observer_gains": (7.0,)}, ".observer_gains"),
        ({"observer_gains": (math.inf, 7.0)}, ".observer_gains[0]"),
        ({"initial_x": (math.nan, 0.0)}, ".initial_x[0]"),
        ({"decimation": True}, ".decimation"),
        *[({name: None}, name) for name in ("plant", "constraints", "gains", "reference")],
        ({"rbf": 0}, "rbf.l"),
        ({"rbf": 12.0}, "rbf.l"),
        ({"rbf": None}, "rbf.l"),
    ])
    def test_invalid_variant_names_the_field(self, sec6_config, overrides, field):
        with pytest.raises(ConfigError) as err:
            replace(sec6_config, **overrides)
        assert field in named_fields(err)

    def test_step_count_is_bounded(self, sec6_config):
        # 1e300 / 1e-3 steps: t = k * h could not advance at every step
        with pytest.raises(ConfigError) as err:
            replace(sec6_config, horizon=1e300)
        assert named_fields(err) == [".horizon", ".step"]

    def test_a_node_count_is_laid_out_as_the_default_lattice(self, sec6_config):
        rbf, lattice = replace(sec6_config, rbf=30).rbf, RbfNetwork.lattice(30, 2)
        assert rbf.center_values == lattice.center_values
        assert rbf.width_values == lattice.width_values

    @pytest.mark.parametrize("initial_x", [np.array([0, 1]), np.array([0.0, 1.0])],
                             ids=["integer", "float"])
    def test_initial_x_array_gives_floats(self, sec6_config, initial_x):
        got = replace(sec6_config, initial_x=initial_x).initial_x
        assert got == (0.0, 1.0) and all(type(v) is float for v in got)

    def test_relations_between_components_checked(self):
        with pytest.raises(ConfigError) as err:
            quiet_config(gains=GainConfig(k=(5.0,), lam=14.0, eta=4.0),
                         constraints=ConstraintConfig((Constant(2.0),), (0.0,)),
                         rbf=RbfNetwork.lattice(4, 3))
        assert named_fields(err) == ["constraints.Psi", "gains.k", "rbf.centers"]


_NOT_A_NUMBER = (st.none() | st.booleans() | st.text(max_size=3)
                 | st.lists(st.floats(0.1, 1.0), max_size=2))
_BAD_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf]) | _NOT_A_NUMBER
_NUMBERS = st.floats(0.1, 10.0)


def _bad_vector(positive):
    """Invalid values for a length-2 vector field of quiet_config."""
    bad = (
        _BAD_NUMBER.filter(lambda v: not isinstance(v, list))
        | st.lists(_NUMBERS, max_size=5).filter(lambda v: len(v) != 2)
        | st.tuples(_BAD_NUMBER, _NUMBERS)
        | st.tuples(_NUMBERS, _BAD_NUMBER)
    )
    if positive:
        bad |= st.tuples(_NUMBERS, st.floats(max_value=0.0))
    return bad


# quiet_config has horizon 1 and step 1e-3; the large horizon and the
# small step make horizon / step more than 2**53
INVALID_RUN_FIELDS = {
    "horizon": _BAD_NUMBER | st.floats(max_value=-1e-300) | st.floats(min_value=1e13),
    "step": _BAD_NUMBER | st.floats(max_value=0.0) | st.floats(5e-324, 1e-16),
    "decimation": (st.none() | st.booleans() | st.integers(max_value=0) | st.floats()
                   | st.text(max_size=3)),
    "output_path": (st.just("") | st.booleans() | st.integers() | st.floats()
                    | st.lists(st.text(max_size=2))),
    "initial_x": _bad_vector(positive=False),
    "observer_gains": _bad_vector(positive=True),
}


@pytest.mark.parametrize("name", sorted(INVALID_RUN_FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_invalid_run_field_is_a_config_error_naming_it(name, data):
    value = data.draw(INVALID_RUN_FIELDS[name], label=name)
    with pytest.raises(ConfigError) as err:
        replace(quiet_config(), **{name: value})
    assert any(path == f".{name}" or path.startswith(f".{name}[") for path in named_fields(err))


_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, True, False, "1.0", 10 ** 400])
_NOT_A_COUNT = st.sampled_from([2.5, 12.0, math.nan, math.inf, True, "12", None])


def _with_last_width(cfg, v):
    return replace(cfg, rbf=RbfNetwork(cfg.rbf.centers, [*cfg.rbf.widths.tolist()[:-1], v]))


COMPONENT_FIELDS = [
    # (flagship variant with one field set to v, values for v, the field
    # the component's ConfigError names)
    pytest.param(lambda cfg, v: replace(cfg, plant=replace(cfg.plant, beta=v)),
                 _NOT_FINITE, "beta", id="plant-beta"),
    pytest.param(lambda cfg, v: replace(cfg, plant=replace(cfg.plant, f=(Monomial(v, (3, 0)),))),
                 _NOT_FINITE, "coeff", id="monomial-coeff"),
    pytest.param(lambda cfg, v: replace(cfg, reference=Sinusoid(v, 1.0)),
                 _NOT_FINITE, "amplitude", id="sinusoid-amplitude"),
    pytest.param(lambda cfg, v: replace(cfg, gains=replace(cfg.gains, lam=v)),
                 _NOT_FINITE, "lambda", id="gains-lambda"),
    pytest.param(lambda cfg, v: replace(cfg, gains=replace(cfg.gains, delta=v)),
                 _NOT_FINITE, "delta", id="gains-delta"),
    pytest.param(lambda cfg, v: replace(cfg, constraints=ConstraintConfig(
                     (ExpDecay(1.0, v, 1.1), ExpDecay(1.0, 0.6, 1.1)), (1.0, 2.0))),
                 _NOT_FINITE, "b", id="expdecay-rate"),
    pytest.param(_with_last_width, _NOT_FINITE, "widths", id="rbf-width"),
    pytest.param(lambda cfg, v: replace(cfg, rbf=RbfNetwork.lattice(v, 2)),
                 _NOT_A_COUNT, "l", id="rbf-lattice-nodes"),
]


@pytest.mark.parametrize("make, values, field", COMPONENT_FIELDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_component_rejects_a_field_that_is_not_a_number(sec6_config, make, values, field, data):
    value = data.draw(values, label=field)
    short = replace(sec6_config, horizon=0.01)  # keeps a run that should not start brief
    with pytest.raises(ConfigError) as err:
        run(make(short, value))
    assert field in [path for path, _ in err.value.problems]


# One pass per time point: the metrics, the kept records and the next
# step's k1 come from the pass the run's loop makes inline there, and each
# of the three later RK4 stages calls the loop's generated rates, so N
# steps make 4N + 1 passes. The rates calls are counted under a profile
# hook, by the code they run.

def rates_calls(fn):
    """fn()'s result and the t of every call of a generated rates in it."""
    times = []

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "rates" and code.co_filename.startswith("<blfstep"):
            times.append(frame.f_locals["t"])

    sys.setprofile(hook)
    try:
        return fn(), times
    finally:
        sys.setprofile(None)


def test_flagship_makes_one_cascade_pass_per_time_point_and_four_per_step(sec6_config):
    # at decimation 1 every time point writes one row
    res, calls = rates_calls(lambda: run(replace(sec6_config, horizon=0.2, decimation=1)))
    assert len(res.times) == 200 + 1
    assert len(calls) + len(res.times) == 200 * 4 + 1


def test_no_rate_is_taken_at_the_last_time_point(sec6_config):
    # the pass at t = horizon feeds the metrics and the last row only; a
    # disturbance that would overflow there cannot fail a completed run.
    # The disturbances are read where a rate is taken, and the horizon is
    # one that the last step's k4 stage time (N - 1) h + h misses by a bit.
    h = sec6_config.step
    steps = next(k for k in range(150, 260) if (k - 1) * h + h != k * h)
    end = steps * h

    class Overflowing(CountedSignal):
        def value(self, t):
            if t == end:
                raise OverflowError("drift past the double range")
            return super().value(t)

    disturbances = [Overflowing(d) for d in sec6_config.plant.disturbances]
    cfg = replace(sec6_config, horizon=end,
                  plant=replace(sec6_config.plant, disturbances=disturbances))
    res, calls = rates_calls(lambda: run(cfg))
    assert len(calls) == 3 * steps
    assert res.times[-1] == end
    rate_times = {t for k in range(steps) for t in (k * h, k * h + 0.5 * h, k * h + h)}
    for signal in disturbances:
        assert set(signal.times) == rate_times  # k1 at each of the N earlier points, and k2 to k4


def test_a_crossing_is_raised_from_the_line_pass_source_shows(sec6_config):
    # the run compiles ClosedLoop(config).source under a filename that names it;
    # a constant push d1 = 5 carries level 2 across its envelope
    cfg = replace(sec6_config, horizon=0.3, plant=replace(
        sec6_config.plant, disturbances=(Constant(5.0), sec6_config.plant.disturbances[1])))
    with pytest.raises(blfstep.BarrierViolation) as err:
        run(cfg)
    assert (err.value.level, err.value.t) == (2, 0.222)
    frame, line = list(traceback.walk_tb(err.value.__traceback__))[-1]
    code = frame.f_code
    assert (code.co_filename, code.co_name) == ("<blfstep pass n=2 l=12>", "rates")
    source = ClosedLoop(cfg).source
    assert source.splitlines()[line - 1].strip() == "raise BarrierViolation(z2, psi2, level=2, t=t)"


class CountedSignal:
    """A time signal that records every time it is evaluated at."""

    def __init__(self, signal):
        self.signal = signal
        self.times = []

    def value(self, t):
        self.times.append(t)
        return self.signal.value(t)

    def derivative(self, t):
        self.times.append(t)
        return self.signal.derivative(t)

    def value_and_derivative(self, t):
        self.times.append(t)
        return self.signal.value_and_derivative(t)


def test_time_signals_are_evaluated_once_per_distinct_stage_time(sec6_config):
    cfg = sec6_config
    reference = CountedSignal(cfg.reference)
    bounds = [CountedSignal(b) for b in cfg.constraints.state_bounds]
    disturbances = [CountedSignal(d) for d in cfg.plant.disturbances]
    counted = replace(
        cfg, horizon=0.2, reference=reference,
        constraints=ConstraintConfig(bounds, cfg.constraints.virtual_bounds),
        plant=replace(cfg.plant, disturbances=disturbances))
    signals = [reference, *bounds, *disturbances]
    for signal in signals:
        signal.times.clear()  # the constraints read Psi_i(0) and its rate when built
    run(counted)
    h = cfg.step
    stage_times = {t for k in range(200) for t in (k * h, k * h + 0.5 * h, k * h + h)}
    stage_times.add(200 * h)
    for signal in signals:
        assert len(signal.times) == len(set(signal.times))
        assert set(signal.times) == stage_times


def counted(cfg):
    """cfg with every time signal wrapped in a CountedSignal, and the
    wrappers, their times cleared after the constraints are built."""
    reference = CountedSignal(cfg.reference)
    bounds = [CountedSignal(b) for b in cfg.constraints.state_bounds]
    disturbances = [CountedSignal(d) for d in cfg.plant.disturbances]
    cfg = replace(cfg, reference=reference,
                  constraints=ConstraintConfig(bounds, cfg.constraints.virtual_bounds),
                  plant=replace(cfg.plant, disturbances=disturbances))
    signals = [reference, *bounds, *disturbances]
    for signal in signals:
        signal.times.clear()
    return cfg, signals


def test_an_aborted_run_reads_no_signal_twice_or_past_its_crossing(sec6_config):
    # beta = -1 turns the input around: the flagship crosses its level-2
    # barrier within the first second
    cfg, signals = counted(replace(sec6_config, horizon=1.0,
                                   plant=replace(sec6_config.plant, beta=-1.0)))
    with pytest.raises(blfstep.BarrierViolation) as err:
        run(cfg)
    crossing = err.value.t
    assert err.value.level == 2 and 0.58 < crossing < 0.78
    for signal in signals:
        assert len(signal.times) == len(set(signal.times))
        assert max(signal.times) <= crossing
    # the reference and the bounds are read at the crossing time itself
    assert all(crossing in signal.times for signal in signals[:3])


def test_third_order_signals_are_read_once_per_distinct_stage_time():
    cfg, signals = counted(replace(third_order_config(), horizon=0.1))
    run(cfg)
    h = cfg.step
    stage_times = {t for k in range(100) for t in (k * h, k * h + 0.5 * h, k * h + h)}
    stage_times.add(100 * h)
    for signal in signals:
        assert sorted(signal.times) == sorted(stage_times)


def test_reference_peak_is_taken_over_every_accepted_step(sec6_config):
    h = sec6_config.step
    res = run(replace(sec6_config, horizon=2.0, decimation=10))
    steps = [abs(math.sin(k * h)) for k in range(2001)]
    peak = max(steps)
    # the reference sin(t) peaks near pi/2, between two kept rows
    assert steps.index(peak) % 10 != 0
    assert max(steps[::10]) < peak
    assert res.metrics.max_abs_y_d == peak


# An integrator oracle that shares no code with the run's generated RK4
# loop: scipy's DOP853 on the same right-hand side, the loop's generated
# rates. Over the first 0.5 s the two agree to
# round-off; by 1 s the gain-search wind-up near t = 0.8 s has amplified
# RK4's truncation error to about 1e-3.
@pytest.mark.parametrize("horizon, tol", [(0.5, 1e-9), (1.0, 5e-3)])
def test_rk4_agrees_with_dop853(sec6_config, horizon, tol):
    integrate = pytest.importorskip("scipy.integrate")
    cfg = replace(sec6_config, horizon=horizon)
    res = run(cfg)
    loop = ClosedLoop(cfg)
    sol = integrate.solve_ivp(lambda t, y: loop.rates(t, *y.tolist()), (0.0, res.times[-1]),
                              res.trajectory[0], method="DOP853", rtol=1e-10, atol=1e-12,
                              t_eval=res.times)
    assert sol.success, sol.message
    n = cfg.plant.n
    assert np.max(np.abs(res.trajectory[:, :n] - sol.y[:n].T)) <= tol
