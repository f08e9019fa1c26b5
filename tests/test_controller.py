import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blfstep import passgen
from blfstep.approximator import RbfNetwork
from blfstep.barrier import BarrierViolation, blf_value, damped_inverse, nussbaum, q_value
from blfstep.controller import (
    ConstraintConfig,
    GainConfig,
    StepRecord,
    lyapunov_decay_rates,
)
from blfstep.observer import dhat_rate_final, dhat_rate_inner, estimate
from blfstep.plant import Monomial, PlantSpec
from blfstep.signals import ConfigError, Constant, ExpDecay, SignalSum, Sinusoid
from blfstep.simengine import ClosedLoop, NonFiniteState, RunConfig, run

from test_simengine import third_order_config

PI = math.pi


def flat_constraints(psi=2.0, n=2):
    return ConstraintConfig(tuple(Constant(psi) for _ in range(n)), tuple(0.0 for _ in range(n)))


def sec6_constraints():
    return ConstraintConfig(
        (ExpDecay(1.0, 0.7, 1.1), ExpDecay(1.0, 0.6, 1.1)), (1.0, 2.0)
    )


def make_cascade(reference=Constant(0.0), constraints=None, delta=1e-4, nodes=4):
    constraints = constraints or flat_constraints()
    gains = GainConfig(k=(5.0, 5.0), lam=14.0, eta=4.0, delta=delta)
    plant = PlantSpec(n=2, f=(), beta=1.0, disturbances=(Constant(0.0), Constant(0.0)))
    return ClosedLoop(RunConfig(plant, constraints, RbfNetwork.lattice(nodes, 2), gains, (7.0, 7.0),
                                reference, (0.0, 0.0)))


class TestConfigValidation:
    def test_gains_must_be_positive(self):
        for bad in [dict(k=(0.0, 1.0)), dict(lam=0.0), dict(eta=-1.0), dict(delta=0.0)]:
            kwargs = dict(k=(5.0, 5.0), lam=14.0, eta=4.0, delta=1e-4)
            kwargs.update(bad)
            with pytest.raises(ConfigError):
                GainConfig(**kwargs)

    def test_reserve_must_fit_initial_envelope(self):
        with pytest.raises(ConfigError, match="infeasible"):
            ConstraintConfig((Constant(2.0), Constant(2.0)), (1.0, 2.0))

    def test_negative_reserve_rejected(self):
        with pytest.raises(ConfigError, match="A\\[0\\]"):
            ConstraintConfig((Constant(2.0),), (-0.5,))

    def test_level_count_mismatch(self):
        with pytest.raises(ConfigError):
            ConstraintConfig((Constant(2.0), Constant(2.0)), (0.0,))

    def test_a_state_bound_that_is_none_is_named(self):
        # it still counts as a level, and the reserves are still checked
        with pytest.raises(ConfigError) as err:
            ConstraintConfig((None, None), (1.0, -2.0))
        assert err.value.problems == [("Psi[0]", "expected a signal, got None"),
                                      ("Psi[1]", "expected a signal, got None"),
                                      ("A[1]", "must be >= 0, got -2.0")]


class TestEnvelopes:
    def test_initial_envelope_is_bound_minus_reserve(self):
        cc = sec6_constraints()
        assert cc.envelope(0, 0.0) == pytest.approx(1.1, abs=1e-12)
        assert cc.envelope(1, 0.0) == pytest.approx(0.1, abs=1e-12)

    def test_constant_bound_keeps_plain_subtraction(self):
        cc = ConstraintConfig((Constant(2.0), Constant(3.0)), (0.5, 1.0))
        for t in (0.0, 1.0, 50.0):
            assert cc.envelope(0, t) == 1.5
            assert cc.envelope(1, t) == 2.0
            assert cc.envelope_rate(0, t) == 0.0

    def test_shrinking_bound_envelope_stays_positive(self):
        cc = sec6_constraints()
        ts = np.linspace(0.0, 40.0, 4001)
        for t in ts:
            assert cc.envelope(1, t) > 0.0
        # the fixed subtraction would already be negative past ~0.18 s
        assert cc.state_bound(1, 1.0) - 2.0 < 0.0

    def test_envelope_rate_matches_finite_difference(self):
        cc = sec6_constraints()
        h = 1e-5
        for i in range(2):
            for t in (0.01, 0.5, 3.0, 15.0):
                fd = (cc.envelope(i, t + h) - cc.envelope(i, t - h)) / (2 * h)
                assert cc.envelope_rate(i, t) == pytest.approx(fd, abs=1e-7)


class TestCascade:
    def test_full_rest_fixed_point(self):
        casc = make_cascade()
        rec = casc.step(0.0, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(4))
        assert np.all(rec.z == 0.0) and np.all(rec.q == 0.0)
        assert np.all(rec.eps_hat == 0.0)
        assert np.all(rec.alpha == 0.0)
        assert np.all(rec.v == 0.0) and rec.u == 0.0
        assert np.all(rec.zeta_rate == 0.0) and np.all(rec.theta_rate == 0.0)
        assert rec.barrier_energy == 0.0

    def test_sec6_start_has_zero_errors_and_controls(self):
        casc = make_cascade(reference=Sinusoid(1.0, 1.0, 0.0, "sin"),
                            constraints=sec6_constraints(), nodes=12)
        rec = casc.step(0.0, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(12))
        assert rec.z[0] == 0.0 and rec.z[1] == 0.0
        assert rec.v[0] == 0.0 and rec.u == 0.0

    def test_weight_rate_is_pure_decay_when_q_zero(self):
        casc = make_cascade()
        theta = np.array([0.3, -0.2, 0.1, 0.05])
        # x2 = 0 and zeta = 0 give v1 = 0, so z2 = 0 and Q2 = 0
        rec = casc.step(0.0, np.array([0.5, 0.0]), np.zeros(2), np.zeros(2), theta)
        assert rec.z[1] == 0.0
        expected = 14.0 * (-(49.0 + 4.0) * theta)
        assert np.allclose(rec.theta_rate, expected, rtol=0, atol=1e-12)

    def test_step_is_pure_and_deterministic(self):
        casc = make_cascade(reference=Sinusoid(1.0, 1.0, 0.0, "sin"))
        x = np.array([0.3, -0.2])
        dhat = np.array([0.5, -0.1])
        zeta = np.array([0.4, 1.1])
        theta = np.full(4, 0.1)
        a = casc.step(0.3, x, dhat, zeta, theta)
        b = casc.step(0.3, x, dhat, zeta, theta)
        for name in ("z", "q", "eps_hat", "alpha", "v", "zeta_rate", "theta_rate"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.u == b.u and a.barrier_energy == b.barrier_energy

    def test_zero_gain_search_state_gates_controls(self):
        casc = make_cascade()
        rec = casc.step(0.0, np.array([0.7, -0.4]), np.array([1.0, -2.0]),
                        np.zeros(2), np.full(4, 0.2))
        assert rec.alpha[0] != 0.0 and rec.alpha[1] != 0.0
        assert rec.v[0] == 0.0 and rec.u == 0.0

    def test_adaptive_law_decomposition(self):
        casc = make_cascade()
        rng = np.random.default_rng(9)
        lam, eta, kn = 14.0, 4.0, 7.0
        for _ in range(100):
            # kept small so every sampled state sits inside both envelopes
            x = rng.uniform(-0.3, 0.3, 2)
            dhat = rng.uniform(-0.3, 0.3, 2)
            zeta = rng.uniform(-0.2, 0.2, 2)
            theta = rng.uniform(-1, 1, 4)
            rec = casc.step(0.2, x, dhat, zeta, theta)
            phi = casc.config.rbf.basis(x)
            residual = rec.theta_rate + lam * (kn ** 2 + eta) * theta - lam * rec.q[1] * phi
            assert np.max(np.abs(residual)) < 1e-12

    def test_reciprocal_term_matches_exact_inverse_for_large_q(self):
        delta = 1e-8
        casc = make_cascade(delta=delta)
        x = np.array([0.0, 1.9])  # z2 = 1.9 in a +/-2 tube: Q2 = 4.87 > 1
        rec = casc.step(0.0, x, np.zeros(2), np.zeros(2), np.zeros(4))
        q2 = rec.q[1]
        assert abs(q2) >= 1.0
        exact = (5.0 * 1.9 + rec.eps_hat[1] + 0.5 * q2 + 7.0 ** 4 / 8.0 / q2)
        assert abs(rec.alpha[1] - exact) <= delta * 7.0 ** 4 / 8.0 + 1e-9

    def test_violation_reports_level_and_time(self):
        casc = make_cascade()
        with pytest.raises(BarrierViolation) as err:
            casc.step(1.25, np.array([2.5, 0.0]), np.zeros(2), np.zeros(2), np.zeros(4))
        assert err.value.level == 1 and err.value.t == 1.25

    def test_cascade_map_compiles_nothing(self, monkeypatch):
        # the map is the loop's own integrate: the loop is compiled once,
        # and no call of _eval or step compiles a second pass
        compiled = []

        def counting(*args, **kwargs):
            compiled.append(args[1])
            return compile(*args, **kwargs)

        monkeypatch.setattr(passgen, "compile", counting, raising=False)
        casc = make_cascade(reference=Sinusoid(1.0, 1.0, 0.0, "sin"))
        assert compiled == ["<blfstep pass n=2 l=4>"]
        for t in (0.0, 0.3, 0.3, 1.7):
            casc._eval(t, [0.1, 0.0], [0.0, 0.2], [0.4, 0.0], [0.1] * 4)
            casc.step(t, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(4))
        assert len(compiled) == 1

    def test_z1_past_the_tail_sum_range_ends_in_non_finite_state(self):
        # z1 ** 2 overflows in the metrics the zero-step run updates, as it
        # would in a run at this state; the entries of arrays, numpy scalars
        # whose arithmetic overflows to inf with a RuntimeWarning, are taken
        # as floats
        casc = make_cascade(constraints=flat_constraints(psi=1e300))
        for form in (list, np.array):
            rest = [form(v) for v in ([0.0, 0.0], [0.0, 0.0], [0.0] * 4)]
            assert casc.step(0.5, form([1e154, 0.0]), *rest).z[0] == 1e154
            with pytest.raises(NonFiniteState) as err:
                casc.step(0.5, form([1e155, 0.0]), *rest)
            assert err.value.t == 0.5

    @pytest.mark.parametrize("l", [12, 30])
    def test_overflowing_network_output_is_the_same_record_on_both_layouts(self, sec6_config, l):
        # theta . phi overflows to inf: a float-weight sum does so silently,
        # and the array layout's dot as well, since the map is its integrate
        loop = ClosedLoop(replace(sec6_config, rbf=RbfNetwork.lattice(l, 2)))
        assert loop.float_weights == (l == 12)
        parts = ([0.01, 0.0], [0.0, 0.0], [0.1, 0.1], [1e308] * l)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = loop.step(3.0, *parts)
        assert rec.u == math.inf and rec.nn_out == math.inf
        if not loop.float_weights:  # the bare rates, a run's hot stage call, still warns
            with pytest.warns(RuntimeWarning, match="overflow"):
                loop.derivative(3.0, loop.state(*parts))

    @pytest.mark.parametrize("l, parts, message", [
        pytest.param(12, ([0.01, 0.0, 0.5], [0.7], [0.1, 0.1], [0.0] * 12),
                     "x: expected 2 entries, got 3", id="float-x"),
        pytest.param(12, ([0.01, 0.0], [0.0, 0.0], [0.1], [0.0] * 12),
                     "zeta: expected 2 entries, got 1", id="float-zeta"),
        pytest.param(30, ([0.01, 0.0], [0.0, 0.0], [0.1, 0.1], [0.0] * 5),
                     "theta: expected 30 entries, got 5", id="array-theta"),
        pytest.param(30, ([0.01, 0.0], [0.0], [0.1, 0.1], np.zeros(30)),
                     "dhat: expected 2 entries, got 1", id="array-dhat"),
    ])
    def test_a_part_of_the_wrong_length_is_named(self, sec6_config, l, parts, message):
        # the parts are not joined into a state of another layout
        loop = ClosedLoop(replace(sec6_config, rbf=RbfNetwork.lattice(l, 2)))
        with pytest.raises(ValueError) as err:
            loop.step(3.0, *parts)
        assert type(err.value) is ValueError and str(err.value) == message

    def test_initial_errors_use_reference_only_on_first_level(self, sec6_config):
        # a run starts at rest with eps_hat(0) = 0, so its first row holds
        # dhat(0) = -k_eps * z(0), with z(0) = (x1 - y_d(0), x2): the
        # virtual control v1 is zero while zeta1 is
        cfg = replace(sec6_config, reference=Sinusoid(1.0, 1.0, 0.5, "sin"),
                      initial_x=(0.25, -0.05), horizon=0.0)
        y_d0 = cfg.reference.value(0.0)
        assert y_d0 != 0.0
        k1, k2 = cfg.observer_gains
        first = run(cfg).records.columns(["y_d", "dhat1", "dhat2"])[0]
        assert bits(first) == bits([y_d0, -k1 * (0.25 - y_d0), -k2 * -0.05])


class TestDiagnostics:
    def test_decay_rates_sec6(self):
        gains = GainConfig(k=(5.0, 5.0), lam=14.0, eta=4.0)
        rates = lyapunov_decay_rates(gains, (7.0, 7.0), math.sqrt(12.0))
        assert rates[0] == 10.0
        assert rates[1] == 0.0  # min(10, 2*(7-1-6), 56)

    def test_decay_rate_boundary(self):
        gains = GainConfig(k=(5.0, 5.0), lam=14.0, eta=4.0)
        rates = lyapunov_decay_rates(gains, (1.0, 7.0), 0.0)
        assert rates[0] == 0.0

    def test_gain_count_and_basis_bound_are_config_errors(self):
        gains = GainConfig(k=(5.0, 5.0), lam=14.0, eta=4.0)
        with pytest.raises(ConfigError) as err:
            lyapunov_decay_rates(gains, (7.0,), -1.0)
        assert err.value.problems == [("basis_bound", "must be >= 0, got -1.0"),
                                      ("observer_gains", "need 2 observer gains, got 1")]

    @pytest.mark.parametrize("observer_gains, message", [
        pytest.param(("x", 7.0), "expected a number, got 'x'", id="text"),
        pytest.param((None, 7.0), "expected a number, got None", id="none"),
    ])
    def test_an_observer_gain_that_is_not_a_number_is_named(self, observer_gains, message):
        gains = GainConfig(k=(5.0, 5.0), lam=14.0, eta=4.0)
        with pytest.raises(ConfigError) as err:
            lyapunov_decay_rates(gains, observer_gains, 1.0)
        assert err.value.problems == [("observer_gains[0]", message)]


# Reference implementations: the cascade pass and the closed-loop
# derivative as first written, on numpy float64 scalars with every
# time-only signal recomputed at every call. The package's fast path
# (Python floats, time signals memoised per t) must agree bit for bit.
# Up to 24 nodes the network is specified on floats: one math.exp per
# node, and every sum over the axes or the weights taken left to right;
# beyond, np.exp, numpy's row sum, @ and np.linalg.norm.

def chain(values):
    """values summed left to right from the first, as a + b + c adds them."""
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


def reference_basis(rbf, x):
    if rbf.l > 24:
        diff = rbf.centers - np.asarray(x, dtype=float)
        return np.exp(-(diff * diff).sum(axis=1) / rbf.widths)
    x = np.asarray(x, dtype=float).tolist()
    return np.array([math.exp(-chain([(c - xi) * (c - xi) for c, xi in zip(center, x)]) / b)
                     for center, b in zip(rbf.centers.tolist(), rbf.widths.tolist())])


def reference_dot(theta, phi):
    if len(theta) > 24:
        return float(theta @ phi)
    return chain([w * p for w, p in zip(np.asarray(theta).tolist(), np.asarray(phi).tolist())])


def reference_norm(theta):
    return np.linalg.norm(theta) if len(theta) > 24 else math.sqrt(reference_dot(theta, theta))


# RbfNetwork.basis equals the reference bit for bit for every network,
# whether the input is a list or an array. The generated pass forms the
# basis of a network of up to 24 nodes itself, on Python floats; the pass
# and trajectory oracles below check that form.
@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("l", [1, 12, 24, 25])
def test_basis_equals_reference(n, l):
    rng = np.random.default_rng(100 * n + l)
    rbf = RbfNetwork(rng.uniform(-2.0, 2.0, (l, n)), rng.uniform(0.3, 3.0, l))
    for scale in (1e-3, 0.5, 2.0, 30.0):
        for _ in range(25):
            x = (scale * rng.standard_normal(n)).tolist()
            got = rbf.basis(x)
            assert isinstance(got, np.ndarray) and got.shape == (l,)
            assert bits(got) == bits(reference_basis(rbf, x))
            assert bits(rbf.basis(np.array(x))) == bits(got)


def reference_eval(loop, t, x, dhat, zeta, theta):
    cfg = loop.config
    n = cfg.plant.n
    k = cfg.gains.k
    kobs = cfg.observer_gains
    phi = reference_basis(cfg.rbf, x)
    z = np.empty(n)
    q = np.empty(n)
    eps_hat = np.empty(n)
    alpha = np.empty(n)
    zeta_rate = np.empty(n)
    v = np.empty(n - 1)
    v_prev = cfg.reference.value(t)
    u = 0.0
    nn_out = 0.0
    for i in range(n):
        zi = x[i] - v_prev
        psi = cfg.constraints.envelope(i, t)
        if not (abs(zi) < psi):
            raise BarrierViolation(zi, psi, level=i + 1, t=t)
        qi = q_value(zi, psi)
        ei = estimate(dhat[i], kobs[i], zi)
        wall_rate = (zi / psi) * cfg.constraints.envelope_rate(i, t)
        if i < n - 1:
            ai = k[i] * zi + ei + qi - wall_rate
            v_prev = nussbaum(zeta[i]) * ai
            v[i] = v_prev
        else:
            nn_out = reference_dot(theta, phi)
            ai = (k[i] * zi + ei + 0.5 * qi - wall_rate + nn_out
                  + damped_inverse(qi, cfg.gains.delta) * (kobs[-1] ** 4 / 8.0))
            u = nussbaum(zeta[i]) * ai
        z[i] = zi
        q[i] = qi
        eps_hat[i] = ei
        alpha[i] = ai
        zeta_rate[i] = qi * ai
    theta_rate = cfg.gains.lam * (q[n - 1] * phi - kobs[-1] ** 2 * theta - cfg.gains.eta * theta)
    return z, q, eps_hat, alpha, v, u, zeta_rate, theta_rate, nn_out


def reference_energy(loop, t, z):
    constraints = loop.config.constraints
    energy = 0.0
    for i in range(constraints.n):
        energy += blf_value(z[i], constraints.envelope(i, t))
    return energy


def reference_row(loop, t, x, dhat, zeta, theta):
    """The record-table row at t, each cell placed by its layout name: the
    reference pass, reference_energy, reference_norm and the time signals
    evaluated from the configuration."""
    z, q, eps_hat, alpha, v, u, zeta_rate, theta_rate, nn_out = \
        reference_eval(loop, t, x, dhat, zeta, theta)
    cfg = loop.config
    n, constraints = cfg.plant.n, cfg.constraints
    cells = dict(t=t, x=x, dhat=dhat, zeta=zeta, theta=theta,
                 Psi=[constraints.state_bound(i, t) for i in range(n)],
                 psi=[constraints.envelope(i, t) for i in range(n)],
                 z=z, q=q, eps_hat=eps_hat, alpha=alpha, v=v, u=u, zeta_rate=zeta_rate,
                 theta_rate=theta_rate, nn_out=nn_out,
                 barrier_energy=reference_energy(loop, t, z),
                 theta_norm=reference_norm(theta), y_d=cfg.reference.value(t))
    row = np.empty(loop.layout.width)
    for group, at in loop.layout.at.items():
        row[at] = cells[group]
    return row


def reference_rhs(plant, t, x, u):
    dx = np.empty(plant.n)
    for i in range(plant.n - 1):
        dx[i] = x[i + 1] + plant.disturbances[i].value(t)
    drift = 0.0
    for mono in plant.f:
        term = mono.coeff
        for xj, e in zip(x, mono.exponents):
            if e:
                term *= xj ** e
        drift += term
    dx[plant.n - 1] = drift + plant.beta * u + plant.disturbances[plant.n - 1].value(t)
    return dx


def reference_derivative(loop, t, s):
    cfg = loop.config
    n = cfg.plant.n
    x, dhat, zeta, theta = s[:n], s[n:2 * n], s[2 * n:3 * n], s[3 * n:]
    (_, _, eps_hat, _, _, u, zeta_rate, theta_rate, nn_out) = \
        reference_eval(loop, t, x, dhat, zeta, theta)
    ds = np.empty(3 * n + cfg.rbf.l)
    ds[:n] = reference_rhs(cfg.plant, t, x, u)
    kobs = cfg.observer_gains
    for i in range(n - 1):
        ds[n + i] = dhat_rate_inner(kobs[i], x[i + 1], eps_hat[i])
    ds[2 * n - 1] = dhat_rate_final(kobs[n - 1], nn_out, u, eps_hat[n - 1])
    ds[2 * n:3 * n] = zeta_rate
    ds[3 * n:] = theta_rate
    return ds


def bits(values):
    """Exact bit patterns, so -0.0 and 0.0 differ and NaN equals itself."""
    return [float(v).hex() for v in np.atleast_1d(np.asarray(values, dtype=float))]


def outcome(fn, *args):
    """fn's result, or the fields of the BarrierViolation it raised."""
    try:
        return fn(*args)
    except BarrierViolation as exc:
        return ("violation", exc.level, float(exc.z).hex(), float(exc.psi).hex(), exc.t)


# One loop for the whole module, so the memo carries state
# from one example into the next, as it does across a run.
H = 1e-3
SEC6_CONFIG = RunConfig(
    plant=PlantSpec(n=2, f=(Monomial(-5.0, (3, 0)), Monomial(-2.0, (0, 1))), beta=1.0,
                    disturbances=(Sinusoid(0.2, PI, 0.0, "cos"), Sinusoid(0.2, PI, 0.0, "sin"))),
    constraints=sec6_constraints(),
    # widths that are not powers of two, so the basis rounding is exercised
    rbf=RbfNetwork(RbfNetwork.lattice(12, 2).centers, np.linspace(0.7, 2.9, 12)),
    gains=GainConfig(k=(5.0, 5.0), lam=14.0, eta=4.0, delta=1.3), observer_gains=(7.0, 7.0),
    reference=SignalSum((Sinusoid(1.0, 1.0, 0.0, "sin"), ExpDecay(0.1, 2.0, 0.0))),
    initial_x=(0.0, 0.0),
)
SEC6_LOOP = ClosedLoop(SEC6_CONFIG)

small = st.floats(-0.4, 0.4, allow_nan=False)
states = st.tuples(st.lists(small, min_size=2, max_size=2), st.lists(small, min_size=2, max_size=2),
                   st.lists(small, min_size=2, max_size=2), st.lists(small, min_size=12, max_size=12))


def as_arrays(state):
    return tuple(np.array(part) for part in state)


def assert_row_matches(casc, t, x, dhat, zeta, theta):
    """_eval's row equals reference_row cell by cell, and step's record
    reads it; or both raise the same violation, and it returns False."""
    ref = outcome(reference_row, casc, t, x, dhat, zeta, theta)
    got = outcome(casc._eval, t, x, dhat, zeta, theta)
    if isinstance(ref, tuple) or isinstance(got, tuple):  # a violation
        assert isinstance(ref, tuple) and isinstance(got, tuple) and got == ref
        return False
    layout = casc.layout
    assert bits(got) == bits(ref), [name for name, i in layout.index.items()
                                    if bits(got[i]) != bits(ref[i])]
    rec = casc.step(t, x, dhat, zeta, theta)
    for f in fields(StepRecord):
        assert bits(getattr(rec, f.name)) == bits(ref[layout.at[f.name]]), f.name
    return True


class TestFastPathMatchesReference:
    """The Python-float cascade and loop equal the numpy-scalar reference
    exactly: no tolerance, compared bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(t=st.floats(0.0, 20.0), state=states)
    def test_eval_equals_reference(self, t, state):
        assert_row_matches(SEC6_LOOP, t, *as_arrays(state))

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(0, 20000), order=st.lists(st.integers(0, 3), min_size=1, max_size=10),
           state=states)
    def test_interleaved_stage_times(self, k, order, state):
        # the times one RK4 step visits, in any order and with repeats:
        # t, t + h/2, t + h (k4's stage) and (k+1)*h (the next step's t)
        t = k * H
        times = (t, t + 0.5 * H, t + H, (k + 1) * H)
        x, dhat, zeta, theta = as_arrays(state)
        for j in order:
            assert_row_matches(SEC6_LOOP, times[j], x, dhat, zeta, theta)

    @settings(max_examples=100, deadline=None)
    @given(t1=st.floats(0.0, 20.0), t2=st.floats(0.0, 20.0), state=states)
    def test_repeated_times(self, t1, t2, state):
        x, dhat, zeta, theta = as_arrays(state)
        for t in (t1, t2, t1, t1, t2):
            assert_row_matches(SEC6_LOOP, t, x, dhat, zeta, theta)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(0, 20000), state=st.lists(small, min_size=18, max_size=18))
    def test_derivative_equals_reference(self, k, state):
        s = np.array(state)
        t = k * H
        for tau in (t, t + 0.5 * H, t + 0.5 * H, t + H, (k + 1) * H, t):
            ref = outcome(reference_derivative, SEC6_LOOP, tau, s)
            got = outcome(SEC6_LOOP.derivative, tau, list(state))
            if isinstance(ref, tuple) or isinstance(got, tuple):  # a violation
                assert got == ref
            else:
                assert bits(got) == bits(ref)

    def test_memo_separates_times_one_bit_apart(self):
        # t + h and (k+1)*h differ in the last bit for about a third of the
        # steps; find one where the reference signal differs too, so a
        # memo that confused the two times would return the wrong value
        for k in range(20000):
            a, b = k * H + H, (k + 1) * H
            if a != b and SEC6_CONFIG.reference.value(a) != SEC6_CONFIG.reference.value(b):
                break
        else:
            pytest.fail("no step with distinct stage and step times")
        for t in (a, b, a, b):
            y_d, bound, psi, psi_rate = SEC6_LOOP.signals(t)
            constraints = SEC6_CONFIG.constraints
            assert bits(y_d) == bits(SEC6_CONFIG.reference.value(t))
            assert bits(bound) == bits([constraints.state_bound(i, t) for i in range(2)])
            assert bits(psi) == bits([constraints.envelope(i, t) for i in range(2)])
            assert bits(psi_rate) == bits([constraints.envelope_rate(i, t) for i in range(2)])


# Past _FLOAT_WEIGHTS_MAX weights the weight update runs as numpy array
# operations; it too must equal the reference bit for bit.
WIDE_LOOP = ClosedLoop(replace(
    SEC6_CONFIG, rbf=RbfNetwork(RbfNetwork.lattice(48, 2).centers, np.linspace(0.7, 2.9, 48))))


@settings(max_examples=50, deadline=None)
@given(k=st.integers(0, 20000), state=st.lists(small, min_size=54, max_size=54))
def test_wide_weight_update_equals_reference(k, state):
    s = np.array(state)
    parts = (s[:2], s[2:4], s[4:6], s[6:])
    assert not WIDE_LOOP.config.rbf.float_weights  # the weights as one array
    for tau in (k * H, k * H + 0.5 * H):
        if not assert_row_matches(WIDE_LOOP, tau, *parts):  # a violation
            continue
        got = WIDE_LOOP.derivative(tau, WIDE_LOOP.state(*parts))
        assert isinstance(got[-1], np.ndarray)  # the weights' rates, one block
        assert bits(np.hstack(got)) == bits(reference_derivative(WIDE_LOOP, tau, s))


# A run's trajectory against a classic RK4 loop on the reference
# derivative: five reference passes per step (the accepted state, then
# k1 to k4), nothing reused and every time signal recomputed, so the
# loop shares no code with the run's fused stage pass or its k1 reuse.

def reference_trajectory(cfg):
    loop = ClosedLoop(cfg)
    n, h = cfg.plant.n, cfg.step
    s = np.zeros(loop.dim)
    s[:n] = cfg.initial_x
    z0 = np.array(cfg.initial_x)
    z0[0] -= cfg.reference.value(0.0)
    s[n:2 * n] = [-g * z for g, z in zip(cfg.observer_gains, z0)]  # eps_hat(0) = 0
    rows = [s]
    for k in range(int(round(cfg.horizon / h))):
        t = k * h
        reference_derivative(loop, t, s)  # the pass at the accepted state
        k1 = reference_derivative(loop, t, s)
        k2 = reference_derivative(loop, t + 0.5 * h, s + (0.5 * h) * k1)
        k3 = reference_derivative(loop, t + 0.5 * h, s + (0.5 * h) * k2)
        k4 = reference_derivative(loop, t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(s)
    return np.array(rows)


def fourth_order_config():
    """A damped fourth-order chain; its basis sums four axes."""
    return replace(
        third_order_config(),
        plant=PlantSpec(n=4, f=(Monomial(-2.0, (0, 0, 0, 1)), Monomial(-1.0, (1, 0, 0, 0)),
                                Monomial(-0.5, (0, 1, 1, 0))),
                        beta=1.5, disturbances=(Constant(0.02), Constant(0.0), Constant(0.0),
                                                Sinusoid(0.05, 1.0, 0.0, "sin"))),
        constraints=ConstraintConfig((Constant(3.0), Constant(3.0), Constant(4.0), Constant(6.0)),
                                     (0.6, 1.0, 1.5, 2.0)),
        rbf=RbfNetwork.lattice(16, 4),
        gains=GainConfig(k=(2.0, 2.0, 2.0, 2.0), lam=5.0, eta=2.0, delta=1.0),
        observer_gains=(4.0, 4.0, 4.0, 6.0),
        initial_x=(0.1, 0.0, 0.0, 0.0),
    )


@pytest.mark.parametrize("make", [
    pytest.param(lambda sec6: third_order_config(), id="third-order"),
    # past _FLOAT_WEIGHTS_MAX weights: the array weight update
    pytest.param(lambda sec6: replace(third_order_config(), rbf=RbfNetwork.lattice(30, 3)),
                 id="third-order-l30"),
    pytest.param(lambda sec6: replace(sec6, rbf=RbfNetwork.lattice(30, 2)), id="flagship-l30"),
    # one on each side of _FLOAT_WEIGHTS_MAX: the last float layout, the first block one
    pytest.param(lambda sec6: replace(sec6, rbf=RbfNetwork.lattice(24, 2)), id="flagship-l24"),
    pytest.param(lambda sec6: replace(sec6, rbf=RbfNetwork.lattice(25, 2)), id="flagship-l25"),
    pytest.param(lambda sec6: fourth_order_config(), id="fourth-order"),
])
def test_run_trajectory_equals_reference_rk4_loop(make, sec6_config):
    cfg = replace(make(sec6_config), horizon=0.3, decimation=1)
    res = run(cfg)
    want = reference_trajectory(cfg)
    assert res.trajectory.shape == want.shape == (301, cfg.rbf.l + 3 * cfg.plant.n)
    assert [bits(row) for row in res.trajectory] == [bits(row) for row in want]
