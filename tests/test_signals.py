import math

import numpy as np
import pytest

from blfstep.signals import (
    ConfigError,
    Constant,
    ExpDecay,
    SignalSum,
    Sinusoid,
    signal_from_dict,
    signal_to_dict,
)

PI = math.pi


def sec6_signals():
    return [
        Constant(0.0),
        Constant(5.0),
        Sinusoid(0.2, PI, 0.0, "cos"),
        Sinusoid(0.2, PI, 0.0, "sin"),
        Sinusoid(1.0, 1.0, 0.0, "sin"),
        ExpDecay(1.0, 0.7, 1.1),
        ExpDecay(1.0, 0.6, 1.1),
        SignalSum((Sinusoid(1.0, 1.0, 0.0, "sin"), ExpDecay(1.0, 0.7, 1.1), Constant(-0.3))),
    ]


def test_expdecay_value_at_zero():
    assert ExpDecay(1.0, 0.7, 1.1).value(0.0) == pytest.approx(2.1, abs=1e-15)


def test_cosine_disturbance_at_zero():
    assert Sinusoid(0.2, PI, 0.0, "cos").value(0.0) == pytest.approx(0.2, abs=1e-15)


def test_zero_signal():
    sig = Constant(0.0)
    for t in (0.0, 1.0, 17.3):
        assert sig.value(t) == 0.0


def test_expdecay_derivative_at_zero():
    assert ExpDecay(1.0, 0.7, 1.1).derivative(0.0) == pytest.approx(-0.7, abs=1e-15)


def test_constant_derivative():
    assert Constant(5.0).derivative(2.0) == 0.0


def test_sine_derivative_at_zero():
    assert Sinusoid(1.0, 1.0, 0.0, "sin").derivative(0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_derivative_matches_central_difference(h):
    rng = np.random.default_rng(20260810)
    ts = rng.uniform(0.0, 20.0, size=100)
    for sig in sec6_signals():
        for t in ts:
            fd = (sig.value(t + h) - sig.value(t - h)) / (2.0 * h)
            assert abs(sig.derivative(t) - fd) <= 10.0 * h * h


def test_sum_value_is_sum_of_member_values():
    terms = (Sinusoid(0.3, 2.0, 0.5, "cos"), ExpDecay(2.0, 0.2, -1.0), Constant(0.25))
    sig = SignalSum(terms)
    for t in (0.0, 0.7, 3.14, 19.0):
        total = 0.0
        for term in terms:
            total += term.value(t)
        assert sig.value(t) == total


def test_negative_decay_rate_rejected():
    with pytest.raises(ConfigError):
        ExpDecay(1.0, -0.1, 0.0)


def test_empty_sum_rejected():
    with pytest.raises(ConfigError):
        SignalSum(())


@pytest.mark.parametrize("terms, message", [
    pytest.param((), "expected at least one signal", id="tuple"),
    pytest.param([], "expected at least one signal", id="list"),
    pytest.param(3, "expected a non-empty list of signals, got 3", id="not-a-list"),
])
def test_sum_terms_problem_does_not_depend_on_the_sequence_type(terms, message):
    with pytest.raises(ConfigError) as err:
        SignalSum(terms)
    assert err.value.problems == [("terms", message)]


def test_writing_an_object_that_is_not_a_signal_is_a_type_error():
    with pytest.raises(TypeError, match="not a known signal type: int"):
        signal_to_dict(3)


def test_bad_sinusoid_kind_rejected():
    with pytest.raises(ConfigError):
        Sinusoid(1.0, 1.0, 0.0, "tan")


def test_dict_round_trip():
    for sig in sec6_signals():
        again = signal_from_dict(signal_to_dict(sig))
        assert again == sig
        for t in (0.0, 1.5, 8.0):
            assert again.value(t) == sig.value(t)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="signal.bogus: unknown key"):
        signal_from_dict({"kind": "constant", "c": 1.0, "bogus": 2})


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        signal_from_dict({"kind": "sawtooth", "c": 1.0})


def test_from_dict_reports_path():
    with pytest.raises(ConfigError, match=r"plant\.disturbances\[0\]"):
        signal_from_dict({"kind": "expdecay", "a": 1.0}, "plant.disturbances[0]")


def test_a_term_that_is_none_is_named():
    # a term that failed to build reaches the sum as None
    with pytest.raises(ConfigError) as err:
        SignalSum((Constant(1.0), None))
    assert err.value.problems == [("terms[1]", "expected a signal, got None")]
