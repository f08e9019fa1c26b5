import math
from dataclasses import replace

import numpy as np
import pytest

from blfstep.plant import Monomial, PlantSpec
from blfstep.signals import ConfigError, Constant, Sinusoid

PI = math.pi


def cubic_plant():
    """Order-2 plant with f = -5*x1^3 - 2*x2 and sinusoidal disturbances."""
    return PlantSpec(
        n=2,
        f=(Monomial(-5.0, (3, 0)), Monomial(-2.0, (0, 1))),
        beta=1.0,
        disturbances=(Sinusoid(0.2, PI, 0.0, "cos"), Sinusoid(0.2, PI, 0.0, "sin")),
    )


def quiet_plant(beta=1.0, f=()):
    return PlantSpec(n=2, f=f, beta=beta, disturbances=(Constant(0.0), Constant(0.0)))


def test_nonlinearity_at_origin():
    assert cubic_plant().nonlinearity((0.0, 0.0)) == 0.0


def test_nonlinearity_at_ones():
    assert cubic_plant().nonlinearity((1.0, 1.0)) == -7.0


def test_nonlinearity_odd_power_sign():
    assert cubic_plant().nonlinearity((-1.0, 0.0)) == 5.0


def test_rhs_at_rest_with_disturbances():
    dx = cubic_plant().rhs(0.0, (0.0, 0.0), 0.0)
    assert dx == pytest.approx([0.2, 0.0], abs=1e-15)


def test_integrator_chain_equilibrium():
    dx = quiet_plant().rhs(0.0, (1.0, 0.0), 0.0)
    assert list(dx) == [0.0, 0.0]


def test_pure_input_channel():
    dx = quiet_plant().rhs(0.0, (0.0, 0.0), 3.0)
    assert list(dx) == [0.0, 3.0]


def test_rhs_linear_in_input_with_slope_beta():
    spec = PlantSpec(
        n=3,
        f=(Monomial(1.5, (1, 1, 0)),),
        beta=-2.5,
        disturbances=(Constant(0.1), Constant(-0.2), Constant(0.3)),
    )
    x = (0.4, -1.1, 2.2)
    base = spec.rhs(1.0, x, 0.0)
    bumped = spec.rhs(1.0, x, 1.0)
    diff = np.subtract(bumped, base)
    assert diff[:-1] == pytest.approx([0.0, 0.0], abs=0.0)
    assert diff[-1] == pytest.approx(-2.5, abs=1e-12)


def test_chain_structure_matches_next_state():
    rng = np.random.default_rng(7)
    spec = PlantSpec(n=4, f=(), beta=1.0, disturbances=tuple(Constant(0.0) for _ in range(4)))
    for _ in range(20):
        x = rng.normal(size=4)
        dx = spec.rhs(0.0, x, 0.0)
        assert list(dx[:3]) == list(x[1:])


def test_zero_beta_rejected():
    with pytest.raises(ConfigError, match="beta"):
        quiet_plant(beta=0.0)


def test_exponent_length_mismatch_rejected():
    with pytest.raises(ConfigError, match="order"):
        quiet_plant(f=(Monomial(1.0, (1, 0, 0)),))


def test_negative_exponent_rejected():
    with pytest.raises(ConfigError):
        Monomial(1.0, (-1, 0))


def test_disturbance_count_enforced():
    with pytest.raises(ConfigError, match="disturbance"):
        PlantSpec(n=2, f=(), beta=1.0, disturbances=(Constant(0.0),))


def test_state_length_checked():
    # a call argument, not a configuration
    with pytest.raises(ValueError, match="length") as err:
        cubic_plant().nonlinearity((1.0,))
    assert not isinstance(err.value, ConfigError)
    with pytest.raises(ValueError, match="length"):
        cubic_plant().rhs(0.0, (1.0, 2.0, 3.0), 0.0)


def test_a_part_that_is_none_is_named():
    with pytest.raises(ConfigError) as err:
        PlantSpec(2, (None, Monomial(1.0, (1, 0))), 1.0, (None, Constant(0.0)))
    assert err.value.problems == [("f[0]", "expected a monomial, got None"),
                                  ("disturbances[0]", "expected a signal, got None")]


def test_a_part_of_the_wrong_kind_is_named():
    # a signal is not a monomial, and a number is not a signal; the other
    # drift term's exponents are still checked
    with pytest.raises(ConfigError) as err:
        replace(cubic_plant(), f=(Constant(1.0), Monomial(1.0, (1,))), disturbances=(1.0, 2.0))
    assert err.value.problems == [("f[0]", "expected a monomial, got Constant(c=1.0)"),
                                  ("disturbances[0]", "expected a signal, got 1.0"),
                                  ("disturbances[1]", "expected a signal, got 2.0"),
                                  ("f[1].exponents", "monomial exponent list length 1 "
                                                     "does not match order 2")]


def test_parts_that_are_not_lists_are_named():
    with pytest.raises(ConfigError) as err:
        PlantSpec(2, 5, 1.0, None)
    assert [path for path, _ in err.value.problems] == ["f", "disturbances"]
