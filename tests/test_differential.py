"""A differential oracle over whole configurations.

hypothesis draws a run configuration: the plant order, drift monomials,
signal trees for the reference, the disturbances and the state bounds,
reserves feasible by construction, a lattice or listed centers on either
side of the float-weight limit, gains and a short horizon. The run must
equal the reference RK4 loop of test_controller, which shares no pass
code with the package, bit for bit, or both must end alike: a barrier
violation at the same level and time, or a state that left the finite
range.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from blfstep.approximator import RbfNetwork
from blfstep.barrier import BarrierViolation
from blfstep.controller import BacksteppingCascade, ConstraintConfig, GainConfig
from blfstep.plant import Monomial, PlantSpec
from blfstep.signals import Constant, ExpDecay, SignalSum, Sinusoid
from blfstep.simengine import NonFiniteState, RunConfig, run

from test_controller import bits, reference_eval, reference_trajectory


def signals(scale):
    """Signal trees whose leaves stay within scale in size."""
    amplitude = st.floats(-scale, scale)
    rate = st.floats(0.0, 5.0)
    leaf = (st.builds(Constant, amplitude)
            | st.builds(Sinusoid, amplitude, rate, st.floats(-math.pi, math.pi),
                        st.sampled_from(["sin", "cos"]))
            | st.builds(ExpDecay, amplitude, rate, amplitude))
    return st.recursive(leaf, lambda terms: st.builds(SignalSum, st.lists(terms, min_size=1,
                                                                          max_size=3)),
                        max_leaves=4)


# positive on [0, inf): a floor of at least 0.5 plus at most four leaves of
# at most 0.1 each
STATE_BOUNDS = (st.builds(Constant, st.floats(0.5, 3.0))
                | st.builds(ExpDecay, st.floats(0.0, 2.0), st.floats(0.0, 3.0), st.floats(0.5, 3.0))
                | st.builds(lambda floor, wobble: SignalSum((Constant(floor), wobble)),
                            st.floats(0.5, 3.0), signals(0.05)))


@st.composite
def configs(draw):
    n = draw(st.integers(2, 4))
    monomials = st.builds(Monomial, st.floats(-3.0, 3.0),
                          st.lists(st.integers(0, 3), min_size=n, max_size=n))
    plant = PlantSpec(n=n, f=tuple(draw(st.lists(monomials, max_size=3))),
                      beta=draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([-1.0, 1.0])),
                      disturbances=tuple(draw(st.lists(signals(0.5), min_size=n, max_size=n))))
    bounds = draw(st.lists(STATE_BOUNDS, min_size=n, max_size=n))
    # a reserve below Psi_i(0), and a start inside each envelope psi_i(0)
    shares = draw(st.lists(st.just(0.0) | st.floats(0.05, 0.9), min_size=n, max_size=n))
    reserves = [share * bound.value(0.0) for share, bound in zip(shares, bounds)]
    reference = draw(signals(1.0))
    inside = draw(st.lists(st.floats(-0.8, 0.8), min_size=n, max_size=n))
    initial_x = [f * (bound.value(0.0) - reserve)
                 for f, bound, reserve in zip(inside, bounds, reserves)]
    initial_x[0] += reference.value(0.0)
    # both sides of 24 nodes, the float-weight limit; a lattice or listed centers
    l = draw(st.integers(1, 40))
    if draw(st.booleans()):
        rbf = RbfNetwork.lattice(l, n)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        rbf = RbfNetwork(rng.uniform(-2.0, 2.0, (l, n)), rng.uniform(0.3, 3.0, l))
    gain = st.floats(0.5, 10.0)
    step = draw(st.sampled_from([1e-3, 2.5e-3]))
    return RunConfig(
        plant=plant,
        constraints=ConstraintConfig(bounds, reserves),
        rbf=rbf,
        gains=GainConfig(k=tuple(draw(st.lists(gain, min_size=n, max_size=n))),
                         lam=draw(st.floats(0.5, 20.0)), eta=draw(st.floats(0.1, 5.0)),
                         delta=draw(st.floats(0.1, 2.0))),
        observer_gains=tuple(draw(st.lists(gain, min_size=n, max_size=n))),
        reference=reference,
        initial_x=tuple(initial_x),
        horizon=draw(st.integers(0, 20)) * step,  # at most 0.05 s
        step=step,
        decimation=1,
    )


def violation(exc):
    """How a run reports a barrier violation: a finite crossing with its
    level and time, or the state leaving the finite range."""
    if math.isfinite(exc.z) and math.isfinite(exc.psi):
        return ("violation", exc.level, exc.t, bits(exc.z), bits(exc.psi))
    return ("non-finite",)


def run_outcome(cfg):
    try:
        return run(cfg).trajectory
    except BarrierViolation as exc:
        return violation(exc)
    except NonFiniteState:
        return ("non-finite",)


def reference_outcome(cfg):
    """The reference loop's trajectory, and then its pass at the last
    accepted state, which the run makes too."""
    n, steps = cfg.plant.n, int(round(cfg.horizon / cfg.step))
    cascade = BacksteppingCascade(cfg.reference, cfg.constraints, cfg.gains,
                                  cfg.observer_gains, cfg.rbf)
    with np.errstate(all="ignore"):
        try:
            rows = reference_trajectory(cfg)
            if not np.isfinite(rows).all():
                return ("non-finite",)
            last = rows[-1]
            reference_eval(cascade, steps * cfg.step, last[:n], last[n:2 * n],
                           last[2 * n:3 * n], last[3 * n:])
        except BarrierViolation as exc:
            return violation(exc)
        except (OverflowError, ValueError):  # the scalar maths past the float range
            return ("non-finite",)
    return rows


# x1 starts next to the wall of its unit tube: the barrier term winds up
# the gain search, and level 2 crosses its envelope at the first half step
CROSSING = RunConfig(
    plant=PlantSpec(n=2, f=(), beta=1.0, disturbances=(Constant(5.0), Constant(0.0))),
    constraints=ConstraintConfig((Constant(1.0), Constant(2.0)), (0.0, 0.5)),
    rbf=RbfNetwork.lattice(4, 2), gains=GainConfig(k=(1.0, 1.0), lam=1.0, eta=1.0),
    observer_gains=(1.0, 1.0), reference=Constant(0.0), initial_x=(0.99, 0.0),
    horizon=0.05, step=1e-3, decimation=1)


@settings(max_examples=40, deadline=None)
@given(cfg=configs())
@example(cfg=CROSSING)
def test_run_equals_the_reference_loop_on_drawn_configurations(cfg):
    got, want = run_outcome(cfg), reference_outcome(cfg)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert [bits(row) for row in got] == [bits(row) for row in want]
