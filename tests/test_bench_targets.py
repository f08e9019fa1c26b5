"""The names bench/tracing.py patches still exist where it looks them up,
and a call of the controller map reaches them.

The tracer replaces each target through ``owner.__dict__[name]``, so a
rename or a move in the package is a KeyError in a traced benchmark run.
These tests read the tracer without importing the bench as a package and
without writing anything under bench/.
"""

from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def _targets():
    hot, spans = _tracing()["_targets"]()
    return hot + spans


@pytest.mark.parametrize("key, owner, name", _targets(),
                         ids=lambda value: value if isinstance(value, str) else None)
def test_traced_name_is_in_its_owner(key, owner, name):
    assert name in owner.__dict__, f"{key}: {getattr(owner, '__name__', owner)}.{name}"


def test_the_map_is_traced_as_the_controller_layers(sec6_config):
    # step and _eval are patched on BacksteppingCascade; ClosedLoop is the
    # map, so an override there would bypass the layers the bench reports
    from blfstep.simengine import ClosedLoop

    loop = ClosedLoop(sec6_config)
    tracer = _tracing()["Tracer"]()
    tracer.install()
    try:
        loop.step(3.0, [0.01, 0.0], [0.0, 0.0], [0.1, 0.1], [0.0] * 12)
    finally:
        tracer.uninstall()
    assert {slot: calls for slot, (calls, _) in tracer.agg.items()} == {
        ("controller.step", "harness"): 1, ("controller.eval", "controller.step"): 1}
