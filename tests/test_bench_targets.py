"""The names bench/tracing.py patches still exist where it looks them up.

The tracer replaces each target through ``owner.__dict__[name]``, so a
rename or a move in the package is a KeyError in a traced benchmark run.
This test reads the tracer's target list without importing the bench as
a package and without writing anything under bench/.
"""

from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    hot, spans = namespace["_targets"]()
    return hot + spans


@pytest.mark.parametrize("key, owner, name", _targets(),
                         ids=lambda value: value if isinstance(value, str) else None)
def test_traced_name_is_in_its_owner(key, owner, name):
    assert name in owner.__dict__, f"{key}: {getattr(owner, '__name__', owner)}.{name}"
