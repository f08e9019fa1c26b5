"""Per-layer tracing by wrapping the package's functions from outside.

The package is not edited. ``Tracer.install`` replaces module and class
attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back, so untraced measurements run the unmodified code.

Hot inner calls (signals, barrier, observer, plant, basis, cascade
passes, RK4) keep only aggregated counters and self time per
(layer, parent layer). Run, parse, emit and ``cli.main`` calls also keep
a full span each: name, start, end, parent span and the operation id
that the harness sets per closed-loop operation.

A call whose parent span has the same layer key (a sum signal calling
its terms, ``envelope`` calling ``Psi.value``) is not split into its
own span: its time stays in the enclosing span of that layer.
"""

from __future__ import annotations

import time


def _targets():
    import blfstep
    from blfstep import approximator, cli, controller, plant, signals, simengine

    hot = []
    for cls in (signals.Constant, signals.Sinusoid, signals.ExpDecay, signals.SignalSum):
        hot += [("signals", cls, "value"), ("signals", cls, "derivative")]
    hot += [
        ("signals", controller.ConstraintConfig, "envelope"),
        ("signals", controller.ConstraintConfig, "envelope_rate"),
        ("signals", controller.ConstraintConfig, "state_bound"),
        ("controller.eval", controller.BacksteppingCascade, "_eval"),
        ("controller.step", controller.BacksteppingCascade, "step"),
        ("approximator", approximator.RbfNetwork, "basis"),
        ("plant", plant.PlantSpec, "rhs"),
        ("plant", plant.PlantSpec, "nonlinearity"),
        # The controller and the engine bind these names at import time,
        # so the wrappers go into the calling module's namespace.
        ("barrier", controller, "q_value"),
        ("barrier", controller, "blf_value"),
        ("barrier", controller, "nussbaum"),
        ("barrier", controller, "damped_inverse"),
        ("observer", controller, "estimate"),
        ("observer", simengine, "dhat_rate_inner"),
        ("observer", simengine, "dhat_rate_final"),
        ("observer", simengine, "initial_dhat"),
        ("simengine.rk4", simengine, "rk4_step"),
        ("simengine.derivative", simengine.ClosedLoop, "derivative"),
    ]
    # Each name where a caller looks it up: the harness calls the package's
    # exports, and cli.main calls its own module's names.
    spans = [
        ("simengine.run", blfstep, "run"),
        ("simengine.run", cli, "run"),
        ("cli.parse", cli, "parse_config"),
        ("cli.emit_csv", blfstep, "emit_csv"),
        ("cli.emit_csv", cli, "emit_csv"),
        ("cli.emit_report", blfstep, "emit_report"),
        ("cli.emit_report", cli, "emit_report"),
        ("cli.main", cli, "main"),
    ]
    return hot, spans


class Tracer:
    """Aggregated counters, self time and full spans for one traced run."""

    def __init__(self):
        # Frames are [layer key, time covered by child spans, span id].
        self._stack = [["harness", 0.0, None]]
        self.agg = {}  # (layer, parent layer) -> [calls, self seconds]
        self.spans = []  # (name, start, end, parent span id, op id)
        self.op = 0
        self._saved = []

    def install(self) -> None:
        hot, spans = _targets()
        for key, owner, name in hot:
            self._patch(owner, name, self._wrap_hot(key, getattr(owner, name)))
        for key, owner, name in spans:
            self._patch(owner, name, self._wrap_span(key, getattr(owner, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _close(self, key, parent, frame, elapsed) -> None:
        parent[1] += elapsed
        slot = (key, parent[0])
        rec = self.agg.get(slot)
        if rec is None:
            self.agg[slot] = [1, elapsed - frame[1]]
        else:
            rec[0] += 1
            rec[1] += elapsed - frame[1]

    def _wrap_hot(self, key, fn):
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(key, parent, frame, elapsed)

        traced.__wrapped__ = fn
        return traced

    def _wrap_span(self, key, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == key:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            frame = [key, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (key, start, end, parent[2], self.op)
                close(key, parent, frame, end - start)

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        """Copy of the aggregate table, for differencing around a unit."""
        return {slot: tuple(rec) for slot, rec in self.agg.items()}


def layer_totals(before: dict, after: dict) -> dict:
    """Calls and self seconds per layer key accrued between two snapshots."""
    totals = {}
    for slot, (calls, self_s) in after.items():
        prev_calls, prev_self = before.get(slot, (0, 0.0))
        key = slot[0]
        acc = totals.setdefault(key, [0, 0.0])
        acc[0] += calls - prev_calls
        acc[1] += self_s - prev_self
    return {key: (calls, self_s) for key, (calls, self_s) in totals.items()}


def span_seconds(spans: list, name: str, ops: range) -> float:
    """Total inclusive duration of the named spans of the given ops."""
    return sum(end - start for key, start, end, _p, op in spans
               if key == name and op in ops)
