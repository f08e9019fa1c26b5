"""Time-dependent scalar signals with exact derivatives.

Disturbances, the reference trajectory, and the constraint envelopes are
all drawn from a small compositional family (constant, sinusoid,
exponential decay, sum). Every member carries an analytic derivative, so
nothing downstream ever needs numerical differentiation of an envelope
or reference.

All members are bounded on [0, inf) by construction, which is enforced
at construction time (an exponential with negative decay rate is
rejected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


class SignalError(ValueError):
    """Signal constructed with unusable parameters.

    path names the field at fault: the parameter name (e.g. "b") when a
    constructor raises, the full record path (e.g. "reference.terms[1].b")
    when signal_from_dict does, or None.
    """

    def __init__(self, message: str, path: str | None = None):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class Constant:
    """c for all t."""

    c: float

    def value(self, t: float) -> float:
        return self.c

    def derivative(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(w*t + phase), or cos for kind="cos"."""

    amplitude: float
    angular_frequency: float
    phase: float = 0.0
    kind: str = "sin"

    def __post_init__(self) -> None:
        if self.kind not in ("sin", "cos"):
            raise SignalError(f"sinusoid kind must be 'sin' or 'cos', got {self.kind!r}", "kind")

    def value(self, t: float) -> float:
        arg = self.angular_frequency * t + self.phase
        if self.kind == "sin":
            return self.amplitude * math.sin(arg)
        return self.amplitude * math.cos(arg)

    def derivative(self, t: float) -> float:
        arg = self.angular_frequency * t + self.phase
        if self.kind == "sin":
            return self.amplitude * self.angular_frequency * math.cos(arg)
        return -self.amplitude * self.angular_frequency * math.sin(arg)


@dataclass(frozen=True)
class ExpDecay:
    """a * exp(-b*t) + c with b >= 0, so the signal stays bounded for t >= 0."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.b < 0:
            raise SignalError(f"exponential rate must be >= 0 for boundedness, got {self.b}", "b")

    def value(self, t: float) -> float:
        return self.a * math.exp(-self.b * t) + self.c

    def derivative(self, t: float) -> float:
        return -self.a * self.b * math.exp(-self.b * t)


@dataclass(frozen=True)
class SignalSum:
    """Pointwise sum of one or more member signals."""

    terms: tuple

    def __post_init__(self) -> None:
        if len(self.terms) < 1:
            raise SignalError("sum signal needs at least one term", "terms")
        object.__setattr__(self, "terms", tuple(self.terms))

    def value(self, t: float) -> float:
        total = 0.0
        for term in self.terms:
            total += term.value(t)
        return total

    def derivative(self, t: float) -> float:
        total = 0.0
        for term in self.terms:
            total += term.derivative(t)
        return total


TimeSignal = Union[Constant, Sinusoid, ExpDecay, SignalSum]

_SIN_KINDS = ("sin", "cos")


def signal_to_dict(sig: TimeSignal) -> dict:
    """Serialize a signal as a tagged record, e.g. {"kind": "expdecay", ...}."""
    if isinstance(sig, Constant):
        return {"kind": "constant", "c": sig.c}
    if isinstance(sig, Sinusoid):
        return {
            "kind": sig.kind,
            "amplitude": sig.amplitude,
            "angular_frequency": sig.angular_frequency,
            "phase": sig.phase,
        }
    if isinstance(sig, ExpDecay):
        return {"kind": "expdecay", "a": sig.a, "b": sig.b, "c": sig.c}
    if isinstance(sig, SignalSum):
        return {"kind": "sum", "terms": [signal_to_dict(term) for term in sig.terms]}
    raise SignalError(f"not a known signal type: {type(sig).__name__}")


def finite_number(value) -> float:
    """value as a float if it is a finite real number.

    The one numeric check for configuration input: bools, non-numbers,
    NaN, infinities and integers too large for a float raise ValueError.
    Python's json reads NaN and Infinity, so they must be caught here.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("expected a finite number, got an integer beyond the float range") from None
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def finite_numbers(values, path: str, problems: list):
    """values as a tuple of floats if it is a list of finite numbers.

    Otherwise appends a (path, message) problem for the list or for each
    bad element (path[i]) and returns None.
    """
    if not isinstance(values, (list, tuple, np.ndarray)):
        problems.append((path, f"expected a list of numbers, got {values!r}"))
        return None
    numbers = []
    for i, v in enumerate(values):
        try:
            numbers.append(finite_number(v))
        except ValueError as exc:
            problems.append((f"{path}[{i}]", str(exc)))
    return tuple(numbers) if len(numbers) == len(values) else None


def _number(record: dict, key: str, path: str) -> float:
    if key not in record:
        raise SignalError(f"missing key {key!r}", path)
    try:
        return finite_number(record[key])
    except ValueError as exc:
        raise SignalError(str(exc), f"{path}.{key}") from None


def signal_from_dict(record: object, path: str = "signal") -> TimeSignal:
    """Parse a tagged signal record. Unknown keys or kinds are errors.

    A constructor's SignalError is raised again under the field's full
    path, e.g. "constraints.Psi[1].terms[1].b".
    """
    if not isinstance(record, dict):
        raise SignalError(f"expected a tagged record, got {record!r}", path)
    kind = record.get("kind")
    if kind == "constant":
        allowed = {"kind", "c"}
        cls, params = Constant, {"c": _number(record, "c", path)}
    elif kind in _SIN_KINDS:
        allowed = {"kind", "amplitude", "angular_frequency", "phase"}
        cls, params = Sinusoid, {
            "amplitude": _number(record, "amplitude", path),
            "angular_frequency": _number(record, "angular_frequency", path),
            "phase": _number(record, "phase", path) if "phase" in record else 0.0,
            "kind": kind,
        }
    elif kind == "expdecay":
        allowed = {"kind", "a", "b", "c"}
        cls, params = ExpDecay, {key: _number(record, key, path) for key in ("a", "b", "c")}
    elif kind == "sum":
        allowed = {"kind", "terms"}
        terms = record.get("terms")
        if not isinstance(terms, list) or not terms:
            raise SignalError("expected a non-empty list", f"{path}.terms")
        cls, params = SignalSum, {"terms": tuple(
            signal_from_dict(term, f"{path}.terms[{i}]") for i, term in enumerate(terms))}
    else:
        raise SignalError(f"unknown signal kind {kind!r}", f"{path}.kind")
    try:
        sig = cls(**params)
    except SignalError as exc:
        raise SignalError(exc.message, f"{path}.{exc.path}" if exc.path else path) from None
    unknown = set(record) - allowed
    if unknown:
        raise SignalError(f"unknown keys {sorted(unknown)}", path)
    return sig
