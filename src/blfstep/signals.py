"""Time-dependent scalar signals with exact derivatives.

Disturbances, the reference trajectory, and the constraint envelopes are
all drawn from a small compositional family (constant, sinusoid,
exponential decay, sum). Every member carries an analytic derivative, so
nothing downstream ever needs numerical differentiation of an envelope
or reference. value_and_derivative gives both from one evaluation of the
member's exp, or of its sine and cosine at one argument.

All members are bounded on [0, inf) by construction: every parameter
must be a finite number, and an exponential with a negative decay rate
is rejected. The constructors raise SignalError naming every parameter
at fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration, with field-level diagnostics.

    problems lists (path, message) pairs. A component's constructor names
    its own fields, e.g. "beta", "k[0]" or "terms[1].b"; parse_config and
    RunConfig name them as the JSON document does, e.g. "plant.beta" or
    ".horizon". A bare message is one problem without a path.
    """

    def __init__(self, problems):
        self.problems = [(None, problems)] if isinstance(problems, str) else list(problems)
        lines = [f"  {path}: {message}" if path else f"  {message}"
                 for path, message in self.problems]
        super().__init__("invalid configuration:\n" + "\n".join(lines))

    def under(self, path: str) -> list:
        """The problems with each path prefixed by the record's path."""
        return [(f"{path}.{p}" if p else path, m) for p, m in self.problems]


class SignalError(ConfigError):
    """Signal constructed with unusable parameters."""


@dataclass(frozen=True)
class Constant:
    """c for all t."""

    c: float

    def __post_init__(self) -> None:
        problems = []
        finite_field(self, "c", problems)
        if problems:
            raise SignalError(problems)

    def value(self, t: float) -> float:
        return self.c

    def derivative(self, t: float) -> float:
        return 0.0

    def value_and_derivative(self, t: float) -> tuple:
        return self.c, 0.0


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(w*t + phase), or cos for kind="cos"."""

    amplitude: float
    angular_frequency: float
    phase: float = 0.0
    kind: str = "sin"

    def __post_init__(self) -> None:
        problems = []
        for name in ("amplitude", "angular_frequency", "phase"):
            finite_field(self, name, problems)
        if self.kind not in ("sin", "cos"):
            problems.append(("kind", f"sinusoid kind must be 'sin' or 'cos', got {self.kind!r}"))
        if problems:
            raise SignalError(problems)

    def value(self, t: float) -> float:
        arg = self.angular_frequency * t + self.phase
        if self.kind == "sin":
            return self.amplitude * math.sin(arg)
        return self.amplitude * math.cos(arg)

    def derivative(self, t: float) -> float:
        return self.value_and_derivative(t)[1]

    def value_and_derivative(self, t: float) -> tuple:
        arg = self.angular_frequency * t + self.phase
        if self.kind == "sin":
            return (self.amplitude * math.sin(arg),
                    self.amplitude * self.angular_frequency * math.cos(arg))
        return (self.amplitude * math.cos(arg),
                -self.amplitude * self.angular_frequency * math.sin(arg))


@dataclass(frozen=True)
class ExpDecay:
    """a * exp(-b*t) + c with b >= 0, so the signal stays bounded for t >= 0."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        problems = []
        for name in ("a", "c"):
            finite_field(self, name, problems)
        b = finite_field(self, "b", problems)
        if b is not None and b < 0:
            problems.append(("b", f"exponential rate must be >= 0 for boundedness, got {b}"))
        if problems:
            raise SignalError(problems)

    def value(self, t: float) -> float:
        return self.a * math.exp(-self.b * t) + self.c

    def derivative(self, t: float) -> float:
        return self.value_and_derivative(t)[1]

    def value_and_derivative(self, t: float) -> tuple:
        decay = math.exp(-self.b * t)
        return self.a * decay + self.c, -self.a * self.b * decay


@dataclass(frozen=True)
class SignalSum:
    """Pointwise sum of one or more member signals."""

    terms: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.terms, (list, tuple)) or not self.terms:
            raise SignalError([("terms", f"expected a non-empty list of signals, got {self.terms!r}")])
        object.__setattr__(self, "terms", tuple(self.terms))

    def value(self, t: float) -> float:
        total = 0.0
        for term in self.terms:
            total += term.value(t)
        return total

    def derivative(self, t: float) -> float:
        return self.value_and_derivative(t)[1]

    def value_and_derivative(self, t: float) -> tuple:
        value = rate = 0.0
        for term in self.terms:
            v, r = term.value_and_derivative(t)
            value += v
            rate += r
        return value, rate


TimeSignal = Union[Constant, Sinusoid, ExpDecay, SignalSum]


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


def finite_field(record, name: str, problems: list, path: str | None = None):
    """Store field name of a frozen dataclass as a float and return it, if
    it is a finite number; otherwise append a (path or name, message)
    problem and return None."""
    try:
        value = finite_number(getattr(record, name))
    except ValueError as exc:
        problems.append((path or name, str(exc)))
        return None
    object.__setattr__(record, name, value)
    return value


# Each kind's class, required keys and optional keys.
_KINDS = {
    "constant": (Constant, ("c",), ()),
    "sin": (Sinusoid, ("amplitude", "angular_frequency"), ("phase",)),
    "cos": (Sinusoid, ("amplitude", "angular_frequency"), ("phase",)),
    "expdecay": (ExpDecay, ("a", "b", "c"), ()),
    "sum": (SignalSum, ("terms",), ()),
}


def signal_from_dict(record: object, path: str = "signal") -> TimeSignal:
    """Parse a tagged signal record. Unknown keys or kinds are errors.

    Checks the record's shape and leaves its values to the signal's
    constructor. Every problem is named by its full path, e.g.
    "constraints.Psi[1].terms[1].b".
    """
    if not isinstance(record, dict):
        raise SignalError([(path, f"expected a tagged record, got {record!r}")])
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SignalError([(f"{path}.kind", f"unknown signal kind {kind!r}")])
    cls, required, optional = _KINDS[kind]
    problems = [(f"{path}.{key}", "missing required field") for key in required if key not in record]
    unknown = set(record) - {"kind", *required, *optional}
    if unknown:
        problems.append((path, f"unknown keys {sorted(unknown)}"))
    params = {key: record[key] for key in required + optional if key in record}
    if kind in ("sin", "cos"):
        params["kind"] = kind
    if isinstance(params.get("terms"), (list, tuple)):
        terms = []
        for i, term in enumerate(params["terms"]):
            try:
                terms.append(signal_from_dict(term, f"{path}.terms[{i}]"))
            except SignalError as exc:
                problems += exc.problems
        params["terms"] = terms
    if problems:
        raise SignalError(problems)
    try:
        return cls(**params)
    except SignalError as exc:
        raise SignalError(exc.under(path)) from None


def signal_to_dict(sig: TimeSignal) -> dict:
    """Serialize a signal as the tagged record signal_from_dict reads,
    e.g. {"kind": "expdecay", "a": ..., "b": ..., "c": ...}."""
    for kind, (cls, required, optional) in _KINDS.items():
        # a Sinusoid holds its kind, "sin" or "cos", as a field
        if isinstance(sig, cls) and getattr(sig, "kind", kind) == kind:
            record = {"kind": kind, **{key: getattr(sig, key) for key in required + optional}}
            if "terms" in record:
                record["terms"] = [signal_to_dict(term) for term in sig.terms]
            return record
    raise SignalError(f"not a known signal type: {type(sig).__name__}")
