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

The module also holds ConfigError and the one reader and writer of
configuration records, read_record and write_record.
"""

from __future__ import annotations

import functools
import inspect
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
    """Pointwise sum of one or more member signals. A term given as None
    failed to build and was named by its builder: the sum is not built."""

    terms: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.terms, (list, tuple)) or not self.terms:
            raise SignalError([("terms", f"expected a non-empty list of signals, got {self.terms!r}")])
        object.__setattr__(self, "terms", tuple(self.terms))
        if None in self.terms:
            raise SignalError([])

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


def check_keys(record, path: str, allowed, required, problems: list) -> bool:
    """Whether record is an object with the required keys and no others;
    records a problem for each key at fault."""
    if not isinstance(record, dict):
        problems.append((path, "expected an object"))
        return False
    prefix = f"{path}." if path else ""
    missing = [(prefix + key, "missing required field") for key in required if key not in record]
    unknown = [(prefix + key, "unknown key") for key in sorted(set(record) - set(allowed))]
    problems += missing + unknown
    return not (missing or unknown)


def build(make, path: str, problems: list, *args, **kwargs):
    """make(*args, **kwargs), or None after recording the problems it
    names under the record's path."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        problems += [(f"{path}.{p}" if p else path, m) for p, m in exc.problems]
        return None


# A record format is (class, fields), one (key, attribute, items) per JSON
# key: the value is the constructor argument and the attribute so named,
# and the key is optional exactly when the argument has a default. items is
# None for a plain value, else the value lists records of the format items,
# or tagged signals for SIGNALS, whose "kind" picks a format in _KINDS.
SIGNALS = "tagged signal"
_signature = functools.cache(inspect.signature)  # a format's required keys, per class


def plain(*keys) -> tuple:
    """Fields with plain values, each held under its key's own name."""
    return tuple((key, key, None) for key in keys)


def read_record(record, path: str, format, problems: list):
    """The object the record at path describes, or None after recording a
    problem for each key, item and value at fault. Each nested list is
    read before the record gives up; a failed item goes to the constructor
    as None, in its place, so the record's own values are still checked."""
    if format is SIGNALS:
        if not isinstance(record, dict):
            problems.append((path, "expected an object"))
            return None
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            problems.append((f"{path}.kind", f"unknown signal kind {kind!r}"))
            return None
        format = _KINDS[kind]
        if format is not _SINUSOID:  # only a Sinusoid holds its kind as a field
            record = {key: value for key, value in record.items() if key != "kind"}
    cls, fields = format
    params = _signature(cls).parameters
    required = [key for key, name, _ in fields if params[name].default is params[name].empty]
    if not check_keys(record, path, [key for key, _, _ in fields], required, problems):
        return None
    values, lists_read = {}, True
    for key, attribute, items in fields:
        if key in record and items is None:
            values[attribute] = record[key]
        elif key in record and isinstance(record[key], list):
            values[attribute] = tuple(read_record(item, f"{path}.{key}[{i}]", items, problems)
                                      for i, item in enumerate(record[key]))
        elif key in record:
            problems.append((f"{path}.{key}", "expected a list"))
            lists_read = False
    return build(cls, path, problems, **values) if lists_read else None


def write_record(obj, format) -> dict:
    """The JSON object that read_record reads back as obj."""
    if format is SIGNALS:
        for kind, (cls, fields) in _KINDS.items():
            if isinstance(obj, cls) and getattr(obj, "kind", kind) == kind:
                return {"kind": kind, **write_record(obj, (cls, fields))}
        raise SignalError(f"not a known signal type: {type(obj).__name__}")
    record = {}
    for key, attribute, items in format[1]:
        value = getattr(obj, attribute)
        record[key] = ([write_record(item, items) for item in value] if items is not None
                       else list(value) if isinstance(value, tuple) else value)
    return record


_SINUSOID = (Sinusoid, plain("kind", "amplitude", "angular_frequency", "phase"))
_KINDS = {
    "constant": (Constant, plain("c")),
    "sin": _SINUSOID, "cos": _SINUSOID,
    "expdecay": (ExpDecay, plain("a", "b", "c")),
    "sum": (SignalSum, (("terms", "terms", SIGNALS),)),
}


def signal_from_dict(record: object, path: str = "signal") -> TimeSignal:
    """Parse a tagged signal record, naming each problem by its full path,
    e.g. "constraints.Psi[1].terms[1].b"."""
    problems = []
    sig = read_record(record, path, SIGNALS, problems)
    if sig is None:
        raise SignalError(problems)
    return sig


def signal_to_dict(sig: TimeSignal) -> dict:
    """Serialize a signal as the tagged record signal_from_dict reads."""
    return write_record(sig, SIGNALS)
