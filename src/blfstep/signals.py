"""Time-dependent scalar signals with exact derivatives.

Disturbances, the reference trajectory, and the constraint envelopes are
all drawn from a small compositional family (constant, sinusoid,
exponential decay, sum). Every member carries an analytic derivative, so
nothing downstream ever needs numerical differentiation of an envelope
or reference. value_and_derivative gives both from one evaluation of the
member's exp, or of its sine and cosine at one argument.

All members are bounded on [0, inf) by construction: every parameter
must be a finite number, and an exponential's decay rate at least 0.
The constructors raise ConfigError naming every parameter at fault.

The module also holds ConfigError; number, the one numeric check of
configuration input, with its list and field forms numbers and
number_field; parts, the check of a list of components; and the one
reader and writer of configuration records, read_record and write_record.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from dataclasses import dataclass
from typing import Union


class ConfigError(ValueError):
    """Invalid configuration, with field-level diagnostics.

    problems lists (path, message) pairs, each path a non-empty name of
    the field at fault. A component's constructor names its own fields,
    e.g. "beta", "k[0]" or "terms[1].b"; parse_config and RunConfig name
    them as the JSON document does, e.g. "plant.beta" or ".horizon".
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = [f"  {path}: {message}" for path, message in self.problems]
        super().__init__("invalid configuration:\n" + "\n".join(lines))


@dataclass(frozen=True)
class Constant:
    """c for all t."""

    c: float

    def __post_init__(self) -> None:
        problems = []
        number_field(self, "c", problems)
        if problems:
            raise ConfigError(problems)

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
            number_field(self, name, problems)
        if self.kind not in ("sin", "cos"):
            problems.append(("kind", f"sinusoid kind must be 'sin' or 'cos', got {self.kind!r}"))
        if problems:
            raise ConfigError(problems)

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
            number_field(self, name, problems)
        number_field(self, "b", problems, at_least=0)
        if problems:
            raise ConfigError(problems)

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
        if not isinstance(self.terms, (list, tuple)):
            raise ConfigError([("terms", f"expected a non-empty list of signals, got {self.terms!r}")])
        if not self.terms:
            raise ConfigError([("terms", "expected at least one signal")])
        problems = []
        object.__setattr__(self, "terms", parts(self.terms, "terms", problems))
        if problems:
            raise ConfigError(problems)

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


def number(value, path: str, problems: list, *, integer: bool = False,
           above=None, at_least=None, at_most=None):
    """value as a float (an int if integer) if it is a finite real number
    in range; otherwise None, after appending one (path, message) problem.

    The one numeric check for configuration input. A number is an int or
    a float, never a bool, and an integer is an int. The range is the
    strict lower bound above and the inclusive bounds at_least and
    at_most, each optional; an int is compared exactly. NaN and the
    infinities (Python's json reads NaN and Infinity) are not finite, nor
    is an int beyond the float range. A message is formed only on a fault.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        fault = f"expected {'an integer' if integer else 'a number'}, got {value!r}"
    elif isinstance(value, float) and not math.isfinite(value):
        fault = f"expected a finite number, got {value!r}"
    elif above is not None and not value > above:
        fault = f"must be > {above}, got {value}"
    elif at_least is not None and not value >= at_least:
        fault = f"must be >= {at_least}, got {value}"
    elif at_most is not None and not value <= at_most:
        fault = f"must be <= {at_most}, got {value}"
    elif abs(value) > sys.float_info.max:  # an int, compared exactly
        fault = "expected a finite number, got an integer beyond the float range"
    else:
        return value if integer else float(value)
    problems.append((path, fault))
    return None


def is_array(value) -> bool:
    """Whether value is a numpy array. Nothing is one unless numpy was
    imported, so this check does not import it."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def numbers(values, path: str, problems: list, **check):
    """values as a tuple of checked numbers (see number, which takes the
    same keywords) if it is a list or a numpy array, read as its list
    of Python numbers, with None in place of each entry at
    fault, named path[i]; None, after one problem, if it is not a list."""
    if is_array(values):
        values = values.tolist()  # numpy's integers and floats as Python's
    if not isinstance(values, (list, tuple)):
        kind = "integers" if check.get("integer") else "numbers"
        problems.append((path, f"expected a list of {kind}, got {values!r}"))
        return None
    return tuple(number(v, f"{path}[{i}]", problems, **check) for i, v in enumerate(values))


def parts(values, path: str, problems: list, kind: str = "signal"):
    """values as a tuple if it is a list, after one problem for each entry
    that is None, named path[i]; None, after one problem, if it is not a
    list. Each part checked its own fields when it was built."""
    if not isinstance(values, (list, tuple)):
        problems.append((path, f"expected a list of {kind}s, got {values!r}"))
        return None
    problems += [(f"{path}[{i}]", f"expected a {kind}, got None")
                 for i, value in enumerate(values) if value is None]
    return tuple(values)


def number_field(record, name: str, problems: list, path: str | None = None, **check):
    """Field name of a frozen dataclass, checked by number (path defaults
    to name), stored back as the number number gives and returned."""
    value = number(getattr(record, name), path or name, problems, **check)
    object.__setattr__(record, name, value)
    return value


# A record format is (make, fields), one (key, attribute, items) per JSON
# key: the value is the argument of make and the attribute so named, and
# the key is optional exactly when the argument has a default. items is
# None for a plain value, a format for one nested record, or [format] for
# a list of records. SIGNALS is the format of a tagged signal, whose
# "kind" picks a format in _KINDS.
SIGNALS = "tagged signal"
_signature = functools.cache(inspect.signature)  # a format's required keys, per constructor


def plain(*keys) -> tuple:
    """Fields with plain values, each held under its key's own name."""
    return tuple((key, key, None) for key in keys)


def read_record(record, path: str, format, problems: list):
    """The object the record at path describes, or None after recording a
    problem for each key, item and value at fault. Every nested record is
    read before the record gives up. A part that failed to read, a nested
    record, a list of them or an item of one, goes to make as None in its
    place, so the record's own values are still checked. make names a None
    part as it names any bad value; a problem it reports at or within a
    failed part is dropped, as the part's own problems are recorded
    already. The document's own path is empty: make's problems keep their
    names."""
    if not isinstance(record, dict):
        problems.append((path, "expected an object") if path
                        else ("(document)", "expected a JSON object"))
        return None
    if format is SIGNALS:
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            problems.append((f"{path}.kind", f"unknown signal kind {kind!r}"))
            return None
        format = _KINDS[kind]
        if format is not _SINUSOID:  # only a Sinusoid holds its kind as a field
            record = {key: value for key, value in record.items() if key != "kind"}
    make, fields = format
    params = _signature(make).parameters
    prefix = f"{path}." if path else ""
    missing = [(prefix + key, "missing required field") for key, name, _ in fields
               if key not in record and params[name].default is params[name].empty]
    unknown = [(prefix + key, "unknown key")
               for key in sorted(set(record) - {key for key, _, _ in fields})]
    if missing or unknown:
        problems += missing + unknown
        return None
    values, failed = {}, []  # failed: the paths of the parts that failed to read
    for key, attribute, items in fields:
        if key not in record:
            continue
        value, at = record[key], prefix + key
        if items is None:
            values[attribute] = value
            continue
        if not isinstance(items, list):
            value = read_record(value, at, items, problems)
        elif isinstance(value, list):
            value = tuple(read_record(item, f"{at}[{i}]", items[0], problems)
                          for i, item in enumerate(value))
            failed += [f"{at}[{i}]" for i, item in enumerate(value) if item is None]
        else:
            problems.append((at, "expected a list"))
            value = None
        if value is None:
            failed.append(at)
        values[attribute] = value
    try:
        return make(**values)
    except ConfigError as exc:
        named = [(prefix + p, m) for p, m in exc.problems]
        problems += [(p, m) for p, m in named
                     if not any(p == at or p.startswith((f"{at}.", f"{at}[")) for at in failed)]
        return None


def write_record(obj, format) -> dict:
    """The JSON object that read_record reads back as obj."""
    if format is SIGNALS:
        for kind, (cls, fields) in _KINDS.items():
            if isinstance(obj, cls) and getattr(obj, "kind", kind) == kind:
                return {"kind": kind, **write_record(obj, (cls, fields))}
        raise TypeError(f"not a known signal type: {type(obj).__name__}")
    record = {}
    for key, attribute, items in format[1]:
        value = getattr(obj, attribute)
        if isinstance(items, list):
            record[key] = [write_record(item, items[0]) for item in value]
        elif items is not None:
            record[key] = write_record(value, items)
        elif is_array(value):  # an rbf's centers and widths
            record[key] = value.tolist()
        else:
            record[key] = list(value) if isinstance(value, tuple) else value
    return record


_SINUSOID = (Sinusoid, plain("kind", "amplitude", "angular_frequency", "phase"))
_KINDS = {
    "constant": (Constant, plain("c")),
    "sin": _SINUSOID, "cos": _SINUSOID,
    "expdecay": (ExpDecay, plain("a", "b", "c")),
    "sum": (SignalSum, (("terms", "terms", [SIGNALS]),)),
}


def signal_from_dict(record: object, path: str = "signal") -> TimeSignal:
    """Parse a tagged signal record, naming each problem by its full path,
    e.g. "constraints.Psi[1].terms[1].b"."""
    problems = []
    sig = read_record(record, path, SIGNALS, problems)
    if sig is None:
        raise ConfigError(problems)
    return sig


def signal_to_dict(sig: TimeSignal) -> dict:
    """Serialize a signal as the tagged record signal_from_dict reads."""
    return write_record(sig, SIGNALS)
