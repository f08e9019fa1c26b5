"""Strict-feedback plant used to close the simulation loop.

The true dynamics are a chain x_i' = x_{i+1} + d_i(t) with a polynomial
drift f(x) and a constant input coefficient beta on the last state:

    x_n' = f(x) + beta * u + d_n(t)

The controller never reads f or beta; they exist only so the loop can be
closed against genuinely unknown dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signals import ConfigError, number_field, numbers, parts


@dataclass(frozen=True)
class Monomial:
    """coeff * prod_j x_j**exponents[j]; exponents has one entry per state."""

    coeff: float
    exponents: tuple

    def __post_init__(self) -> None:
        problems = []
        number_field(self, "coeff", problems)
        object.__setattr__(self, "exponents",
                           numbers(self.exponents, "exponents", problems, integer=True, at_least=0))
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class PlantSpec:
    """Order n, drift monomials f, input gain beta, one disturbance per
    state."""

    n: int
    f: tuple
    beta: float
    disturbances: tuple

    def __post_init__(self) -> None:
        problems = []
        if number_field(self, "beta", problems) == 0:
            problems.append(("beta", "control coefficient beta must be nonzero"))
        f = parts(self.f, "f", problems, "monomial")
        disturbances = parts(self.disturbances, "disturbances", problems)
        if number_field(self, "n", problems, integer=True, at_least=2) is not None:
            if disturbances is not None and len(disturbances) != self.n:
                problems.append(("disturbances", "need one disturbance signal per state: "
                                 f"got {len(disturbances)} for order {self.n}"))
            problems += [(f"f[{i}].exponents", f"monomial exponent list length "
                          f"{len(mono.exponents)} does not match order {self.n}")
                         for i, mono in enumerate(f or ())
                         if mono is not None and len(mono.exponents) != self.n]
        if problems:
            raise ConfigError(problems)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "disturbances", disturbances)
        # The drift compiled once: (coeff, ((j, e), ...)) with only the
        # nonzero exponents, in the order the product is formed.
        object.__setattr__(self, "_drift", tuple(
            (mono.coeff, tuple((j, e) for j, e in enumerate(mono.exponents) if e))
            for mono in self.f
        ))

    def nonlinearity(self, x) -> float:
        """Evaluate the polynomial drift f at state x."""
        if len(x) != self.n:
            raise ValueError(f"state has length {len(x)}, expected {self.n}")
        total = 0.0
        for term, powers in self._drift:
            for j, e in powers:
                term *= x[j] ** e
            total += term
        return total

    def rhs(self, t: float, x, u: float) -> list:
        """Time derivative of the state under input u at time t, as a list
        of floats."""
        drift = self.nonlinearity(x)  # checks the length of x
        d = [sig.value(t) for sig in self.disturbances]
        last = self.n - 1
        dx = []
        for i in range(last):
            dx.append(x[i + 1] + d[i])
        dx.append(drift + self.beta * u + d[last])
        return dx
