"""Strict-feedback plant used to close the simulation loop.

The true dynamics are a chain x_i' = x_{i+1} + d_i(t) with a polynomial
drift f(x) and a constant input coefficient beta on the last state:

    x_n' = f(x) + beta * u + d_n(t)

The controller never reads f or beta; they exist only so the loop can be
closed against genuinely unknown dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signals import ConfigError, finite_field


class PlantError(ConfigError):
    """Plant specification or evaluation input is invalid."""


@dataclass(frozen=True)
class Monomial:
    """coeff * prod_j x_j**exponents[j]; exponents has one entry per state."""

    coeff: float
    exponents: tuple

    def __post_init__(self) -> None:
        problems = []
        finite_field(self, "coeff", problems)
        if isinstance(self.exponents, (list, tuple)):
            object.__setattr__(self, "exponents", tuple(self.exponents))
            problems += [(f"exponents[{j}]", f"expected a non-negative integer, got {e!r}")
                         for j, e in enumerate(self.exponents)
                         if isinstance(e, bool) or not isinstance(e, int) or e < 0]
        else:
            problems.append(("exponents", f"expected a list of integers, got {self.exponents!r}"))
        if problems:
            raise PlantError(problems)


@dataclass(frozen=True)
class PlantSpec:
    n: int
    f: tuple
    beta: float
    disturbances: tuple

    def __post_init__(self) -> None:
        problems = []
        if finite_field(self, "beta", problems) == 0:
            problems.append(("beta", "control coefficient beta must be nonzero"))
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        if not isinstance(self.n, int) or self.n < 2:
            problems.append(("n", f"plant order must be an integer >= 2, got {self.n!r}"))
        else:
            if len(self.disturbances) != self.n:
                problems.append(("disturbances", "need one disturbance signal per state: "
                                 f"got {len(self.disturbances)} for order {self.n}"))
            problems += [(f"f[{i}].exponents", f"monomial exponent list length "
                          f"{len(mono.exponents)} does not match order {self.n}")
                         for i, mono in enumerate(self.f) if len(mono.exponents) != self.n]
        if problems:
            raise PlantError(problems)
        # The drift compiled once: (coeff, ((j, e), ...)) with only the
        # nonzero exponents, in the order the product is formed.
        object.__setattr__(self, "_drift", tuple(
            (mono.coeff, tuple((j, e) for j, e in enumerate(mono.exponents) if e))
            for mono in self.f
        ))

    def nonlinearity(self, x) -> float:
        """Evaluate the polynomial drift f at state x."""
        if len(x) != self.n:
            raise PlantError(f"state has length {len(x)}, expected {self.n}")
        total = 0.0
        for term, powers in self._drift:
            for j, e in powers:
                term *= x[j] ** e
            total += term
        return total

    def rhs(self, t: float, x, u: float) -> list:
        """Time derivative of the state under input u at time t, as a list
        of floats."""
        if len(x) != self.n:
            raise PlantError(f"state has length {len(x)}, expected {self.n}")
        last = self.n - 1
        dist = self.disturbances
        dx = [x[i + 1] + dist[i].value(t) for i in range(last)]
        dx.append(self.nonlinearity(x) + self.beta * u + dist[last].value(t))
        return dx
