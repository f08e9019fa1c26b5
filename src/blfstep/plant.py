"""Strict-feedback plant used to close the simulation loop.

The true dynamics are a chain x_i' = x_{i+1} + d_i(t) with a polynomial
drift f(x) and a constant input coefficient beta on the last state:

    x_n' = f(x) + beta * u + d_n(t)

The controller never reads f or beta; they exist only so the loop can be
closed against genuinely unknown dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass


class PlantError(ValueError):
    """Plant specification or evaluation input is invalid."""


@dataclass(frozen=True)
class Monomial:
    """coeff * prod_j x_j**exponents[j]; exponents has one entry per state."""

    coeff: float
    exponents: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        for e in self.exponents:
            if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                raise PlantError(f"monomial exponents must be non-negative integers, got {e!r}")


@dataclass(frozen=True)
class PlantSpec:
    n: int
    f: tuple
    beta: float
    disturbances: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise PlantError(f"plant order must be an integer >= 2, got {self.n!r}")
        if self.beta == 0:
            raise PlantError("control coefficient beta must be nonzero")
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        if len(self.disturbances) != self.n:
            raise PlantError(
                f"need one disturbance signal per state: got {len(self.disturbances)} for order {self.n}"
            )
        for mono in self.f:
            if len(mono.exponents) != self.n:
                raise PlantError(
                    f"monomial exponent list length {len(mono.exponents)} does not match order {self.n}"
                )
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
