"""Gaussian radial-basis network used as the online function approximator.

The network output is theta @ basis(zbar) where each basis component is
exp(-||zbar - c_i||^2 / b_i). Centers and widths are fixed; only the
weight vector adapts (through the update law in the controller module).
"""

from __future__ import annotations

import math

import numpy as np


class RbfError(ValueError):
    """Network constructed with unusable centers or widths."""


def _grid_counts(nodes: int, dims: int) -> list:
    """Factor `nodes` into per-dimension lattice counts, product exactly
    `nodes`, as balanced as possible with larger counts on earlier axes."""
    counts = []
    remaining = nodes
    for axes_left in range(dims, 0, -1):
        if axes_left == 1:
            counts.append(remaining)
            break
        target = remaining ** (1.0 / axes_left)
        pick = remaining
        for d in range(1, remaining + 1):
            if remaining % d == 0 and d >= target - 1e-9:
                pick = d
                break
        counts.append(pick)
        remaining //= pick
    return counts


class RbfNetwork:
    """Fixed Gaussian basis over the plant state space."""

    def __init__(self, centers, widths):
        centers = np.asarray(centers, dtype=float)
        widths = np.asarray(widths, dtype=float)
        if centers.ndim != 2:
            raise RbfError("centers must be a 2-D array (one row per node)")
        if widths.ndim != 1 or widths.shape[0] != centers.shape[0]:
            raise RbfError("need exactly one width per center")
        if not np.all(widths > 0):
            raise RbfError("widths must be strictly positive")
        self.centers = centers
        self.widths = widths
        # -d/b is computed as d/(-b): IEEE division rounds both alike
        self._neg_widths = -widths

    @property
    def l(self) -> int:
        return self.centers.shape[0]

    @property
    def n(self) -> int:
        return self.centers.shape[1]

    @classmethod
    def lattice(cls, nodes: int, dims: int, low: float = -2.0, high: float = 2.0,
                width: float = 2.0) -> "RbfNetwork":
        """Deterministic default layout: `nodes` centers on a uniform grid
        over [low, high]^dims.

        The node count is factored into per-axis counts, as balanced as
        possible with the larger factor on the earlier axis (12 nodes in
        2-D gives a 4 x 3 grid). An axis with a single point sits at the
        interval midpoint. All widths are equal.
        """
        if nodes < 1:
            raise RbfError(f"node count must be >= 1, got {nodes}")
        counts = _grid_counts(nodes, dims)
        axes = [
            np.linspace(low, high, m) if m > 1 else np.array([(low + high) / 2.0])
            for m in counts
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([g.ravel() for g in mesh], axis=1)
        return cls(centers, np.full(nodes, float(width)))

    def basis(self, zbar) -> np.ndarray:
        """Basis vector at input zbar; every component lies in (0, 1]."""
        diff = self.centers - np.asarray(zbar, dtype=float)
        return np.exp(np.add.reduce(diff * diff, axis=1) / self._neg_widths)

    def output(self, theta, zbar) -> float:
        """Network output theta @ basis(zbar)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.l,):
            raise RbfError(f"weight vector has shape {theta.shape}, expected ({self.l},)")
        return float(theta @ self.basis(zbar))

    def norm_bound(self) -> float:
        """Upper bound on ||basis(zbar)||: sqrt(l), since each component <= 1."""
        return math.sqrt(self.l)
