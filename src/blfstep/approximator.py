"""Gaussian radial-basis network used as the online function approximator.

The network output is theta @ basis(zbar) where each basis component is
exp(-||zbar - c_i||^2 / b_i). Centers and widths are fixed; only the
weight vector adapts (through the update law in the controller module).
"""

from __future__ import annotations

import math

import numpy as np

from .signals import ConfigError, finite_numbers

# The default lattice: [LOW, HIGH] per axis, widths WIDTH, at most MAX_NODES nodes.
LOW, HIGH, WIDTH = -2.0, 2.0, 2.0
MAX_NODES = 10 ** 6

# Up to this many nodes the weight update, and the basis over two axes,
# cost less elementwise on Python floats than as numpy array operations,
# whose fixed cost per call outweighs short vectors (crossover near 28
# weights, measured with timeit). Both forms round every element
# identically.
_FLOAT_WEIGHTS_MAX = 24


class RbfError(ConfigError):
    """Network constructed with unusable centers or widths."""


def _float_array(values, name: str, ndim: int, problems: list):
    """values as a float array with ndim axes, if it is a non-empty list
    (of equally long lists, for ndim 2) of finite numbers. Otherwise None,
    after one (name, message) problem that names the first entry at fault."""
    found = []
    if ndim == 1:
        rows = finite_numbers(values, "", found)
    elif isinstance(values, (list, tuple, np.ndarray)):
        rows = [finite_numbers(row, f"[{i}]", found) for i, row in enumerate(values)]
        if not found and len({len(row) for row in rows}) > 1:
            found.append(("", "expected rows of equal length"))
    else:
        found.append(("", f"expected a list of rows, got {values!r}"))
    if not found and not rows:
        found.append(("", "expected at least one entry"))
    if found:
        where, message = found[0]
        problems.append((name, f"entry {where}: {message}" if where else message))
        return None
    return np.array(rows, dtype=float)


def lattice_problems(**counts) -> list:
    """A (name, message) problem for each lattice count given by name (l,
    dims) that is not an integer from 1 to MAX_NODES."""
    problems = []
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            problems.append((name, f"expected an integer >= 1, got {value!r}"))
        elif value > MAX_NODES:
            problems.append((name, f"must be at most {MAX_NODES}, got {value}"))
    return problems


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
        problems = []
        centers = _float_array(centers, "centers", 2, problems)
        widths = _float_array(widths, "widths", 1, problems)
        if widths is not None:
            if not np.all(widths > 0):
                problems.append(("widths", "must be > 0"))
            if centers is not None and widths.shape[0] != centers.shape[0]:
                problems.append(("widths", f"need exactly one width per center: got "
                                           f"{widths.shape[0]} for {centers.shape[0]} centers"))
        if problems:
            raise RbfError(problems)
        self.centers = centers
        self.widths = widths
        # -d/b is computed as d/(-b): IEEE division rounds both alike
        self._neg_widths = -widths
        # A float-weight network over two axes computes its basis on Python
        # floats, from each node's (c1, c2, -b); past two axes the array
        # form is the faster one.
        self._float_nodes = None
        if self.float_weights and self.n == 2:
            self._float_nodes = list(zip(*centers.T.tolist(), self._neg_widths.tolist()))

    @property
    def l(self) -> int:
        return self.centers.shape[0]

    @property
    def n(self) -> int:
        return self.centers.shape[1]

    @property
    def float_weights(self) -> bool:
        """Whether the weights are few enough (at most _FLOAT_WEIGHTS_MAX)
        to be carried and updated as Python floats."""
        return self.l <= _FLOAT_WEIGHTS_MAX

    @classmethod
    def lattice(cls, nodes: int, dims: int) -> "RbfNetwork":
        """Deterministic default layout: `nodes` centers on a uniform grid
        over [LOW, HIGH]^dims.

        The node count is factored into per-axis counts, as balanced as
        possible with the larger factor on the earlier axis (12 nodes in
        2-D gives a 4 x 3 grid). An axis with a single point sits at the
        interval midpoint. Every width is WIDTH.
        """
        problems = lattice_problems(l=nodes, dims=dims)
        if problems:
            raise RbfError(problems)
        counts = _grid_counts(nodes, dims)
        axes = [
            np.linspace(LOW, HIGH, m) if m > 1 else np.array([(LOW + HIGH) / 2.0])
            for m in counts
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([g.ravel() for g in mesh], axis=1)
        return cls(centers, np.full(nodes, WIDTH))

    def basis(self, zbar) -> np.ndarray:
        """Basis vector at input zbar, a sequence of floats; every
        component lies in (0, 1].

        The float form rounds as the array form does: numpy sums a row of
        fewer than 8 squared distances one after another, here d1 + d2.
        np.exp stays numpy, whose results differ from math.exp's.
        """
        if self._float_nodes is None:
            diff = self.centers - np.asarray(zbar, dtype=float)
            return np.exp(np.add.reduce(diff * diff, axis=1) / self._neg_widths)
        x1, x2 = zbar
        return np.exp([((a - x1) * (a - x1) + (b - x2) * (b - x2)) / nb
                       for a, b, nb in self._float_nodes])

    def norm_bound(self) -> float:
        """Upper bound on ||basis(zbar)||: sqrt(l), since each component <= 1."""
        return math.sqrt(self.l)
