"""Gaussian radial-basis network used as the online function approximator.

The network output is theta . basis(zbar) where each basis component is
exp(-||zbar - c_i||^2 / b_i). Centers and widths are fixed; only the
weight vector adapts (through the update law in the controller module).
"""

from __future__ import annotations

import functools
import itertools
import math

from .signals import ConfigError, is_array, number, numbers

# The default lattice: [LOW, HIGH] per axis, widths WIDTH, at most MAX_NODES nodes.
LOW, HIGH, WIDTH = -2.0, 2.0, 2.0
MAX_NODES = 10 ** 6
# The range of a node count l and of a lattice's dimension.
_COUNT = dict(integer=True, at_least=1, at_most=MAX_NODES)

# The default of centers and widths in an rbf record: not listed, so the
# lattice. JSON null is listed, and is no list of numbers.
_LATTICE = object()

# Up to this many nodes the basis, the weight update and the dots cost less
# on Python floats than as numpy array operations, whose fixed cost per
# call outweighs short vectors (crossover near 28 weights, measured with
# timeit). The float form's one math.exp per node and left-to-right sums
# do not depend on CPU dispatch; the array form's np.exp and BLAS dot do.
_FLOAT_WEIGHTS_MAX = 24


def _floats(values, name: str, ndim: int, problems: list, **check):
    """values as a tuple of floats (of equally long tuples of floats, for
    ndim 2), if it is a non-empty list (of lists) of numbers that pass
    check; a numpy array is a list. Else None, after one (name, message)
    problem naming the first entry at fault."""
    found = []
    if ndim == 1:
        rows = numbers(values, "", found, **check)
    elif isinstance(values, (list, tuple)) or is_array(values):
        rows = [numbers(row, f"[{i}]", found, **check) for i, row in enumerate(values)]
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
    return tuple(rows)


def _read_only_array(values):
    """values as a new read-only float64 array."""
    import numpy as np

    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


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
    """Fixed Gaussian basis over the plant state space.

    The centers and widths are held once, as floats: center_values is a
    tuple of l center tuples of n floats, width_values a tuple of l
    floats. centers and widths are the same numbers as read-only float64
    arrays, (l, n) and (l,), made on first access."""

    def __init__(self, centers, widths):
        problems = []
        centers = _floats(centers, "centers", 2, problems)
        widths = _floats(widths, "widths", 1, problems, above=0)
        if centers is not None and widths is not None and len(widths) != len(centers):
            problems.append(("widths", f"need exactly one width per center: got "
                                       f"{len(widths)} for {len(centers)} centers"))
        if problems:
            raise ConfigError(problems)
        self.center_values = centers
        self.width_values = widths

    @functools.cached_property
    def centers(self):
        return _read_only_array(self.center_values)

    @functools.cached_property
    def widths(self):
        return _read_only_array(self.width_values)

    @functools.cached_property
    def _neg_widths(self):
        # -d/b is computed as d/(-b): IEEE division rounds both alike
        return -self.widths

    @property
    def l(self) -> int:
        return len(self.center_values)

    @property
    def n(self) -> int:
        return len(self.center_values[0])

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
        2-D gives a 4 x 3 grid). An axis of m > 1 points holds
        LOW + k * ((HIGH - LOW) / (m - 1)) for k < m - 1 and then HIGH,
        np.linspace's points; an axis with a single point sits at the
        interval midpoint. The nodes run over the axes in C order, the
        last axis fastest. Every width is WIDTH.
        """
        problems = []
        number(nodes, "l", problems, **_COUNT)
        number(dims, "dims", problems, **_COUNT)
        if problems:
            raise ConfigError(problems)
        axes = [[LOW + k * ((HIGH - LOW) / (m - 1)) for k in range(m - 1)] + [HIGH]
                if m > 1 else [(LOW + HIGH) / 2.0]
                for m in _grid_counts(nodes, dims)]
        return cls(tuple(itertools.product(*axes)), (WIDTH,) * nodes)

    @classmethod
    def read(cls, l, centers=_LATTICE, widths=_LATTICE, *, dims) -> "RbfNetwork":
        """The network an rbf record describes: its l listed centers and
        widths, or without them the default lattice of l nodes over dims
        axes, the plant order. l is checked either way; with dims None (the
        plant failed to build) nothing else is, and nothing is built. One
        of centers and widths without the other is named missing."""
        problems = []
        number(l, "l", problems, **_COUNT)
        if centers is _LATTICE or widths is _LATTICE:
            if centers is not widths:  # only one of the two is listed
                problems.append(("centers" if centers is _LATTICE else "widths",
                                 "missing required field"))
            if problems or dims is None:
                raise ConfigError(problems)
            return cls.lattice(l, dims)
        try:
            net = cls(centers, widths)
        except ConfigError as exc:
            raise ConfigError(problems + exc.problems) from None
        if problems or net.l != l:
            raise ConfigError(problems or [("centers", f"{net.l} centers listed but l = {l}")])
        return net

    def basis(self, zbar):
        """Basis vector at input zbar, a sequence of floats, as a float64
        array; every component lies in (0, 1].

        For a float-weight network each component is math.exp of the
        squared distances summed over the axes left to right, divided by
        -b, as the generated pass forms it; beyond, np.exp of numpy's row
        sum, which adds fewer than 8 axes one after another. Only the
        array layout and library callers use it, so numpy is imported here.
        """
        import numpy as np

        diff = self.centers - np.asarray(zbar, dtype=float)
        if not self.float_weights:
            return np.exp(np.add.reduce(diff * diff, axis=1) / self._neg_widths)
        exponents = np.add.accumulate(diff * diff, axis=1)[:, -1] / self._neg_widths
        return np.array([math.exp(v) for v in exponents.tolist()])

    def norm_bound(self) -> float:
        """Upper bound on ||basis(zbar)||: sqrt(l), since each component <= 1."""
        return math.sqrt(self.l)
