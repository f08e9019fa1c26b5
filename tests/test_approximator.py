import math

import numpy as np
import pytest

from blfstep.approximator import MAX_NODES, RbfNetwork
from blfstep.signals import ConfigError


def small_net():
    centers = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.5]])
    return RbfNetwork(centers, np.array([2.0, 2.0, 0.5]))


def test_basis_is_one_at_center():
    net = small_net()
    phi = net.basis((0.0, 0.0))
    assert phi[0] == 1.0


def test_basis_at_one_width_distance():
    # ||zbar - c_1||^2 = 2 = b_1 for zbar = (sqrt(2), 0)
    net = small_net()
    phi = net.basis((math.sqrt(2.0), 0.0))
    assert phi[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_basis_strictly_positive():
    net = small_net()
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert np.all(net.basis(rng.uniform(-5, 5, size=2)) > 0)


@pytest.mark.parametrize("nodes,expected", [(1, 1.0), (4, 2.0), (12, math.sqrt(12.0))])
def test_norm_bound(nodes, expected):
    net = RbfNetwork.lattice(nodes, 2)
    assert net.norm_bound() == pytest.approx(expected, rel=1e-15)


def test_basis_norm_below_bound_in_bulk():
    net = RbfNetwork.lattice(12, 2)
    rng = np.random.default_rng(20260810)
    pts = rng.uniform(-3.0, 3.0, size=(10_000, 2))
    bound = net.norm_bound()
    for p in pts:
        assert np.linalg.norm(net.basis(p)) <= bound


def test_lattice_is_4_by_3_for_12_nodes():
    net = RbfNetwork.lattice(12, 2)
    assert net.l == 12 and net.n == 2
    xs = sorted(set(net.centers[:, 0]))
    ys = sorted(set(net.centers[:, 1]))
    assert xs == pytest.approx([-2.0, -2.0 / 3.0, 2.0 / 3.0, 2.0])
    assert ys == pytest.approx([-2.0, 0.0, 2.0])
    assert np.all(net.widths == 2.0)


def test_lattice_single_axis_point_sits_at_midpoint():
    net = RbfNetwork.lattice(3, 2)
    assert sorted(set(net.centers[:, 1])) == [0.0]


def test_lattice_deterministic():
    a = RbfNetwork.lattice(12, 2)
    b = RbfNetwork.lattice(12, 2)
    assert np.array_equal(a.centers, b.centers) and np.array_equal(a.widths, b.widths)


def test_nonpositive_width_rejected():
    with pytest.raises(ConfigError):
        RbfNetwork(np.zeros((2, 2)), np.array([1.0, 0.0]))


def test_width_count_enforced():
    with pytest.raises(ConfigError):
        RbfNetwork(np.zeros((2, 2)), np.array([1.0]))


def test_lattice_counts_three_dims():
    net = RbfNetwork.lattice(8, 3)
    assert net.l == 8 and net.n == 3
    for axis in range(3):
        assert sorted(set(net.centers[:, axis])) == [-2.0, 2.0]


@pytest.mark.parametrize("nodes", [MAX_NODES + 1, 10 ** 400])
def test_lattice_size_bounded_before_anything_is_built(nodes):
    with pytest.raises(ConfigError) as err:
        RbfNetwork.lattice(nodes, 2)
    assert err.value.problems == [("l", f"must be <= {MAX_NODES}, got {nodes}")]


def numpy_lattice_centers(nodes, dims):
    """The lattice's centers as np.linspace, np.meshgrid and np.stack form
    them: the construction the Python lattice replaces (meshgrid takes at
    most 32 axes)."""
    from blfstep.approximator import HIGH, LOW, _grid_counts

    axes = [np.linspace(LOW, HIGH, m) if m > 1 else np.array([(LOW + HIGH) / 2.0])
            for m in _grid_counts(nodes, dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def test_lattice_axis_is_linspace_bit_for_bit():
    for m in range(1, 201):
        got = RbfNetwork.lattice(m, 1).centers
        assert got.tobytes() == numpy_lattice_centers(m, 1).tobytes(), m


@pytest.mark.parametrize("dims", [1, 2, 3, 5, 8, 13, 32])
def test_lattice_is_the_numpy_grid_bit_for_bit(dims):
    for nodes in (1, 2, 3, 4, 6, 12, 16, 24, 25, 30, 48, 97, 128, 360, 1000, 1024):
        got = RbfNetwork.lattice(nodes, dims)
        assert got.centers.tobytes() == numpy_lattice_centers(nodes, dims).tobytes(), nodes
        assert got.width_values == (2.0,) * nodes


def test_lattice_past_32_axes():
    # np.meshgrid stops at 32 axes; the lattice has no such limit
    net = RbfNetwork.lattice(2, 64)
    assert net.center_values == ((-2.0,) + (0.0,) * 63, (2.0,) + (0.0,) * 63)


def test_centers_and_widths_are_read_only_arrays_of_the_stored_floats():
    net = small_net()
    assert net.center_values == ((0.0, 0.0), (1.0, 1.0), (-1.0, 0.5))
    assert net.width_values == (2.0, 2.0, 0.5)
    assert net.centers.tolist() == [[0.0, 0.0], [1.0, 1.0], [-1.0, 0.5]]
    assert net.widths.tolist() == [2.0, 2.0, 0.5]
    for array in (net.centers, net.widths):
        assert array.dtype == np.float64 and not array.flags.writeable
