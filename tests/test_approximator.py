import math

import numpy as np
import pytest

from blfstep.approximator import MAX_NODES, RbfError, RbfNetwork, lattice_problems


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
    with pytest.raises(RbfError):
        RbfNetwork(np.zeros((2, 2)), np.array([1.0, 0.0]))


def test_width_count_enforced():
    with pytest.raises(RbfError):
        RbfNetwork(np.zeros((2, 2)), np.array([1.0]))


def test_lattice_counts_three_dims():
    net = RbfNetwork.lattice(8, 3)
    assert net.l == 8 and net.n == 3
    for axis in range(3):
        assert sorted(set(net.centers[:, axis])) == [-2.0, 2.0]


@pytest.mark.parametrize("nodes", [MAX_NODES + 1, 10 ** 400])
def test_lattice_size_bounded_before_anything_is_built(nodes):
    assert lattice_problems(l=nodes) == [("l", f"must be at most {MAX_NODES}, got {nodes}")]
    with pytest.raises(RbfError) as err:
        RbfNetwork.lattice(nodes, 2)
    assert [path for path, _ in err.value.problems] == ["l"]
