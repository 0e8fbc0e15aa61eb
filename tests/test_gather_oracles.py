"""The row-gathering kernels against the fancy-indexing versions they
replaced, bit for bit.

The kernels gather vertex rows with ndarray.take and scatter them through
1-D indices; the oracles below index the (|V|, 2) arrays with fancy
indexing.  The geometry oracles stay for lattices of any N: the pinned
outputs are all at N = 2^k, where dividing by eps = 1/N and multiplying by
N give the same bits, so only these tests see the stretches' and the
determinants' bits at other N.  expand's oracle stays for the signed zeros
of a strided vector, which no pinned output holds."""

import numpy as np
from hypothesis import given, strategies as st

from disclat import energy
from disclat.analysis import triangle_dets
from disclat.lattice import Level, expand

PHI5 = 2.0 * np.pi / 5.0
PHI7 = 2.0 * np.pi / 7.0

sizes = st.integers(min_value=1, max_value=40)
angles = st.sampled_from([PHI5, PHI7])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def random_config(level, seed):
    """An admissible configuration: the reference plus noise of up to a
    third of a lattice spacing."""
    rng = np.random.default_rng(seed)
    q = level.reduce(level.graph.pos)
    return level.expand(q + level.graph.eps / 3.0 * rng.normal(size=q.size))


def oracle_edge_geometry(graph, u):
    a, b, c = graph.tris[:, 0], graph.tris[:, 1], graph.tris[:, 2]
    d1 = u[b] - u[a]
    d2 = u[c] - u[a]
    d3 = d2 - d1
    l1 = np.hypot(d1[:, 0], d1[:, 1]) / graph.eps
    l2 = np.hypot(d2[:, 0], d2[:, 1]) / graph.eps
    l3 = np.hypot(d3[:, 0], d3[:, 1]) / graph.eps
    return l1, l2, l3, energy.cell_dets(d1, d2, graph.eps)


def oracle_bonds(graph, u):
    edges = graph.edges
    d = u[edges[:, 1]] - u[edges[:, 0]]
    return d, np.hypot(d[:, 0], d[:, 1]) / graph.eps


def oracle_det_gradients(graph, u):
    a, b, c = graph.tris.T
    d1 = u[b] - u[a]
    d2 = u[c] - u[a]
    det = energy.cell_dets(d1, d2, graph.eps)
    c0 = 2.0 / (np.sqrt(3.0) * graph.eps**2)
    gdet = np.empty(graph.tris.shape + (2,))
    gdet[:, 1] = c0 * np.column_stack([d2[:, 1], -d2[:, 0]])
    gdet[:, 2] = -c0 * np.column_stack([d1[:, 1], -d1[:, 0]])
    gdet[:, 0] = -gdet[:, 1] - gdet[:, 2]
    return det, gdet


def oracle_triangle_dets(graph, u):
    a, b, c = graph.tris[:, 0], graph.tris[:, 1], graph.tris[:, 2]
    return energy.cell_dets(u[b] - u[a], u[c] - u[a], graph.eps)


def oracle_expand(reduced, cmap, layout):
    u = np.zeros((layout.n_full, 2))
    u[layout.free_ids] = np.asarray(reduced, dtype=float).reshape(-1, 2)
    u[cmap.slaves] = u[cmap.masters] @ cmap.rotation.T
    u[cmap.pinned] = 0.0
    return u


@given(sizes, angles, seeds)
def test_geometry_kernels_match_fancy_indexing(n, phi, seed):
    level = Level(n, phi)
    graph = level.graph
    u = random_config(level, seed)
    for got, expected in zip(energy._edge_geometry(graph, u),
                             oracle_edge_geometry(graph, u)):
        assert_same_bits(got, expected)
    for got, expected in zip(energy._bonds(graph, u), oracle_bonds(graph, u)):
        assert_same_bits(got, expected)
    for got, expected in zip(energy._det_gradients(graph, u),
                             oracle_det_gradients(graph, u)):
        assert_same_bits(got, expected)
    assert_same_bits(triangle_dets(graph, u), oracle_triangle_dets(graph, u))


def test_expand_of_a_strided_vector_equals_its_contiguous_copy():
    level = Level(6, PHI7)
    rng = np.random.default_rng(3)
    columns = rng.normal(size=(level.unknowns.n_reduced, 3))
    columns[::7, 1] = -0.0
    strided = columns[:, 1]
    assert not strided.flags.c_contiguous
    got = expand(strided, level.cmap, level.unknowns)
    assert_same_bits(got, expand(strided.copy(), level.cmap, level.unknowns))
    assert_same_bits(got, oracle_expand(strided, level.cmap, level.unknowns))
