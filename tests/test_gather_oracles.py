"""The row-gathering kernels against the fancy-indexing versions they
replaced, bit for bit.

The kernels gather vertex rows with ndarray.take and scatter them through
1-D indices; the oracles below index the (|V|, 2) arrays with fancy
indexing."""

import numpy as np
from hypothesis import given, strategies as st

from disclat import energy
from disclat.analysis import triangle_dets
from disclat.energy import MaterialLaw
from disclat.experiments import _coarse_ends, prolong
from disclat.lattice import LatticeGraph, Level, expand, reduce_config

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


def oracle_vertex_sums(cells, values, n_vertices):
    dof = (2 * cells[..., None] + np.arange(2)).ravel()
    sums = np.bincount(dof, values.ravel(), minlength=2 * n_vertices)
    return sums.reshape(n_vertices, 2)


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


@given(sizes, angles, seeds)
def test_cell_edges_match_fancy_indexing(n, phi, seed):
    level = Level(n, phi)
    graph = level.graph
    u = random_config(level, seed)
    a, b, c = graph.tris[:, 0], graph.tris[:, 1], graph.tris[:, 2]
    d1, d2 = energy.cell_edges(graph, u)
    assert_same_bits(d1, u[b] - u[a])
    assert_same_bits(d2, u[c] - u[a])


@given(sizes, angles, seeds)
def test_vertex_sums_match_the_dof_bincount(n, phi, seed):
    level = Level(n, phi)
    graph = level.graph
    rng = np.random.default_rng(seed)
    for cells in (graph.edges, graph.tris):
        values = rng.normal(size=cells.shape + (2,))
        assert_same_bits(energy._vertex_sums(cells, values, graph.n_vertices),
                         oracle_vertex_sums(cells, values, graph.n_vertices))
    # and in place in the gradient of both laws
    u = random_config(level, seed)
    for law in (MaterialLaw(p=2.0), MaterialLaw(p=3.0, psi="smoothed_abs")):
        pull = energy._bond_gradients(graph, u, law)
        expected = oracle_vertex_sums(graph.edges, np.stack([-pull, pull], axis=1),
                                      graph.n_vertices)
        if law.psi_name != "zero":
            psi = graph.triangle_area() * energy._psi_gradients(graph, u, law)
            expected += oracle_vertex_sums(graph.tris, psi, graph.n_vertices)
        assert_same_bits(energy.assemble_full_gradient(graph, u, law), expected)


@given(sizes, angles, seeds)
def test_expand_reduce_and_prolong_match_fancy_indexing(n, phi, seed):
    level = Level(n, phi)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=level.unknowns.n_reduced)
    u = level.expand(q)
    assert_same_bits(u, oracle_expand(q, level.cmap, level.unknowns))
    assert_same_bits(reduce_config(u, level.unknowns), u[level.unknowns.free_ids].ravel())
    if n <= 20:
        fine = LatticeGraph(2 * n)
        a, b = _coarse_ends(level.graph, fine)
        assert_same_bits(prolong(level.graph, u, fine), 0.5 * (u[a] + u[b]))


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
