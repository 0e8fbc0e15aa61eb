"""Lattice construction, boundary constraint pairing, and dump round-trips."""

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from disclat.lattice import (
    DofLayout,
    LatticeGraph,
    LatticeSpec,
    SQRT3,
    build_constraints,
    build_lattice,
    dump_lattice,
    expand,
    parse_lattice_dump,
    reduce_config,
    rot,
)

PHI5 = 2.0 * np.pi / 5.0

lattice_sizes = st.integers(min_value=1, max_value=40)


def loop_lattice(n):
    """Row-by-row enumeration of the lattice, kept as an oracle for the
    closed-form index arithmetic of LatticeGraph."""
    offsets = np.concatenate([[0], np.cumsum(np.arange(n + 1, 0, -1))])

    def vid(i, j):
        return int(offsets[j]) + i

    ij = [(i, j) for j in range(n + 1) for i in range(n + 1 - j)]
    edges, weights = [], []
    for j in range(n + 1):
        for i in range(n - j):
            edges.append((vid(i, j), vid(i + 1, j)))
            weights.append(0.5 if j == 0 else 1.0)
    for j in range(n):
        for i in range(n - j):
            edges.append((vid(i, j), vid(i, j + 1)))
            weights.append(0.5 if i == 0 else 1.0)
    for j in range(n):
        for i in range(n - j):
            edges.append((vid(i + 1, j), vid(i, j + 1)))
            weights.append(0.5 if i + j == n - 1 else 1.0)
    tris = []
    for j in range(n):
        for i in range(n - j):
            tris.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
    for j in range(n - 1):
        for i in range(n - 1 - j):
            tris.append((vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return vid, {
        "ij": np.array(ij, dtype=np.int64),
        "edges": np.array(edges, dtype=np.int64),
        "weights": np.array(weights),
        "tris": np.array(tris, dtype=np.int64),
    }


def loop_select(graph, cmap):
    """Entry-by-entry build of the selection matrix S, kept as an oracle."""
    dependent = set(cmap.slaves.tolist()) | {cmap.pinned}
    free = [v for v in range(graph.n_vertices) if v not in dependent]
    slot = {v: r for r, v in enumerate(free)}
    rows, cols, vals = [], [], []
    for v, r in slot.items():
        for c in range(2):
            rows.append(2 * v + c)
            cols.append(2 * r + c)
            vals.append(1.0)
    for m, s in zip(cmap.masters, cmap.slaves):
        for a in range(2):
            for b in range(2):
                rows.append(2 * s + a)
                cols.append(2 * slot[int(m)] + b)
                vals.append(cmap.rotation[a, b])
    shape = (2 * graph.n_vertices, 2 * len(slot))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def test_counts_match_closed_forms():
    for n in (1, 2, 3, 4, 8, 16):
        g = LatticeGraph(n)
        assert g.n_vertices == (n + 1) * (n + 2) // 2
        assert g.n_edges == 3 * n * (n + 1) // 2
        assert g.n_triangles == n * n
        # planar Euler characteristic of a disk
        assert g.n_vertices - g.n_edges + g.n_triangles == 1
        # 3N boundary edges, each with weight 1/2
        assert np.sum(g.weights == 0.5) == 3 * n
        assert np.sum(g.weights == 1.0) == g.n_edges - 3 * n
        assert np.sum(g.tri_up) == n * (n + 1) // 2


def test_hand_enumeration_n1():
    g = LatticeGraph(1)
    assert g.n_vertices == 3 and g.n_edges == 3 and g.n_triangles == 1
    assert np.all(g.weights == 0.5)
    np.testing.assert_allclose(
        g.pos,
        [[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]],
        atol=1e-15,
    )
    a, b, c = g.tris[0]
    assert (tuple(g.ij[a]), tuple(g.ij[b]), tuple(g.ij[c])) == ((0, 0), (1, 0), (0, 1))


def test_hand_enumeration_n2_edges():
    g = LatticeGraph(2)
    assert g.n_vertices == 6
    vid = g.vertex_id
    expected = {
        frozenset((vid(0, 0), vid(1, 0))): 0.5,
        frozenset((vid(1, 0), vid(2, 0))): 0.5,
        frozenset((vid(0, 1), vid(1, 1))): 1.0,
        frozenset((vid(0, 0), vid(0, 1))): 0.5,
        frozenset((vid(0, 1), vid(0, 2))): 0.5,
        frozenset((vid(1, 0), vid(1, 1))): 1.0,
        frozenset((vid(1, 0), vid(0, 1))): 1.0,
        frozenset((vid(2, 0), vid(1, 1))): 0.5,
        frozenset((vid(1, 1), vid(0, 2))): 0.5,
    }
    got = {
        frozenset((int(a), int(b))): w
        for (a, b), w in zip(g.edges, g.weights)
    }
    assert got == expected


def test_positions_and_vertex_ids():
    g = LatticeGraph(5)
    for vid, (i, j) in enumerate(g.ij):
        assert g.vertex_id(int(i), int(j)) == vid
        x = g.eps * (i + 0.5 * j)
        y = g.eps * j * SQRT3 / 2.0
        assert abs(g.pos[vid, 0] - x) < 1e-15
        assert abs(g.pos[vid, 1] - y) < 1e-15


def test_boundary_masks():
    n = 6
    g = LatticeGraph(n)
    assert g.gamma1.sum() == n + 1
    assert g.gamma2.sum() == n + 1
    assert g.gamma3.sum() == n + 1
    # each corner sits on exactly two segments
    corners = g.gamma1 & g.gamma2 | g.gamma2 & g.gamma3 | g.gamma1 & g.gamma3
    assert corners.sum() == 3


def test_triangles_ccw_with_reference_area():
    g = LatticeGraph(4)
    a = g.pos[g.tris[:, 0]]
    b = g.pos[g.tris[:, 1]]
    c = g.pos[g.tris[:, 2]]
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    np.testing.assert_allclose(cross / 2.0, g.triangle_area(), rtol=1e-14)


def test_up_triangle_edge_vectors():
    g = LatticeGraph(3)
    e1 = np.array([1.0, 0.0])
    r60 = rot(np.pi / 3.0)
    for t, up in zip(g.tris, g.tri_up):
        a, b, c = g.pos[t]
        if up:
            np.testing.assert_allclose(b - a, g.eps * e1, atol=1e-15)
            np.testing.assert_allclose(c - a, g.eps * (r60 @ e1), atol=1e-15)
        else:
            np.testing.assert_allclose(b - a, g.eps * (r60 @ e1), atol=1e-15)


def test_constraint_pairing_geometry():
    g = LatticeGraph(6)
    cmap = build_constraints(g, PHI5)
    r60 = rot(np.pi / 3.0)
    assert len(cmap.masters) == g.n
    for m, s in zip(cmap.masters, cmap.slaves):
        i, j = g.ij[m]
        assert j == 0 and i >= 1
        assert tuple(g.ij[s]) == (0, i)
        assert np.abs(r60 @ g.pos[m] - g.pos[s]).max() <= 1e-12
    assert cmap.pinned == g.vertex_id(0, 0)
    np.testing.assert_allclose(cmap.rotation, rot(PHI5), atol=1e-15)


def test_reduced_dimension():
    for n in (1, 2, 4, 8):
        g = LatticeGraph(n)
        layout = DofLayout(g, build_constraints(g, PHI5))
        assert layout.n_reduced == 2 * (g.n_vertices - n - 1)


def test_expand_reduce_roundtrip_and_admissibility():
    g = LatticeGraph(5)
    cmap = build_constraints(g, PHI5)
    layout = DofLayout(g, cmap)
    rng = np.random.default_rng(3)
    q = rng.normal(size=layout.n_reduced)
    u = expand(q, cmap, layout)
    assert np.array_equal(reduce_config(u, layout), q)
    rphi = rot(PHI5)
    for i in range(1, g.n + 1):
        lhs = u[g.vertex_id(0, i)]
        rhs = rphi @ u[g.vertex_id(i, 0)]
        assert np.abs(lhs - rhs).max() <= 1e-15
    assert np.all(u[g.vertex_id(0, 0)] == 0.0)


def test_select_matrix_matches_expand():
    g = LatticeGraph(4)
    cmap = build_constraints(g, PHI5)
    layout = DofLayout(g, cmap)
    rng = np.random.default_rng(4)
    q = rng.normal(size=layout.n_reduced)
    u = expand(q, cmap, layout)
    np.testing.assert_allclose(layout.select @ q, u.ravel(), atol=1e-15)


def test_shape_validation():
    g = LatticeGraph(3)
    cmap = build_constraints(g, PHI5)
    layout = DofLayout(g, cmap)
    with pytest.raises(ValueError):
        expand(np.zeros(layout.n_reduced + 1), cmap, layout)
    with pytest.raises(ValueError):
        reduce_config(np.zeros((g.n_vertices + 1, 2)), layout)


def test_dump_roundtrip():
    g = LatticeGraph(4)
    cmap = build_constraints(g, PHI5)
    buf = io.StringIO()
    dump_lattice(g, cmap, buf)
    buf.seek(0)
    parsed = parse_lattice_dump(buf)
    assert np.array_equal(parsed["ij"], g.ij)
    assert np.array_equal(parsed["pos"], g.pos)      # %.17g round-trips exactly
    assert np.array_equal(parsed["edges"], g.edges)
    assert np.array_equal(parsed["weights"], g.weights)
    assert np.array_equal(parsed["tris"], g.tris)
    assert np.array_equal(parsed["pairs"][:, 0], cmap.masters)
    assert np.array_equal(parsed["pairs"][:, 1], cmap.slaves)
    assert parsed["pinned"] == cmap.pinned


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(PHI5, 0)
    with pytest.raises(ValueError):
        LatticeSpec(0.0, 4)
    with pytest.raises(ValueError):
        LatticeSpec(2.0 * np.pi, 4)
    spec = LatticeSpec(PHI5, 4)
    assert build_lattice(spec).n == 4
    assert build_lattice(4).n == 4       # plain N accepted too


@settings(max_examples=40, deadline=None)
@given(lattice_sizes)
def test_graph_arrays_equal_loop_enumeration(n):
    g = LatticeGraph(n)
    vid, expected = loop_lattice(n)
    for name, want in expected.items():
        got = getattr(g, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert np.array_equal(g.tri_up, np.arange(n * n) < n * (n + 1) // 2)
    for i, j in ((0, 0), (n, 0), (0, n), (n // 2, n - n // 2)):
        assert g.vertex_id(i, j) == vid(i, j)


@settings(max_examples=40, deadline=None)
@given(lattice_sizes, st.floats(min_value=0.1, max_value=6.2))
def test_constraints_and_select_equal_loop_build(n, phi):
    g = LatticeGraph(n)
    cmap = build_constraints(g, phi)
    vid, _ = loop_lattice(n)
    assert cmap.masters.tolist() == [vid(i, 0) for i in range(1, n + 1)]
    assert cmap.slaves.tolist() == [vid(0, i) for i in range(1, n + 1)]
    assert cmap.pinned == vid(0, 0)
    got = DofLayout(g, cmap).select
    want = loop_select(g, cmap)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_constraints_reject_broken_geometry():
    g = LatticeGraph(6)
    g.pos[g.vertex_id(0, 3)] += [1e-9, 0.0]
    with pytest.raises(RuntimeError, match="i=3"):
        build_constraints(g, PHI5)
    g.pos[g.vertex_id(0, 3)] = np.nan
    with pytest.raises(RuntimeError, match="i=3"):
        build_constraints(g, PHI5)
