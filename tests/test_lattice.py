"""Lattice construction, boundary constraint pairing, and dump round-trips."""

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from disclat.lattice import (
    DofLayout,
    LatticeGraph,
    SQRT3,
    build_constraints,
    dump_lattice,
    expand,
    reduce_config,
    reduce_gradient,
    rot,
)

PHI5 = 2.0 * np.pi / 5.0

lattice_sizes = st.integers(min_value=1, max_value=40)


def up_triangles(g):
    """Mask of the up triangles, found from ij: their first edge runs
    along e1 (a down triangle's runs along R60*e1)."""
    step = g.ij[g.tris[:, 1]] - g.ij[g.tris[:, 0]]
    return (step == [1, 0]).all(axis=1)


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


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_lazy_tables_equal_loop_enumeration(n, seed):
    _, want = loop_lattice(n)
    ij = want["ij"]
    # the reference positions eps (i + j/2, j sqrt(3)/2), rounded as numpy
    # rounds them
    want["pos"] = (1.0 / n) * np.column_stack([ij[:, 0] + 0.5 * ij[:, 1], ij[:, 1] * (SQRT3 / 2.0)])
    lazy = LatticeGraph(n)
    assert set(vars(lazy)) == {"n", "eps", "ij", "n_edges"}
    assert lazy.n_edges == len(want["edges"]) and lazy.n_vertices == len(ij)
    ids = np.random.default_rng(seed).integers(0, lazy.n_vertices, size=2 * n)
    # rows of positions computed from (i, j) before pos exists, and read from
    # pos once it does
    before = lazy.positions(ids)
    for name in ("ij", "pos", "edges", "weights", "tris"):
        got = getattr(lazy, name)
        assert got.dtype == want[name].dtype and got.shape == want[name].shape, name
        assert got.flags.c_contiguous and got.tobytes() == want[name].tobytes(), name
    assert getattr(lazy, "pos") is lazy.pos            # built once, then kept
    assert before.tobytes() == want["pos"][ids].tobytes()
    lazy.pos[ids[0]] = np.nan
    assert np.isnan(lazy.positions(ids[:1])).all()
    assert LatticeGraph(n).positions().tobytes() == want["pos"].tobytes()


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
        assert len(g.tris) == n * n
        # planar Euler characteristic of a disk
        assert g.n_vertices - g.n_edges + len(g.tris) == 1
        # 3N boundary edges, each with weight 1/2
        assert np.sum(g.weights == 0.5) == 3 * n
        assert np.sum(g.weights == 1.0) == g.n_edges - 3 * n
        assert np.sum(up_triangles(g)) == n * (n + 1) // 2


def test_hand_enumeration_n1():
    g = LatticeGraph(1)
    assert g.n_vertices == 3 and g.n_edges == 3 and len(g.tris) == 1
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
    i, j = g.ij.T
    gamma1, gamma2, gamma3 = j == 0, i == 0, i + j == n
    assert gamma1.sum() == n + 1
    assert gamma2.sum() == n + 1
    assert gamma3.sum() == n + 1
    # each corner sits on exactly two segments
    corners = gamma1 & gamma2 | gamma2 & gamma3 | gamma1 & gamma3
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
    for t, up in zip(g.tris, up_triangles(g)):
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


@given(lattice_sizes, st.integers(min_value=0, max_value=2**32 - 1))
def test_expand_reduce_roundtrip_and_admissibility(n, seed):
    g = LatticeGraph(n)
    cmap = build_constraints(g, PHI5)
    layout = DofLayout(g, cmap)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=layout.n_reduced)
    u = expand(q, cmap, layout)
    assert np.array_equal(reduce_config(u, layout), q)        # bitwise
    rphi = rot(PHI5)
    for i in range(1, g.n + 1):
        lhs = u[g.vertex_id(0, i)]
        rhs = rphi @ u[g.vertex_id(i, 0)]
        assert np.abs(lhs - rhs).max() <= 1e-15 * max(1.0, np.abs(rhs).max())
    assert np.all(u[g.vertex_id(0, 0)] == 0.0)
    # an admissible configuration is a fixed point of the projection
    assert np.array_equal(expand(reduce_config(u, layout), cmap, layout), u)


def test_shape_validation():
    g = LatticeGraph(3)
    cmap = build_constraints(g, PHI5)
    layout = DofLayout(g, cmap)
    with pytest.raises(ValueError):
        expand(np.zeros(layout.n_reduced + 1), cmap, layout)
    with pytest.raises(ValueError):
        reduce_config(np.zeros((g.n_vertices + 1, 2)), layout)


@given(lattice_sizes, st.floats(min_value=0.1, max_value=6.2))
def test_dump_roundtrip(n, phi):
    g = LatticeGraph(n)
    cmap = build_constraints(g, phi)
    buf = io.StringIO()
    dump_lattice(g, cmap, buf)
    records = {}
    for line in buf.getvalue().splitlines():
        tag, *fields = line.split()
        records.setdefault(tag, []).append(fields)
    assert sorted(records) == ["c", "e", "pin", "t", "v"]

    def columns(tag, first, stop, kind):
        return np.array([[kind(x) for x in f[first:stop]] for f in records[tag]])

    # v, e and t records lead with their row id
    for tag in "vet":
        assert columns(tag, 0, 1, int).ravel().tolist() == list(range(len(records[tag])))
    parsed = {
        "ij": columns("v", 1, 3, int),
        "pos": columns("v", 3, 5, float),
        "edges": columns("e", 1, 3, int),
        "weights": columns("e", 3, 4, float).ravel(),
        "tris": columns("t", 1, 4, int),
    }
    # %.17g round-trips every float64 exactly
    for key, got in parsed.items():
        want = np.asarray(getattr(g, key))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    pairs = np.column_stack([cmap.masters, cmap.slaves]).astype(np.int64)
    assert columns("c", 0, 2, int).tobytes() == pairs.tobytes()
    assert records["pin"] == [[str(cmap.pinned)]]


def test_spec_validation():
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError):
            LatticeGraph(bad)
    assert LatticeGraph(np.int64(4)).n == 4      # numpy integers accepted too


@given(lattice_sizes)
def test_graph_arrays_equal_loop_enumeration(n):
    g = LatticeGraph(n)
    vid, expected = loop_lattice(n)
    for name, want in expected.items():
        got = getattr(g, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert np.array_equal(up_triangles(g), np.arange(n * n) < n * (n + 1) // 2)
    for i, j in ((0, 0), (n, 0), (0, n), (n // 2, n - n // 2)):
        assert g.vertex_id(i, j) == vid(i, j)


@given(lattice_sizes, st.floats(min_value=0.1, max_value=6.2))
def test_constraints_and_select_equal_loop_build(n, phi):
    g = LatticeGraph(n)
    cmap = build_constraints(g, phi)
    vid, _ = loop_lattice(n)
    assert cmap.masters.tolist() == [vid(i, 0) for i in range(1, n + 1)]
    assert cmap.slaves.tolist() == [vid(0, i) for i in range(1, n + 1)]
    assert cmap.pinned == vid(0, 0)
    layout = DofLayout(g, cmap)
    q = np.random.default_rng(n).normal(size=layout.n_reduced)
    want = loop_select(g, cmap)
    assert want.shape == (2 * g.n_vertices, layout.n_reduced)
    np.testing.assert_allclose(expand(q, cmap, layout).ravel(), want @ q,
                               rtol=0.0, atol=1e-15 * np.abs(q).max())


@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.1, max_value=6.2),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_reduce_gradient_is_select_transpose_bit_for_bit(n, phi, seed):
    g = LatticeGraph(n)
    cmap = build_constraints(g, phi)
    layout = DofLayout(g, cmap)
    full = np.random.default_rng(seed).normal(size=(g.n_vertices, 2))
    got = reduce_gradient(full, cmap, layout)
    want = loop_select(g, cmap).T @ full.ravel()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(lattice_sizes, st.sampled_from([PHI5, 2.0 * np.pi / 7.0]))
def test_layout_block_of_every_vertex(n, phi):
    g = LatticeGraph(n)
    block = DofLayout(g, build_constraints(g, phi)).block
    assert block.dtype == np.int64 and block.shape == (g.n_vertices,)
    # the free vertices, all off Gamma2, number 0..nb-1 in id order
    free = g.ij[:, 0] > 0
    assert block[free].tolist() == list(range(np.count_nonzero(free)))
    # the slave (0, k) shares the block of its master (k, 0)
    k = np.arange(1, n + 1)
    assert np.array_equal(block[g.vertex_id(0, k)], block[g.vertex_id(k, 0)])
    assert block[g.vertex_id(0, 0)] == -1


def test_constraints_reject_broken_geometry():
    g = LatticeGraph(6)
    g.pos[g.vertex_id(0, 3)] += [1e-9, 0.0]
    with pytest.raises(RuntimeError, match="i=3"):
        build_constraints(g, PHI5)
    g.pos[g.vertex_id(0, 3)] = np.nan
    with pytest.raises(RuntimeError, match="i=3"):
        build_constraints(g, PHI5)
