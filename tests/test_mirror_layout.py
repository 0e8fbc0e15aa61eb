"""The closed-form MirrorLayout against the classify-and-copy build it
replaced, its one-pass expand against the former two-step one, and the
sweep's levels against the full-lattice tables and layouts they no longer
build.

ClassifiedMirrorLayout.__init__ is the former lattice.MirrorLayout build
verbatim, less the reduced blocks that only the former unfold read: it
classifies every vertex, cell and edge of the lattice by its (i, j) and
copies the rows it picks from the graph's tables.  The closed-form build
must give every table with the same values, dtype, shape and memory order,
and must read none of the graph's full-lattice tables.  unfold is the
former MirrorLayout.unfold, written against the DofLayout of a full Level.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import disclat.experiments
import disclat.lattice
import disclat.solver
from disclat.energy import MaterialLaw
from disclat.lattice import Level, MirrorLayout, MirrorLevel, expand

PHI5 = 2.0 * np.pi / 5.0
PHI7 = 2.0 * np.pi / 7.0
LAW = MaterialLaw(p=2.0)
LAWS = {"zero": LAW, "smoothed_abs": MaterialLaw(p=2.0, psi="smoothed_abs")}
GRAPH_TABLES = ("pos", "edges", "weights", "tris")


class ClassifiedMirrorLayout(MirrorLayout):
    """MirrorLayout with the former classify-and-copy build."""

    def __init__(self, graph, phi):
        i, j = graph.ij.T
        pairs = np.flatnonzero((i > j) & (j >= 1))
        singles = np.flatnonzero((i >= 1) & ((j == 0) | (i == j)))
        self.owners = np.concatenate([pairs, singles])
        self.n_pairs = len(pairs)
        self.n_reduced = 2 * len(pairs) + len(singles)
        self.axis = np.exp(0.5j * phi)
        self.axes = np.where(j.take(singles) == 0, 1.0, self.axis)
        self.w = np.exp(1j * phi)
        self.mirror = np.array([[self.w.real, self.w.imag], [self.w.imag, -self.w.real]])
        self.block = np.full(graph.n_vertices, -1, dtype=np.int64)
        self.block[self.owners] = np.arange(len(self.owners))
        self.upper = np.flatnonzero(i < j)
        self.upper_images = graph.vertex_id(j.take(self.upper), i.take(self.upper))
        self.block[self.upper] = self.block.take(self.upper_images)

        # i - j of each cell's corner: the first vertex of an up cell, one
        # step along e1 from that of a down cell
        corner = (i - j).take(graph.tris[:, 0])
        corner[graph.n_edges // 3:] -= 1
        order = np.concatenate([np.flatnonzero(corner == 0), np.flatnonzero(corner > 0)])
        self.n_self = int(np.count_nonzero(corner == 0))
        self.cells = np.ascontiguousarray(graph.tris.take(order, axis=0).T)
        # the cell diagonal of corner (k, k) is edge 2 n_up + corner number,
        # and the corner number of vertex v is v - j(v)
        k = np.arange((graph.n + 1) // 2)
        image = np.zeros(graph.n_edges, dtype=bool)
        image[2 * (graph.n_edges // 3) + graph.vertex_id(k, k) - k] = True
        lower = i >= j
        a, b = graph.edges.T
        self.edges = np.flatnonzero((lower.take(a) & lower.take(b)) | image)
        self.ends = np.ascontiguousarray(graph.edges.take(self.edges, axis=0).T)
        self.own = np.flatnonzero(image.take(self.edges))
        self.weights = 2.0 * graph.weights.take(self.edges)
        self.weights[self.own] *= 0.5
        self.seam = np.stack([graph.vertex_id(k, k + 1), graph.vertex_id(k + 1, k)])

        # energy.MirrorHessianPlan of this layout, built by the first Hessian
        self.hessian_plan = None


def unfold(half, full, x):
    """Even vector x of the MirrorLayout half -> reduced vector B x of the
    full Level full: x on a pair's vertex (i, j) and M x on its mirror
    vertex (j, i), x times the axis on a single."""
    block, p = full.unknowns.block, half.n_pairs
    i, j = full.graph.ij.take(half.owners[:p], axis=0).T
    q = np.empty(full.unknowns.n_reduced // 2, dtype=np.complex128)
    pairs = np.ascontiguousarray(x[:2 * p]).view(np.complex128)
    q[block.take(half.owners[:p])] = pairs
    q[block.take(full.graph.vertex_id(j, i))] = half.w * np.conj(pairs)
    q[block.take(half.owners[p:])] = x[2 * p:] * half.axes
    return q.view(float)


TABLES = ("owners", "n_pairs", "n_reduced", "axis", "axes", "w", "mirror", "block",
          "upper", "upper_images", "n_self", "cells", "edges", "ends", "own", "weights",
          "seam")


def assert_same_layout(n, phi):
    level = MirrorLevel(n, phi)
    # the closed-form build reads no full-lattice table of the graph
    assert not set(GRAPH_TABLES) & set(vars(level.graph))
    ref = ClassifiedMirrorLayout(level.graph, level.cmap.phi)
    got = level.unknowns
    for name in TABLES:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(ref, name))
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
        assert a.flags.c_contiguous == b.flags.c_contiguous, name
    # and the methods that read the tables agree on a vector
    x = np.random.default_rng(n).normal(size=got.n_reduced)
    assert np.array_equal(got.expand(x), ref.expand(x))
    assert np.array_equal(got.maps(), ref.maps())


@given(st.integers(min_value=1, max_value=16),
       st.one_of(st.sampled_from([PHI5, PHI7, np.pi / 3.0]),
                 st.floats(min_value=0.1, max_value=6.2)))
def test_closed_form_layout_matches_classified(n, phi):
    assert_same_layout(n, phi)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("phi", [PHI5, PHI7], ids=["2pi/5", "2pi/7"])
def test_closed_form_layout_matches_classified_on_fine_levels(n, phi):
    assert_same_layout(n, phi)


def test_sweep_levels_build_no_full_lattice_tables(monkeypatch):
    levels = []

    class RecordedLevel(MirrorLevel):
        def __init__(self, n, phi):
            super().__init__(n, phi)
            levels.append(self)

    monkeypatch.setattr(disclat.experiments, "MirrorLevel", RecordedLevel)
    rec = disclat.experiments.run_sweep(PHI5, 5, LAW)
    assert [level.n for level in levels] == [2, 4, 8, 16, 32]
    assert all(rec.converged)
    for level in levels:
        # only the closing det_summary reads a table: the cells
        assert set(vars(level.graph)) & set(GRAPH_TABLES) == {"tris"}, level.n


@pytest.mark.parametrize("phi", [PHI5, PHI7, np.pi / 3.0, 0.1, 2.5, 6.2],
                         ids=["2pi/5", "2pi/7", "pi/3", "0.1", "2.5", "6.2"])
def test_expand_is_the_former_unfold_and_expand_to_the_bit(phi):
    # on random normal vectors, whose entries are not zero: where a Gamma1
    # single is a signed zero, R_phi and M may give its slave zeros of
    # either sign
    for n in [*range(1, 65), 256]:
        level, full = MirrorLevel(n, phi), Level(n, phi)
        x = np.random.default_rng(n).normal(size=level.unknowns.n_reduced)
        got = level.expand(x)
        want = expand(unfold(level.unknowns, full, x), full.cmap, full.unknowns)
        assert got.shape == want.shape and got.dtype == want.dtype, n
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("psi", sorted(LAWS))
def test_sweep_builds_no_dof_layout_and_calls_no_expand(monkeypatch, psi):
    def refused(*args):
        raise AssertionError("the sweep built a DofLayout or called lattice.expand")

    for module in (disclat.lattice, disclat.experiments):
        monkeypatch.setattr(module, "DofLayout", refused)
    for module in (disclat.lattice, disclat.experiments, disclat.solver):
        monkeypatch.setattr(module, "expand", refused)
    rec = disclat.experiments.run_sweep(PHI5, 4, LAWS[psi])
    assert rec.eps_exps == [1, 2, 3, 4] and all(rec.converged)
