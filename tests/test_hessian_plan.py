"""The closed-form HessianPlan against the sort-based plan it replaced.

SortedHessianPlan and sorted_hessian are the former energy.HessianPlan
build and its scatter, with the spring blocks formed as (|E|, 2, 2) outer
products: every edge block's four slots found by sorting and searching
block keys, and each Hessian summed by one np.bincount over four copies of
every block.  The closed-form plan must give the same pattern and the same
data bits.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from disclat.energy import MaterialLaw, _bonds, _psi_edge_hessians, assemble_hessian
from disclat.experiments import folded_init
from disclat.lattice import Level
from test_energy import random_admissible

PHI5 = 2.0 * np.pi / 5.0
PHI7 = 2.0 * np.pi / 7.0


class SortedHessianPlan:
    """Slots of assembled 2x2 blocks in the reduced Hessian S^T H S.

    S = lattice.expand_matrix sends the block H[v, w] of a vertex pair to
    the reduced block (m(v), m(w)) as A_v^T H[v, w] A_w.  Here m is
    DofLayout.block and A_v is R_phi on slaves and the identity elsewhere;
    blocks at the pinned origin (m = -1) drop out.  The pattern holds every
    reduced block that an edge reaches, exact zeros included, so it depends
    only on N: phi enters only through the rotation R_phi applied to the
    data.  It is symmetric, and the matrix is emitted in CSC form with
    sorted indices.
    """

    def __init__(self, graph, cmap, layout):
        nv, nb, block = graph.n_vertices, len(layout.free_ids), layout.block
        slave = np.zeros(nv, dtype=bool)
        slave[cmap.slaves] = True
        self._rotation = cmap.rotation
        # the blocks (a, a), (b, b), (a, b) and (b, a) of every edge (a, b)
        a, b = graph.edges[:, 0], graph.edges[:, 1]
        rows, cols = np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])
        row_block, col_block = block.take(rows), block.take(cols)
        pinned = (row_block < 0) | (col_block < 0)
        # column-major block keys; sorted, they list the blocks in CSC order
        edge_keys = col_block * nb + row_block
        del row_block, col_block
        keys = np.sort(edge_keys[~pinned])
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        block_rows, block_cols = keys % nb, keys // nb
        count = np.bincount(block_cols, minlength=nb)
        first = np.cumsum(count) - count
        self.nnz = 4 * len(keys)
        self.shape = (2 * nb, 2 * nb)
        # scalar column 2j + d lists rows 2i and 2i + 1 of each block (i, j)
        self.indptr = np.zeros(2 * nb + 1, dtype=np.int32)
        np.cumsum(np.repeat(2 * count, 2), out=self.indptr[1:])
        # data slot of entry (c, d) of block k, which lies in block column j
        start = 2 * first[block_cols] + 2 * np.arange(len(keys))
        stride = 2 * count[block_cols]
        c, d = np.arange(2)[:, None], np.arange(2)
        slots = (start[:, None, None] + stride[:, None, None] * d + c).astype(np.int32)
        self.indices = np.empty(self.nnz, dtype=np.int32)
        self.indices[slots] = 2 * block_rows[:, None, None] + c
        # edge block slots (the pinned origin's go to the spare slot nnz) and
        # the indices of the blocks to rotate from the left and the right
        k = np.searchsorted(keys, edge_keys)
        k[pinned] = 0
        edge_slots = slots.take(k, axis=0)
        edge_slots[pinned] = self.nnz
        self.edge_slots = (edge_slots, np.flatnonzero(slave.take(rows)),
                           np.flatnonzero(slave.take(cols)))
        self.band = None             # solver.BandLayout, built by its first use
        # every matrix shares these: an in-place change would corrupt the plan
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def scatter(self, blocks):
        """Reduced data of the edge blocks (4, |E|, 2, 2), in the order of
        edge_slots; blocks is overwritten."""
        slots, left, right = self.edge_slots
        blocks = blocks.reshape(-1, 2, 2)
        blocks[left] = self._rotation.T @ blocks[left]
        blocks[right] = blocks[right] @ self._rotation
        return np.bincount(
            slots.ravel(), blocks.ravel(), minlength=self.nnz + 1
        )[: self.nnz]

    def matrix(self, data):
        """The reduced CSC matrix with these data; it shares the index
        arrays of the plan."""
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


def outer_bond_hessians(graph, u, law):
    """Assembled Phi spring block of every edge, shape (|E|, 2, 2): Phi''
    along the bond, Phi'/|bond| across it, times 2*|T|*w(e)."""
    d, length = _bonds(graph, u)
    eps = graph.eps
    r = length - 1.0
    scale = 2.0 * graph.triangle_area() * graph.weights / (eps * eps)
    unit = d / (eps * length)[:, None]
    outer = unit[:, :, None] * unit[:, None, :]
    return (
        (scale * law.d2Phi(r))[:, None, None] * outer
        + (scale * law.dPhi(r) / length)[:, None, None] * (np.eye(2) - outer)
    )


def sorted_hessian(level, config, law):
    """The reduced Hessian as the sorted plan assembles it."""
    plan = SortedHessianPlan(level.graph, level.cmap, level.layout)
    graph, u = level.graph, np.asarray(config, dtype=float)
    # the blocks (a, a), (b, b), (a, b) and (b, a) of every edge (a, b)
    springs = np.multiply.outer([1.0, 1.0, -1.0, -1.0], outer_bond_hessians(graph, u, law))
    if law.psi_name != "zero":
        # det is translation invariant, so each cell's Psi Hessian is a sum
        # over its edges (a, b) of -P at (a, a), -P^T at (b, b), P at (a, b)
        # and P^T at (b, a), where P is the cell's block [a, b]
        psi = _psi_edge_hessians(graph, u, law)
        psi = np.stack([psi, psi.swapaxes(1, 2)])
        springs[:2] -= psi
        springs[2:] += psi
    return plan.matrix(plan.scatter(springs))


def assert_same_hessian(level, config, law):
    h = assemble_hessian(level.graph, config, law, level.cmap, level.layout)
    ref = sorted_hessian(level, config, law)
    np.testing.assert_array_equal(h.indptr, ref.indptr)
    np.testing.assert_array_equal(h.indices, ref.indices)
    assert h.shape == ref.shape and h.nnz == ref.nnz
    assert h.indptr.dtype == h.indices.dtype == np.int32
    assert np.array_equal(h.data, ref.data)
    return h


laws = st.one_of(
    st.builds(MaterialLaw, p=st.sampled_from([2.0, 2.5, 3.0])),
    st.builds(MaterialLaw, p=st.sampled_from([2.0, 3.0]), psi=st.just("smoothed_abs"),
              kappa=st.floats(min_value=1e-3, max_value=10.0),
              delta=st.floats(min_value=1e-3, max_value=1.0)),
)


@given(
    st.integers(min_value=1, max_value=16),
    st.one_of(st.sampled_from([PHI5, PHI7, np.pi / 3.0]),
              st.floats(min_value=0.1, max_value=6.2)),
    laws,
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stencil_plan_matches_sorted_plan(n, phi, law, seed):
    level = Level(n, phi)
    u, _, _ = random_admissible(level.graph, phi, seed)
    assert_same_hessian(level, u, law)
    # a folded start has exact zeros (folded_init needs phi < pi)
    if n > 1 and phi < np.pi:
        assert_same_hessian(level, folded_init(level.graph, phi, seed % n), law)


def stencil_counts(level):
    """Blocks per block column of the plan, and (i, j) of each free vertex."""
    plan = level.layout.hessian_plan
    count = np.diff(plan.indptr[::2]) // 4
    return count, level.graph.ij.take(level.layout.free_ids, axis=0).T


@pytest.mark.parametrize("n", [64, 256])
def test_stencil_plan_matches_sorted_plan_on_fine_levels(n):
    law = MaterialLaw(p=2.0)
    patterns = []
    for phi in (PHI5, PHI7):
        level = Level(n, phi)
        h = assert_same_hessian(level, folded_init(level.graph, phi, n // 4), law)
        patterns.append(h)
        count, (i, j) = stencil_counts(level)
        bulk = (i >= 2) & (j >= 1)
        np.testing.assert_array_equal(count[bulk], np.where(i + j == n, 5, 7)[bulk])
        assert count.max() == 7
    np.testing.assert_array_equal(patterns[0].indptr, patterns[1].indptr)
    np.testing.assert_array_equal(patterns[0].indices, patterns[1].indices)
