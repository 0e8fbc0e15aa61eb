"""The closed-form MirrorHessianPlan against the sort-based plan it replaced.

SortedMirrorHessianPlan and _term_table are the former
energy.MirrorHessianPlan build: its own choice of representative edges, every
block slot found by sorting block keys, and every diagonal block summed from
a table of its terms padded with a zero block.  The closed-form plan must
give the same pattern, the same diagonal slots and the same data bits.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from disclat.energy import MaterialLaw, _bond_hessians, _psi_edge_hessians, assemble_hessian
from disclat.lattice import MirrorLevel
from test_hessian_plan import laws
from test_mirror import random_even

PHI5 = 2.0 * np.pi / 5.0
PHI7 = 2.0 * np.pi / 7.0


class SortedMirrorHessianPlan:
    """The fixed pattern of the even Hessian B^T H B of a
    lattice.MirrorLayout, and where each edge block goes in it.

    B sends the even unknowns to the reduced ones: u(v) = A_v x, with x the
    two numbers of v's block (MirrorLayout.maps).  Edge (a, b) with block B
    puts A_a^T B A_a on the diagonal block of a, A_b^T B^T A_b on that of b,
    -A_a^T B A_b at (a, b) and its transpose at (b, a); a single's second
    row and column drop out.  At an even configuration an edge and its
    mirror image put the same blocks there, so the plan sums one
    representative of each pair (edges): an edge with both ends at i >= j
    at twice its weight, and a cell diagonal (i+1, i)-(i, i+1), its own
    image, at its weight (multiplicity).  The representatives are about
    half the edges, so an even Hessian costs about half a reduced one.

    A_v is the identity at every end but two kinds, whose blocks are formed
    explicitly: the diagonal vertex (i, i), whose A_v is the rotation by
    phi/2 (framed edges), and the end (i, i+1) of a cell diagonal, M times
    the other end, so that the edge adds B - B M - M B^T + M B^T M to the
    diagonal block of (i+1, i) (own edges).

    data() forms a stack of 2 x 2 blocks: -B of every representative, the
    framed edges' blocks A_a^T (-B) A_a, A_b^T (-B)^T A_b and A_a^T (-B) A_b,
    the own edges' negated blocks, one zero block and the diagonal blocks.
    A diagonal block is minus the sum of the blocks in_a lists for it and
    of the transposes of those in_b lists (the plain ends b).  The
    matrix lists the pairs' unknowns first, then the singles' (as
    MirrorLayout does), and gather names the stack entry of every CSC data
    slot; diagonal names the slots of the diagonal blocks, (0, 0), (0, 1),
    (1, 0) and (1, 1) of each pair, then (0, 0) of each single.
    """

    def __init__(self, graph, cmap, unknowns):
        i, j = graph.ij.T
        a, b = graph.edges.T
        # the cell diagonal of corner (k, k) is edge 2 n_up + corner number,
        # and the corner number of vertex v is v - j(v)
        k = np.arange((graph.n + 1) // 2)
        image = np.zeros(graph.n_edges, dtype=bool)
        image[2 * (graph.n_edges // 3) + graph.vertex_id(k, k) - k] = True
        lower = i >= j
        self.edges = np.flatnonzero((lower.take(a) & lower.take(b)) | image)
        own = image.take(self.edges)
        self.multiplicity = np.where(own, 1.0, 2.0)
        self.weights = graph.weights.take(self.edges) * self.multiplicity
        a, b = a.take(self.edges), b.take(self.edges)
        ma, mb = unknowns.block.take(a), unknowns.block.take(b)
        on_axis = (i == j) & (i >= 1)
        framed = on_axis.take(a) | on_axis.take(b)
        plain = ~(framed | own)
        self.framed, self.own = np.flatnonzero(framed), np.flatnonzero(own)
        maps = unknowns.maps()
        self.frames = [maps.take(ends.take(self.framed), axis=0) for ends in (a, b)]
        self.mirror = unknowns.mirror

        n_rep, n1 = len(self.edges), len(self.framed)
        nb, p = len(unknowns.owners), unknowns.n_pairs
        x0 = n_rep + np.arange(n1)
        self.zero = n_rep + 3 * n1 + len(self.own)
        diag0 = self.zero + 1
        ends_a = plain & (ma >= 0)
        ends_b = plain & (mb >= 0)
        self.in_a = _term_table(
            np.concatenate([ma[ends_a], ma.take(self.framed), mb.take(self.framed),
                            ma.take(self.own)]),
            np.concatenate([np.flatnonzero(ends_a), x0, x0 + n1,
                            n_rep + 3 * n1 + np.arange(len(self.own))]), nb, self.zero)
        self.in_b = _term_table(mb[ends_b], np.flatnonzero(ends_b), nb, self.zero)

        # block slots (row, column, stack entry, transposed): the diagonal,
        # then (a, b) and (b, a) of the plain and the framed edges
        both = np.flatnonzero(ends_a & ends_b)
        m = np.arange(nb)
        rows = np.concatenate([m, ma[both], mb[both], ma.take(self.framed), mb.take(self.framed)])
        cols = np.concatenate([m, mb[both], ma[both], mb.take(self.framed), ma.take(self.framed)])
        src = np.concatenate([diag0 + m, both, both, x0 + 2 * n1, x0 + 2 * n1])
        flip = np.repeat([False, True, False, True], [nb + len(both), len(both), n1, n1])
        order = np.argsort(cols * nb + rows)
        rows, cols, src, flip = (x.take(order) for x in (rows, cols, src, flip))

        # scalar slots: block column c has k[c] scalar columns of length[c]
        # entries each, which list k[r] rows of every block (r, c) in turn
        k = np.where(m < p, 2, 1)
        offset = np.where(m < p, 2 * m, p + m)
        k_row, k_col = k.take(rows), k.take(cols)
        seen = np.concatenate([[0], np.cumsum(k_row)])
        col_start = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=nb))])
        length = np.diff(seen.take(col_start))
        base = np.concatenate([[0], np.cumsum(k * length)])
        n = unknowns.n_reduced
        self.shape = (n, n)
        self.nnz = int(base[-1])
        self.indptr = np.empty(n + 1, dtype=np.int32)
        self.indptr[offset] = base[:-1]
        self.indptr[offset[:p] + 1] = base[:p] + length[:p]
        self.indptr[n] = self.nnz
        # slot of entry (r, q) of each block: at + r + q * stride; the
        # entries a single lacks go to a spare slot past the end
        at = (base[:-1] - seen.take(col_start[:-1])).take(cols) + seen[:-1]
        stride = length.take(cols)
        row0, src = offset.take(rows), 4 * src
        indices = np.empty(self.nnz + 1, dtype=np.int32)
        gather = np.empty(self.nnz + 1, dtype=np.intp)
        # stack entry (r, q) of a block is 2 r + q, or 2 q + r when flipped
        for q, r, entry in ((0, 0, src), (0, 1, src + 2 - flip), (1, 0, src + 1 + flip),
                            (1, 1, src + 3)):
            pos = at + (r + q * stride)
            pos[(k_col <= q) | (k_row <= r)] = self.nnz
            indices[pos] = row0 + r
            gather[pos] = entry
        self.indices, self.gather = indices[:-1], gather[:-1]
        d = np.flatnonzero(src >= 4 * diag0)            # one per column, in order
        at, stride = at.take(d), stride.take(d)
        self.diagonal = (at[:p], at[:p] + stride[:p], at[:p] + 1, at[:p] + stride[:p] + 1,
                         at[p:])
        self.band = None             # solver.BandLayout, built by its first use
        # every matrix shares these: an in-place change would corrupt the plan
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def data(self, blocks):
        """CSC data of the even Hessian whose representative edge (a, b) has
        the block B = blocks[e] (its multiplicity included)."""
        n, n1 = len(blocks), len(self.framed)
        stack = np.empty((self.zero + 1 + self.in_a.shape[1], 2, 2))
        neg = np.subtract(0.0, blocks, out=stack[:n])
        x = neg.take(self.framed, axis=0)
        fa, fb = self.frames
        stack[n:n + n1] = fa.swapaxes(1, 2) @ x @ fa
        stack[n + n1:n + 2 * n1] = fb.swapaxes(1, 2) @ x.swapaxes(1, 2) @ fb
        stack[n + 2 * n1:n + 3 * n1] = fa.swapaxes(1, 2) @ x @ fb
        y, m = neg.take(self.own, axis=0), self.mirror
        yt = y.swapaxes(1, 2)
        stack[n + 3 * n1:self.zero] = y - y @ m - m @ yt + m @ yt @ m
        stack[self.zero] = 0.0
        total = stack.take(self.in_a[0], axis=0)
        for terms in self.in_a[1:]:
            total += stack.take(terms, axis=0)
        below = stack.take(self.in_b[0], axis=0)
        for terms in self.in_b[1:]:
            below += stack.take(terms, axis=0)
        total += below.swapaxes(1, 2)
        np.subtract(0.0, total, out=stack[self.zero + 1:])
        return stack.ravel().take(self.gather)

    def matrix(self, data):
        """The even CSC matrix with these data; it shares the index arrays
        of the plan."""
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


def _term_table(blocks, terms, n_blocks, fill):
    """A (K, n_blocks) table whose column m lists, in order, the terms whose
    block is m, padded with fill; K is the most terms of any block."""
    order = np.argsort(blocks, kind="stable")
    blocks, terms = blocks.take(order), terms.take(order)
    count = np.bincount(blocks, minlength=n_blocks)
    rank = np.arange(len(blocks)) - (np.cumsum(count) - count).take(blocks)
    table = np.full((count.max(initial=0), n_blocks), fill, dtype=np.intp)
    table[rank, blocks] = terms
    return table


def sorted_even_hessian(level, config, law):
    """The even Hessian as the sorted plan assembles it, from the blocks of
    its own representative edges."""
    plan = SortedMirrorHessianPlan(level.graph, level.cmap, level.unknowns)
    half, u = level.unknowns, np.asarray(config, dtype=float)
    # the layout holds the same representatives at the same weights, so the
    # library's kernel on the layout forms the plan's blocks
    np.testing.assert_array_equal(half.edges, plan.edges)
    assert np.array_equal(half.weights, plan.weights)
    blocks = _bond_hessians(level.graph, u, law, half)
    if law.psi_name != "zero":
        psi = _psi_edge_hessians(level.graph, u, law)
        blocks -= plan.multiplicity[:, None, None] * psi.take(plan.edges, axis=0)
    return plan, plan.matrix(plan.data(blocks))


def assert_same_even_hessian(level, config, law):
    h = assemble_hessian(level.graph, config, law, level.cmap, level.unknowns)
    ref_plan, ref = sorted_even_hessian(level, config, law)
    np.testing.assert_array_equal(h.indptr, ref.indptr)
    np.testing.assert_array_equal(h.indices, ref.indices)
    assert h.shape == ref.shape and h.nnz == ref.nnz
    assert h.indptr.dtype == h.indices.dtype == np.int32
    assert np.array_equal(h.data, ref.data)
    for got, expected in zip(level.unknowns.hessian_plan.diagonal, ref_plan.diagonal,
                             strict=True):
        np.testing.assert_array_equal(got, expected)


@given(
    st.integers(min_value=1, max_value=16),
    st.one_of(st.sampled_from([PHI5, PHI7, np.pi / 3.0]),
              st.floats(min_value=0.1, max_value=3.0)),
    laws,
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_closed_form_even_plan_matches_sorted_plan(n, phi, law, seed):
    level = MirrorLevel(n, phi)
    assert_same_even_hessian(level, level.expand(random_even(level, seed)), law)
    # the det1 start itself, whose bonds along Gamma1 have exact zeros
    assert_same_even_hessian(level, level.expand(random_even(level, seed, 0.0)), law)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("phi", [PHI5, PHI7], ids=["2pi/5", "2pi/7"])
def test_closed_form_even_plan_matches_sorted_plan_on_fine_levels(n, phi):
    level = MirrorLevel(n, phi)
    assert_same_even_hessian(level, level.expand(random_even(level, n)), MaterialLaw(p=2.0))
    # a bulk column holds 7 pairs, 14 scalar rows per scalar column
    plan = level.unknowns.hessian_plan
    lengths = np.diff(plan.indptr)
    assert lengths.max() == 14 and np.count_nonzero(lengths == 14) > lengths.size // 2
