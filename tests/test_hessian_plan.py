"""The full lattice's HessianPlan: the stencil pattern of its reduced
Hessian, and the bits of the spring blocks it is fed.

The plan sums every data slot's terms by one np.bincount, in the order of
the four copies (a, a), (b, b), (a, b) and (b, a) of every edge block, so
its data are fixed by the blocks.  _bond_hessians writes those blocks in
place; outer_bond_hessians is the plain outer-product form it replaced,
which must give the same bits.  tests/test_energy.py checks the assembled
data against a dense per-triangle oracle through S^T H S.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from disclat.energy import MaterialLaw, _bond_hessians, _bonds, assemble_hessian
from disclat.experiments import folded_init
from disclat.lattice import Level
from test_energy import random_admissible

PHI5 = 2.0 * np.pi / 5.0
PHI7 = 2.0 * np.pi / 7.0


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
    st.sampled_from([2.0, 2.5, 3.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bond_hessians_match_the_outer_product_form(n, phi, p, seed):
    law = MaterialLaw(p=p)
    graph = Level(n, phi).graph
    u, _, _ = random_admissible(graph, phi, seed)
    starts = [u]
    # a folded start has exact zeros (folded_init needs phi < pi)
    if n > 1 and phi < np.pi:
        starts.append(folded_init(graph, phi, seed % n))
    for u in starts:
        blocks = _bond_hessians(graph, u, law)
        assert blocks.shape == (graph.n_edges, 2, 2)
        # every bit, a zero's sign included
        assert np.array_equal(blocks.view(np.int64),
                              outer_bond_hessians(graph, u, law).view(np.int64))


@pytest.mark.parametrize("n", [64, 256])
def test_stencil_pattern_on_fine_levels(n):
    law = MaterialLaw(p=2.0)
    patterns = []
    for phi in (PHI5, PHI7):
        level = Level(n, phi)
        h = assemble_hessian(level.graph, folded_init(level.graph, phi, n // 4), law,
                             level.cmap, level.unknowns)
        assert h.indptr.dtype == h.indices.dtype == np.int32
        assert h.has_sorted_indices and h.nnz == level.unknowns.hessian_plan.nnz
        patterns.append(h)
        # blocks per block column: the 7-point stencil, cut to 5 on Gamma3
        count = np.diff(h.indptr[::2]) // 4
        i, j = level.graph.ij.take(level.unknowns.free_ids, axis=0).T
        bulk = (i >= 2) & (j >= 1)
        np.testing.assert_array_equal(count[bulk], np.where(i + j == n, 5, 7)[bulk])
        assert count.max() == 7
    np.testing.assert_array_equal(patterns[0].indptr, patterns[1].indptr)
    np.testing.assert_array_equal(patterns[0].indices, patterns[1].indices)
