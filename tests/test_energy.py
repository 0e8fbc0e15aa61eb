"""Density, analytic derivatives, assembly, and the two-forms identity."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

from disclat.energy import (
    BOND_DIRECTIONS,
    BOND_FLOOR,
    DegenerateCellError,
    MaterialLaw,
    NonFiniteEnergyError,
    assemble_energy,
    assemble_full_gradient,
    assemble_gradient,
    assemble_hessian,
    bond_sum_energy,
    w_density,
)
from disclat.experiments import folded_init
from disclat.lattice import (
    DofLayout,
    LatticeGraph,
    build_constraints,
    expand,
    reduce_config,
    rot,
)
from test_lattice import loop_select

PHI5 = 2.0 * np.pi / 5.0
PHI7 = 2.0 * np.pi / 7.0
J = np.array([[0.0, -1.0], [1.0, 0.0]])       # the infinitesimal rotation
SQRT3 = np.sqrt(3.0)
LAW2 = MaterialLaw(p=2.0)
LAW3S = MaterialLaw(p=3.0, psi="smoothed_abs")


def cell_gradient(xa, xb, xc, ua, ub, uc):
    """Gradient A of the linear interpolant on one cell.

    Returns the matrix with A^T (x_b - x_a) = u_b - u_a and
    A^T (x_c - x_a) = u_c - u_a, i.e. A^T maps reference edge vectors to
    deformed edge vectors, so |A^T e| is the stretch of the unit bond e.
    Identical for the three cyclic labelings of the cell.
    """
    m = np.column_stack([np.asarray(xb) - xa, np.asarray(xc) - xa])
    du = np.column_stack([np.asarray(ub) - ua, np.asarray(uc) - ua])
    return (du @ np.linalg.inv(m)).T


def random_admissible(graph, phi, seed, scale=0.1):
    """Admissible configuration near the reference (cells stay nondegenerate)."""
    cmap = build_constraints(graph, phi)
    layout = DofLayout(graph, cmap)
    rng = np.random.default_rng(seed)
    q = reduce_config(graph.pos, layout)
    q = q + scale * graph.eps * rng.normal(size=q.size)
    return expand(q, cmap, layout), cmap, layout


def test_law_validation():
    with pytest.raises(ValueError):
        MaterialLaw(p=1.5)
    with pytest.raises(ValueError):
        MaterialLaw(psi="cubic")
    with pytest.raises(ValueError):
        MaterialLaw(psi="smoothed_abs", kappa=0.0)
    with pytest.raises(ValueError):
        MaterialLaw(psi="smoothed_abs", delta=-1.0)
    # kappa and delta parametrize only smoothed_abs; under zero they are inert
    with pytest.raises(ValueError, match="need psi = smoothed_abs"):
        MaterialLaw(kappa=2.0)
    with pytest.raises(ValueError, match="need psi = smoothed_abs"):
        MaterialLaw(psi="zero", delta=0.1)


def test_penalty_parameters_default_only_with_the_penalty():
    law = MaterialLaw(psi="smoothed_abs")
    assert (law.kappa, law.delta) == (1.0, 0.01)
    assert (LAW2.kappa, LAW2.delta) == (None, None)


def test_density_zero_on_rotations():
    for theta in (0.0, 0.3, 2.0):
        assert w_density(rot(theta), LAW2) <= 1e-14
    # smoothed psi also vanishes at det = 1
    law = MaterialLaw(p=2.0, psi="smoothed_abs")
    assert w_density(np.eye(2), law) <= 1e-14


def test_density_against_direct_bond_loop():
    # independent recomputation of the six-bond fan
    rng = np.random.default_rng(7)
    law = MaterialLaw(p=2.5, psi="smoothed_abs", kappa=0.7, delta=0.05)
    for _ in range(20):
        a = np.eye(2) + 0.4 * rng.normal(size=(2, 2))
        total = 0.0
        for k in range(6):
            e = np.array([np.cos(k * np.pi / 3.0), np.sin(k * np.pi / 3.0)])
            stretch = np.linalg.norm(a.T @ e)
            total += abs(stretch - 1.0) ** law.p / law.p
        total += float(law.Psi(np.linalg.det(a)))
        assert abs(w_density(a, law) - total) <= 1e-12 * max(1.0, total)


def test_bond_directions_closed_under_negation():
    dirs = {tuple(np.round(d, 12)) for d in BOND_DIRECTIONS}
    for d in BOND_DIRECTIONS:
        assert tuple(np.round(-d, 12)) in dirs


def test_cell_gradient_convention():
    # u = M x on a reference cell must return M^T, so that the transpose
    # applied to a unit bond is the deformed bond image
    g = LatticeGraph(2)
    m = np.array([[1.3, 0.4], [-0.2, 0.9]])     # deliberately non-symmetric
    xa, xb, xc = g.pos[g.tris[0]]
    a = cell_gradient(xa, xb, xc, m @ xa, m @ xb, m @ xc)
    np.testing.assert_allclose(a, m.T, atol=1e-13)
    e1 = np.array([1.0, 0.0])
    stretch = np.linalg.norm(a.T @ e1)
    assert abs(stretch - np.linalg.norm(m @ xb - m @ xa) / g.eps) <= 1e-13


def test_cell_gradient_cyclic_relabeling():
    g = LatticeGraph(2)
    rng = np.random.default_rng(17)
    xa, xb, xc = g.pos[g.tris[1]]
    ua, ub, uc = (x + 0.05 * rng.normal(size=2) for x in (xa, xb, xc))
    base = w_density(cell_gradient(xa, xb, xc, ua, ub, uc), LAW2)
    cyc = w_density(cell_gradient(xb, xc, xa, ub, uc, ua), LAW2)
    assert abs(base - cyc) <= 1e-12 * max(1.0, base)


def test_assembled_energy_reference_is_zero():
    for law in (LAW2, MaterialLaw(p=2.0, psi="smoothed_abs")):
        g = LatticeGraph(4)
        assert assemble_energy(g, g.pos, law) <= 1e-14


def test_energy_form_identity():
    # triangle-sum == sqrt(3)/2 * weighted bond sum + psi part, to 1e-12
    for n in (1, 2, 4, 8):
        g = LatticeGraph(n)
        for seed, law in ((n, LAW2), (n + 50, LAW3S)):
            u, _, _ = random_admissible(g, PHI5, seed)
            e_tri = assemble_energy(g, u, law)
            e_bond = bond_sum_energy(g, u, law)
            assert abs(e_tri - e_bond) <= 1e-12 * max(1.0, abs(e_tri))


def test_frame_indifference_of_assembly():
    g = LatticeGraph(4)
    u, _, _ = random_admissible(g, PHI5, 23)
    e0 = assemble_energy(g, u, LAW2)
    rng = np.random.default_rng(29)
    for _ in range(5):
        r = rot(rng.uniform(0.0, 2.0 * np.pi))
        c = rng.normal(size=2)
        e1 = assemble_energy(g, u @ r.T + c, LAW2)
        assert abs(e1 - e0) <= 1e-12 * max(1.0, e0)


@given(
    st.integers(min_value=1, max_value=24),
    st.sampled_from([PHI5, PHI7]),
    st.sampled_from([2.0, 3.0]),
    st.sampled_from(["zero", "smoothed_abs"]),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_frame_indifference_and_gauge_orthogonality(n, phi, p, psi, theta, seed):
    # a global rotation commutes with R_phi and fixes the pinned origin, so
    # it maps admissible configurations to admissible ones of equal energy;
    # differentiating along it, the reduced gradient is orthogonal to the
    # infinitesimal rotation reduce(J u) (the solver's gauge vector)
    g = LatticeGraph(n)
    law = MaterialLaw(p=p, psi=psi)
    u, cmap, layout = random_admissible(g, phi, seed)
    e = assemble_energy(g, u, law)
    assert abs(assemble_energy(g, u @ rot(theta).T, law) - e) <= 1e-13 * e
    grad = assemble_gradient(g, u, law, cmap, layout)
    gauge = reduce_config(u @ J.T, layout)
    bound = 1e-12 * np.linalg.norm(grad) * np.linalg.norm(gauge)
    assert abs(grad @ gauge) <= bound


def test_energy_grows_with_uniform_stretch():
    g = LatticeGraph(2)
    es = [assemble_energy(g, s * g.pos, LAW2) for s in (1.0, 1.2, 1.5, 2.0)]
    assert es[0] <= 1e-14
    assert es[1] < es[2] < es[3]


def test_degenerate_cell_raises():
    g = LatticeGraph(2)
    u = g.pos.copy()
    t = g.tris[0]
    u[t[1]] = u[t[0]]       # collapse one bond
    with pytest.raises(DegenerateCellError) as err:
        assemble_full_gradient(g, u, LAW2)
    assert err.value.triangle == 0
    cmap = build_constraints(g, PHI5)
    layout = DofLayout(g, cmap)
    with pytest.raises(DegenerateCellError) as err:
        assemble_hessian(g, u, LAW2, cmap, layout)
    assert err.value.triangle == 0



def first_triangle_with(graph, a, b):
    """Lowest index of a triangle having both a and b as vertices."""
    both = np.any(graph.tris == a, axis=1) & np.any(graph.tris == b, axis=1)
    return int(np.flatnonzero(both)[0])


@given(st.integers(min_value=1, max_value=16), st.data())
def test_collapsed_edge_names_its_first_triangle(n, data):
    g = LatticeGraph(n)
    a, b = g.edges[data.draw(st.integers(min_value=0, max_value=g.n_edges - 1))]
    u = g.pos.copy()
    u[b] = u[a]             # collapses exactly this edge
    expected = first_triangle_with(g, a, b)
    cmap = build_constraints(g, PHI5)
    layout = DofLayout(g, cmap)
    for law in (LAW2, LAW3S):
        with pytest.raises(DegenerateCellError) as err:
            assemble_gradient(g, u, law, cmap, layout)
        assert err.value.triangle == expected
        with pytest.raises(DegenerateCellError) as err:
            assemble_hessian(g, u, law, cmap, layout)
        assert err.value.triangle == expected


def test_nonfinite_energy_raises():
    g = LatticeGraph(2)
    u = g.pos.copy()
    u[1, 0] = np.inf
    with pytest.raises(NonFiniteEnergyError):
        assemble_energy(g, u, LAW2)


def test_reduced_gradient_matches_finite_differences():
    h = 1e-6
    for n in (4, 8):
        g = LatticeGraph(n)
        for seed, law in (
            (2 * n, LAW2),
            (2 * n + 1, MaterialLaw(p=2.0, psi="smoothed_abs")),
            (2 * n + 20, LAW3S),
        ):
            u, cmap, layout = random_admissible(g, PHI5, seed)
            q = reduce_config(u, layout)
            grad = assemble_gradient(g, u, law, cmap, layout)
            scale = max(1.0, np.abs(grad).max())
            rng = np.random.default_rng(seed + 100)
            for slot in rng.choice(layout.n_reduced, size=12, replace=False):
                dq = np.zeros(layout.n_reduced)
                dq[slot] = h
                fp = assemble_energy(g, expand(q + dq, cmap, layout), law)
                fm = assemble_energy(g, expand(q - dq, cmap, layout), law)
                fd = (fp - fm) / (2.0 * h)
                assert abs(grad[slot] - fd) <= 1e-6 * scale


def test_reduced_hessian_matches_finite_differenced_gradient():
    h = 1e-6
    g = LatticeGraph(4)
    for seed, law in (
        (31, LAW2),
        (37, MaterialLaw(p=2.0, psi="smoothed_abs")),
        (43, LAW3S),
    ):
        u, cmap, layout = random_admissible(g, PHI5, seed)
        q = reduce_config(u, layout)
        hess = assemble_hessian(g, u, law, cmap, layout).toarray()
        scale = max(1.0, np.abs(hess).max())
        rng = np.random.default_rng(seed + 200)
        for _ in range(4):
            v = rng.normal(size=layout.n_reduced)
            v /= np.linalg.norm(v)
            gp = assemble_gradient(g, expand(q + h * v, cmap, layout), law, cmap, layout)
            gm = assemble_gradient(g, expand(q - h * v, cmap, layout), law, cmap, layout)
            fd = (gp - gm) / (2.0 * h)
            assert np.abs(hess @ v - fd).max() <= 1e-5 * scale


def test_hessian_symmetry():
    g = LatticeGraph(4)
    u, cmap, layout = random_admissible(g, PHI5, 41)
    hess = assemble_hessian(g, u, LAW2, cmap, layout)
    assert np.abs((hess - hess.T).toarray()).max() <= 1e-13



@given(
    st.integers(min_value=1, max_value=24),
    st.floats(min_value=0.1, max_value=6.2),
    st.sampled_from([2.0, 2.5, 3.0]),
    st.sampled_from(["zero", "smoothed_abs"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_triangle_sum_equals_bond_sum(n, phi, p, psi, seed):
    g = LatticeGraph(n)
    law = MaterialLaw(p=p, psi=psi)
    u, _, _ = random_admissible(g, phi, seed)
    e_tri = assemble_energy(g, u, law)
    e_bond = bond_sum_energy(g, u, law)
    assert abs(e_tri - e_bond) <= 1e-12 * max(1.0, abs(e_tri))


# Oracle for the bond-wise assembly: the per-triangle kernels it replaced.
# Each triangle differentiates its density Phi(l1 - 1) + Phi(l2 - 1) +
# Phi(l3 - 1) + Psi(det) in full; the gradient is summed with np.add.at and
# the Hessian's dense 6x6 blocks go through a full COO matrix and S^T H S.


def oracle_tri_geometry(graph, u):
    a, b, c = graph.tris[:, 0], graph.tris[:, 1], graph.tris[:, 2]
    d1, d2 = u[b] - u[a], u[c] - u[a]
    d3 = d2 - d1
    lengths = [np.hypot(d[:, 0], d[:, 1]) / graph.eps for d in (d1, d2, d3)]
    det = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / (SQRT3 / 2.0 * graph.eps**2)
    assert min(length.min() for length in lengths) > BOND_FLOOR
    return (d1, d2, d3), lengths, det


def oracle_gradient(graph, u, law, cmap, magnitude=False):
    """The reduced gradient summed triangle by triangle; with
    magnitude=True, the same sums over the absolute values of their terms
    (every pull, and every slave row through |R_phi|), the scale that their
    roundoff is relative to."""
    term, minus = (np.abs, 1.0) if magnitude else (np.positive, -1.0)
    (d1, d2, d3), lengths, det = oracle_tri_geometry(graph, u)
    eps = graph.eps
    g = np.zeros(graph.tris.shape + (2,))
    for dvec, length, s, t in zip((d1, d2, d3), lengths, (0, 0, 1), (1, 2, 2)):
        pull = term((law.dPhi(length - 1.0) / (eps * eps * length))[:, None] * dvec)
        g[:, t] += pull
        g[:, s] += minus * pull
    c0 = 2.0 / (SQRT3 * eps * eps)
    gb = term((law.dPsi(det) * c0)[:, None] * np.column_stack([d2[:, 1], -d2[:, 0]]))
    gc = term(-(law.dPsi(det) * c0)[:, None] * np.column_stack([d1[:, 1], -d1[:, 0]]))
    g[:, 1] += gb
    g[:, 2] += gc
    g[:, 0] += minus * (gb + gc)
    full = np.zeros_like(u)
    np.add.at(full, graph.tris, graph.triangle_area() * g)
    select = loop_select(graph, cmap)
    return (abs(select) if magnitude else select).T @ full.ravel()


def oracle_hessian(graph, u, law, cmap):
    (d1, d2, d3), lengths, det = oracle_tri_geometry(graph, u)
    eps, nt = graph.eps, len(graph.tris)
    h = np.zeros((nt, 3, 2, 3, 2))
    for dvec, length, s, t in zip((d1, d2, d3), lengths, (0, 0, 1), (1, 2, 2)):
        r = length - 1.0
        unit = dvec / (eps * length)[:, None]
        outer = unit[:, :, None] * unit[:, None, :]
        k = (law.d2Phi(r)[:, None, None] / (eps * eps) * outer
             + (law.dPhi(r) / (eps * eps * length))[:, None, None] * (np.eye(2) - outer))
        h[:, t, :, t, :] += k
        h[:, s, :, s, :] += k
        h[:, t, :, s, :] -= k
        h[:, s, :, t, :] -= k
    c0 = 2.0 / (SQRT3 * eps * eps)
    gdet = np.zeros((nt, 3, 2))
    gdet[:, 1] = c0 * np.column_stack([d2[:, 1], -d2[:, 0]])
    gdet[:, 2] = -c0 * np.column_stack([d1[:, 1], -d1[:, 0]])
    gdet[:, 0] = -gdet[:, 1] - gdet[:, 2]
    h += law.d2Psi(det)[:, None, None, None, None] * (
        gdet[:, :, :, None, None] * gdet[:, None, None, :, :])
    z = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for v, w in ((0, 1), (1, 2), (2, 0)):
        h[:, v, :, w, :] += (law.dPsi(det) * c0)[:, None, None] * z
        h[:, w, :, v, :] += (law.dPsi(det) * c0)[:, None, None] * z.T
    dof = (2 * graph.tris[:, :, None] + np.arange(2)).reshape(-1, 6)
    full = sp.coo_matrix(
        ((graph.triangle_area() * h).ravel(),
         (np.repeat(dof, 6, axis=1).ravel(), np.tile(dof, (1, 6)).ravel())),
        shape=(2 * graph.n_vertices,) * 2,
    ).tocsr()
    select = loop_select(graph, cmap)
    return (select.T @ full @ select).tocsr()


def gradient_roundoff(graph, u, law, cmap, size):
    """u (40 T + 6 C) for every reduced gradient entry: how far two float64
    assemblies of it can differ when each sums the same terms in its own
    order, from edge vectors that differ by at most 6 u size between the
    two (a forward error analysis to first order in the unit roundoff u;
    Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    ch. 3-4).

    - T is the sum of the absolute values of the entry's terms.  A term
      takes at most 6 roundings of its own after its stretch (the scale,
      dPhi, the division by eps^2 |d| and the product with d) and at most
      12 in the sums that carry it to the entry: in the oracle, 3 within
      its triangle, 1 for the area, 5 over a vertex's 6 triangles and 3
      for a slave's row through R_phi; the bond assembly and the even
      gradient's fold take no more.  So each side lies within 18 u T of
      the exact sum of the terms it formed, and the two within 36 u T,
      rounded up to 40 u T.
    - C = |H| size 1, H the Hessian, bounds the sum of the terms'
      derivatives times an input change of size at every vertex, so the
      two sides' inputs move their terms apart by at most 6 u C.  Near a
      stretch of 1 this is what dominates: a term's own roundings are
      relative to a Phi'(l - 1) that cancels, its inputs' are not."""
    terms = oracle_gradient(graph, u, law, cmap, magnitude=True)
    reach = abs(oracle_hessian(graph, u, law, cmap)) @ np.full(len(terms), size)
    return np.finfo(float).eps / 2.0 * (40.0 * terms + 6.0 * reach)


def assert_matches_oracle(g, u, law, cmap, layout):
    grad = assemble_gradient(g, u, law, cmap, layout)
    grad_ref = oracle_gradient(g, u, law, cmap)
    # each side forms every edge vector d to within 3 u |d| (the oracle's
    # third edge is d2 - d1, the assembly's u_c - u_b), so size is the
    # longest edge; the found example cancels to 6.2e-4 from terms of 1.5,
    # and its two sums differ by 1.1e-16
    size = np.hypot(*(u[g.edges[:, 1]] - u[g.edges[:, 0]]).T).max()
    assert np.all(np.abs(grad - grad_ref) <= gradient_roundoff(g, u, law, cmap, size))
    hess = assemble_hessian(g, u, law, cmap, layout)
    hess_ref = oracle_hessian(g, u, law, cmap)
    assert hess.format == "csc" and hess.has_sorted_indices
    assert abs(hess - hess_ref).max() <= 1e-13 * abs(hess_ref).max()
    return hess


@given(
    st.integers(min_value=1, max_value=24),
    st.floats(min_value=0.1, max_value=3.0),    # folded starts need phi < pi
    st.sampled_from([2.0, 3.0]),
    st.sampled_from(["zero", "smoothed_abs"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=1, phi=2.333984375, p=2.0, psi="smoothed_abs", seed=200)
def test_bond_assembly_matches_triangle_oracle(n, phi, p, psi, seed):
    g = LatticeGraph(n)
    law = MaterialLaw(p=p, psi=psi)
    u, cmap, layout = random_admissible(g, phi, seed)
    hess = assert_matches_oracle(g, u, law, cmap, layout)
    if n > 1:
        # a folded start has exact zeros; the pattern keeps them
        folded = folded_init(g, phi, n // 2)
        hess_folded = assert_matches_oracle(g, folded, law, cmap, layout)
        np.testing.assert_array_equal(hess_folded.indptr, hess.indptr)
        np.testing.assert_array_equal(hess_folded.indices, hess.indices)


@given(
    st.integers(min_value=1, max_value=24),
    st.sampled_from([2.0, 3.0]),
    st.sampled_from(["zero", "smoothed_abs"]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 2),
)
def test_gradient_is_translation_invariant(n, p, psi, seed, c):
    # W depends on edge vectors only.  A gradient that does not move under
    # u -> u + c means zero block-row sums of the full Hessian, which the
    # per-edge Psi blocks rely on; an energy that does not move means the
    # gradient's rows sum to zero.
    g = LatticeGraph(n)
    law = MaterialLaw(p=p, psi=psi)
    rng = np.random.default_rng(seed)
    u = g.pos + 0.1 * g.eps * rng.normal(size=g.pos.shape)
    grad = assemble_full_gradient(g, u, law)
    scale = np.abs(grad).max()
    moved = assemble_full_gradient(g, u + np.array(c), law)
    assert np.abs(moved - grad).max() <= 1e-12 * scale
    assert np.abs(grad.sum(axis=0)).max() <= 1e-12 * scale
