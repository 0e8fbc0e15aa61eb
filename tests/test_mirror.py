"""The sweep's mirror-even half: the mirror map, the even operators against
slow oracles built from the reduced ones, and the even sweep minimizers as
minimizers of the whole problem."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

import disclat.experiments
import disclat.solver
from disclat.energy import (
    DegenerateCellError,
    MaterialLaw,
    NonFiniteEnergyError,
    assemble_energy,
    assemble_gradient,
    assemble_hessian,
)
from disclat.experiments import linear_init, prolong, prolongation_matrix, run_sweep
from disclat.lattice import Level, MirrorLayout, MirrorLevel
from disclat.solver import NewtonOptions
from test_energy import gradient_roundoff

PHI5 = 2.0 * np.pi / 5.0
PHI7 = 2.0 * np.pi / 7.0
LAWS = {"zero": MaterialLaw(p=2.0), "smoothed_abs": MaterialLaw(p=2.0, psi="smoothed_abs")}


def reflection(phi):
    """M, the reflection across the line at angle phi/2."""
    return np.array([[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]])


def mirror_matrix(level):
    """T, the mirror map u -> M u(j, i) on the reduced vectors of the full
    Level level, vertex by vertex: free vertex (i, j) takes M q(j, i) when
    (j, i) is free (j >= 1), and M R_phi q(i, 0) when j = 0, since (0, i)
    is the Gamma2 slave of (i, 0)."""
    g, block, phi = level.graph, level.unknowns.block, level.cmap.phi
    m = reflection(phi)
    rows, cols, vals = [], [], []
    for v, (i, j) in enumerate(g.ij):
        if i == 0:
            continue
        src, a = (g.vertex_id(j, i), m) if j >= 1 else (v, m @ level.cmap.rotation)
        for r in range(2):
            for c in range(2):
                rows.append(2 * block[v] + r)
                cols.append(2 * block[src] + c)
                vals.append(a[r, c])
    n = level.unknowns.n_reduced
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def even_basis(level):
    """B, the even unknowns -> reduced vectors of the full Level level,
    from the documented layout: the pairs (i, j), i > j >= 1, two numbers
    each, x at (i, j) and M x at (j, i); then the singles, one number each
    along e1 on Gamma1 (k, 0) and along (cos phi/2, sin phi/2) on the
    diagonal (i, i); vertex id order within each group."""
    g, block, phi = level.graph, level.unknowns.block, level.cmap.phi
    m = reflection(phi)
    pairs = [v for v, (i, j) in enumerate(g.ij) if i > j >= 1]
    singles = [v for v, (i, j) in enumerate(g.ij) if i >= 1 and (j == 0 or i == j)]
    b = np.zeros((level.unknowns.n_reduced, 2 * len(pairs) + len(singles)))
    for k, v in enumerate(pairs):
        i, j = g.ij[v]
        image = g.vertex_id(j, i)
        for c in range(2):
            b[2 * block[v] + c, 2 * k + c] = 1.0
            b[2 * block[image]:2 * block[image] + 2, 2 * k + c] = m[:, c]
    for k, v in enumerate(singles):
        axis = 0.0 if g.ij[v, 1] == 0 else 0.5 * phi
        b[2 * block[v]:2 * block[v] + 2, 2 * len(pairs) + k] = [np.cos(axis), np.sin(axis)]
    return b


def random_even(level, seed, scale=0.1):
    """An even configuration near the det1 start, as an even vector."""
    x = level.reduce(linear_init(level.graph, level.cmap.phi))
    return x + scale * level.graph.eps * np.random.default_rng(seed).normal(size=x.shape)


@pytest.mark.parametrize("n", range(1, 65))
def test_mirror_map_is_an_orthogonal_involution_with_an_even_half(n):
    level, full = MirrorLevel(n, PHI5), Level(n, PHI5)
    t = mirror_matrix(full)
    eye = sp.identity(t.shape[0])
    assert abs(t @ t - eye).max() <= 1e-15
    assert abs(t - t.T).max() <= 1e-15
    # trace 0: the +1 eigenspace of T is half the reduced space, and the
    # even unknowns are exactly as many
    assert abs(t.diagonal().sum()) <= 1e-13
    assert 2 * level.unknowns.n_reduced == full.unknowns.n_reduced
    if n <= 16:
        # B spans it: T B = B, and B^T B is diagonal (2 on pairs, 1 on singles)
        b = even_basis(full)
        assert np.abs(t @ b - b).max() <= 1e-15
        gram = b.T @ b
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-15
        assert np.diag(gram).min() >= 1.0 - 1e-15


@pytest.mark.parametrize("phi", [PHI5, PHI7], ids=["2pi/5", "2pi/7"])
def test_det1_start_and_prolong_are_even(phi):
    for n in (1, 2, 4, 8, 16, 32):
        coarse, fine = Level(n, phi), Level(2 * n, phi)
        q = coarse.reduce(linear_init(coarse.graph, phi))
        assert np.abs(mirror_matrix(coarse) @ q - q).max() <= 1e-15
        even = MirrorLevel(n, phi)
        u = prolong(coarse.graph, even.expand(random_even(even, n)), fine.graph)
        qf = fine.reduce(u)
        assert np.abs(mirror_matrix(fine) @ qf - qf).max() <= 1e-15


@pytest.mark.parametrize("psi", ["zero", "smoothed_abs"])
@pytest.mark.parametrize("phi", [PHI5, PHI7], ids=["2pi/5", "2pi/7"])
def test_even_sweep_minimizers_minimize_the_whole_problem(phi, psi):
    # an even critical point is critical in every direction (symmetric
    # criticality); its stability in the odd directions is checked: the
    # odd block of the Hessian has the gauge mode J u as its one zero
    # eigenvalue and is positive definite on the rest
    law = LAWS[psi]
    rec = run_sweep(phi, 6, law, keep_configs=True)
    assert all(rec.converged)
    for k, u in rec.configs.items():
        level = Level(2**k, phi)
        g = assemble_gradient(level.graph, u, law, level.cmap, level.unknowns)
        assert np.abs(g).max() <= NewtonOptions().grad_tol
        if level.n > 32:
            continue
        sign, basis = np.linalg.eigh(mirror_matrix(level).toarray())
        odd = basis[:, sign < 0.0]
        h = assemble_hessian(level.graph, u, law, level.cmap, level.unknowns).toarray()
        lam = np.linalg.eigvalsh(odd.T @ h @ odd)
        scale = lam[-1]
        assert abs(lam[0]) <= 1e-9 * scale
        assert lam[1] > 1e-6 * scale


phis = st.one_of(st.sampled_from([PHI5, PHI7, np.pi / 3.0]),
                 st.floats(min_value=0.1, max_value=3.0))


@given(st.integers(min_value=1, max_value=16), phis,
       st.sampled_from(sorted(LAWS)), st.integers(min_value=0, max_value=2**32 - 1))
def test_even_operators_match_their_reduced_oracles(n, phi, psi, seed):
    law = LAWS[psi]
    level, full = MirrorLevel(n, phi), Level(n, phi)
    b = even_basis(full)
    x = random_even(level, seed)
    u = level.expand(x)
    # expand and reduce: the even configuration is the full one of B x
    assert np.abs(u - full.expand(b @ x)).max() <= 1e-15
    assert np.abs(level.reduce(u) - x).max() <= 1e-15
    energy = assemble_energy(level.graph, u, law)
    assert energy == pytest.approx(assemble_energy(full.graph, full.expand(b @ x), law),
                                   rel=1e-14, abs=0.0)
    # the even Hessian is B^T H B (the even gradient, B^T g, is checked in
    # test_half_energy_and_gradient_match_the_full_lattice)
    h = assemble_hessian(full.graph, u, law, full.cmap, full.unknowns).toarray()
    hb = b.T @ h @ b
    got = assemble_hessian(level.graph, u, law, level.cmap, level.unknowns)
    assert got.has_sorted_indices
    # the even Hessian takes each mirror pair of edges from one of the two,
    # B^T H B from both, so they differ by the mirror asymmetry that roundoff
    # leaves in H.  Under the penalty Psi'' amplifies it: over 150 random
    # draws the difference reached 1.1e-13 relative, against 7.2e-15 for the
    # bond law, while H itself was mirror-symmetric only to 2.2e-13
    bound = 1e-13 * np.abs(hb).max()
    if psi != "zero":
        t = mirror_matrix(full).toarray()
        bound += 4.0 * np.abs(t @ h @ t - h).max()
    assert np.abs(got.toarray() - hb).max() <= bound
    # the even prolongation: S_f P_e = P S_c, with P prolong on reduced
    # vectors, and the Galerkin identity at the prolonged start
    fine, fine_full = MirrorLevel(2 * n, phi), Level(2 * n, phi)
    p_even = prolongation_matrix(level, fine).toarray()
    p_full = np.column_stack([
        fine_full.reduce(prolong(full.graph, full.expand(q), fine_full.graph))
        for q in np.eye(full.unknowns.n_reduced)])
    assert np.abs(even_basis(fine_full) @ p_even - p_full @ b).max() <= 1e-15
    x0 = level.reduce(linear_init(level.graph, phi))
    h_fine = assemble_hessian(fine.graph, fine.expand(p_even @ x0), law, fine.cmap,
                              fine.unknowns).toarray()
    h_coarse = assemble_hessian(level.graph, level.expand(x0), law, level.cmap,
                                level.unknowns).toarray()
    assert np.abs(p_even.T @ h_fine @ p_even - h_coarse).max() <= 1e-12 * np.abs(h_coarse).max()


@given(st.integers(min_value=1, max_value=16), phis,
       st.sampled_from(sorted(LAWS)), st.integers(min_value=0, max_value=2**32 - 1))
@example(n=8, phi=np.pi / 3.0, psi="smoothed_abs", seed=1254274)
def test_half_energy_and_gradient_match_the_full_lattice(n, phi, psi, seed):
    law = LAWS[psi]
    level, full = MirrorLevel(n, phi), Level(n, phi)
    half = level.unknowns
    x = random_even(level, seed)
    u = level.expand(x)
    energy = assemble_energy(level.graph, u, law, half)
    assert energy == pytest.approx(assemble_energy(full.graph, u, law), rel=1e-14, abs=0.0)
    g = assemble_gradient(full.graph, u, law, full.cmap, full.unknowns)
    folded = even_basis(full).T @ g
    even = assemble_gradient(level.graph, u, law, level.cmap, half)
    assert np.abs(even - folded).max() <= 1e-13 * np.abs(folded).max()
    # the stopping rule's norm, read off the even gradient: it reconstructs
    # the reduced gradient, whose entries differ from g's by at most the two
    # assemblies' roundoff, and so do the norms.  Where the half takes M
    # times a representative's term, the lattice forms the mirror image's
    # from positions that expand rounded to 2 u |u|: its edge vector lies
    # within 4 u max|u| + 2 u |d| <= 6 u max|u| of M d, so size is max|u|.
    # The found example's norms differ by 1.1e-14 relative
    bound = gradient_roundoff(full.graph, u, law, full.cmap, np.abs(u).max()).max()
    assert abs(level.grad_inf(even) - np.abs(g).max()) <= bound
    assert full.grad_inf(g) == np.abs(g).max()
    # the first single is (1, 0): at zero its bond to the pinned origin
    # collapses, and both kernels name the up cell at the origin
    x[2 * half.n_pairs] = 0.0
    collapsed = level.expand(x)
    for assemble, layout in ((assemble_gradient, half), (assemble_gradient, full.unknowns),
                             (assemble_hessian, half)):
        with pytest.raises(DegenerateCellError) as err:
            assemble(level.graph, collapsed, law, level.cmap, layout)
        assert err.value.triangle == 0
    x[seed % len(x)] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEnergyError):
            assemble_energy(level.graph, level.expand(x), law, half)


def test_sweep_assembles_on_the_half_as_often_as_the_tracer_counts(monkeypatch):
    # perfbench's tracer counts solver.assemble_* calls and reads the
    # line-search backtracks of each solve as its energy calls less
    # 1 + 2 * iterations; each solve makes 1 + iterations gradients and one
    # Hessian per iteration, and each level but the last hands one over
    calls = {"assemble_energy": [], "assemble_gradient": [], "assemble_hessian": []}
    for name, log in calls.items():
        def counted(*args, _real=getattr(disclat.solver, name), _log=log):
            _log.append(args[-1])
            return _real(*args)

        monkeypatch.setattr(disclat.solver, name, counted)
    solves = []

    def newton(*args, _real=disclat.experiments.newton_minimize):
        before = {name: len(log) for name, log in calls.items()}
        config, report = _real(*args)
        solves.append((report.iterations,
                       {name: len(log) - before[name] for name, log in calls.items()}))
        return config, report

    monkeypatch.setattr(disclat.experiments, "newton_minimize", newton)
    rec = run_sweep(PHI5, 5, LAWS["zero"])
    assert rec.iterations == [4, 4, 3, 3, 3]
    for iters, made in solves:
        assert made["assemble_gradient"] == 1 + iters
        assert made["assemble_hessian"] == iters
        assert made["assemble_energy"] == 1 + 2 * iters       # no backtrack
    assert [len(log) for log in calls.values()] == [39, 22, 17 + 4]
    # every call passes the level's even half
    assert all(isinstance(layout, MirrorLayout) for log in calls.values() for layout in log)
