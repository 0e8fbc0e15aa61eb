"""Linear/folded starts, prolongation, rate estimation, and the two studies."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disclat.energy import MaterialLaw, assemble_energy, assemble_hessian
from disclat.experiments import (
    estimate_rate,
    fold_line_offset,
    fold_reference,
    folded_init,
    linear_init,
    linear_matrix,
    prolong,
    prolongation_matrix,
    run_fold_study,
    run_sweep,
)
from disclat.lattice import LatticeGraph, Level, MirrorLevel, rot
import disclat.experiments
import disclat.solver
from disclat.solver import CG_FORCING, CG_MAXITER

PHI5 = 2.0 * np.pi / 5.0
PHI7 = 2.0 * np.pi / 7.0
LAW = MaterialLaw(p=2.0)
R60 = rot(np.pi / 3.0)
E1 = np.array([1.0, 0.0])

coarse_sizes = st.integers(min_value=1, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def loop_prolong(coarse, u, fine):
    """Vertex-by-vertex midpoint rule, kept as an oracle for prolong."""
    cid = coarse.vertex_id
    out = np.empty((fine.n_vertices, 2))
    for vid, (i, j) in enumerate(fine.ij):
        i, j = int(i), int(j)
        if i % 2 == 0 and j % 2 == 0:
            out[vid] = u[cid(i // 2, j // 2)]
        elif j % 2 == 0:
            out[vid] = 0.5 * (u[cid(i // 2, j // 2)] + u[cid(i // 2 + 1, j // 2)])
        elif i % 2 == 0:
            out[vid] = 0.5 * (u[cid(i // 2, j // 2)] + u[cid(i // 2, j // 2 + 1)])
        else:
            out[vid] = 0.5 * (
                u[cid((i + 1) // 2, (j - 1) // 2)] + u[cid((i - 1) // 2, (j + 1) // 2)]
            )
    return out


def grid_index(graph, point):
    """Invert eps*(i + j/2, j*sqrt(3)/2); exact on lattice images."""
    j = point[1] / (graph.eps * np.sqrt(3.0) / 2.0)
    i = point[0] / graph.eps - j / 2.0
    return round(float(i)), round(float(j))


def test_linear_matrix_det1_defining_relations():
    for phi in (PHI5, PHI7):
        a = linear_matrix(phi, "det1")
        # A e1 and A R60 e1 must be v and R_phi v
        np.testing.assert_allclose(a @ (R60 @ E1), rot(phi) @ (a @ E1), atol=1e-14)
        assert abs(np.linalg.det(a) - 1.0) <= 1e-12


def test_linear_matrix_det1_edge_lengths():
    # |v| = sqrt(sin 60 / sin phi): contraction for 5-fold, dilation for 7-fold
    assert abs(np.linalg.norm(linear_matrix(PHI5) @ E1) - 0.95425) <= 1e-5
    assert abs(np.linalg.norm(linear_matrix(PHI7) @ E1) - 1.05247) <= 1e-5


def test_linear_matrix_edge_mode():
    for phi in (PHI5, PHI7):
        a = linear_matrix(phi, "edge")
        assert abs(np.linalg.norm(a @ E1) - 1.0) <= 1e-14
    # phi = pi/3 with the edge map is the identity: unfrustrated control
    np.testing.assert_allclose(linear_matrix(np.pi / 3.0, "edge"), np.eye(2), atol=1e-14)


def test_linear_matrix_errors():
    with pytest.raises(ValueError):
        linear_matrix(3.5, "det1")      # sin(phi) <= 0
    with pytest.raises(ValueError):
        linear_matrix(PHI5, "affine")


def test_linear_init_control_has_zero_energy():
    g = LatticeGraph(4)
    u = linear_init(g, np.pi / 3.0, "edge")
    np.testing.assert_allclose(u, g.pos, atol=1e-14)
    assert assemble_energy(g, u, LAW) <= 1e-14


def test_fold_reference_identity_at_zero():
    g = LatticeGraph(4)
    assert np.array_equal(fold_reference(g, 0), g.pos)


def test_fold_reference_preserves_rotation_pairing():
    # folded Gamma2 positions stay the 60-degree rotations of the folded
    # Gamma1 positions; this is what keeps the folded start admissible
    for n in (4, 8):
        g = LatticeGraph(n)
        for folds in range(n):
            f = fold_reference(g, folds)
            for k in range(1, n + 1):
                lhs = R60 @ f[g.vertex_id(k, 0)]
                rhs = f[g.vertex_id(0, k)]
                assert np.abs(lhs - rhs).max() <= 1e-12


def test_fold_reference_one_fold_images():
    g = LatticeGraph(4)
    f = fold_reference(g, 1)
    expected = {
        (4, 0): (2, 1),
        (3, 1): (2, 0),
        (2, 2): (1, 1),
        (1, 3): (0, 2),
        (0, 4): (-1, 3),      # the single flap past Gamma2
    }
    for src, dst in expected.items():
        assert grid_index(g, f[g.vertex_id(*src)]) == dst
    # everything below the fold chord stays put
    offset = fold_line_offset(g, 1)
    n0 = np.array([np.sqrt(3.0) / 2.0, 0.5])
    kept = g.pos @ n0 <= offset + 1e-12
    assert np.array_equal(f[kept], g.pos[kept])


def test_fold_reference_final_support():
    # after N-1 folds only the side-1 triangle plus one flap cell remains
    g = LatticeGraph(4)
    f = fold_reference(g, 3)
    support = {grid_index(g, p) for p in f}
    assert support == {(0, 0), (1, 0), (0, 1), (-1, 1)}


def test_fold_reference_range_errors():
    g = LatticeGraph(4)
    with pytest.raises(ValueError):
        fold_reference(g, -1)
    with pytest.raises(ValueError):
        fold_reference(g, 4)


def test_folded_init_zero_folds_is_linear():
    g = LatticeGraph(4)
    for phi in (PHI5, PHI7):
        np.testing.assert_allclose(
            folded_init(g, phi, 0), linear_init(g, phi), atol=1e-14
        )


def test_folded_init_admissible_by_construction():
    g = LatticeGraph(4)
    u = folded_init(g, PHI5, 2)
    rphi = rot(PHI5)
    for k in range(1, g.n + 1):
        lhs = u[g.vertex_id(0, k)]
        rhs = rphi @ u[g.vertex_id(k, 0)]
        assert np.abs(lhs - rhs).max() <= 1e-14
    assert np.all(u[g.vertex_id(0, 0)] == 0.0)


@given(coarse_sizes, seeds)
def test_prolong_exact_on_affine_maps(n, seed):
    coarse, fine = LatticeGraph(n), LatticeGraph(2 * n)
    rng = np.random.default_rng(seed)
    m = rng.uniform(-2.0, 2.0, size=(2, 2))
    c = rng.uniform(-2.0, 2.0, size=2)
    u_fine = prolong(coarse, coarse.pos @ m.T + c, fine)
    np.testing.assert_allclose(u_fine, fine.pos @ m.T + c, rtol=0.0, atol=1e-14)


def test_prolong_midpoint_rule():
    coarse = LatticeGraph(2)
    fine = LatticeGraph(4)
    rng = np.random.default_rng(9)
    u = rng.normal(size=(coarse.n_vertices, 2))
    out = prolong(coarse, u, fine)
    cid, fid = coarse.vertex_id, fine.vertex_id
    # even/even hits the coarse vertex
    assert np.array_equal(out[fid(2, 2)], u[cid(1, 1)])
    # horizontal, vertical, and diagonal midpoints
    np.testing.assert_allclose(out[fid(1, 0)], 0.5 * (u[cid(0, 0)] + u[cid(1, 0)]), atol=1e-15)
    np.testing.assert_allclose(out[fid(0, 1)], 0.5 * (u[cid(0, 0)] + u[cid(0, 1)]), atol=1e-15)
    np.testing.assert_allclose(out[fid(1, 1)], 0.5 * (u[cid(1, 0)] + u[cid(0, 1)]), atol=1e-15)


@given(coarse_sizes, seeds)
def test_prolong_equals_loop_midpoint_rule(n, seed):
    coarse, fine = LatticeGraph(n), LatticeGraph(2 * n)
    u = np.random.default_rng(seed).normal(size=(coarse.n_vertices, 2))
    got = prolong(coarse, u, fine)
    assert np.array_equal(got, loop_prolong(coarse, u, fine))


def test_prolong_requires_halved_spacing():
    with pytest.raises(ValueError):
        prolong(LatticeGraph(2), np.zeros((6, 2)), LatticeGraph(6))


def test_refinement_lowers_energy():
    # the prolonged warm start lands in the same basin and refinement can
    # only help: the fine minimum sits below the coarse one
    rec = run_sweep(PHI5, 2, LAW)
    assert rec.energies[1] < rec.energies[0]


def test_prolong_preserves_energy_and_admissibility():
    # each coarse cell splits into four fine cells with the same gradient,
    # so prolongation carries every admissible configuration to one of the
    # same energy on the fine lattice: the discrete problems are nested
    rng = np.random.default_rng(11)
    for law in (MaterialLaw(p=2.0), MaterialLaw(p=3.0, psi="smoothed_abs")):
        for n in (2, 4, 8, 16):
            coarse, fine = Level(n, PHI5), Level(2 * n, PHI5)
            q = coarse.reduce(linear_init(coarse.graph, PHI5))
            q = q + 0.2 * coarse.graph.eps * rng.normal(size=q.shape)   # non-affine
            u = coarse.expand(q)
            uf = prolong(coarse.graph, u, fine.graph)
            e_coarse = assemble_energy(coarse.graph, u, law)
            e_fine = assemble_energy(fine.graph, uf, law)
            assert abs(e_fine - e_coarse) <= 1e-12 * e_coarse
            # slaves are R_phi times masters up to roundoff in the midpoints
            np.testing.assert_allclose(
                fine.expand(fine.reduce(uf)), uf, rtol=0.0, atol=1e-14,
            )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.sampled_from([PHI5, PHI7]),
    st.sampled_from([2.0, 3.0]),
    st.sampled_from(["zero", "smoothed_abs"]),
    seeds,
)
def test_prolongation_matrix_and_galerkin_identity(n, phi, p, psi, seed):
    # P is prolong on even vectors; since prolong is linear and preserves
    # energy, E_fine(P x) = E_coarse(x) for all even x and, differentiating
    # twice, P^T H_fine(P x) P = H_coarse(x): the coarse even Hessian is the
    # Galerkin operator of the fine one
    law = MaterialLaw(p=p, psi=psi)
    coarse, fine = MirrorLevel(n, phi), MirrorLevel(2 * n, phi)
    rng = np.random.default_rng(seed)
    x = coarse.reduce(linear_init(coarse.graph, phi))
    x = x + 0.2 * coarse.graph.eps * rng.normal(size=x.shape)      # non-affine
    p_mat = prolongation_matrix(coarse, fine)
    u = coarse.expand(x)
    expected = fine.reduce(prolong(coarse.graph, u, fine.graph))
    assert np.abs(p_mat @ x - expected).max() <= 1e-14 * max(1.0, np.abs(x).max())
    h_coarse = assemble_hessian(coarse.graph, u, law, coarse.cmap, coarse.unknowns)
    uf = fine.expand(p_mat @ x)
    galerkin = p_mat.T @ assemble_hessian(
        fine.graph, uf, law, fine.cmap, fine.unknowns) @ p_mat
    assert abs(galerkin - h_coarse).max() <= 1e-12 * abs(h_coarse).max()


def test_estimate_rate_recovers_power_laws():
    for p in (0.5, 1.0, 1.87):
        for sign in (+1.0, -1.0):
            eps = 2.0**-6
            e = lambda x: 3e-3 + sign * 2e-3 * x**p
            got = estimate_rate(e(eps), e(2 * eps), e(4 * eps))
            assert abs(got - p) <= 1e-12


def test_estimate_rate_rejects_nonmonotone():
    assert estimate_rate(1.0, 2.0, 1.5) is None       # difference ratio negative
    assert estimate_rate(1.0, 1.0, 2.0) is None       # zero denominator


def test_run_sweep_structure():
    rec = run_sweep(PHI5, 2, LAW, keep_configs=True)
    assert rec.eps_exps == [1, 2]
    assert all(rec.converged)
    assert rec.p_eps(0) is None and rec.p_eps(1) is None
    assert set(rec.configs) == {1, 2}
    rows = rec.rows()
    assert rows == [
        (PHI5, k, rec.energies[i], None, rec.min_dets[i], rec.nonpos_counts[i],
         rec.iterations[i], rec.converged[i])
        for i, k in enumerate([1, 2])
    ]
    # first-level energies pinned loosely; acceptance checks the digits
    assert abs(rec.energies[0] - 2.5823e-3) <= 1e-6
    # each level's energy is read from its report: bit for bit its
    # minimizer's, summed over the even half the sweep solves on, and the
    # full sum up to roundoff
    for k, energy in zip(rec.eps_exps, rec.energies):
        level = MirrorLevel(2**k, PHI5)
        assert energy == assemble_energy(level.graph, rec.configs[k], LAW, level.unknowns)
        assert energy == pytest.approx(
            assemble_energy(LatticeGraph(2**k), rec.configs[k], LAW), rel=1e-14, abs=0.0)


def test_run_sweep_without_malloc_trim(monkeypatch):
    # a C library without malloc_trim (musl, macOS) only skips the trim
    class NoTrim:
        def __init__(self, name):
            pass

    monkeypatch.setattr(disclat.experiments.ctypes, "CDLL", NoTrim)
    rec = run_sweep(PHI5, 2, LAW)
    assert rec.iterations == [4, 4] and all(rec.converged)


def test_run_sweep_cold_start_same_basin():
    warm = run_sweep(PHI5, 2, LAW)
    cold = run_sweep(PHI5, 2, LAW, cold_start=True)
    assert abs(warm.energies[-1] - cold.energies[-1]) <= 1e-10


def test_run_fold_study_structure():
    res = run_fold_study(PHI7, LAW, eps_exp=2, max_folds=1)
    assert [r["folds"] for r in res] == [0, 1]
    assert all(r["converged"] for r in res)
    assert res[1]["energy"] < res[0]["energy"]
    assert res[1]["nonpos_det_count"] > 0
    graph = LatticeGraph(4)
    for r in res:
        assert r["energy"] == assemble_energy(graph, r["config"], LAW)
    # L = 0 solves the same system as the sweep's eps = 2^-2 level
    rec = run_sweep(PHI7, 2, LAW)
    assert abs(res[0]["energy"] - rec.energies[1]) <= 1e-12


def test_fold_study_starts_are_folded_init_bytes(monkeypatch):
    # the study folds each start's reference once more, and every start is
    # the one folded_init builds from scratch, byte for byte
    starts, folds = [], []
    real_init, real_fold = disclat.experiments.folded_init, disclat.experiments._fold

    def init(graph, phi, fold_count, *args):
        u = real_init(graph, phi, fold_count, *args)
        starts.append((graph, fold_count, u))
        return u

    def fold(graph, pos, number):
        folds.append(number)
        real_fold(graph, pos, number)

    monkeypatch.setattr(disclat.experiments, "folded_init", init)
    monkeypatch.setattr(disclat.experiments, "_fold", fold)
    run_fold_study(PHI7, LAW, eps_exp=3, max_folds=7)
    monkeypatch.undo()
    assert folds == list(range(1, 8))
    assert [count for _, count, _ in starts] == list(range(8))
    for graph, count, u in starts:
        expected = folded_init(graph, PHI7, count)
        assert u.dtype == expected.dtype and u.tobytes() == expected.tobytes(), count


def test_run_fold_study_checks_max_folds_before_solving(monkeypatch):
    calls = {"newton": 0, "init": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(disclat.experiments, "newton_minimize",
                        counting("newton", disclat.experiments.newton_minimize))
    monkeypatch.setattr(disclat.experiments, "folded_init",
                        counting("init", disclat.experiments.folded_init))
    for max_folds in (-1, 4):                 # N - 1 = 3 at eps = 2^-2
        with pytest.raises(ValueError, match="max_folds"):
            run_fold_study(PHI7, LAW, eps_exp=2, max_folds=max_folds)
    assert calls == {"newton": 0, "init": 0}
    assert len(run_fold_study(PHI7, LAW, eps_exp=2, max_folds=3)) == 4
    assert calls == {"newton": 4, "init": 4}


def test_run_fold_study_rejects_a_fractional_lattice_before_solving(monkeypatch):
    # max_folds = 0 is valid on every lattice; N = 2^eps_exp is the error
    calls = []
    for name in ("newton_minimize", "folded_init"):
        monkeypatch.setattr(disclat.experiments, name,
                            lambda *args, _name=name: calls.append(_name))
    for eps_exp in (-1, -3):
        message = "need an integer N >= 1, got %r" % 2.0**eps_exp
        with pytest.raises(ValueError, match=re.escape(message)):
            run_fold_study(PHI7, LAW, eps_exp=eps_exp, max_folds=0)
    assert calls == []


def test_run_sweep_checks_k_max_before_solving(monkeypatch, lattice_builds):
    calls = []
    monkeypatch.setattr(disclat.experiments, "newton_minimize",
                        lambda *args: calls.append(args))
    for k_max in (0, -3):
        with pytest.raises(ValueError, match="k_max"):
            run_sweep(PHI5, k_max, LAW)
    assert calls == [] and lattice_builds == []


# run_sweep(PHI5, 5, LAW): iteration counts and energies recorded with the
# loop-built lattice set-up and the default COLAMD ordering; no speed-up may
# change them
SWEEP_ITERATIONS = [4, 4, 3, 3, 3]
SWEEP_ENERGIES = [
    0.0025823001953345077,
    0.002002612029188707,
    0.0018049224287764614,
    0.0017445816259955768,
    0.0017274018028457625,
]


def assert_sweep_answers_pinned(rec):
    assert rec.iterations == SWEEP_ITERATIONS
    np.testing.assert_allclose(rec.energies, SWEEP_ENERGIES, rtol=1e-12, atol=0.0)


def even(k):                # half the reduced unknowns: 2 per vertex off Gamma2
    n = 2**k                # and the origin
    return LatticeGraph(n).n_vertices - n - 1


def test_sweep_answers_pinned():
    assert_sweep_answers_pinned(run_sweep(PHI5, 5, LAW))


def test_penalized_sweep_answers_pinned():
    # the paper's model with its volume penalty; recorded with SuperLU at
    # every fresh factorization.  Some of its Newton systems are indefinite
    # and keep the LU's step through the fallback, so no tau is raised
    rec = run_sweep(PHI5, 5, MaterialLaw(p=2.0, psi="smoothed_abs"))
    assert rec.iterations == [3, 4, 6, 8, 11]
    assert all(max(report.tau) == 0.0 for report in rec.reports)
    expected = [
        0.004087809852036642,
        0.003981079125424778,
        0.0036591219416333767,
        0.0031526299901463387,
        0.0028152895944371075,
    ]
    np.testing.assert_allclose(rec.energies, expected, rtol=1e-12, atol=0.0)


def test_sweep_factors_first_level_and_hand_overs(monkeypatch):
    # level 1 has no coarser level and factors every Newton system afresh,
    # by banded Cholesky (dpbsv).  Each level but the last (none above
    # COARSE_LU_MAX here) then factors its even Hessian at its minimizer by
    # SuperLU, and the next level solves every Newton system by CG on the
    # two-grid preconditioner built on that LU, so neither routine ever sees
    # the finest lattice.
    factored = []

    def counted(routine, size):
        real = getattr(disclat.solver, routine)

        def count(a, *args, **kwargs):
            factored.append((routine, size(a)))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(disclat.solver, routine, count)

    counted("dpbsv", lambda ab: ab.shape[1])      # ab is the (width+1, n) band
    counted("splu", lambda a: a.shape[0])
    real_cg, cg_steps = disclat.solver._cg, []

    def spy_cg(a, b, precond, tol):
        cg_steps.append((b, real_cg(a, b, precond, tol)))
        return cg_steps[-1][1]

    monkeypatch.setattr(disclat.solver, "_cg", spy_cg)
    rec = run_sweep(PHI5, 5, LAW)
    first = rec.reports[0]
    assert first.krylov_iters == [0] * first.iterations
    assert max(first.lin_resid) <= 1e-10
    for report in rec.reports[1:]:
        assert all(1 <= k <= CG_MAXITER for k in report.krylov_iters)
    for report in rec.reports:
        assert len(report.lin_resid) == report.iterations
    # a CG step is inexact: its residual is at most CG_FORCING |g|, and the
    # report records that residual
    assert all(found is not None for _, found in cg_steps)
    assert all(found[1] <= CG_FORCING * np.linalg.norm(b) for b, found in cg_steps)
    assert [found[1] for _, found in cg_steps] == [
        resid for report in rec.reports[1:] for resid in report.lin_resid
    ]

    assert factored == (
        [("dpbsv", even(1))] * first.iterations
        + [("splu", even(k)) for k in range(1, 5)]
    )


def test_sweep_cg_iterations_flat_in_n():
    # the gate of a mesh-independent multilevel solve: solved to CG_FORCING,
    # no warm-started Newton system takes more CG iterations at N = 128 than
    # at N = 4 (3-6 per level; solves to 1e-6 relative took up to 10 at 128)
    rec = run_sweep(PHI5, 7, LAW)
    assert rec.iterations == [4, 4, 3, 3, 3, 3, 3]
    for report in rec.reports[1:]:
        assert all(1 <= k <= 6 for k in report.krylov_iters)


def counted_splu(monkeypatch, fails_at=None):
    """The sizes of the matrices splu is asked to factor; a matrix of
    fails_at rows fails as a singular one would."""
    real, sizes = disclat.solver.splu, []

    def splu(a, **kwargs):
        sizes.append(a.shape[0])
        if a.shape[0] == fails_at:
            raise RuntimeError("Factor is exactly singular")
        return real(a, **kwargs)

    monkeypatch.setattr(disclat.solver, "splu", splu)
    return sizes


def test_sweep_hands_over_cycles_above_the_cap(monkeypatch):
    # with the cap at N = 4 the N = 8 and N = 16 levels hand over their own
    # two-grid cycles, so N = 32 runs on a V-cycle over the LU of N = 4
    monkeypatch.setattr(disclat.experiments, "COARSE_LU_MAX", 4)
    factored = counted_splu(monkeypatch)
    rec = run_sweep(PHI5, 5, LAW)
    assert_sweep_answers_pinned(rec)
    assert factored == [even(1), even(2)]
    for report in rec.reports[1:]:
        assert all(1 <= k <= CG_MAXITER for k in report.krylov_iters)


@pytest.mark.parametrize("lu_fails", [False, True], ids=["lu", "no-lu"])
def test_sweep_level_without_cycle_hands_over_lu(monkeypatch, lu_fails):
    # a level above the cap whose Hessian at its minimizer has no
    # preconditioner (a 2x2 diagonal block not positive definite) hands over
    # its LU instead; when that LU fails too, the next level runs without a
    # two-grid and factors its own Newton systems
    monkeypatch.setattr(disclat.experiments, "COARSE_LU_MAX", 4)
    factored = counted_splu(monkeypatch, even(3) if lu_fails else None)
    real = disclat.experiments.hand_over

    def hand_over(level, *args):
        with monkeypatch.context() as m:
            if level.n == 8:
                m.setattr(disclat.solver.TwoGrid, "preconditioner",
                          lambda self, h: None)
            return real(level, *args)

    monkeypatch.setattr(disclat.experiments, "hand_over", hand_over)
    rec = run_sweep(PHI5, 5, LAW)
    assert_sweep_answers_pinned(rec)
    krylov = [report.krylov_iters for report in rec.reports]
    assert factored[:3] == [even(k) for k in range(1, 4)]
    if lu_fails:
        # N = 16 factors its own Newton systems and, with no two-grid to
        # build a cycle on, hands over its LU
        assert krylov.pop(3) == [0] * rec.iterations[3]
        assert factored[3:] and set(factored[3:]) == {even(4)}
    else:
        assert len(factored) == 3
    for iters in krylov[1:]:
        assert all(1 <= k <= CG_MAXITER for k in iters)


def test_fold_study_iterations_pinned(lattice_builds):
    # per-fold Newton counts recorded with a fresh factorization at every
    # iteration (SuperLU then; the banded Cholesky reproduced them)
    res = run_fold_study(PHI7, LAW, eps_exp=4, max_folds=7)
    assert [r["iterations"] for r in res] == [4, 4, 4, 4, 4, 5, 5, 5]
    assert all(r["converged"] for r in res)
    # no coarser level: every Newton iteration factors afresh
    assert all(k == 0 for r in res for k in r["report"].krylov_iters)
    # one graph, constraint map and layout serve every fold
    assert lattice_builds == ["LatticeGraph", "ConstraintMap", "DofLayout"]
