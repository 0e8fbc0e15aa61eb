"""Newton loop: descent, stationarity, re-entry, determinism, failure modes."""

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from scipy.sparse.linalg import splu

import disclat.solver
from disclat.energy import (
    MaterialLaw,
    NonFiniteEnergyError,
    assemble_gradient,
    assemble_hessian,
)
from disclat.experiments import linear_init, prolong, prolongation_matrix
from disclat.io import write_csv
from disclat.lattice import Level, MirrorLevel
from disclat.solver import (
    BAND_MAX_SLOTS,
    CG_FORCING,
    CG_MAXITER,
    DIAG_PIVOT_THRESH,
    BandLayout,
    NewtonOptions,
    SingularSystemError,
    TwoGrid,
    _cg,
    _factor_step,
    hand_over,
    newton_minimize,
)

PHI5 = 2.0 * np.pi / 5.0
LAW = MaterialLaw(p=2.0)


def solve(n=4, phi=PHI5, opts=None):
    level = Level(n, phi)
    init = linear_init(level.graph, phi)
    config, report = newton_minimize(level, LAW, init, opts)
    return level, config, report


def test_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(grad_tol=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(max_iter=0)


def test_descent_and_stationarity():
    _, _, report = solve()
    assert report.converged and report.stop_reason == "converged"
    assert report.grad_inf[-1] <= 1e-10
    energies = np.array(report.energy)
    # monotone descent up to the line-search roundoff slack
    slack = 1e-13 * (1.0 + np.abs(energies).max())
    assert np.all(np.diff(energies) <= slack)
    assert report.iterations <= 50


def test_reentry_costs_at_most_one_iteration():
    level, config, _ = solve()
    config2, report2 = newton_minimize(level, LAW, config)
    assert report2.iterations <= 1
    assert report2.converged and report2.stop_reason == "converged"
    assert np.abs(config2 - config).max() <= 1e-12


def test_determinism():
    _, c1, r1 = solve()
    _, c2, r2 = solve()
    assert np.array_equal(c1, c2)
    assert r1.energy == r2.energy and r1.grad_inf == r2.grad_inf


def test_quadratic_ratio_bounded():
    _, _, report = solve()
    ratios = report.quadratic_ratio
    assert len(ratios) == 3
    assert all(np.isfinite(r) and r <= 1e8 for r in ratios)


def test_max_iter_exhaustion_reported():
    opts = NewtonOptions(max_iter=1, grad_tol=1e-14)
    _, _, report = solve(opts=opts)
    assert not report.converged and report.stop_reason == "max_iter"
    assert report.iterations == 1


def test_newton_step_regularizes_singular_hessian():
    h = sp.csr_matrix((2, 2))
    g = np.array([1.0, 0.0])
    s, tau, _ = _factor_step(h, g, BandLayout(h))
    assert tau > 0.0                      # had to regularize
    assert g @ s < 0.0                    # still a descent direction


def test_factor_step_gives_up_past_tau_limit(monkeypatch):
    # neither factorization yields a step at any tau
    monkeypatch.setattr(disclat.solver, "_lu_solve", lambda h, tau, b: None)
    monkeypatch.setattr(BandLayout, "solve", lambda self, h, tau, b: None)
    h = sp.identity(3, format="csr")
    with pytest.raises(SingularSystemError, match="no usable step"):
        _factor_step(h, np.ones(3), BandLayout(h))


def test_singular_system_ends_the_run_with_its_report(monkeypatch):
    # neither factorization yields a step, so the first Newton system is
    # refused: the error carries the report, its initial row and no solve
    monkeypatch.setattr(disclat.solver, "_lu_solve", lambda h, tau, b: None)
    monkeypatch.setattr(BandLayout, "solve", lambda self, h, tau, b: None)
    level = Level(4, PHI5)
    with pytest.raises(SingularSystemError, match="no usable step") as info:
        newton_minimize(level, LAW, linear_init(level.graph, PHI5))
    report = info.value.report
    assert not report.converged and report.stop_reason == "singular"
    assert report.iterations == 0 and len(report.energy) == 1
    assert report.krylov_iters == [] and report.lin_resid == []


def test_line_search_that_rejects_every_trial_stops_at_the_start(monkeypatch):
    level = Level(4, PHI5)
    start = level.expand(level.reduce(linear_init(level.graph, PHI5)))
    real = disclat.solver.assemble_energy

    def only_the_start_is_finite(graph, config, law, layout):
        return real(graph, config, law, layout) if np.array_equal(config, start) else np.inf

    monkeypatch.setattr(disclat.solver, "assemble_energy", only_the_start_is_finite)
    config, report = newton_minimize(level, LAW, start)
    assert config.tobytes() == start.tobytes()
    assert not report.converged and report.stop_reason == "stalled_line_search"
    assert report.iterations == 1 and report.step_norm == [0.0, 0.0]
    assert report.energy[0] == report.energy[1] == real(level.graph, start, LAW)


def star_pattern(n):
    """CSC pattern of vertex 0 joined to every other vertex, diagonal
    included: under reverse Cuthill-McKee its band is n - 2 wide."""
    k = np.arange(1, n)
    rows = np.concatenate([np.arange(n), np.zeros(n - 1, dtype=int), k])
    cols = np.concatenate([np.arange(n), k, np.zeros(n - 1, dtype=int)])
    return sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def test_band_refuses_past_int32_slots():
    # 70000 * 69999 band slots (a 39 GB band) do not fit int32: the layout
    # is refused before any slot is computed
    with pytest.raises(SingularSystemError,
                       match="band of n = 70000 rows and width 69998 "):
        BandLayout(star_pattern(70000))
    n = 100
    band = BandLayout(star_pattern(n))
    assert band.width == n - 2
    assert band.dst.dtype == np.int32
    assert band.dst.min() >= 0 and band.dst.max() < n * (band.width + 1)
    # the last diagonal entry starts the band's last row
    assert band.dst.max() == (n - 1) * (band.width + 1)


def test_band_refuses_past_the_slot_cap():
    # 12000 * 11999 slots (144M, a 1.15 GB band) pass the 2^27 cap and are
    # refused before any slot is computed; 11000 * 10999 (121M) are laid out
    assert 11000 * 10999 < BAND_MAX_SLOTS == 2**27 < 12000 * 11999
    with pytest.raises(SingularSystemError,
                       match="band of n = 12000 rows and width 11998 "):
        BandLayout(star_pattern(12000))
    band = BandLayout(star_pattern(11000))
    assert band.width == 10998
    assert band.dst.dtype == np.int32
    assert band.dst.max() == 10999 * 10999


def plan_pattern(n, phi):
    """The HessianPlan of Level(n, phi) and the (row, column) of each of
    its data slots."""
    level = Level(n, phi)
    assemble_hessian(level.graph, linear_init(level.graph, phi), LAW,
                     level.cmap, level.unknowns)
    plan = level.unknowns.hessian_plan
    cols = np.repeat(np.arange(plan.shape[0]), np.diff(plan.indptr))
    return plan, plan.indices, cols


def symmetric_in_pattern(plan, rng):
    """A random symmetric matrix in the plan's pattern, dense, with its
    eigen-decomposition."""
    a = plan.matrix(rng.standard_normal(plan.nnz)).toarray()
    a += a.T
    return a, np.linalg.eigh(a)


def lu_step(h, g):
    return splu(h, permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=DIAG_PIVOT_THRESH).solve(-g)


@given(
    st.integers(min_value=1, max_value=8),
    st.sampled_from([PHI5, 2.0 * np.pi / 7.0]),
    st.floats(min_value=1e-2, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_banded_step_matches_lu_on_spd_systems(n, phi, gap, seed):
    plan, rows, cols = plan_pattern(n, phi)
    rng = np.random.default_rng(seed)
    a, (lam, _) = symmetric_in_pattern(plan, rng)
    # spectrum [gap, 1 + gap] times its spread: SPD, condition at most 101
    a += (gap * (lam[-1] - lam[0]) - lam[0]) * np.eye(len(a))
    h = plan.matrix(a[rows, cols])
    g = rng.standard_normal(len(a))
    s, tau, resid = _factor_step(h, g, BandLayout(h))
    expected = lu_step(h, g)
    assert tau == 0.0
    assert np.linalg.norm(s - expected) <= 1e-12 * np.linalg.norm(expected)
    assert resid <= 1e-10 * max(1.0, np.linalg.norm(g))


def test_indefinite_system_takes_the_lu_step(monkeypatch):
    plan, rows, cols = plan_pattern(4, PHI5)
    a, (lam, vec) = symmetric_in_pattern(plan, np.random.default_rng(5))
    # one negative eigenvalue; g = H v for the top eigenvector v, so the
    # Newton step -v is a descent direction all the same
    a -= 0.5 * (lam[0] + lam[1]) * np.eye(len(a))
    h = plan.matrix(a[rows, cols])
    g = h @ vec[:, -1]
    band = BandLayout(h)
    assert band.solve(h, 0.0, -g) is None            # not positive definite
    real, calls = disclat.solver.splu, []

    def counted(m, **kwargs):
        calls.append(m.shape[0])
        return real(m, **kwargs)

    monkeypatch.setattr(disclat.solver, "splu", counted)
    s, tau, _ = _factor_step(h, g, band)
    assert calls == [len(a)] and tau == 0.0
    assert np.array_equal(s, lu_step(h, g))


def test_report_csv_shape():
    _, _, report = solve()
    buf = io.StringIO()
    write_csv(buf, report.COLUMNS, report.rows())
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "iter,energy,grad_inf,step_norm,tau"
    assert len(lines) == report.iterations + 2     # header + rows incl. iter 0
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == 0.0


def test_line_search_rejects_nonfinite_trial(monkeypatch):
    _, _, clean = solve()
    real = disclat.solver.assemble_energy
    calls = []

    def first_full_step_breaks_model(graph, config, law, layout):
        calls.append(None)
        if len(calls) == 2:               # call 1 is the initial energy
            raise NonFiniteEnergyError("energy is not finite")
        return real(graph, config, law, layout)

    monkeypatch.setattr(disclat.solver, "assemble_energy", first_full_step_breaks_model)
    _, _, report = solve()
    assert report.converged
    # the rejected full step was halved, and the descent went on from there
    assert report.energy[1] < report.energy[0]
    assert report.step_norm[1] < clean.step_norm[1]
    assert abs(report.energy[-1] - clean.energy[-1]) <= 1e-12 * clean.energy[-1]


def test_stale_two_grid_falls_back_to_fresh_factorization(monkeypatch):
    coarse, level = MirrorLevel(4, PHI5), MirrorLevel(8, PHI5)
    u_coarse = linear_init(coarse.graph, PHI5)
    u = prolong(coarse.graph, u_coarse, level.graph)
    # a coarse correction from the LU of an unrelated SPD matrix whose
    # spectrum spans eight decades: CG needs over 100 iterations to reach
    # CG_FORCING on it (a milder one, up to 1e3, converges in about 10)
    stale = splu(sp.diags(np.geomspace(1e-8, 1.0, coarse.unknowns.n_reduced), format="csc"))
    two_grid = TwoGrid(stale.solve, prolongation_matrix(coarse, level), level.unknowns)
    real = disclat.solver._cg
    tried = []

    def spy(*args):
        tried.append(real(*args))
        return tried[-1]

    monkeypatch.setattr(disclat.solver, "_cg", spy)
    config, report = newton_minimize(level, LAW, u, two_grid=two_grid)
    # CG ran once and gave up; the failure ends the two-grid for the run
    assert tried == [None]
    assert report.converged
    assert report.krylov_iters == [0] * report.iterations
    assert max(report.lin_resid) <= 1e-10
    # every system was factored, exactly as in a run without a two-grid
    ref_config, ref = newton_minimize(level, LAW, u)
    assert np.array_equal(config, ref_config)
    assert report.energy == ref.energy


def test_two_grid_without_a_preconditioner_is_dropped(monkeypatch):
    # the N = 8 level's prolonged warm start with (5, 2) pushed three
    # quarters of the way to (4, 2): the diagonal block of (4, 2) alone is
    # not positive definite, so the two-grid has no preconditioner
    coarse, level = MirrorLevel(4, PHI5), MirrorLevel(8, PHI5)
    u_coarse, _ = newton_minimize(coarse, LAW, linear_init(coarse.graph, PHI5))
    two_grid = TwoGrid(hand_over(coarse, LAW, u_coarse),
                       prolongation_matrix(coarse, level), level.unknowns)
    u = prolong(coarse.graph, u_coarse, level.graph)
    v, w = level.graph.vertex_id(5, 2), level.graph.vertex_id(4, 2)
    x = level.reduce(u)
    k = 2 * level.unknowns.block[v]
    x[k:k + 2] += 0.75 * (u[w] - u[v])
    start = level.expand(x)
    h = assemble_hessian(level.graph, start, LAW, level.cmap, level.unknowns)
    a, b, b_low, c, d = (h.data.take(slots) for slots in level.unknowns.hessian_plan.diagonal)
    bad = np.flatnonzero((a <= 0.0) | (a * c - b * b_low <= 0.0))
    assert bad.tolist() == [level.unknowns.block[w]] and np.all(d > 0.0)
    assert two_grid.preconditioner(h) is None
    monkeypatch.setattr(disclat.solver, "_cg", lambda *args: pytest.fail("CG ran"))
    config, report = newton_minimize(level, LAW, start, two_grid=two_grid)
    # the first system dropped the two-grid, and every system was factored,
    # exactly as in a run without one
    assert report.converged and report.krylov_iters == [0] * report.iterations
    ref_config, ref = newton_minimize(level, LAW, start)
    assert config.tobytes() == ref_config.tobytes()
    assert report.energy == ref.energy


@pytest.mark.parametrize("phi", [PHI5, 2.0 * np.pi / 7.0], ids=["2pi/5", "2pi/7"])
def test_two_grid_step_is_inexact_descent_at_warm_start(phi):
    # the first Newton system of a sweep's N = 8 level, on the LU the N = 4
    # level hands over at its minimizer
    coarse, level = MirrorLevel(4, phi), MirrorLevel(8, phi)
    u_coarse, _ = newton_minimize(coarse, LAW, linear_init(coarse.graph, phi))
    two_grid = TwoGrid(hand_over(coarse, LAW, u_coarse),
                       prolongation_matrix(coarse, level), level.unknowns)
    u = prolong(coarse.graph, u_coarse, level.graph)
    h = assemble_hessian(level.graph, u, LAW, level.cmap, level.unknowns)
    g = assemble_gradient(level.graph, u, LAW, level.cmap, level.unknowns)
    s, resid, iterations = two_grid.solve(h, g)
    assert resid <= CG_FORCING * np.linalg.norm(g)
    assert resid == pytest.approx(np.linalg.norm(h @ s + g), rel=1e-12)
    assert g @ s < 0.0
    assert 1 <= iterations <= CG_MAXITER


def test_cg_solves_spd_system_within_cap():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    a = q @ np.diag(np.geomspace(1.0, 1e3, 12)) @ q.T
    b = rng.normal(size=12)
    tol = 1e-10 * np.linalg.norm(b)
    x, resid, iterations = _cg(a, b, lambda r: r / np.diag(a), tol)
    assert resid <= tol and 1 <= iterations <= CG_MAXITER
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=0.0, atol=tol)


@pytest.mark.parametrize("diag", [[4.0, 3.0, 2.0, 1.0, -1.0], [1.0, -3.0]])
def test_cg_rejects_indefinite_matrix(diag):
    # distinct eigenvalues and a right-hand side that meets each: no Krylov
    # space short of the whole one holds the solution, and CG over the whole
    # space with positive curvature throughout would make the matrix SPD
    a = np.diag(diag)
    assert _cg(a, np.ones(len(diag)), lambda r: r, 1e-12) is None


@pytest.mark.parametrize("psi", ["zero", "smoothed_abs"])
@pytest.mark.parametrize("phi", [PHI5, 2.0 * np.pi / 7.0], ids=["2pi/5", "2pi/7"])
def test_two_grid_preconditioner_is_spd_at_warm_start(phi, psi):
    # CG needs a symmetric positive definite preconditioner; check the dense
    # M^-1 at the prolonged warm start of N = 8, where a sweep first uses it,
    # on the LU of N = 4 and on the nested chain a sweep hands over above
    # experiments.COARSE_LU_MAX: the N = 4 level's own cycle, built on the
    # two-grid it ran with, around an LU at N = 2
    law = MaterialLaw(p=2.0, psi=psi)
    tiny, coarse, level = MirrorLevel(2, phi), MirrorLevel(4, phi), MirrorLevel(8, phi)
    u_tiny, _ = newton_minimize(tiny, law, linear_init(tiny.graph, phi))
    coarse_two_grid = TwoGrid(hand_over(tiny, law, u_tiny),
                              prolongation_matrix(tiny, coarse), coarse.unknowns)
    u_coarse, _ = newton_minimize(coarse, law, prolong(tiny.graph, u_tiny, coarse.graph),
                                  two_grid=coarse_two_grid)
    lu = hand_over(coarse, law, u_coarse)
    cycle = hand_over(coarse, law, u_coarse, coarse_two_grid)
    assert lu.__qualname__ == "SuperLU.solve"
    assert cycle.__qualname__.startswith("TwoGrid.preconditioner.")
    u = prolong(coarse.graph, u_coarse, level.graph)
    h = assemble_hessian(level.graph, u, law, level.cmap, level.unknowns)
    for coarse_solve in (lu, cycle):
        two_grid = TwoGrid(coarse_solve, prolongation_matrix(coarse, level), level.unknowns)
        apply = two_grid.preconditioner(h)
        m_inv = np.column_stack([apply(e) for e in np.eye(h.shape[0])])
        assert np.abs(m_inv - m_inv.T).max() <= 1e-12 * np.abs(m_inv).max()
        assert np.linalg.eigvalsh(0.5 * (m_inv + m_inv.T)).min() > 0.0
