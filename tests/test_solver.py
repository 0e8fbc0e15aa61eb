"""Newton loop: descent, stationarity, re-entry, determinism, failure modes."""

import io

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import disclat.solver
from disclat.energy import MaterialLaw, NonFiniteEnergyError
from disclat.experiments import linear_init, prolong, prolongation_matrix
from disclat.lattice import Level
from disclat.solver import (
    NewtonOptions,
    TwoGrid,
    _factor_step,
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
    assert report.converged
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
    assert report2.converged
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
    assert not report.converged
    assert report.iterations == 1


def test_newton_step_regularizes_singular_hessian():
    h = sp.csr_matrix((2, 2))
    g = np.array([1.0, 0.0])
    s, tau, _ = _factor_step(h, g)
    assert tau > 0.0                      # had to regularize
    assert g @ s < 0.0                    # still a descent direction


def test_report_csv_shape():
    _, _, report = solve()
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "iter,energy,grad_inf,step_norm,tau"
    assert len(lines) == report.iterations + 2     # header + rows incl. iter 0
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == 0.0


def test_line_search_rejects_nonfinite_trial(monkeypatch):
    _, _, clean = solve()
    real = disclat.solver.assemble_energy
    calls = []

    def first_full_step_breaks_model(graph, config, law):
        calls.append(None)
        if len(calls) == 2:               # call 1 is the initial energy
            raise NonFiniteEnergyError("energy is not finite")
        return real(graph, config, law)

    monkeypatch.setattr(disclat.solver, "assemble_energy", first_full_step_breaks_model)
    _, _, report = solve()
    assert report.converged
    # the rejected full step was halved, and the descent went on from there
    assert report.energy[1] < report.energy[0]
    assert report.step_norm[1] < clean.step_norm[1]
    assert abs(report.energy[-1] - clean.energy[-1]) <= 1e-12 * clean.energy[-1]


def test_stale_two_grid_falls_back_to_fresh_factorization(monkeypatch):
    coarse, level = Level(4, PHI5), Level(8, PHI5)
    u_coarse = linear_init(coarse.graph, PHI5)
    u = prolong(coarse.graph, u_coarse, level.graph)
    # a coarse correction from the LU of an unrelated SPD matrix
    stale = splu(sp.diags(np.linspace(1.0, 1e3, coarse.layout.n_reduced), format="csc"))
    gauge = coarse.reduce(np.column_stack([-u_coarse[:, 1], u_coarse[:, 0]]))
    two_grid = TwoGrid(stale, gauge, prolongation_matrix(coarse, level))
    real = disclat.solver._gmres
    tried = []

    def spy(*args):
        tried.append(real(*args))
        return tried[-1]

    monkeypatch.setattr(disclat.solver, "_gmres", spy)
    config, report = newton_minimize(level, LAW, u, two_grid=two_grid)
    # GMRES ran once and gave up; the failure ends the two-grid for the run
    assert tried == [None]
    assert report.converged
    assert report.krylov_iters == [0] * report.iterations
    assert max(report.lin_resid) <= 1e-10
    # every system was factored, exactly as in a run without a two-grid
    ref_config, ref = newton_minimize(level, LAW, u)
    assert np.array_equal(config, ref_config)
    assert report.energy == ref.energy
