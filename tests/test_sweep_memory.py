"""Memory guards for the sweep's solve: the even Hessian's transient, and
what the Newton loop and the two-grid chain keep alive.

The transients are tracemalloc peaks above the memory at entry, less the
result, on the det1 start at N = 128.  Their bounds come from the
measurement of the kernels as they stand (see each test), with room for a
few small temporaries; the kernels they replaced fail them.
"""

import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from disclat import experiments, solver
from disclat.energy import MaterialLaw, _bond_hessians, assemble_hessian
from disclat.experiments import folded_init, linear_init, prolong, prolongation_matrix
from disclat.lattice import Level, MirrorLevel
from disclat.solver import TwoGrid, hand_over, newton_minimize

PHI5 = 2.0 * np.pi / 5.0
PHI7 = 2.0 * np.pi / 7.0
LAW = MaterialLaw(p=2.0)


def traced(fn):
    """(result, peak of traced memory above entry) of fn()."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("phi", [PHI5, PHI7], ids=["2pi/5", "2pi/7"])
def test_even_hessian_transient_is_bounded(phi):
    # measured at N = 128: the kernel's transient is 1.25 times its blocks
    # (the unit vectors, along, across and one scratch array per edge; the
    # former kernel 3.25), the whole assembly's 0.74 times the matrix data:
    # the plan's stack (0.61), into whose first rows the kernel writes the
    # blocks, and the buffers of the final gather.  It was 1.10 while the
    # blocks were a separate array alive beside the stack, and 1.37 before
    level = MirrorLevel(128, phi)
    u = level.expand(level.reduce(linear_init(level.graph, phi)))
    args = (level.graph, u, LAW, level.cmap, level.unknowns)
    assemble_hessian(*args)                         # the plan, built once
    # an intp gather would be as large as the matrix data
    assert level.unknowns.hessian_plan.gather.dtype == np.int32
    blocks, peak = traced(lambda: _bond_hessians(level.graph, u, LAW, level.unknowns))
    assert peak - blocks.nbytes < 1.5 * blocks.nbytes, (peak, blocks.nbytes)
    del blocks
    # the path assemble_hessian runs: the blocks written into the first rows
    # of the plan's stack, allocated before entry, so the whole peak is the
    # kernel's temporaries, measured at 2.00 times the blocks (795 KB at
    # both angles).  The margin, 0.125 times the blocks (50 KB), is half of
    # one more per-edge float, so such an array or a copy of the blocks fails
    plan = level.unknowns.hessian_plan
    stack = plan.stack()
    blocks, peak = traced(lambda: _bond_hessians(level.graph, u, LAW, level.unknowns,
                                                 stack[:plan.n_rep]))
    assert blocks.base is stack
    assert peak < 2.125 * blocks.nbytes, (peak, blocks.nbytes)
    del blocks, stack
    h, peak = traced(lambda: assemble_hessian(*args))
    assert peak - h.data.nbytes < 0.85 * h.data.nbytes, (peak, h.data.nbytes)


def test_coarse_layout_is_freed_while_its_coarse_solve_lives():
    # the chain of coarse solves keeps each coarse level's H and P, not its
    # MirrorLayout and Hessian plan
    coarse, level = MirrorLevel(4, PHI5), MirrorLevel(8, PHI5)
    coarse_config, _ = newton_minimize(coarse, LAW, linear_init(coarse.graph, PHI5))
    two_grid = TwoGrid(hand_over(coarse, LAW, coarse_config),
                       prolongation_matrix(coarse, level), level.unknowns)
    config, report = newton_minimize(level, LAW, prolong(coarse.graph, coarse_config, level.graph),
                                     None, two_grid)
    assert report.converged and sum(report.krylov_iters) > 0
    solve = hand_over(level, LAW, config, two_grid)
    r = np.random.default_rng(0).normal(size=level.unknowns.n_reduced)
    expected = solve(r)
    layout, plan = weakref.ref(level.unknowns), weakref.ref(level.unknowns.hessian_plan)
    del level, two_grid, config
    assert layout() is None and plan() is None
    assert np.array_equal(solve(r), expected)


@pytest.mark.parametrize("case", ["factored", "two-grid"])
def test_newton_holds_no_hessian_during_its_line_search(monkeypatch, case):
    if case == "factored":
        level = Level(8, PHI7)
        init, two_grid = folded_init(level.graph, PHI7, 3, level), None
    else:
        coarse, level = MirrorLevel(8, PHI5), MirrorLevel(16, PHI5)
        coarse_config, _ = newton_minimize(coarse, LAW, linear_init(coarse.graph, PHI5))
        two_grid = TwoGrid(hand_over(coarse, LAW, coarse_config),
                           prolongation_matrix(coarse, level), level.unknowns)
        init = prolong(coarse.graph, coarse_config, level.graph)
    hessians, live = [], []
    real_hessian, real_energy = solver.assemble_hessian, solver.assemble_energy

    def hessian(*args):
        h = real_hessian(*args)
        hessians.append(weakref.ref(h))
        return h

    def energy(*args):
        live.append(sum(ref() is not None for ref in hessians))
        return real_energy(*args)

    monkeypatch.setattr(solver, "assemble_hessian", hessian)
    monkeypatch.setattr(solver, "assemble_energy", energy)
    _, report = newton_minimize(level, LAW, init, None, two_grid)
    assert report.converged and len(hessians) == report.iterations
    assert (sum(report.krylov_iters) > 0) == (two_grid is not None)
    # an energy per trial point and per accepted iterate, none with a Hessian
    assert len(live) > 2 * report.iterations and not any(live), live


# CPython 3.11 and later move a call's positional arguments into the
# callee's frame; 3.10 keeps them on the caller's stack until it returns
moves_arguments = pytest.mark.skipif(sys.version_info < (3, 11),
                                     reason="the caller's stack holds the start")


@moves_arguments
@pytest.mark.parametrize("case", ["factored", "two-grid"])
def test_newton_keeps_no_start_or_step_at_its_next_hessian(monkeypatch, case):
    # the start is dead once reduced, and the previous iteration's step at
    # every Hessian after the first: the solve's step by weakref, and the
    # names of the step, its direction and the solve's result in the frame
    coarse, level = MirrorLevel(64, PHI5), MirrorLevel(128, PHI5)
    coarse_config, _ = newton_minimize(coarse, LAW, linear_init(coarse.graph, PHI5))
    two_grid = None if case == "factored" else TwoGrid(
        hand_over(coarse, LAW, coarse_config), prolongation_matrix(coarse, level),
        level.unknowns)
    start = [prolong(coarse.graph, coarse_config, level.graph)]
    refs, live = {"start": weakref.ref(start[0])}, []
    real_hessian = solver.assemble_hessian

    def hessian(*args):
        bound = {"init", "s", "step", "found"} & set(sys._getframe(1).f_locals)
        live.append(sorted(bound | {name for name, ref in refs.items() if ref() is not None}))
        return real_hessian(*args)

    def keeping_step(solve):
        def wrapped(*args):
            found = solve(*args)
            if found:
                refs["step"] = weakref.ref(found[0])
            return found
        return wrapped

    monkeypatch.setattr(solver, "assemble_hessian", hessian)
    monkeypatch.setattr(solver, "_factor_step", keeping_step(solver._factor_step))
    if two_grid is not None:
        monkeypatch.setattr(two_grid, "solve", keeping_step(two_grid.solve))
    _, report = newton_minimize(level, LAW, start.pop(), None, two_grid)
    assert report.converged and len(live) == report.iterations >= 2
    assert (sum(report.krylov_iters) > 0) == (two_grid is not None)
    assert "step" in refs and live == [[]] * len(live), live


@moves_arguments
def test_sweep_holds_no_start_while_a_level_solves(monkeypatch):
    real_newton, real_hessian = experiments.newton_minimize, solver.assemble_hessian
    starts, live = [], []

    def newton(level, law, init, opts, two_grid):
        # hand the start on with no name or argument tuple here to keep it
        starts.append(weakref.ref(init))
        handed = [init]
        del init
        return real_newton(level, law, handed.pop(), opts, two_grid)

    def hessian(*args):
        live.append(starts[-1]() is not None)
        return real_hessian(*args)

    monkeypatch.setattr(experiments, "newton_minimize", newton)
    monkeypatch.setattr(solver, "assemble_hessian", hessian)
    rec = experiments.run_sweep(PHI7, 6, LAW)
    assert all(rec.converged) and len(starts) == 6
    # every Newton Hessian and every hand-over's but the last level's
    assert len(live) == sum(rec.iterations) + 5 and not any(live), live
