"""Initial conditions and the two numerical studies: the eps-halving sweep
and the folded-start study.

Linear starts.  linear_init builds u(x) = A x with A fixed by A e1 = v and
A R60 e1 = R_phi v.  Mode "det1" scales v = s*e1 with s = sqrt(sin(pi/3)/
sin(phi)) so that det A = |v|^2 sin(phi)/sin(pi/3) = 1; mode "edge" keeps
v = e1 (bond-preserving along Gamma1).

Folds.  fold_reference applies L successive folds to the reference
positions.  The crease of fold l is kinked: it runs down the Gamma2 edge by
one step, along the chord joining the Gamma1 and Gamma2 lattice points at
arc distance (N-l)*eps, then out to the boundary along a Gamma1-adjacent
edge.  Concretely each fold (i) tucks any material hanging beyond the
Gamma2 line back across it, (ii) reflects everything strictly beyond the
chord across the chord, and (iii) reflects material pushed below the
Gamma1 line back above it.  Steps (i) and (iii) are the double folds at
the crease kinks; together they keep the Gamma2 positions equal to the
rotated Gamma1 positions (R_60-pairing) after every fold, at the price of
one cell flap protruding past Gamma2.  Composing with the linear map and
re-expanding yields an exactly admissible folded start.

Sweep.  run_sweep solves at eps = 2^-1 from the det1 linear start, then
halves eps, warm-starting each level by prolongation of the previous
minimizer, and records energies, determinant diagnostics and the empirical
power-law exponents p_eps = log2((e_4eps - e_2eps)/(e_2eps - e_eps)); it
keeps the previous level only until the next level's start and prolongation
matrix are built.  Its start and prolong are mirror-even, so
every level solves on its even half (lattice.MirrorLevel).  The fold
study's folded starts are not, and it uses one full lattice.Level.
"""

import contextlib
import ctypes

import numpy as np
import scipy.sparse as sp

# assemble_energy, triangle_dets, DofLayout, LatticeGraph, build_constraints,
# expand and reduce_config are unused here, but perfbench's tracer wraps them
# on this module by name, and its output workload builds
# experiments.LatticeGraph
from .analysis import det_summary, triangle_dets  # noqa: F401
from .energy import assemble_energy  # noqa: F401
from .lattice import (  # noqa: F401
    SQRT3,
    DofLayout,
    LatticeGraph,
    Level,
    MirrorLevel,
    build_constraints,
    expand,
    reduce_config,
    rot,
)
from .solver import TwoGrid, hand_over, newton_minimize

# the largest sweep level that hands its minimizer over as an LU; every finer
# one hands over its own two-grid cycle, since the LU's fill outgrows the
# level (2M entries at N = 128) and it was the sweep's largest object
COARSE_LU_MAX = 32


def linear_matrix(phi, mode="det1"):
    """The 2x2 matrix of the admissible linear map for the given mode."""
    if mode == "det1":
        s = np.sin(phi)
        if s <= 0.0:
            raise ValueError("det1 mode needs phi in (0, pi), got %r" % phi)
        v = np.array([np.sqrt(np.sin(np.pi / 3.0) / s), 0.0])
    elif mode == "edge":
        v = np.array([1.0, 0.0])
    else:
        raise ValueError("unknown linear init mode %r" % mode)
    basis = np.column_stack([[1.0, 0.0], rot(np.pi / 3.0) @ [1.0, 0.0]])
    images = np.column_stack([v, rot(phi) @ v])
    return images @ np.linalg.inv(basis)


def linear_init(graph, phi, mode="det1"):
    """Admissible linear configuration u(x) = A x on all vertices."""
    return graph.positions() @ linear_matrix(phi, mode).T


def fold_line_offset(graph, fold_number):
    """Distance from the origin to the fold chord, in the bisector direction."""
    return graph.eps * SQRT3 / 2.0 * (graph.n - fold_number)


def _fold(graph, pos, fold):
    """Apply fold number fold to the positions pos, in place."""
    n0 = np.array([SQRT3 / 2.0, 0.5])      # corner bisector, normal to chords
    n2 = np.array([-SQRT3 / 2.0, 0.5])     # outward normal of the Gamma2 line
    tol = 1e-9 * graph.eps
    # tuck the flap left hanging past Gamma2 by the previous fold
    over = pos @ n2
    beyond = over > tol
    pos[beyond] -= 2.0 * over[beyond, None] * n2
    # main fold across the chord
    signed = pos @ n0 - fold_line_offset(graph, fold)
    beyond = signed > tol
    pos[beyond] -= 2.0 * signed[beyond, None] * n0
    # the chord fold pushes the Gamma1 tail below y = 0; fold it back up
    below = pos[:, 1] < -tol
    pos[below, 1] = -pos[below, 1]


def fold_reference(graph, fold_count):
    """Reference positions after fold_count successive chord reflections."""
    if not 0 <= fold_count <= graph.n - 1:
        raise ValueError(
            "fold count must lie in [0, N-1] = [0, %d], got %r"
            % (graph.n - 1, fold_count)
        )
    pos = graph.pos.copy()
    for fold in range(1, fold_count + 1):
        _fold(graph, pos, fold)
    return pos


def folded_init(graph, phi, fold_count, level=None, reference=None):
    """The det1 linear map composed with the folded reference, made exactly
    admissible by recomputing the slaved vertices from their masters.

    level, when given, must be the Level of (graph.n, phi); otherwise one
    is built here.  reference, when given, must be
    fold_reference(graph, fold_count), which run_fold_study carries from one
    start to the next; otherwise it is computed here.
    """
    amat = linear_matrix(phi)
    if reference is None:
        reference = fold_reference(graph, fold_count)
    u = reference @ amat.T
    if level is None:
        level = Level(graph.n, phi)
    return level.expand(level.reduce(u))


def _coarse_ends(coarse_graph, fine_graph):
    """The coarse vertices a, b whose midpoint each fine vertex sits at.

    Fine vertex (i, j): both indices even -> a == b, the coarse vertex
    (i/2, j/2); otherwise the ends of the unique coarse edge whose midpoint
    it is.
    """
    if fine_graph.n != 2 * coarse_graph.n:
        raise ValueError(
            "fine lattice must halve the coarse spacing (N %d vs %d)"
            % (coarse_graph.n, fine_graph.n)
        )
    i, j = fine_graph.ij[:, 0], fine_graph.ij[:, 1]
    hi, hj, oi, oj = i // 2, j // 2, i % 2, j % 2
    # the coarse edge (a, b) whose midpoint (i, j) is: along e1 for odd/even,
    # along R60*e1 for even/odd, the cell diagonal for odd/odd
    cid = coarse_graph.vertex_id
    return cid(hi + oi * oj, hj), cid(hi + oi * (1 - oj), hj + oj)


def prolong(coarse_graph, coarse_config, fine_graph):
    """Piecewise-linear interpolation onto the halved-spacing lattice.

    Every fine vertex takes the mean of its two coarse ends (_coarse_ends);
    0.5*(x + x) == x exactly where they coincide.  Exact on linear
    configurations.
    """
    a, b = _coarse_ends(coarse_graph, fine_graph)
    u = np.asarray(coarse_config, dtype=float)
    return 0.5 * (u.take(a, axis=0) + u.take(b, axis=0))


def prolongation_matrix(coarse, fine):
    """prolong between two MirrorLevels on their even unknowns, as a sparse
    matrix P (CSR): P @ x == fine.reduce(prolong(coarse.graph,
    coarse.expand(x), fine.graph)) up to roundoff.

    With u(v) = A_v x on each level (MirrorLayout.maps), the fine block of
    vertex v takes 0.5 A_v^T A_w x_w from each of its two coarse ends w; a
    single's unused second number and the pinned origin drop out.
    """
    fu, cu = fine.unknowns, coarse.unknowns
    owners = fu.owners
    frames = fu.maps().take(owners, axis=0).swapaxes(1, 2)
    coarse_maps = cu.maps()
    row_block = np.arange(len(owners))
    rows, cols, vals = [], [], []
    for ends in _coarse_ends(coarse.graph, fine.graph):
        w = ends.take(owners)
        col_block = cu.block.take(w)
        coeff = 0.5 * frames @ coarse_maps.take(w, axis=0)
        for r in range(2):
            for c in range(2):
                keep = ((col_block >= 0) & (coeff[:, r, c] != 0.0)
                        & ((r == 0) | (row_block < fu.n_pairs))
                        & ((c == 0) | (col_block < cu.n_pairs)))
                rows.append(_even_index(row_block[keep], r, fu.n_pairs))
                cols.append(_even_index(col_block[keep], c, cu.n_pairs))
                vals.append(coeff[keep, r, c])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fu.n_reduced, cu.n_reduced))


def _even_index(block, c, n_pairs):
    """Place of number c of each block in a MirrorLayout's even vector."""
    return np.where(block < n_pairs, 2 * block + c, n_pairs + block)


def estimate_rate(e_eps, e_2eps, e_4eps):
    """Empirical power-law exponent from three energies at eps, 2eps, 4eps."""
    num = e_4eps - e_2eps
    den = e_2eps - e_eps
    if den == 0.0:
        raise NonMonotoneError("equal energies, rate undefined")
    ratio = num / den
    if ratio <= 0.0:
        raise NonMonotoneError("energy differences change sign (ratio %g)" % ratio)
    return np.log2(ratio)


class NonMonotoneError(RuntimeError):
    pass


class SweepRecord:
    """Per-level results of one eps-halving sweep (lists indexed by level).
    rows() are the rows of its CSV, whose header is COLUMNS."""

    COLUMNS = "phi,eps_exp,energy,p_eps,min_det,nonpos_det_count,iters,converged"

    def __init__(self, phi):
        self.phi = phi
        self.eps_exps = []
        self.energies = []
        self.iterations = []
        self.min_dets = []
        self.nonpos_counts = []
        self.converged = []
        self.reports = []
        self.configs = {}

    def p_eps(self, level_index):
        """Rate for the level at eps_exps[level_index] (needs two coarser
        levels); None when not defined."""
        if level_index < 2:
            return None
        try:
            return estimate_rate(
                self.energies[level_index],
                self.energies[level_index - 1],
                self.energies[level_index - 2],
            )
        except NonMonotoneError:
            return None

    def rows(self):
        columns = zip(self.eps_exps, self.energies, self.min_dets,
                      self.nonpos_counts, self.iterations, self.converged)
        return [(self.phi, k, e, self.p_eps(i), d, c, it, conv)
                for i, (k, e, d, c, it, conv) in enumerate(columns)]


def run_sweep(phi, k_max, law, opts=None, cold_start=False, keep_configs=False):
    """Solve at eps = 2^-k for k = 1..k_max with prolongation warm starts.

    Each level but the last hands the next one the coarse solve of a
    two-grid preconditioner (solver.hand_over, solver.TwoGrid), and the
    next level solves its Newton systems by CG on it, so the finest lattice
    is never factored.  A level of N <= COARSE_LU_MAX hands over the LU of
    its reduced Hessian at its minimizer; a finer one hands over its own
    two-grid preconditioner there, so the nested cycles factor no level
    above COARSE_LU_MAX, unless a level ran without a two-grid or its
    Hessian has no preconditioner.  Each level's energy is the last one its
    SolveReport recorded, and its determinant diagnostics come from one
    analysis.det_summary of its minimizer.  cold_start=True restarts every
    level from the det1 linear initializer instead (sensitivity study).  Solver
    failures propagate with the failing eps attached.  It first returns the
    C heap's free pages to the OS (glibc only), so its peak memory is its
    own.  Raises ValueError before any solve unless k_max >= 1.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1, got %r" % k_max)
    record = SweepRecord(phi)
    # glibc keeps freed heap pages resident while a small live block sits
    # above them; hand them back so the peak does not depend on earlier work
    with contextlib.suppress(AttributeError, OSError, TypeError):
        ctypes.CDLL(None).malloc_trim(0)
    prev = config = coarse = None    # the previous level, its minimizer
    for k in range(1, k_max + 1):
        level = MirrorLevel(2**k, phi)
        if prev is None or cold_start:
            init = linear_init(level.graph, phi)
        else:
            init = prolong(prev.graph, config, level.graph)
        try:
            two_grid = None if coarse is None else TwoGrid(
                coarse, prolongation_matrix(prev, level), level.unknowns
            )
            # with the start and P built, the coarser level and its
            # minimizer go: the chain of coarse solves keeps only H and P
            prev = config = coarse = None
            config, report = newton_minimize(level, law, init, opts, two_grid)
            # the hand-over runs before the finer Level is built: building
            # that first, so that hand_over could return the TwoGrid itself,
            # raised the sweep's peak RSS from about 156 to 163 MB
            if k < k_max:
                coarse = hand_over(level, law, config,
                                   two_grid if level.n > COARSE_LU_MAX else None)
        except Exception as err:
            raise RuntimeError("sweep failed at eps = 2^-%d: %s" % (k, err)) from err
        min_det, nonpos = det_summary(level.graph, config)
        record.eps_exps.append(k)
        record.energies.append(report.energy[-1])
        record.iterations.append(report.iterations)
        record.min_dets.append(min_det)
        record.nonpos_counts.append(nonpos)
        record.converged.append(report.converged)
        record.reports.append(report)
        if keep_configs:
            record.configs[k] = config
        prev = level
    return record


def run_fold_study(phi, law, eps_exp, max_folds, opts=None):
    """Solve from folded starts L = 0..max_folds at eps = 2^-eps_exp.

    Returns a list of dicts with keys folds, energy, min_det,
    nonpos_det_count, iterations, converged, config, report; energy is the
    last one the report recorded.  Raises ValueError before any solve
    unless N = 2^eps_exp is an integer >= 1 and 0 <= max_folds <= N - 1.
    """
    level = Level(2**eps_exp, phi)
    if not 0 <= max_folds <= level.n - 1:
        raise ValueError(
            "max_folds must lie in [0, N-1] = [0, %d], got %r"
            % (level.n - 1, max_folds)
        )
    results = []
    # each start folds the previous start's reference once more
    reference = fold_reference(level.graph, 0)
    for folds in range(max_folds + 1):
        if folds:
            _fold(level.graph, reference, folds)
        init = folded_init(level.graph, phi, folds, level, reference)
        config, report = newton_minimize(level, law, init, opts)
        min_det, nonpos = det_summary(level.graph, config)
        results.append(
            {
                "folds": folds,
                "energy": report.energy[-1],
                "min_det": min_det,
                "nonpos_det_count": nonpos,
                "iterations": report.iterations,
                "converged": report.converged,
                "config": config,
                "report": report,
            }
        )
    return results
