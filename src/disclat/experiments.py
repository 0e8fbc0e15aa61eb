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
power-law exponents p_eps = log2((e_4eps - e_2eps)/(e_2eps - e_eps)).
"""

import numpy as np

from .analysis import triangle_dets
from .energy import assemble_energy
from .lattice import (
    DofLayout,
    LatticeGraph,
    build_constraints,
    expand,
    reduce_config,
    rot,
)
from .solver import NewtonOptions, newton_minimize

SQRT3 = np.sqrt(3.0)


def linear_matrix(phi, mode="det1"):
    """The 2x2 matrix of the admissible linear map for the given mode."""
    if mode == "det1":
        s = np.sin(phi)
        if s <= 0.0:
            raise ValueError("det1 mode needs phi in (0, pi), got %r" % phi)
        v = np.array([np.sqrt(np.sin(np.pi / 3.0) / s), 0.0])
    elif mode in ("edge", "edge_preserving"):
        v = np.array([1.0, 0.0])
    else:
        raise ValueError("unknown linear init mode %r" % mode)
    basis = np.column_stack([[1.0, 0.0], rot(np.pi / 3.0) @ [1.0, 0.0]])
    images = np.column_stack([v, rot(phi) @ v])
    return images @ np.linalg.inv(basis)


def linear_init(graph, phi, mode="det1"):
    """Admissible linear configuration u(x) = A x on all vertices."""
    return graph.pos @ linear_matrix(phi, mode).T


def fold_line_offset(graph, fold_number):
    """Distance from the origin to the fold chord, in the bisector direction."""
    return graph.eps * SQRT3 / 2.0 * (graph.n - fold_number)


def fold_reference(graph, fold_count):
    """Reference positions after fold_count successive chord reflections."""
    if not 0 <= fold_count <= graph.n - 1:
        raise ValueError(
            "fold count must lie in [0, N-1] = [0, %d], got %r"
            % (graph.n - 1, fold_count)
        )
    n0 = np.array([SQRT3 / 2.0, 0.5])      # corner bisector, normal to chords
    n2 = np.array([-SQRT3 / 2.0, 0.5])     # outward normal of the Gamma2 line
    pos = graph.pos.copy()
    tol = 1e-9 * graph.eps
    for fold in range(1, fold_count + 1):
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
    return pos


def folded_init(graph, phi, fold_count, mode="det1"):
    """Linear map composed with the folded reference, made exactly admissible
    by recomputing the slaved vertices from their masters."""
    amat = linear_matrix(phi, mode)
    u = fold_reference(graph, fold_count) @ amat.T
    cmap = build_constraints(graph, phi)
    layout = DofLayout(graph, cmap)
    return expand(reduce_config(u, layout), cmap, layout)


def prolong(coarse_graph, coarse_config, fine_graph):
    """Piecewise-linear interpolation onto the halved-spacing lattice.

    Fine vertex (i, j): both indices even -> the coarse vertex (i/2, j/2);
    otherwise the midpoint of the unique coarse edge whose midpoint it is.
    Exact on linear configurations.
    """
    if fine_graph.n != 2 * coarse_graph.n:
        raise ValueError(
            "fine lattice must halve the coarse spacing (N %d vs %d)"
            % (coarse_graph.n, fine_graph.n)
        )
    u = np.asarray(coarse_config, dtype=float)
    i, j = fine_graph.ij[:, 0], fine_graph.ij[:, 1]
    hi, hj, oi, oj = i // 2, j // 2, i % 2, j % 2
    # the coarse edge (a, b) whose midpoint (i, j) is: along e1 for odd/even,
    # along R60*e1 for even/odd, the cell diagonal for odd/odd; a == b for
    # even/even, where 0.5*(x + x) == x exactly
    cid = coarse_graph.vertex_id
    a = cid(hi + oi * oj, hj)
    b = cid(hi + oi * (1 - oj), hj + oj)
    return 0.5 * (u[a] + u[b])


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
    """Per-level results of one eps-halving sweep (lists indexed by level)."""

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
        """CSV rows: phi,eps_exp,energy,p_eps,min_det,nonpos_det_count,iters,converged."""
        out = []
        for k in range(len(self.eps_exps)):
            p = self.p_eps(k)
            out.append(
                (
                    self.phi,
                    self.eps_exps[k],
                    self.energies[k],
                    p,
                    self.min_dets[k],
                    self.nonpos_counts[k],
                    self.iterations[k],
                    self.converged[k],
                )
            )
        return out


def _solve_level(graph, phi, law, init, opts):
    cmap = build_constraints(graph, phi)
    layout = DofLayout(graph, cmap)
    init = expand(reduce_config(np.asarray(init, dtype=float), layout), cmap, layout)
    return newton_minimize(graph, law, cmap, layout, init, opts), cmap, layout


def run_sweep(
    phi,
    k_max,
    law,
    opts=None,
    k_min=1,
    cold_start=False,
    init_mode="det1",
    keep_configs=False,
):
    """Solve at eps = 2^-k for k = k_min..k_max with prolongation warm starts.

    cold_start=True restarts every level from the linear initializer instead
    (sensitivity study).  Solver failures propagate with the failing eps
    attached.
    """
    if opts is None:
        opts = NewtonOptions()
    record = SweepRecord(phi)
    prev_graph = None
    prev_config = None
    for k in range(k_min, k_max + 1):
        graph = LatticeGraph(2**k)
        if prev_config is None or cold_start:
            init = linear_init(graph, phi, init_mode)
        else:
            init = prolong(prev_graph, prev_config, graph)
        try:
            (config, report), cmap, layout = _solve_level(graph, phi, law, init, opts)
        except Exception as err:
            raise RuntimeError("sweep failed at eps = 2^-%d: %s" % (k, err)) from err
        dets = triangle_dets(graph, config)
        record.eps_exps.append(k)
        record.energies.append(assemble_energy(graph, config, law))
        record.iterations.append(report.iterations)
        record.min_dets.append(float(dets.min()))
        record.nonpos_counts.append(int(np.sum(dets <= 0.0)))
        record.converged.append(report.converged)
        record.reports.append(report)
        if keep_configs:
            record.configs[k] = config
        prev_graph, prev_config = graph, config
    return record


def run_fold_study(phi, law, eps_exp=2, max_folds=3, opts=None, init_mode="det1"):
    """Solve from folded starts L = 0..max_folds at eps = 2^-eps_exp.

    Returns a list of dicts with keys folds, energy, min_det,
    nonpos_det_count, iterations, converged, config.
    """
    if opts is None:
        opts = NewtonOptions()
    graph = LatticeGraph(2**eps_exp)
    results = []
    for folds in range(max_folds + 1):
        init = folded_init(graph, phi, folds, init_mode)
        (config, report), cmap, layout = _solve_level(graph, phi, law, init, opts)
        dets = triangle_dets(graph, config)
        results.append(
            {
                "folds": folds,
                "energy": assemble_energy(graph, config, law),
                "min_det": float(dets.min()),
                "nonpos_det_count": int(np.sum(dets <= 0.0)),
                "iterations": report.iterations,
                "converged": report.converged,
                "config": config,
                "report": report,
            }
        )
    return results
