"""Newton minimization of the reduced energy.

Each iteration solves (H + tau*I) s = -g on the level's unknowns: the
reduced ones of a lattice.Level, or the mirror-even half of a
lattice.MirrorLevel, on which run_sweep solves every level.  The gauge
mode, a global rotation that costs no energy, is mirror-odd, so the even
systems do not have it.  A run can be given a TwoGrid preconditioner,
which run_sweep builds for every level after the first: damped
block-Jacobi smoothing around a coarse correction through the coarse solve
the coarser level handed over (hand_over).  That coarse solve is the LU of
the coarser level's even Hessian at its minimizer or, above
experiments.COARSE_LU_MAX, the coarser level's own two-grid preconditioner
there; nested, these make a V-cycle with an LU only on a small level.  H
and the preconditioner are symmetric, so preconditioned CG on it solves
H s = -g (tau = 0) to a relative residual of CG_FORCING: an inexact Newton
step (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982), which
converges locally at least linearly at rate CG_FORCING.  The sweep's
Newton counts are those of exact solves, and CG buys no accuracy that the
next iteration would discard.  CG gives up after CG_MAXITER iterations,
or at non-positive curvature.  The step it returns must be a descent
direction.  The first failure drops the two-grid for the run.
TwoGrid.solve makes that attempt; every Newton system without a two-grid
is factored afresh, so unless CG fails a sweep never factors its finest
lattice.

A fresh factorization is a banded Cholesky: LAPACK's dpbsv on the lower
band of H + tau*I under a reverse Cuthill-McKee ordering (George & Liu,
Computer Solution of Large Sparse Positive Definite Systems, 1981), laid
out once per Hessian plan as a BandLayout.  When H + tau*I is not positive
definite, or the Cholesky step fails the tests, the same system goes to a
sparse LU (minimum-degree ordering, threshold pivoting at
DIAG_PIVOT_THRESH), so an indefinite system that the LU solves keeps the
LU's step.  The search starts at tau = 0, moves to 1e-8 and then
grows tau TAU_GROWTH-fold whenever neither factorization gives a finite,
accurate descent direction; past TAU_LIMIT the system is declared
singular.  An Armijo backtracking line search guarantees energy descent; a
trial point whose energy is not finite is rejected like one that fails the
Armijo test.  Every function here takes the lattice as one lattice.Level
(graph, constraint map, reduced layout and the unknowns).  Admissibility
is exact at every iterate because all trial points go through
Level.expand.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbsv
from scipy.sparse.linalg import splu

from .energy import (
    NonFiniteEnergyError,
    assemble_energy,
    assemble_gradient,
    assemble_hessian,
)
# unused here, but perfbench's tracer wraps solver.expand by this name
from .lattice import expand  # noqa: F401

TAU_GROWTH = 10.0
TAU_LIMIT = 1e8
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_HALVINGS = 40
CG_MAXITER = 20
# relative residual |H s + g| / |g| a CG step is solved to (inexact Newton)
CG_FORCING = 1e-4
SMOOTH_OMEGA = 0.7
SMOOTH_SWEEPS = 2
# SuperLU's threshold partial pivoting for indefinite Newton systems: 1.0, its
# default, leaves the symmetric ordering on the penalized law and fills
# several times more
DIAG_PIVOT_THRESH = 0.1
# the largest band a fresh factorization allocates, in 8-byte slots (1.07 GB)
BAND_MAX_SLOTS = 2**27


class SingularSystemError(RuntimeError):
    pass


class NewtonOptions:
    """Stopping rule of one Newton run."""

    def __init__(self, grad_tol=1e-10, max_iter=200):
        if not grad_tol > 0:              # NaN fails too
            raise ValueError("grad_tol must be positive")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.grad_tol = float(grad_tol)
        self.max_iter = int(max_iter)


class SolveReport:
    """Per-iteration trace of one Newton run.

    Arrays energy/grad_inf/step_norm/tau hold one entry per recorded row;
    row 0 is the initial state (step_norm and tau zero), row k the state
    after iteration k.  krylov_iters/lin_resid hold one entry per
    iteration: the CG iterations its linear solve took on the two-grid
    preconditioner (0 when it factored afresh) and the residual norm of
    the Newton system it solved.
    quadratic_ratio lists g_{k+1}/g_k^2 over the final three steps.
    stop_reason says why the run ended: "converged" (the reduced gradient
    reached grad_tol), "max_iter" (the iterations ran out first) or
    "stalled_line_search" (a step came out zero, as when the line search
    accepted no trial), or "singular" on the report that newton_minimize
    attaches as .report to the SingularSystemError it raises when no
    factorization gives a step; it is None until the run ends.
    """

    def __init__(self):
        self.energy = []
        self.grad_inf = []
        self.step_norm = []
        self.tau = []
        self.krylov_iters = []
        self.lin_resid = []
        self.converged = False
        self.stop_reason = None

    @property
    def iterations(self):
        return len(self.energy) - 1

    def record(self, energy, grad_inf, step_norm, tau):
        self.energy.append(float(energy))
        self.grad_inf.append(float(grad_inf))
        self.step_norm.append(float(step_norm))
        self.tau.append(float(tau))

    def record_solve(self, krylov_iters, lin_resid):
        self.krylov_iters.append(int(krylov_iters))
        self.lin_resid.append(float(lin_resid))

    @property
    def quadratic_ratio(self):
        g = self.grad_inf
        ratios = []
        for k in range(max(1, len(g) - 3), len(g)):
            ratios.append(g[k] / g[k - 1] ** 2 if g[k - 1] > 0 else np.inf)
        return ratios

    def write_csv(self, stream):
        stream.write("iter,energy,grad_inf,step_norm,tau\n")
        rows = zip(self.energy, self.grad_inf, self.step_norm, self.tau)
        for k, (e, g, s, t) in enumerate(rows):
            stream.write("%d,%.17g,%.17g,%.17g,%.17g\n" % (k, e, g, s, t))


class BandLayout:
    """The lower band of a symmetric sparse pattern under the reverse
    Cuthill-McKee ordering perm, for LAPACK's banded Cholesky.

    Built from a CSC matrix of that pattern without duplicate entries.
    Data slot src[k], at row perm[i] and column perm[j] with i >= j, goes to
    slot dst[k] = j*(width+1) + i-j of a C-ordered (n, width+1) array, whose
    transpose is the Fortran band ab[i-j, j] that dpbsv reads with lower=1.
    A band of BAND_MAX_SLOTS slots or more (2^27, 1.07 GB) raises
    SingularSystemError before anything is allocated: N = 256 has 33.8M
    slots, N = 512 would have 269.5M (2.16 GB), so the finest levels a sweep
    solves by CG are never factored.  Below the cap every slot fits int32.
    """

    def __init__(self, a):
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        n = a.shape[0]
        self.perm = reverse_cuthill_mckee(a, symmetric_mode=True)
        rank = np.empty(n, dtype=np.int64)
        rank[self.perm] = np.arange(n)
        i = rank[a.indices]
        j = rank[np.repeat(np.arange(n), np.diff(a.indptr))]
        lower = np.flatnonzero(i >= j)
        i, j = i[lower], j[lower]
        self.width = int((i - j).max(initial=0))
        if n * (self.width + 1) >= BAND_MAX_SLOTS:
            raise SingularSystemError(
                "band of n = %d rows and width %d has 2^27 slots or more; "
                "not factored" % (n, self.width))
        self.src = lower.astype(np.int32)
        self.dst = (j * (self.width + 1) + i - j).astype(np.int32)

    def solve(self, h, tau, b):
        """(H + tau I)^-1 b for a matrix h in this pattern, or None when
        H + tau I is not positive definite."""
        band = np.zeros((len(self.perm), self.width + 1))
        band.ravel()[self.dst] = h.data[self.src]
        band[:, 0] += tau
        # the transposed C array is the Fortran band: f2py copies neither
        _, x, info = dpbsv(band.T, b[self.perm], lower=1, overwrite_ab=1,
                           overwrite_b=1)
        if info != 0:
            return None
        s = np.empty_like(x)
        s[self.perm] = x
        return s


def _lu_solve(h, tau, b):
    """(H + tau I)^-1 b by a sparse LU, or None when the LU fails."""
    a = (h + tau * sp.identity(h.shape[0], format="csc")).tocsc() if tau else h
    try:
        # H is structurally symmetric: order on the pattern of A^T + A
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=DIAG_PIVOT_THRESH)
        return lu.solve(b)
    except RuntimeError:
        return None


def _factor_step(h, g, band):
    """Solve (H + tau I)s = -g by a fresh factorization, escalating tau until
    the step is usable; returns (s, tau, resid).

    At each tau the banded Cholesky of band, the BandLayout of h's pattern,
    comes first; when H + tau I is not positive definite or its step fails
    the residual or descent test, the sparse LU of the same matrix is tried
    before tau grows."""
    h = h.tocsc()
    bound = 1e-10 * max(1.0, np.linalg.norm(g))
    tau = 0.0
    while True:
        for solve in (band.solve, _lu_solve):
            s = solve(h, tau, -g)
            if s is not None and np.all(np.isfinite(s)):
                resid = np.linalg.norm((h @ s) + tau * s + g)
                if resid <= bound and (g @ s) < 0.0:
                    return s, tau, resid
        tau = tau * TAU_GROWTH if tau else 1e-8
        if tau > TAU_LIMIT:
            raise SingularSystemError(
                "no usable step up to tau = %g" % TAU_LIMIT
            )


def _cg(a, b, precond, tol):
    """Preconditioned conjugate gradients for A x = b from x = 0 (Hestenes &
    Stiefel, J. Res. NBS 49, 1952), for symmetric A and a symmetric
    positive definite preconditioner.

    Stops when the true residual |b - A x| is at most tol and returns
    (x, resid, iterations).  Returns None after CG_MAXITER iterations, or
    at non-positive curvature (p.Ap <= 0 or r.z <= 0, NaN included), where
    A or the preconditioner is not positive definite.
    """
    x = np.zeros_like(b)
    r = b
    z = precond(r)
    rz = r @ z
    p = z
    for k in range(1, CG_MAXITER + 1):
        ap = a @ p
        curvature = p @ ap
        if not (rz > 0.0 and curvature > 0.0):
            return None
        alpha = rz / curvature
        x = x + alpha * p
        r = r - alpha * ap
        if np.linalg.norm(r) <= tol:
            resid = np.linalg.norm(b - a @ x)
            if resid <= tol:
                return x, resid, k
        z = precond(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return None


class TwoGrid:
    """Two-grid preconditioner for the Newton systems of a sweep level
    (Briggs, Henson & McCormick, A Multigrid Tutorial, 2000), on the
    level's mirror-even unknowns (lattice.MirrorLayout).

    coarse_solve maps a coarse residual r to a correction e for the
    coarser level's even Hessian H_coarse at its minimizer (see
    hand_over), prolongation is the even prolongation matrix P
    (experiments.prolongation_matrix), and unknowns is the fine level's
    MirrorLayout, whose plan knows the slots of the diagonal blocks.
    prolong is linear and preserves energy on nested lattices, so
    P^T H_fine(P x) P = H_coarse(x): at the prolonged warm start an LU of
    H_coarse is the exact Galerkin coarse solver, and the coarser level's
    own preconditioner a symmetric approximation of it.  The residual is
    restricted by pt = P.T, a transposed view of P built once, so each
    level keeps one copy of P's arrays.
    The gauge mode, a global rotation that costs no energy, is mirror-odd,
    so the even systems do not have it.
    """

    def __init__(self, coarse_solve, prolongation, unknowns):
        self.coarse_solve = coarse_solve
        self.p = prolongation
        self.pt = prolongation.T
        self.unknowns = unknowns

    def preconditioner(self, h):
        """v -> M^-1 v for the fine matrix h: SMOOTH_SWEEPS damped
        block-Jacobi sweeps (a 2x2 block per pair, a 1x1 per single), the
        coarse correction P coarse_solve P^T, and SMOOTH_SWEEPS sweeps
        again.  None when a diagonal block is not positive definite."""
        a, b, b_low, c, d = (h.data.take(slots)
                             for slots in self.unknowns.hessian_plan.diagonal)
        det = a * c - b * b_low
        if not (np.all(a > 0.0) and np.all(det > 0.0) and np.all(d > 0.0)):
            return None
        w = SMOOTH_OMEGA / det
        i00, i01, i10, i11 = w * c, -w * b, -w * b_low, w * a
        i_single = SMOOTH_OMEGA / d
        n = 2 * len(a)
        # apply binds H, P, the coarse solve and the smoother's arrays, not
        # self: a chain of coarse solves keeps no coarse level's layout or plan
        p, pt, coarse_solve = self.p, self.pt, self.coarse_solve

        def jacobi(r):
            out = np.empty_like(r)
            x, y = r[0:n:2], r[1:n:2]
            out[0:n:2] = i00 * x + i01 * y
            out[1:n:2] = i10 * x + i11 * y
            out[n:] = i_single * r[n:]
            return out

        def apply(v):
            x = jacobi(v)
            for _ in range(SMOOTH_SWEEPS - 1):
                x += jacobi(v - h @ x)
            x += p @ coarse_solve(pt @ (v - h @ x))
            for _ in range(SMOOTH_SWEEPS):
                x += jacobi(v - h @ x)
            return x

        return apply

    def solve(self, h, g):
        """(s, resid, krylov_iters) from CG on H s = -g, preconditioned by
        preconditioner(h), or None when h has no preconditioner, CG fails or
        s is not a descent direction.  A step it returns is finite, a
        descent direction and inexact: resid = |H s + g| is at most
        CG_FORCING |g|, where a factored step meets 1e-10 max(1, |g|)."""
        precond = self.preconditioner(h)
        if precond is None:
            return None
        found = _cg(h, -g, precond, CG_FORCING * np.linalg.norm(g))
        if found is None or not (g @ found[0]) < 0.0:
            return None
        return found


def hand_over(level, law, config, two_grid=None):
    """The coarse solve of a TwoGrid for the next finer level, from the even
    Hessian H of the lattice.MirrorLevel level at config, its minimizer.

    It is two_grid.preconditioner(H) when two_grid, the TwoGrid this level
    ran with, is given and H has one: a cycle whose own coarse solve may be
    a cycle again, so the chain keeps each coarse level's H and P but
    factors only its coarsest level.  Otherwise it is the solve of the LU
    of H.  None when that LU fails.

    The LU stays a SuperLU factorization: TwoGrid solves with it about a
    dozen times per level it serves (30-50 times for the LU of N = 32 in a
    sweep to 2^-8, which the nested cycles use up to N = 256), where a
    banded solve is slower."""
    h = assemble_hessian(level.graph, config, law, level.cmap, level.unknowns)
    coarse_solve = None if two_grid is None else two_grid.preconditioner(h)
    if coarse_solve is None:
        try:
            coarse_solve = splu(h.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
        except RuntimeError:
            return None
    return coarse_solve


def newton_minimize(level, law, init, opts=None, two_grid=None):
    """Minimize the reduced energy on level from an admissible config init.

    Newton iterates on level.unknowns: the reduced unknowns of a Level, the
    mirror-even ones of a lattice.MirrorLevel, whose init must be even.
    Energy, gradient and Hessian are assembled on the unknowns' layout, so
    a MirrorLevel evaluates only the representative half of its cells and
    edges.  The stopping rule reads the infinity norm of the reduced
    gradient either way (level.grad_inf).

    two_grid, a TwoGrid for this lattice, solves every Newton system by
    TwoGrid.solve until that first fails; every other system is factored
    afresh.

    Each accepted iterate is expanded once: its energy, its gradient, the
    next Hessian and, for the last one, the returned configuration all come
    from that expansion, and each line-search trial expands its own point.

    Returns (configuration, SolveReport).  The report's last energy is that
    of the returned configuration, bit for bit.  Its converged flag is
    False when max_iter runs out or a step stalls before the reduced
    gradient infinity-norm drops to grad_tol; its stop_reason names which.
    A Newton system that BandLayout refuses or _factor_step cannot solve
    raises SingularSystemError, whose .report is the report so far, with
    stop_reason "singular".
    """
    if opts is None:
        opts = NewtonOptions()
    graph, cmap, unknowns = level.graph, level.cmap, level.unknowns
    q = level.reduce(init)
    report = SolveReport()
    u = level.expand(q)
    f = assemble_energy(graph, u, law, unknowns)
    g = assemble_gradient(graph, u, law, cmap, unknowns)
    gnorm = level.grad_inf(g)
    report.record(f, gnorm, 0.0, 0.0)
    for _ in range(opts.max_iter):
        if gnorm <= opts.grad_tol:
            break
        h = assemble_hessian(graph, u, law, cmap, unknowns)
        found = two_grid and two_grid.solve(h, g)
        if found:
            s, resid, krylov_iters = found
            tau = 0.0
        else:
            two_grid = None            # the first failure ends it for the run
            plan = unknowns.hessian_plan
            try:
                if plan.band is None:
                    plan.band = BandLayout(h)
                s, tau, resid = _factor_step(h, g, plan.band)
            except SingularSystemError as err:
                report.stop_reason = "singular"
                err.report = report
                raise
            krylov_iters = 0
        # the line search and the next gradient run without the Hessian
        del h
        report.record_solve(krylov_iters, resid)
        slope = g @ s
        t = 1.0
        # tiny slack absorbs roundoff when f sits at the minimum already
        slack = 1e-14 * (1.0 + abs(f))
        for _ in range(MAX_HALVINGS):
            try:
                f_try = assemble_energy(graph, level.expand(q + t * s), law, unknowns)
            except NonFiniteEnergyError:
                f_try = np.inf            # outside the model: reject the trial
            if f_try <= f + ARMIJO_C * t * slope + slack:
                break
            t *= BACKTRACK
        else:
            t = 0.0  # no acceptable step; stop making progress
        step = t * s
        q = q + step
        u = level.expand(q)
        f = assemble_energy(graph, u, law, unknowns)
        g = assemble_gradient(graph, u, law, cmap, unknowns)
        gnorm = level.grad_inf(g)
        report.record(f, gnorm, np.linalg.norm(step), tau)
        if np.linalg.norm(step) == 0.0:
            report.stop_reason = "stalled_line_search"
            break
    report.converged = gnorm <= opts.grad_tol
    if report.converged:
        report.stop_reason = "converged"
    elif report.stop_reason is None:
        report.stop_reason = "max_iter"
    return u, report
