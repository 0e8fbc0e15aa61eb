"""Newton minimization of the reduced energy.

Each iteration solves (H + tau*I) s = -g.  A run can be given a TwoGrid
preconditioner, which run_sweep builds for every level after the first:
damped 2x2 block-Jacobi smoothing around a coarse correction through the
LU of the coarser level's Hessian at its minimizer, with the gauge mode (a
global rotation, which costs no energy) projected out.  GMRES on it solves
H s = -g (tau = TAU0); it gives up after GMRES_MAXITER iterations, or earlier
when its observed residual reduction projects more.  The step it returns
must pass the tests of a factored step (residual bound, descent).  The
first failure drops the two-grid for the run.  Every Newton system without
a two-grid is factored afresh, so unless GMRES fails a sweep never factors
its finest lattice.

A fresh factorization (sparse LU, minimum-degree ordering) starts at
tau = TAU0 = 0, moves to 1e-8 and then grows tau TAU_GROWTH-fold whenever
the factorization fails, the solve is inaccurate, or s is not a descent
direction; past TAU_LIMIT the system is declared singular.  An Armijo
backtracking line search guarantees energy descent; a trial point whose
energy is not finite is rejected like one that fails the Armijo test.
Every function here takes the lattice as one lattice.Level (graph,
constraint map and reduced layout).  Admissibility is exact at every
iterate because all trial points go through Level.expand.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from .energy import (
    NonFiniteEnergyError,
    assemble_energy,
    assemble_gradient,
    assemble_hessian,
)
# unused here, but perfbench's tracer wraps solver.expand by this name
from .lattice import expand  # noqa: F401

TAU0 = 0.0
TAU_GROWTH = 10.0
TAU_LIMIT = 1e8
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_HALVINGS = 40
GMRES_MAXITER = 20
SMOOTH_OMEGA = 0.7
SMOOTH_SWEEPS = 2


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
    iteration: the GMRES iterations its linear solve took on the two-grid
    preconditioner (0 when it factored a fresh LU) and the residual norm of
    the Newton system it solved; factorized is derived from krylov_iters.
    quadratic_ratio lists g_{k+1}/g_k^2 over the final three steps.
    """

    def __init__(self):
        self.energy = []
        self.grad_inf = []
        self.step_norm = []
        self.tau = []
        self.krylov_iters = []
        self.lin_resid = []
        self.converged = False

    @property
    def iterations(self):
        return len(self.energy) - 1

    def record(self, energy, grad_inf, step_norm, tau):
        self.energy.append(float(energy))
        self.grad_inf.append(float(grad_inf))
        self.step_norm.append(float(step_norm))
        self.tau.append(float(tau))

    @property
    def factorized(self):
        """Per iteration, whether its linear solve factored a fresh LU."""
        return [k == 0 for k in self.krylov_iters]

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


def _factor_step(h, g):
    """Solve (H + tau I)s = -g by a fresh LU, escalating tau until the step
    is usable; returns (s, tau, resid)."""
    n = h.shape[0]
    tau = TAU0
    eye = sp.identity(n, format="csc")
    while True:
        try:
            # H is structurally symmetric: order on the pattern of A^T + A
            lu = splu(
                (h + tau * eye).tocsc() if tau else h.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
            )
            s = lu.solve(-g)
        except RuntimeError:
            lu = s = None
        if s is not None and np.all(np.isfinite(s)):
            resid = np.linalg.norm((h @ s) + tau * s + g)
            ok = resid <= 1e-10 * max(1.0, np.linalg.norm(g))
            descent = (g @ s) < 0.0
            if ok and descent:
                return s, tau, resid
        lu = None                     # free it before the next attempt
        tau = max(tau * TAU_GROWTH, 1e-8) if tau else 1e-8
        if tau > TAU_LIMIT:
            raise SingularSystemError(
                "no usable step up to tau = %g" % TAU_LIMIT
            )


def _gmres(matvec, b, precond, tol):
    """Right-preconditioned GMRES for A x = b from x = 0 (Saad & Schultz,
    1986), with modified Gram-Schmidt and Givens rotations.

    Stops when the true residual |b - A x| is at most tol and returns
    (x, resid, iterations).  Returns None after GMRES_MAXITER iterations,
    or from the second iteration on when the mean residual reduction so far
    projects more than GMRES_MAXITER iterations.
    """
    beta = np.linalg.norm(b)
    basis = [b / beta]
    zs = []                                 # precond(basis[j]): x = Z y
    hess = np.zeros((GMRES_MAXITER + 1, GMRES_MAXITER))
    cs = np.zeros(GMRES_MAXITER)
    sn = np.zeros(GMRES_MAXITER)
    rhs = np.zeros(GMRES_MAXITER + 1)
    rhs[0] = beta
    for j in range(GMRES_MAXITER):
        zs.append(precond(basis[j]))
        w = matvec(zs[j])
        for i in range(j + 1):
            hess[i, j] = w @ basis[i]
            w = w - hess[i, j] * basis[i]
        h_next = np.linalg.norm(w)
        for i in range(j):
            hess[i, j], hess[i + 1, j] = (
                cs[i] * hess[i, j] + sn[i] * hess[i + 1, j],
                -sn[i] * hess[i, j] + cs[i] * hess[i + 1, j],
            )
        r = np.hypot(hess[j, j], h_next)
        if r == 0.0 or not np.isfinite(r):
            return None
        cs[j], sn[j] = hess[j, j] / r, h_next / r
        hess[j, j] = r
        rhs[j + 1] = -sn[j] * rhs[j]
        rhs[j] = cs[j] * rhs[j]
        k = j + 1
        est = abs(rhs[k])                   # |b - A x_k| in exact arithmetic
        if est <= tol or h_next == 0.0:
            y = solve_triangular(hess[:k, :k], rhs[:k])
            x = np.column_stack(zs) @ y
            resid = np.linalg.norm(b - matvec(x))
            if resid <= tol:
                return x, resid, k
            if h_next == 0.0:
                return None
        elif k >= 2:
            rate = (est / beta) ** (1.0 / k)
            if rate >= 1.0 or k + np.log(tol / est) / np.log(rate) > GMRES_MAXITER:
                return None
        basis.append(w / h_next)
    return None


class TwoGrid:
    """Two-grid preconditioner for the Newton systems of a sweep level
    (Briggs, Henson & McCormick, A Multigrid Tutorial, 2000).

    coarse_lu factors the coarser level's reduced Hessian at its minimizer
    u_c, gauge is reduce(J u_c) there (see factor_minimizer), and
    prolongation is the reduced prolongation matrix P
    (experiments.prolongation_matrix).  prolong is linear and preserves
    energy on nested lattices, so P^T H_fine(P q) P = H_coarse(q): at the
    prolonged warm start the coarse LU is the exact Galerkin coarse solver.

    A rotation of the whole configuration costs no energy, so H_coarse(u_c)
    annihilates the gauge vector up to the size of the gradient; that
    direction is projected out of the restricted residual and of the coarse
    correction, where the nearly singular LU would blow it up.
    """

    def __init__(self, coarse_lu, gauge, prolongation):
        self.lu = coarse_lu
        self.gauge = gauge / np.linalg.norm(gauge)
        self.p = prolongation
        self.pt = prolongation.T.tocsr()

    def preconditioner(self, h):
        """v -> M^-1 v for the fine matrix h: SMOOTH_SWEEPS damped 2x2
        block-Jacobi sweeps (one block per free vertex), the coarse
        correction P LU^-1 P^T, and SMOOTH_SWEEPS sweeps again.  None when
        a diagonal block is not positive definite."""
        d = h.diagonal()
        a, c = d[0::2], d[1::2]
        b, b_low = h.diagonal(1)[0::2], h.diagonal(-1)[0::2]
        det = a * c - b * b_low
        if not (np.all(a > 0.0) and np.all(det > 0.0)):
            return None
        w = SMOOTH_OMEGA / det
        i00, i01, i10, i11 = w * c, -w * b, -w * b_low, w * a
        z = self.gauge

        def jacobi(r):
            out = np.empty_like(r)
            out[0::2] = i00 * r[0::2] + i01 * r[1::2]
            out[1::2] = i10 * r[0::2] + i11 * r[1::2]
            return out

        def apply(v):
            x = jacobi(v)
            for _ in range(SMOOTH_SWEEPS - 1):
                x += jacobi(v - h @ x)
            rc = self.pt @ (v - h @ x)
            rc -= (z @ rc) * z
            ec = self.lu.solve(rc)
            ec -= (z @ ec) * z
            x += self.p @ ec
            for _ in range(SMOOTH_SWEEPS):
                x += jacobi(v - h @ x)
            return x

        return apply


def factor_minimizer(level, law, config):
    """(LU of the reduced Hessian at config, reduce(J config)): the coarse
    half of a TwoGrid for the next finer level.  None when the LU fails."""
    h = assemble_hessian(level.graph, config, law, level.cmap, level.layout)
    try:
        lu = splu(h.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return None
    gauge = np.column_stack([-config[:, 1], config[:, 0]])    # J u
    return lu, level.reduce(gauge)


def _two_grid_step(h, g, precond):
    """(s, resid, krylov_iters) from GMRES on H s = -g, right-preconditioned
    by precond, or None when there is no preconditioner, GMRES fails or s
    is not a descent direction.  So a step it returns passes the tests of a
    factored one: the residual bound (which makes it finite) and descent."""
    if precond is None:
        return None
    gnorm = np.linalg.norm(g)
    # the second term keeps the final steps as accurate as an LU's
    tol = min(0.5e-10 * max(1.0, gnorm), 1e-6 * gnorm)
    found = _gmres(lambda v: h @ v, -g, precond, tol)
    if found is None or not (g @ found[0]) < 0.0:
        return None
    return found


def newton_minimize(level, law, init, opts=None, two_grid=None):
    """Minimize the reduced energy on level from an admissible config init.

    two_grid, a TwoGrid for this lattice, preconditions GMRES on every
    Newton system until GMRES first fails; every other system is factored
    afresh.

    Returns (configuration, SolveReport).  The report's converged flag is
    False when max_iter runs out before the reduced gradient infinity-norm
    drops to grad_tol.
    """
    if opts is None:
        opts = NewtonOptions()
    graph, cmap, layout = level.graph, level.cmap, level.layout
    q = level.reduce(init)

    def fval(qv):
        return assemble_energy(graph, level.expand(qv), law)

    def gval(qv):
        return assemble_gradient(graph, level.expand(qv), law, cmap, layout)

    report = SolveReport()
    f = fval(q)
    g = gval(q)
    gnorm = np.abs(g).max() if len(g) else 0.0
    report.record(f, gnorm, 0.0, 0.0)
    for _ in range(opts.max_iter):
        if gnorm <= opts.grad_tol:
            break
        h = None                       # free the last Hessian before the next
        h = assemble_hessian(graph, level.expand(q), law, cmap, layout)
        found = None
        if two_grid is not None:
            found = _two_grid_step(h, g, two_grid.preconditioner(h))
            if found is None:
                two_grid = None        # the first failure ends it for the run
        if found is not None:
            s, resid, krylov_iters = found
            tau = TAU0
        else:
            s, tau, resid = _factor_step(h, g)
            krylov_iters = 0
        report.record_solve(krylov_iters, resid)
        slope = g @ s
        t = 1.0
        # tiny slack absorbs roundoff when f sits at the minimum already
        slack = 1e-14 * (1.0 + abs(f))
        for _ in range(MAX_HALVINGS):
            try:
                f_try = fval(q + t * s)
            except NonFiniteEnergyError:
                f_try = np.inf            # outside the model: reject the trial
            if f_try <= f + ARMIJO_C * t * slope + slack:
                break
            t *= BACKTRACK
        else:
            t = 0.0  # no acceptable step; stop making progress
        step = t * s
        q = q + step
        f = fval(q)
        g = gval(q)
        gnorm = np.abs(g).max() if len(g) else 0.0
        report.record(f, gnorm, np.linalg.norm(step), tau)
        if np.linalg.norm(step) == 0.0:
            break
    report.converged = gnorm <= opts.grad_tol
    return level.expand(q), report
