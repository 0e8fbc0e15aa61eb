"""Newton minimization of the reduced energy.

Each iteration solves (H + tau*I) s = -g with a sparse LU factorization.
tau starts at tau0 every iteration and grows by tau_growth whenever the
factorization fails, the solve is inaccurate, or s is not a descent
direction; past tau = 1e8 the system is declared singular.  An Armijo
backtracking line search (optional, on by default) guarantees energy
descent; a trial point whose energy is not finite is rejected like one
that fails the Armijo test.  Admissibility is exact at every iterate
because all trial points go through expand().
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .energy import (
    NonFiniteEnergyError,
    assemble_energy,
    assemble_gradient,
    assemble_hessian,
)
from .lattice import expand

TAU_LIMIT = 1e8


class SingularSystemError(RuntimeError):
    pass


class NewtonOptions:
    def __init__(
        self,
        grad_tol=1e-10,
        max_iter=200,
        tau0=0.0,
        tau_growth=10.0,
        line_search=True,
        armijo_c=1e-4,
        backtrack=0.5,
        max_halvings=40,
    ):
        if grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.grad_tol = float(grad_tol)
        self.max_iter = int(max_iter)
        self.tau0 = float(tau0)
        self.tau_growth = float(tau_growth)
        self.line_search = bool(line_search)
        self.armijo_c = float(armijo_c)
        self.backtrack = float(backtrack)
        self.max_halvings = int(max_halvings)

    @classmethod
    def plain(cls, **kw):
        """Undamped Newton: no line search, no regularization fallback."""
        kw.setdefault("line_search", False)
        opts = cls(**kw)
        opts._plain = True
        return opts


def _is_plain(opts):
    return getattr(opts, "_plain", False)


class SolveReport:
    """Per-iteration trace of one Newton run.

    Arrays energy/grad_inf/step_norm/tau hold one entry per recorded row;
    row 0 is the initial state (step_norm and tau zero), row k the state
    after iteration k.  quadratic_ratio lists g_{k+1}/g_k^2 over the final
    three steps.
    """

    def __init__(self):
        self.energy = []
        self.grad_inf = []
        self.step_norm = []
        self.tau = []
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


def _newton_step(h, g, opts):
    """Solve (H + tau I)s = -g, escalating tau until the step is usable.

    Returns (s, tau).  In plain mode tau stays at tau0 and failures raise.
    """
    n = h.shape[0]
    tau = opts.tau0
    eye = sp.identity(n, format="csc")
    plain = _is_plain(opts)
    while True:
        try:
            # H is structurally symmetric: order on the pattern of A^T + A
            lu = splu(
                (h + tau * eye).tocsc() if tau else h.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
            )
            s = lu.solve(-g)
        except RuntimeError:
            s = None
        if s is not None and np.all(np.isfinite(s)):
            resid = np.linalg.norm((h @ s) + tau * s + g)
            ok = resid <= 1e-10 * max(1.0, np.linalg.norm(g))
            descent = (g @ s) < 0.0
            if plain:
                if not ok:
                    raise SingularSystemError(
                        "Newton system residual %.3g too large" % resid
                    )
                return s, tau
            if ok and descent:
                return s, tau
        elif plain:
            raise SingularSystemError("Hessian factorization failed")
        tau = max(tau * opts.tau_growth, 1e-8) if tau else 1e-8
        if tau > TAU_LIMIT:
            raise SingularSystemError(
                "no usable step up to tau = %g" % TAU_LIMIT
            )


def newton_minimize(graph, law, cmap, layout, init, opts=None):
    """Minimize the reduced energy from an admissible initial configuration.

    Returns (configuration, SolveReport).  The report's converged flag is
    False when max_iter runs out before the reduced gradient infinity-norm
    drops to grad_tol.
    """
    from .lattice import reduce_config

    if opts is None:
        opts = NewtonOptions()
    q = reduce_config(np.asarray(init, dtype=float), layout)

    def fval(qv):
        return assemble_energy(graph, expand(qv, cmap, layout), law)

    def gval(qv):
        return assemble_gradient(graph, expand(qv, cmap, layout), law, cmap, layout)

    report = SolveReport()
    f = fval(q)
    g = gval(q)
    gnorm = np.abs(g).max() if len(g) else 0.0
    report.record(f, gnorm, 0.0, 0.0)
    for _ in range(opts.max_iter):
        if gnorm <= opts.grad_tol:
            break
        h = assemble_hessian(graph, expand(q, cmap, layout), law, cmap, layout)
        s, tau = _newton_step(h, g, opts)
        if opts.line_search:
            slope = g @ s
            t = 1.0
            # tiny slack absorbs roundoff when f sits at the minimum already
            slack = 1e-14 * (1.0 + abs(f))
            for _ in range(opts.max_halvings):
                try:
                    f_try = fval(q + t * s)
                except NonFiniteEnergyError:
                    f_try = np.inf            # outside the model: reject the trial
                if f_try <= f + opts.armijo_c * t * slope + slack:
                    break
                t *= opts.backtrack
            else:
                t = 0.0  # no acceptable step; stop making progress
            step = t * s
        else:
            step = s
        q = q + step
        f = fval(q)
        g = gval(q)
        gnorm = np.abs(g).max() if len(g) else 0.0
        report.record(f, gnorm, np.linalg.norm(step), tau)
        if np.linalg.norm(step) == 0.0:
            break
    report.converged = gnorm <= opts.grad_tol
    return expand(q, cmap, layout), report
