"""Energy density W(A), total energy, and analytic derivatives.

Density convention.  The six-bond density

    W(A) = sum_{e in B1} Phi(|A^T e| - 1) + Psi(det A),   Phi(r) = |r|^p / p

is exposed by w_density/w_grad/w_hess and works on the gradient A of the
piecewise-linear interpolant, for which A^T e is the stretched image of the
unit bond e (cell_gradient returns exactly this A).  The *assembled* energy
integrates the half-fan density (1/2) sum_{e in B1} Phi + Psi over the
domain, which makes the triangle sum equal sqrt(3)/2 times the weighted bond
sum: interior edges sit in two triangles and boundary edges in one, matching
the weights w = 1 and w = 1/2.  The full fan would count every bond of the
medium twice.
"""

import numpy as np
import scipy.sparse as sp

from . import _backend
from .lattice import SQRT3, rot

BOND_FLOOR = 1e-9

# the six unit bonds R_{k pi/3} e1, k = 0..5 (closed under negation)
BOND_DIRECTIONS = np.array([rot(k * np.pi / 3.0) @ np.array([1.0, 0.0]) for k in range(6)])


class DegenerateCellError(RuntimeError):
    """Some bond of a cell collapsed below BOND_FLOOR; derivatives of |.|
    are meaningless there."""

    def __init__(self, triangle=None):
        self.triangle = triangle
        where = "" if triangle is None else " (triangle %d)" % triangle
        super().__init__("degenerate cell: bond length at or below %g%s" % (BOND_FLOOR, where))


class NonFiniteEnergyError(RuntimeError):
    pass


class MaterialLaw:
    """Bond exponent p >= 2 and volume penalty Psi.

    psi is "zero" (Psi == 0, the setting of all convergence and fold runs) or
    "smoothed_abs": Psi(a) = kappa*(sqrt((a-1)^2 + delta^2) - delta), a smooth
    stand-in for |a - 1| that keeps Psi >= 0 with equality iff a = 1.
    """

    def __init__(self, p=2.0, psi="zero", kappa=1.0, delta=1e-2):
        if p < 2:
            raise ValueError("bond exponent p must be >= 2, got %r" % p)
        if psi not in ("zero", "smoothed_abs"):
            raise ValueError("unknown psi variant %r" % psi)
        if psi == "smoothed_abs" and (kappa <= 0 or delta <= 0):
            raise ValueError("smoothed_abs needs kappa > 0 and delta > 0")
        self.p = float(p)
        self.psi_name = psi
        self.kappa = float(kappa)
        self.delta = float(delta)

    @property
    def psi_kind(self):
        return 0 if self.psi_name == "zero" else 1

    def Phi(self, r):
        return np.abs(r) ** self.p / self.p

    def dPhi(self, r):
        return np.sign(r) * np.abs(r) ** (self.p - 1.0)

    def d2Phi(self, r):
        return (self.p - 1.0) * np.abs(r) ** (self.p - 2.0)

    def Psi(self, a):
        if self.psi_kind == 0:
            return np.zeros_like(np.asarray(a, dtype=float))
        t = np.asarray(a, dtype=float) - 1.0
        return self.kappa * (np.sqrt(t * t + self.delta**2) - self.delta)

    def dPsi(self, a):
        if self.psi_kind == 0:
            return np.zeros_like(np.asarray(a, dtype=float))
        t = np.asarray(a, dtype=float) - 1.0
        return self.kappa * t / np.sqrt(t * t + self.delta**2)

    def d2Psi(self, a):
        if self.psi_kind == 0:
            return np.zeros_like(np.asarray(a, dtype=float))
        t = np.asarray(a, dtype=float) - 1.0
        return self.kappa * self.delta**2 / np.sqrt(t * t + self.delta**2) ** 3


def cell_gradient(xa, xb, xc, ua, ub, uc):
    """Gradient A of the linear interpolant on one cell.

    Returns the matrix with A^T (x_b - x_a) = u_b - u_a and
    A^T (x_c - x_a) = u_c - u_a, i.e. A^T maps reference edge vectors to
    deformed edge vectors, so |A^T e| is the stretch of the unit bond e.
    Identical for the three cyclic labelings of the cell.
    """
    m = np.column_stack([np.asarray(xb) - xa, np.asarray(xc) - xa])
    du = np.column_stack([np.asarray(ub) - ua, np.asarray(uc) - ua])
    return (du @ np.linalg.inv(m)).T


def cell_gradients(graph, config):
    """All per-triangle gradients at once, shape (|T|, 2, 2)."""
    u = np.asarray(config, dtype=float)
    a, b, c = graph.tris[:, 0], graph.tris[:, 1], graph.tris[:, 2]
    du = np.stack([u[b] - u[a], u[c] - u[a]], axis=1)          # rows d1, d2
    dx = np.stack(
        [graph.pos[b] - graph.pos[a], graph.pos[c] - graph.pos[a]], axis=1
    )
    dinv = np.linalg.inv(np.swapaxes(dx, 1, 2))                 # M_T^{-1}
    return np.einsum("tmi,tmj->tij", dinv, du)


def w_density(a_mat, law):
    """Six-bond density W(A) (full fan; see the module docstring)."""
    a_mat = np.asarray(a_mat, dtype=float)
    stretches = np.linalg.norm(a_mat.T @ BOND_DIRECTIONS.T, axis=0)
    det = a_mat[0, 0] * a_mat[1, 1] - a_mat[0, 1] * a_mat[1, 0]
    return float(np.sum(law.Phi(stretches - 1.0)) + law.Psi(det))


def _bond_images(a_mat):
    imgs = BOND_DIRECTIONS @ a_mat                  # row k = A^T e_k
    lengths = np.linalg.norm(imgs, axis=1)
    return imgs, lengths


def _cofactor(a_mat):
    return np.array(
        [[a_mat[1, 1], -a_mat[1, 0]], [-a_mat[0, 1], a_mat[0, 0]]]
    )


def w_grad(a_mat, law):
    """dW/dA as a 2x2 matrix."""
    a_mat = np.asarray(a_mat, dtype=float)
    imgs, lengths = _bond_images(a_mat)
    if np.any(lengths <= BOND_FLOOR):
        raise DegenerateCellError()
    g = np.zeros((2, 2))
    for e, b, l in zip(BOND_DIRECTIONS, imgs, lengths):
        g += law.dPhi(l - 1.0) * np.outer(e, b / l)
    det = a_mat[0, 0] * a_mat[1, 1] - a_mat[0, 1] * a_mat[1, 0]
    g += law.dPsi(det) * _cofactor(a_mat)
    return g


def w_hess(a_mat, law):
    """d2W/dA2 as a symmetric 4x4 matrix, row-major index (2i + j) over A_ij."""
    a_mat = np.asarray(a_mat, dtype=float)
    imgs, lengths = _bond_images(a_mat)
    if np.any(lengths <= BOND_FLOOR):
        raise DegenerateCellError()
    eye = np.eye(2)
    c = np.zeros((2, 2, 2, 2))
    for e, b, l in zip(BOND_DIRECTIONS, imgs, lengths):
        bhat = b / l
        r = l - 1.0
        ebh = np.einsum("i,j->ij", e, bhat)
        c += law.d2Phi(r) * np.einsum("ij,kl->ijkl", ebh, ebh)
        c += (
            law.dPhi(r)
            / l
            * np.einsum("i,k,jl->ijkl", e, e, eye - np.outer(bhat, bhat))
        )
    det = a_mat[0, 0] * a_mat[1, 1] - a_mat[0, 1] * a_mat[1, 0]
    cof = _cofactor(a_mat)
    c += law.d2Psi(det) * np.einsum("ij,kl->ijkl", cof, cof)
    dpsi = law.dPsi(det)
    if dpsi != 0.0:
        jt = np.zeros((2, 2, 2, 2))
        jt[0, 0, 1, 1] = jt[1, 1, 0, 0] = 1.0
        jt[0, 1, 1, 0] = jt[1, 0, 0, 1] = -1.0
        c += dpsi * jt
    return c.reshape(4, 4)


def _law_args(law):
    return law.p, law.psi_kind, law.kappa, law.delta


def assemble_energy(graph, config, law):
    """Total energy: cell area times the half-fan density, summed over cells.

    Equals sqrt(3)/2 times the weighted bond sum plus the per-cell Psi term.
    """
    _backend.thread_cap()     # serial loop honors any validated cap
    u = np.asarray(config, dtype=float)
    # a non-finite configuration is reported below, not warned about here
    with np.errstate(invalid="ignore", over="ignore"):
        dens = _backend.tri_energies(u, graph.tris, graph.eps, *_law_args(law))
    total = graph.triangle_area() * float(np.sum(dens))
    if not np.isfinite(total):
        raise NonFiniteEnergyError("energy is not finite")
    return total


def bond_sum_energy(graph, config, law):
    """Weighted bond-sum form of the same energy (cross-check oracle):

    sqrt(3)/2 * [ eps^2 sum_e w(e) Phi(|du_e|/eps - 1)
                  + (eps^2/2) sum_T Psi(det A_T) ].
    """
    u = np.asarray(config, dtype=float)
    d = u[graph.edges[:, 1]] - u[graph.edges[:, 0]]
    stretches = np.hypot(d[:, 0], d[:, 1]) / graph.eps
    bond = np.sum(graph.weights * law.Phi(stretches - 1.0))
    a, b, c = graph.tris[:, 0], graph.tris[:, 1], graph.tris[:, 2]
    d1 = u[b] - u[a]
    d2 = u[c] - u[a]
    dets = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / (
        SQRT3 / 2.0 * graph.eps**2
    )
    psi = 0.5 * np.sum(law.Psi(dets))
    return SQRT3 / 2.0 * graph.eps**2 * (bond + psi)


def assemble_full_gradient(graph, config, law):
    """Energy gradient with respect to every vertex position, (|V|, 2)."""
    u = np.asarray(config, dtype=float)
    g6, bad = _backend.tri_gradients(
        u, graph.tris, graph.eps, *_law_args(law), BOND_FLOOR
    )
    if bad >= 0:
        raise DegenerateCellError(bad)
    g = np.zeros_like(u)
    np.add.at(g, graph.tris, graph.triangle_area() * g6)
    return g


def assemble_gradient(graph, config, law, cmap, layout):
    """Reduced energy gradient (chain rule through the slave map)."""
    g = assemble_full_gradient(graph, config, law)
    return layout.select.T @ g.ravel()


def assemble_hessian(graph, config, law, cmap, layout):
    """Reduced sparse symmetric Hessian."""
    u = np.asarray(config, dtype=float)
    h6, bad = _backend.tri_hessians(
        u, graph.tris, graph.eps, *_law_args(law), BOND_FLOOR
    )
    if bad >= 0:
        raise DegenerateCellError(bad)
    h6 = graph.triangle_area() * h6
    dof = (2 * graph.tris[:, :, None] + np.arange(2)).reshape(-1, 6)
    rows = np.repeat(dof, 6, axis=1).ravel()
    cols = np.tile(dof, (1, 6)).ravel()
    nfull = 2 * graph.n_vertices
    h_full = sp.coo_matrix((h6.ravel(), (rows, cols)), shape=(nfull, nfull)).tocsr()
    s = layout.select
    return (s.T @ h_full @ s).tocsr()
