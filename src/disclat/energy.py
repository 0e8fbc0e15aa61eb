"""Energy density W(A), total energy, and analytic derivatives.

Density convention.  The six-bond density

    W(A) = sum_{e in B1} Phi(|A^T e| - 1) + Psi(det A),   Phi(r) = |r|^p / p

is exposed by w_density and works on the gradient A of the piecewise-linear
interpolant, for which A^T e is the stretched image of the unit bond e
(cell_gradient returns exactly this A).  The *assembled* energy
integrates the half-fan density (1/2) sum_{e in B1} Phi + Psi over the
domain, which makes the triangle sum equal sqrt(3)/2 times the weighted bond
sum: interior edges sit in two triangles and boundary edges in one, matching
the weights w = 1 and w = 1/2.  The full fan would count every bond of the
medium twice.

Per-triangle kernels.  Assembly evaluates, for all triangles at once, the
density

    dens(T) = Phi(l1 - 1) + Phi(l2 - 1) + Phi(l3 - 1) + Psi(det)

and its derivatives, where l1, l2, l3 are the stretches |u_b - u_a|/eps,
|u_c - u_a|/eps, |u_c - u_b|/eps of the three edges and det is the
determinant of the cell gradient (cross(u_b - u_a, u_c - u_a) divided by the
reference cross product sqrt(3)*eps^2/2, positive on counter-clockwise
reference triangles).  The derivative kernels raise DegenerateCellError
naming the first triangle with a bond at or below BOND_FLOOR.
"""

import numpy as np
import scipy.sparse as sp

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

    def Phi(self, r):
        return np.abs(r) ** self.p / self.p

    def dPhi(self, r):
        return np.sign(r) * np.abs(r) ** (self.p - 1.0)

    def d2Phi(self, r):
        return (self.p - 1.0) * np.abs(r) ** (self.p - 2.0)

    def Psi(self, a):
        if self.psi_name == "zero":
            return np.zeros_like(np.asarray(a, dtype=float))
        t = np.asarray(a, dtype=float) - 1.0
        return self.kappa * (np.sqrt(t * t + self.delta**2) - self.delta)

    def dPsi(self, a):
        if self.psi_name == "zero":
            return np.zeros_like(np.asarray(a, dtype=float))
        t = np.asarray(a, dtype=float) - 1.0
        return self.kappa * t / np.sqrt(t * t + self.delta**2)

    def d2Psi(self, a):
        if self.psi_name == "zero":
            return np.zeros_like(np.asarray(a, dtype=float))
        t = np.asarray(a, dtype=float) - 1.0
        return (
            self.kappa * self.delta * self.delta
            / np.sqrt(t * t + self.delta**2) ** 3
        )


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


def _edge_geometry(graph, u):
    tris, eps = graph.tris, graph.eps
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    d1 = u[b] - u[a]
    d2 = u[c] - u[a]
    d3 = d2 - d1
    l1 = np.hypot(d1[:, 0], d1[:, 1]) / eps
    l2 = np.hypot(d2[:, 0], d2[:, 1]) / eps
    l3 = np.hypot(d3[:, 0], d3[:, 1]) / eps
    det = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / (SQRT3 / 2.0 * eps * eps)
    return d1, d2, d3, l1, l2, l3, det


def _check_bonds(l1, l2, l3):
    bad = (l1 <= BOND_FLOOR) | (l2 <= BOND_FLOOR) | (l3 <= BOND_FLOOR)
    if bad.any():
        raise DegenerateCellError(int(np.argmax(bad)))


def _tri_energies(graph, u, law):
    """Per-triangle densities, shape (|T|,).  Multiply by the cell area to
    integrate."""
    _, _, _, l1, l2, l3, det = _edge_geometry(graph, u)
    p = law.p
    # one division for the three edges: summing law.Phi per edge rounds
    # differently
    dens = (
        np.abs(l1 - 1.0) ** p + np.abs(l2 - 1.0) ** p + np.abs(l3 - 1.0) ** p
    ) / p
    return dens + law.Psi(det)


def _tri_gradients(graph, u, law):
    """Per-triangle density gradients, shape (|T|, 3, 2), vertex order (a, b, c)."""
    d1, d2, d3, l1, l2, l3, det = _edge_geometry(graph, u)
    _check_bonds(l1, l2, l3)
    eps = graph.eps
    g = np.zeros(graph.tris.shape + (2,))
    for dvec, length, s, t in ((d1, l1, 0, 1), (d2, l2, 0, 2), (d3, l3, 1, 2)):
        # d(|dvec|/eps - 1)/du_t = unit(dvec)/eps
        coeff = law.dPhi(length - 1.0) / (eps * eps * length)
        pull = coeff[:, None] * dvec
        g[:, t] += pull
        g[:, s] -= pull
    if law.psi_name != "zero":
        dpsi = law.dPsi(det)
        c0 = 2.0 / (SQRT3 * eps * eps)
        perp2 = np.column_stack([d2[:, 1], -d2[:, 0]])   # d det / d d1 (over c0)
        perp1 = np.column_stack([d1[:, 1], -d1[:, 0]])
        gb = (dpsi * c0)[:, None] * perp2
        gc = -(dpsi * c0)[:, None] * perp1
        g[:, 1] += gb
        g[:, 2] += gc
        g[:, 0] -= gb + gc
    return g


def _tri_hessians(graph, u, law):
    """Per-triangle density Hessians, shape (|T|, 6, 6), dof order
    (ax, ay, bx, by, cx, cy)."""
    d1, d2, d3, l1, l2, l3, det = _edge_geometry(graph, u)
    _check_bonds(l1, l2, l3)
    eps = graph.eps
    nt = graph.n_triangles
    h = np.zeros((nt, 3, 2, 3, 2))
    eye = np.eye(2)
    for dvec, length, s, t in ((d1, l1, 0, 1), (d2, l2, 0, 2), (d3, l3, 1, 2)):
        r = length - 1.0
        unit = dvec / (eps * length)[:, None]
        outer = unit[:, :, None] * unit[:, None, :]
        # spring block: Phi'' along the bond, Phi'/|bond| transversally
        k = (
            law.d2Phi(r)[:, None, None] / (eps * eps) * outer
            + (law.dPhi(r) / (eps * eps * length))[:, None, None]
            * (eye - outer)
        )
        h[:, t, :, t, :] += k
        h[:, s, :, s, :] += k
        h[:, t, :, s, :] -= k
        h[:, s, :, t, :] -= k
    if law.psi_name != "zero":
        dpsi, d2psi = law.dPsi(det), law.d2Psi(det)
        c0 = 2.0 / (SQRT3 * eps * eps)
        gdet = np.zeros((nt, 3, 2))
        gdet[:, 1] = c0 * np.column_stack([d2[:, 1], -d2[:, 0]])
        gdet[:, 2] = -c0 * np.column_stack([d1[:, 1], -d1[:, 0]])
        gdet[:, 0] = -gdet[:, 1] - gdet[:, 2]
        h += d2psi[:, None, None, None, None] * (
            gdet[:, :, :, None, None] * gdet[:, None, None, :, :]
        )
        # constant curvature of det itself: c0 * Z on the cyclic vertex pairs
        z = np.array([[0.0, 1.0], [-1.0, 0.0]])
        coeff = (dpsi * c0)[:, None, None]
        for v, w in ((0, 1), (1, 2), (2, 0)):
            h[:, v, :, w, :] += coeff * z
            h[:, w, :, v, :] += coeff * z.T
    return h.reshape(nt, 6, 6)


def assemble_energy(graph, config, law):
    """Total energy: cell area times the half-fan density, summed over cells.

    Equals sqrt(3)/2 times the weighted bond sum plus the per-cell Psi term.
    """
    u = np.asarray(config, dtype=float)
    # a non-finite configuration is reported below, not warned about here
    with np.errstate(invalid="ignore", over="ignore"):
        dens = _tri_energies(graph, u, law)
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
    g6 = _tri_gradients(graph, u, law)
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
    h6 = graph.triangle_area() * _tri_hessians(graph, u, law)
    dof = (2 * graph.tris[:, :, None] + np.arange(2)).reshape(-1, 6)
    rows = np.repeat(dof, 6, axis=1).ravel()
    cols = np.tile(dof, (1, 6)).ravel()
    nfull = 2 * graph.n_vertices
    h_full = sp.coo_matrix((h6.ravel(), (rows, cols)), shape=(nfull, nfull)).tocsr()
    s = layout.select
    return (s.T @ h_full @ s).tocsr()
