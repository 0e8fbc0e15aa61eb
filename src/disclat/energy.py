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

Kernels.  The energy is assembled by triangle: for all triangles at once it
evaluates the density

    dens(T) = Phi(l1 - 1) + Phi(l2 - 1) + Phi(l3 - 1) + Psi(det)

where l1, l2, l3 are the stretches |u_b - u_a|/eps, |u_c - u_a|/eps,
|u_c - u_b|/eps of the three edges and det is the determinant of the cell
gradient (cross(u_b - u_a, u_c - u_a) divided by the reference cross product
sqrt(3)*eps^2/2, positive on counter-clockwise reference triangles).

The derivatives are assembled by term.  The Phi part is the weighted bond
sum, so its gradient is one pull per edge and its Hessian one symmetric 2x2
spring block per edge, each scaled by 2*|T|*w(e).  The Psi part stays per
triangle and runs only when psi != "zero".  assemble_energy keeps the
triangle sum, so bond_sum_energy and finite differences of the energy check
the derivatives against an independent formula.  The derivative kernels
raise DegenerateCellError naming the first triangle with a bond at or below
BOND_FLOOR.

Reduced Hessian.  A HessianPlan, built once per DofLayout, maps every block
entry to its slot in the fixed pattern of S^T H S; each Hessian is then one
np.bincount.
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
        # the negated range tests reject NaN as well as inf
        if not 2 <= p < np.inf:
            raise ValueError("bond exponent p must be finite and >= 2, got %r" % p)
        if psi not in ("zero", "smoothed_abs"):
            raise ValueError("unknown psi variant %r" % psi)
        if psi == "smoothed_abs" and not (0 < kappa < np.inf and 0 < delta < np.inf):
            raise ValueError("smoothed_abs needs finite kappa > 0 and delta > 0")
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


def w_density(a_mat, law):
    """Six-bond density W(A) (full fan; see the module docstring)."""
    a_mat = np.asarray(a_mat, dtype=float)
    stretches = np.linalg.norm(a_mat.T @ BOND_DIRECTIONS.T, axis=0)
    det = a_mat[0, 0] * a_mat[1, 1] - a_mat[0, 1] * a_mat[1, 0]
    return float(np.sum(law.Phi(stretches - 1.0)) + law.Psi(det))


def cell_dets(d1, d2, eps):
    """det of the cell gradient of every triangle from its deformed edges
    d1 = u_b - u_a and d2 = u_c - u_a: their cross product over that of the
    reference edges, sqrt(3)*eps^2/2 (every reference triangle is
    counter-clockwise)."""
    return (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / (SQRT3 / 2.0 * eps * eps)


def _edge_geometry(graph, u):
    tris, eps = graph.tris, graph.eps
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    d1 = u[b] - u[a]
    d2 = u[c] - u[a]
    d3 = d2 - d1
    l1 = np.hypot(d1[:, 0], d1[:, 1]) / eps
    l2 = np.hypot(d2[:, 0], d2[:, 1]) / eps
    l3 = np.hypot(d3[:, 0], d3[:, 1]) / eps
    return l1, l2, l3, cell_dets(d1, d2, eps)


def _bonds(graph, u):
    """Edge vectors u_b - u_a, shape (|E|, 2), and stretches |u_b - u_a|/eps.

    Raises DegenerateCellError naming the first triangle with a bond at or
    below BOND_FLOOR: edges k, k + n_up and k + 2*n_up bound up triangle k,
    and the n_up up triangles come first.
    """
    edges = graph.edges
    d = u[edges[:, 1]] - u[edges[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1]) / graph.eps
    bad = np.flatnonzero(length <= BOND_FLOOR)
    if len(bad):
        raise DegenerateCellError(int(np.min(bad % (graph.n_edges // 3))))
    return d, length


def _tri_energies(graph, u, law):
    """Per-triangle densities, shape (|T|,).  Multiply by the cell area to
    integrate."""
    l1, l2, l3, det = _edge_geometry(graph, u)
    p = law.p
    # one division for the three edges: summing law.Phi per edge rounds
    # differently
    dens = (
        np.abs(l1 - 1.0) ** p + np.abs(l2 - 1.0) ** p + np.abs(l3 - 1.0) ** p
    ) / p
    return dens + law.Psi(det)


def _bond_gradients(graph, u, law):
    """Assembled Phi pull of every edge on its second vertex, shape (|E|, 2);
    the first vertex gets the opposite pull."""
    d, length = _bonds(graph, u)
    eps = graph.eps
    # d(|d|/eps - 1)/du_b = unit(d)/eps, times 2*|T|*w(e) per edge
    scale = 2.0 * graph.triangle_area() * graph.weights
    coeff = scale * law.dPhi(length - 1.0) / (eps * eps * length)
    return coeff[:, None] * d


def _bond_hessians(graph, u, law):
    """Assembled Phi spring block of every edge, shape (|E|, 2, 2): Phi''
    along the bond, Phi'/|bond| across it, times 2*|T|*w(e)."""
    d, length = _bonds(graph, u)
    eps = graph.eps
    r = length - 1.0
    scale = 2.0 * graph.triangle_area() * graph.weights / (eps * eps)
    unit = d / (eps * length)[:, None]
    outer = unit[:, :, None] * unit[:, None, :]
    return (
        (scale * law.d2Phi(r))[:, None, None] * outer
        + (scale * law.dPhi(r) / length)[:, None, None] * (np.eye(2) - outer)
    )


def _det_gradients(graph, u):
    """Cell determinants (|T|,) and their gradients (|T|, 3, 2) in the
    vertex positions, vertex order (a, b, c)."""
    a, b, c = graph.tris.T
    d1 = u[b] - u[a]
    d2 = u[c] - u[a]
    det = cell_dets(d1, d2, graph.eps)
    c0 = 2.0 / (SQRT3 * graph.eps**2)
    gdet = np.empty(graph.tris.shape + (2,))
    gdet[:, 1] = c0 * np.column_stack([d2[:, 1], -d2[:, 0]])   # d det / d d1
    gdet[:, 2] = -c0 * np.column_stack([d1[:, 1], -d1[:, 0]])
    gdet[:, 0] = -gdet[:, 1] - gdet[:, 2]
    return det, gdet


def _psi_gradients(graph, u, law):
    """Per-triangle gradients of Psi(det), shape (|T|, 3, 2)."""
    det, gdet = _det_gradients(graph, u)
    return law.dPsi(det)[:, None, None] * gdet


def _psi_hessians(graph, u, law):
    """Per-triangle Hessians of Psi(det), shape (|T|, 3, 3, 2, 2): block
    [t, v, w] couples vertices v and w of triangle t."""
    det, gdet = _det_gradients(graph, u)
    h = law.d2Psi(det)[:, None, None, None, None] * (
        gdet[:, :, None, :, None] * gdet[:, None, :, None, :]
    )
    # constant curvature of det itself: c0 * Z on the cyclic vertex pairs
    z = np.array([[0.0, 1.0], [-1.0, 0.0]])
    coeff = (law.dPsi(det) * 2.0 / (SQRT3 * graph.eps**2))[:, None, None]
    for v, w in ((0, 1), (1, 2), (2, 0)):
        h[:, v, w] += coeff * z
        h[:, w, v] += coeff * z.T
    return h


class HessianPlan:
    """Slots of assembled 2x2 blocks in the reduced Hessian S^T H S.

    S = DofLayout.select sends the block H[v, w] of a vertex pair to the
    reduced block (m(v), m(w)) as A_v^T H[v, w] A_w.  Here m(v) is the free
    slot of v, or of its master when v is a slave, and A_v is R_phi on
    slaves and the identity elsewhere; blocks at the pinned origin drop
    out.  The pattern holds every reduced block that an edge reaches, exact
    zeros included, so it depends only on (N, phi).  It is symmetric, and
    the matrix is emitted in CSC form with sorted indices.
    """

    def __init__(self, graph, cmap, layout):
        nv, nb = graph.n_vertices, len(layout.free_ids)
        self._block = np.full(nv, -1, dtype=np.int64)
        self._block[layout.free_ids] = np.arange(nb)
        self._block[cmap.slaves] = self._block[cmap.masters]
        self._slave = np.zeros(nv, dtype=bool)
        self._slave[cmap.slaves] = True
        self._rotation = cmap.rotation
        self._tris = graph.tris
        a, b = graph.edges[:, 0], graph.edges[:, 1]
        rows, cols = np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])
        row_block, col_block = self._block[rows], self._block[cols]
        live = (row_block >= 0) & (col_block >= 0)
        # column-major block keys; sorted, they list the blocks in CSC order
        keys = np.sort(col_block[live] * nb + row_block[live])
        self._keys = keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        block_rows, block_cols = keys % nb, keys // nb
        count = np.bincount(block_cols, minlength=nb)
        first = np.cumsum(count) - count
        self.nnz = 4 * len(keys)
        self.shape = (2 * nb, 2 * nb)
        # scalar column 2j + d lists rows 2i and 2i + 1 of each block (i, j)
        self.indptr = np.zeros(2 * nb + 1, dtype=np.int32)
        np.cumsum(np.repeat(2 * count, 2), out=self.indptr[1:])
        # data slot of entry (c, d) of block k, which lies in block column j
        start = 2 * first[block_cols] + 2 * np.arange(len(keys))
        stride = 2 * count[block_cols]
        c, d = np.arange(2)[:, None], np.arange(2)
        slots = start[:, None, None] + stride[:, None, None] * d + c
        self._slots = slots.astype(np.int32)
        self.indices = np.empty(self.nnz, dtype=np.int32)
        self.indices[self._slots] = 2 * block_rows[:, None, None] + c
        self.edge_slots = self._map(rows, cols)
        self._tri_slots = None
        self.band = None             # solver.BandLayout, built by its first use
        # every matrix shares these: an in-place change would corrupt the plan
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def _map(self, rows, cols):
        """Where the blocks (rows[k], cols[k]) go: their data slots, with the
        pinned origin's blocks sent to the spare slot nnz, and the indices
        of the blocks to rotate from the left and from the right."""
        row_block, col_block = self._block[rows], self._block[cols]
        nb = len(self.indptr) // 2
        k = np.searchsorted(self._keys, col_block * nb + row_block)
        pinned = (row_block < 0) | (col_block < 0)
        k[pinned] = 0
        slots = self._slots[k]
        slots[pinned] = self.nnz
        return (
            slots,
            np.flatnonzero(self._slave[rows]),
            np.flatnonzero(self._slave[cols]),
        )

    def triangle_slots(self):
        """Where the per-triangle blocks (|T|, 3, 3) go; built on first use."""
        if self._tri_slots is None:
            shape = self._tris.shape + (3,)
            self._tri_slots = self._map(
                np.broadcast_to(self._tris[:, :, None], shape).ravel(),
                np.broadcast_to(self._tris[:, None, :], shape).ravel(),
            )
        return self._tri_slots

    def scatter(self, where, blocks):
        """Reduced data of the 2x2 blocks (any leading shape) placed by
        where = edge_slots or triangle_slots(); blocks is overwritten."""
        slots, left, right = where
        blocks = blocks.reshape(-1, 2, 2)
        blocks[left] = self._rotation.T @ blocks[left]
        blocks[right] = blocks[right] @ self._rotation
        return np.bincount(
            slots.ravel(), blocks.ravel(), minlength=self.nnz + 1
        )[: self.nnz]

    def matrix(self, data):
        """The reduced CSC matrix with these data; it shares the index
        arrays of the plan."""
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


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


def _vertex_sums(cells, values, n_vertices):
    """Sum per-cell vertex vectors (len(cells), k, 2) onto the vertices
    cells (len(cells), k): shape (n_vertices, 2)."""
    dof = (2 * cells[..., None] + np.arange(2)).ravel()
    sums = np.bincount(dof, values.ravel(), minlength=2 * n_vertices)
    return sums.reshape(n_vertices, 2)


def assemble_full_gradient(graph, config, law):
    """Energy gradient with respect to every vertex position, (|V|, 2)."""
    u = np.asarray(config, dtype=float)
    pull = _bond_gradients(graph, u, law)
    g = _vertex_sums(graph.edges, np.stack([-pull, pull], axis=1), graph.n_vertices)
    if law.psi_name != "zero":
        psi = graph.triangle_area() * _psi_gradients(graph, u, law)
        g += _vertex_sums(graph.tris, psi, graph.n_vertices)
    return g


def assemble_gradient(graph, config, law, cmap, layout):
    """Reduced energy gradient (chain rule through the slave map)."""
    g = assemble_full_gradient(graph, config, law)
    return layout.select.T @ g.ravel()


def assemble_hessian(graph, config, law, cmap, layout):
    """Reduced sparse symmetric Hessian in CSC form, in the fixed pattern of
    the layout's HessianPlan (built by the first call)."""
    if layout.hessian_plan is None:
        layout.hessian_plan = HessianPlan(graph, cmap, layout)
    plan = layout.hessian_plan
    u = np.asarray(config, dtype=float)
    # the blocks (a, a), (b, b), (a, b) and (b, a) of every edge (a, b)
    springs = np.multiply.outer([1.0, 1.0, -1.0, -1.0], _bond_hessians(graph, u, law))
    data = plan.scatter(plan.edge_slots, springs)
    if law.psi_name != "zero":
        psi = graph.triangle_area() * _psi_hessians(graph, u, law)
        data += plan.scatter(plan.triangle_slots(), psi)
    return plan.matrix(data)
