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
spring block per edge, each scaled by 2*|T|*w(e).  The Psi part runs only
when psi != "zero"; its gradient is per triangle, its Hessian per edge.
assemble_energy keeps the triangle sum, so bond_sum_energy and finite
differences of the energy check the derivatives against an independent
formula.  The derivative kernels raise DegenerateCellError naming the first
triangle with a bond at or below BOND_FLOOR.

Gathers.  The kernels read vertex rows by u.take(ids, axis=0), never by
u[ids]: on the (|V|, 2) array numpy's fancy indexing takes a slow path
(0.149 against 0.023 ms for the 6240 edge vectors of N = 64 on a 2-vCPU
Xeon host), and take gives the same bits.  _vertex_sums adds by one np.bincount per component, which
keeps every vertex's summation order.

Reduced Hessian.  A HessianPlan, built once per DofLayout, maps the four
blocks of every edge to their slots in the fixed pattern of S^T H S; each
Hessian, Phi and Psi terms together, is then one np.bincount.
"""

import numpy as np
import scipy.sparse as sp

from .lattice import SQRT3, reduce_gradient, rot

BOND_FLOOR = 1e-9

# the six unit bonds R_{k pi/3} e1, k = 0..5 (closed under negation)
BOND_DIRECTIONS = np.array([rot(k * np.pi / 3.0) @ np.array([1.0, 0.0]) for k in range(6)])


class DegenerateCellError(RuntimeError):
    """Some bond of a cell collapsed below BOND_FLOOR; derivatives of |.|
    are meaningless there."""

    def __init__(self, triangle):
        self.triangle = triangle
        super().__init__("degenerate cell: bond length at or below %g (triangle %d)"
                         % (BOND_FLOOR, triangle))


class NonFiniteEnergyError(RuntimeError):
    pass


class MaterialLaw:
    """Bond exponent p >= 2 and volume penalty Psi.

    psi is "zero" (Psi == 0, the setting of all convergence and fold runs) or
    "smoothed_abs": Psi(a) = kappa*(sqrt((a-1)^2 + delta^2) - delta), a smooth
    stand-in for |a - 1| that keeps Psi >= 0 with equality iff a = 1.
    kappa and delta parametrize only that penalty: under smoothed_abs they
    default to 1 and 1e-2, under zero they stay None and giving either one
    raises ValueError.
    """

    def __init__(self, p=2.0, psi="zero", kappa=None, delta=None):
        # the negated range tests reject NaN as well as inf
        if not 2 <= p < np.inf:
            raise ValueError("bond exponent p must be finite and >= 2, got %r" % p)
        if psi not in ("zero", "smoothed_abs"):
            raise ValueError("unknown psi variant %r" % psi)
        if psi == "zero":
            if kappa is not None or delta is not None:
                raise ValueError("kappa and delta need psi = smoothed_abs")
        else:
            kappa = 1.0 if kappa is None else float(kappa)
            delta = 1e-2 if delta is None else float(delta)
            if not (0 < kappa < np.inf and 0 < delta < np.inf):
                raise ValueError("smoothed_abs needs finite kappa > 0 and delta > 0")
        self.p = float(p)
        self.psi_name = psi
        self.kappa = kappa
        self.delta = delta

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
    """Six-bond density W(A) (full fan; see the module docstring).

    A (..., 2, 2) stack gives an array of shape (...); a single matrix
    gives a float.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    stretches = np.linalg.norm(np.swapaxes(a_mat, -1, -2) @ BOND_DIRECTIONS.T, axis=-2)
    det = a_mat[..., 0, 0] * a_mat[..., 1, 1] - a_mat[..., 0, 1] * a_mat[..., 1, 0]
    w = np.sum(law.Phi(stretches - 1.0), axis=-1) + law.Psi(det)
    return float(w) if w.ndim == 0 else w


def cell_dets(d1, d2, eps):
    """det of the cell gradient of every triangle from its deformed edges
    d1 = u_b - u_a and d2 = u_c - u_a: their cross product over that of the
    reference edges, sqrt(3)*eps^2/2 (every reference triangle is
    counter-clockwise)."""
    return (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / (SQRT3 / 2.0 * eps * eps)


def cell_edges(graph, u):
    """Deformed edges d1 = u_b - u_a and d2 = u_c - u_a of every triangle
    (a, b, c), each of shape (|T|, 2)."""
    tris = graph.tris
    ua = u.take(tris[:, 0], axis=0)
    return u.take(tris[:, 1], axis=0) - ua, u.take(tris[:, 2], axis=0) - ua


def _edge_geometry(graph, u):
    eps = graph.eps
    d1, d2 = cell_edges(graph, u)
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
    d = u.take(edges[:, 1], axis=0) - u.take(edges[:, 0], axis=0)
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
    d1, d2 = cell_edges(graph, u)
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


def _psi_edge_hessians(graph, u, law):
    """Psi Hessian of every edge (a, b), shape (|E|, 2, 2): block [a, b] of
    the cells on it, summed.  Up cell k holds edges k, 2*n_up + k and
    n_up + k, the last reversed; down cell (A, B, C) holds n_up + corner(A),
    corner(C) reversed and 2*n_up + corner(A) - 1 reversed, where
    corner(v) = v - j(v) is the number of the up cell based at v."""
    det, gdet = _det_gradients(graph, u)
    area = graph.triangle_area()
    d2 = area * law.d2Psi(det)
    # constant curvature of det itself: c0 * Z on the cyclic vertex pairs,
    # Z^T = -Z on the reversed ones
    curl = area * law.dPsi(det) * 2.0 / (SQRT3 * graph.eps**2)

    def block(cells, v, w):
        h = d2[cells, None, None] * gdet[cells, v, :, None] * gdet[cells, w, None, :]
        z = curl[cells] if (w - v) % 3 == 1 else -curl[cells]
        h[:, 0, 1] += z
        h[:, 1, 0] -= z
        return h

    n_up = graph.n_edges // 3
    up, down = slice(None, n_up), slice(n_up, None)
    p = np.concatenate([block(up, 0, 1), block(up, 0, 2), block(up, 1, 2)])
    # each edge lies in at most one down cell, so the += below is exact
    corner = graph.tris[down] - graph.ij[:, 1].take(graph.tris[down])
    p[n_up + corner[:, 0]] += block(down, 0, 1)
    p[corner[:, 2]] += block(down, 2, 1)
    p[2 * n_up + corner[:, 0] - 1] += block(down, 0, 2)
    return p


class HessianPlan:
    """Slots of assembled 2x2 blocks in the reduced Hessian S^T H S.

    S = lattice.expand_matrix sends the block H[v, w] of a vertex pair to
    the reduced block (m(v), m(w)) as A_v^T H[v, w] A_w.  Here m is
    DofLayout.block and A_v is R_phi on slaves and the identity elsewhere;
    blocks at the pinned origin (m = -1) drop out.  The pattern holds every
    reduced block that an edge reaches, exact zeros included, so it depends
    only on N: phi enters only through the rotation R_phi applied to the
    data.  It is symmetric, and the matrix is emitted in CSC form with
    sorted indices.
    """

    def __init__(self, graph, cmap, layout):
        nv, nb, block = graph.n_vertices, len(layout.free_ids), layout.block
        slave = np.zeros(nv, dtype=bool)
        slave[cmap.slaves] = True
        self._rotation = cmap.rotation
        # the blocks (a, a), (b, b), (a, b) and (b, a) of every edge (a, b)
        a, b = graph.edges[:, 0], graph.edges[:, 1]
        rows, cols = np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])
        row_block, col_block = block.take(rows), block.take(cols)
        pinned = (row_block < 0) | (col_block < 0)
        # column-major block keys; sorted, they list the blocks in CSC order
        edge_keys = col_block * nb + row_block
        del row_block, col_block
        keys = np.sort(edge_keys[~pinned])
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
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
        slots = (start[:, None, None] + stride[:, None, None] * d + c).astype(np.int32)
        self.indices = np.empty(self.nnz, dtype=np.int32)
        self.indices[slots] = 2 * block_rows[:, None, None] + c
        # edge block slots (the pinned origin's go to the spare slot nnz) and
        # the indices of the blocks to rotate from the left and the right
        k = np.searchsorted(keys, edge_keys)
        k[pinned] = 0
        edge_slots = slots.take(k, axis=0)
        edge_slots[pinned] = self.nnz
        self.edge_slots = (edge_slots, np.flatnonzero(slave.take(rows)),
                           np.flatnonzero(slave.take(cols)))
        self.band = None             # solver.BandLayout, built by its first use
        # every matrix shares these: an in-place change would corrupt the plan
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def scatter(self, blocks):
        """Reduced data of the edge blocks (4, |E|, 2, 2), in the order of
        edge_slots; blocks is overwritten."""
        slots, left, right = self.edge_slots
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
    cells (len(cells), k): shape (n_vertices, 2).  Each vertex sums its
    terms in cell order, one bincount per component."""
    ids = cells.ravel()
    sums = np.empty((n_vertices, 2))
    for c in range(2):
        sums[:, c] = np.bincount(ids, values[..., c].ravel(), minlength=n_vertices)
    return sums


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
    return reduce_gradient(assemble_full_gradient(graph, config, law), cmap, layout)


def assemble_hessian(graph, config, law, cmap, layout):
    """Reduced sparse symmetric Hessian in CSC form, in the fixed pattern of
    the layout's HessianPlan (built by the first call)."""
    if layout.hessian_plan is None:
        layout.hessian_plan = HessianPlan(graph, cmap, layout)
    plan = layout.hessian_plan
    u = np.asarray(config, dtype=float)
    # the blocks (a, a), (b, b), (a, b) and (b, a) of every edge (a, b)
    springs = np.multiply.outer([1.0, 1.0, -1.0, -1.0], _bond_hessians(graph, u, law))
    if law.psi_name != "zero":
        # det is translation invariant, so each cell's Psi Hessian is a sum
        # over its edges (a, b) of -P at (a, a), -P^T at (b, b), P at (a, b)
        # and P^T at (b, a), where P is the cell's block [a, b]
        psi = _psi_edge_hessians(graph, u, law)
        psi = np.stack([psi, psi.swapaxes(1, 2)])
        springs[:2] -= psi
        springs[2:] += psi
    return plan.matrix(plan.scatter(springs))
