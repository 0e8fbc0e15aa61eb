"""Energy density W(A), total energy, and analytic derivatives.

Density convention.  The six-bond density

    W(A) = sum_{e in B1} Phi(|A^T e| - 1) + Psi(det A),   Phi(r) = |r|^p / p

is exposed by w_density and works on the gradient A of the piecewise-linear
interpolant, the matrix with A^T (x_b - x_a) = u_b - u_a and
A^T (x_c - x_a) = u_c - u_a on a cell, for which A^T e is the stretched
image of the unit bond e.  The *assembled* energy
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

Reduced Hessian.  A Hessian, Phi and Psi terms together, is one 2x2 block
per edge.  A HessianPlan, built once per DofLayout, finds the fixed pattern
of S^T H S by sorting the block keys of every edge's four blocks and sums
each data slot's terms by one np.bincount.  The sweep's levels assemble on
the even half instead; the full plan serves the cold, non-symmetric starts
of the fold study and minimize.

Even half.  Given a lattice.MirrorLayout and an even configuration, the
three assemblies run on the layout's half only: the energy sums the
densities of its cells (those off the diagonal twice), the gradient sums
the pulls of its representative edges (and the Psi pulls of its cells) into
the even gradient B^T S^T grad E, and the Hessian goes into the pattern of
a MirrorHessianPlan, laid out in closed form from the lattice's 7-point
stencil, with a sorted table only for the O(N) seam columns
(tests/test_mirror_plan.py holds its sort-based predecessor as the oracle).
"""

import numpy as np
import scipy.sparse as sp

from .lattice import SQRT3, MirrorLayout, reduce_gradient, rot

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


def cell_edges(graph, u, half=None):
    """Deformed edges d1 = u_b - u_a and d2 = u_c - u_a of every triangle
    (a, b, c), or of the cells of half (a lattice.MirrorLayout), each of
    shape (|T|, 2)."""
    a, b, c = (graph.tris[:, k] for k in range(3)) if half is None else half.cells
    ua = u.take(a, axis=0)
    return u.take(b, axis=0) - ua, u.take(c, axis=0) - ua


def _edge_geometry(graph, u, half=None):
    eps = graph.eps
    d1, d2 = cell_edges(graph, u, half)
    d3 = d2 - d1
    l1 = np.hypot(d1[:, 0], d1[:, 1]) / eps
    l2 = np.hypot(d2[:, 0], d2[:, 1]) / eps
    l3 = np.hypot(d3[:, 0], d3[:, 1]) / eps
    return l1, l2, l3, cell_dets(d1, d2, eps)


def _bonds(graph, u, half=None):
    """Edge vectors u_b - u_a, shape (|E|, 2), and stretches |u_b - u_a|/eps,
    of every edge, or of the representative edges of half (a
    lattice.MirrorLayout).

    Raises DegenerateCellError naming the first triangle with a bond at or
    below BOND_FLOOR: edges k, k + n_up and k + 2*n_up bound up triangle k,
    and the n_up up triangles come first.
    """
    a, b = (graph.edges[:, 0], graph.edges[:, 1]) if half is None else half.ends
    d = u.take(b, axis=0)
    d -= u.take(a, axis=0)
    length = np.hypot(d[:, 0], d[:, 1])
    length /= graph.eps
    bad = np.flatnonzero(length <= BOND_FLOOR)
    if len(bad):
        bad = bad if half is None else half.edges.take(bad)
        raise DegenerateCellError(int(np.min(bad % (graph.n_edges // 3))))
    return d, length


def _tri_energies(graph, u, law, half=None):
    """Per-triangle densities, shape (|T|,), of every triangle or of the
    cells of half.  Multiply by the cell area to integrate."""
    l1, l2, l3, det = _edge_geometry(graph, u, half)
    p = law.p
    # one division for the three edges: summing law.Phi per edge rounds
    # differently
    dens = (
        np.abs(l1 - 1.0) ** p + np.abs(l2 - 1.0) ** p + np.abs(l3 - 1.0) ** p
    ) / p
    return dens + law.Psi(det)


def _bond_gradients(graph, u, law, half=None):
    """Assembled Phi pull of every edge (of half's representatives, at their
    weights) on its second vertex, shape (|E|, 2); the first vertex gets the
    opposite pull."""
    d, length = _bonds(graph, u, half)
    eps = graph.eps
    # d(|d|/eps - 1)/du_b = unit(d)/eps, times 2*|T|*w(e) per edge
    scale = 2.0 * graph.triangle_area() * (graph.weights if half is None else half.weights)
    coeff = scale * law.dPhi(length - 1.0) / (eps * eps * length)
    return coeff[:, None] * d


def _bond_hessians(graph, u, law, half=None):
    """Assembled Phi spring block of every edge (of half's representatives,
    at their weights), shape (|E|, 2, 2): Phi'' along the bond, Phi'/|bond|
    across it, times 2*|T|*w(e).  Entry (c, d) is along*o + across*(delta_cd
    - o) with o = unit_c*unit_d.

    Every per-edge array is written in place by the operations of the
    plain expressions above, at most with a product's operands swapped, so
    the bits are theirs.  While the blocks are written, the bond vectors
    (turned into unit vectors), along, across and one scratch array are
    the only other per-edge arrays alive."""
    d, length = _bonds(graph, u, half)
    eps = graph.eps
    r = length - 1.0
    along, across = law.d2Phi(r), law.dPhi(r)
    del r
    scale = np.multiply(2.0 * graph.triangle_area(), graph.weights if half is None else half.weights)
    scale /= eps * eps
    along *= scale
    across *= scale
    across /= length
    del scale
    length *= eps
    d /= length[:, None]                 # unit vectors
    del length
    k = np.empty((len(d), 2, 2))
    o = np.empty(len(d))
    for c, e in ((0, 0), (0, 1), (1, 1)):
        np.multiply(d[:, c], d[:, e], out=o)
        np.multiply(along, o, out=k[:, c, e])
        np.subtract(float(c == e), o, out=o)
        o *= across
        k[:, c, e] += o
    k[:, 1, 0] = k[:, 0, 1]
    return k


def _det_gradients(graph, u, half=None):
    """Cell determinants (|T|,) and their gradients (|T|, 3, 2) in the
    vertex positions, vertex order (a, b, c), of every triangle or of the
    cells of half."""
    d1, d2 = cell_edges(graph, u, half)
    det = cell_dets(d1, d2, graph.eps)
    c0 = 2.0 / (SQRT3 * graph.eps**2)
    gdet = np.empty((len(det), 3, 2))
    gdet[:, 1] = c0 * np.column_stack([d2[:, 1], -d2[:, 0]])   # d det / d d1
    gdet[:, 2] = -c0 * np.column_stack([d1[:, 1], -d1[:, 0]])
    gdet[:, 0] = -gdet[:, 1] - gdet[:, 2]
    return det, gdet


def _psi_gradients(graph, u, law, half=None):
    """Per-triangle gradients of Psi(det), shape (|T|, 3, 2), of every
    triangle or of the cells of half."""
    det, gdet = _det_gradients(graph, u, half)
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
    """The fixed pattern of the reduced Hessian S^T H S, and where each
    assembled edge block goes in it.

    S, the matrix of lattice.expand, sends the block H[v, w] of a vertex
    pair to the reduced block (m(v), m(w)) as A_v^T H[v, w] A_w.  Here m is
    DofLayout.block and A_v is R_phi on slaves and the identity elsewhere;
    blocks at the pinned origin (m = -1) drop out.  The pattern holds every
    reduced block that an edge reaches, exact zeros included, so it depends
    only on N: phi enters only through the rotation R_phi applied to the
    data.  It is symmetric, and the matrix is emitted in CSC form with
    sorted indices.

    The build lists the blocks (a, a), (b, b), (a, b) and (b, a) of every
    edge (a, b), finds the pattern's blocks by sorting their column-major
    keys, and the data slots of every edge block by searchsorted.  data()
    sums each slot's terms by one np.bincount in that order: the four kinds
    in turn, each in edge order.
    """

    def __init__(self, graph, cmap, layout):
        nb, block = len(layout.free_ids), layout.block
        slave = np.zeros(graph.n_vertices, dtype=bool)
        slave[cmap.slaves] = True
        a, b = graph.edges[:, 0], graph.edges[:, 1]
        rows, cols = np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])
        row_block, col_block = block.take(rows), block.take(cols)
        pinned = (row_block < 0) | (col_block < 0)
        # column-major block keys; sorted, they list the blocks in CSC order
        edge_keys = col_block * nb + row_block
        del row_block, col_block
        # np.sort and a mask: numpy 2.4's np.unique takes 13x as long here
        keys = np.sort(edge_keys[~pinned])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        block_rows, block_cols = keys % nb, keys // nb
        count = np.bincount(block_cols, minlength=nb)
        first = np.cumsum(count) - count
        self.nnz = 4 * len(keys)
        self.shape = (2 * nb, 2 * nb)
        # scalar column 2m + d lists rows 2r and 2r + 1 of each block (r, m)
        self.indptr = np.zeros(2 * nb + 1, dtype=np.int32)
        np.cumsum(np.repeat(2 * count, 2), out=self.indptr[1:])
        # data slot of entry (c, d) of block k, which lies in block column m
        start = 2 * first.take(block_cols) + 2 * np.arange(len(keys))
        stride = 2 * count.take(block_cols)
        c, d = np.arange(2)[:, None], np.arange(2)
        slots = (start[:, None, None] + stride[:, None, None] * d + c).astype(np.int32)
        self.indices = np.empty(self.nnz, dtype=np.int32)
        self.indices[slots] = 2 * block_rows[:, None, None] + c
        # the slots of every edge block, the pinned origin's in a spare slot
        # nnz, and the edge blocks to rotate from the left and the right
        k = np.searchsorted(keys, edge_keys)
        k[pinned] = 0
        self.slots = slots.take(k, axis=0)
        self.slots[pinned] = self.nnz
        self.left, self.right = np.flatnonzero(slave.take(rows)), np.flatnonzero(slave.take(cols))
        self.rotation = cmap.rotation
        self.band = None             # solver.BandLayout, built by its first use
        # every matrix shares these: an in-place change would corrupt the plan
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def data(self, blocks):
        """CSC data of the reduced Hessian whose edge (a, b) has the block
        B = blocks[e] at (a, a), B^T at (b, b), -B at (a, b) and -B^T at
        (b, a), rotated by R_phi on the slaved side."""
        x = np.empty((4,) + blocks.shape)
        x[0] = blocks
        x[1] = blocks.swapaxes(1, 2)
        # 0 - B differs from -B only in a zero's sign, which the sum drops:
        # np.bincount adds every term to 0.0
        np.subtract(0.0, x[:2], out=x[2:])
        x = x.reshape(-1, 2, 2)
        x[self.left] = self.rotation.T @ x[self.left]
        x[self.right] = x[self.right] @ self.rotation
        return np.bincount(self.slots.ravel(), x.ravel(), minlength=self.nnz + 1)[:self.nnz]

    def matrix(self, data):
        """The reduced CSC matrix with these data; it shares the index
        arrays of the plan."""
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


class MirrorHessianPlan:
    """The fixed pattern of the even Hessian B^T H B of a
    lattice.MirrorLayout, and where each edge block goes in it.

    B sends the even unknowns to the reduced ones: u(v) = A_v x, with x the
    two numbers of v's block (MirrorLayout.maps).  Edge (a, b) with block B
    puts A_a^T B A_a on the diagonal block of a, A_b^T B^T A_b on that of b,
    -A_a^T B A_b at (a, b) and its transpose at (b, a); a single's second
    row and column drop out.  At an even configuration an edge and its
    mirror image put the same blocks there, so the plan sums the layout's
    representative edges, each at its multiplicity.  They are about half the
    edges, so an even Hessian costs about half a reduced one.

    A_v is the identity at every end but two kinds, whose blocks are formed
    explicitly: the diagonal vertex (i, i), whose A_v is the rotation by
    phi/2 (framed edges), and the end (i, i+1) of a cell diagonal, M times
    the other end, so that the edge adds B - B M - M B^T + M B^T M to the
    diagonal block of (i+1, i) (own edges).

    The matrix lists the pairs' unknowns first, then the singles' (as
    MirrorLayout does).  Pair (i, j), i > j >= 1, has block
    m = (j-1)N - j(j-1) + i - j - 1, and row j holds N - 2j pairs, so a bulk
    column, j >= 2 and j + 3 <= i < N - j, lists the pairs (i, j-1),
    (i+1, j-1), (i-1, j), (i, j), (i+1, j), (i-1, j+1) and (i, j+1) at m
    plus constants of the row: ascending, and each off-diagonal block is
    one plain representative's, the R60 e1 edges at positions 0 and 6, the
    cell diagonals at 1 and 5 and the e1 edges at 2 and 4.  The
    representatives are numbered group by group (e1, R60 e1, cell
    diagonals), each group row by row, so the representative at each
    position is m plus a constant of the row too.  The O(N) seam columns
    (j = 1, i <= j + 2 or i + j = N, and every single) come from a table of
    their block slots sorted by (column, row); nothing else is sorted.

    data() forms a stack of 2 x 2 blocks: -B of every representative, the
    framed edges' blocks A_a^T (-B) A_a, A_b^T (-B)^T A_b and A_a^T (-B) A_b,
    the own edges' negated blocks, then the diagonal blocks of the bulk and
    of the seam.  A diagonal block is minus the sum of its terms: the
    blocks at its plain a ends, its framed ends and its own edges, in that
    order, plus the transpose of the sum of those at its plain b ends, each
    kind in representative order.  diagonal_terms lists the three a and the
    three b terms of each bulk block; the seam blocks sum theirs (table) by
    np.bincount.  gather names the stack entry of every CSC data slot;
    diagonal names the slots of the diagonal blocks, (0, 0), (0, 1), (1, 0)
    and (1, 1) of each pair, then (0, 0) of each single.
    """

    def __init__(self, graph, unknowns):
        n, vid, n_up = graph.n, graph.vertex_id, graph.n_edges // 3
        i, j = graph.ij.T
        a, b = unknowns.ends
        ma, mb = unknowns.block.take(a), unknowns.block.take(b)
        on_axis = (i == j) & (i >= 1)
        framed = on_axis.take(a) | on_axis.take(b)
        plain = ~framed
        plain[unknowns.own] = False
        self.framed, self.own = np.flatnonzero(framed), unknowns.own
        # A_v at a framed edge's ends: the rotation by phi/2 on the axis,
        # the identity at the pairs and the Gamma1 singles next to it
        axis = unknowns.axis
        turn = np.array([[axis.real, -axis.imag], [axis.imag, axis.real]])
        self.frames = [np.where(on_axis.take(ends.take(self.framed))[:, None, None], turn, np.eye(2))
                       for ends in (a, b)]
        self.mirror = unknowns.mirror

        n_rep, n1 = len(a), len(self.framed)
        nb, p = len(unknowns.owners), unknowns.n_pairs
        m = np.arange(nb)
        fa, fb = ma.take(self.framed), mb.take(self.framed)
        x0 = n_rep + np.arange(n1)
        diag0 = n_rep + 3 * n1 + len(self.own)
        ip, jp = i.take(unknowns.owners[:p]), j.take(unknowns.owners[:p])
        bulk = np.zeros(nb, dtype=bool)
        bulk[:p] = (jp >= 2) & (jp + 3 <= ip) & (ip + jp < n)
        seam = ~bulk
        bulk_cols, seam_cols = np.flatnonzero(bulk), np.flatnonzero(seam)
        n_bulk, n_seam = len(bulk_cols), len(seam_cols)
        rank = np.empty(nb, dtype=np.intp)
        rank[bulk_cols] = np.arange(n_bulk)
        rank[seam_cols] = n_bulk + np.arange(n_seam)
        self.n_stack = diag0 + nb

        # the stencil of each bulk row j, read at its first column
        # (i, j) = (j + 3, j): the row block and the stack entry of each
        # position, less m
        rows = np.arange(2, (n - 4) // 2 + 1)
        i0, m0 = rows + 3, unknowns.block.take(vid(rows + 3, rows))

        def corner(ci, cj):
            return vid(ci, cj) - cj

        reps = np.searchsorted(unknowns.edges, [
            n_up + corner(i0, rows - 1), 2 * n_up + corner(i0, rows - 1),
            corner(i0 - 1, rows), corner(i0, rows),
            2 * n_up + corner(i0 - 1, rows), n_up + corner(i0, rows)])
        src = np.insert(reps, 3, diag0 + rank.take(m0), axis=0) - m0
        row_off = unknowns.block.take([
            vid(i0, rows - 1), vid(i0 + 1, rows - 1), vid(i0 - 1, rows), vid(i0, rows),
            vid(i0 + 1, rows), vid(i0 - 1, rows + 1), vid(i0, rows + 1)]) - m0
        # a bulk diagonal sums its a terms, the e1, R60 e1 and cell diagonal
        # edges from (i, j), then its b terms, those into (i, j)
        self.diagonal_terms = bulk_cols + src[[4, 6, 5, 2, 0, 1]].take(jp[bulk_cols] - 2, axis=1)

        # the seam's table: its diagonal blocks' terms, at the a ends and at
        # the b ends, and its block slots (row, column, stack entry,
        # transposed): the diagonals, then (a, b) and (b, a) of the plain
        # and the framed edges
        ends_a = plain & (ma >= 0)
        ends_b = plain & (mb >= 0)
        table = []
        for blocks, terms in (
                (np.concatenate([ma[ends_a], fa, fb, ma.take(self.own)]),
                 np.concatenate([np.flatnonzero(ends_a), x0, x0 + n1,
                                 n_rep + 3 * n1 + np.arange(len(self.own))])),
                (mb[ends_b], np.flatnonzero(ends_b))):
            keep = seam.take(blocks)
            # one bincount target per entry (c, d) of each term's block
            target = 4 * (rank.take(blocks[keep]) - n_bulk)
            table.append((terms[keep], (target[:, None] + np.arange(4)).ravel()))
        self.table = table
        both = np.flatnonzero(ends_a & ends_b)
        ab, ba = both[seam.take(mb[both])], both[seam.take(ma[both])]
        fab, fba = np.flatnonzero(seam.take(fb)), np.flatnonzero(seam.take(fa))
        rows_t = np.concatenate([seam_cols, ma[ab], mb[ba], fa[fab], fb[fba]])
        cols_t = np.concatenate([seam_cols, mb[ab], ma[ba], fb[fab], fa[fba]])
        src_t = np.concatenate([diag0 + rank.take(seam_cols), ab, ba,
                                x0[fab] + 2 * n1, x0[fba] + 2 * n1])
        flip = np.repeat([False, True, False, True],
                         [n_seam + len(ab), len(ba), len(fab), len(fba)])
        order = np.argsort(cols_t * nb + rows_t)
        rows_t, cols_t, src_t, flip = (x.take(order) for x in (rows_t, cols_t, src_t, flip))

        # scalar slots: block column c has k[c] scalar columns of length[c]
        # entries each, which list k[r] rows of every block (r, c) in turn;
        # a bulk column lists 7 pairs
        k = np.where(m < p, 2, 1)
        offset = np.where(m < p, 2 * m, p + m)
        k_row, k_col = k.take(rows_t), k.take(cols_t)
        seen = np.concatenate([[0], np.cumsum(k_row)])
        col_start = np.concatenate([[0], np.cumsum(np.bincount(cols_t, minlength=nb))])
        length = np.diff(seen.take(col_start))
        length[bulk_cols] = 14
        base = np.concatenate([[0], np.cumsum(k * length)])
        n_red = unknowns.n_reduced
        self.shape = (n_red, n_red)
        self.nnz = int(base[-1])
        self.indptr = np.empty(n_red + 1, dtype=np.int32)
        self.indptr[offset] = base[:-1]
        self.indptr[offset[:p] + 1] = base[:p] + length[:p]
        self.indptr[n_red] = self.nnz
        # slot of entry (r, q) of each table block: at + r + q * stride; the
        # entries a single lacks go to a spare slot past the end
        at = (base[:-1] - seen.take(col_start[:-1])).take(cols_t) + seen[:-1]
        stride = length.take(cols_t)
        row0, entry = offset.take(rows_t), 4 * src_t
        self.indices = np.empty(self.nnz + 1, dtype=np.int32)
        self.gather = np.empty(self.nnz + 1, dtype=np.intp)
        # stack entry (r, q) of a block is 2 r + q, or 2 q + r when flipped
        for q, r, e in ((0, 0, entry), (0, 1, entry + 2 - flip), (1, 0, entry + 1 + flip),
                        (1, 1, entry + 3)):
            pos = at + (r + q * stride)
            pos[(k_col <= q) | (k_row <= r)] = self.nnz
            self.indices[pos] = row0 + r
            self.gather[pos] = e
        self.indices, self.gather = self.indices[:-1], self.gather[:-1]
        # a bulk row's columns are one run of slots: scalar column 2m + q
        # lists rows 2r and 2r + 1 of its blocks, whose stack entries are
        # those of (r, q) in the table's rule, positions 4, 5 and 6 flipped
        c = np.arange(2)
        flipped = np.arange(7)[:, None] >= 4
        pair_entry = np.where(flipped, 2 * c[:, None, None] + c, 2 * c + c[:, None, None])
        gather_off = (4 * src.T[:, None, :, None] + pair_entry).reshape(-1, 28)
        index_off = np.empty((len(rows), 2, 7, 2), dtype=np.int32)
        index_off[:] = 2 * row_off.T[:, None, :, None] + c
        index_off = index_off.reshape(-1, 28)
        for row, lo in enumerate(m0):
            hi = lo + n - 2 * rows[row] - 3
            run = slice(base[lo], base[hi])
            np.add(4 * m[lo:hi, None], gather_off[row], out=self.gather[run].reshape(-1, 28))
            np.add(2 * m[lo:hi, None].astype(np.int32), index_off[row],
                   out=self.indices[run].reshape(-1, 28))
        # a bulk diagonal block follows the column's three lower blocks
        d = np.flatnonzero(src_t >= diag0)              # one per seam column, in order
        at_d, stride_d = np.empty(nb, dtype=np.int64), np.full(nb, 14, dtype=np.int64)
        at_d[bulk_cols] = base.take(bulk_cols) + 6
        at_d[seam_cols], stride_d[seam_cols] = at.take(d), stride.take(d)
        self.diagonal = (at_d[:p], at_d[:p] + stride_d[:p], at_d[:p] + 1,
                         at_d[:p] + stride_d[:p] + 1, at_d[p:])
        self.band = None             # solver.BandLayout, built by its first use
        # every matrix shares these: an in-place change would corrupt the plan
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def data(self, blocks):
        """CSC data of the even Hessian whose representative edge (a, b) has
        the block B = blocks[e] (its multiplicity included)."""
        n, n1 = len(blocks), len(self.framed)
        stack = np.empty((self.n_stack, 2, 2))
        neg = np.subtract(0.0, blocks, out=stack[:n])
        x = neg.take(self.framed, axis=0)
        fa, fb = self.frames
        stack[n:n + n1] = fa.swapaxes(1, 2) @ x @ fa
        stack[n + n1:n + 2 * n1] = fb.swapaxes(1, 2) @ x.swapaxes(1, 2) @ fb
        stack[n + 2 * n1:n + 3 * n1] = fa.swapaxes(1, 2) @ x @ fb
        y, m = neg.take(self.own, axis=0), self.mirror
        yt = y.swapaxes(1, 2)
        d0 = n + 3 * n1 + len(self.own)
        d1 = d0 + self.diagonal_terms.shape[1]
        stack[n + 3 * n1:d0] = y - y @ m - m @ yt + m @ yt @ m
        # a block's terms are summed alone; zero blocks added to the sum
        # could change only the sign of a zero, which 0 - S drops
        def term_sum(terms):
            total = stack.take(terms[0], axis=0)
            for t in terms[1:]:
                total += stack.take(t, axis=0)
            return total

        # no list holds the sums, so they are freed before the final gather
        a, b = (term_sum(terms) for terms in np.split(self.diagonal_terms, 2))
        a += b.swapaxes(1, 2)
        np.subtract(0.0, a, out=stack[d0:d1])
        a, b = (np.bincount(target, stack.take(terms, axis=0).ravel(),
                            minlength=4 * (len(stack) - d1)).reshape(-1, 2, 2)
                for terms, target in self.table)
        np.subtract(0.0, a + b.swapaxes(1, 2), out=stack[d1:])
        return stack.ravel().take(self.gather)

    def matrix(self, data):
        """The even CSC matrix with these data; it shares the index arrays
        of the plan."""
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


def assemble_energy(graph, config, law, layout=None):
    """Total energy: cell area times the half-fan density, summed over cells.

    Equals sqrt(3)/2 times the weighted bond sum plus the per-cell Psi term.
    With a lattice.MirrorLayout, config must be even, and the sum runs over
    the layout's cells, those off the diagonal counted twice.  Raises
    NonFiniteEnergyError when the total is not finite.
    """
    u = np.asarray(config, dtype=float)
    half = layout if isinstance(layout, MirrorLayout) else None
    # a non-finite configuration is reported below, not warned about here
    with np.errstate(invalid="ignore", over="ignore"):
        dens = _tri_energies(graph, u, law, half)
        if half is None:
            total = graph.triangle_area() * float(np.sum(dens))
        else:
            total = graph.triangle_area() * float(
                np.sum(dens[:half.n_self]) + 2.0 * np.sum(dens[half.n_self:]))
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
    """Sum per-cell vertex vectors values, shape cells.shape + (2,), onto
    the vertices cells: shape (n_vertices, 2).  Each vertex sums its terms
    in the order of cells.ravel(), one bincount per component."""
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
    """Reduced energy gradient (chain rule through the slave map).

    With a lattice.MirrorLayout and an even config it is the even gradient
    B^T S^T grad E instead, summed from the layout's edges and cells at
    their multiplicity (MirrorLayout.fold_half)."""
    if not isinstance(layout, MirrorLayout):
        return reduce_gradient(assemble_full_gradient(graph, config, law), cmap, layout)
    u = np.asarray(config, dtype=float)
    pull = _bond_gradients(graph, u, law, layout)
    g = _vertex_sums(layout.ends, np.stack([-pull, pull]), graph.n_vertices)
    if law.psi_name != "zero":
        psi = graph.triangle_area() * _psi_gradients(graph, u, law, layout)
        psi[layout.n_self:] *= 2.0
        g += _vertex_sums(layout.cells, psi.swapaxes(0, 1), graph.n_vertices)
    return layout.fold_half(g)


def assemble_hessian(graph, config, law, cmap, layout):
    """Reduced sparse symmetric Hessian in CSC form, in the fixed pattern of
    the layout's plan (built by the first call): the HessianPlan of a
    DofLayout, or the MirrorHessianPlan of a lattice.MirrorLayout, whose
    matrix is the even Hessian B^T H B at an even configuration."""
    half = layout if isinstance(layout, MirrorLayout) else None
    if layout.hessian_plan is None:
        layout.hessian_plan = (HessianPlan(graph, cmap, layout) if half is None
                               else MirrorHessianPlan(graph, layout))
    plan = layout.hessian_plan
    u = np.asarray(config, dtype=float)
    blocks = _bond_hessians(graph, u, law, half)
    if law.psi_name != "zero":
        # det is translation invariant, so each cell's Psi Hessian is a sum
        # over its edges (a, b) of -P at (a, a), -P^T at (b, b), P at (a, b)
        # and P^T at (b, a), where P is the cell's block [a, b]
        psi = _psi_edge_hessians(graph, u, law)
        if half is not None:
            # at the representatives' multiplicity; 0.5 * (2 x) is x exactly
            psi = 2.0 * psi.take(half.edges, axis=0)
            psi[half.own] *= 0.5
        blocks -= psi
    return plan.matrix(plan.data(blocks))
