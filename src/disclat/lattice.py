"""Triangular lattice on the unit equilateral triangle, with the boundary
constraint machinery.

The reference domain is the closed triangle spanned by e1 and R60*e1 (side
length 1).  Vertices are indexed by integer pairs (i, j) with i, j >= 0 and
i + j <= N, sitting at eps*(i + j/2, j*sqrt(3)/2) where eps = 1/N.  The three
boundary segments are

    Gamma1: j = 0        (along e1)
    Gamma2: i = 0        (along R60*e1)
    Gamma3: i + j = N    (the far side)

A deformation u is admissible when u(R60*x) = R_phi*u(x) for every vertex x
on Gamma1 and u(0) = 0.  Each Gamma2 vertex (0, i) is therefore slaved to the
Gamma1 master (i, 0), and the origin is pinned, leaving 2*(|V| - N - 1) free
scalar unknowns.
"""

import numbers

import numpy as np
import scipy.sparse as sp

from .io import write_rows

SQRT3 = np.sqrt(3.0)


def rot(angle):
    """Counter-clockwise 2x2 rotation matrix."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _rows(k):
    """Index pairs (i, j) with j = 0..k-1 and i = 0..k-1-j, ordered by j,
    then i, as two int64 arrays."""
    counts = np.arange(k, 0, -1)
    j = np.repeat(np.arange(k), counts)
    starts = np.cumsum(counts) - counts
    return np.arange(len(j)) - starts[j], j


class LatticeGraph:
    """Vertices, weighted edges and oriented triangles of the lattice.

    n must be an integer >= 1 (Python or numpy); anything else raises
    ValueError.

    Attributes
    ----------
    n : int
        Subdivision count N.
    eps : float
        Lattice spacing 1/N.
    ij : (|V|, 2) int array
        Index pair of each vertex; vertex ids enumerate rows.
    pos : (|V|, 2) float array
        Reference positions eps*(i + j/2, j*sqrt(3)/2).
    edges : (|E|, 2) int array
    weights : (|E|,) float array
        1/2 on boundary edges, 1 on interior edges.
    tris : (|T|, 3) int array
        Counter-clockwise vertex triples; the n_edges // 3 "up" triangles
        (edge vectors e1 and R60*e1) first.
    """

    def __init__(self, n):
        if not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError("need an integer N >= 1, got %r" % (n,))
        self.n = n = int(n)
        self.eps = eps = 1.0 / n

        # vertex rows ordered by j, then i; id(i, j) = offset[j] + i
        i, j = _rows(n + 1)
        ij = np.column_stack([i, j])
        self.ij = ij
        self.pos = eps * np.column_stack(
            [ij[:, 0] + 0.5 * ij[:, 1], ij[:, 1] * (SQRT3 / 2.0)]
        )

        # each corner (i, j) with i + j < N owns the three edges and the up
        # triangle based there (the top vertex row j = N owns none)
        vid = self.vertex_id
        i, j = _rows(n)
        o, e1, e2 = vid(i, j), vid(i + 1, j), vid(i, j + 1)
        self.edges = np.concatenate(
            [
                np.column_stack([o, e1]),             # edges along e1
                np.column_stack([o, e2]),             # edges along R60*e1
                np.column_stack([e1, e2]),            # diagonal edges of the cells
            ]
        )
        self.weights = np.where(
            np.concatenate([j == 0, i == 0, i + j == n - 1]), 0.5, 1.0
        )

        up = np.column_stack([o, e1, e2])             # up triangles, CCW
        i, j = _rows(n - 1)
        down = np.column_stack(                       # down triangles, CCW
            [vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
        )
        self.tris = np.concatenate([up, down])

    def vertex_id(self, i, j):
        """Id of vertex (i, j): offset[j] + i, where row j holds N+1-j
        vertices.  Works elementwise on integer arrays."""
        return j * (self.n + 1) - j * (j - 1) // 2 + i

    @property
    def n_vertices(self):
        return len(self.ij)

    @property
    def n_edges(self):
        return len(self.edges)

    def triangle_area(self):
        """Reference area of every triangle: sqrt(3)*eps^2/4."""
        return SQRT3 * self.eps**2 / 4.0


class ConstraintMap:
    """Master-slave pairing u(R60*x) = R_phi*u(x) plus the pinned origin.

    masters[k] = id of Gamma1 vertex (k+1, 0); slaves[k] = id of the Gamma2
    vertex (0, k+1) at the rotated reference position.  rotation is R_phi.
    """

    def __init__(self, phi, masters, slaves, pinned):
        self.phi = float(phi)
        self.rotation = rot(phi)
        self.masters = np.asarray(masters, dtype=np.int64)
        self.slaves = np.asarray(slaves, dtype=np.int64)
        self.pinned = int(pinned)


def build_constraints(graph, phi):
    """Pair each Gamma1 vertex (i, 0), i >= 1, with the Gamma2 vertex (0, i).

    phi is the wedge angle of the disclination (2*pi/5 or 2*pi/7 in the
    classical 5-/7-type cases; phi = pi/3 gives the unfrustrated control).

    The apex (0, N) lies on both Gamma2 and Gamma3 and is slaved to (N, 0);
    the corner (N, 0) on Gamma1 and Gamma3 is an ordinary master.  Raises
    RuntimeError if a slave does not sit at R60 times its master's reference
    position, which would indicate a broken lattice.
    """
    k = np.arange(1, graph.n + 1)
    masters, slaves = graph.vertex_id(k, 0), graph.vertex_id(0, k)
    rotated = graph.pos[masters] @ rot(np.pi / 3.0).T
    gap = np.abs(rotated - graph.pos[slaves]).max(axis=1)
    broken = ~(gap < 1e-12)               # a NaN position counts as broken
    if broken.any():
        first = int(np.argmax(broken))
        raise RuntimeError(
            "constraint geometry broken at i=%d (gap %g)" % (k[first], gap[first])
        )
    return ConstraintMap(phi, masters, slaves, graph.vertex_id(0, 0))


class DofLayout:
    """Mapping between full per-vertex vectors and reduced free unknowns.

    free_ids lists the vertices carrying 2 unknowns each (everything except
    the slaved Gamma2 vertices and the pinned origin), in ascending id order.
    block[v] is the reduced block of vertex v: the place of v in free_ids,
    that of its master when v is a slave, and -1 at the pinned origin.
    """

    def __init__(self, graph, cmap):
        nv = graph.n_vertices
        dependent = np.zeros(nv, dtype=bool)
        dependent[cmap.slaves] = True
        dependent[cmap.pinned] = True
        self.free_ids = np.flatnonzero(~dependent)
        self.n_full = nv
        self.n_reduced = 2 * len(self.free_ids)
        self.block = np.full(nv, -1, dtype=np.int64)
        self.block[self.free_ids] = np.arange(len(self.free_ids))
        self.block[cmap.slaves] = self.block.take(cmap.masters)

        # energy.HessianPlan of this layout, built by the first Hessian
        self.hessian_plan = None


def expand(reduced, cmap, layout):
    """Reduced vector -> full (|V|, 2) configuration.

    Free vertices are filled from the reduced vector, the origin is set to
    (0, 0), and every slave is computed as R_phi times its master, so the
    output satisfies the constraint exactly by construction.
    """
    reduced = np.asarray(reduced, dtype=float)
    if reduced.shape != (layout.n_reduced,):
        raise ValueError(
            "reduced vector has shape %r, expected (%d,)"
            % (reduced.shape, layout.n_reduced)
        )
    # one complex128 per vertex row, so the rows scatter by a 1-D index
    u = np.zeros(layout.n_full, dtype=np.complex128)
    u[layout.free_ids] = np.ascontiguousarray(reduced).view(np.complex128)
    u = u.view(float).reshape(-1, 2)
    u[cmap.slaves] = u.take(cmap.masters, axis=0) @ cmap.rotation.T
    u[cmap.pinned] = 0.0
    return u


def reduce_gradient(full, cmap, layout):
    """Full (|V|, 2) gradient -> reduced gradient, by the transpose of
    expand: each master adds its slave's row times R_phi, and the slaves
    and the pinned origin drop out."""
    g = np.asarray(full, dtype=float)
    q = g.take(layout.free_ids, axis=0)
    m, s = layout.block.take(cmap.masters), g.take(cmap.slaves, axis=0)
    q[m] += s[:, :1] * cmap.rotation[0]
    q[m] += s[:, 1:] * cmap.rotation[1]
    return q.ravel()


def expand_matrix(cmap, layout):
    """expand as a sparse CSR matrix S (2|V| x n_reduced), u_full = S @ q:
    identity blocks on free vertices, R_phi blocks slaving Gamma2 to
    Gamma1, and zero rows at the pinned origin."""
    c, slaves, n = np.arange(2), cmap.slaves, layout.n_reduced
    # slave entry (k, a, b) holds R_phi[a, b] in row 2 s_k + a, column 2 m_k + b
    rows = np.broadcast_to(2 * slaves[:, None, None] + c[:, None], (len(slaves), 2, 2))
    cols = np.broadcast_to(2 * layout.block.take(slaves)[:, None, None] + c, rows.shape)
    vals = np.broadcast_to(cmap.rotation, rows.shape)
    return sp.csr_matrix(
        (np.concatenate([np.ones(n), vals.ravel()]),
         (np.concatenate([(2 * layout.free_ids[:, None] + c).ravel(), rows.ravel()]),
          np.concatenate([np.arange(n), cols.ravel()]))),
        shape=(2 * layout.n_full, n))


def reduce_config(config, layout):
    """Full (|V|, 2) configuration -> reduced vector (free vertices only)."""
    config = np.asarray(config, dtype=float)
    if config.shape != (layout.n_full, 2):
        raise ValueError(
            "config has shape %r, expected (%d, 2)" % (config.shape, layout.n_full)
        )
    return config.take(layout.free_ids, axis=0).ravel()


class Level:
    """One lattice of the eps-halving family, fixed by (N, phi): its graph,
    its constraint map u(R60 x) = R_phi u(x) and the layout of its reduced
    unknowns (which caches the energy.HessianPlan)."""

    def __init__(self, n, phi):
        self.graph = LatticeGraph(n)
        self.cmap = build_constraints(self.graph, phi)
        self.layout = DofLayout(self.graph, self.cmap)
        self.n = self.graph.n

    def expand(self, reduced):
        return expand(reduced, self.cmap, self.layout)

    def reduce(self, config):
        return reduce_config(config, self.layout)


def dump_lattice(graph, cmap, stream):
    """Write the plain-text lattice dump.

    One record per line: `v <id> <i> <j> <x> <y>`, `e <id> <v1> <v2> <w>`,
    `t <id> <v1> <v2> <v3>`, `c <master> <slave>`, `pin <id>`.  Floats carry
    17 significant digits so they round-trip bit-exactly.
    """
    ij, pos, edges = graph.ij, graph.pos, graph.edges
    write_rows(stream, "v %d %d %d %.17g %.17g\n",
               range(len(ij)), ij[:, 0], ij[:, 1], pos[:, 0], pos[:, 1])
    write_rows(stream, "e %d %d %d %.17g\n",
               range(len(edges)), edges[:, 0], edges[:, 1], graph.weights)
    write_rows(stream, "t %d %d %d %d\n", range(len(graph.tris)), *graph.tris.T)
    write_rows(stream, "c %d %d\n", cmap.masters, cmap.slaves)
    stream.write("pin %d\n" % cmap.pinned)

