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
        Counter-clockwise vertex triples; "up" triangles first.
    tri_up : (|T|,) bool array
        True for up triangles (their edge vectors are e1 and R60*e1).
    gamma1, gamma2, gamma3 : (|V|,) bool arrays
        Boundary membership of each vertex.
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
        self.tri_up = np.arange(len(self.tris)) < len(up)

        self.gamma1 = ij[:, 1] == 0
        self.gamma2 = ij[:, 0] == 0
        self.gamma3 = ij.sum(axis=1) == n

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

    @property
    def n_triangles(self):
        return len(self.tris)

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
    """

    def __init__(self, graph, cmap):
        nv = graph.n_vertices
        dependent = np.zeros(nv, dtype=bool)
        dependent[cmap.slaves] = True
        dependent[cmap.pinned] = True
        self.free_ids = np.flatnonzero(~dependent)
        self.n_full = nv
        self.n_reduced = 2 * len(self.free_ids)
        # reduced slot of each vertex (-1 for slaves/pinned)
        slot = -np.ones(nv, dtype=np.int64)
        slot[self.free_ids] = np.arange(len(self.free_ids))

        # sparse selection matrix S (2|V| x n_reduced) with u_full = S @ q:
        # identity blocks on free vertices, R_phi blocks slaving Gamma2 to
        # Gamma1.  The pinned origin row is zero.
        c = np.arange(2)
        n_free = len(self.free_ids)
        pairs = (len(cmap.slaves), 2, 2)      # entry (k, a, b) holds R_phi[a, b]
        slave_rows = 2 * cmap.slaves[:, None, None] + c[:, None]
        master_cols = 2 * slot[cmap.masters][:, None, None] + c
        rows = np.concatenate([
            (2 * self.free_ids[:, None] + c).ravel(),
            np.broadcast_to(slave_rows, pairs).ravel(),
        ])
        cols = np.concatenate([
            np.arange(2 * n_free),
            np.broadcast_to(master_cols, pairs).ravel(),
        ])
        vals = np.concatenate([
            np.ones(2 * n_free),
            np.broadcast_to(cmap.rotation, pairs).ravel(),
        ])
        self.select = sp.csr_matrix(
            (vals, (rows, cols)), shape=(2 * nv, self.n_reduced)
        )
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
    u = np.zeros((layout.n_full, 2))
    u[layout.free_ids] = reduced.reshape(-1, 2)
    u[cmap.slaves] = u[cmap.masters] @ cmap.rotation.T
    u[cmap.pinned] = 0.0
    return u


def reduce_config(config, layout):
    """Full (|V|, 2) configuration -> reduced vector (free vertices only)."""
    config = np.asarray(config, dtype=float)
    if config.shape != (layout.n_full, 2):
        raise ValueError(
            "config has shape %r, expected (%d, 2)" % (config.shape, layout.n_full)
        )
    return config[layout.free_ids].ravel()


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
    for vid, ((i, j), (x, y)) in enumerate(zip(graph.ij, graph.pos)):
        stream.write("v %d %d %d %.17g %.17g\n" % (vid, i, j, x, y))
    for eid, ((a, b), w) in enumerate(zip(graph.edges, graph.weights)):
        stream.write("e %d %d %d %.17g\n" % (eid, a, b, w))
    for tid, (a, b, c) in enumerate(graph.tris):
        stream.write("t %d %d %d %d\n" % (tid, a, b, c))
    for m, s in zip(cmap.masters, cmap.slaves):
        stream.write("c %d %d\n" % (m, s))
    stream.write("pin %d\n" % cmap.pinned)


def parse_lattice_dump(stream):
    """Read a lattice dump back into plain arrays (for round-trip checks).

    Returns a dict with keys ij, pos, edges, weights, tris, pairs, pinned.
    """
    ij, pos, edges, weights, tris, pairs = [], [], [], [], [], []
    pinned = None
    for line in stream:
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "v":
            ij.append((int(parts[2]), int(parts[3])))
            pos.append((float(parts[4]), float(parts[5])))
        elif tag == "e":
            edges.append((int(parts[2]), int(parts[3])))
            weights.append(float(parts[4]))
        elif tag == "t":
            tris.append((int(parts[2]), int(parts[3]), int(parts[4])))
        elif tag == "c":
            pairs.append((int(parts[1]), int(parts[2])))
        elif tag == "pin":
            pinned = int(parts[1])
        else:
            raise ValueError("unrecognized dump record %r" % tag)
    return {
        "ij": np.array(ij, dtype=np.int64),
        "pos": np.array(pos),
        "edges": np.array(edges, dtype=np.int64),
        "weights": np.array(weights),
        "tris": np.array(tris, dtype=np.int64),
        "pairs": np.array(pairs, dtype=np.int64),
        "pinned": pinned,
    }
