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
scalar unknowns.  The configurations that the reflection u -> M u(j, i)
leaves fixed have half as many (MirrorLayout); the sweep solves on them.
"""

import functools
import numbers

import numpy as np

from .io import FloatTexts, write_table

SQRT3 = np.sqrt(3.0)


def rot(angle):
    """Counter-clockwise 2x2 rotation matrix."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _runs(j, lo, hi):
    """Index pairs (i, j[r]) with lo[r] <= i < hi[r], row r by row r, as two
    int64 arrays; a row with hi <= lo is empty.  j, lo and hi broadcast."""
    j, lo, hi = np.broadcast_arrays(j, lo, hi)
    counts = np.maximum(hi - lo, 0)
    rows = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return np.arange(len(rows)) + (lo - starts).take(rows), j.take(rows)


def _rows(k):
    """Index pairs (i, j) with j = 0..k-1 and i = 0..k-1-j, ordered by j,
    then i, as two int64 arrays."""
    j = np.arange(k)
    return _runs(j, 0, k - j)


def _edges(vid, e1, r60, diagonal):
    """Ends (2, R) of the edges based at the corners (i, j) of each group,
    given as (i, j) array pairs: (i, j)-(i+1, j) along e1, (i, j)-(i, j+1)
    along R60*e1 and the cell diagonal (i+1, j)-(i, j+1)."""
    (i1, j1), (i2, j2), (i3, j3) = e1, r60, diagonal
    return np.concatenate([[vid(i1, j1), vid(i1 + 1, j1)], [vid(i2, j2), vid(i2, j2 + 1)],
                           [vid(i3 + 1, j3), vid(i3, j3 + 1)]], axis=1)


def _weights(n, e1, r60, diagonal):
    """w(e) of the edges of _edges: 1/2 on the boundary (j = 0 along e1,
    i = 0 along R60*e1, i + j = N - 1 for a cell diagonal), 1 inside."""
    (i1, j1), (i2, j2), (i3, j3) = e1, r60, diagonal
    return np.where(np.concatenate([j1 == 0, i2 == 0, i3 + j3 == n - 1]), 0.5, 1.0)


def _cells(vid, up, down):
    """Counter-clockwise vertex triples (3, K) of the up cells based at the
    corners up, (i, j), (i+1, j), (i, j+1), then of the down cells based at
    the corners down, (i+1, j), (i+1, j+1), (i, j+1)."""
    (ui, uj), (di, dj) = up, down
    return np.concatenate([[vid(ui, uj), vid(ui + 1, uj), vid(ui, uj + 1)],
                           [vid(di + 1, dj), vid(di + 1, dj + 1), vid(di, dj + 1)]], axis=1)


def _off_diagonal_corners(n):
    """The corners (i, j), i > j, of the up cells (i + j < N) and of the down
    cells (i + j < N - 1), each as (i, j) array pairs ordered by j, then i."""
    h = np.arange(n)
    return _runs(h, h + 1, n - h), _runs(h, h + 1, n - 1 - h)


class LatticeGraph:
    """Vertices, weighted edges and oriented triangles of the lattice.

    n must be an integer >= 1 (Python or numpy); anything else raises
    ValueError.  Only ij is built with the graph: pos, edges, weights and
    tris are built on first read, so a level that never reads them never
    holds them.  A bond-law (psi="zero") sweep builds none: a MirrorLevel's
    solve reads none, and its determinant summary reads the half's cells
    and their mirror images (MirrorLayout.image_cells).  Under
    psi="smoothed_abs", assemble_hessian's _psi_edge_hessians builds tris
    and every cell's determinant gradient (ROADMAP item 13 would form them
    on the half).

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
        Each corner (i, j) with i + j < N owns three edges: its edge along
        e1, then along R60*e1, then the diagonal of its cell, each group
        corner by corner (the top vertex row j = N owns none).
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
        self.eps = 1.0 / n
        # vertex rows ordered by j, then i; id(i, j) = offset[j] + i
        self.ij = np.column_stack(_rows(n + 1))
        self.n_edges = 3 * (n * (n + 1) // 2)

    def vertex_id(self, i, j):
        """Id of vertex (i, j): offset[j] + i, where row j holds N+1-j
        vertices.  Works elementwise on integer arrays."""
        return j * (self.n + 1) - j * (j - 1) // 2 + i

    @property
    def n_vertices(self):
        return len(self.ij)

    def positions(self, ids=None):
        """Reference positions of the vertices ids (all when None): rows of
        pos once it is built, else computed from their (i, j) alone."""
        if "pos" in self.__dict__:
            return self.pos if ids is None else self.pos.take(ids, axis=0)
        ij = self.ij if ids is None else self.ij.take(ids, axis=0)
        return self.eps * np.column_stack([ij[:, 0] + 0.5 * ij[:, 1], ij[:, 1] * (SQRT3 / 2.0)])

    @functools.cached_property
    def pos(self):
        return self.positions()

    @functools.cached_property
    def edges(self):
        corners = _rows(self.n)
        return np.ascontiguousarray(_edges(self.vertex_id, corners, corners, corners).T)

    @functools.cached_property
    def weights(self):
        corners = _rows(self.n)
        return _weights(self.n, corners, corners, corners)

    @functools.cached_property
    def tris(self):
        return np.ascontiguousarray(_cells(self.vertex_id, _rows(self.n), _rows(self.n - 1)).T)

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
    position, which would indicate a broken lattice; only these 2N rows of
    the positions are read (LatticeGraph.positions).
    """
    k = np.arange(1, graph.n + 1)
    masters, slaves = graph.vertex_id(k, 0), graph.vertex_id(0, k)
    rotated = graph.positions(masters) @ rot(np.pi / 3.0).T
    gap = np.abs(rotated - graph.positions(slaves)).max(axis=1)
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


def reduce_config(config, layout):
    """Full (|V|, 2) configuration -> reduced vector (free vertices only)."""
    config = np.asarray(config, dtype=float)
    if config.shape != (layout.n_full, 2):
        raise ValueError(
            "config has shape %r, expected (%d, 2)" % (config.shape, layout.n_full)
        )
    return config.take(layout.free_ids, axis=0).ravel()


class MirrorLayout:
    """The mirror-even unknowns of a lattice under the constraint
    u(R60 x) = R_phi u(x) of wedge angle phi.

    M = [[cos phi, sin phi], [sin phi, -cos phi]] is the reflection across
    the line at angle phi/2.  u -> M u(j, i) maps admissible configurations
    to admissible ones of the same energy, and u is even when
    u(j, i) = M u(i, j) at every vertex.  An even u is fixed by:
    - the two components of each vertex (i, j) with i > j >= 1 (a pair);
    - one number at each Gamma1 vertex (k, 0), k >= 1: its Gamma2 slave is
      both R_phi u and M u, so u lies along e1;
    - one number at each diagonal vertex (i, i), i >= 1: u lies along the
      axis (cos phi/2, sin phi/2) of M.
    Every vertex with i < j, the Gamma2 slaves included, is the image M u of
    its mirror vertex (j, i), and the origin is pinned.  The even vector
    lists the pairs first, two numbers each, then the single numbers, each
    group in vertex id order: n_reduced is half of DofLayout.n_reduced.
    expand writes the configuration of an even vector straight from these
    tables, so the layout needs no DofLayout of its lattice.

    owners lists the vertex of each block (n_pairs pairs, then the singles)
    and axes the unit axis of each single as a complex number: 1 on
    Gamma1, axis = exp(i phi/2) on the diagonal.  block[v] is
    the block of vertex v: its own for i >= j, its mirror vertex's for
    i < j, and -1 at the origin.  mirror is M, and in complex form
    M z = w conj(z) with w = exp(i phi).

    At an even configuration a cell or an edge and its mirror image carry
    the same energy, so the half with i >= j determines the energy and its
    derivatives (Palais, Comm. Math. Phys. 69, 1979).  The layout holds that
    half, each table a C-ordered array whose rows, the vertex columns, are
    contiguous:
    - cells (3, K): the cells whose corner has i >= j, in the vertex order
      of LatticeGraph.tris.  The first n_self are their own mirror images
      (corner i == j, up cells then down cells) and count once; the rest
      (up cells, then down cells) count twice.
    - ends (2, R): the ends a, b of the representative edges, edges their
      numbers (int32) and weights w(e) times their multiplicity.  An edge
      with both ends at i >= j stands for itself and its mirror image
      (multiplicity 2); the cell diagonal (k+1, k)-(k, k+1) is its own
      image (multiplicity 1), and own lists their places.
    - seam (2, S): the vertices (k, k+1) at i < j that these cells and edges
      touch, and their mirror vertices (k+1, k).
    Every table is written in closed form from the (i, j) it covers, so
    the layout reads none of the graph's full-lattice tables (pos, edges,
    weights, tris) and builds none of them.
    """

    def __init__(self, graph, phi):
        n, vid = graph.n, graph.vertex_id
        rows = np.arange(1, n + 1)
        pi, pj = _runs(rows, rows + 1, n + 1 - rows)              # i > j >= 1
        pairs = vid(pi, pj)
        k = np.arange(1, n // 2 + 1)                               # (k, k)
        # the Gamma1 singles (1..N, 0) are vertices 1..N
        self.owners = np.concatenate([pairs, np.arange(1, n + 1), vid(k, k)])
        self.n_pairs = len(pairs)
        self.n_reduced = 2 * len(pairs) + n + len(k)
        self.axis = np.exp(0.5j * phi)
        self.axes = np.concatenate([np.ones(n, dtype=np.complex128), np.full(len(k), self.axis)])
        self.w = np.exp(1j * phi)
        self.mirror = np.array([[self.w.real, self.w.imag], [self.w.imag, -self.w.real]])
        self.block = np.full(graph.n_vertices, -1, dtype=np.int64)
        self.block[self.owners] = np.arange(len(self.owners))
        ui, uj = _runs(rows, 0, np.minimum(rows, n + 1 - rows))    # i < j
        self.upper = vid(ui, uj)
        self.upper_images = vid(uj, ui)
        self.block[self.upper] = self.block.take(self.upper_images)

        # the cells of corner i == j (up, then down), then those of corner
        # i > j (up cells with i + j < N, then down cells with i + j < N - 1)
        up, down = np.arange((n + 1) // 2), np.arange(n // 2)
        plain, plain_down = _off_diagonal_corners(n)
        self.n_self = len(up) + len(down)
        self.cells = np.concatenate([_cells(vid, (up, up), (down, down)),
                                     _cells(vid, plain, plain_down)], axis=1)
        # the edges of corners i >= j along e1 and on the cell diagonal, of
        # corners i > j along R60*e1; edge numbers are the group's first
        # plus the corner's number v - j(v), int32 (below 2^31 up to N of
        # about 37,800)
        h = np.arange(n)
        ci, cj = corners = _runs(h, h, n - h)
        number, n_up = vid(ci, cj) - cj, graph.n_edges // 3
        self.edges = np.concatenate([number, n_up + vid(*plain) - plain[1],
                                     2 * n_up + number]).astype(np.int32)
        self.ends = _edges(vid, corners, plain, corners)
        self.own = len(ci) + len(plain[0]) + np.flatnonzero(ci == cj)
        self.weights = 2.0 * _weights(n, corners, plain, corners)
        self.weights[self.own] *= 0.5
        # the seam: the ends of the diagonals of the up cells (k, k)
        self.seam = np.stack([vid(up, up + 1), vid(up + 1, up)])

        # energy.MirrorHessianPlan of this layout, built by the first Hessian
        self.hessian_plan = None

    def image_cells(self, graph):
        """The mirror images of the cells that count twice, cells[:, n_self:],
        in their order: the cells of the mirrored corners (j, i), each in the
        vertex order of LatticeGraph.tris.  With m(i, j) = (j, i), up cell
        (a, b, c) maps to (m(a), m(c), m(b)) and down cell (a, b, c) to
        (m(c), m(b), m(a)).  Written in closed form on each call and not
        kept: with cells, they are every cell of the lattice once."""
        return _cells(graph.vertex_id, *((j, i) for i, j in _off_diagonal_corners(graph.n)))

    def expand(self, even):
        """Even vector x -> full (|V|, 2) configuration, in one pass: x at a
        pair's vertex, x times the axis at a single, M u(j, i) at every
        vertex (i, j) with i < j (the Gamma2 slaves included, where it is
        R_phi u(j, 0)) and 0 at the origin."""
        p = self.n_pairs
        z = np.zeros(len(self.block), dtype=np.complex128)
        z[self.owners[:p]] = np.ascontiguousarray(even[:2 * p]).view(np.complex128)
        z[self.owners[p:]] = even[2 * p:] * self.axes
        z[self.upper] = self.w * np.conj(z.take(self.upper_images))
        return z.view(float).reshape(-1, 2)

    def reduce(self, config):
        """Full (|V|, 2) configuration -> even vector: the owners' values,
        projected on their axes at the singles, so that x is
        reduce(expand(x))."""
        z = np.ascontiguousarray(config, dtype=float).view(np.complex128).ravel()
        p = self.n_pairs
        return np.concatenate([z.take(self.owners[:p]).view(float),
                               (z.take(self.owners[p:]) * np.conj(self.axes)).real])

    def fold_half(self, gradient):
        """Even gradient B^T S^T g of a full (|V|, 2) float gradient g that
        vanishes at i < j off the seam, as the half's cells and edges leave
        it: each seam row joins its mirror vertex times M, then the owners'
        rows are read as reduce reads a configuration.  g is overwritten."""
        z = gradient.view(np.complex128).ravel()
        seam, images = self.seam
        z[images] += self.w * np.conj(z.take(seam))
        return self.reduce(gradient)

    def maps(self):
        """The (|V|, 2, 2) matrices A_v with u(v) = A_v x, x the two numbers
        of block[v] (a single's second one is unused): the identity on a
        pair, the rotation taking e1 to its axis on a single, M A_w on the
        mirror vertex of w, and zero at the origin."""
        a = np.zeros((len(self.block), 2, 2))
        p = self.n_pairs
        a[self.owners[:p]] = np.eye(2)
        c, s = self.axes.real, self.axes.imag
        a[self.owners[p:]] = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
        a[self.upper] = self.mirror @ a[self.upper_images]
        return a


class Level:
    """One lattice of the eps-halving family, fixed by (N, phi): its graph,
    its constraint map u(R60 x) = R_phi u(x) and unknowns, the one layout
    the solver iterates on, here the DofLayout of the reduced unknowns
    (which caches the energy.HessianPlan)."""

    def __init__(self, n, phi):
        self.graph = LatticeGraph(n)
        self.cmap = build_constraints(self.graph, phi)
        self.unknowns = DofLayout(self.graph, self.cmap)
        self.n = self.graph.n

    def expand(self, reduced):
        return expand(reduced, self.cmap, self.unknowns)

    def reduce(self, config):
        return reduce_config(config, self.unknowns)

    def grad_inf(self, gradient):
        """Infinity norm of the reduced gradient, given in the solver's
        unknowns: max |g|."""
        return np.abs(gradient).max()


class MirrorLevel:
    """The Level of (N, phi) with its mirror-even half as its one layout:
    unknowns is a MirrorLayout (which caches the energy.MirrorHessianPlan),
    expand and reduce map even vectors, and grad_inf reads the reduced
    gradient's norm off the even one.  It builds no DofLayout.  An even
    critical point is a critical point of the whole problem (Palais,
    Comm. Math. Phys. 69, 1979)."""

    def __init__(self, n, phi):
        self.graph = LatticeGraph(n)
        self.cmap = build_constraints(self.graph, phi)
        self.unknowns = MirrorLayout(self.graph, self.cmap.phi)
        self.n = self.graph.n

    def expand(self, even):
        return self.unknowns.expand(even)

    def reduce(self, config):
        return self.unknowns.reduce(config)

    def grad_inf(self, gradient):
        """Infinity norm of the reduced gradient g at an even configuration,
        from its even gradient x: g is even, so it is x/2 at a pair's vertex
        (i, j) and M x/2 at (j, i), and x times the axis at a single."""
        u = self.unknowns
        p = 2 * u.n_pairs
        half = 0.5 * np.ascontiguousarray(gradient[:p]).view(np.complex128)
        parts = (half, u.w * np.conj(half), gradient[p:] * u.axes)
        return np.abs(np.concatenate(parts).view(float)).max()


def dump_lattice(graph, cmap, stream):
    """Write the plain-text lattice dump.

    One record per line: `v <id> <i> <j> <x> <y>`, `e <id> <v1> <v2> <w>`,
    `t <id> <v1> <v2> <v3>`, `c <master> <slave>`, `pin <id>`.  Floats carry
    17 significant digits so they round-trip bit-exactly.
    """
    ij, pos, edges = graph.ij, graph.pos, graph.edges
    write_table(stream, "v %d %d %d %s %s\n", range(len(ij)), ij[:, 0], ij[:, 1],
                FloatTexts(pos[:, 0]), FloatTexts(pos[:, 1]))
    write_table(stream, "e %d %d %d %s\n", range(len(edges)), edges[:, 0],
                edges[:, 1], FloatTexts(graph.weights))
    write_table(stream, "t %d %d %d %d\n", range(len(graph.tris)), *graph.tris.T)
    write_table(stream, "c %d %d\n", cmap.masters, cmap.slaves)
    stream.write("pin %d\n" % cmap.pinned)

