"""Static SVG rendering of (deformed) lattices.

Output is deterministic byte for byte: fixed float formatting, no
timestamps, elements emitted in lattice order.  A composite render draws
all floor(2*pi/phi) rotated copies R_phi^k(u) around the origin (the
nearest integer when 2*pi/phi lies within 1e-9 relative of one), which
reassembles the full disclination from the single computed wedge.

The copies are built and drawn one at a time.  Each one's pixel
coordinates are computed per vertex with numpy and formatted once per
vertex, CHUNK_ROWS vertices with one `%`, into an object array that ends
with the two fill strings.  The polygons then go out CHUNK_ROWS triangles
per write: a reused (CHUNK_ROWS, 9) object array holds the polygon
template's constant pieces in its even columns, each chunk takes its
corner and fill strings into the odd ones, and one "".join writes it.  So
the writer holds one copy's vertex strings plus one chunk of lines, never
the whole picture.
"""

import numpy as np

from .analysis import triangle_dets
from .io import CHUNK_ROWS
from .lattice import rot

_FMT = "%.6f"
_PT_LINE = _FMT + "," + _FMT + "\n"
SIZE = 720.0          # pixels on the longer side, margins included
MARGIN = 24.0

FILL_POSITIVE = "#f2f2ee"
FILL_NONPOS = "#e2908a"
STROKE = "#30302c"


def copy_count(phi):
    """The number of rotated copies that fill a turn: floor(2*pi/phi), or
    the nearest integer when 2*pi/phi lies within 1e-9 relative below it
    (phi = 2*pi/25 gives 24.999999999999996)."""
    return int(np.floor(2.0 * np.pi / phi * (1.0 + 1e-9)))


def render_svg(stream, graph, config, phi=None):
    """Write an SVG picture of the configuration.

    Triangles are filled according to the sign of their determinant
    (nonpositive cells stand out), edges stroked on top.  With phi=None the
    wedge alone is drawn; with a phi, its copy_count(phi) rotated images
    are drawn in sequence.  Raises ValueError, before writing anything, if a
    coordinate is not finite or phi lies outside (0, 2*pi].
    """
    config = np.asarray(config, dtype=float)
    if not np.isfinite(config).all():
        raise ValueError("cannot render a configuration with non-finite "
                         "coordinates")
    if phi is not None and not 0.0 < phi <= 2.0 * np.pi:
        raise ValueError("cannot render copies for phi = %r: phi must lie "
                         "in (0, 2pi]" % phi)
    n_copies = 1 if phi is None else copy_count(phi)

    def frame(k):
        return config @ rot(k * phi).T if k else config

    extents = np.array([(f.min(axis=0), f.max(axis=0))
                        for f in map(frame, range(n_copies))])
    lo = extents[:, 0].min(axis=0)
    hi = extents[:, 1].max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    scale = (SIZE - 2.0 * MARGIN) / span

    width = MARGIN * 2.0 + (hi[0] - lo[0]) * scale
    height = MARGIN * 2.0 + (hi[1] - lo[1]) * scale
    # a polygon is nine strings: the template's five constant pieces in the
    # even columns, its three corners' and its fill in the odd ones.  The
    # fill sits in a copy's strings after the vertices' at n_v + (det > 0)
    n_v = len(config)
    fill_at = n_v + (triangle_dets(graph, config) > 0.0)
    stroke_w = max(0.25, min(1.2, 60.0 * scale * graph.eps / SIZE))
    polygons = np.empty((min(CHUNK_ROWS, len(graph.tris)), 9), dtype=object)
    polygons[:, 0::2] = ['<polygon points="', " ", " ", '" fill="',
                         '" stroke="%s" stroke-width="%s" stroke-linejoin='
                         '"round"/>\n' % (STROKE, _FMT % stroke_w)]
    strings = np.empty(n_v + 2, dtype=object)
    strings[n_v:] = FILL_NONPOS, FILL_POSITIVE

    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
        'viewBox="0 0 %s %s">\n' % (_FMT % width, _FMT % height,
                                    _FMT % width, _FMT % height)
    )
    stream.write('<rect width="100%%" height="100%%" fill="#ffffff"/>\n')
    for k in range(n_copies):
        f = frame(k)
        # pixel coordinates, y flipped because SVG grows downward, x and y
        # interleaved so that a chunk of vertices is one run of values
        pix = np.empty_like(f)
        pix[:, 0] = MARGIN + (f[:, 0] - lo[0]) * scale
        pix[:, 1] = MARGIN + (hi[1] - f[:, 1]) * scale
        for start in range(0, n_v, CHUNK_ROWS):
            part = slice(start, min(start + CHUNK_ROWS, n_v))
            values = tuple(pix[part].ravel().tolist())
            strings[part] = (_PT_LINE * (len(values) // 2) % values).splitlines()
        for start in range(0, len(graph.tris), CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            tris = graph.tris[part]
            rows = polygons[:len(tris)]
            strings.take(tris, out=rows[:, 1:7:2])
            strings.take(fill_at[part], out=rows[:, 7])
            stream.write("".join(rows.ravel().tolist()))
    stream.write("</svg>\n")
