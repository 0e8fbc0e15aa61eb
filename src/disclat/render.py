"""Static SVG rendering of (deformed) lattices.

Output is deterministic byte for byte: fixed float formatting, no
timestamps, elements emitted in lattice order.  A composite render draws
all floor(2*pi/phi) rotated copies R_phi^k(u) around the origin (the
nearest integer when 2*pi/phi lies within 1e-9 relative of one), which
reassembles the full disclination from the single computed wedge.

The copies are built and drawn one at a time.  Each one's pixel
coordinates are computed per vertex with numpy and formatted once per
vertex, CHUNK_ROWS vertices with one `%`; the polygons then go out
CHUNK_ROWS triangles per write, each chunk one `%` of the polygon template
repeated over the chunk's corner and fill strings.  So the writer holds
one copy's vertex strings plus one chunk of lines, never the whole picture.
"""

from operator import itemgetter

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


def render_svg(stream, graph, config, phi=None):
    """Write an SVG picture of the configuration.

    Triangles are filled according to the sign of their determinant
    (nonpositive cells stand out), edges stroked on top.  With phi=None the
    wedge alone is drawn; with a phi, its floor(2*pi/phi) rotated images
    are drawn in sequence, or round(2*pi/phi) of them when 2*pi/phi is an
    integer up to 1e-9 relative rounding (phi = 2*pi/25 gives
    24.999999999999996).  Raises ValueError, before writing anything, if a
    coordinate is not finite or phi lies outside (0, 2*pi].
    """
    config = np.asarray(config, dtype=float)
    if not np.isfinite(config).all():
        raise ValueError("cannot render a configuration with non-finite "
                         "coordinates")
    if phi is not None and not 0.0 < phi <= 2.0 * np.pi:
        raise ValueError("cannot render copies for phi = %r: phi must lie "
                         "in (0, 2pi]" % phi)
    # the floor with 1e-9 relative slack: 2pi/(2pi/k) may fall just below k
    n_copies = 1 if phi is None else int(np.floor(2.0 * np.pi / phi * (1.0 + 1e-9)))

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
    # a polygon's four strings are its corners' and its fill, which sits in
    # a copy's list of strings after the vertices' at n_v + (det > 0)
    n_v = len(config)
    fill_at = n_v + (triangle_dets(graph, config) > 0.0)
    stroke_w = max(0.25, min(1.2, 60.0 * scale * graph.eps / SIZE))
    polygon = ('<polygon points="%%s %%s %%s" fill="%%s" stroke="%s" '
               'stroke-width="%s" stroke-linejoin="round"/>\n'
               % (STROKE, _FMT % stroke_w))

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
        # filled in place: growing the list chunk by chunk would reallocate
        # it over and over and leave the freed copies resident in the heap
        strings = [None] * n_v + [FILL_NONPOS, FILL_POSITIVE]
        for start in range(0, n_v, CHUNK_ROWS):
            part = slice(start, min(start + CHUNK_ROWS, n_v))
            values = tuple(pix[part].ravel().tolist())
            strings[part] = (_PT_LINE * (len(values) // 2) % values).splitlines()
        for start in range(0, len(graph.tris), CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            rows = np.column_stack((graph.tris[part], fill_at[part]))
            stream.write(polygon * len(rows)
                         % itemgetter(*rows.ravel().tolist())(strings))
    stream.write("</svg>\n")
