"""Static SVG rendering of (deformed) lattices.

Output is deterministic byte for byte: fixed float formatting, no
timestamps, elements emitted in lattice order.  A composite render draws
all floor(2*pi/phi) rotated copies R_phi^k(u) around the origin, which
reassembles the full disclination from the single computed wedge.

The copies are built and drawn one at a time.  Each one's pixel
coordinates are computed per vertex with numpy and formatted once per
vertex; the polygons then go out CHUNK_ROWS triangles per write.  So the
writer holds one copy's vertex strings plus one chunk of lines, never the
whole picture.
"""

import numpy as np

from .analysis import triangle_dets
from .io import CHUNK_ROWS
from .lattice import rot

_FMT = "%.6f"
_PT = _FMT + "," + _FMT
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
    are drawn in sequence.  Raises ValueError, before writing anything, if
    a coordinate is not finite.
    """
    config = np.asarray(config, dtype=float)
    if not np.isfinite(config).all():
        raise ValueError("cannot render a configuration with non-finite "
                         "coordinates")
    n_copies = 1 if phi is None else int(np.floor(2.0 * np.pi / phi))

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
    positive = triangle_dets(graph, config) > 0.0
    stroke_w = max(0.25, min(1.2, 60.0 * scale * graph.eps / SIZE))
    polygon = ('<polygon points="%%s %%s %%s" fill="%%s" stroke="%s" '
               'stroke-width="%s" stroke-linejoin="round"/>\n'
               % (STROKE, _FMT % stroke_w))
    fills = (FILL_NONPOS, FILL_POSITIVE)

    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
        'viewBox="0 0 %s %s">\n' % (_FMT % width, _FMT % height,
                                    _FMT % width, _FMT % height)
    )
    stream.write('<rect width="100%%" height="100%%" fill="#ffffff"/>\n')
    for k in range(n_copies):
        f = frame(k)
        # pixel coordinates, y flipped because SVG grows downward
        px = MARGIN + (f[:, 0] - lo[0]) * scale
        py = MARGIN + (hi[1] - f[:, 1]) * scale
        # filled in place: growing the list chunk by chunk would reallocate
        # it over and over and leave the freed copies resident in the heap
        pts = [None] * len(f)
        for start in range(0, len(f), CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            pts[part] = [_PT % xy
                         for xy in zip(px[part].tolist(), py[part].tolist())]
        for start in range(0, len(graph.tris), CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            corners = graph.tris[part].T.tolist()
            stream.write("".join([
                polygon % (pts[a], pts[b], pts[c], fills[pos])
                for a, b, c, pos in zip(*corners, positive[part].tolist())
            ]))
    stream.write("</svg>\n")
