"""Static SVG rendering of (deformed) lattices.

Output is deterministic byte for byte: fixed float formatting, no
timestamps, elements emitted in lattice order.  A composite render draws
all floor(2*pi/phi) rotated copies R_phi^k(u) around the origin, which
reassembles the full disclination from the single computed wedge.
"""

import numpy as np

from .analysis import triangle_dets
from .lattice import rot

_FMT = "%.6f"
SIZE = 720.0          # pixels on the longer side, margins included
MARGIN = 24.0

FILL_POSITIVE = "#f2f2ee"
FILL_NONPOS = "#e2908a"
STROKE = "#30302c"


def _pt(x, y):
    return (_FMT + "," + _FMT) % (x, y)


def render_svg(stream, graph, config, phi=None, copies=False):
    """Write an SVG picture of the configuration.

    Triangles are filled according to the sign of their determinant
    (nonpositive cells stand out), edges stroked on top.  With copies=True
    (needs phi) the floor(2*pi/phi) rotated images are drawn in sequence.
    """
    config = np.asarray(config, dtype=float)
    if copies:
        if phi is None:
            raise ValueError("composite render needs phi")
        n_copies = int(np.floor(2.0 * np.pi / phi))
    else:
        n_copies = 1
    frames = [config @ rot(k * phi).T if k else config for k in range(n_copies)]

    pts = np.vstack(frames)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    scale = (SIZE - 2.0 * MARGIN) / span

    def to_px(p):
        # flip y: SVG grows downward
        return (
            MARGIN + (p[0] - lo[0]) * scale,
            MARGIN + (hi[1] - p[1]) * scale,
        )

    width = MARGIN * 2.0 + (hi[0] - lo[0]) * scale
    height = MARGIN * 2.0 + (hi[1] - lo[1]) * scale
    dets = triangle_dets(graph, config)
    stroke_w = max(0.25, min(1.2, 60.0 * scale * graph.eps / SIZE))

    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
        'viewBox="0 0 %s %s">\n' % (_FMT % width, _FMT % height,
                                    _FMT % width, _FMT % height)
    )
    stream.write('<rect width="100%%" height="100%%" fill="#ffffff"/>\n')
    for frame in frames:
        for t, (a, b, c) in enumerate(graph.tris):
            fill = FILL_POSITIVE if dets[t] > 0.0 else FILL_NONPOS
            corners = " ".join(
                _pt(*to_px(frame[v])) for v in (a, b, c)
            )
            stream.write(
                '<polygon points="%s" fill="%s" stroke="%s" '
                'stroke-width="%s" stroke-linejoin="round"/>\n'
                % (corners, fill, STROKE, _FMT % stroke_w)
            )
    stream.write("</svg>\n")
