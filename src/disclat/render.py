"""Static SVG rendering of (deformed) lattices.

Output is deterministic byte for byte: fixed float formatting, no
timestamps, elements emitted in lattice order.  A composite render draws
all floor(2*pi/phi) rotated copies R_phi^k(u) around the origin (the
nearest integer when 2*pi/phi lies within 1e-9 relative of one), which
reassembles the full disclination from the single computed wedge.

The copies are built and drawn one at a time.  Each one's pixel
coordinates are computed per vertex with numpy, and point_texts formats
them once per vertex into a NUL-padded byte table of "%.6f,%.6f" texts,
read off io's digit tables; the rare value it cannot round exactly this
way (one near a rounding tie, such as 24.0078125, or one that does not
round into [1, 1000)) is formatted with `%`.  The polygons then go out
through io.write_table, CHUNK_ROWS triangles per write, their corners and
fills as Texts columns of that table and of the two fills' texts.  So the
writer holds one copy's vertex table plus one chunk of lines, never the
whole picture.
"""

import numpy as np

from .analysis import triangle_dets
from .io import DIGITS, Texts, fill_digits, write_table
from .lattice import rot

_FMT = "%.6f"
SIZE = 720.0          # pixels on the longer side, margins included
MARGIN = 24.0

FILL_POSITIVE = "#f2f2ee"
FILL_NONPOS = "#e2908a"
STROKE = "#30302c"

# the fills' texts, at row 1 for a cell of positive determinant
_FILLS = np.array([FILL_NONPOS, FILL_POSITIVE], dtype=np.bytes_).view(np.uint8).reshape(2, -1)


def point_texts(pix):
    """The "%.6f,%.6f" % tuple(pix[i]) of the rows of the (n, 2) float
    array pix, as an (n, width) uint8 table of ASCII bytes, row i NUL-padded.

    A row is formatted from the digit tables when both of its values v have
    r = rint(v * 1e6) in [1e6, 1e9), an integer part of one to three
    digits, and v * 1e6 more than 1e-3 from a half-integer.  Below 1e9 the
    product is off by at most half an ulp, 2^-24, so r is the correctly
    rounded %.6f, whose integer part and decimals are read off in threes:
    "%3d" with NUL blanks, ".", "%03d", "%03d" for each value, in 21
    columns with the "," between them.  Every other row is formatted with
    %: values at or near a tie, such as 24.0078125, values below 1 (-0.0
    and the subnormals among them) or from 1000 on, and the non-finite;
    the table widens to the longest of those texts.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # the non-finite
        p = pix * 1e6
        r = np.rint(p)
        fast = ((r >= 1e6) & (r < 1e9)
                & (np.abs(p - np.floor(p) - 0.5) > 1e-3)).all(axis=1)
    # a row left to % reads 1e6 here, which casts to int64 without a warning
    whole, decimals = np.divmod(np.where(fast[:, None], r, 1e6).astype(np.int64),
                                1000000)
    slow = np.flatnonzero(~fast)
    texts = np.array([_FMT % x + "," + _FMT % y for x, y in pix[slow].tolist()],
                     dtype=np.bytes_)
    width = max(21, texts.itemsize)
    table = np.zeros((len(pix), width), dtype=np.uint8)
    for k, at in enumerate((0, 11)):
        fill_digits(table[:, at:at + 3], whole[:, k], 1)
        table[:, at + 3] = ord(".")
        table[:, at + 4:at + 7] = DIGITS.take(decimals[:, k] // 1000, axis=0)
        table[:, at + 7:at + 10] = DIGITS.take(decimals[:, k] % 1000, axis=0)
    table[:, 10] = ord(",")
    table[slow] = texts.astype("S%d" % width).view(np.uint8).reshape(-1, width)
    return table


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
    fill = Texts(_FILLS, (triangle_dets(graph, config) > 0.0).view(np.uint8))
    stroke_w = max(0.25, min(1.2, 60.0 * scale * graph.eps / SIZE))
    line = ('<polygon points="%%s %%s %%s" fill="%%s" stroke="%s" stroke-width="%s" '
            'stroke-linejoin="round"/>\n' % (STROKE, _FMT % stroke_w))

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
        table = point_texts(np.column_stack([MARGIN + (f[:, 0] - lo[0]) * scale,
                                             MARGIN + (hi[1] - f[:, 1]) * scale]))
        write_table(stream, line, *[Texts(table, c) for c in graph.tris.T], fill)
    stream.write("</svg>\n")
