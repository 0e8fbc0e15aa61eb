"""Static SVG rendering of (deformed) lattices.

Output is deterministic byte for byte: fixed float formatting, no
timestamps, elements emitted in lattice order.  A composite render draws
all floor(2*pi/phi) rotated copies R_phi^k(u) around the origin (the
nearest integer when 2*pi/phi lies within 1e-9 relative of one), which
reassembles the full disclination from the single computed wedge.

The copies are built and drawn one at a time.  Each one's pixel
coordinates are computed per vertex with numpy and formatted once per
vertex, CHUNK_ROWS vertices per format_points call, into an object array
that ends with the two fill strings.  format_points reads the digits of
"%.6f,%.6f" off io's table of "%03d" % k for k < 1000, grouping the rows by
the digit counts of their integer parts so that each group is one array of
fixed-width strings; the rare value it cannot round exactly this way (one
near a rounding tie, such as 24.0078125, or one that does not round into
[1, 1000)) is formatted with `%`.  The polygons then go out CHUNK_ROWS
triangles per write: a reused (CHUNK_ROWS, 9) object array holds the
polygon template's constant pieces in its even columns, each chunk takes
its corner and fill strings into the odd ones, and one "".join writes it.
So the writer holds one copy's vertex strings plus one chunk of lines,
never the whole picture.
"""

import numpy as np

from .analysis import triangle_dets
from .io import CHUNK_ROWS, DIGITS
from .lattice import rot

_FMT = "%.6f"
SIZE = 720.0          # pixels on the longer side, margins included
MARGIN = 24.0

FILL_POSITIVE = "#f2f2ee"
FILL_NONPOS = "#e2908a"
STROKE = "#30302c"


# io's "%03d" % k for k = 0..999, as rows of three code points
_DIGITS = DIGITS.astype(np.uint32)
_SEPARATORS = np.array([".,"]).view(np.uint32)
# format_points lays a pair out in 20 columns: x's integer part and the
# first and last three of its six decimals, three digits each, the same for
# y, then "." and ",".  These are the columns of "x,y" when the integer
# parts of x and y have dx and dy digits, at 3 * (dx - 1) + dy - 1
_PAIR_COLUMNS = [np.r_[3 - dx:3, 18, 3:9, 19, 12 - dy:12, 18, 12:18]
                 for dx in (1, 2, 3) for dy in (1, 2, 3)]


def format_points(pix, out):
    """Set out[i] = "%.6f,%.6f" % tuple(pix[i]) for the rows of the (m, 2)
    float array pix, in the length-m object array out.

    A row is formatted from the digit table when both of its values v have
    r = rint(v * 1e6) in [1e6, 1e9), an integer part of one to three
    digits, and v * 1e6 more than 1e-3 from a half-integer.  Below 1e9 the
    product is off by at most half an ulp, 2^-24, so r is the correctly
    rounded %.6f, whose integer part and decimals are read off in threes.
    The rows are sorted by the digit counts of their integer parts, so each
    group's columns are fixed and its strings are one array of fixed width.
    Every other row is formatted with %: values at or near a tie, such as
    24.0078125, values below 1 (-0.0 and the subnormals among them) or from
    1000 on, and the non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # the non-finite
        p = pix * 1e6
        r = np.rint(p)
        fast = ((r >= 1e6) & (r < 1e9)
                & (np.abs(p - np.floor(p) - 0.5) > 1e-3)).all(axis=1)
    # a row left to % reads 1e6 here, which casts to int64 without a warning
    whole, decimals = np.divmod(np.where(fast[:, None], r, 1e6).astype(np.int64),
                                1000000)
    more = (whole >= 10) + (whole >= 100).astype(np.intp)   # digits, less one
    group = np.where(fast, 3 * more[:, 0] + more[:, 1], 9)
    order = np.argsort(group)
    bounds = np.searchsorted(group, np.arange(11), sorter=order)
    parts = np.stack([whole, decimals // 1000, decimals % 1000], axis=2)
    codes = np.empty((len(pix), 20), dtype=np.uint32)
    codes[:, :18] = _DIGITS.take(parts.take(order, axis=0), axis=0).reshape(-1, 18)
    codes[:, 18:] = _SEPARATORS
    for g, columns in enumerate(_PAIR_COLUMNS):
        rows = slice(bounds[g], bounds[g + 1])
        text = codes[rows].take(columns, axis=1).view("<U%d" % len(columns))
        out[order[rows]] = text.ravel().tolist()
    for i in order[bounds[9]:].tolist():
        out[i] = _FMT % pix[i, 0] + "," + _FMT % pix[i, 1]


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
            format_points(pix[part], strings[part])
        for start in range(0, len(graph.tris), CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            tris = graph.tris[part]
            rows = polygons[:len(tris)]
            strings.take(tris, out=rows[:, 1:7:2])
            strings.take(fill_at[part], out=rows[:, 7])
            stream.write("".join(rows.ravel().tolist()))
    stream.write("</svg>\n")
