"""The chunked writers (SVG, lattice dump, config dump) against the
one-line-at-a-time loops they replaced, byte for byte, and their memory
bound."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from disclat.analysis import triangle_dets
from disclat.experiments import folded_init
from disclat.io import write_config
from disclat.lattice import LatticeGraph, build_constraints, dump_lattice, rot
from disclat.render import (FILL_NONPOS, FILL_POSITIVE, MARGIN, SIZE, STROKE,
                            render_svg)

PHI5 = 2.0 * np.pi / 5.0


def loop_render_svg(stream, graph, config, phi=None):
    """The per-polygon writer, kept as the oracle for render_svg."""
    config = np.asarray(config, dtype=float)
    n_copies = 1
    if phi is not None:
        turns = 2.0 * np.pi / phi
        whole = abs(turns - round(turns)) <= 1e-9 * turns
        n_copies = int(round(turns) if whole else np.floor(turns))
    frames = [config @ rot(k * phi).T if k else config for k in range(n_copies)]

    pts = np.vstack(frames)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    scale = (SIZE - 2.0 * MARGIN) / span

    def to_px(p):
        return (
            MARGIN + (p[0] - lo[0]) * scale,
            MARGIN + (hi[1] - p[1]) * scale,
        )

    def _pt(x, y):
        return "%.6f,%.6f" % (x, y)

    width = MARGIN * 2.0 + (hi[0] - lo[0]) * scale
    height = MARGIN * 2.0 + (hi[1] - lo[1]) * scale
    dets = triangle_dets(graph, config)
    stroke_w = max(0.25, min(1.2, 60.0 * scale * graph.eps / SIZE))

    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
        'viewBox="0 0 %s %s">\n' % ("%.6f" % width, "%.6f" % height,
                                    "%.6f" % width, "%.6f" % height)
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
                % (corners, fill, STROKE, "%.6f" % stroke_w)
            )
    stream.write("</svg>\n")


def loop_dump_lattice(graph, cmap, stream):
    """The per-line lattice dump, kept as the oracle for dump_lattice."""
    for vid, ((i, j), (x, y)) in enumerate(zip(graph.ij, graph.pos)):
        stream.write("v %d %d %d %.17g %.17g\n" % (vid, i, j, x, y))
    for eid, ((a, b), w) in enumerate(zip(graph.edges, graph.weights)):
        stream.write("e %d %d %d %.17g\n" % (eid, a, b, w))
    for tid, (a, b, c) in enumerate(graph.tris):
        stream.write("t %d %d %d %d\n" % (tid, a, b, c))
    for m, s in zip(cmap.masters, cmap.slaves):
        stream.write("c %d %d\n" % (m, s))
    stream.write("pin %d\n" % cmap.pinned)


def loop_write_config(stream, config, phi=None, n=None, p=None, psi=None,
                      kappa=None, delta=None):
    """The per-line config dump, kept as the oracle for write_config."""
    meta = []
    if phi is not None:
        meta.append("phi=%.17g" % float(phi))
    if n is not None:
        meta.append("n=%d" % n)
    if p is not None:
        meta.append("p=%.17g" % float(p))
    if psi is not None:
        meta.append("psi=%s" % psi)
    if kappa is not None:
        meta.append("kappa=%.17g" % float(kappa))
    if delta is not None:
        meta.append("delta=%.17g" % float(delta))
    if meta:
        stream.write("# " + " ".join(meta) + "\n")
    for vid, (ux, uy) in enumerate(np.asarray(config, dtype=float)):
        stream.write("u %d %.17g %.17g\n" % (vid, float(ux), float(uy)))


def written(writer, *args, **kwargs):
    buf = io.StringIO()
    writer(buf, *args, **kwargs)
    return buf.getvalue()


@given(st.data())
def test_render_svg_matches_loop(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    phi = data.draw(st.none() | st.floats(min_value=0.2, max_value=2.0 * np.pi,
                                          exclude_min=True, exclude_max=True))
    # lattice positions, jittered up to scrambled (inverted cells), then
    # scaled so that coordinates run from about 1e-8 to 1e6
    graph = LatticeGraph(n)
    jitter = data.draw(arrays(np.float64, graph.pos.shape,
                              elements=st.floats(min_value=-1.0, max_value=1.0)))
    amplitude = data.draw(st.sampled_from([0.0, 0.3 / n, 3.0]))
    scale = 10.0 ** data.draw(st.integers(min_value=-8, max_value=6))
    config = (graph.pos + amplitude * jitter) * scale
    assert (written(render_svg, graph, config, phi=phi)
            == written(loop_render_svg, graph, config, phi=phi))


def test_render_svg_marks_inverted_cells():
    graph = LatticeGraph(4)
    config = graph.pos.copy()
    config[[1, 2]] = config[[2, 1]]          # swapping two vertices inverts cells
    svg = written(render_svg, graph, config, phi=PHI5)
    assert FILL_NONPOS in svg and FILL_POSITIVE in svg
    assert svg == written(loop_render_svg, graph, config, phi=PHI5)


def test_render_svg_draws_one_copy_per_whole_turn():
    # 2pi / (2pi/25) is 24.999999999999996, which still means 25 copies
    graph = LatticeGraph(1)
    for k in range(2, 401):
        svg = written(render_svg, graph, graph.pos, phi=2.0 * np.pi / k)
        assert svg.count("<polygon") == k, k
    assert written(render_svg, graph, graph.pos, phi=1.0).count("<polygon") == 6


@given(st.integers(min_value=1, max_value=40))
def test_dump_lattice_matches_loop(n):
    graph = LatticeGraph(n)
    cmap = build_constraints(graph, PHI5)
    expected = io.StringIO()
    loop_dump_lattice(graph, cmap, expected)
    got = io.StringIO()
    dump_lattice(graph, cmap, got)
    assert got.getvalue() == expected.getvalue()


@given(st.data())
def test_write_config_matches_loop(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    values = st.one_of(
        st.floats(),
        st.sampled_from([-0.0, 5e-324, -2.2250738585072e-309, 1.7e308, -1.7e308]),
    )
    shape = ((n + 1) * (n + 2) // 2, 2)
    config = data.draw(arrays(np.float64, shape, elements=values))
    meta = dict(phi=data.draw(st.none() | st.floats()), n=n,
                p=data.draw(st.none() | st.floats()),
                psi=data.draw(st.none() | st.sampled_from(["zero", "smoothed_abs"])),
                kappa=data.draw(st.none() | st.floats()),
                delta=data.draw(st.none() | st.floats()))
    assert (written(write_config, config, **meta)
            == written(loop_write_config, config, **meta))


class Sink:
    """A stream that counts what it is given and keeps none of it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


@pytest.mark.parametrize("writer", ["render", "mesh"])
def test_writer_memory_is_a_chunk_not_the_file(writer):
    graph = LatticeGraph(128)
    cmap = build_constraints(graph, PHI5)
    config = folded_init(graph, PHI5, 3)
    sink = Sink()
    tracemalloc.start()
    try:
        if writer == "render":
            render_svg(sink, graph, config, phi=PHI5)
        else:
            dump_lattice(graph, cmap, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sink.size / 2, (peak, sink.size)
