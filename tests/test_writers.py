"""The chunked writers (SVG, lattice dump, config dump) and the chunked
config reader against the one-line-at-a-time loops they replaced, byte for
byte and error for error, and their memory bound."""

import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from disclat.analysis import triangle_dets
from disclat.experiments import folded_init
from disclat.io import (CHUNK_ROWS, FloatTexts, field, read_config, write_config,
                        write_table)
from disclat.lattice import LatticeGraph, build_constraints, dump_lattice, rot
from disclat.render import (FILL_NONPOS, FILL_POSITIVE, MARGIN, SIZE, STROKE,
                            copy_count, point_texts, render_svg)

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


def loop_read_config(stream):
    """The per-line reader, kept as the oracle for read_config."""
    meta = {}
    rows = {}
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, val = token.split("=", 1)
                    meta[key] = val
            continue
        parts = line.split()
        if parts[0] != "u" or len(parts) != 4:
            raise ValueError("bad config line: %r" % line)
        vid = int(parts[1])
        if vid in rows:
            raise ValueError("config vertex id %d repeats" % vid)
        rows[vid] = (float(parts[2]), float(parts[3]))
    if sorted(rows) != list(range(len(rows))):
        raise ValueError("config vertex ids are not 0..%d" % (len(rows) - 1))
    config = np.array([rows[i] for i in range(len(rows))])
    for key in ("phi", "p", "kappa", "delta"):
        if key in meta:
            meta[key] = float(meta[key])
    if "n" in meta:
        meta["n"] = int(meta["n"])
    return config, meta


def written(writer, *args, **kwargs):
    buf = io.StringIO()
    writer(buf, *args, **kwargs)
    return buf.getvalue()


def written_lines(writer, *args, **kwargs):
    """A writer's text as a list of lines, whose first difference pytest
    names at once; its diff of two long strings can take minutes."""
    return written(writer, *args, **kwargs).splitlines(keepends=True)


@given(st.data())
def test_render_svg_matches_loop(data):
    # N = 63 has 2080 vertices and 3969 triangles: a full chunk of each and
    # a partial last one.  Its copies are capped at three, which keeps the
    # loop oracle's time per example near that of the small lattices'.
    # N = 140 (10,011 vertices, 19,600 triangles) is four full chunks and a
    # partial one of each, drawn without copies for the same reason
    n = data.draw(st.integers(min_value=1, max_value=12) | st.sampled_from([63, 140]))
    phi = None if n == 140 else data.draw(
        st.none() | st.floats(min_value=0.2 if n <= 12 else 2.0,
                              max_value=2.0 * np.pi,
                              exclude_min=True, exclude_max=True))
    # lattice positions, jittered up to scrambled (inverted cells), then
    # scaled so that coordinates run from about 1e-8 to 1e6
    graph = LatticeGraph(n)
    jitter = data.draw(arrays(np.float64, graph.pos.shape,
                              elements=st.floats(min_value=-1.0, max_value=1.0)))
    amplitude = data.draw(st.sampled_from([0.0, 0.3 / n, 3.0]))
    scale = 10.0 ** data.draw(st.integers(min_value=-8, max_value=6))
    config = (graph.pos + amplitude * jitter) * scale
    assert (written_lines(render_svg, graph, config, phi=phi)
            == written_lines(loop_render_svg, graph, config, phi=phi))


def formatted(pix):
    """point_texts' rows as strings, their NUL padding dropped."""
    table = point_texts(np.asarray(pix, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in table]


def by_percent(pix):
    return ["%.6f,%.6f" % (x, y) for x, y in np.asarray(pix, dtype=float).tolist()]


@given(arrays(np.float64, st.tuples(st.integers(min_value=1, max_value=64),
                                    st.just(2)),
              elements=st.floats(min_value=0.0, max_value=1000.0,
                                 exclude_max=True)))
def test_point_texts_matches_percent(pix):
    assert formatted(pix) == by_percent(pix)


def test_point_texts_on_ties_carries_and_the_fallback():
    # exact binary ties of the sixth decimal and their neighbours, values
    # whose rounding carries into another digit, and values outside
    # [1, 1000) or not finite, which only % formats; 1e300's text, over 300
    # characters, widens the table
    ties = [24.0078125, 696.0078125, 1.5000005, 123.4567895]
    special = [9.9999996, 99.9999996, 999.9999996, 0.9999996, 9.9999994,
               1.0, 10.0, 100.0, 999.999999, -1.0, 1000.0, 0.0, -0.0,
               5e-324, np.inf, -np.inf, np.nan, 1e300]
    values = ties + special + [np.nextafter(t, d) for t in ties
                               for d in (-np.inf, np.inf)]
    # (k + 1/2) / 1e6 for drawn k at every digit count: each product v * 1e6
    # lands on or within an ulp of a half-integer, where rint alone would
    # round some of them the wrong way
    rng = np.random.default_rng(38)
    k = np.concatenate([rng.integers(10 ** (d + 5), 10 ** (d + 6), 300)
                        for d in range(1, 4)])
    near = (k + 0.5) / 1e6
    values += near.tolist() + np.nextafter(near, np.inf).tolist()
    # every value beside every other kind of value, in both columns
    pix = np.array(values)
    pix = np.column_stack([pix, np.roll(pix, 7)])
    pix = np.vstack([pix, pix[:, ::-1]])
    assert formatted(pix) == by_percent(pix)
    # every pair of integer-part digit counts in one block, each with a
    # fallback row
    grid = np.array([[x, y] for x in (7.25, 42.125, 421.0625)
                     for y in (3.3, 33.3, 333.3, 24.0078125)])
    assert formatted(grid) == by_percent(grid)


def test_render_svg_marks_inverted_cells():
    graph = LatticeGraph(4)
    config = graph.pos.copy()
    config[[1, 2]] = config[[2, 1]]          # swapping two vertices inverts cells
    svg = written(render_svg, graph, config, phi=PHI5)
    assert FILL_NONPOS in svg and FILL_POSITIVE in svg
    assert svg == written(loop_render_svg, graph, config, phi=PHI5)


def test_render_svg_draws_one_copy_per_whole_turn():
    # 2pi / (2pi/25) is 24.999999999999996, which still means 25 copies: the
    # rule has one floating-point edge per k, so every k is counted through
    # copy_count, and a few are drawn to see render_svg draw that many
    for k in range(2, 401):
        assert copy_count(2.0 * np.pi / k) == k, k
    assert copy_count(1.0) == 6
    graph = LatticeGraph(1)
    for k in (2, 5, 7, 25, 400):
        svg = written(render_svg, graph, graph.pos, phi=2.0 * np.pi / k)
        assert svg.count("<polygon") == k, k
    assert written(render_svg, graph, graph.pos, phi=1.0).count("<polygon") == 6


# 0.0 and -0.0, NaNs of three bit patterns, the infinities and subnormals,
# which a dump must tell apart by their bits, not by ==
SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan,
                  np.uint64(0x7FF0000000000001).view(np.float64),
                  np.inf, -np.inf, 5e-324, -2.2250738585072e-309]


@given(st.data())
def test_dump_lattice_matches_loop(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    graph = LatticeGraph(n)
    cmap = build_constraints(graph, PHI5)
    if data.draw(st.booleans()):
        # each position and weight drawn from a few values, the special
        # ones among them, so that each value repeats as on the lattice; a
        # seed, not arrays(), which would fill most entries with one value
        pool = np.array(SPECIAL_FLOATS + data.draw(st.lists(st.floats(), max_size=4)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        graph.pos = pool[rng.integers(len(pool), size=graph.pos.shape)]
        graph.weights = pool[rng.integers(len(pool), size=graph.weights.shape)]
    assert (written_lines(lambda fh: dump_lattice(graph, cmap, fh))
            == written_lines(lambda fh: loop_dump_lattice(graph, cmap, fh)))


def by_percent_d(line, *columns):
    """The oracle for write_table's integer columns: `line % row` per row."""
    return [line % row for row in zip(*[list(c) for c in columns])]


@given(st.data())
def test_write_table_integers_match_percent_d(data):
    # one to three columns beside a range of row ids, each value cut to a
    # random digit count, up to int64's 19, so that a column's digit groups
    # run from one to seven.  The values come from a seed, not arrays(),
    # which takes minutes to shrink a failing table of 2049 rows
    n = data.draw(st.integers(0, 40) | st.sampled_from([CHUNK_ROWS - 1, CHUNK_ROWS + 1]))
    top = data.draw(st.sampled_from([9, 999, 10**6, 10**9, 2**63 - 1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    columns = [rng.integers(0, top, size=n, endpoint=True) // 10 ** rng.integers(0, 19, size=n)
               for _ in range(data.draw(st.integers(1, 3)))]
    start = data.draw(st.integers(0, 10**7))
    columns.insert(data.draw(st.integers(0, len(columns))), range(start, start + n))
    line = data.draw(st.sampled_from(["", "t ", "row:"])) + " ".join(
        ["%d"] * len(columns)) + "\n"
    assert written_lines(write_table, line, *columns) == by_percent_d(line, *columns)


def test_write_table_integers_at_powers_of_ten():
    # every digit count from 1 to 10: 10**k - 1, 10**k and 10**k + 1 for
    # k = 0..9, in one column and beside the column's maximum
    values = np.array(sorted({v for k in range(10) for v in (10**k - 1, 10**k, 10**k + 1)}))
    for top in values:
        column = values[values <= top]
        assert (written_lines(write_table, "%d %d\n", column, column[::-1])
                == by_percent_d("%d %d\n", column, column[::-1])), top


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_write_table_chunks(n):
    ids = np.arange(n, dtype=np.int64) * 7919
    floats = FloatTexts(np.arange(n) % 5 / 3.0)
    assert (written_lines(write_table, "r %d %d %s\n", range(n), ids, floats)
            == ["r %d %d %.17g\n" % (k, ids[k], k % 5 / 3.0) for k in range(n)])


def test_write_table_refuses_a_negative_value():
    for column in (np.array([0, 5, -1, 7]), range(-2, 3)):
        sink = Sink()
        with pytest.raises(ValueError, match="non-negative"):
            write_table(sink, "x %d\n", column)
        assert sink.size == 0


def test_float_texts_table_holds_each_bit_pattern_once():
    # SPECIAL_FLOATS, each repeated, with ordinary values: one NUL-padded
    # row per bit pattern, as wide as the longest text (24 characters, of
    # -2.2250738585072e-309), so that 5e-324's 23 take one NUL
    values = np.array(SPECIAL_FLOATS * 3 + [0.1, 1.0 / 3.0, -1e300])
    texts = FloatTexts(values)
    keys = np.unique(values.view(np.uint64)).view(float).tolist()
    assert texts.table.shape == (len(keys), 24)
    assert ([row.tobytes().rstrip(b"\0").decode() for row in texts.table]
            == ["%.17g" % x for x in keys])
    assert "%.17g" % 5e-324 in [row.tobytes()[:23].decode() for row in texts.table]
    assert written_lines(write_table, "%s\n", texts) == ["%.17g\n" % x for x in values.tolist()]


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
    assert (written_lines(write_config, config, **meta)
            == written_lines(loop_write_config, config, **meta))


@pytest.mark.parametrize("value, text", [
    (None, ""), ("smoothed_abs", "smoothed_abs"), (True, "1"), (False, "0"),
    (np.True_, "1"), (np.False_, "0"), (7, "7"), (np.int64(56), "56"),
    (2.0, "2"), (np.float64(0.1), "0.10000000000000001"),
    (2.0 * np.pi / 5.0, "1.2566370614359172"), (-0.0, "-0"),
    (float("nan"), "nan"), (float("inf"), "inf"), (-np.inf, "-inf")])
def test_field_prints_the_texts_of_the_old_writers(value, text):
    # the texts the hand-written table writers printed: "" for a missing
    # p_eps, %s for psi, 1/0 for a converged flag, %d for counts, %.17g for
    # floats
    assert field(value) == text


# spellings float() and int() accept besides the writer's own
COORDS = ["0", "-0", "1.5", "5e-324", "-1.7976931348623157e+308", "inf",
          "-Infinity", "nan", "-nan", "+NaN", "1_0.5", "1e5_0", "\u0661.5"]
ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                       "\u0665\u0666\u0667\u0668\u0669")

# each kind of damage maps a data line's tokens (tag, id, x, y) to new ones;
# None deletes the line, so that its id goes missing
DAMAGE = {
    "tag": lambda t, rnd, n: [rnd.choice(["v", "U", "uu", "0"])] + t[1:],
    "3 tokens": lambda t, rnd, n: t[:3],
    "5 tokens": lambda t, rnd, n: t + [rnd.choice(COORDS)],
    "repeated id": lambda t, rnd, n: [t[0], str(rnd.randrange(n))] + t[2:],
    "missing id": lambda t, rnd, n: None,
    "negative id": lambda t, rnd, n: [t[0], str(-rnd.randint(0, 3))] + t[2:],
    "far id": lambda t, rnd, n: [t[0], str(rnd.choice([n, 2**40, 10**30]))] + t[2:],
    "non-integer id": lambda t, rnd, n: [t[0], rnd.choice(
        ["1.5", "x", "0x1f", "1e3", "--1", "\u0663.0"])] + t[2:],
    "non-numeric coordinate": lambda t, rnd, n: t[:2] + (
        [rnd.choice(["abc", "1.2.3", "nan(1)", "1,5", "0x1p3", "1__0"])] + t[3:]
        if rnd.random() < 0.5 else t[2:3] + ["infinit"] + t[4:]),
    "two rows on a line": lambda t, rnd, n: t + ["u", str(rnd.randrange(n)),
                                                 "0", "0"],
    "a row on two lines": lambda t, rnd, n: t[:2] + ["\n".join(t[2:])],
    "NUL": lambda t, rnd, n: t[:2] + [t[2] + "\0"] + t[3:]
                             if rnd.random() < 0.5 else t + ["\0"],
    # still valid: the same id and coordinates in other spellings
    "respelled": lambda t, rnd, n: [t[0], rnd.choice(
        ["+" + t[1], "0" + t[1], t[1].translate(ARABIC)]),
        rnd.choice(COORDS)] + t[3:],
}
COMMENTS = ["#", "# phi=1.5 n=3 p=2", "#psi=zero", "# kappa=nan junk delta=-0",
            "# n=x", "# p=", "#n=4=5"]
BLANKS = ["", "   ", "\t", " \x0b "]


def config_dump(rnd, n, shuffle, damage, extra):
    """The text of an n-row config dump, rows shuffled or in order, each
    kind in `damage` applied to a random data line (or a (kind, k) pair to
    line k), and `extra` blank or comment lines put anywhere."""
    ids = list(range(n))
    if shuffle:
        rnd.shuffle(ids)
    rows = [["u", str(i), "%.17g" % rnd.uniform(-2.0, 2.0),
             "%.17g" % rnd.uniform(-2.0, 2.0)] for i in ids]
    for kind in damage:
        kind, k = kind if isinstance(kind, tuple) else (kind, None)
        live = [k for k, row in enumerate(rows) if row is not None]
        if live:
            k = rnd.choice(live) if k is None else k
            rows[k] = DAMAGE[kind](rows[k], rnd, max(n, 1))
    lines = [rnd.choice([" ", "  ", "\t"]).join(row)
             for row in rows if row is not None]
    for _ in range(extra):
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(COMMENTS + BLANKS))
    return "\n".join(lines) + rnd.choice(["", "\n"])


def read_outcome(reader, text):
    """What a reader makes of a text: its config's shape, dtype and bytes and
    its meta, or the type and message of what it raised."""
    try:
        config, meta = reader(io.StringIO(text))
    except Exception as err:
        return type(err), str(err)
    return config.shape, config.dtype, config.tobytes(), repr(meta)


@settings(max_examples=100)
@given(st.data())
def test_read_config_matches_loop(data):
    # a seed, not st.randoms(): a dump of 4000 rows draws too much to record
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 12)
                  | st.integers(CHUNK_ROWS - 3, 2 * CHUNK_ROWS + 3))
    text = config_dump(rnd, n, data.draw(st.booleans()),
                       data.draw(st.lists(st.sampled_from(sorted(DAMAGE)),
                                          max_size=3)),
                       data.draw(st.integers(0, 4)))
    assert read_outcome(read_config, text) == read_outcome(loop_read_config, text)


@pytest.mark.parametrize("kind", sorted(DAMAGE))
@pytest.mark.parametrize("shuffle", [False, True])
def test_read_config_damage_matches_loop(kind, shuffle):
    # each kind of damage alone, before a later one, and on the first and
    # last line of a chunk, in a dump of three chunks, so that the first bad
    # line is raised whichever chunk holds it
    n = 2 * CHUNK_ROWS + 100
    for seed in range(3):
        rnd = random.Random(seed)
        for damage, extra in (([kind], 3), ([kind, rnd.choice(sorted(DAMAGE))], 3),
                              ([(kind, CHUNK_ROWS - 1)], 0),
                              ([(kind, CHUNK_ROWS)], 0), ([(kind, n - 1)], 0)):
            text = config_dump(rnd, n, shuffle, damage, extra)
            assert (read_outcome(read_config, text)
                    == read_outcome(loop_read_config, text)), (kind, seed)


class Sink:
    """A stream that counts what it is given and keeps none of it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


@pytest.mark.parametrize("writer", ["render", "mesh", "config"])
def test_writer_memory_is_a_chunk_not_the_file(writer):
    # peaks, against half the output: render 1.38 of 6.78 MB, mesh 353 of
    # 598 KB, config 356 KB of 3.17 MB.  The config dump is drawn at N = 512
    # (64 chunks): at N = 128 it is 4.1 chunks, and one chunk's values and
    # text (356 KB) alone pass half of its 391 KB
    graph = LatticeGraph(512 if writer == "config" else 128)
    cmap = build_constraints(graph, PHI5)
    config = folded_init(graph, PHI5, 3)
    # the graph's tables are the writers' input, like config: LatticeGraph
    # builds them on first read, so they are read before the trace starts
    graph.pos, graph.edges, graph.weights, graph.tris
    sink = Sink()
    tracemalloc.start()
    try:
        if writer == "render":
            render_svg(sink, graph, config, phi=PHI5)
        elif writer == "mesh":
            dump_lattice(graph, cmap, sink)
        else:
            write_config(sink, config, phi=PHI5, n=graph.n, p=2.0, psi="zero")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sink.size / 2, (peak, sink.size)


def test_reader_memory_is_a_chunk_not_the_file(tmp_path):
    # N = 512 again: at N = 128 the peak above the returned array is
    # 815 KB, since one chunk's lines, text and tokens pass the whole
    # 391 KB dump.  At N = 512 it is 0.94 of the 3.17 MB bound; the
    # line-by-line reader's is 28 MB
    graph = LatticeGraph(512)
    config = folded_init(graph, PHI5, 3)
    path = tmp_path / "config.txt"
    with open(path, "w") as fh:
        write_config(fh, config, phi=PHI5, n=graph.n, p=2.0, psi="zero")
    size = path.stat().st_size
    with open(path) as fh:
        tracemalloc.start()
        try:
            back, _ = read_config(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert back.tobytes() == config.tobytes()
    assert peak - back.nbytes < size / 2, (peak, back.nbytes, size)


def test_render_svg_refuses_phi_outside_a_turn():
    graph = LatticeGraph(2)
    for phi in (0.0, -1.0, 7.0, float("nan")):
        sink = Sink()
        with pytest.raises(ValueError, match="phi"):
            render_svg(sink, graph, graph.pos, phi=phi)
        assert sink.size == 0, phi
    svg = written(render_svg, graph, graph.pos, phi=2.0 * np.pi)
    assert svg.count("<polygon") == len(graph.tris)
    assert svg == written(loop_render_svg, graph, graph.pos, phi=2.0 * np.pi)
