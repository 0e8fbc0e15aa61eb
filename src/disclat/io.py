"""File formats: configuration dumps, experiment CSVs, verification JSONL.

All floats are printed with %.17g so that a dump/parse round trip
reproduces the binary float64 values exactly.  The sweep, fold and solve
CSVs go through write_csv, and their fields and the config dump's header
values through one rule, field: None prints nothing, a str as it stands, a
float by %.17g and any other value by %d.  The large tables are written
a chunk of CHUNK_ROWS rows per stream.write, so that a writer's memory stays
bounded by one chunk, and read_config parses a config dump a chunk of lines
at a time for the same reason.  The lattice dump and the SVG go through
write_table, whose columns are non-negative integers and text columns,
rows of a table of NUL-padded ASCII texts: each chunk is laid out as ASCII bytes in a
reused uint8 array, the template's constant text in fixed columns, an
integer's digits gathered in groups of three from a digit table and a
text's bytes from its table; dropping the NULs leaves the chunk's text.
FloatTexts, the other %s column, formats each distinct value of a float
column once.  The config dump, whose floats are all distinct, goes through
write_rows, one `%` of the row template repeated over the chunk.
"""

import json
import re
from itertools import chain, islice

import numpy as np

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 2048

# "%03d" % k for k = 0..999, one row of three ASCII digits per k
DIGITS = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
# "%3d" % k with NULs for its blanks: a number's leading group of digits
_LEAD = DIGITS.copy()
_LEAD[:100, 0] = 0
_LEAD[:10, 1] = 0
# fill_digits' groups of three digits: "%03d" % k at row k, the leading
# group k of a number below 1000 at row 1000 + k, and at row 2000 + k the
# leading group k above the units, where a leading 0 is no digits at all
_GROUPS = np.concatenate([DIGITS, _LEAD, _LEAD])
_GROUPS[2000] = 0


class Texts:
    """A %s column of write_table: row k prints table[index[k]], a row of
    ASCII bytes NUL-padded to the table's width."""

    def __init__(self, table, index):
        self.table = table
        self.index = index

    def __len__(self):
        return len(self.index)

    def __getitem__(self, part):
        """The (m, table width) text bytes of the rows in the slice part."""
        return self.table.take(self.index[part], axis=0)


class FloatTexts:
    """A float column that write_table prints with %.17g, through a %s.

    Each distinct value is formatted once, into `table`, one row of ASCII
    bytes per value, NUL-padded to the longest text.  Values are told apart
    by their 64 bits, so -0.0 and 0.0 and NaNs of any payload keep their own
    texts.  A chunk's rows look their `bits` up in the sorted distinct bits,
    `keys`, by searchsorted, so no whole-column index is ever held.  This
    pays off on columns of few distinct values, such as the lattice's
    positions and bond weights.
    """

    def __init__(self, values):
        self.bits = np.asarray(values, dtype=float).view(np.uint64)
        self.keys = np.unique(self.bits)
        texts = np.array([FLOAT_FMT % x for x in self.keys.view(float).tolist()],
                         dtype=np.bytes_)
        self.table = texts.view(np.uint8).reshape(len(texts), texts.itemsize)

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, part):
        return self.table.take(np.searchsorted(self.keys, self.bits[part]), axis=0)


def fill_digits(out, v, groups):
    """Write the decimal digits of the non-negative int64 values v, all
    below 1000**groups, into the (m, 3 * groups) uint8 array out,
    right-aligned, with NULs left of each number's first digit.

    The g-th group from the right holds t % 1000 for t = v // 1000**g: its
    "%03d" while t >= 1000, else its "%3d" (the value's leading group), or
    nothing for a t of 0 above the units.  The groups' rows of _GROUPS are
    gathered with one take.
    """
    row = np.empty((len(v), groups), dtype=np.int64)
    t = v
    lead = 1000
    for k in range(groups - 1, 0, -1):
        t, row[:, k] = np.divmod(t, 1000)
        np.add(row[:, k], lead, out=row[:, k], where=t == 0)
        lead = 2000
    np.add(t, lead, out=row[:, 0])
    out[...] = _GROUPS.take(row, axis=0).reshape(len(v), 3 * groups)


def write_table(stream, line, *columns):
    """Write `line % row` for each row of the equal-length columns, one
    stream.write per CHUNK_ROWS rows.

    In the template line, each %d is a column of non-negative integers (a
    numpy integer array or a range) and each %s a text column, a Texts or
    a FloatTexts: its `table` holds NUL-padded texts, and its [part] gives
    the rows of the slice part; the rest is written as it stands.  A chunk is laid out in a
    reused (m, W) uint8 array, one row per line: the template's constant
    bytes sit in fixed columns, written once; each integer column has
    3 * ceil(d / 3) columns for the d digits of its maximum, which
    fill_digits fills with groups of three digits from a table; a text
    column is as wide as its table and takes its rows' texts from it.  All
    padding is NUL, so the array's non-NUL bytes in order are the chunk's
    text.  Raises ValueError, before writing anything, if an integer column
    holds a negative value.
    """
    pieces = re.split("(%[ds])", line)
    n = len(columns[0])
    fields = []             # (columns of the row, column, digit groups or 0)
    width = 0
    constants = []          # (columns of the row, bytes)
    for k, piece in enumerate(pieces):
        if k % 2 == 0:
            text = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
            constants.append((slice(width, width + len(text)), text))
            width += len(text)
            continue
        column = columns[k // 2]
        if piece == "%s":
            fields.append((slice(width, width + column.table.shape[1]), column, 0))
            width += column.table.shape[1]
            continue
        if not n:
            lo = hi = 0
        elif isinstance(column, range):
            lo, hi = sorted((column[0], column[-1]))
        else:
            lo, hi = int(column.min()), int(column.max())
        if lo < 0:
            raise ValueError("write_table prints non-negative integers; a "
                             "column holds %d" % lo)
        groups = (len(str(hi)) + 2) // 3
        fields.append((slice(width, width + 3 * groups), column, groups))
        width += 3 * groups
    buf = np.zeros((min(n, CHUNK_ROWS), width), dtype=np.uint8)
    for cols, text in constants:
        buf[:, cols] = text
    for start in range(0, n, CHUNK_ROWS):
        part = slice(start, start + CHUNK_ROWS)
        rows = buf[:min(CHUNK_ROWS, n - start)]
        for cols, column, groups in fields:
            values = column[part]
            if not groups:
                rows[:, cols] = values
                continue
            if isinstance(values, range):
                values = np.arange(values.start, values.stop, values.step)
            fill_digits(rows[:, cols], values.astype(np.int64, copy=False), groups)
        stream.write(rows[rows != 0].tobytes().decode("ascii"))


def write_rows(stream, line, *columns):
    """Write `line % row` for each row of the equal-length 1-D columns, one
    stream.write per CHUNK_ROWS rows.

    A column is a numpy array or a range (row ids).  Arrays are converted a
    chunk at a time with .tolist(); the Python ints and floats it returns
    print exactly as the numpy scalars would.  A chunk of m rows is one `%`
    of `line` repeated m times over the chunk's values, row by row.  The
    config dump takes this path: its floats are all distinct, so
    write_table's table of distinct texts would save nothing.
    """
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        part = slice(start, start + CHUNK_ROWS)
        # the tuple is built straight from the rows, and the column lists
        # die with the zip before the text exists, as the last chunk's
        # values die before the next chunk's lists: one copy of the values
        # is alive at a time
        values = tuple(chain.from_iterable(zip(*[
            c[part].tolist() if isinstance(c, np.ndarray) else c[part]
            for c in columns])))
        stream.write(line * (len(values) // len(columns)) % values)
        del values


def write_config(stream, config, phi=None, n=None, p=None, psi=None,
                 kappa=None, delta=None):
    """Write a configuration: a comment header with the run parameters, then
    one `u <id> <ux> <uy>` line per vertex.  A parameter left at None is
    not written; MaterialLaw keeps kappa and delta None unless psi is
    smoothed_abs, the one penalty they parametrize."""
    meta = " ".join("%s=%s" % (key, field(value)) for key, value in (
        ("phi", phi), ("n", n), ("p", p), ("psi", psi), ("kappa", kappa),
        ("delta", delta)) if value is not None)
    if meta:
        stream.write("# " + meta + "\n")
    ux, uy = np.asarray(config, dtype=float).T
    write_rows(stream, "u %d %.17g %.17g\n", range(len(ux)), ux, uy)


def _columns(lines):
    """The id, x and y tokens of lines that are all `u <id> <x> <y>` rows,
    or None.

    The lines are split as one text with a NUL token after each.  No line
    may hold a NUL, so the m - 1 NULs are the separators, and they all sit
    at every fifth token only if every line has four.
    """
    m = len(lines)
    text = "\0 ".join(lines)
    tokens = text.split()
    if (len(tokens) != 5 * m - 1 or text.count("\0") != m - 1
            or tokens[4::5].count("\0") != m - 1 or tokens[::5].count("u") != m):
        return None
    return tokens[1::5], tokens[2::5], tokens[3::5]


def read_config(stream):
    """Parse a configuration dump.  Returns (config, meta dict).

    Reads CHUNK_ROWS lines per step.  A step splits its lines as one text,
    converts the ids and the coordinates a column at a time (numpy parses
    each string with int() or float(), so the values are bit for bit those
    of a line-by-line reader) and places each row at its id.  Comments and
    blank lines may come anywhere, and rows in any order: a step that holds
    them looks at each line, to take the comments' key=value tokens into
    meta and drop the blank lines.  A step whose rows do not all convert,
    or whose ids repeat or fall outside [0, 2 * rows read), goes through
    its rows one at a time instead: the first bad line raises, and a row
    with an id outside the table waits aside until the table reaches it.
    """
    meta = {}
    config = np.zeros((0, 2))       # row i is vertex i, grown as ids come
    seen = np.zeros(0, dtype=bool)
    strays = {}                     # id -> row, for ids outside the table
    n = 0

    def grow(size):
        config.resize((size, 2), refcheck=False)
        seen.resize(size, refcheck=False)
        for vid in [vid for vid in strays if 0 <= vid < size]:
            config[vid] = strays.pop(vid)
            seen[vid] = True

    def read_chunk():
        # a function, so that one chunk's lines and tokens are gone before
        # the next chunk is read
        nonlocal n
        lines = list(islice(stream, CHUNK_ROWS))
        if not lines:
            return False
        columns = _columns(lines)
        if columns is None:
            # comments, blank lines or a bad line: look at each line
            rows = []
            for line in lines:
                t = line.split()
                if t and t[0].startswith("#"):
                    for token in line.strip()[1:].split():
                        if "=" in token:
                            key, val = token.split("=", 1)
                            meta[key] = val
                elif t:
                    rows.append(line)
            if not rows:
                return True
            lines = rows
            columns = _columns(lines)
        fast = columns is not None
        if fast:
            try:
                vid = np.array(columns[0], dtype=np.int64)
                xy = np.array(columns[1:], dtype=float).T
            except (ValueError, OverflowError):
                fast = False
        if fast:
            order = np.sort(vid)
            fast = (0 <= order[0] and order[-1] < 2 * (n + len(lines))
                    and (order[1:] != order[:-1]).all())
        if fast and order[-1] >= len(seen):
            grow(order[-1] + 1)
        if fast and not seen[vid].any():
            config[vid] = xy
            seen[vid] = True
        else:
            for line in lines:
                t = line.split()
                if t[0] != "u" or len(t) != 4:
                    raise ValueError("bad config line: %r" % line.strip())
                vid = int(t[1])
                if vid in strays or 0 <= vid < len(seen) and seen[vid]:
                    raise ValueError("config vertex id %d repeats" % vid)
                row = (float(t[2]), float(t[3]))
                if 0 <= vid < len(seen):
                    config[vid] = row
                    seen[vid] = True
                else:
                    strays[vid] = row
        n += len(lines)
        return True

    while read_chunk():
        pass
    if len(seen) < n:
        grow(n)
    # n distinct ids fill [0, n) exactly when they all reached the table
    if not seen[:n].all():
        raise ValueError("config vertex ids are not 0..%d" % (n - 1))
    if len(seen) > n:
        config.resize((n, 2), refcheck=False)
    for key in ("phi", "p", "kappa", "delta"):
        if key in meta:
            meta[key] = float(meta[key])
    if "n" in meta:
        meta["n"] = int(meta["n"])
    # an empty dump reads as np.array([]), shape (0,), as it always has
    return config if n else np.array([]), meta


def field(x):
    """The text of one CSV or config-header field: nothing for None, a str
    as it stands, a float by %.17g, and every other value (a Python or
    numpy int or bool) by %d."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, float):
        return FLOAT_FMT % x
    return "%d" % x


def write_csv(stream, columns, rows):
    """Write the header line columns, then one line per row of rows, its
    values' fields (see field) joined by commas, in one stream.write."""
    stream.write("".join([columns + "\n"] + [
        ",".join(map(field, row)) + "\n" for row in rows]))


def write_verify_jsonl(stream, results):
    """One JSON object per check: {"check": ..., "pass": ..., "min_slack": ...}
    plus any extra keys the check reported."""
    for row in results:
        stream.write(json.dumps(row, sort_keys=True) + "\n")
