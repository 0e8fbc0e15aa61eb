"""File formats: configuration dumps, experiment CSVs, verification JSONL.

All floats are printed with %.17g so that a dump/parse round trip
reproduces the binary float64 values exactly.  The large tables (config and
lattice dumps) go through write_rows, which formats a chunk of rows per
write, so their memory stays bounded by one chunk.
"""

import json

import numpy as np

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 2048


def _fmt(x):
    return FLOAT_FMT % float(x)


def write_rows(stream, line, *columns):
    """Write `line % row` for each row of the equal-length 1-D columns, one
    stream.write per CHUNK_ROWS rows.

    A column is a numpy array or a range (row ids).  Arrays are converted a
    chunk at a time with .tolist(); the Python ints and floats it returns
    print exactly as the numpy scalars would.
    """
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        part = slice(start, start + CHUNK_ROWS)
        rows = zip(*[c[part] if isinstance(c, range) else c[part].tolist()
                     for c in columns])
        stream.write("".join([line % row for row in rows]))


def write_config(stream, config, phi=None, n=None, p=None, psi=None,
                 kappa=None, delta=None):
    """Write a configuration: a comment header with the run parameters, then
    one `u <id> <ux> <uy>` line per vertex.  kappa and delta are written
    only after psi=smoothed_abs, the one penalty they parametrize."""
    meta = []
    if phi is not None:
        meta.append("phi=" + _fmt(phi))
    if n is not None:
        meta.append("n=%d" % n)
    if p is not None:
        meta.append("p=" + _fmt(p))
    if psi is not None:
        meta.append("psi=%s" % psi)
    if psi == "smoothed_abs":
        if kappa is not None:
            meta.append("kappa=" + _fmt(kappa))
        if delta is not None:
            meta.append("delta=" + _fmt(delta))
    if meta:
        stream.write("# " + " ".join(meta) + "\n")
    ux, uy = np.asarray(config, dtype=float).T
    write_rows(stream, "u %d %.17g %.17g\n", range(len(ux)), ux, uy)


def read_config(stream):
    """Parse a configuration dump.  Returns (config, meta dict)."""
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


def write_sweep_csv(stream, record):
    """phi,eps_exp,energy,p_eps,min_det,nonpos_det_count,iters,converged"""
    stream.write("phi,eps_exp,energy,p_eps,min_det,nonpos_det_count,iters,converged\n")
    for phi, k, energy, p_eps, min_det, nonpos, iters, conv in record.rows():
        stream.write(
            "%s,%d,%s,%s,%s,%d,%d,%d\n"
            % (
                _fmt(phi),
                k,
                _fmt(energy),
                "" if p_eps is None else _fmt(p_eps),
                _fmt(min_det),
                nonpos,
                iters,
                1 if conv else 0,
            )
        )


def write_fold_csv(stream, phi, results):
    """phi,folds,energy,min_det,nonpos_det_count"""
    stream.write("phi,folds,energy,min_det,nonpos_det_count\n")
    for row in results:
        stream.write(
            "%s,%d,%s,%s,%d\n"
            % (
                _fmt(phi),
                row["folds"],
                _fmt(row["energy"]),
                _fmt(row["min_det"]),
                row["nonpos_det_count"],
            )
        )


def write_verify_jsonl(stream, results):
    """One JSON object per check: {"check": ..., "pass": ..., "min_slack": ...}
    plus any extra keys the check reported."""
    for row in results:
        stream.write(json.dumps(row, sort_keys=True) + "\n")
