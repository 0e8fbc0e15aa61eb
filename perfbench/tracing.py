"""Spans around the public functions of each disclat module.

A wrapper is installed where the caller looks the name up, because the
library imports by name: disclat.solver binds splu and the assembly
functions at import time, disclat.experiments binds the lattice
constructors, and disclat.cli imports inside its functions, which reads the
defining module's attribute.  Every site of one span name is listed, so a
call is traced whichever caller makes it.

A span is [id, parent id, name, start, end, info].  Spans stay in memory;
the worker writes them out when the run ends.  A layer's self time is the
duration of its spans minus the durations of their child spans; the self
times of all layers, plus the benchmark's own root span, partition the
traced wall time.
"""

import contextlib
import importlib
import statistics
import time

# span name -> the (module, attribute) sites that are wrapped with it
WRAPS = {
    "lattice.graph": [("lattice", "LatticeGraph"), ("experiments", "LatticeGraph")],
    "lattice.constraints": [("lattice", "build_constraints"),
                            ("experiments", "build_constraints")],
    "lattice.layout": [("lattice", "DofLayout"), ("experiments", "DofLayout")],
    "lattice.expand": [("lattice", "expand"), ("experiments", "expand"),
                       ("solver", "expand")],
    "lattice.reduce": [("lattice", "reduce_config"), ("experiments", "reduce_config")],
    "lattice.dump": [("lattice", "dump_lattice")],
    "experiments.sweep": [("experiments", "run_sweep")],
    "experiments.fold_study": [("experiments", "run_fold_study")],
    "experiments.prolong": [("experiments", "prolong")],
    "experiments.init": [("experiments", "linear_init"), ("experiments", "folded_init")],
    "energy.energy": [("energy", "assemble_energy"), ("solver", "assemble_energy"),
                      ("experiments", "assemble_energy")],
    "energy.gradient": [("energy", "assemble_gradient"), ("solver", "assemble_gradient")],
    "energy.hessian": [("energy", "assemble_hessian"), ("solver", "assemble_hessian")],
    "solver.newton": [("solver", "newton_minimize"), ("experiments", "newton_minimize")],
    "solver.factor": [("solver", "splu")],
    "analysis.dets": [("analysis", "triangle_dets"), ("experiments", "triangle_dets"),
                      ("render", "triangle_dets")],
    "analysis.svd2": [("analysis", "svd2")],
    "analysis.dist_so2": [("analysis", "dist_so2_squared")],
    "analysis.oracle": [("analysis", "dist_so2_grid")],
    "analysis.lemma_a1": [("analysis", "check_lemma_a1")],
    "analysis.laminate": [("analysis", "check_laminate")],
    "analysis.rigidity": [("analysis", "check_rigidity")],
    "render.svg": [("render", "render_svg")],
    "io.write": [("io", "write_config")],
    "io.read": [("io", "read_config")],
    "cli.main": [("cli", "main")],
}

ROOT = "bench.rep"
FINEST_N = 256          # eps = 2^-8, the finest level of the paper's sweep

# what a span remembers about its call, by span name
INFO = {
    "solver.newton": lambda args, result: {
        "n": args[0].n, "iters": result[1].iterations},
    "solver.factor": lambda args, result: {"nnz": result.L.nnz + result.U.nnz},
    # cli opens a fresh file for the picture, so its position is its size
    "render.svg": lambda args, result: {"bytes": args[0].tell()},
}

# the layers whose self times partition the traced wall time; the solver's
# factorization is a leaf reported on its own as solver.factor_s
LAYERS = ["lattice", "experiments", "energy", "solver", "analysis", "render",
          "io", "cli", "bench"]

# counts that must repeat exactly from one repetition to the next
EXACT_COUNTS = [
    "lattice.graph_calls", "lattice.expand_calls", "energy.energy_calls",
    "energy.gradient_calls", "energy.hessian_calls", "solver.iters",
    "solver.factor_calls", "solver.factor_nnz", "solver.backtracks",
    "analysis.oracle_calls", "render.svg_bytes",
]


class Tracer:
    """The spans of one workload run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        info = INFO.get(name)
        if info is not None:
            span[5] = info(args, result)
        return result

    def root(self, fn):
        """Run fn() as the root span of one repetition."""
        return self.call(ROOT, fn, (), {})


def _wrapper(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    traced.__wrapped__ = fn
    return traced


@contextlib.contextmanager
def installed(tracer):
    """Wrap every site in WRAPS for the duration of the block.

    Raises LookupError when a site is missing, so a renamed import fails
    the run instead of reporting a layer as zero.
    """
    # import every module before patching any, so that no module binds a
    # wrapper at its own import time
    modules = {mod_name: importlib.import_module("disclat." + mod_name)
               for sites in WRAPS.values() for mod_name, _ in sites}
    saved = []
    try:
        for name, sites in WRAPS.items():
            for mod_name, attr in sites:
                module = modules[mod_name]
                fn = getattr(module, attr, None)
                if fn is None:
                    raise LookupError(
                        "disclat.%s has no attribute %r (span %s): the wrap "
                        "table no longer matches the library" % (mod_name, attr, name)
                    )
                saved.append((module, attr, fn))
                setattr(module, attr, _wrapper(tracer, name, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced repetition, as {name: value}."""
    own = self_times(spans)
    total = {}
    calls = {}
    for s in spans:
        total[s[2]] = total.get(s[2], 0.0) + (s[4] - s[3])
        calls[s[2]] = calls.get(s[2], 0) + 1
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        if s[2] != "solver.factor":
            layer_self[s[2].split(".", 1)[0]] += t

    # a solve that raised has no info; its failure is counted by the checks
    newton = [s for s in spans if s[2] == "solver.newton" and s[5]]
    newton_ids = {s[0] for s in newton}
    iters = sum(s[5]["iters"] for s in newton)
    evals_in_newton = sum(1 for s in spans
                          if s[2] == "energy.energy" and s[1] in newton_ids)
    factor_calls = calls.get("solver.factor", 0)
    # per solve: one initial evaluation, then per iteration one trial per
    # line-search step and one recompute at the accepted point
    backtracks = evals_in_newton - len(newton) - 2 * iters

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    return {
        "lattice.graph_s": t("lattice.graph"),
        "lattice.graph_calls": n("lattice.graph"),
        "lattice.constraints_s": t("lattice.constraints"),
        "lattice.layout_s": t("lattice.layout"),
        "lattice.expand_s": t("lattice.expand"),
        "lattice.expand_calls": n("lattice.expand"),
        "lattice.dump_s": t("lattice.dump"),
        "lattice.self_s": layer_self["lattice"],
        "experiments.prolong_s": t("experiments.prolong"),
        "experiments.init_s": t("experiments.init"),
        "experiments.self_s": layer_self["experiments"],
        "energy.energy_s": t("energy.energy"),
        "energy.energy_calls": n("energy.energy"),
        "energy.gradient_s": t("energy.gradient"),
        "energy.gradient_calls": n("energy.gradient"),
        "energy.hessian_s": t("energy.hessian"),
        "energy.hessian_calls": n("energy.hessian"),
        "energy.self_s": layer_self["energy"],
        "solver.newton_s": t("solver.newton"),
        "solver.self_s": layer_self["solver"],
        "solver.iters": iters,
        "solver.factor_s": t("solver.factor"),
        "solver.factor_calls": factor_calls,
        "solver.factor_nnz": sum(s[5]["nnz"] for s in spans
                                 if s[2] == "solver.factor" and s[5]),
        "solver.regularized_factorizations": factor_calls - iters,
        "solver.backtracks": backtracks,
        "solver.energy_evals_per_iter": evals_in_newton / iters if iters else 0.0,
        "solver.finest_s": sum(s[4] - s[3] for s in newton if s[5]["n"] == FINEST_N),
        "analysis.dets_s": t("analysis.dets"),
        "analysis.oracle_s": t("analysis.oracle"),
        "analysis.oracle_calls": n("analysis.oracle"),
        "analysis.svd2_s": t("analysis.svd2"),
        "analysis.lemma_a1_s": t("analysis.lemma_a1"),
        "analysis.rigidity_s": t("analysis.rigidity"),
        "analysis.self_s": layer_self["analysis"],
        "render.svg_s": t("render.svg"),
        "render.svg_bytes": sum(s[5]["bytes"] for s in spans if s[2] == "render.svg"),
        "render.self_s": layer_self["render"],
        "io.write_s": t("io.write"),
        "io.read_s": t("io.read"),
        "io.self_s": layer_self["io"],
        "cli.main_s": t("cli.main"),
        "cli.self_s": layer_self["cli"],
        "bench.self_s": layer_self["bench"],
        "trace.wall_s": wall,
    }


def accounted(metrics):
    """Sum of the self times that partition trace.wall_s."""
    return sum(metrics[layer + ".self_s"] for layer in LAYERS) + metrics["solver.factor_s"]


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_per_iter"):
        return "evals/iter"
    return "count"


def median_metrics(rows):
    """Median of each metric over the traced repetitions."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def count_mismatches(rows):
    """Exact counts that differ between repetitions, as {name: [values]}."""
    return {key: [row[key] for row in rows] for key in EXACT_COUNTS
            if len({row[key] for row in rows}) > 1}
