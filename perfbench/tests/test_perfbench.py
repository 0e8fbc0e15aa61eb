"""Tests of the benchmark itself: short runs of every workload pass their
output checks, spans nest, layer self times add up to the traced wall
time, and the command keeps its output contract.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)

# a counter each workload must move, so every layer is measured somewhere
EXERCISED = {
    "sweep": ["lattice.graph_calls", "experiments.prolong_s", "solver.factor_calls",
              "energy.hessian_calls", "analysis.dets_s"],
    "fold": ["lattice.constraints_s", "lattice.layout_s", "experiments.init_s",
             "solver.iters"],
    "checks": ["analysis.oracle_calls", "analysis.svd2_s", "analysis.lemma_a1_s",
               "analysis.rigidity_s"],
    "output": ["cli.main_s", "lattice.dump_s", "render.svg_bytes", "io.write_s",
               "io.read_s"],
}


def _workload(name, tmp_path):
    return workloads.WORKLOADS[name](1, "short", str(tmp_path))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced short repetition of every workload."""
    return {name: worker.run_rep(_workload(name, tmp_path_factory.mktemp(name)),
                                 True, name)
            for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_short_run_passes_output_checks(name, tmp_path):
    rep = worker.run_rep(_workload(name, tmp_path), False, name)
    assert rep["ops"]
    assert [op for op in rep["ops"] if not op[1]] == []
    # the host-speed sampler ran, sampled at both ends, and stopped its timer
    assert rep["samples"] >= 2 and rep["wall"] > 0 and rep["ref"] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_reference_seconds_scale_each_stretch_by_its_samples():
    ref = hostspeed.REF_KERNEL_S
    # (start, end, kernel seconds): full speed for 2 s, then half speed for 3 s
    samples = [(0.0, 0.1, ref), (2.1, 2.2, ref), (5.2, 5.3, 2 * ref), (8.3, 8.4, 2 * ref)]
    wall, scaled = hostspeed.reference_seconds(samples)
    assert wall == pytest.approx(8.0)
    assert scaled == pytest.approx(2.0 + 3.0 / 1.5 + 3.0 / 2.0)


def test_a_long_stretch_is_scaled_by_the_samples_around_it():
    ref = hostspeed.REF_KERNEL_S
    # full speed throughout; a sample every 0.1 s except for a 2 s stretch,
    # and the sample that ends it caught a stall of the host
    starts = [0.1 * i for i in range(10)] + [2.9 + 0.1 * i for i in range(10)]
    samples = [(t, t + 0.01, ref) for t in starts]
    samples[10] = (2.9, 2.91, 10 * ref)
    wall, scaled = hostspeed.reference_seconds(samples)
    # only the short stretch right after the stalled sample is misjudged
    assert scaled == pytest.approx(wall - 0.09 + 0.09 / 5.5)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_passes_output_checks(traced, name):
    assert [op for op in traced[name]["ops"] if not op[1]] == []


@pytest.mark.parametrize("name", NAMES)
def test_spans_nest(traced, name):
    spans = traced[name]["spans"]
    assert spans[0][1] is None and spans[0][2] == tracing.ROOT
    for span in spans[1:]:
        assert span[1] is not None
        assert span[2] in tracing.WRAPS
        parent = spans[span[1]]
        assert parent[0] < span[0]
        assert parent[3] <= span[3] <= span[4] <= parent[4]
    # children of one parent follow each other without overlapping
    last_end = {}
    for span in spans[1:]:
        assert span[3] >= last_end.get(span[1], -1.0)
        last_end[span[1]] = span[4]


@pytest.mark.parametrize("name", NAMES)
def test_self_times_add_up_to_traced_wall(traced, name):
    metrics = traced[name]["metrics"]
    for key, value in metrics.items():
        if key.endswith(".self_s"):
            assert value >= -1e-9, key
    assert tracing.accounted(metrics) == pytest.approx(metrics["trace.wall_s"], rel=0.01)


@pytest.mark.parametrize("name", NAMES)
def test_workload_exercises_its_layers(traced, name):
    metrics = traced[name]["metrics"]
    assert [key for key in EXERCISED[name] if metrics[key] <= 0] == []


def test_solver_counts_are_consistent(traced):
    metrics = traced["sweep"]["metrics"]
    assert metrics["solver.factor_calls"] == (
        metrics["solver.iters"] + metrics["solver.regularized_factorizations"])
    assert metrics["solver.factor_nnz"] > 0
    assert metrics["solver.backtracks"] >= 0


def test_count_mismatch_is_reported():
    rows = [{key: 1 for key in tracing.EXACT_COUNTS} for _ in range(2)]
    assert tracing.count_mismatches(rows) == {}
    rows[1]["solver.iters"] = 2
    assert tracing.count_mismatches(rows) == {"solver.iters": [1, 2]}


def test_missing_wrap_target_fails_loudly(monkeypatch):
    import disclat.energy
    import disclat.solver

    monkeypatch.delattr(disclat.solver, "splu")
    with pytest.raises(LookupError, match="splu"):
        with tracing.installed(tracing.Tracer()):
            pass
    assert not hasattr(disclat.energy.assemble_energy, "__wrapped__")


def test_overhead_pairs_each_traced_repetition_with_the_next_untraced():
    counts = dict.fromkeys(tracing.EXACT_COUNTS, 1)
    rows = [{"wall": 9.0, "traced": True, "warmup": True,
             "metrics": dict(counts, **{"trace.wall_s": 9.0})}]
    for traced_wall, plain_wall in ((5.0, 4.0), (7.0, 4.5), (4.5, 4.0)):
        rows.append({"wall": traced_wall, "traced": True,
                     "metrics": dict(counts, **{"trace.wall_s": traced_wall})})
        rows.append({"wall": plain_wall, "traced": False})
    metrics, mismatches, n_traced = run.per_layer({"reps": rows})
    # the warm-up is left out of the timings but not of the count check
    assert metrics["trace.overhead_s"] == (1.0, "s")
    assert metrics["trace.wall_s"] == (5.0, "s")
    assert mismatches == {} and n_traced == 4
    rows[0]["metrics"]["solver.iters"] = 2
    assert run.per_layer({"reps": rows})[1] == {"solver.iters": [2, 1, 1, 1]}


def _run(cwd, *args):
    # the full checks workload: one repetition of a few seconds, five when traced
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", "checks",
         "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    proc = _run(ROOT, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
