"""disclat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; disclat is imported from its src/
directory.  Workloads (see README.md): sweep, fold, checks, output.

Every workload runs in fresh, single-threaded child processes started one
at a time (worker.py), so nothing runs alongside it.  With --trace 0 the
run first times SETUP_SAMPLES - 1 set-ups in their own processes, then one
worker repeats the workload for about --seconds and reports end-to-end
metrics: wall_s (median repetition), setup_s (median set-up, the worker's
own included) and peak_rss_mb.  wall_s and setup_s are in reference
seconds: wall time scaled by the host's speed, which a calibration kernel
measures while the time runs (hostspeed.py); the plain wall times are
printed and recorded beside them.  With --trace 1 the worker runs one traced
warm-up repetition, then pairs of a traced and an untraced repetition, and
the run reports the median per-layer metrics of the paired traced ones and
the tracing overhead, the median over pairs of traced minus untraced wall
time; the exact counts of every traced repetition must agree.  Every
repetition's outputs are checked; the last line of standard output is one
JSON object with correct, attempted, failed and metrics.  A per-run
record (environment, repetitions, spans) is written under perfbench/out/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 15
TOTAL_BUDGET_S = 170.0      # the whole invocation, set-ups included
SINGLE_THREAD = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([SRC] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args, extra, deadline):
    """Run one worker to completion and return its JSON summary."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", SRC,
           "--out-dir", os.path.join(OUT, "work"), *extra]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at),
                                     "--budget", repr(timeout)],
                              env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded %.0f s" % timeout)
    if proc.returncode != 0:
        raise BenchError("worker exited with status %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def end_to_end(summary, setups):
    walls = [r["ref"] for r in summary["reps"]]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }


def per_layer(summary):
    reps = summary["reps"]
    timed = [r["metrics"] for r in reps if r["traced"] and not r.get("warmup")]
    # each traced repetition is paired with the untraced one right after it
    pairs = [reps[i]["wall"] - reps[i + 1]["wall"] for i in range(len(reps) - 1)
             if reps[i]["traced"] and not reps[i + 1]["traced"]]
    if not pairs:
        raise BenchError("no untraced repetition to measure the tracing overhead against")
    metrics = tracing.median_metrics(timed)
    metrics["trace.overhead_s"] = statistics.median(pairs)
    # the warm-up's counts must match too
    counted = [r["metrics"] for r in reps if r["traced"]]
    mismatches = tracing.count_mismatches(counted)
    return {k: (v, tracing.unit(k)) for k, v in metrics.items()}, mismatches, len(counted)


def report(args, summary, metrics, notes):
    reps = summary["reps"]
    attempted = sum(len(r["ops"]) for r in reps)
    failed = [(i, op) for i, r in enumerate(reps) for op in r["ops"] if not op[1]]
    env = summary["env"]
    print("workload %s  seed %d  trace %d  repetitions %d"
          % (args.workload, args.seed, args.trace, len(reps)))
    print("environment: " + json.dumps(env, sort_keys=True))
    for i, r in enumerate(reps):
        kind = "warm-up" if r.get("warmup") else "traced" if r["traced"] else "untraced"
        ref = "  reference %.4f s" % r["ref"] if "ref" in r else ""
        print("  rep %d %-8s wall %.4f s%s  ops %d  failed %d"
              % (i, kind, r["wall"], ref,
                 len(r["ops"]), sum(1 for op in r["ops"] if not op[1])))
    for i, (name, _, detail) in failed:
        print("  FAILED rep %d: %s (%s)" % (i, name, detail))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    print("  %-36s %14.6g (%d of %d operations failed)"
          % ("fail_frac", len(failed) / attempted, len(failed), attempted))
    for note in notes:
        print("  " + note)
    return attempted, len(failed)


def _stop(signum, frame):
    # raised inside subprocess.run, which then kills and waits for the worker
    raise BenchError("stopped by signal %d" % signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TOTAL_BUDGET_S
    signal.signal(signal.SIGTERM, _stop)
    if not os.path.isfile(os.path.join(SRC, "disclat", "__init__.py")):
        print("perfbench: no disclat sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, ["--setup-only"], deadline))
        summary = spawn(args, ["--record", record], deadline)
    except BenchError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(OUT, "work"), ignore_errors=True)

    notes = ["record: %s" % os.path.relpath(record, ROOT)]
    ok = True
    if args.trace:
        try:
            metrics, mismatches, n_traced = per_layer(summary)
        except BenchError as err:
            print("perfbench: %s" % err, file=sys.stderr)
            return 1
        if mismatches:
            ok = False
            notes.append("DETERMINISM: exact counts differ between repetitions: %s"
                         % json.dumps(mismatches))
        elif n_traced < 2:
            notes.append("determinism not checked: one traced repetition")
        else:
            notes.append("determinism: exact counts identical over %d traced repetitions"
                         % n_traced)
    else:
        setups.append(summary)
        notes.append("set-up wall times (s): median %.4f of %s" % (
            statistics.median(r["setup_s"] for r in setups),
            " ".join("%.3f" % r["setup_s"] for r in setups)))
        metrics = end_to_end(summary, [r["setup_ref_s"] for r in setups])
    attempted, failed = report(args, summary, metrics, notes)
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
