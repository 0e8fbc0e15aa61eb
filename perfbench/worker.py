"""One fresh process that sets up one workload, repeats it and checks it.

Started by run.py, never by hand.  It prints one JSON line: its set-up
time, measured from --spawned-at (the parent's time.monotonic() just
before the process was created, so interpreter start and `import disclat`
count), and that time in reference seconds (hostspeed.py), then, unless
--setup-only, every repetition with its wall time, its reference time and
failed operations, and the peak resident set size.  An untraced
repetition is timed with the host-speed sampler running; a traced one is
not, so that no sample lands in a span.  It runs about
--seconds of repetitions, counted from the workload's nominal_s.

With --trace 1 a traced warm-up repetition comes first, so that first
calls and allocator growth land in no timed repetition; then come pairs of
a traced and an untraced repetition, at least two pairs.  The traced ones
after the warm-up give the per-layer metrics, each pair one measurement of
the tracing overhead; the warm-up's counts take part in the determinism
check and its outputs are checked like any other.  Spans, the environment
and every operation outcome are written to --record when the run ends.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED"]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment():
    import numpy
    import scipy

    import disclat

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "disclat_backend": disclat.BACKEND,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _outcomes(ops):
    # checks hand back numpy booleans, which json cannot write
    return [(name, bool(ok), detail) for name, ok, detail in ops]


def run_rep(workload, traced, run_id, kernel=None):
    import hostspeed
    import tracing

    if not traced:
        with hostspeed.Sampler(kernel or hostspeed.Kernel()) as sampler:
            ops = workload.run()
        wall, ref = sampler.times()
        return {"traced": False, "wall": wall, "ref": ref,
                "samples": len(sampler.samples), "ops": _outcomes(ops)}
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        start = time.perf_counter()
        ops = tracer.root(workload.run)
        wall = time.perf_counter() - start
    return {"traced": True, "wall": wall, "ops": _outcomes(ops),
            "metrics": tracing.layer_metrics(tracer.spans, wall),
            "run_id": run_id, "spans": tracer.spans}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds after which no repetition may still run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--record")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import disclat

    if not os.path.abspath(disclat.__file__).startswith(args.src + os.sep):
        raise SystemExit("disclat imported from %s, not from %s"
                         % (disclat.__file__, args.src))
    import hostspeed
    from workloads import WORKLOADS

    os.makedirs(args.out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, "full", args.out_dir)
    setup_s = time.monotonic() - args.spawned_at
    kernel = hostspeed.Kernel()
    setup_kernel_s = statistics.median(kernel.sample()[2] for _ in range(3))
    setup = {"setup_s": setup_s,
             "setup_ref_s": setup_s * hostspeed.REF_KERNEL_S / setup_kernel_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    # a fixed number of repetitions, so that a slow or fast moment of the
    # machine cannot change how many repetitions a median is taken over
    if args.trace:
        pairs = max(2, round(args.seconds / (2 * workload.nominal_s)))
        kinds = [True] + [True, False] * pairs      # the warm-up, then the pairs
    else:
        kinds = [False] * max(1, round(args.seconds / workload.nominal_s))
    reps = []
    for i, traced in enumerate(kinds):
        if reps and (time.monotonic() - args.spawned_at
                     + 1.5 * max(r["wall"] for r in reps) > args.budget):
            break
        reps.append(run_rep(workload, traced, "%s:seed%d:rep%d" % (args.workload, args.seed, i),
                            kernel))
    if args.trace:
        reps[0]["warmup"] = True

    env = environment()
    summary = {
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": env,
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
    }
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "reps": reps}, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
