"""Command line driver.

Subcommands: mesh, minimize, sweep, fold-study, verify, render.  All file
outputs land under --out with fixed names (mesh_eps<k>.txt,
config_eps<k>.txt, solve_eps<k>.csv, sweep_phi<sel>.csv,
fold_phi<sel>.csv, verify.jsonl, render_eps<k>.svg); without --out,
tabular results go to stdout.  render only draws its --init; a minimizer
is drawn from minimize's dump, --init file:<out>/config_eps<k>.txt.

Only stdlib imports happen at module load; each command imports the
library names it uses when it runs, so it calls whatever those names are
bound to then (perfbench's tracer rebinds them on their defining modules to
time each layer).  The library owns the defaults of the material law and
the solver options and checks every value: an option the user did not give
is not passed.  An error is one `error:` line instead of a traceback, with
exit status 2 for a rejected input and 1 for a failed solve, write or
allocation.
"""

import argparse
import math
import os
import sys


def parse_phi(text):
    """Angle selector: '5' -> 2pi/5, '7' -> 2pi/7, anything else is radians."""
    if text == "5":
        return 2.0 * math.pi / 5.0
    if text == "7":
        return 2.0 * math.pi / 7.0
    try:
        phi = float(text)
    except ValueError:
        raise ValueError("phi must be 5, 7, or a value in radians, got %r" % text)
    if not 0.0 < phi < 2.0 * math.pi:
        raise ValueError("phi in radians must lie in (0, 2pi), got %r" % text)
    return phi


def phi_slug(text):
    """Token used in output filenames for the phi selector."""
    return text.replace(".", "p").replace("-", "m")


def misplaced_seed(text):
    """Type of the top-level --seed, which only refuses: argparse would
    otherwise read its value as the subcommand."""
    raise argparse.ArgumentTypeError(
        "goes after verify: disclat verify --seed %s" % text)


def given_options(args, names):
    """The options among names that the user gave, by name."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def make_law(args):
    from .energy import MaterialLaw

    return MaterialLaw(**given_options(args, ("p", "psi", "kappa", "delta")))


def make_options(args):
    from .solver import NewtonOptions

    return NewtonOptions(**given_options(args, ("max_iter", "grad_tol")))


def build_init(args, level):
    """Initial configuration on level from an init spec string."""
    from .experiments import folded_init, linear_init
    from .io import read_config

    spec = args.init
    graph, phi = level.graph, level.cmap.phi
    if spec.startswith("linear:"):
        return linear_init(graph, phi, spec.split(":", 1)[1])
    if spec.startswith("fold:"):
        try:
            folds = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError("fold init needs an integer count, got %r" % spec)
        return folded_init(graph, phi, folds, level)
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path) as fh:
                config, meta = read_config(fh)
        except (OSError, ValueError) as err:
            raise ValueError("cannot read init file %s: %s" % (path, err))
        if meta.get("phi", phi) != phi:
            raise ValueError("init file %s is for phi = %r, not %r"
                             % (path, meta["phi"], phi))
        return config
    raise ValueError(
        "init must be linear:<mode>, fold:<L>, or file:<path>, got %r" % spec
    )


def write_output(args, name, write):
    """Call write(stream) on stdout without --out, else on the file name
    under --out, and print its path; a file that write fails on is removed."""
    if args.out is None:
        write(sys.stdout)
        return
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    fh = open(path, "w")
    try:
        with fh:
            write(fh)
    except BaseException:
        os.remove(path)
        raise
    print("wrote %s" % path)


def cmd_mesh(args):
    from .lattice import LatticeGraph, build_constraints, dump_lattice

    phi = parse_phi(args.phi)
    k = args.eps_exp
    graph = LatticeGraph(2**k)
    cmap = build_constraints(graph, phi)
    write_output(args, "mesh_eps%d.txt" % k,
                 lambda fh: dump_lattice(graph, cmap, fh))
    return 0


def cmd_minimize(args):
    from .analysis import det_summary
    from .io import write_config
    from .lattice import Level
    from .solver import newton_minimize

    phi = parse_phi(args.phi)
    k = args.eps_exp
    level = Level(2**k, phi)
    law = make_law(args)
    opts = make_options(args)
    init = build_init(args, level)
    config, report = newton_minimize(level, law, init, opts)
    _, min_det, nonpos = det_summary(level.graph, config)
    energy = report.energy[-1]
    if args.out is not None:
        write_output(args, "config_eps%d.txt" % k, lambda fh: write_config(
            fh, config, phi=phi, n=level.n, p=law.p, psi=law.psi_name,
            kappa=law.kappa, delta=law.delta))
        write_output(args, "solve_eps%d.csv" % k, report.write_csv)
    print(
        "phi=%.6f eps=2^-%d energy=%.10e iters=%d grad_inf=%.3e "
        "min_det=%.6f nonpos_dets=%d converged=%s"
        % (phi, k, energy, report.iterations, report.grad_inf[-1],
           min_det, nonpos, report.converged)
    )
    return 0 if report.converged else 1


def cmd_sweep(args):
    from .experiments import run_sweep
    from .io import write_sweep_csv

    phi = parse_phi(args.phi)
    law = make_law(args)
    opts = make_options(args)
    record = run_sweep(phi, args.eps_max_exp, law, opts, cold_start=args.cold_start)
    write_output(args, "sweep_phi%s.csv" % phi_slug(args.phi),
                 lambda fh: write_sweep_csv(fh, record))
    for _, k, energy, p_eps, min_det, _, iters, conv in record.rows():
        print(
            "eps=2^-%d energy=%.10e p_eps=%s min_det=%.6f iters=%d%s"
            % (k, energy,
               "-" if p_eps is None else "%.3f" % p_eps,
               min_det, iters, "" if conv else " NOT CONVERGED")
        )
    return 0 if all(record.converged) else 1


def cmd_fold_study(args):
    from .experiments import run_fold_study
    from .io import write_fold_csv

    phi = parse_phi(args.phi)
    law = make_law(args)
    opts = make_options(args)
    results = run_fold_study(phi, law, eps_exp=args.eps_exp,
                             max_folds=args.max_folds, opts=opts)
    write_output(args, "fold_phi%s.csv" % phi_slug(args.phi),
                 lambda fh: write_fold_csv(fh, phi, results))
    for row in results:
        print(
            "folds=%d energy=%.10e min_det=%.6f nonpos_dets=%d iters=%d%s"
            % (row["folds"], row["energy"], row["min_det"],
               row["nonpos_det_count"], row["iterations"],
               "" if row["converged"] else " NOT CONVERGED")
        )
    return 0 if all(r["converged"] for r in results) else 1


def _verify_checks(args):
    """Run the requested verification checks; yields result dicts."""
    import numpy as np

    from .analysis import (
        check_laminate,
        check_lemma_a1,
        check_rigidity,
        dist_so2_grid,
        dist_so2_squared,
        svd2,
    )
    from .energy import MaterialLaw

    seed = args.seed
    names = args.checks

    if "svd2" in names:
        rng = np.random.default_rng(seed)
        max_err = 0.0
        for _ in range(1000):
            a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2, 2)
            dec = svd2(a)
            max_err = max(max_err, float(np.abs(dec.reconstruct() - a).max()
                                         / max(1.0, np.abs(a).max())))
        yield {"check": "svd2_reconstruction", "pass": max_err <= 1e-12,
               "min_slack": 1e-12 - max_err, "max_rel_err": max_err}

    if "dist_so2" in names:
        rng = np.random.default_rng(seed + 1)
        max_rel = 0.0
        for want_neg in (False, True):
            done = 0
            while done < 1000:
                a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-1, 1)
                if (np.linalg.det(a) < 0.0) != want_neg:
                    a = a[::-1].copy()
                d2 = dist_so2_squared(a)
                if d2 < 1e-3:
                    continue     # below angle-grid resolution
                rel = abs(d2 - dist_so2_grid(a)) / d2
                max_rel = max(max_rel, rel)
                done += 1
        yield {"check": "dist_so2_oracle", "pass": max_rel <= 1e-6,
               "min_slack": 1e-6 - max_rel, "max_rel_err": max_rel}

    if "lemma_a1" in names:
        violations, min_slack = check_lemma_a1(seed=seed)
        yield {"check": "lemma_a1", "pass": violations == 0,
               "min_slack": min_slack, "violations": violations}

    if "laminate" in names:
        rep = check_laminate()
        defect = max(rep["average_norm"], max(rep["rank_one_defects"]),
                     rep["max_bond_length_error"], rep["max_energy"])
        ok = defect <= 1e-12 and min(rep["rank_one_strengths"]) > 1e-12
        yield {"check": "laminate", "pass": ok, "min_slack": 1e-12 - defect}

    if "rigidity" in names:
        law = MaterialLaw(p=2.0, psi="smoothed_abs")
        min_ratio, used = check_rigidity(law, seed=seed)
        yield {"check": "rigidity", "pass": min_ratio > 0.0,
               "min_slack": min_ratio, "samples_used": used}

    if "frustration" in names:
        from .experiments import run_sweep

        law = MaterialLaw(p=2.0, psi="zero")
        margins = []
        for phi in (2.0 * math.pi / 5.0, 2.0 * math.pi / 7.0):
            rec = run_sweep(phi, 4, law)
            margins.append(min(rec.energies) - 1e-4)
        control = run_sweep(math.pi / 3.0, 2, law)
        control_energy = max(control.energies)
        margins.append(1e-14 - control_energy)
        yield {"check": "frustration", "pass": min(margins) > 0.0,
               "min_slack": min(margins), "control_energy": control_energy}


ALL_CHECKS = ["svd2", "dist_so2", "lemma_a1", "laminate", "rigidity",
              "frustration"]


def cmd_verify(args):
    from .io import write_verify_jsonl

    if args.seed < 0:
        raise ValueError("seed must be >= 0, got %d" % args.seed)
    bad = [c for c in args.check or [] if c not in ALL_CHECKS]
    if bad:
        raise ValueError("unknown checks: %s (known: %s)"
                         % (",".join(bad), ",".join(ALL_CHECKS)))
    args.checks = args.check or ALL_CHECKS
    results = []
    all_pass = True
    for row in _verify_checks(args):
        results.append(row)
        all_pass &= bool(row["pass"])
        print("%-22s %s  min_slack=%.3e"
              % (row["check"], "PASS" if row["pass"] else "FAIL",
                 row["min_slack"]))
    if args.out is not None:
        write_output(args, "verify.jsonl",
                     lambda fh: write_verify_jsonl(fh, results))
    return 0 if all_pass else 1


def cmd_render(args):
    from .lattice import Level
    from .render import render_svg

    phi = parse_phi(args.phi)
    k = args.eps_exp
    level = Level(2**k, phi)
    config = level.expand(level.reduce(build_init(args, level)))
    write_output(args, "render_eps%d.svg" % k, lambda fh: render_svg(
        fh, level.graph, config, phi=phi if args.copies else None))
    return 0


def build_parser():
    # a parent's actions are shared by its subparsers, so --phi, whose
    # default differs (7 for fold-study), is added per subparser
    out = argparse.ArgumentParser(add_help=False)
    # also accepted before the subcommand; SUPPRESS keeps the subparser from
    # clobbering a value given at the top level
    out.add_argument("--out", default=argparse.SUPPRESS,
                     help="output directory (default: print to stdout)")
    solve = argparse.ArgumentParser(add_help=False)
    # no defaults here: an option left out is not passed, so MaterialLaw's
    # and NewtonOptions' own defaults apply
    solve.add_argument("--p", type=float, help="bond potential exponent, >= 2")
    solve.add_argument("--psi", help="volumetric penalty: zero or smoothed_abs")
    solve.add_argument("--kappa", type=float, help="smoothed_abs strength")
    solve.add_argument("--delta", type=float, help="smoothed_abs smoothing width")
    solve.add_argument("--max-iter", type=int)
    solve.add_argument("--grad-tol", type=float)

    parser = argparse.ArgumentParser(
        prog="disclat",
        description="Wedge disclination energies on a triangular lattice: "
                    "minimization, refinement sweeps, fold studies, and "
                    "verification of the structural inequalities.",
    )
    parser.add_argument("--out", default=None,
                        help="output directory (default: print to stdout)")
    parser.add_argument("--seed", type=misplaced_seed, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")

    p_mesh = sub.add_parser("mesh", parents=[out],
                            help="dump the reference lattice")
    p_mesh.add_argument("--phi", default="5")
    p_mesh.add_argument("--eps-exp", type=int, required=True,
                        help="lattice spacing exponent k, eps = 2^-k")
    p_mesh.set_defaults(func=cmd_mesh)

    p_min = sub.add_parser("minimize", parents=[out, solve],
                           help="Newton-minimize one system")
    p_min.add_argument("--phi", default="5")
    p_min.add_argument("--eps-exp", type=int, required=True)
    p_min.add_argument("--init", default="linear:det1",
                       help="linear:det1 | linear:edge | fold:<L> | "
                            "file:<path>")
    p_min.set_defaults(func=cmd_minimize)

    p_sweep = sub.add_parser("sweep", parents=[out, solve],
                             help="eps-halving refinement sweep")
    p_sweep.add_argument("--phi", default="5")
    p_sweep.add_argument("--eps-max-exp", type=int, default=8)
    p_sweep.add_argument("--cold-start", action="store_true",
                         help="restart each level from the linear init "
                              "instead of prolongation")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fold = sub.add_parser("fold-study", parents=[out, solve],
                            help="folded initial conditions")
    p_fold.add_argument("--phi", default="7")
    p_fold.add_argument("--eps-exp", type=int, default=2)
    p_fold.add_argument("--max-folds", type=int, default=3)
    p_fold.set_defaults(func=cmd_fold_study)

    p_ver = sub.add_parser("verify", parents=[out],
                           help="run the structural checks")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for sampled checks (default 0)")
    p_ver.add_argument("--check", action="append",
                       help="run one named check (repeatable; default: all "
                            "of " + ",".join(ALL_CHECKS) + ")")
    p_ver.set_defaults(func=cmd_verify)

    p_ren = sub.add_parser("render", parents=[out],
                           help="SVG picture of a configuration")
    p_ren.add_argument("--phi", default="5")
    p_ren.add_argument("--eps-exp", type=int, required=True)
    p_ren.add_argument("--init", default="linear:det1")
    p_ren.add_argument("--copies", action="store_true",
                       help="composite all floor(2pi/phi) rotated copies")
    p_ren.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError, MemoryError) as err:
        from .solver import SingularSystemError

        print("error: %s" % err, file=sys.stderr)
        # run_sweep re-raises a failed solve as the cause of its RuntimeError
        failed = (OSError, MemoryError, SingularSystemError)
        return 1 if any(isinstance(e, failed) for e in (err, err.__cause__)) else 2


if __name__ == "__main__":
    sys.exit(main())
