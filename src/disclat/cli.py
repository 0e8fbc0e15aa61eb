"""Command line driver.

Subcommands: mesh, minimize, sweep, fold-study, verify, render.  All file
outputs land under --out with fixed names (mesh_eps<k>.txt,
config_eps<k>.txt, solve_eps<k>.csv, sweep_phi<sel>.csv,
fold_phi<sel>.csv, verify.jsonl, render_eps<k>.svg); without --out,
tabular results go to stdout.

Only stdlib imports happen at module load; each command imports the
library names it uses when it runs, so it calls whatever those names are
bound to then (perfbench's tracer rebinds them on their defining modules to
time each layer).  The library owns the defaults of the material law and
the solver options and checks every value: an option the user did not give
is not passed, and the errors the library raises (ValueError, RuntimeError,
OSError) surface as a one-line diagnostic instead of a traceback.
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


def check_eps_exp(k):
    if k < 0:
        raise ValueError("eps exponent must be >= 0, got %d" % k)
    return k


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
                config, _ = read_config(fh)
        except (OSError, ValueError) as err:
            raise ValueError("cannot read init file %s: %s" % (path, err))
        return config
    raise ValueError(
        "init must be linear:<mode>, fold:<L>, or file:<path>, got %r" % spec
    )


def out_path(args, name):
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_mesh(args):
    from .lattice import Level, dump_lattice

    phi = parse_phi(args.phi)
    k = check_eps_exp(args.eps_exp)
    level = Level(2**k, phi)    # its layout validates the reduction
    graph = level.graph
    path = out_path(args, "mesh_eps%d.txt" % k)
    if path is None:
        dump_lattice(graph, level.cmap, sys.stdout)
    else:
        with open(path, "w") as fh:
            dump_lattice(graph, level.cmap, fh)
        print("wrote %s (%d vertices, %d edges, %d triangles)"
              % (path, graph.n_vertices, graph.edges.shape[0],
                 graph.tris.shape[0]))
    return 0


def cmd_minimize(args):
    from .analysis import det_summary
    from .io import write_config
    from .lattice import Level
    from .solver import SingularSystemError, newton_minimize

    phi = parse_phi(args.phi)
    k = check_eps_exp(args.eps_exp)
    level = Level(2**k, phi)
    law = make_law(args)
    opts = make_options(args)
    init = build_init(args, level)
    try:
        config, report = newton_minimize(level, law, init, opts)
    except SingularSystemError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    _, min_det, nonpos = det_summary(level.graph, config)
    energy = report.energy[-1]
    cfg_path = out_path(args, "config_eps%d.txt" % k)
    if cfg_path is not None:
        with open(cfg_path, "w") as fh:
            write_config(fh, config, phi=phi, n=level.n, p=law.p,
                         psi=law.psi_name, kappa=law.kappa, delta=law.delta)
    log_path = out_path(args, "solve_eps%d.csv" % k)
    if log_path is not None:
        with open(log_path, "w") as fh:
            report.write_csv(fh)
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
    path = out_path(args, "sweep_phi%s.csv" % phi_slug(args.phi))
    if path is None:
        write_sweep_csv(sys.stdout, record)
    else:
        with open(path, "w") as fh:
            write_sweep_csv(fh, record)
        print("wrote %s" % path)
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
    k = check_eps_exp(args.eps_exp)
    law = make_law(args)
    opts = make_options(args)
    results = run_fold_study(phi, law, eps_exp=k, max_folds=args.max_folds,
                             opts=opts)
    path = out_path(args, "fold_phi%s.csv" % phi_slug(args.phi))
    if path is None:
        write_fold_csv(sys.stdout, phi, results)
    else:
        with open(path, "w") as fh:
            write_fold_csv(fh, phi, results)
        print("wrote %s" % path)
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
    args.checks = ALL_CHECKS if args.all or not args.check else args.check
    results = []
    all_pass = True
    for row in _verify_checks(args):
        results.append(row)
        all_pass &= bool(row["pass"])
        print("%-22s %s  min_slack=%.3e"
              % (row["check"], "PASS" if row["pass"] else "FAIL",
                 row["min_slack"]))
    path = out_path(args, "verify.jsonl")
    if path is not None:
        with open(path, "w") as fh:
            write_verify_jsonl(fh, results)
        print("wrote %s" % path)
    return 0 if all_pass else 1


def cmd_render(args):
    from .lattice import Level
    from .render import render_svg
    from .solver import newton_minimize

    phi = parse_phi(args.phi)
    k = check_eps_exp(args.eps_exp)
    level = Level(2**k, phi)
    law = make_law(args)
    opts = make_options(args)
    config = level.expand(level.reduce(build_init(args, level)))
    if args.solve:
        config, report = newton_minimize(level, law, config, opts)
        if not report.converged:
            print("warning: solve did not converge", file=sys.stderr)
    path = out_path(args, "render_eps%d.svg" % k)
    try:
        if path is None:
            render_svg(sys.stdout, level.graph, config, phi=phi,
                       copies=args.copies)
        else:
            with open(path, "w") as fh:
                render_svg(fh, level.graph, config, phi=phi, copies=args.copies)
    except ValueError:
        # render_svg checks before it writes, so the file is still empty
        if path is not None:
            os.remove(path)
        raise
    if path is not None:
        print("wrote %s" % path)
    return 0


def _add_common_args(sub):
    # also accepted before the subcommand; SUPPRESS keeps the subparser from
    # clobbering a value given at the top level
    sub.add_argument("--out", default=argparse.SUPPRESS,
                     help="output directory (default: print to stdout)")


def _add_law_args(sub):
    # no defaults here: an option left out is not passed, so MaterialLaw's
    # and NewtonOptions' own defaults apply
    sub.add_argument("--p", type=float, help="bond potential exponent, >= 2")
    sub.add_argument("--psi", help="volumetric penalty: zero or smoothed_abs")
    sub.add_argument("--kappa", type=float, help="smoothed_abs strength")
    sub.add_argument("--delta", type=float, help="smoothed_abs smoothing width")


def _add_solver_args(sub):
    sub.add_argument("--max-iter", type=int)
    sub.add_argument("--grad-tol", type=float)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="disclat",
        description="Wedge disclination energies on a triangular lattice: "
                    "minimization, refinement sweeps, fold studies, and "
                    "verification of the structural inequalities.",
    )
    parser.add_argument("--out", default=None,
                        help="output directory (default: print to stdout)")
    sub = parser.add_subparsers(dest="command")

    p_mesh = sub.add_parser("mesh", help="dump the reference lattice")
    _add_common_args(p_mesh)
    p_mesh.add_argument("--phi", default="5")
    p_mesh.add_argument("--eps-exp", type=int, required=True,
                        help="lattice spacing exponent k, eps = 2^-k")
    p_mesh.set_defaults(func=cmd_mesh)

    p_min = sub.add_parser("minimize", help="Newton-minimize one system")
    _add_common_args(p_min)
    p_min.add_argument("--phi", default="5")
    p_min.add_argument("--eps-exp", type=int, required=True)
    p_min.add_argument("--init", default="linear:det1",
                       help="linear:det1 | linear:edge | fold:<L> | "
                            "file:<path>")
    _add_law_args(p_min)
    _add_solver_args(p_min)
    p_min.set_defaults(func=cmd_minimize)

    p_sweep = sub.add_parser("sweep", help="eps-halving refinement sweep")
    _add_common_args(p_sweep)
    p_sweep.add_argument("--phi", default="5")
    p_sweep.add_argument("--eps-max-exp", type=int, default=8)
    p_sweep.add_argument("--cold-start", action="store_true",
                         help="restart each level from the linear init "
                              "instead of prolongation")
    _add_law_args(p_sweep)
    _add_solver_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fold = sub.add_parser("fold-study", help="folded initial conditions")
    _add_common_args(p_fold)
    p_fold.add_argument("--phi", default="7")
    p_fold.add_argument("--eps-exp", type=int, default=2)
    p_fold.add_argument("--max-folds", type=int, default=3)
    _add_law_args(p_fold)
    _add_solver_args(p_fold)
    p_fold.set_defaults(func=cmd_fold_study)

    p_ver = sub.add_parser("verify", help="run the structural checks")
    _add_common_args(p_ver)
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for sampled checks (default 0)")
    p_ver.add_argument("--all", action="store_true",
                       help="run every check (default when none named)")
    p_ver.add_argument("--check", action="append",
                       help="run one named check (repeatable): "
                            + ",".join(ALL_CHECKS))
    p_ver.set_defaults(func=cmd_verify)

    p_ren = sub.add_parser("render", help="SVG picture of a configuration")
    _add_common_args(p_ren)
    p_ren.add_argument("--phi", default="5")
    p_ren.add_argument("--eps-exp", type=int, required=True)
    p_ren.add_argument("--init", default="linear:det1")
    p_ren.add_argument("--solve", action="store_true",
                       help="minimize before rendering")
    p_ren.add_argument("--copies", action="store_true",
                       help="composite all floor(2pi/phi) rotated copies")
    _add_law_args(p_ren)
    _add_solver_args(p_ren)
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
    except (RuntimeError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
