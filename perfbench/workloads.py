"""The four workloads: fixed inputs, one repetition, and its output checks.

The sweep, fold and output inputs are fixed by the paper (phi = 2pi/5 and
2pi/7, the p = 2 bond law, eps down to 2^-8); the seed draws only the
matrices of the checks workload.  A repetition returns one outcome per
operation -- a Newton solve, a check or an output -- as (name, ok, detail).
Library calls go through module attributes, so traced runs see them.

scale "full" is the benchmark; "short" runs the same code on smaller
inputs for the benchmark's own tests.  nominal_s is the time of one full
repetition on the 2-vCPU Xeon the references were taken on; the worker
fixes the number of repetitions from it.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

PHIS = {"5": 2.0 * math.pi / 5.0, "7": 2.0 * math.pi / 7.0}

SWEEP_K_MAX = {"full": 8, "short": 5}
FOLD = {"full": (6, 31), "short": (6, 3)}         # (eps_exp, max_folds)
OUTPUT_EPS_EXP = {"full": 8, "short": 3}
OUTPUT_FOLDS = 3
CHECK_SIZES = {
    # svd2 matrices, oracle matrices, lemma A.1 samples, rigidity samples
    "full": (1000, 100, 100_000, 10_000),
    "short": (100, 10, 10_000, 1000),
}


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _law(**kw):
    from disclat.energy import MaterialLaw

    return MaterialLaw(p=2.0, **kw)


def _rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def _failed_all(names, err):
    detail = "%s: %s" % (type(err).__name__, err)
    return [(name, False, detail) for name in names]


class Sweep:
    """run_sweep(phi, 8) for 2pi/5 then 2pi/7, warm-started by prolongation."""

    nominal_s = 17.0

    def __init__(self, seed, scale, out_dir):
        self.ref = load_reference()["sweep"]
        self.k_max = SWEEP_K_MAX[scale]
        self.law = _law()

    def run(self):
        from disclat import experiments

        ref = self.ref
        tol = ref["energy_rel_tol"]
        out = []
        for key, phi in PHIS.items():
            levels = range(1, self.k_max + 1)
            solve_names = ["solve phi=2pi/%s eps=2^-%d" % (key, k) for k in levels]
            rate_names = ["p_eps phi=2pi/%s eps=2^-%d" % (key, k) for k in levels[2:]]
            try:
                rec = experiments.run_sweep(phi, self.k_max, self.law)
            except Exception as err:     # one broken level fails the whole sweep
                out += _failed_all(solve_names + rate_names, err)
                continue
            for i, name in enumerate(solve_names):
                err = _rel_err(rec.energies[i], ref["energies"][key][i])
                ok = rec.converged[i] and rec.nonpos_counts[i] == 0 and err <= tol
                out.append((name, ok, "converged=%s nonpos_dets=%d energy_rel_err=%.2e"
                            % (rec.converged[i], rec.nonpos_counts[i], err)))
            for i, name in enumerate(rate_names, start=2):
                p = rec.p_eps(i)
                table = ref["p_eps_table"][key][i - 2]
                ok = p is not None and abs(p - table) <= ref["p_eps_tol"]
                out.append((name, ok, "p_eps=%s table=%.3f" % (p, table)))
        return out


class Fold:
    """run_fold_study(2pi/7, eps_exp=6, max_folds=31): 32 cold folded starts."""

    nominal_s = 10.0

    def __init__(self, seed, scale, out_dir):
        self.ref = load_reference()["fold"]
        self.eps_exp, self.max_folds = FOLD[scale]
        self.law = _law()

    def run(self):
        from disclat import experiments

        tol = self.ref["energy_rel_tol"]
        names = ["solve folds=%d" % f for f in range(self.max_folds + 1)]
        try:
            rows = experiments.run_fold_study(PHIS["7"], self.law, eps_exp=self.eps_exp,
                                              max_folds=self.max_folds)
        except Exception as err:
            return _failed_all(names + ["energy falls with L"], err)
        out = []
        for row, name in zip(rows, names):
            err = _rel_err(row["energy"], self.ref["energies"][row["folds"]])
            out.append((name, row["converged"] and err <= tol,
                        "converged=%s energy_rel_err=%.2e" % (row["converged"], err)))
        energies = np.array([row["energy"] for row in rows])
        falling = bool(np.all(np.diff(energies) < 0.0))
        out.append(("energy falls with L", falling, "energies %s" % energies.tolist()))
        return out


class Checks:
    """The structural verifications through the public disclat.analysis API."""

    nominal_s = 5.0

    def __init__(self, seed, scale, out_dir):
        n_svd, n_oracle, self.n_lemma, self.n_rigidity = CHECK_SIZES[scale]
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.svd_mats = [rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2, 2)
                         for _ in range(n_svd)]
        # half of the oracle matrices with each sign of the determinant
        self.oracle_mats = []
        for k in range(n_oracle):
            a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-1, 1)
            if (np.linalg.det(a) < 0.0) != (k % 2 == 1):
                a = a[::-1].copy()
            self.oracle_mats.append(a)
        self.rigidity_law = _law(psi="smoothed_abs")

    def run(self):
        from disclat import analysis

        out = []
        worst = 0.0
        for a in self.svd_mats:
            err = np.abs(analysis.svd2(a).reconstruct() - a).max() / max(1.0, np.abs(a).max())
            worst = max(worst, float(err))
        out.append(("svd2 reconstruction", worst <= 1e-12, "max_rel_err=%.2e" % worst))

        worst = 0.0
        compared = 0
        for a in self.oracle_mats:
            d2 = analysis.dist_so2_squared(a)
            if d2 < 1e-3:
                continue       # below the resolution of the angle grid
            worst = max(worst, abs(d2 - analysis.dist_so2_grid(a)) / d2)
            compared += 1
        out.append(("dist_so2 oracle", compared > 0 and worst <= 1e-6,
                    "max_rel_err=%.2e over %d matrices" % (worst, compared)))

        violations, slack = analysis.check_lemma_a1(self.n_lemma, seed=self.seed)
        out.append(("lemma A.1", violations == 0,
                    "violations=%d min_slack=%.3e" % (violations, slack)))

        rep = analysis.check_laminate()
        defect = max(rep["average_norm"], max(rep["rank_one_defects"]),
                     rep["max_bond_length_error"], rep["max_energy"])
        ok = defect <= 1e-12 and min(rep["rank_one_strengths"]) > 1e-12
        out.append(("laminate", ok, "max_defect=%.2e" % defect))

        ratio, used = analysis.check_rigidity(self.rigidity_law, self.n_rigidity,
                                              seed=self.seed)
        out.append(("rigidity", ratio > 0.0, "min_ratio=%.4e over %d" % (ratio, used)))
        return out


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Output:
    """disclat mesh, disclat render --copies and a config dump round trip at
    phi = 2pi/5 from the fold:3 start, with no solve."""

    nominal_s = 6.0

    def __init__(self, seed, scale, out_dir):
        self.k = OUTPUT_EPS_EXP[scale]
        self.ref = load_reference()["output"][str(self.k)]
        self.out_dir = out_dir
        self.common = ["--out", out_dir]
        self.mesh_args = ["mesh", "--phi", "5", "--eps-exp", str(self.k)]
        self.render_args = ["render", "--phi", "5", "--eps-exp", str(self.k),
                            "--init", "fold:%d" % OUTPUT_FOLDS, "--copies"]
        self.config_path = os.path.join(out_dir, "roundtrip_eps%d.txt" % self.k)

    def _cli(self, args, name):
        from disclat import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.common + args)
        if code != 0:
            return False, "exit status %d" % code
        digest = sha256(os.path.join(self.out_dir, name))
        return digest == self.ref[name], "sha256 %s" % digest[:16]

    def _roundtrip(self):
        from disclat import experiments
        from disclat import io as dio

        graph = experiments.LatticeGraph(2**self.k)
        config = experiments.folded_init(graph, PHIS["5"], OUTPUT_FOLDS)
        with open(self.config_path, "w") as fh:
            dio.write_config(fh, config, phi=PHIS["5"], n=graph.n, p=2.0, psi="zero")
        with open(self.config_path) as fh:
            back, meta = dio.read_config(fh)
        ok = (back.shape == config.shape and back.tobytes() == config.tobytes()
              and meta["phi"] == PHIS["5"] and meta["n"] == graph.n)
        return ok, "%d vertices" % len(config)

    def run(self):
        mesh = "mesh_eps%d.txt" % self.k
        svg = "render_eps%d.svg" % self.k
        out = []
        for name, step in ((mesh, lambda: self._cli(self.mesh_args, mesh)),
                           (svg, lambda: self._cli(self.render_args, svg)),
                           ("config round trip", self._roundtrip)):
            try:
                ok, detail = step()
            except Exception as err:
                ok, detail = False, "%s: %s" % (type(err).__name__, err)
            out.append((name, ok, detail))
        return out


WORKLOADS = {"sweep": Sweep, "fold": Fold, "checks": Checks, "output": Output}
