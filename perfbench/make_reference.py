"""Write reference.json, the values the benchmark checks outputs against.

    PYTHONPATH=src python3 perfbench/make_reference.py

It records the final energies of the sweep and the fold study, the sha256
of the mesh dump and the SVG of the output workload at both scales, and
the machine they were taken on.  The p_eps table is the paper's, not a
measurement.  Regenerate only for a change that is meant to alter these
outputs, and say so in that change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

# the paper's convergence-rate table, eps = 2^-3 .. 2^-8
P_EPS_TABLE = {
    "5": [1.552, 1.712, 1.812, 1.866, 1.898, 1.918],
    "7": [1.276, 1.488, 1.595, 1.645, 1.671, 1.686],
}


def main():
    from disclat import cli, experiments
    from disclat.energy import MaterialLaw

    law = MaterialLaw(p=2.0)
    k_max = workloads.SWEEP_K_MAX["full"]
    energies = {key: experiments.run_sweep(phi, k_max, law).energies
                for key, phi in workloads.PHIS.items()}
    eps_exp, max_folds = workloads.FOLD["full"]
    fold = experiments.run_fold_study(workloads.PHIS["7"], law, eps_exp=eps_exp,
                                      max_folds=max_folds)

    out_dir = os.path.join(HERE, "out", "reference")
    outputs = {}
    for k in sorted(set(workloads.OUTPUT_EPS_EXP.values())):
        mesh, svg = "mesh_eps%d.txt" % k, "render_eps%d.svg" % k
        common = ["--out", out_dir, "--phi", "5", "--eps-exp", str(k)]
        for cmd in (["mesh"] + common,
                    ["render"] + common + ["--init", "fold:%d" % workloads.OUTPUT_FOLDS,
                                           "--copies"]):
            if cli.main(cmd) != 0:
                raise SystemExit("disclat %s failed" % cmd[0])
        outputs[str(k)] = {name: workloads.sha256(os.path.join(out_dir, name))
                           for name in (mesh, svg)}
    shutil.rmtree(out_dir)

    reference = {
        "inputs": "sweep, fold and output inputs are fixed by the paper; "
                  "the seed draws only the matrices of the checks workload",
        "environment": worker.environment(),
        "sweep": {"energy_rel_tol": 1e-9, "p_eps_tol": 0.05,
                  "p_eps_table": P_EPS_TABLE, "energies": energies},
        "fold": {"energy_rel_tol": 1e-9,
                 "energies": [row["energy"] for row in fold]},
        "output": outputs,
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
