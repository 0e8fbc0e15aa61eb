"""The benchmark's tracer (perfbench/tracing.py) against the library: every
wrapped name must exist, and every Newton span must record its lattice."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np

from disclat import experiments
from disclat.energy import MaterialLaw
from disclat.lattice import MirrorLayout

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweep_and_fold_study_record_newton_sizes(monkeypatch):
    tracing = load_tracing()
    law = MaterialLaw(p=2.0)
    with tracing.installed(tracing.Tracer()) as tracer:
        # the sweep's levels expand by MirrorLayout.expand, which the tracer
        # does not wrap: record it under lattice.expand, as the fold's are
        def traced_expand(self, even, _real=MirrorLayout.expand):
            return tracer.call("lattice.expand", _real, (self, even), {})

        monkeypatch.setattr(MirrorLayout, "expand", traced_expand)
        experiments.run_sweep(2.0 * np.pi / 5.0, 3, law)
        experiments.run_fold_study(2.0 * np.pi / 7.0, law, eps_exp=2, max_folds=1)
    newton = [s for s in tracer.spans if s[2] == "solver.newton"]
    assert [s[5]["n"] for s in newton] == [2, 4, 8, 4, 4]
    assert all(s[5]["iters"] >= 1 for s in newton)

    # each span's enclosing Newton span, or None outside every solve
    parents = {s[0]: s[1] for s in tracer.spans}
    names = {s[0]: s[2] for s in tracer.spans}

    def newton_of(span_id):
        while span_id is not None and names[span_id] != "solver.newton":
            span_id = parents[span_id]
        return span_id

    # energies are assembled only inside Newton, one expansion per energy:
    # the studies read their final energies from the reports
    energy_owners = [newton_of(s[0]) for s in tracer.spans if s[2] == "energy.energy"]
    assert None not in energy_owners
    expand_owners = [newton_of(s[0]) for s in tracer.spans if s[2] == "lattice.expand"]
    for s in newton:
        assert expand_owners.count(s[0]) == energy_owners.count(s[0]) > 0


def test_package_import_loads_the_library_modules():
    # perfbench times `import disclat` as set-up, so it must load them all
    names = ["analysis", "energy", "experiments", "lattice", "solver"]
    code = ("import sys, disclat; print(' '.join(n for n in %r "
            "if 'disclat.' + n in sys.modules))" % names)
    src = str(pathlib.Path(experiments.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == names
