"""Atomistic wedge-disclination model on a triangular lattice: energy,
analytic derivatives, constrained Newton minimization, and the numerical
studies built on them.

The package exposes its modules and re-exports no names from them.
"""

# `import disclat` loads the library modules: perfbench times the package
# import as its set-up, so that set-up covers them
from . import analysis, energy, experiments, lattice, solver  # noqa: F401

__version__ = "0.1.0"

# the kernels are plain numpy; perfbench records this name with every run
BACKEND = "python"
