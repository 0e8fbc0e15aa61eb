"""Atomistic wedge-disclination model on a triangular lattice: energy,
analytic derivatives, constrained Newton minimization, and the numerical
studies built on them."""

from .lattice import (
    ConstraintMap,
    DofLayout,
    LatticeGraph,
    Level,
    build_constraints,
    expand,
    reduce_config,
)
from .energy import (
    MaterialLaw,
    assemble_energy,
    assemble_gradient,
    assemble_hessian,
    cell_gradient,
    w_density,
)
from .solver import NewtonOptions, SolveReport, newton_minimize
from .experiments import (
    estimate_rate,
    fold_reference,
    folded_init,
    linear_init,
    prolong,
    run_fold_study,
    run_sweep,
)
from .analysis import (
    check_laminate,
    check_lemma_a1,
    check_rigidity,
    dist_so2,
    svd2,
    triangle_dets,
)

__version__ = "0.1.0"

# the kernels are plain numpy; perfbench records this name with every run
BACKEND = "python"
