"""Binary coordination games with random utility on weighted networks.

Simulation and analysis toolkit: step-function game algebra, network
generators, best-response dynamics with extremal equilibria, contagion
waves, cube/percolation lattice analysis, and a seeded Monte Carlo
experiment harness.
"""

from .stepfn import (
    StepFn,
    FixedPoint,
    ru_objective,
    ru_dominant,
    fixed_points,
    is_strongly_stable,
    step_approximate,
)
from .game import (
    additive_game,
    uniform_shock_cdf,
    sample_shocks,
)
from .network import (
    Network,
    LatticeSpec,
    complete_graph,
    disjoint_copies,
    lattice,
    fineness,
    imbalance,
    neighborhood_fractions,
    weighted_average,
    unweighted_average,
    load_edgelist,
)
from .dynamics import (
    DynamicsTrace,
    BoundAudit,
    upper_dynamics,
    lower_dynamics,
    initial_profile,
    largest_equilibrium,
    extremal_equilibria,
    enumerate_equilibria,
    capacity_simple,
    capacity,
    audit_main_bound,
    capacity_decrement_check,
)
from .contagion import (
    lens_f0,
    WaveSolution,
    solve_wave,
    ContagionWave,
    build_delta_wave,
)
from .cubes import (
    CubePartition,
    classify_bad,
    extraordinary_cubes,
    good_set_search,
    domination_check,
)
from .harness import (
    ExperimentConfig,
    run_experiment,
    probe_theorem1,
    probe_theorem3,
    probe_theorem4,
)

__version__ = "0.1.0"
