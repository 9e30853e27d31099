"""Randomized-compilation simulator and benchmark harness for Hamiltonian evolution."""

from .bounds import (
    BoundReport,
    ShotParams,
    arc_bound,
    bound_report,
    check_cauchy_schwarz,
    liouvillian,
    rc_bound,
    shot_lower_bounds,
    trotter1_bound,
)
from .compilers import (
    PROTOCOL_NAMES,
    ProbabilityDistribution,
    StepPlan,
    TrajectoryRecord,
    cost,
    optimal_distribution,
    run_arc,
    run_block,
    run_equal_weight,
    run_exact,
    run_protocol,
    run_rc,
    run_trotter1,
    step_random,
    step_trotter1,
)
from .hamiltonians import (
    Decomposition,
    HilbertStructure,
    annihilator,
    basis_state,
    build_kerr,
    build_mfim,
    build_rabi,
    pauli_on_site,
)
from .harness import (
    ConfigError,
    EnsembleResult,
    ExperimentConfig,
    PTraceTable,
    build_model,
    config_from_dict,
    extrapolate_zero_dt,
    load_config,
    run_ensemble,
    run_ptrace,
)
from .linalg import (
    EigenSystem,
    HermitianOperator,
    QuantumState,
    commutator,
    evolve_unitary,
    fidelity,
    hs_inner,
    hs_norm,
    kron,
    mixed_state,
    pure_state,
)
from .moments import (
    MomentSet,
    NoiseModel,
    double_commutator_norm,
    moments_of,
    norm_finite_difference,
    norm_from_moments,
)
from .rng import TrajectoryStream, trajectory_stream

__version__ = "0.1.0"
