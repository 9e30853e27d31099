"""Randomized-compilation simulator and benchmark harness for Hamiltonian evolution.

The package root holds the library names the README documents; everything
else is imported from its own module.
"""

from .compilers import StepPlan, TrajectoryRecord, run_block, run_exact
from .hamiltonians import basis_state, build_kerr, build_mfim, build_rabi
from .linalg import HermitianOperator, mixed_state
from .moments import NoiseModel
from .rng import trajectory_stream

__version__ = "0.1.0"
