"""Randomized-compilation simulator and benchmark harness for Hamiltonian evolution.

The package root holds the library names the README documents; everything
else is imported from its own module. Each root name is imported from its
module on first use, so `import arcsim` loads no numpy: the CLI can still
choose its BLAS thread count before numpy starts.
"""

import importlib

_MODULES = {
    "StepPlan": "compilers",
    "TrajectoryRecord": "compilers",
    "run_block": "compilers",
    "run_exact": "compilers",
    "basis_state": "hamiltonians",
    "build_kerr": "hamiltonians",
    "build_mfim": "hamiltonians",
    "build_rabi": "hamiltonians",
    "HermitianOperator": "linalg",
    "mixed_state": "linalg",
    "NoiseModel": "moments",
    "trajectory_stream": "rng",
}

__all__ = sorted(_MODULES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
