"""Short helper processes of the benchmark.

    python3 probe.py setup CONFIG   fresh-process set-up: import arcsim, load the
                                    config, build the model and initial state, and
                                    compute every term and total eigensystem
    python3 probe.py machine        print the machine record as one JSON line
    python3 probe.py ceilings       print measured zgemv/zgemm rates as one JSON line

Both need arcsim importable (PYTHONPATH pointing at the checkout's src).
"""

from __future__ import annotations

import os
import platform
import sys
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ARC_SIM_THREADS")


def setup(config_path: str) -> None:
    from arcsim.harness import basis_state, build_model, load_config

    config = load_config(config_path)
    decomp, structure = build_model(config)
    basis_state(config.initial_state, structure)
    for term in decomp.terms:
        term.eig
    decomp.total_operator.eig


def _best_rate(fn, work: float, batch_s: float = 0.02, batches: int = 3) -> float:
    """Highest rate, in `work` units per second, over a few timed batches of calls."""
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= batch_s / 4:
            break
        reps *= 2
    best = 0.0
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        best = max(best, reps * work / (perf_counter() - t0))
    return best


def _python_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def ceilings() -> dict:
    """Complex matrix-vector and matrix-matrix rates at the models' dimensions.

    A pure-Python loop rate rides along as a gauge of the host's speed at the
    time of the run, which drifts on a shared host.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    rates = {"python_loop_mops": _best_rate(_python_loop, 0.1)}  # 1e5 iterations
    for n in (16, 100):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = b[:, 0].copy()
        rates[f"zgemv_dim{n}_gflops"] = _best_rate(lambda: a @ x, 8e-9 * n * n)
        rates[f"zgemm_dim{n}_gflops"] = _best_rate(lambda: a @ b, 8e-9 * n**3)
    return rates


def machine() -> dict:
    import numpy as np

    from arcsim.harness import worker_count

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "arcsim_workers": worker_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif sys.argv[1:] in (["machine"], ["ceilings"]):
        import json

        print(json.dumps(machine() if sys.argv[1] == "machine" else ceilings()))
    else:
        sys.exit(__doc__)
