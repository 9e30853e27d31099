"""Run the arcsim CLI with spans and counts recorded at every module boundary.

    PERFBENCH_TRACE_DIR=DIR PERFBENCH_RUN_ID=ID python3 tracer.py run --config C --out O

The tracer wraps, from outside the program, every public function of each
arcsim module plus a few private boundaries (eigendecomposition, the pool
worker entry points, state and distribution construction, stream creation).
Each call becomes a span (name, start, end, parent) in the process that made
it; spans of one command share the run id. Counts are taken at the same
boundaries by looking at arguments and return values. Forked pool workers
start with empty buffers and write their own files when they exit, so every
process of the command leaves `spans-<pid>.npz` and `meta-<pid>.json` in DIR.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import import_module
from multiprocessing import util as mp_util
from time import perf_counter_ns

import numpy as np

MODULES = ("cli", "harness", "compilers", "moments", "linalg", "rng", "hamiltonians", "bounds", "emit")

# Private functions and methods that are layer boundaries of their own.
EXTRA = {
    "linalg": ("_eigensystem", "QuantumState.__post_init__"),
    "compilers": ("ProbabilityDistribution.__post_init__",),
    "rng": ("TrajectoryStream.step",),
    "moments": ("NoiseModel.perturb",),
    "harness": (
        "_Context.__init__",
        "_Context.exact",
        "_Context.run_one",
        "_ensemble_fidelities",
        "_worker_init",
        "_worker_chunk",
    ),
    "cli": ("_load", "_deliver", "_compute_bounds"),
}

# Spans under which a trajectory's final fidelity is consumed by the ensemble.
ENSEMBLE_CALLERS = ("harness._worker_chunk", "harness._ensemble_fidelities")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span and count buffers of one process."""

    def __init__(self, out_dir: str, run_id: str, hooks: dict):
        self.out_dir = out_dir
        self.run_id = run_id
        self.hooks = hooks
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.events: dict[str, list] = {}
        self.last_arc_span = -2
        self.last_dominant = -1

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def event(self, key: str, record) -> None:
        self.events.setdefault(key, []).append(record)

    def parent_name(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.span_name[top]]

    def within(self, names) -> bool:
        return any(self.names[self.span_name[i]] in names for i in self.stack[1:])

    def wrap(self, name: str, fn):
        name_id = self.ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self.stack[-1])
            self.span_start.append(0)
            self.span_end.append(0)
            self.stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self.stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
            if hook is not None:
                hook(self, args, kwargs, result, t0, t1)
            return result

        return traced

    def dump(self) -> None:
        stem = os.path.join(self.out_dir, f"{{}}-{self.pid}")
        np.savez(
            stem.format("spans"),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            start=np.asarray(self.span_start, dtype=np.int64),
            end=np.asarray(self.span_end, dtype=np.int64),
        )
        meta = {
            "pid": self.pid,
            "ppid": os.getppid(),
            "run_id": self.run_id,
            "names": self.names,
            "counts": self.counts,
            "maxima": self.maxima,
            "events": self.events,
        }
        with open(stem.format("meta") + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


# -- counts taken from arguments and return values ---------------------------


def _moments_of(tr, args, kwargs, result, t0, t1):
    dim = _arg(args, kwargs, 0, "h").dim
    tr.count("moments.flops", 4 * 8 * dim * dim)  # 4 complex matvecs


def _norm_from_moments(tr, args, kwargs, result, t0, t1):
    m = _arg(args, kwargs, 0, "m")
    if 6.0 * m.m2**2 - 8.0 * m.m1 * m.m3 + 2.0 * m.m4 < 0.0:
        tr.count("moments.radicand_clamps")


def _perturb(tr, args, kwargs, result, t0, t1):
    if args[0].std > 0.0:
        tr.count("moments.noise_draws", np.size(_arg(args, kwargs, 1, "values")))


def _evolve_unitary(tr, args, kwargs, result, t0, t1):
    state = _arg(args, kwargs, 0, "state")
    if state.is_pure:
        tr.count("linalg.evolve_flops", 2 * 8 * state.dim**2)  # V^dag psi, then V (phases psi')


def _optimal_distribution(tr, args, kwargs, result, t0, t1):
    p = result.p
    tr.count("compilers.zero_weight_terms", int(np.count_nonzero(p == 0.0)))
    if tr.parent_name() == "compilers.run_arc":
        dominant = int(np.argmax(p))
        if tr.last_arc_span == tr.stack[-1] and dominant != tr.last_dominant:
            tr.count("compilers.dominant_switches")
        tr.last_arc_span, tr.last_dominant = tr.stack[-1], dominant


def _step_random(tr, args, kwargs, result, t0, t1):
    if tr.parent_name() == "compilers.run_arc":
        plan = _arg(args, kwargs, 2, "plan")
        tr.maximum("compilers.max_tau_over_dt", result[2] / plan.dt)


def _runner(protocol):
    def hook(tr, args, kwargs, result, t0, t1):
        tr.count(f"compilers.{protocol}.steps", _arg(args, kwargs, 2, "plan").steps)

    return hook


def _run_exact(tr, args, kwargs, result, t0, t1):
    plan = _arg(args, kwargs, 2, "plan")
    tr.count("harness.exact_states", plan.steps)
    tr.event("exact", [repr(plan.dt), plan.steps])


def _run_one(tr, args, kwargs, result, t0, t1):
    if tr.within(ENSEMBLE_CALLERS):
        tr.count("linalg.fidelity_used")


def _worker_init(tr, args, kwargs, result, t0, t1):
    tr.event("worker_init", [t0, t1])
    mp_util.Finalize(None, tr.dump, exitpriority=10)


def _worker_chunk(tr, args, kwargs, result, t0, t1):
    protocol, point_idx, lo, hi = args
    steps = import_module("arcsim.harness")._WORKER_CTX.points[point_idx].plan.steps
    tr.event("chunk", [protocol, point_idx, lo, t0, t1, (hi - lo) * steps])


def _bound_report(tr, args, kwargs, result, t0, t1):
    decomp = _arg(args, kwargs, 0, "decomposition")
    n_states = len(_arg(args, kwargs, 1, "exact_states"))
    n_terms = len(decomp)
    matmuls = 2 * n_terms**2 + 8 * n_terms + 8  # trotter1 2L^2, rc and arc 4L+4 each
    tr.count("bounds.states", n_states)
    tr.count("bounds.flops", n_states * matmuls * 8 * decomp.dim**3)


def _deliver(tr, args, kwargs, result, t0, t1):
    tr.count("emit.bytes", len(_arg(args, kwargs, 0, "text").encode("utf-8")))


HOOKS = {
    "moments.moments_of": _moments_of,
    "moments.norm_from_moments": _norm_from_moments,
    "moments.NoiseModel.perturb": _perturb,
    "linalg.evolve_unitary": _evolve_unitary,
    "compilers.optimal_distribution": _optimal_distribution,
    "compilers.step_random": _step_random,
    "compilers.run_arc": _runner("arc"),
    "compilers.run_rc": _runner("rc"),
    "compilers.run_equal_weight": _runner("equal"),
    "compilers.run_exact": _run_exact,
    "harness._Context.run_one": _run_one,
    "harness._worker_init": _worker_init,
    "harness._worker_chunk": _worker_chunk,
    "bounds.bound_report": _bound_report,
    "cli._deliver": _deliver,
}


def _traced_pool(tr: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """The program's pool, with creation, submission and shutdown times recorded."""

        def __init__(self, *args, **kwargs):
            tr.event("pool_created", perf_counter_ns())
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            tr.event("submit", [args[0], args[1], args[2], perf_counter_ns()])
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tr.event("pool_closed", perf_counter_ns())

    return TracedPool


def _rebind(modules, original, replacement) -> None:
    """Point every reference the package holds to `original` at `replacement`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(tr: Tracer):
    modules = [import_module(f"arcsim.{m}") for m in MODULES]
    for short, mod in zip(MODULES, modules):
        public = [
            name
            for name, value in vars(mod).items()
            if inspect.isfunction(value)
            and value.__module__ == mod.__name__
            and not name.startswith("_")
        ]
        for qual in public + list(EXTRA.get(short, ())):
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = vars(owner)[attr]
            traced = tr.wrap(f"{short}.{qual}", original)
            if owner_name:
                setattr(owner, attr, traced)
            else:
                _rebind(modules, original, traced)
    harness = modules[MODULES.index("harness")]
    harness.ProcessPoolExecutor = _traced_pool(tr)
    return modules[MODULES.index("cli")]


def main(argv: list[str]) -> int:
    tr = Tracer(os.environ["PERFBENCH_TRACE_DIR"], os.environ.get("PERFBENCH_RUN_ID", ""), HOOKS)
    cli = install(tr)
    try:
        return cli.main(argv)
    finally:
        tr.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
