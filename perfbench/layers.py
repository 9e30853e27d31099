"""Per-layer metrics of one traced command, from the files `tracer.py` leaves.

A layer is an arcsim module. Span names are `<module>.<function>`; a span's
self time is its duration minus the time its child spans cover. Rates marked
GFLOP/s are computed: flop counts come from operand sizes, not from hardware
counters. Metrics of a layer the workload never calls read 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "moments.calls": "count",
    "moments.us_per_call": "us",
    "moments.gflops": "GFLOP/s",
    "linalg.evolve_calls": "count",
    "linalg.evolve_us": "us",
    "linalg.evolve_gflops": "GFLOP/s",
    "compilers.arc.us_per_traj_step": "us",
    "compilers.rc.us_per_traj_step": "us",
    "compilers.equal.us_per_traj_step": "us",
    "compilers.self_s": "s",
    "compilers.dist_builds": "count",
    "compilers.dist_us": "us",
    "linalg.states_built": "count",
    "rng.stream_keys": "count",
    "rng.stream_key_us": "us",
    "rng.generators": "count",
    "rng.generator_us": "us",
    "rng.share": "fraction",
    "moments.noise_draws": "count",
    "linalg.fidelity_calls": "count",
    "linalg.fidelity_useful_ratio": "fraction",
    "harness.exact_states": "count",
    "harness.exact_s": "s",
    "harness.exact_useful_ratio": "fraction",
    "harness.pool.workers": "count",
    "harness.pool.tasks": "count",
    "harness.pool.startup_s": "s",
    "harness.pool.worker_init_s": "s",
    "harness.pool.queue_wait_s": "s",
    "harness.pool.chunk_us_per_traj_step": "us",
    "harness.pool.idle_frac": "fraction",
    "hamiltonians.builds": "count",
    "hamiltonians.build_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "cli.load_s": "s",
    "bounds.states": "count",
    "bounds.us_per_state": "us",
    "bounds.gflops": "GFLOP/s",
    "harness.aggregate_s": "s",
    "emit.render_s": "s",
    "emit.bytes": "bytes",
    "moments.radicand_clamps": "count",
    "compilers.zero_weight_terms": "count",
    "compilers.max_tau_over_dt": "ratio",
    "compilers.dominant_switches": "count",
    "trace.overhead_frac": "fraction",
}


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


class Trace:
    """Spans, counts and events of every process of one command."""

    def __init__(self, trace_dir: Path):
        self.count = defaultdict(int)  # span name -> calls
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.events = defaultdict(list)  # key -> [(pid, record)]
        self.pids = []
        for meta_path in sorted(trace_dir.glob("meta-*.json")):
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            self.pids.append(meta["pid"])
            self._add_spans(trace_dir / f"spans-{meta['pid']}.npz", meta["names"])
            for key, value in meta["counts"].items():
                self.counters[key] += value
            for key, value in meta["maxima"].items():
                self.maxima[key] = max(value, self.maxima.get(key, value))
            for key, records in meta["events"].items():
                self.events[key] += [(meta["pid"], r) for r in records]

    def _add_spans(self, path: Path, names: list[str]) -> None:
        with np.load(path) as z:
            name, parent, start, end = z["name"], z["parent"], z["start"], z["end"]
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        n = len(names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        selfs = np.bincount(name, weights=own, minlength=n)
        for i, label in enumerate(names):
            if calls[i]:
                self.count[label] += int(calls[i])
                self.total_ns[label] += int(total[i])
                self.self_ns[label] += int(selfs[i])

    def total_s(self, *names: str) -> float:
        return sum(self.total_ns[n] for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def mean_us(self, name: str) -> float:
        return _div(self.total_ns[name] / 1e3, self.count[name])

    def profile(self) -> dict:
        return {
            name: {"calls": self.count[name], "total_s": self.total_ns[name] / 1e9,
                   "self_s": self.self_ns[name] / 1e9}
            for name in sorted(self.count, key=lambda n: -self.self_ns[n])
        }


def _pool_metrics(tr: Trace) -> dict[str, float]:
    created = [t for _, t in tr.events["pool_created"]]
    closed = [t for _, t in tr.events["pool_closed"]]
    inits = tr.events["worker_init"]
    chunks = tr.events["chunk"]
    if not (created and closed and inits):
        return {name: 0.0 for name in UNITS if name.startswith("harness.pool.")}
    submitted = {tuple(r[:3]): r[3] for _, r in tr.events["submit"]}
    workers = len({pid for pid, _ in inits})
    init_ns = sum(t1 - t0 for _, (t0, t1) in inits)
    chunk_ns = sum(r[4] - r[3] for _, r in chunks)
    waits = [r[3] - submitted[tuple(r[:3])] for _, r in chunks]
    lifetime = max(closed) - min(created)
    return {
        "harness.pool.workers": workers,
        "harness.pool.tasks": len(chunks),
        "harness.pool.startup_s": (min(t0 for _, (t0, _) in inits) - min(created)) / 1e9,
        "harness.pool.worker_init_s": init_ns / 1e9,
        "harness.pool.queue_wait_s": _div(sum(waits), len(waits)) / 1e9,
        "harness.pool.chunk_us_per_traj_step": _div(chunk_ns / 1e3, sum(r[5] for _, r in chunks)),
        "harness.pool.idle_frac": 1.0 - _div(init_ns + chunk_ns, workers * lifetime),
    }


def layer_metrics(trace_dir: Path) -> tuple[dict[str, float], dict]:
    """Every per-layer metric but trace.overhead_frac, and the span profile."""
    tr = Trace(trace_dir)
    c = tr.counters
    exact_needed = defaultdict(int)
    for _, (dt, steps) in tr.events["exact"]:
        exact_needed[dt] = max(exact_needed[dt], steps)
    names = list(tr.count)
    m = {
        "moments.calls": tr.count["moments.moments_of"],
        "moments.us_per_call": tr.mean_us("moments.moments_of"),
        "moments.gflops": _div(c["moments.flops"], tr.total_ns["moments.moments_of"]),
        "linalg.evolve_calls": tr.count["linalg.evolve_unitary"],
        "linalg.evolve_us": tr.mean_us("linalg.evolve_unitary"),
        "linalg.evolve_gflops": _div(c["linalg.evolve_flops"], tr.total_ns["linalg.evolve_unitary"]),
    }
    for protocol, runner in (("arc", "run_arc"), ("rc", "run_rc"), ("equal", "run_equal_weight")):
        m[f"compilers.{protocol}.us_per_traj_step"] = _div(
            tr.total_ns[f"compilers.{runner}"] / 1e3, c[f"compilers.{protocol}.steps"]
        )
    rng_s = tr.total_s("rng.stream_key", "rng.TrajectoryStream.step")
    m.update({
        "compilers.self_s": tr.self_s(*[n for n in names if n.startswith("compilers.")]),
        "compilers.dist_builds": tr.count["compilers.ProbabilityDistribution.__post_init__"],
        "compilers.dist_us": tr.mean_us("compilers.ProbabilityDistribution.__post_init__"),
        "linalg.states_built": tr.count["linalg.QuantumState.__post_init__"],
        "rng.stream_keys": tr.count["rng.stream_key"],
        "rng.stream_key_us": tr.mean_us("rng.stream_key"),
        "rng.generators": tr.count["rng.TrajectoryStream.step"],
        "rng.generator_us": tr.mean_us("rng.TrajectoryStream.step"),
        "rng.share": _div(rng_s, tr.total_s("harness._Context.run_one")),
        "moments.noise_draws": c["moments.noise_draws"],
        "linalg.fidelity_calls": tr.count["linalg.fidelity"],
        "linalg.fidelity_useful_ratio": _div(c["linalg.fidelity_used"], tr.count["linalg.fidelity"]),
        "harness.exact_states": c["harness.exact_states"],
        "harness.exact_s": tr.total_s("compilers.run_exact"),
        "harness.exact_useful_ratio": _div(sum(exact_needed.values()), c["harness.exact_states"]),
    })
    m.update(_pool_metrics(tr))
    builds = [n for n in names if n.startswith("hamiltonians.build_")]
    emitters = [n for n in names if n.startswith("emit.")]
    m.update({
        "hamiltonians.builds": sum(tr.count[n] for n in builds),
        "hamiltonians.build_s": tr.total_s(*builds),
        "linalg.eig_calls": tr.count["linalg._eigensystem"],
        "linalg.eig_s": tr.total_s("linalg._eigensystem"),
        "cli.load_s": tr.total_s("cli._load"),
        "bounds.states": c["bounds.states"],
        "bounds.us_per_state": _div(tr.total_ns["bounds.bound_report"] / 1e3, c["bounds.states"]),
        "bounds.gflops": _div(c["bounds.flops"], tr.total_ns["bounds.bound_report"]),
        "harness.aggregate_s": tr.self_s("harness.run_ensemble", "harness.run_ptrace")
        + tr.total_s("harness.extrapolate_zero_dt"),
        "emit.render_s": tr.self_s(*emitters, "cli.cmd_run", "cli.cmd_ptrace", "cli.cmd_bounds")
        + tr.total_s("cli._deliver"),
        "emit.bytes": c["emit.bytes"],
        "moments.radicand_clamps": c["moments.radicand_clamps"],
        "compilers.zero_weight_terms": c["compilers.zero_weight_terms"],
        "compilers.max_tau_over_dt": tr.maxima.get("compilers.max_tau_over_dt", 0.0),
        "compilers.dominant_switches": c["compilers.dominant_switches"],
    })
    return {k: float(v) for k, v in m.items()}, {"processes": len(tr.pids), "spans": tr.profile()}
