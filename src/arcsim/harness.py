"""Configuration ingestion, seeded trajectory ensembles, and experiment statistics.

A single JSON document drives an experiment: model + couplings, initial ket,
protocol list, a step-size plan (fixed dt with a list of step counts, or
fixed total time with a list of step sizes), trajectory count, noise level,
and master seed. Results are deterministic functions of the config and seed,
independent of how many workers execute the trajectories.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .compilers import (
    DETERMINISTIC_PROTOCOLS, PROTOCOL_NAMES, StepPlan, TrajectoryRecord, _final_fidelities, _pure_steps,
    run_block, run_exact,
)
from .hamiltonians import (
    Decomposition, HilbertStructure, basis_state, build_kerr, build_mfim, build_rabi,
)
from .moments import MAX_NOISE_STD, NoiseModel

PROTOCOL_IDS = {name: i for i, name in enumerate(PROTOCOL_NAMES)}

DEFAULT_PARAMS = {
    "mfim": {"L": 4, "J": 1.0, "h_x": 0.5, "h_z": 0.3},
    "kerr": {"delta": 0.3, "K": 1.0, "eps": 0.5, "D": 50},
    "rabi": {"omega": 1.0, "Omega": 1.0, "g": 0.2, "D": 50},
}
DEFAULT_INITIAL_STATE = {"mfim": "0011", "kerr": "(|1⟩+|5⟩)/√2", "rabi": "(|2,0⟩+|5,0⟩)/√2"}
# Each plan mode's keys besides "mode", in echo order, with their defaults: a
# step-count sweep at fixed dt, or a step-size sweep at fixed total time t.
PLAN_MODES = {
    "fixed_dt": {"dt": 0.02, "n_list": [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]},
    "fixed_t": {"t": 1.0, "dt_list": [0.01, 0.02, 0.04, 0.05, 0.1]},
}
# Largest Hilbert-space dimension a config may ask for: every operator is a
# dense dim x dim complex matrix (16 MB at the cap), and configs are rejected
# before any is allocated.
MAX_DIM = 1024
# Largest trajectory count a config or --trajectories may ask for. Per
# protocol and plan point the harness holds one fidelity float per
# trajectory, 800 kB at the cap; configs are rejected before any of it is
# allocated.
MAX_TRAJECTORIES = 100_000
# Largest step count a plan point may ask for (an n_list entry or t / dt). The exact
# reference holds one state per step (160 MB at MAX_DIM and the cap), so plans are
# rejected before it is allocated. An ensemble block keeps no per-step history (a
# 6,400-wide dim-2 block would hold 1.5 GB of it at the cap), only states and fidelities.
MAX_STEPS = 10_000
# Largest magnitude of a coupling or of a plan's dt or t. `bounds` takes fourth moments
# of the pair commutator, which grows as the couplings squared: with every MFIM L = 10
# coupling at C they are finite at C = 1e19 and overflow at 1e20. At this cap, with dt
# there too and noise_std at MAX_NOISE_STD, `run` and `bounds` on MFIM L = 10, Kerr
# D = 1024 and Rabi D = 512 give only finite numbers and no overflow warning.
MAX_MAGNITUDE = 1e15
# The trajectories of all plan points with bit-equal dt are ordered longest first, as
# (N descending, point, m), and stepped in blocks of _block_size(dim) along that order:
# 6,400 at dim 2, 800 at 16 and 256 at 50, wide enough to spread each step's per-call cost
# (within 3% of 512 or faster at dims 2 to 16), and 128 from dim 100 up, where 256
# measured no faster and 512 slower. The last bits of a trajectory depend on its
# block, so the partition follows the dimension alone, never the worker count.
BLOCK_MIN, BLOCK_AREA = 128, 12_800
# Estimated serial cost of one trajectory-step, STEP_S + STEP_DIM2_S * dim**2
# seconds, fitted to one-worker arc timings (512 trajectories, N = 50, 2-core
# host, one OpenBLAS thread): 11.6, 12.1 and 17.6 us at dim 16, 50 and 100.
# rc and equal cost about half that, so the estimate errs towards one process.
STEP_S = 10e-6
STEP_DIM2_S = 1e-9
# The pool runs only when an ensemble's estimated serial time is at least
# this. Through the CLI on that host, two workers cost about 0.1 s more than
# one process at 20-30 trajectories (the fork, the `concurrent.futures` and
# `multiprocessing` imports, each worker's first `numpy.random` use), broke
# even at an estimate of about 0.35 s and won by 5-25% from 0.5 s up.
POOL_MIN_S = 0.5
# Largest worker count ARC_SIM_THREADS may ask for. The pool starts one process per
# task up to that count, and a 2,000-trajectory Rabi run has 471 tasks, so a larger
# value is rejected before any worker is forked.
MAX_WORKERS = 64


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class PlanPoint(NamedTuple):
    x_kind: str  # "steps" | "dt"
    x_value: float
    plan: StepPlan


def plan_points(plan: dict) -> list[PlanPoint]:
    """A validated plan's points: one per step count at fixed dt, or per step size at fixed t."""
    if plan["mode"] == "fixed_dt":
        dt = plan["dt"]
        return [PlanPoint("steps", float(n), StepPlan(n * dt, n, dt)) for n in plan["n_list"]]
    steps = [max(1, round(plan["t"] / dt)) for dt in plan["dt_list"]]
    return [PlanPoint("dt", plan["t"] / n, StepPlan(plan["t"], n)) for n in steps]


@dataclass
class ExperimentConfig:
    model: str
    params: dict
    initial_state: str
    protocols: list[str]
    plan: dict  # {"mode": ..., then that mode's PLAN_MODES keys}
    trajectories: int = 2000
    noise_std: float = 0.0
    master_seed: int = 0
    ptrace_trajectories: int = 1
    shot_params: dict | None = None

    def to_dict(self) -> dict:
        """The JSON echo: a deep copy of every field, in order, the last two only when set."""
        unset = {f.name for f in fields(self)[-2:] if getattr(self, f.name) == f.default}
        return {f.name: copy.deepcopy(getattr(self, f.name)) for f in fields(self) if f.name not in unset}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    """An integer that is not a bool (JSON true would otherwise count as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value, name: str, limit: float) -> float:
    """A number within limit and float range as a float: bools, strings, NaN, inf and huge ints are rejected."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    _require(ok, f"{name} must be a finite number, got {value!r}")
    _require(abs(value) <= limit, f"{name} must be at most {limit:g} in magnitude, got {value!r}")
    return float(value)


def _plan_from_dict(raw: dict) -> dict:
    """The validated plan: "mode", then that mode's PLAN_MODES keys in order, given or default."""
    _require(isinstance(raw, dict), "plan must be an object")
    mode = raw.get("mode", "fixed_dt")
    _require(isinstance(mode, str) and mode in PLAN_MODES, f"unknown plan mode {mode!r}")
    unknown = set(raw) - {"mode", *PLAN_MODES[mode]}
    _require(not unknown, f"unknown plan keys {sorted(unknown)} for mode {mode}")
    plan = {"mode": mode, **PLAN_MODES[mode], **raw}
    if mode == "fixed_dt":
        plan["dt"] = _real(plan["dt"], "plan dt", MAX_MAGNITUDE)
        _require(plan["dt"] > 0, "plan dt must be positive")
        n_list = plan["n_list"]
        _require(isinstance(n_list, list) and len(n_list) > 0, "plan n_list must be a nonempty list")
        for n in n_list:
            _require(
                _is_int(n) and 1 <= n <= MAX_STEPS,
                f"step count must be an integer from 1 to {MAX_STEPS}, got {n!r}",
            )
        plan["n_list"] = list(n_list)
        return plan
    t = plan["t"] = _real(plan["t"], "plan t", math.inf)
    _require(t > 0, "plan t must be positive")
    dt_list = plan["dt_list"]
    _require(isinstance(dt_list, list) and len(dt_list) > 0, "plan dt_list must be a nonempty list")
    for dt in dt_list:
        _require(_real(dt, "plan step size", MAX_MAGNITUDE) > 0, f"bad step size {dt!r}")
        _require(t / dt <= MAX_STEPS, f"plan t / dt = {t / dt:g} exceeds the step cap of {MAX_STEPS}")
    _real(t, "plan t", MAX_MAGNITUDE)  # after the step cap, which names a huge t/dt first
    plan["dt_list"] = [float(dt) for dt in dt_list]
    steps = {}  # step count -> the step size that first gave it
    for dt, point in zip(plan["dt_list"], plan_points(plan)):
        n = point.plan.steps
        _require(steps.setdefault(n, dt) == dt, f"step sizes {steps[n]!r} and {dt!r} both give {n} steps")
    return plan


def _structure(model: str, params: dict) -> HilbertStructure:
    """A model's Hilbert structure, built from its sizes alone; MFIM's L saturates at 64 so a huge L costs nothing."""
    if model == "mfim":
        return HilbertStructure(qubit_sites=min(params["L"], 64))
    if model == "kerr":
        return HilbertStructure(fock_dim=params["D"])
    return HilbertStructure(qubit_sites=1, fock_dim=params["D"])


def check_trajectories(count, name: str) -> None:
    """Reject a trajectory count that is not an integer in [1, MAX_TRAJECTORIES]."""
    _require(
        _is_int(count) and 1 <= count <= MAX_TRAJECTORIES,
        f"{name} must be an integer from 1 to {MAX_TRAJECTORIES}, got {count!r}",
    )


def check_seed(value, name: str) -> None:
    """Reject a seed that is not an unsigned 64-bit integer."""
    _require(_is_int(value) and 0 <= value < 2**64, f"{name} must be an unsigned 64-bit integer")


def check_noise_std(value, name: str) -> float:
    """A noise level as a float: reject it unless it is a finite number in [0, MAX_NOISE_STD]."""
    std = _real(value, name, MAX_NOISE_STD)
    _require(std >= 0, f"{name} must be nonnegative")
    return std


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    _require(not unknown, f"unknown config keys {sorted(unknown)}")

    model = raw.get("model")
    _require(
        isinstance(model, str) and model in DEFAULT_PARAMS,
        f"model must be one of {sorted(DEFAULT_PARAMS)}, got {model!r}",
    )

    params = dict(DEFAULT_PARAMS[model])
    overrides = raw.get("params", {})
    _require(isinstance(overrides, dict), "params must be an object")
    bad = set(overrides) - set(params)
    _require(not bad, f"unknown {model} parameters {sorted(bad)}")
    params.update(overrides)
    for key, value in params.items():
        if key in ("L", "D"):  # build_mfim needs two sites, and HilbertStructure two Fock levels
            _require(_is_int(value) and value >= 2, f"params.{key} must be an integer >= 2, got {value!r}")
        else:
            _real(value, f"params.{key}", MAX_MAGNITUDE)
    structure = _structure(model, params)
    _require(structure.dim <= MAX_DIM, f"{model} Hilbert dimension {structure.dim} exceeds the cap of {MAX_DIM}")

    protocols = raw.get("protocols", ["arc", "rc"])
    _require(isinstance(protocols, list) and len(protocols) > 0, "protocols must be a nonempty list")
    for name in protocols:
        _require(name in PROTOCOL_NAMES, f"unknown protocol {name!r}")
    _require(len(set(protocols)) == len(protocols), "duplicate protocol names")

    plan = _plan_from_dict(raw.get("plan", {}))

    trajectories = raw.get("trajectories", ExperimentConfig.trajectories)
    check_trajectories(trajectories, "trajectories")
    noise_std = check_noise_std(raw.get("noise_std", ExperimentConfig.noise_std), "noise_std")
    master_seed = raw.get("master_seed", ExperimentConfig.master_seed)
    check_seed(master_seed, "master_seed")
    ptrace_m = raw.get("ptrace_trajectories", ExperimentConfig.ptrace_trajectories)
    check_trajectories(ptrace_m, "ptrace_trajectories")
    initial_state = raw.get("initial_state", DEFAULT_INITIAL_STATE[model])
    _require(isinstance(initial_state, str), "initial_state must be a string")
    try:
        basis_state(initial_state, structure)
    except ValueError as exc:
        hint = "" if "initial_state" in raw else f"default ket {initial_state!r} does not fit; set initial_state: "
        raise ConfigError(f"{hint}{exc}") from None
    shot_params = raw.get("shot_params", ExperimentConfig.shot_params)
    if shot_params is not None:
        from .bounds import shot_lower_bounds

        _require(isinstance(shot_params, dict), "shot_params must be an object")
        try:
            shot_lower_bounds(**shot_params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid shot_params: {exc}") from None

    return ExperimentConfig(
        model=model, params=params, initial_state=initial_state, protocols=list(protocols),
        plan=plan, trajectories=trajectories, noise_std=noise_std, master_seed=master_seed,
        ptrace_trajectories=ptrace_m, shot_params=shot_params,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested past the parser's depth limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(raw)


def build_model(config: ExperimentConfig) -> tuple[Decomposition, HilbertStructure]:
    """Construct the configured model's decomposition and Hilbert structure."""
    builders = {"mfim": build_mfim, "kerr": build_kerr, "rabi": build_rabi}  # built per call, so patches apply
    return builders[config.model](**config.params)


class SeriesPoint(NamedTuple):
    protocol: str
    x_kind: str
    x_value: float
    mean_fidelity: float
    stderr: float
    trajectories: int


class EnsembleResult(NamedTuple):
    series: list[SeriesPoint]
    extrapolated: dict[str, float]
    config: ExperimentConfig


class PTraceTable(NamedTuple):
    """Per-step sampling-probability trace of one adaptive trajectory."""

    labels: tuple[str, ...]
    steps: np.ndarray
    probabilities: np.ndarray
    sampled_indices: np.ndarray
    taus: np.ndarray
    config: ExperimentConfig


def worker_count() -> int:
    """Largest worker pool size: the CPUs this process may run on, at most 8; ARC_SIM_THREADS overrides it.

    An ARC_SIM_THREADS above MAX_WORKERS is a ConfigError, raised before any pool starts.
    """
    env = os.environ.get("ARC_SIM_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"ARC_SIM_THREADS must be an integer, got {env!r}") from None
        _require(1 <= n <= MAX_WORKERS, f"ARC_SIM_THREADS must be from 1 to {MAX_WORKERS}, got {n}")
        return n
    return min(8, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _block_size(dim: int) -> int:
    return max(BLOCK_MIN, BLOCK_AREA // dim)


def _blocks(n: int, dim: int) -> list[tuple[int, int]]:
    """[lo, hi) trajectory ranges of the fixed block partition of n trajectories of dimension dim."""
    size = _block_size(dim)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


class _Context:
    """Built model + exact-state cache, shared by trajectories.

    Plan points with bit-equal dt share one (N, dim) exact trajectory: it
    runs once at the largest N, and shorter points read a row prefix. It
    runs on one BLAS thread like the trajectories, so `bounds` reads the
    same states whatever the thread count.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.decomp, self.structure = build_model(config)
        self.state0 = basis_state(config.initial_state, self.structure)
        self.points = plan_points(config.plan)
        # dt -> its plan points, longest first: (N descending, point)
        self.groups: dict[float, list[int]] = {}
        for q in sorted(range(len(self.points)), key=lambda q: -self.points[q].plan.steps):
            self.groups.setdefault(self.points[q].plan.dt, []).append(q)
        self._exact: dict[float, np.ndarray] = {}

    def exact(self, point_idx: int) -> np.ndarray:
        plan = self.points[point_idx].plan
        if plan.dt not in self._exact:
            longest = self.points[self.groups[plan.dt][0]].plan
            with _single_blas_thread():
                self._exact[plan.dt] = run_exact(self.state0, self.decomp.total_operator, longest)
        return self._exact[plan.dt][: plan.steps]

    def count(self, protocol: str) -> int:
        """Trajectories protocol runs at each plan point: one if it draws no random numbers."""
        return 1 if protocol in DETERMINISTIC_PROTOCOLS else self.config.trajectories

    def members(self, protocol: str, point_idx: int, lo: int, hi: int) -> list[tuple[int, int]]:
        """Pairs lo..hi-1 of point_idx's dt group, longest first: (N descending, point, m).

        Each of the group's points runs `count` trajectories, so pair i is
        (group[i // count], i % count) and no list of the whole group is built.
        """
        count = self.count(protocol)
        group = self.groups[self.points[point_idx].plan.dt]
        return [(group[i // count], i % count) for i in range(lo, hi)]

    def block(self, protocol: str, members: list[tuple[int, int]]) -> tuple:
        """(protocol, state0, decomposition, plans, stream keys, noise) of one block of members."""
        from .rng import stream_keys

        pid = PROTOCOL_IDS[protocol]
        plans = [self.points[q].plan for q, _ in members]
        keys = stream_keys(self.config.master_seed, [(pid, q, m) for q, m in members])
        return protocol, self.state0, self.decomp, plans, keys, NoiseModel(self.config.noise_std)

    def run_one(self, protocol: str, point_idx: int, m: int) -> TrajectoryRecord:
        """Trajectory m of one plan point on its own, as a one-trajectory block."""
        *args, noise = self.block(protocol, [(point_idx, m)])
        return run_block(*args, noise=noise, exact_states=self.exact(point_idx))[0]


@functools.cache
def _openblas_threads():
    """(set, get) thread-count functions of the loaded OpenBLAS, or None.

    Found once per process (forked workers inherit it) through its memory map,
    so None off Linux or under another BLAS; numpy wheels carry scipy-openblas.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            set_fn = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            get_fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if set_fn is not None and get_fn is not None:
                return set_fn, get_fn
    return None


@contextlib.contextmanager
def _single_blas_thread():
    """Run the enclosed trajectories, and any worker forked inside, on one BLAS thread.

    Trajectory kernels are dim x dim matvecs: BLAS threads there only fight
    the worker pool for cores (Rabi, 2 cores, 200 trajectories: 32 s against
    3.6 s), and the last bits of a threaded product depend on the thread
    count, so one thread everywhere also keeps bytes independent of it.
    """
    fns = _openblas_threads()
    if fns is None:
        yield
        return
    set_fn, get_fn = fns
    before = get_fn()
    set_fn(1)
    try:
        yield
    finally:
        set_fn(before)


_WORKER_CTX: _Context | None = None


def _worker_init(ctx: _Context) -> None:
    """Adopt the parent's context: forked workers inherit it, spawned ones unpickle it."""
    global _WORKER_CTX
    fns = _openblas_threads()
    if fns is not None:
        fns[0](1)  # a spawned worker does not inherit the parent's setting
    _WORKER_CTX = ctx


def _chunk_fidelities(ctx: _Context, protocol: str, point_idx: int, lo: int, hi: int) -> np.ndarray:
    """Final fidelities of trajectories lo..hi-1 of the dt group whose first point is point_idx."""
    members = ctx.members(protocol, point_idx, lo, hi)
    return _final_fidelities(*ctx.block(protocol, members), ctx.exact(members[0][0]))


def _worker_chunk(protocol: str, point_idx: int, lo: int, hi: int) -> tuple[str, int, int, np.ndarray]:
    assert _WORKER_CTX is not None
    return protocol, point_idx, lo, _chunk_fidelities(_WORKER_CTX, protocol, point_idx, lo, hi)


def _ensemble_fidelities(ctx: _Context, config: ExperimentConfig) -> dict:
    """Per-(protocol, plan point) fidelity arrays, trajectory-indexed.

    Each block of each dt group's fixed partition is one pool task, or one
    serial run. The pool runs only for an ensemble whose estimated serial
    time reaches POOL_MIN_S, with at most one worker per task. Every exact
    reference, and for noisy `arc` the ziggurat table, is built here before
    the pool starts, so the workers share the parent's.
    """
    firsts = sorted(min(group) for group in ctx.groups.values())
    tasks = [  # (protocol, first point of a dt group, lo, hi)
        (protocol, first, lo, hi)
        for protocol in config.protocols
        for first in firsts
        for lo, hi in _blocks(ctx.count(protocol) * len(ctx.groups[ctx.points[first].plan.dt]), ctx.state0.dim)
    ]
    fids = {(p, q): np.empty(ctx.count(p)) for p in config.protocols for q in range(len(ctx.points))}

    def store(protocol, first, lo, values):
        for (q, m), value in zip(ctx.members(protocol, first, lo, lo + len(values)), values):
            fids[(protocol, q)][m] = value

    workers = min(worker_count(), len(tasks))
    steps = sum(ctx.points[q].plan.steps * len(values) for (_, q), values in fids.items())
    serial_s = steps * (STEP_S + STEP_DIM2_S * ctx.state0.dim**2)
    with _single_blas_thread():
        if workers > 1 and serial_s >= POOL_MIN_S:
            from concurrent.futures import ProcessPoolExecutor

            from .rng import _ziggurat

            for first in firsts:
                ctx.exact(first)
            if "arc" in config.protocols and config.noise_std > 0:
                _ziggurat()  # forked workers inherit the table
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init, initargs=(ctx,)
            ) as pool:
                futures = [pool.submit(_worker_chunk, *task) for task in tasks]
                for fut in futures:
                    store(*fut.result())
        else:
            for protocol, first, lo, hi in tasks:
                store(protocol, first, lo, _chunk_fidelities(ctx, protocol, first, lo, hi))
    return fids


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    """Run every (protocol, plan point) ensemble and aggregate fidelity statistics.

    Deterministic protocols (exact, trotter1) are executed once per plan
    point; stochastic protocols get `trajectories` independent runs, each
    seeded from (master seed, protocol, plan point, trajectory index).
    """
    ctx = _Context(config)
    fids = _ensemble_fidelities(ctx, config)
    series = []
    for protocol in config.protocols:
        for point_idx, point in enumerate(ctx.points):
            values = fids[(protocol, point_idx)]
            m = len(values)
            mean = float(np.sum(values) / m)
            stderr = float(np.std(values, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
            series.append(SeriesPoint(protocol, point.x_kind, point.x_value, mean, stderr, m))
    extrapolated = {}
    if config.plan["mode"] == "fixed_t" and len(ctx.groups) >= 3:
        for protocol in config.protocols:
            pts = [(sp.x_value, sp.mean_fidelity) for sp in series if sp.protocol == protocol]
            extrapolated[protocol] = extrapolate_zero_dt(pts)
    return EnsembleResult(series=series, extrapolated=extrapolated, config=config)


def run_ptrace(config: ExperimentConfig) -> PTraceTable:
    """Sampling-probability trace of the adaptive protocol at one plan point.

    Logs a single seeded trajectory by default; with ptrace_trajectories > 1
    the probability rows are averaged over that many trajectories and the
    sampled-index/tau columns are left empty (-1 / NaN).
    """
    if config.protocols != ["arc"]:
        raise ConfigError('probability traces require protocols == ["arc"]')
    points = plan_points(config.plan)
    if len(points) != 1:
        raise ConfigError("probability traces require a single plan point")
    ctx, count = _Context(config), config.ptrace_trajectories
    n = points[0].plan.steps
    sums, indices, taus = np.zeros((n, len(ctx.decomp))), np.full(n, -1), np.full(n, np.nan)
    with _single_blas_thread():
        for lo, hi in _blocks(count, ctx.state0.dim):
            for k, _, _, j, tau, p in _pure_steps(*ctx.block("arc", [(0, m) for m in range(lo, hi)])):
                sums[k] = np.concatenate([sums[k, None], p]).sum(axis=0)  # trajectory order: np.mean's bits
                if count == 1:
                    indices[k], taus[k] = j[0], tau[0]
    return PTraceTable(ctx.decomp.labels, np.arange(1, n + 1), sums / count, indices, taus, config)


def extrapolate_zero_dt(points: Sequence[tuple[float, float]]) -> float:
    """Zero-step-size fidelity: linear fit at the 3 smallest distinct dt, intercept in [0, 1]."""
    dts = sorted({p[0] for p in points})
    if len(dts) < 3:
        raise ValueError("extrapolation needs (dt, fidelity) points at 3 distinct dt")
    smallest = sorted(p for p in points if p[0] <= dts[2])
    x = np.array([p[0] for p in smallest])
    y = np.array([p[1] for p in smallest])
    slope, intercept = np.polyfit(x, y, 1)
    return float(min(max(intercept, 0.0), 1.0))
