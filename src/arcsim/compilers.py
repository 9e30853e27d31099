"""Evolution protocols as weight policies over one stepping loop.

Random steps sample a term index j from a probability vector p and apply
exp(-i H_j tau_j) with time slice tau_j = t / (N p_j); the channel average
then matches the exact step to first order in t/N for any valid p. The
protocols differ only in how each step's p is chosen: fixed Schatten-inf
weights ("rc"), equal weights ("equal"), or weights re-derived every step
from moment measurements on the current state ("arc", the adaptive random
compiler). First-order product stepping ("trotter1") runs the same loop
without sampling, and "exact" reads the reference trajectory itself.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .hamiltonians import Decomposition
from .linalg import (
    HermitianOperator,
    QuantumState,
    basis_coordinates,
    column_norms,
    evolve_unitary,
    fidelities,
    fidelity,
    rotate_coordinates,
)
from .moments import EXACT, NoiseModel, moment_block, norm_finite_difference, norms_from_moments
from .rng import TrajectoryStream, stream_draws, stream_key

PROTOCOL_NAMES = ("trotter1", "rc", "arc", "equal", "exact")
DETERMINISTIC_PROTOCOLS = frozenset({"trotter1", "exact"})

ZERO_WEIGHT_EPS = 1e-14
# Steps whose draws a block makes at once: enough to amortize the array
# work, few enough to keep the draw buffers small.
DRAW_CHUNK = 8


def _reject_non_finite(p: np.ndarray) -> None:
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector has non-finite entries")


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Nonnegative weights over term indices, renormalized to sum 1 on construction."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probability vector must be a nonempty 1-d array")
        lo = p.min()  # NaN if any entry is NaN
        if not lo >= -1e-12:
            _reject_non_finite(p)
            raise ValueError(f"negative probability {lo}")
        if lo <= 0.0:  # the clip also turns -0.0 into +0.0
            np.clip(p, 0.0, None, out=p)
        total = p.sum()
        if not total < math.inf:  # +inf entries pass the min check
            _reject_non_finite(p)
        if total <= 0:
            raise ValueError("probability vector sums to zero")
        p /= total
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return len(self.p)

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self.p)

    def sample(self, u: float) -> int:
        """Inverse-CDF sample over the term order for a uniform u in [0, 1)."""
        idx = int(np.searchsorted(self._cdf, u, side="right"))
        return min(idx, len(self.p) - 1)


@dataclass(frozen=True)
class StepPlan:
    """Total evolution time t split into N equal steps."""

    total_time: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("step count must be >= 1")
        if not self.total_time > 0:
            raise ValueError("total time must be positive")

    @property
    def dt(self) -> float:
        return self.total_time / self.steps


class TrajectoryRecord:
    """Per-step log of one protocol run plus the final state.

    For sampled protocols `indices[k]` is the term applied at step k,
    `taus[k]` its time slice, and `probabilities[k]` the full distribution in
    effect; deterministic protocols leave those fields None. `fidelities[k]`
    compares the post-step state with the exact evolution (NaN when the exact
    reference is mixed). `final_state` may be given as a function of no
    arguments that builds it; it is then called on the first read, so an
    ensemble that reads only fidelities builds no final states.
    """

    def __init__(
        self,
        protocol: str,
        plan: StepPlan,
        fidelities: np.ndarray,
        final_state: QuantumState | Callable[[], QuantumState],
        indices: np.ndarray | None = None,
        taus: np.ndarray | None = None,
        probabilities: np.ndarray | None = None,
    ):
        self.protocol = protocol
        self.plan = plan
        self.fidelities = fidelities
        self._final_state = final_state
        self.indices = indices
        self.taus = taus
        self.probabilities = probabilities

    @property
    def final_state(self) -> QuantumState:
        if not isinstance(self._final_state, QuantumState):
            self._final_state = self._final_state()
        return self._final_state

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelities[-1])


def _sqrt_weights(d: np.ndarray) -> np.ndarray:
    """Unnormalized optimal weights along the last axis: sqrt(d_j) above ZERO_WEIGHT_EPS, else 0.

    A row with no entry above ZERO_WEIGHT_EPS gets uniform weights.
    """
    active = d > ZERO_WEIGHT_EPS
    w = np.where(active, np.sqrt(np.clip(d, 0.0, None)), 0.0)
    w[~active.any(axis=-1)] = 1.0 / d.shape[-1]
    return w


def optimal_distribution(djj_values) -> ProbabilityDistribution:
    """Sampling weights p_j proportional to sqrt of each double-commutator norm.

    Entries at or below ZERO_WEIGHT_EPS get probability 0; if every entry is
    that small the distribution falls back to uniform.
    """
    d = np.asarray(djj_values, dtype=float)
    if np.any(d < 0):
        raise ValueError(f"negative weight input {d.min()}")
    return ProbabilityDistribution(_sqrt_weights(d))


def cost(djj_values, p) -> float:
    """Channel-mismatch cost sum_j d_j / p_j; infinite if some d_j > 0 gets p_j = 0."""
    d = np.asarray(djj_values, dtype=float)
    pv = p.p if isinstance(p, ProbabilityDistribution) else np.asarray(p, dtype=float)
    if d.shape != pv.shape:
        raise ValueError(f"length mismatch: {d.shape} vs {pv.shape}")
    total = 0.0
    for dj, pj in zip(d.tolist(), pv.tolist()):
        if dj > 0.0:
            if pj <= 0.0:
                return math.inf
            total += dj / pj
    return total


def _evolve(state: QuantumState, term: HermitianOperator, tau: float) -> QuantumState:
    if not state.is_pure:
        return evolve_unitary(state, term.eig, tau)
    coords = basis_coordinates(term, state.data.reshape(-1, 1))
    return QuantumState(rotate_coordinates(term, coords, np.array([tau]))[:, 0], state.structure)


def step_trotter1(state: QuantumState, decomposition: Decomposition, plan: StepPlan) -> QuantumState:
    """One first-order product step: terms applied in listed order, term 1 first."""
    for term in decomposition.terms:
        state = _evolve(state, term, plan.dt)
    return state


def step_random(
    state: QuantumState,
    decomposition: Decomposition,
    plan: StepPlan,
    p: ProbabilityDistribution,
    rng: np.random.Generator,
) -> tuple[QuantumState, int, float]:
    """Sample a term by inverse CDF and apply exp(-i H_j tau_j), tau_j = dt / p_j."""
    if len(p) != len(decomposition):
        raise ValueError("distribution length does not match term count")
    j = p.sample(rng.random())
    tau = plan.dt / p.p[j]
    return _evolve(state, decomposition.terms[j], tau), j, tau


def run_exact(state0: QuantumState, full_h: HermitianOperator, plan: StepPlan) -> list[QuantumState]:
    """Exact evolution, returning the state after each of the N steps."""
    states = []
    state = state0
    for _ in range(plan.steps):
        state = evolve_unitary(state, full_h.eig, plan.dt)
        states.append(state)
    return states


# A weight policy maps a (dim, M) block of pure states and the step's (M, L, 4)
# measurement noise (None when noise-free) to the (M, L) probabilities and,
# when it changed basis to measure, each term's basis_coordinates of the
# block for reuse.
WeightPolicy = Callable[
    [np.ndarray, np.ndarray | None], tuple[np.ndarray, list[np.ndarray] | None]
]


def _optimal_rows(djj: np.ndarray) -> np.ndarray:
    """optimal_distribution applied to each row of an (M, L) array of norms."""
    w = _sqrt_weights(djj)
    total = w.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(total)):
        raise ValueError("probability vector has non-finite entries")
    return w / total


def _fixed_weights(p: ProbabilityDistribution) -> WeightPolicy:
    return lambda block, noise: (np.broadcast_to(p.p, (block.shape[1], len(p))), None)


def _arc_weights(decomposition: Decomposition) -> WeightPolicy:
    """Measure every term's moments on every trajectory and take the optimal weights.

    The noise perturbs each trajectory's L x 4 moments, term-major, in the
    order NoiseModel.perturb would draw them one term at a time.
    """
    terms = decomposition.terms

    def weights(block, noise):
        coords = [basis_coordinates(h, block) for h in terms]
        raw = np.stack([moment_block(h, c).T for h, c in zip(terms, coords)], axis=1)
        if noise is not None:
            raw += noise
        return _optimal_rows(norms_from_moments(raw)), coords

    return weights


def _fixed_distribution(name: str, decomposition: Decomposition) -> ProbabilityDistribution | None:
    """The one distribution of "rc" or "equal"; None for the other protocols."""
    if name == "rc":
        norms = np.asarray(decomposition.inf_norms)
        if norms.sum() <= 0:
            raise ValueError("all decomposition terms have zero norm")
        return ProbabilityDistribution(norms)
    if name == "equal":
        size = len(decomposition)
        return ProbabilityDistribution(np.full(size, 1.0 / size))
    if name not in PROTOCOL_NAMES:
        raise ValueError(f"unknown protocol {name!r}; expected one of {PROTOCOL_NAMES}")
    return None


def _normalized(block: np.ndarray) -> np.ndarray:
    """A block's columns scaled to unit norm; a drift past 1e-8 is a numerical failure."""
    norms = column_norms(block)
    if not np.all(np.abs(norms - 1.0) <= 1e-8):
        raise np.linalg.LinAlgError(f"state norm drifted to {norms[np.argmax(np.abs(norms - 1.0))]}")
    return block / norms


def _apply_terms(terms, block: np.ndarray, indices: np.ndarray, taus: np.ndarray, coords):
    """Apply terms[indices[m]] for time taus[m] to column m, reusing coords where measured."""
    out = np.empty_like(block)
    for j, term in enumerate(terms):
        cols = np.flatnonzero(indices == j)
        if cols.size:
            c = coords[j][:, cols] if coords else basis_coordinates(term, block[:, cols])
            out[:, cols] = rotate_coordinates(term, c, taus[cols])
    return out


def _keys_of(streams) -> np.ndarray:
    """(M, 2) Philox keys of streams given as a key array, TrajectoryStreams or int seeds."""
    if isinstance(streams, np.ndarray):
        return streams
    keys = [s.key if isinstance(s, TrajectoryStream) else stream_key(int(s)) for s in streams]
    return np.array(keys, dtype=np.uint64)


def _step_fidelity(reference: QuantumState, state: QuantumState) -> float:
    return fidelity(reference, state) if reference.is_pure else math.nan


def _run_mixed(
    name: str, rho0: QuantumState, decomposition: Decomposition, plan: StepPlan, streams,
    noise: NoiseModel, exact_states: list[QuantumState], fixed: ProbabilityDistribution | None,
) -> TrajectoryRecord:
    """One density-matrix trajectory, stepped by step_trotter1 or step_random.

    Step k draws from its stream's step(k) generator: "arc" first the
    finite-difference estimator's noise, term by term, then the uniform.
    """
    n = plan.steps
    fids = np.empty(n)
    state = rho0
    if name == "trotter1":
        for k in range(n):
            state = step_trotter1(state, decomposition, plan)
            fids[k] = _step_fidelity(exact_states[k], state)
        return TrajectoryRecord(name, plan, fids, state)
    stream = TrajectoryStream(_keys_of(streams)[0])
    indices, taus, probs = np.empty(n, dtype=int), np.empty(n), np.empty((n, len(decomposition)))
    p = fixed
    for k in range(n):
        rng = stream.step(k)
        if name == "arc":
            p = optimal_distribution(
                [norm_finite_difference(h, state, noise=noise, rng=rng) for h in decomposition.terms]
            )
        state, indices[k], taus[k] = step_random(state, decomposition, plan, p, rng)
        probs[k] = p.p
        fids[k] = _step_fidelity(exact_states[k], state)
    return TrajectoryRecord(name, plan, fids, state, indices, taus, probs)


def run_block(
    name: str, state0: QuantumState, decomposition: Decomposition, plan, streams, *,
    noise: NoiseModel = EXACT,
    exact_states: list[QuantumState] | None = None,
) -> list[TrajectoryRecord]:
    """The stepping loop of every protocol: one trajectory per stream, stepped as one block.

    Streams are TrajectoryStreams, int seeds of trajectory_stream(seed), or
    an (M, 2) array of their keys. `plan` is one StepPlan for every stream, or a list of one per stream
    with bit-equal dt and non-increasing step counts; the block then steps
    only its still-running prefix. A pure state0 becomes a (dim, M) block
    with one column per stream. With a weight policy, step k asks the
    policy for p on the current block and samples each trajectory's term
    with its uniform. A block's draws (the uniforms and the arc policy's
    measurement noise) are made DRAW_CHUNK steps at a time by
    rng.stream_draws, bit-identical to what each stream's step(k) generator
    would draw. Without a policy, "trotter1" makes a product step. Every
    trajectory is scored against the exact state after each step. Record m
    is trajectory m. Its draws come from its own stream alone, but the last
    bits of its states depend on the block it runs in (the width of each
    product), so callers fix the blocks.

    "arc" measures the four moments <H_j^k> of every term on each
    trajectory's own current state, perturbs them by `noise` (additive
    Gaussian per scalar), converts them to double-commutator norms and
    samples from the optimal distribution. "exact" steps nothing: its
    records are read off the reference. A mixed state0 runs as one
    trajectory by step_trotter1 and step_random; its "arc" weights come from
    the finite-difference estimator at its default time offset.

    A single trajectory is `run_block(name, state0, decomposition, plan,
    [stream])[0]`.
    """
    fixed = _fixed_distribution(name, decomposition)
    size = len(streams)
    plans = [plan] * size if isinstance(plan, StepPlan) else list(plan)
    if len(plans) != size:
        raise ValueError(f"{len(plans)} plans for {size} streams")
    longest = plans[0]
    if any(q.dt != longest.dt or q.steps > prev.steps for prev, q in zip(plans, plans[1:])):
        raise ValueError("plans must share one dt and run longest first")
    if exact_states is None:
        exact_states = run_exact(state0, decomposition.total_operator, longest)
    elif len(exact_states) != longest.steps:
        raise ValueError(f"expected {longest.steps} exact states, got {len(exact_states)}")
    if not state0.is_pure and size != 1:
        raise ValueError("a mixed initial state runs as a one-trajectory block")
    if name == "exact":
        fids = np.array([_step_fidelity(s, s) for s in exact_states])
        return [TrajectoryRecord(name, q, fids[: q.steps], exact_states[q.steps - 1]) for q in plans]
    if not state0.is_pure:
        return [_run_mixed(name, state0, decomposition, longest, streams, noise, exact_states, fixed)]
    terms = decomposition.terms
    n, dt = longest.steps, longest.dt
    fids = np.full((n, size), math.nan)
    indices = taus = probs = None
    if name == "arc":
        weights = _arc_weights(decomposition)
    else:
        weights = None if fixed is None else _fixed_weights(fixed)
    if weights is not None:
        keys = _keys_of(streams)
        ends = np.array([q.steps for q in plans])
        indices = np.empty((n, size), dtype=int)
        taus = np.empty((n, size))
        probs = np.empty((n, size, len(terms)))
        noise_shape = (len(terms), 4) if name == "arc" and noise.std > 0.0 else None
    finals = [None] * size
    state = np.repeat(state0.data[:, None], size, axis=1)
    width = size  # trajectories 0..width-1 are still running
    for k, reference in enumerate(exact_states):
        if weights is not None:
            if k % DRAW_CHUNK == 0:
                chunk_noise, chunk_u = stream_draws(
                    keys[:width], k, np.minimum(ends[:width], k + DRAW_CHUNK), noise_shape, noise.std
                )
            c = k % DRAW_CHUNK
            p, coords = weights(state, None if chunk_noise is None else chunk_noise[:width, c])
            u = chunk_u[:width, c]
            j = np.minimum((np.cumsum(p, axis=1) <= u[:, None]).sum(axis=1), len(terms) - 1)
            indices[k, :width], taus[k, :width], probs[k, :width] = j, dt / p[np.arange(width), j], p
            out = _apply_terms(terms, state, j, taus[k, :width], coords)
            state = _normalized(out)
        else:
            first, dts = np.zeros(width, dtype=int), np.full(width, dt)
            for term in terms:
                out = _apply_terms([term], state, first, dts, None)
                state = _normalized(out)
        if reference.is_pure:
            fids[k, :width] = fidelities(reference.data, state)
        while width and plans[width - 1].steps == k + 1:
            width -= 1
            finals[width] = partial(QuantumState, out[:, width], state0.structure)
        state = state[:, :width]
    return [
        TrajectoryRecord(
            name, q, fids[: q.steps, m], finals[m],
            *(None if a is None else a[: q.steps, m] for a in (indices, taus, probs)),
        )
        for m, q in enumerate(plans)
    ]
