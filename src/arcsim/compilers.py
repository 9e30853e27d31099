"""Evolution protocols as weight policies over one stepping loop.

Random steps sample a term index j from a probability vector p and apply
exp(-i H_j tau_j) with time slice tau_j = t / (N p_j); the channel average
then matches the exact step to first order in t/N for any valid p. The
protocols differ only in how each step's p is chosen: fixed Schatten-inf
weights ("rc"), equal weights ("equal"), or weights re-derived every step
from moment measurements on the current state ("arc", the adaptive random
compiler). First-order product stepping ("trotter1") and the exact
reference ("exact") run the same loop without sampling.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hamiltonians import Decomposition
from .linalg import HermitianOperator, QuantumState, evolve_unitary, fidelity
from .moments import EXACT, NoiseModel, moments_of, norm_finite_difference, norm_from_moments
from .rng import TrajectoryStream, trajectory_stream

PROTOCOL_NAMES = ("trotter1", "rc", "arc", "equal", "exact")
DETERMINISTIC_PROTOCOLS = frozenset({"trotter1", "exact"})

ZERO_WEIGHT_EPS = 1e-14


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


@dataclass(eq=False)
class TrajectoryRecord:
    """Per-step log of one protocol run plus the final state.

    For sampled protocols `indices[k]` is the term applied at step k,
    `taus[k]` its time slice, and `probabilities[k]` the full distribution in
    effect; deterministic protocols leave those fields None. `fidelities[k]`
    compares the post-step state with the exact evolution (NaN when the exact
    reference is mixed).
    """

    protocol: str
    plan: StepPlan
    fidelities: np.ndarray
    final_state: QuantumState
    indices: np.ndarray | None = None
    taus: np.ndarray | None = None
    probabilities: np.ndarray | None = None

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelities[-1])


def optimal_distribution(
    djj_values, eps_zero: float = ZERO_WEIGHT_EPS, floor: float = 0.0
) -> ProbabilityDistribution:
    """Sampling weights p_j proportional to sqrt of each double-commutator norm.

    Entries at or below eps_zero get probability 0; if every entry is that
    small the distribution falls back to uniform. The optional floor lifts
    every entry to at least that probability; it defaults off because
    flooring without compensation breaks first-order channel matching.
    """
    d = np.asarray(djj_values, dtype=float)
    if np.any(d < 0):
        raise ValueError(f"negative weight input {d.min()}")
    if not 0.0 <= floor < 1.0 / d.size:
        raise ValueError(f"floor must be in [0, 1/{d.size})")
    active = d > eps_zero
    if not np.any(active):
        return ProbabilityDistribution(np.full(d.size, 1.0 / d.size))
    w = np.where(active, np.sqrt(np.clip(d, 0.0, None)), 0.0)
    p = ProbabilityDistribution(w)
    if floor > 0.0:
        # linear shrink keeps the sum at 1 with every entry >= floor
        p = ProbabilityDistribution((1.0 - d.size * floor) * p.p + floor)
    return p


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


def step_trotter1(state: QuantumState, decomposition: Decomposition, plan: StepPlan) -> QuantumState:
    """One first-order product step: terms applied in listed order, term 1 first."""
    for term in decomposition.terms:
        state = evolve_unitary(state, term.eig, plan.dt)
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
    return evolve_unitary(state, decomposition.terms[j].eig, tau), j, tau


def run_exact(state0: QuantumState, full_h: HermitianOperator, plan: StepPlan) -> list[QuantumState]:
    """Exact evolution, returning the state after each of the N steps."""
    states = []
    state = state0
    for _ in range(plan.steps):
        state = evolve_unitary(state, full_h.eig, plan.dt)
        states.append(state)
    return states


def _run(
    protocol: str,
    state0: QuantumState,
    decomposition: Decomposition,
    plan: StepPlan,
    exact_states: list[QuantumState] | None,
    weights: Callable[[QuantumState, np.random.Generator], ProbabilityDistribution] | None = None,
    stream=0,
) -> TrajectoryRecord:
    """The stepping loop of every protocol, scored against the exact state after each step.

    With a weight policy, step k takes its generator from the stream, asks the
    policy for p on the current state, and makes a random step with the same
    generator. Without one, "trotter1" makes a product step and "exact" reads
    the reference state.
    """
    if exact_states is None:
        exact_states = run_exact(state0, decomposition.total_operator, plan)
    elif len(exact_states) != plan.steps:
        raise ValueError(f"expected {plan.steps} exact states, got {len(exact_states)}")
    n = plan.steps
    fids = np.empty(n)
    indices = taus = probs = None
    if weights is not None:
        if not isinstance(stream, TrajectoryStream):
            stream = trajectory_stream(int(stream))
        indices = np.empty(n, dtype=int)
        taus = np.empty(n)
        probs = np.empty((n, len(decomposition)))
    state = state0
    for k, reference in enumerate(exact_states):
        if weights is not None:
            rng = stream.step(k)
            p = weights(state, rng)
            state, indices[k], taus[k] = step_random(state, decomposition, plan, p, rng)
            probs[k] = p.p
        elif protocol == "trotter1":
            state = step_trotter1(state, decomposition, plan)
        else:
            state = reference
        fids[k] = fidelity(reference, state) if reference.is_pure else math.nan
    return TrajectoryRecord(protocol, plan, fids, state, indices, taus, probs)


def run_trotter1(
    state0: QuantumState, decomposition: Decomposition, plan: StepPlan, *,
    exact_states: list[QuantumState] | None = None,
) -> TrajectoryRecord:
    """First-order product formula for N steps."""
    return _run("trotter1", state0, decomposition, plan, exact_states)


def run_rc(
    state0: QuantumState, decomposition: Decomposition, plan: StepPlan, *,
    stream=0,
    exact_states: list[QuantumState] | None = None,
) -> TrajectoryRecord:
    """Random compilation with fixed weights p_j = ||H_j||_inf / lambda."""
    norms = np.asarray(decomposition.inf_norms)
    if norms.sum() <= 0:
        raise ValueError("all decomposition terms have zero norm")
    p = ProbabilityDistribution(norms)
    return _run("rc", state0, decomposition, plan, exact_states, lambda state, rng: p, stream)


def run_equal_weight(
    state0: QuantumState, decomposition: Decomposition, plan: StepPlan, *,
    stream=0,
    exact_states: list[QuantumState] | None = None,
) -> TrajectoryRecord:
    """Random compilation sampling every term with probability 1/L."""
    p = ProbabilityDistribution(np.full(len(decomposition), 1.0 / len(decomposition)))
    return _run("equal", state0, decomposition, plan, exact_states, lambda state, rng: p, stream)


def run_arc(
    state0: QuantumState, decomposition: Decomposition, plan: StepPlan, *,
    noise: NoiseModel = EXACT,
    stream=0,
    exact_states: list[QuantumState] | None = None,
) -> TrajectoryRecord:
    """Adaptive random compilation: re-derive the sampling weights every step.

    Each step measures the four moments of every term on the trajectory's own
    current state (perturbed per the noise model), converts them to
    double-commutator norms, and samples from the optimal distribution. Mixed
    states take the finite-difference estimator at its default time offset.
    """

    def weights(state: QuantumState, rng: np.random.Generator) -> ProbabilityDistribution:
        if state.is_pure:
            dcn = [norm_from_moments(moments_of(h, state, noise, rng)) for h in decomposition.terms]
        else:
            dcn = [
                norm_finite_difference(h, state, noise=noise, rng=rng) for h in decomposition.terms
            ]
        return optimal_distribution(dcn)

    return _run("arc", state0, decomposition, plan, exact_states, weights, stream)


def run_protocol(
    name: str, state0: QuantumState, decomposition: Decomposition, plan: StepPlan, *,
    noise: NoiseModel = EXACT,
    stream=0,
    exact_states: list[QuantumState] | None = None,
) -> TrajectoryRecord:
    """Dispatch a protocol by name: trotter1 | rc | arc | equal | exact."""
    sampled = {"stream": stream, "exact_states": exact_states}
    if name == "arc":
        return run_arc(state0, decomposition, plan, noise=noise, **sampled)
    if name == "rc":
        return run_rc(state0, decomposition, plan, **sampled)
    if name == "equal":
        return run_equal_weight(state0, decomposition, plan, **sampled)
    if name == "trotter1":
        return run_trotter1(state0, decomposition, plan, exact_states=exact_states)
    if name == "exact":
        return _run(name, state0, decomposition, plan, exact_states)
    raise ValueError(f"unknown protocol {name!r}; expected one of {PROTOCOL_NAMES}")
