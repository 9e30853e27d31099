"""Evolution protocols as weight policies over one stepping loop.

Random steps sample a term index j from a probability vector p and apply
exp(-i H_j tau_j) with time slice tau_j = t / (N p_j); the channel average
then matches the exact step to first order in t/N for any valid p. The
protocols differ only in how each step's p is chosen: fixed Schatten-inf
weights ("rc"), equal weights ("equal"), or weights re-derived every step
from moment measurements on the current state ("arc", the adaptive random
compiler). First-order product stepping ("trotter1") runs the same loop
without sampling, and "exact" reads the reference trajectory itself.

In "rc", "equal" and "trotter1" every term's time slice is fixed for the
whole run, so each term's step exp(-i H_j tau_j) is built once per block;
"arc" measures one product of power rows per term and reuses the basis
change for its step. The exact reference is closed-form, not stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonians import Decomposition
from .linalg import (
    HermitianOperator, QuantumState, basis_coordinates, column_norms, fidelities, rotate_coordinates,
)
from .moments import EXACT, NoiseModel, moments_of_weights, norms_from_moments, power_rows, squared_moduli

PROTOCOL_NAMES = ("trotter1", "rc", "arc", "equal", "exact")
DETERMINISTIC_PROTOCOLS = frozenset({"trotter1", "exact"})

# (trajectory, step) pairs a block draws per rng.stream_draws call, max(1, pairs // width)
# steps at a time: enough to amortize the array work, with buffers that stay small at any
# width. Noisy "arc" takes some 20 Philox words per pair, so it draws a quarter as many.
# Drawing 3,072 noisy pairs too cut a noisy 10-point MFIM sweep's draw time from 34-38 to
# 25-27 ms with the same bytes, but raised a `run` command's own peak RSS by 1.7 MB.
DRAW_PAIRS, NOISY_DRAW_PAIRS = 3072, 768
# Exact states per closed-form product. A fixed width keeps each state's last
# bits independent of the step count, so plan points that share dt can share
# one reference.
EXACT_CHUNK = 16


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


class TrajectoryRecord(NamedTuple):
    """Per-step log of one protocol run plus the final state.

    For sampled protocols `indices[k]` is the term applied at step k,
    `taus[k]` its time slice, and `probabilities[k]` the full distribution in
    effect; deterministic protocols leave those fields None. `fidelities[k]`
    compares the post-step pure state with the exact evolution.
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


def _sqrt_weights(d: np.ndarray) -> np.ndarray:
    """Unnormalized optimal weights along the last axis: sqrt(d_j) where d_j > 0, else 0.

    A row with no positive entry gets uniform weights.
    """
    active = d > 0.0
    w = np.sqrt(np.where(active, d, 0.0))
    w[~active.any(axis=-1)] = 1.0 / d.shape[-1]
    return w


def optimal_distribution(djj_values) -> ProbabilityDistribution:
    """Sampling weights p_j proportional to sqrt of each double-commutator norm.

    Zero entries get probability 0, and all-zero input gives uniform weights,
    so p does not change when every d_j is scaled by the same positive factor.
    """
    d = np.asarray(djj_values, dtype=float)
    if not np.all(d >= 0):  # also rejects NaN, which would otherwise get weight 0
        raise ValueError(f"weight inputs must be nonnegative numbers, got {d}")
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


def run_exact(state0: QuantumState, full_h: HermitianOperator, plan: StepPlan) -> np.ndarray:
    """Exact evolution of a pure state: row k of the (N, dim) array is the state after step k + 1.

    Row k is V (exp(-i e (k + 1) dt) * V^dag psi0) in closed form, with no
    stepping: V^dag psi0 is computed once, and the rows EXACT_CHUNK steps per
    product so that their last bits do not depend on N, then normalized. A
    density matrix raises ValueError.
    """
    if full_h.dim != state0.dim:
        raise ValueError(f"dimension mismatch: operator {full_h.dim}, state {state0.dim}")
    coords = basis_coordinates(full_h, state0.ket()[:, None])
    times = np.arange(1, -(-plan.steps // EXACT_CHUNK) * EXACT_CHUNK + 1) * plan.dt
    states = np.empty((state0.dim, plan.steps), complex, order="F")  # each state contiguous
    for first in range(0, plan.steps, EXACT_CHUNK):  # one chunk at a time, so no second copy
        block = rotate_coordinates(full_h, coords, times[first : first + EXACT_CHUNK])
        states[:, first : first + EXACT_CHUNK] = block[:, : plan.steps - first]
    return _normalized(states).T


def _sample(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF term index of each (M, L) probability row for its uniform in [0, 1).

    Index j is the count of the row's CDF entries at or below u, capped at
    L - 1, which is searchsorted(cdf, u, side="right") on a non-decreasing CDF.
    """
    return np.minimum((np.cumsum(p, axis=1) <= u[:, None]).sum(axis=1), p.shape[1] - 1)


def _optimal_rows(djj: np.ndarray) -> np.ndarray:
    """optimal_distribution applied to each row of an (M, L) array of norms."""
    w = _sqrt_weights(djj)
    total = w.sum(axis=1, keepdims=True)
    _reject_non_finite(total)
    return w / total


def _arc_weights(terms, powers, block: np.ndarray, noise: np.ndarray | None):
    """(M, L) optimal weights from every term's moments on every trajectory, and the coordinates.

    Each term's moments are one product with its power_rows; the diagonal
    terms, whose coordinates are the block itself, share its squared moduli.
    The (M, L, 4) noise (None when noise-free) perturbs each trajectory's
    moments, term-major, in the order NoiseModel.perturb would draw them one
    term at a time.
    """
    coords = [basis_coordinates(h, block) for h in terms]
    shared = squared_moduli(block)
    raw = np.stack([
        moments_of_weights(rows, shared if c is block else squared_moduli(c)).T
        for rows, c in zip(powers, coords)
    ], axis=1)
    if noise is not None:
        raw += noise
    return _optimal_rows(norms_from_moments(raw)), coords


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


def _fixed_step(h: HermitianOperator, tau: float) -> np.ndarray:
    """exp(-i h tau) for a whole run: U = V diag(exp(-i e tau)) V^dag, or a diagonal h's phases."""
    vectors = h.eig[1]
    if vectors is None:
        return rotate_coordinates(h, np.ones((h.dim, 1)), np.array([tau]))[:, 0]
    return rotate_coordinates(h, vectors.conj().T, np.full(h.dim, tau))


def _apply_step(step: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A _fixed_step applied to every column of a block (not renormalized)."""
    return step[:, None] * block if step.ndim == 1 else step @ block


def _keys_of(streams) -> np.ndarray:
    """(M, 2) Philox keys of streams given as a key array, TrajectoryStreams or int seeds."""
    from .rng import TrajectoryStream, stream_key

    if isinstance(streams, np.ndarray):
        return streams
    keys = [s.key if isinstance(s, TrajectoryStream) else stream_key(int(s)) for s in streams]
    return np.array(keys, dtype=np.uint64)


def _self_fidelities(states) -> np.ndarray:
    """Each exact state scored against itself, as the "exact" protocol's fidelities."""
    return np.array([fidelities(s, s[:, None])[0] for s in states])


def run_block(
    name: str, state0: QuantumState, decomposition: Decomposition, plan, streams, *,
    noise: NoiseModel = EXACT,
    exact_states: np.ndarray | None = None,
) -> list[TrajectoryRecord]:
    """Every protocol's run: one trajectory per stream, stepped as one block by _pure_steps.

    Streams are TrajectoryStreams, int seeds of trajectory_stream(seed), or
    an (M, 2) array of their keys. `plan` is one StepPlan for every stream,
    or one per stream with bit-equal dt and non-increasing step counts; the
    block then steps only its still-running prefix. A pure state0 becomes a
    (dim, M) block. Step k takes p ("arc" measures it on the current block,
    "rc" and "equal" fix it) and samples each trajectory's term with its
    uniform. The draws (uniforms and arc measurement noise) come from
    rng.stream_draws, DRAW_PAIRS (noisy: NOISY_DRAW_PAIRS) trajectory-steps
    per call, bit-identical to each stream's step(k) generator. Fixed time
    slices apply each term's _fixed_step, built once per call; "trotter1"
    applies every term in order. Every trajectory is scored against the
    exact state after each step. Record m is trajectory m: its draws come
    from its own stream alone, but the last bits of its states depend on
    the width of the block's products, so callers fix the blocks.

    "arc" measures the four moments <H_j^k> of every term on each
    trajectory's own current state, perturbs them by `noise` (additive
    Gaussian per scalar), converts them to double-commutator norms and
    samples from the optimal distribution. "exact" steps nothing: its
    records are read off the reference. `exact_states` is that reference,
    run_exact's (N, dim) array for the longest plan. A density matrix
    state0 raises ValueError: the engine steps pure states only.

    A single trajectory is `run_block(name, state0, decomposition, plan,
    [stream])[0]`.
    """
    size = len(streams)
    if not size:
        raise ValueError("run_block needs at least one stream")
    plans = [plan] * size if isinstance(plan, StepPlan) else list(plan)
    if len(plans) != size:
        raise ValueError(f"{len(plans)} plans for {size} streams")
    longest = plans[0]
    if any(q.dt != longest.dt or q.steps > prev.steps for prev, q in zip(plans, plans[1:])):
        raise ValueError("plans must share one dt and run longest first")
    state0.ket()  # a density matrix raises here
    if exact_states is None:
        exact_states = run_exact(state0, decomposition.total_operator, longest)
    elif np.shape(exact_states) != (longest.steps, state0.dim):
        raise ValueError(
            f"expected {longest.steps} exact states of dimension {state0.dim} as rows, "
            f"got shape {np.shape(exact_states)}"
        )
    if name == "exact":
        fids = _self_fidelities(exact_states)
        finals = [QuantumState(exact_states[q.steps - 1]) for q in plans]
        return [TrajectoryRecord(name, q, fids[: q.steps], f) for q, f in zip(plans, finals)]
    n = longest.steps
    fids = np.empty((n, size))
    finals = np.empty((state0.dim, size), complex)
    history = [] if name == "trotter1" else [  # indices, taus and probabilities
        np.empty((n, size), int), np.empty((n, size)), np.empty((n, size, len(decomposition)))
    ]
    for k, state, out, *step in _pure_steps(name, state0, decomposition, plans, streams, noise):
        width = state.shape[1]
        fids[k, :width] = fidelities(exact_states[k], state)
        finals[:, :width] = out  # a trajectory's last write is its final state
        for a, v in zip(history, step):
            a[k, :width] = v
    return [
        TrajectoryRecord(
            name, q, fids[: q.steps, m], QuantumState(finals[:, m]),
            *(a[: q.steps, m] for a in history),
        )
        for m, q in enumerate(plans)
    ]


def _final_fidelities(name, state0, decomposition, plans, keys, noise, exact_states) -> np.ndarray:
    """Each record's final_fidelity of run_block, bit for bit, keeping no history.

    The whole running block is scored as run_block scores it, but only after
    steps where a trajectory ends, so the bits agree.
    """
    if name == "exact":
        return _self_fidelities(exact_states[q.steps - 1] for q in plans)
    fids = np.empty(len(plans))
    ends = {q.steps for q in plans}
    for k, state, *_ in _pure_steps(name, state0, decomposition, plans, keys, noise):
        if k + 1 in ends:
            fids[: state.shape[1]] = fidelities(exact_states[k], state)
    return fids


def _pure_steps(name, state0, decomposition, plans, streams, noise):
    """The stepping loop on a pure state0 and plans run_block accepts: (k, state, out, j, tau, p) per step.

    After step k, `state` is the normalized (dim, w) block of the w
    trajectories still running, `out` its columns before normalization, and
    j, tau and p each column's term, time slice and (w, L) weights (None
    for "trotter1"). The trajectories that end at step k leave the block
    after the yield.
    """
    from .rng import stream_draws

    fixed = _fixed_distribution(name, decomposition)
    terms, size = decomposition.terms, len(plans)
    n, dt = plans[0].steps, plans[0].dt
    if name == "arc":
        powers = [power_rows(h) for h in terms]
    else:  # every term's time slice is fixed for the run: dt / p_j, or dt for trotter1
        slices = [dt] * len(terms) if fixed is None else [dt / pj if pj > 0 else None for pj in fixed.p]
        steps = [None if tau is None else _fixed_step(h, tau) for h, tau in zip(terms, slices)]
    if name != "trotter1":
        keys = _keys_of(streams)
        ends = np.array([q.steps for q in plans])
        noise_shape = (len(terms), 4) if name == "arc" and noise.std > 0.0 else None
        budget = DRAW_PAIRS if noise_shape is None else NOISY_DRAW_PAIRS
        first = drawn = 0  # the draws in hand cover steps first..drawn-1
    state = np.repeat(state0.data[:, None], size, axis=1)
    width = size  # trajectories 0..width-1 are still running
    for k in range(n):
        if name == "trotter1":
            for step in steps:
                out = _apply_step(step, state)
                state = _normalized(out)
            j = tau = p = None
        else:
            if k == drawn:
                first, drawn = k, k + max(1, budget // width)
                chunk_noise, chunk_u = stream_draws(
                    keys[:width], k, np.minimum(ends[:width], drawn), noise_shape, noise.std
                )
                if name != "arc":  # the chunk's samples from the one CDF
                    chunk_j = _sample(fixed.p[None], chunk_u.ravel()).reshape(chunk_u.shape)
            c = k - first
            if name == "arc":
                step_noise = None if chunk_noise is None else chunk_noise[:width, c]
                p, coords = _arc_weights(terms, powers, state, step_noise)
                j = _sample(p, chunk_u[:width, c])
            else:
                p, j = np.broadcast_to(fixed.p, (width, len(terms))), chunk_j[:width, c]
            tau = dt / p[np.arange(width), j]
            out = np.empty_like(state)
            for term in range(len(terms)):
                cols = np.flatnonzero(j == term)
                if not cols.size:
                    continue
                if name == "arc":
                    out[:, cols] = rotate_coordinates(terms[term], coords[term][:, cols], tau[cols])
                else:
                    out[:, cols] = _apply_step(steps[term], state[:, cols])
            state = _normalized(out)
        yield k, state, out, j, tau, p
        while width and plans[width - 1].steps == k + 1:
            width -= 1
        state = state[:, :width]
