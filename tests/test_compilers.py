import math
import re

import numpy as np
import pytest

from arcsim import compilers
from arcsim.compilers import (
    DETERMINISTIC_PROTOCOLS,
    PROTOCOL_NAMES,
    ProbabilityDistribution,
    StepPlan,
    TrajectoryRecord,
    cost,
    optimal_distribution,
    run_block,
    run_exact,
)
from arcsim.hamiltonians import PAULI, Decomposition, basis_state, build_kerr, build_mfim, build_rabi
from arcsim.linalg import (
    HermitianOperator,
    QuantumState,
    _eigensystem,
    basis_coordinates,
    fidelities,
    kron,
    mixed_state,
    pure_state,
    rotate_coordinates,
)
from arcsim.moments import (
    EXACT,
    NoiseModel,
    moment_block,
    norms_from_moments,
)
from arcsim.rng import TrajectoryStream, trajectory_stream
from arcsim.selftest import check_channel_matching, check_optimal_distribution, random_hermitian, random_pure


def sample(p: ProbabilityDistribution, u: float) -> int:
    """The term index that the steppers' inverse-CDF rule gives one uniform."""
    return int(compilers._sample(p.p[None], np.array([u]))[0])


def evolve_unitary(state, h, tau):
    """exp(-i h tau) on a pure state, stepped as a one-column block through the engine's kernels."""
    coords = basis_coordinates(h, state.data.reshape(-1, 1))
    return QuantumState(rotate_coordinates(h, coords, np.array([tau]))[:, 0])


def step_trotter1(state, decomposition, plan):
    """One first-order product step on a pure state: terms applied in listed order, term 1 first."""
    for term in decomposition.terms:
        state = evolve_unitary(state, term, plan.dt)
    return state


class TestProbabilityDistribution:
    def test_renormalizes(self):
        p = ProbabilityDistribution(np.array([2.0, 2.0]))
        assert np.allclose(p.p, [0.5, 0.5])
        assert p.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(np.array([0.5, -0.5]))

    def test_inverse_cdf_sampling(self):
        p = ProbabilityDistribution(np.array([0.25, 0.5, 0.25]))
        assert sample(p, 0.0) == 0
        assert sample(p, 0.24) == 0
        assert sample(p, 0.25) == 1
        assert sample(p, 0.74) == 1
        assert sample(p, 0.75) == 2
        assert sample(p, 0.999999) == 2

    def test_zero_weight_never_sampled(self):
        p = ProbabilityDistribution(np.array([0.5, 0.0, 0.5]))
        rng = np.random.default_rng(0)
        samples = {sample(p, rng.random()) for _ in range(500)}
        assert 1 not in samples


def reference_distribution(values) -> np.ndarray:
    """ProbabilityDistribution's validation and normalization in their plain form."""
    p = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be a nonempty 1-d array")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector has non-finite entries")
    if np.any(p < -1e-12):
        raise ValueError(f"negative probability {p.min()}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0:
        raise ValueError("probability vector sums to zero")
    return p / total


def reference_cost(d, pv) -> float:
    total = 0.0
    for dj, pj in zip(np.asarray(d, dtype=float), np.asarray(pv, dtype=float)):
        if dj > 0.0:
            if pj <= 0.0:
                return math.inf
            total += dj / pj
    return total


def distribution_inputs(rng):
    for _ in range(400):
        v = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 17)))
        mask = rng.random(v.size)
        v[mask < 0.2] = 0.0
        v[(mask >= 0.2) & (mask < 0.3)] = -0.0
        v[(mask >= 0.3) & (mask < 0.4)] *= -1e-12
        yield v
    yield from (
        np.array([1.0, np.nan]),
        np.array([np.inf, 0.5]),
        np.array([-np.inf, 0.5]),
        np.array([np.inf, -0.5]),
        np.array([0.5, -1e-9]),
        np.array([0.0, -0.0]),
        np.array([-1e-13]),
        np.array([1e308, 1e308]),
        np.zeros((2, 2)),
        np.array([]),
    )


class TestDistributionReference:
    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(12)
        with np.errstate(over="ignore"):  # the [1e308, 1e308] input overflows its sum
            self._compare_all(rng)

    def _compare_all(self, rng):
        for v in distribution_inputs(rng):
            try:
                expected = reference_distribution(v)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    ProbabilityDistribution(v)
                assert str(got.value) == str(exc)
                continue
            q = ProbabilityDistribution(v)
            assert q.p.tobytes() == expected.tobytes()
            d = rng.uniform(0.0, 5.0, size=v.size)
            d[rng.random(v.size) < 0.2] = 0.0
            for pv in (q, expected, v):
                want = reference_cost(d, pv.p if pv is q else pv)
                assert np.float64(cost(d, pv)).tobytes() == np.float64(want).tobytes()

    def test_caller_array_not_aliased(self):
        v = np.array([1.0, 3.0])
        q = ProbabilityDistribution(v)
        assert v.tolist() == [1.0, 3.0]
        assert not q.p.flags.writeable


class TestOptimalDistribution:
    def test_four_to_one(self):
        p = optimal_distribution([4.0, 1.0])
        assert np.allclose(p.p, [2 / 3, 1 / 3])

    def test_symmetry(self):
        for c in (0.3, 1.0, 7.0):
            p = optimal_distribution([c, c, c])
            assert np.allclose(p.p, 1 / 3)

    def test_all_zero_gives_uniform(self):
        p = optimal_distribution([0.0, 0.0, 0.0])
        assert np.allclose(p.p, 1 / 3)

    def test_partial_zero_stays_zero(self):
        p = optimal_distribution([4.0, 0.0, 1.0])
        assert p.p[1] == 0.0
        assert np.allclose(p.p, [2 / 3, 0.0, 1 / 3])

    def test_rejects_negative(self):
        for bad in ([1.0, -0.1], [math.nan, 1.0]):
            with pytest.raises(ValueError):
                optimal_distribution(bad)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.1, 3.0, size=4)
        base = optimal_distribution(d)
        scaled = optimal_distribution(17.3 * d)
        assert np.allclose(base.p, scaled.p)

    def test_lagrange_optimality_monte_carlo(self):
        optimal, violations = check_optimal_distribution(np.random.default_rng(2), count=30, rivals=200)
        assert optimal, violations


class TestCost:
    def test_uniform(self):
        assert cost([1.0, 1.0], ProbabilityDistribution(np.array([0.5, 0.5]))) == pytest.approx(4.0)

    def test_optimal_value(self):
        assert cost([4.0, 1.0], ProbabilityDistribution(np.array([2 / 3, 1 / 3]))) == pytest.approx(9.0)

    def test_suboptimal_value(self):
        assert cost([4.0, 1.0], ProbabilityDistribution(np.array([0.5, 0.5]))) == pytest.approx(10.0)

    def test_infinite_cost_signal(self):
        assert cost([1.0, 1.0], np.array([1.0, 0.0])) == math.inf


class TestStepPlan:
    def test_dt(self):
        assert StepPlan(1.0, 50).dt == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepPlan(1.0, 0)
        with pytest.raises(ValueError):
            StepPlan(0.0, 5)


class TestExactOnDiagonalTotals:
    """An exactly diagonal total takes the block kernels' no-basis-change shortcut."""

    @pytest.mark.parametrize(
        "build, args, ket",
        [
            (build_mfim, (4, 1.0, 0.0, 0.3), "(|0011⟩+|0101⟩)/√2"),
            (build_kerr, (0.3, 1.0, 0.0, 50), "(|1⟩+|5⟩)/√2"),
            (build_rabi, (1.0, 1.0, 0.0, 50), "(|2,0⟩+|5,0⟩)/√2"),
        ],
    )
    def test_matches_stepping_with_the_full_eigensystem(self, build, args, ket):
        dec, st = build(*args)
        h = dec.total_operator
        assert h.eig[1] is None
        plan = StepPlan(1.0, 50)
        psi0 = basis_state(ket, st)
        # the closed form: state k is exp(-i d k dt) * psi0 on the diagonal d
        angle = h.eig[0][:, None] * (np.arange(1, plan.steps + 1) * plan.dt)
        closed = (np.cos(angle) - 1j * np.sin(angle)) * psi0.data[:, None]
        # the stepped reference: V (exp(-i e dt) * V^dag psi) from the eigendecomposition, every step
        e, v = _eigensystem(h.matrix)
        state = psi0
        for k, got in enumerate(run_exact(psi0, h, plan)):
            assert np.array_equal(got, QuantumState(closed[:, k]).data)
            column = v.conj().T @ state.data.reshape(-1, 1)
            state = QuantumState((v @ (np.exp(-1j * e[:, None] * np.array([plan.dt])) * column))[:, 0])
            assert np.allclose(got, state.data, rtol=1e-12, atol=0)


def test_run_exact_changes_basis_once(monkeypatch):
    from arcsim import linalg

    dec, st = build_rabi(1.0, 1.0, 0.2, 20)
    psi0, h, calls = basis_state("(|2,0⟩+|5,0⟩)/√2", st), dec.total_operator, []

    def counted(op, block):
        calls.append(block.shape)
        return basis_coordinates(op, block)

    monkeypatch.setattr(linalg, "basis_coordinates", counted)
    monkeypatch.setattr(compilers, "basis_coordinates", counted)
    states = run_exact(psi0, h, StepPlan(1.0, 50))  # four EXACT_CHUNK products
    assert calls == [(h.dim, 1)]
    coords = h.eig[1].conj().T @ psi0.data[:, None]
    for k in (0, 17, 49):
        want = rotate_coordinates(h, coords, np.array([(k + 1) * 0.02]))[:, 0]
        assert np.allclose(states[k], want / np.linalg.norm(want), rtol=0, atol=1e-13)


class TestTrotterStep:
    def test_exact_for_commuting_terms(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 4)
        _, v = h.eig
        d1 = HermitianOperator((v * [1.0, 0.5, -0.3, 0.2]) @ v.conj().T)
        d2 = HermitianOperator((v * [0.4, -0.1, 0.8, 1.1]) @ v.conj().T)
        dec = Decomposition((d1, d2))
        psi = random_pure(rng, 4)
        plan = StepPlan(0.7, 1)
        (rec,) = run_block("trotter1", psi, dec, plan, [0])
        exact = run_exact(psi, dec.total_operator, plan)[-1]
        assert np.max(np.abs(rec.final_state.data - exact)) <= 1e-10

    def test_exact_for_single_term(self):
        rng = np.random.default_rng(4)
        dec = Decomposition((random_hermitian(rng, 4),))
        psi = random_pure(rng, 4)
        (rec,) = run_block("trotter1", psi, dec, StepPlan(0.5, 1), [0])
        assert rec.final_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_mfim_single_step_error(self):
        dec, st = build_mfim(4, 1.0, 0.5, 0.3)
        psi = basis_state("0011", st)
        f = run_block("trotter1", psi, dec, StepPlan(0.02, 1), [0])[0].final_fidelity
        assert f >= 1 - 1e-4
        assert f == pytest.approx(0.999999985574562, rel=1e-9)  # regression


class TestStepRandom:
    def test_single_term_deterministic(self):
        rng_h = np.random.default_rng(5)
        dec = Decomposition((random_hermitian(rng_h, 3),))
        psi = random_pure(rng_h, 3)
        plan = StepPlan(0.4, 4)
        for name in ("rc", "equal", "arc"):
            (rec,) = run_block(name, psi, dec, plan, [trajectory_stream(0)])
            assert rec.indices.tolist() == [0] * plan.steps
            assert rec.taus == pytest.approx(plan.dt)

    def test_seeded_replay(self):
        dec, st = build_mfim(4, 1.0, 0.5, 0.3)
        psi = basis_state("0011", st)
        (rec,) = run_block("rc", psi, dec, StepPlan(1.0, 12), [trajectory_stream(42, 1, 0, 0)])
        assert rec.indices.tolist() == [1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 2]
        assert rec.final_fidelity == pytest.approx(0.9384235770461044, rel=1e-9)


class TestRunners:
    def setup_method(self):
        self.dec, self.st = build_mfim(4, 1.0, 0.5, 0.3)
        self.psi = basis_state("0011", self.st)
        self.plan = StepPlan(0.4, 8)

    def test_record_shapes_and_tau_consistency(self):
        for name in ("rc", "equal"):
            (rec,) = run_block(name, self.psi, self.dec, self.plan, [trajectory_stream(9)])
            assert len(rec.fidelities) == self.plan.steps
            for k in range(self.plan.steps):
                p_used = rec.probabilities[k, rec.indices[k]]
                assert rec.taus[k] == pytest.approx(self.plan.dt / p_used, rel=1e-12)

    def test_rc_weights(self):
        (rec,) = run_block("rc", self.psi, self.dec, self.plan, [trajectory_stream(9)])
        expect = np.array(self.dec.inf_norms) / self.dec.lam
        assert np.allclose(rec.probabilities, expect[None, :])

    def test_equal_weights(self):
        (rec,) = run_block("equal", self.psi, self.dec, self.plan, [trajectory_stream(9)])
        assert np.allclose(rec.probabilities, 1 / 3)

    def test_rc_zero_norm_term_gets_zero_probability(self):
        dec, st = build_mfim(3, 1.0, 0.5, 0.0)  # h_z = 0 zeroes the third term
        psi = basis_state("011", st)
        (rec,) = run_block("rc", psi, dec, StepPlan(0.2, 5), [trajectory_stream(2)])
        assert np.all(rec.probabilities[:, 2] == 0.0)
        assert 2 not in set(rec.indices.tolist())

    def test_rc_all_zero_rejected(self):
        zero = HermitianOperator(np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            psi = pure_state(np.array([1, 0], dtype=complex))
            run_block("rc", psi, Decomposition((zero,)), StepPlan(1.0, 2), [0])

    def test_arc_single_term_is_exact(self):
        rng = np.random.default_rng(6)
        dec = Decomposition((random_hermitian(rng, 4),))
        psi = random_pure(rng, 4)
        (rec,) = run_block("arc", psi, dec, StepPlan(0.8, 6), [trajectory_stream(3)])
        assert np.allclose(rec.fidelities, 1.0, atol=1e-10)

    def test_arc_skips_eigenstate_term(self):
        # commuting terms, state an eigenstate of the first: its weight clamps to 0
        t1 = HermitianOperator(kron(PAULI["z"], np.eye(2)))
        t2 = HermitianOperator(kron(np.eye(2), PAULI["z"]))
        dec = Decomposition((t1, t2))
        plus = np.array([1, 1]) / np.sqrt(2)
        psi = pure_state(np.kron(np.array([1, 0]), plus).astype(complex))
        (rec,) = run_block("arc", psi, dec, StepPlan(0.5, 10), [trajectory_stream(4)])
        assert np.all(rec.probabilities[:, 0] == 0.0)
        assert 0 not in set(rec.indices.tolist())

    def test_arc_probabilities_valid_under_noise(self):
        (rec,) = run_block(
            "arc", self.psi, self.dec, self.plan, [trajectory_stream(5)], noise=NoiseModel(0.3)
        )
        assert np.all(rec.probabilities >= 0)
        assert np.allclose(rec.probabilities.sum(axis=1), 1.0, atol=1e-12)

    def test_arc_varies_probabilities(self):
        (rec,) = run_block("arc", self.psi, self.dec, self.plan, [trajectory_stream(6)])
        assert np.std(rec.probabilities[:, 0]) > 0

    def test_exact_runner(self):
        states = run_exact(self.psi, self.dec.total_operator, self.plan)
        assert states.shape == (self.plan.steps, self.psi.dim)
        for s in states:
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-10)

    def test_trotter_runner_matches_manual_loop(self):
        (rec,) = run_block("trotter1", self.psi, self.dec, self.plan, [0])
        state = self.psi
        for _ in range(self.plan.steps):
            state = step_trotter1(state, self.dec, self.plan)
        assert np.allclose(rec.final_state.data, state.data)

    def test_protocol_dispatch(self):
        for name in ("trotter1", "rc", "arc", "equal", "exact"):
            (rec,) = run_block(name, self.psi, self.dec, self.plan, [trajectory_stream(8)])
            assert rec.protocol == name
        with pytest.raises(ValueError):
            run_block("magnus", self.psi, self.dec, self.plan, [0])

    def test_no_streams_rejected(self):
        for name in PROTOCOL_NAMES:
            with pytest.raises(ValueError, match="at least one stream"):
                run_block(name, self.psi, self.dec, StepPlan(1.0, 4), [])

    def test_same_stream_reproduces(self):
        (r1,) = run_block("arc", self.psi, self.dec, self.plan, [trajectory_stream(11, 2, 0, 5)])
        (r2,) = run_block("arc", self.psi, self.dec, self.plan, [trajectory_stream(11, 2, 0, 5)])
        assert np.array_equal(r1.indices, r2.indices)
        assert np.array_equal(r1.fidelities, r2.fidelities)


# The per-protocol trajectory loops that the single stepping loop replaced,
# kept verbatim as the reference it must reproduce bit for bit.


def _reference_states(
    state0: QuantumState,
    decomposition: Decomposition,
    plan: StepPlan,
    exact_states: np.ndarray | None,
) -> np.ndarray:
    if exact_states is None:
        return run_exact(state0, decomposition.total_operator, plan)
    if len(exact_states) != plan.steps:
        raise ValueError(
            f"expected {plan.steps} exact states, got {len(exact_states)}"
        )
    return exact_states


def _step_fidelity(reference: np.ndarray, state: np.ndarray) -> float:
    """|<reference|state>|^2 of two pure vectors, clipped to [0, 1]."""
    return float(fidelities(reference, state.reshape(-1, 1))[0])


def _as_stream(stream) -> TrajectoryStream:
    if isinstance(stream, TrajectoryStream):
        return stream
    return trajectory_stream(int(stream))


def step_random(
    state: QuantumState,
    decomposition: Decomposition,
    plan: StepPlan,
    p: ProbabilityDistribution,
    rng: np.random.Generator,
) -> tuple[QuantumState, int, float]:
    """Sample a term by inverse CDF and apply exp(-i H_j tau_j), tau_j = dt / p_j."""
    j = sample(p, rng.random())
    tau = plan.dt / p.p[j]
    return evolve_unitary(state, decomposition.terms[j], tau), j, tau


def reference_run_trotter1(
    state0: QuantumState,
    decomposition: Decomposition,
    plan: StepPlan,
    *,
    exact_states: np.ndarray | None = None,
    **_unused,
) -> TrajectoryRecord:
    """First-order product formula for N steps."""
    exact = _reference_states(state0, decomposition, plan, exact_states)
    fids = np.empty(plan.steps)
    state = state0
    for k in range(plan.steps):
        state = step_trotter1(state, decomposition, plan)
        fids[k] = _step_fidelity(exact[k], state.data)
    return TrajectoryRecord("trotter1", plan, fids, state)


def reference_run_fixed_weights(
    protocol: str,
    p: ProbabilityDistribution,
    state0: QuantumState,
    decomposition: Decomposition,
    plan: StepPlan,
    stream,
    exact_states: np.ndarray | None,
) -> TrajectoryRecord:
    exact = _reference_states(state0, decomposition, plan, exact_states)
    stream = _as_stream(stream)
    n = plan.steps
    indices = np.empty(n, dtype=int)
    taus = np.empty(n)
    probs = np.tile(p.p, (n, 1))
    fids = np.empty(n)
    state = state0
    for k in range(n):
        rng = stream.step(k)
        state, j, tau = step_random(state, decomposition, plan, p, rng)
        indices[k], taus[k] = j, tau
        fids[k] = _step_fidelity(exact[k], state.data)
    return TrajectoryRecord(protocol, plan, fids, state, indices, taus, probs)


def reference_run_arc(
    state0: QuantumState,
    decomposition: Decomposition,
    plan: StepPlan,
    *,
    noise: NoiseModel = EXACT,
    stream=0,
    exact_states: np.ndarray | None = None,
    **_unused,
) -> TrajectoryRecord:
    """Adaptive random compilation: re-derive the sampling weights every step.

    Each step measures the four moments of every term on the trajectory's own
    current state (perturbed per the noise model), converts them to
    double-commutator norms, and samples from the optimal distribution.
    """
    exact = _reference_states(state0, decomposition, plan, exact_states)
    stream = _as_stream(stream)
    n, L = plan.steps, len(decomposition)
    indices = np.empty(n, dtype=int)
    taus = np.empty(n)
    probs = np.empty((n, L))
    fids = np.empty(n)
    state = state0
    for k in range(n):
        rng = stream.step(k)
        dcn = []
        for term in decomposition.terms:
            raw = moment_block(term, basis_coordinates(term, state.data[:, None]))[:, 0]
            dcn.append(float(norms_from_moments(noise.perturb(raw, rng))))
        p = optimal_distribution(dcn)
        state, j, tau = step_random(state, decomposition, plan, p, rng)
        indices[k], taus[k] = j, tau
        probs[k] = p.p
        fids[k] = _step_fidelity(exact[k], state.data)
    return TrajectoryRecord("arc", plan, fids, state, indices, taus, probs)


def reference_run_exact_protocol(
    state0: QuantumState,
    decomposition: Decomposition,
    plan: StepPlan,
    *,
    exact_states: np.ndarray | None = None,
    **_unused,
) -> TrajectoryRecord:
    exact = _reference_states(state0, decomposition, plan, exact_states)
    fids = np.array([_step_fidelity(s, s) for s in exact])
    return TrajectoryRecord("exact", plan, fids, QuantumState(exact[-1]))


def reference_run(name, state0, decomposition, plan, noise, stream, exact_states):
    if name == "rc":
        p = ProbabilityDistribution(np.asarray(decomposition.inf_norms))
        return reference_run_fixed_weights("rc", p, state0, decomposition, plan, stream, exact_states)
    if name == "equal":
        p = ProbabilityDistribution(np.full(len(decomposition), 1.0 / len(decomposition)))
        return reference_run_fixed_weights(
            "equal", p, state0, decomposition, plan, stream, exact_states
        )
    runner = {
        "trotter1": reference_run_trotter1,
        "arc": reference_run_arc,
        "exact": reference_run_exact_protocol,
    }[name]
    return runner(state0, decomposition, plan, noise=noise, stream=stream, exact_states=exact_states)


def loop_cases():
    """(label, initial state, decomposition) over MFIM and a random 3-term split."""
    rng = np.random.default_rng(21)
    mfim, st = build_mfim(3, 1.0, 0.5, 0.3)
    rand = Decomposition(tuple(random_hermitian(rng, 4) for _ in range(3)))
    for label, dec, psi in (
        ("mfim", mfim, basis_state("011", st)),
        ("random", rand, random_pure(rng, 4)),
    ):
        yield label, psi, dec


class TestSteppingLoopReference:
    def test_bit_identical_to_reference_loops(self):
        plan = StepPlan(0.6, 6)
        for case, (label, state0, dec) in enumerate(loop_cases()):
            for noise_std in (0.0, 0.2):
                noise = NoiseModel(noise_std)
                for pid, name in enumerate(PROTOCOL_NAMES):
                    for exact_states in (None, run_exact(state0, dec.total_operator, plan)):
                        (got,) = run_block(
                            name,
                            state0,
                            dec,
                            plan,
                            [trajectory_stream(5, case, pid)],
                            noise=noise,
                            exact_states=exact_states,
                        )
                        want = reference_run(
                            name, state0, dec, plan, noise, trajectory_stream(5, case, pid), exact_states
                        )
                        where = f"{name} on {label} at noise {noise_std}"
                        assert got.protocol == want.protocol, where
                        self._assert_same_record(got, want, where, self._atol(name))

    @staticmethod
    def _atol(name):
        """rc, equal and trotter1 apply each term's precomputed exp(-i H_j tau_j), which rounds
        differently from the reference's per-step basis change (see TestFixedStepLoop)."""
        return 1e-12 if name in ("rc", "equal", "trotter1") else 0.0

    @staticmethod
    def _assert_same_record(got, want, where, atol=0.0):
        if atol:
            assert np.allclose(got.fidelities, want.fidelities, rtol=0, atol=atol), where
            assert np.allclose(got.final_state.data, want.final_state.data, rtol=0, atol=atol), where
        else:
            assert np.array_equal(got.fidelities, want.fidelities, equal_nan=True), where
            assert np.array_equal(got.final_state.data, want.final_state.data), where
        for field in ("indices", "taus", "probabilities"):
            a, b = getattr(got, field), getattr(want, field)
            if b is None:
                assert a is None, (field, where)
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b), (field, where)

    def test_int_seed_stream_matches_reference(self):
        dec, st = build_mfim(3, 1.0, 0.5, 0.3)
        psi, plan = basis_state("011", st), StepPlan(0.3, 5)
        for name in ("rc", "equal", "arc"):
            (got,) = run_block(name, psi, dec, plan, [3])
            want = reference_run(name, psi, dec, plan, EXACT, 3, None)
            self._assert_same_record(got, want, name, self._atol(name))

    def test_wrong_length_exact_states_rejected(self):
        # any shape but (steps, dim) is rejected before a product, not inside a matmul
        dec, st = build_mfim(3, 1.0, 0.5, 0.3)
        psi, plan = basis_state("011", st), StepPlan(0.3, 5)
        states = run_exact(psi, dec.total_operator, plan)
        padded = np.pad(states, ((0, 0), (0, 1)))
        as_objects = [QuantumState(s) for s in states]
        wrong_inputs = (
            states[:-1], np.concatenate([states, states[:1]]), states.T, states[:, :-1], padded,
            states[..., None], states[0], as_objects,
        )
        for name in PROTOCOL_NAMES:
            for wrong in wrong_inputs:
                message = f"expected 5 exact states of dimension 8 as rows, got shape {np.shape(wrong)}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    run_block(name, psi, dec, plan, [trajectory_stream(1)], exact_states=wrong)


def fixed_step_loop(name, state0, decomposition, plan, stream, exact_states):
    """rc, equal and trotter1 on a pure state, stepping with each term's exp(-i H_j tau_j)
    built once (U = V diag(exp(-i e tau)) V^dag, or a diagonal term's phases)."""
    size = len(decomposition)
    p = None if name == "trotter1" else ProbabilityDistribution(
        np.asarray(decomposition.inf_norms) if name == "rc" else np.full(size, 1.0 / size)
    )
    steps = []
    for j, h in enumerate(decomposition.terms):
        tau = plan.dt if p is None else plan.dt / p.p[j]
        if h.eig[1] is not None:
            steps.append(rotate_coordinates(h, h.eig[1].conj().T, np.full(h.dim, tau)))
        else:
            steps.append(rotate_coordinates(h, np.ones((h.dim, 1)), np.array([tau]))[:, 0])

    def apply(step, state):
        column = state.data.reshape(-1, 1)
        return QuantumState((step[:, None] * column if step.ndim == 1 else step @ column)[:, 0])

    n = plan.steps
    fids, indices, taus = np.empty(n), np.empty(n, dtype=int), np.empty(n)
    state = state0
    for k in range(n):
        if p is None:
            for step in steps:
                state = apply(step, state)
        else:
            indices[k] = j = sample(p, stream.step(k).random())
            taus[k] = plan.dt / p.p[j]
            state = apply(steps[j], state)
        fids[k] = _step_fidelity(exact_states[k], state.data)
    if p is None:
        return TrajectoryRecord(name, plan, fids, state)
    return TrajectoryRecord(name, plan, fids, state, indices, taus, np.tile(p.p, (n, 1)))


class TestFixedStepLoop:
    def test_bit_identical_to_fixed_step_loop(self):
        plan = StepPlan(0.6, 6)
        for case, (label, state0, dec) in enumerate(loop_cases()):
            exact = run_exact(state0, dec.total_operator, plan)
            for pid, name in enumerate(("rc", "equal", "trotter1")):
                stream = trajectory_stream(5, case, pid)
                (got,) = run_block(name, state0, dec, plan, [stream], exact_states=exact)
                want = fixed_step_loop(name, state0, dec, plan, stream, exact)
                TestSteppingLoopReference._assert_same_record(got, want, f"{name} on {label}")


class TestChannelMatching:
    def test_first_order_defect_scales_quadratically(self):
        ok, farthest = check_channel_matching(np.random.default_rng(12), count=5)
        assert ok, farthest


def block_cases():
    """(label, initial state, decomposition): every model with its diagonal terms, and a random split."""
    rng = np.random.default_rng(44)
    mfim, st = build_mfim(3, 1.0, 0.5, 0.3)
    yield "mfim", basis_state("011", st), mfim
    kerr, st = build_kerr(0.3, 1.0, 0.5, 6)
    yield "kerr", basis_state("(|1⟩+|3⟩)/√2", st), kerr
    rabi, st = build_rabi(1.0, 1.0, 0.8, 5)
    yield "rabi", basis_state("(|2,0⟩+|3,1⟩)/√2", st), rabi
    diag = HermitianOperator(np.diag(rng.normal(size=6)))
    rand = Decomposition((random_hermitian(rng, 6), diag, random_hermitian(rng, 6, 0.5)))
    yield "random", random_pure(rng, 6), rand


class TestBlockEngine:
    def test_block_matches_single_trajectories(self):
        plan = StepPlan(0.4, 8)
        for case, (label, psi, dec) in enumerate(block_cases()):
            exact = run_exact(psi, dec.total_operator, plan)
            for noise_std in (0.0, 0.2):
                for pid, name in enumerate(("rc", "equal", "arc")):
                    streams = [trajectory_stream(3, case, pid, m) for m in range(11)]
                    block = run_block(
                        name, psi, dec, plan, streams, noise=NoiseModel(noise_std), exact_states=exact
                    )
                    for m, got in enumerate(block):
                        (want,) = run_block(
                            name, psi, dec, plan, [trajectory_stream(3, case, pid, m)],
                            noise=NoiseModel(noise_std), exact_states=exact,
                        )
                        where = (label, noise_std, name, m)
                        assert np.array_equal(got.indices, want.indices), where
                        for field in ("probabilities", "taus", "fidelities"):
                            assert np.allclose(
                                getattr(got, field), getattr(want, field), rtol=0, atol=1e-12
                            ), (field, where)
                        assert np.allclose(
                            got.final_state.data, want.final_state.data, rtol=0, atol=1e-12
                        ), where

    def test_block_draws_follow_each_stream(self):
        # a trajectory's samples do not depend on its neighbours in the block
        dec, st = build_mfim(3, 1.0, 0.5, 0.3)
        psi, plan = basis_state("011", st), StepPlan(0.4, 8)
        streams = [trajectory_stream(8, m) for m in range(5)]
        full = run_block("arc", psi, dec, plan, streams, noise=NoiseModel(0.1))
        part = run_block("arc", psi, dec, plan, streams[2:4], noise=NoiseModel(0.1))
        for a, b in zip(full[2:4], part):
            assert np.array_equal(a.indices, b.indices)
            assert np.allclose(a.probabilities, b.probabilities, rtol=0, atol=1e-12)

    def test_deterministic_and_mixed_blocks(self):
        dec, st = build_mfim(3, 1.0, 0.5, 0.3)
        psi, plan = basis_state("011", st), StepPlan(0.4, 8)
        for name in ("trotter1", "exact"):
            (rec,) = run_block(name, psi, dec, plan, [0])
            assert rec.indices is None and rec.probabilities is None
        rho = mixed_state(0.7 * psi.density() + 0.3 * np.eye(dec.dim) / dec.dim)
        for streams in ([0], [0, 1]):  # the engine steps pure states only
            with pytest.raises(ValueError, match="expected a pure state"):
                run_block("arc", rho, dec, plan, streams)
        with pytest.raises(ValueError, match="unknown protocol"):
            run_block("magnus", psi, dec, plan, [0])

    def test_norm_drift_is_numerical_failure(self, monkeypatch):
        dec, st = build_mfim(3, 1.0, 0.5, 0.3)
        psi, plan = basis_state("011", st), StepPlan(0.4, 8)
        rotate = compilers.rotate_coordinates
        monkeypatch.setattr(compilers, "rotate_coordinates", lambda *a: 1.01 * rotate(*a))
        with pytest.raises(np.linalg.LinAlgError, match="norm drifted"):
            run_block("rc", psi, dec, plan, [0, 1, 2])


class TestDiagonalShortcut:
    def test_model_terms_flagged(self):
        flagged = {
            label: [h.label for h in dec.terms if h.eig[1] is None]
            for label, _, dec in block_cases()
        }
        assert flagged["mfim"] == ["zz", "z"]
        assert flagged["kerr"] == ["detuning", "kerr"]
        assert flagged["rabi"] == ["field", "qubit"]
        assert HermitianOperator(np.diag([1.0, 2.0]) + 1e-300 * PAULI["x"]).eig[1] is not None

    def test_shortcut_equals_eigenvector_path(self):
        rng = np.random.default_rng(45)
        for _, _, dec in block_cases():
            for h in dec.terms:
                if h.eig[1] is not None:
                    continue
                block = np.stack([random_pure(rng, h.dim).data for _ in range(7)], axis=1)
                taus = rng.uniform(0.01, 2.0, size=7)
                values, vectors = _eigensystem(h.matrix)
                coords = vectors.conj().T @ block
                via_v = vectors @ (np.exp(-1j * values[:, None] * taus) * coords)
                got = rotate_coordinates(h, basis_coordinates(h, block), taus)
                assert np.allclose(got, via_v, rtol=0, atol=1e-14), h.label
                weights = np.abs(coords) ** 2
                want = np.array([np.sum(weights * values[:, None] ** k, axis=0) for k in range(1, 5)])
                scale = np.max(np.abs(values)) ** np.arange(1, 5)[:, None]
                assert np.allclose(
                    moment_block(h, basis_coordinates(h, block)) / scale, want / scale, rtol=0, atol=1e-14
                ), h.label

    def test_moments_match_matvec_definition(self):
        rng = np.random.default_rng(46)
        for dim in (2, 5, 16):
            h = random_hermitian(rng, dim)
            psi = random_pure(rng, dim)
            w, want = psi.data, []
            for _ in range(4):
                w = h.matrix @ w
                want.append(np.vdot(psi.data, w).real)
            m = moment_block(h, basis_coordinates(h, psi.data[:, None]))[:, 0]
            assert np.allclose(m, want, rtol=1e-12, atol=1e-12)

    def test_eigenstate_weight_is_exactly_zero(self):
        # power-of-two eigenvalue: every moment ratio is exact, so no rounding residue
        h = HermitianOperator(np.diag([0.5, 0.5, -0.5, -0.5]))
        v = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
        for phase in np.linspace(0.0, 3.0, 7):
            psi = pure_state(v * np.exp(1j * phase * np.arange(4)))
            assert norms_from_moments(moment_block(h, basis_coordinates(h, psi.data[:, None])).T)[0] == 0.0


class TestFrozenIndices:
    def test_noisy_mfim_arc_block(self):
        # 16 trajectories x 20 steps at noise 0.1, frozen as exact integers; the
        # block's Gaussians leave the ziggurat's fast path on many of its steps
        dec, st = build_mfim(4, 1.0, 0.5, 0.3)
        streams = [trajectory_stream(11, m) for m in range(16)]
        records = run_block(
            "arc", basis_state("0011", st), dec, StepPlan(20 * 0.02, 20), streams, noise=NoiseModel(0.1)
        )
        assert ["".join(map(str, rec.indices)) for rec in records] == [
            "10111111112111010000", "11112110111101011012", "01111011011201111112",
            "01111121011101011200", "12212112101101010110", "11111111011010021021",
            "21111222112121112020", "11211111110110200111", "11011211102011111010",
            "11101111121110200100", "21001221112112110021", "02121111111112121110",
            "12111111110020010001", "10111111120022110201", "01111111111210111100",
            "11110111011111111111",
        ]


class TestMixedStepBlocks:
    """A block of trajectories with one dt and different step counts, run longest first."""

    DT = 0.0625  # every n * DT / n below is DT again, bit for bit
    STEPS = (20, 20, 17, 9, 8, 8, 3, 1)  # crosses draw-chunk boundaries and retires mid-chunk

    def plans(self):
        return [StepPlan(n * self.DT, n) for n in self.STEPS]

    def test_matches_separate_blocks(self):
        plans = self.plans()
        assert all(p.dt == self.DT for p in plans)
        for case, (label, psi, dec) in enumerate(block_cases()):
            exact = run_exact(psi, dec.total_operator, plans[0])
            for noise_std in (0.0, 0.2):
                for pid, name in enumerate(PROTOCOL_NAMES):
                    streams = [trajectory_stream(6, case, pid, m) for m in range(len(plans))]
                    block = run_block(
                        name, psi, dec, plans, streams, noise=NoiseModel(noise_std), exact_states=exact
                    )
                    for m, (got, plan) in enumerate(zip(block, plans)):
                        (want,) = run_block(
                            name, psi, dec, plan, [streams[m]], noise=NoiseModel(noise_std),
                            exact_states=exact[: plan.steps],
                        )
                        where = (label, noise_std, name, m)
                        assert got.plan == plan and len(got.fidelities) == plan.steps, where
                        if want.indices is None:
                            assert got.indices is None and got.probabilities is None, where
                        else:
                            assert np.array_equal(got.indices, want.indices), where
                            for field in ("probabilities", "taus"):
                                assert np.allclose(
                                    getattr(got, field), getattr(want, field), rtol=0, atol=1e-12
                                ), (field, where)
                        assert np.allclose(got.fidelities, want.fidelities, rtol=0, atol=1e-12), where
                        assert np.allclose(
                            got.final_state.data, want.final_state.data, rtol=0, atol=1e-12
                        ), where

    def test_final_only_mode_matches_records(self):
        # the ensemble's final-only scores and every step the loop yields have the records' bits
        plans = self.plans()
        for case, (label, psi, dec) in enumerate(block_cases()):
            exact = run_exact(psi, dec.total_operator, plans[0])
            for noise_std in (0.0, 0.2):
                for pid, name in enumerate(PROTOCOL_NAMES):
                    keys = np.array([trajectory_stream(6, case, pid, m).key for m in range(len(plans))])
                    args = (name, psi, dec, plans, keys, NoiseModel(noise_std), exact)
                    records = run_block(*args[:5], noise=args[5], exact_states=exact)
                    got = compilers._final_fidelities(*args)
                    want = np.array([rec.final_fidelity for rec in records])
                    assert np.array_equal(got, want), (label, noise_std, name)
                    if name == "exact":
                        continue
                    for k, state, out, *step in compilers._pure_steps(*args[:6]):
                        width = sum(q.steps > k for q in plans)  # the still-running prefix
                        assert state.shape == out.shape == (psi.dim, width), (label, name, k)
                        if name in DETERMINISTIC_PROTOCOLS:
                            assert step == [None, None, None], (label, name, k)
                            continue
                        for m, rec in enumerate(records[:width]):  # ptrace's j, tau and p
                            for got_a, want_a in zip(step, (rec.indices, rec.taus, rec.probabilities)):
                                assert np.array_equal(got_a[m], want_a[k]), (label, name, k, m)

    def test_bytes_independent_of_draw_chunk(self, monkeypatch):
        dec, st = build_mfim(3, 1.0, 0.5, 0.3)
        psi, plans = basis_state("011", st), self.plans()
        streams = [trajectory_stream(4, m) for m in range(len(plans))]
        runs = []
        for pairs in (1, 24, compilers.NOISY_DRAW_PAIRS, 512):  # 1, 3, 96 and 64 steps at width 8
            monkeypatch.setattr(compilers, "NOISY_DRAW_PAIRS", pairs)
            runs.append(run_block("arc", psi, dec, plans, streams, noise=NoiseModel(0.3)))
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert np.array_equal(a.indices, b.indices)
                assert np.array_equal(a.probabilities, b.probabilities)
                assert np.array_equal(a.fidelities, b.fidelities)
                assert np.array_equal(a.final_state.data, b.final_state.data)

    def test_key_array_streams_match_stream_objects(self):
        dec, st = build_mfim(3, 1.0, 0.5, 0.3)
        psi, plans = basis_state("011", st), self.plans()
        streams = [trajectory_stream(4, m) for m in range(len(plans))]
        keys = np.array([s.key for s in streams])
        a = run_block("arc", psi, dec, plans, streams, noise=NoiseModel(0.3))
        b = run_block("arc", psi, dec, plans, keys, noise=NoiseModel(0.3))
        for x, y in zip(a, b):
            assert np.array_equal(x.indices, y.indices)
            assert np.array_equal(x.final_state.data, y.final_state.data)

    def test_plans_must_share_dt_and_run_longest_first(self):
        dec, st = build_mfim(3, 1.0, 0.5, 0.3)
        psi = basis_state("011", st)
        for plans in (
            [StepPlan(0.5, 4), StepPlan(0.5, 8)],
            [StepPlan(0.5, 8), StepPlan(0.4, 4)],
        ):
            with pytest.raises(ValueError, match="longest first"):
                run_block("rc", psi, dec, plans, [0, 1])
        with pytest.raises(ValueError, match="plans for"):
            run_block("rc", psi, dec, [StepPlan(0.5, 8)], [0, 1])
