import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from arcsim import cli, linalg
from arcsim.bounds import (
    BoundReport,
    bound_report,
    check_cauchy_schwarz,
    shot_lower_bounds,
)
from arcsim.compilers import StepPlan, run_exact
from arcsim.hamiltonians import PAULI, Decomposition, basis_state, build_kerr, build_mfim
from arcsim.harness import _Context, config_from_dict, load_config
from arcsim.linalg import HermitianOperator, commutator, hs_norm, mixed_state, pure_state
from arcsim.moments import centred_moments, double_commutator_norm, double_commutator_norms
from arcsim.selftest import check_weighted_sum, random_hermitian, random_pure

PLUS = pure_state(np.array([1, 1]) / np.sqrt(2))


def mfim_fixture(n_steps=50, t=1.0):
    dec, st = build_mfim(4, 1.0, 0.5, 0.3)
    psi = basis_state("0011", st)
    plan = StepPlan(t, n_steps)
    return dec, run_exact(psi, dec.total_operator, plan), plan


class TestTrotterBound:
    def test_commuting_terms_vanish(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 4)
        _, v = h.eig
        d1 = HermitianOperator((v * [1.0, 0.5, -0.3, 0.2]) @ v.conj().T)
        d2 = HermitianOperator((v * [0.4, -0.1, 0.8, 1.1]) @ v.conj().T)
        dec = Decomposition((d1, d2))
        plan = StepPlan(1.0, 5)
        exact = run_exact(random_pure(rng, 4), dec.total_operator, plan)
        assert bound_report(dec, exact, plan).trotter1 <= 1e-10

    def test_single_term_vanishes(self):
        rng = np.random.default_rng(3)
        dec = Decomposition((random_hermitian(rng, 4),))
        plan = StepPlan(1.0, 5)
        exact = run_exact(random_pure(rng, 4), dec.total_operator, plan)
        assert bound_report(dec, exact, plan).trotter1 == 0.0

    def test_mfim_regression(self):
        dec, exact, plan = mfim_fixture()
        val = bound_report(dec, exact, plan).trotter1
        assert val > 0
        assert val == pytest.approx(0.024724450223511548, rel=1e-6)

    def test_two_term_swap_invariance(self):
        # swapping a pair flips the sign of its commutator, which the norm
        # absorbs; for three or more terms the relative signs change and the
        # first-order product error genuinely depends on term order
        rng = np.random.default_rng(8)
        t1, t2 = random_hermitian(rng, 4), random_hermitian(rng, 4)
        dec = Decomposition((t1, t2))
        swapped = Decomposition((t2, t1))
        plan = StepPlan(1.0, 5)
        exact = run_exact(random_pure(rng, 4), dec.total_operator, plan)
        assert bound_report(swapped, exact, plan).trotter1 == pytest.approx(
            bound_report(dec, exact, plan).trotter1, rel=1e-10
        )

    def test_three_term_order_dependence_is_small_for_mfim(self):
        dec, exact, plan = mfim_fixture(n_steps=10)
        permuted = Decomposition((dec.terms[2], dec.terms[0], dec.terms[1]))
        a = bound_report(dec, exact, plan).trotter1
        b = bound_report(permuted, exact, plan).trotter1
        assert a != b
        assert abs(a - b) <= 0.01 * a

    def test_empty_states_rejected(self):
        dec, _, plan = mfim_fixture(n_steps=5)
        with pytest.raises(ValueError):
            bound_report(dec, [], plan)


class TestBoundOrdering:
    def test_arc_below_rc_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dec = Decomposition(tuple(random_hermitian(rng, 4) for _ in range(3)))
            plan = StepPlan(0.5, 4)
            exact = run_exact(random_pure(rng, 4), dec.total_operator, plan)
            report = bound_report(dec, exact, plan)
            assert report.arc <= report.rc * (1 + 1e-9)

    def test_rc_rejects_zero_norm_term(self):
        dec, st = build_mfim(3, 1.0, 0.5, 0.0)
        psi = basis_state("011", st)
        plan = StepPlan(1.0, 4)
        exact = run_exact(psi, dec.total_operator, plan)
        with pytest.raises(ValueError):
            bound_report(dec, exact, plan)
        # dropping the zero term makes it computable
        assert bound_report(dec.drop_zero_terms(), exact, plan).rc > 0

    def test_inverse_n_scaling(self):
        dec, st = build_mfim(4, 1.0, 0.5, 0.3)
        psi = basis_state("0011", st)
        vals = {}
        for n in (25, 50):
            plan = StepPlan(1.0, n)
            exact = run_exact(psi, dec.total_operator, plan)
            report = bound_report(dec, exact, plan)
            vals[n] = {key: getattr(report, key) for key in ("trotter1", "rc", "arc")}
        for key in vals[25]:
            assert vals[50][key] * 2 == pytest.approx(vals[25][key], rel=0.05)

    def test_report_carries_per_step_lists(self):
        dec, exact, plan = mfim_fixture(n_steps=10)
        report = bound_report(dec, exact, plan)
        for key in ("trotter1", "rc", "arc"):
            assert len(report.per_step[key]) == 10
        assert report.arc <= report.rc * (1 + 1e-9)
        assert min(min(v) for v in report.per_step.values()) >= 0

    def test_report_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoundReport(trotter1=0.1, rc=1.0, arc=2.0, per_step={}, t=1.0, steps=5)


class TestCauchySchwarz:
    def test_single_term_equality(self):
        rng = np.random.default_rng(5)
        dec = Decomposition((random_hermitian(rng, 4),))
        lhs, rhs, holds = check_cauchy_schwarz(dec, random_pure(rng, 4))
        assert holds
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_random_three_term(self):
        holds, violations = check_weighted_sum(np.random.default_rng(6), count=50)
        assert holds, violations

    def test_equality_condition(self):
        # equality iff ||L_j^2(rho)|| / ||H_j||_inf^2 constant across terms:
        # scaled copies of one term against a fixed state
        rng = np.random.default_rng(7)
        base = random_hermitian(rng, 4)
        dec = Decomposition((base, HermitianOperator(2.0 * base.matrix)))
        lhs, rhs, holds = check_cauchy_schwarz(dec, random_pure(rng, 4))
        assert holds
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_zero_norm_rejected(self):
        zero = HermitianOperator(np.zeros((2, 2), dtype=complex))
        dec = Decomposition((HermitianOperator(PAULI["z"]), zero))
        with pytest.raises(ValueError):
            check_cauchy_schwarz(dec, PLUS)


def densities(states):
    """Each (n, dim) exact-trajectory row psi as the density matrix |psi><psi|."""
    return [np.outer(s, s.conj()) for s in states]


def nested_trotter1(decomposition, states):
    """||sum_{j<k} [L_j, L_k](rho)|| from its definition as nested commutators."""
    mats = [t.matrix for t in decomposition.terms]
    out = []
    for rho in densities(states):
        acc = np.zeros_like(rho)
        for j in range(len(mats)):
            for k in range(j + 1, len(mats)):
                acc -= commutator(mats[j], commutator(mats[k], rho))
                acc += commutator(mats[k], commutator(mats[j], rho))
        out.append(hs_norm(acc))
    return out


def dense_per_step(decomposition, states):
    """The three per-step brackets from nested commutators on dense rho, O(dim^3) per state."""
    rhos = densities(states)

    def l2(m):
        return np.array([hs_norm(commutator(m, commutator(m, r))) for r in rhos])

    collective = l2(decomposition.total_operator.matrix)
    terms = np.array([l2(t.matrix) for t in decomposition.terms])
    norms = np.array(decomposition.inf_norms)
    return {
        "trotter1": np.array(nested_trotter1(decomposition, states)),
        "rc": collective + decomposition.lam * (terms / norms[:, None]).sum(axis=0),
        "arc": collective + np.sqrt(terms).sum(axis=0) ** 2,
    }


def block_and_dense_cases():
    rng = np.random.default_rng(9)
    for dim in (2, 3, 5, 8, 16):
        for n_terms in (1, 2, 3, 4):
            dec = Decomposition(tuple(random_hermitian(rng, dim) for _ in range(n_terms)))
            yield dec, run_exact(random_pure(rng, dim), dec.total_operator, StepPlan(0.7, 6))
    for n_steps in (5, 20):
        dec, exact, _ = mfim_fixture(n_steps=n_steps)
        yield dec, exact


class TestBlockPath:
    def test_block_path_matches_dense_path(self):
        for dec, exact in block_and_dense_cases():
            plan = StepPlan(1.0, len(exact))
            block = bound_report(dec, exact, plan)
            dense = dense_per_step(dec, exact)
            for key in ("trotter1", "rc", "arc"):
                assert block.per_step[key] == pytest.approx(dense[key].tolist(), rel=1e-12)
                mean = plan.total_time**2 / (2.0 * plan.steps) * np.mean(dense[key])
                assert getattr(block, key) == pytest.approx(mean, rel=1e-12)

    def test_jacobi_form_matches_nested_commutators(self):
        for dec, exact in block_and_dense_cases():
            plan = StepPlan(1.0, len(exact))
            got = bound_report(dec, exact, plan).per_step["trotter1"]
            assert got == pytest.approx(nested_trotter1(dec, exact), rel=1e-12)

    def test_cauchy_schwarz_same_on_both_paths(self):
        rng = np.random.default_rng(10)
        dec = Decomposition(tuple(random_hermitian(rng, 6) for _ in range(3)))
        psi = random_pure(rng, 6)
        block = check_cauchy_schwarz(dec, psi)
        dense = check_cauchy_schwarz(dec, mixed_state(psi.density()))
        assert block[:2] == pytest.approx(dense[:2], rel=1e-12)
        assert block[2] and dense[2]


class TestShotBounds:
    def test_reference_point(self):
        prep, dyn = shot_lower_bounds(k=1, w=1, S=4, R=1, n_qubits=2, eps_stat=1.0)
        assert prep == pytest.approx(3 * 4 * np.log(2))
        assert prep == pytest.approx(8.317766166719343)

    def test_epsilon_scaling(self):
        base = shot_lower_bounds(k=2, w=1, S=2, R=1, n_qubits=8, eps_stat=0.2)
        half = shot_lower_bounds(k=2, w=1, S=2, R=1, n_qubits=8, eps_stat=0.1)
        assert half[0] == pytest.approx(4 * base[0])
        assert half[1] == pytest.approx(4 * base[1])

    def test_max_collapse(self):
        prep, dyn = shot_lower_bounds(k=3, w=3, S=8, R=2, n_qubits=16, eps_stat=0.5)
        assert dyn == pytest.approx(prep)  # k = w and S = 4R

    def test_types(self):
        good = dict(k=1, w=1, S=4, R=1, n_qubits=4, eps_stat=0.1)
        with pytest.raises(TypeError):
            shot_lower_bounds(**dict(good, k=1.5, w=True, S=0.5))
        for name in ("k", "w", "S", "R", "n_qubits"):
            for bad in (1.5, 2.0, True, "2", None):
                with pytest.raises(TypeError, match=name):
                    shot_lower_bounds(**dict(good, **{name: bad}))
        for bad in (True, "0.1", None):
            with pytest.raises(TypeError, match="eps_stat"):
                shot_lower_bounds(**dict(good, eps_stat=bad))
        for bad in (math.inf, math.nan, -math.inf, 10**400, 2**1024):  # ints past float range are not finite
            with pytest.raises(ValueError, match="positive and finite"):
                shot_lower_bounds(**dict(good, eps_stat=bad))
        shot_lower_bounds(**dict(good, k=np.int64(2), eps_stat=1))

    def test_bounds_must_be_finite(self):
        good = dict(k=1, w=1, S=4, R=1, n_qubits=4, eps_stat=0.1)
        for bad in ({"w": 1000}, {"k": 1000}, {"R": 10**400}, {"S": 10**400}, {"eps_stat": 1e-200},
                    {"eps_stat": 1e-160}):
            with pytest.raises(ValueError, match="shot bounds overflow"):
                shot_lower_bounds(**dict(good, **bad))
        prep, dyn = shot_lower_bounds(**dict(good, w=600, eps_stat=1e-10))
        assert math.isfinite(prep) and math.isfinite(dyn)

    def test_eps_stat_whose_square_overflows(self):
        # eps_stat**2 is past float range; the bounds are the exact quotient, small, subnormal or 0.0
        for w, eps in ((1, 1e160), (1, 1e200), (1, 10**160), (600, 1e160), (600, 10**160)):
            want = float(Fraction(3.0**w) * 4 * Fraction(math.log(4)) / Fraction(eps) ** 2)
            prep, dyn = shot_lower_bounds(k=1, w=w, S=4, R=1, n_qubits=4, eps_stat=eps)
            assert prep == dyn == pytest.approx(want, rel=1e-15, abs=1e-323), (w, eps)
        assert shot_lower_bounds(k=1, w=1, S=4, R=1, n_qubits=4, eps_stat=1e200) == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            shot_lower_bounds(k=0, w=1, S=1, R=1, n_qubits=2, eps_stat=0.1)
        with pytest.raises(ValueError):
            shot_lower_bounds(k=1, w=1, S=1, R=1, n_qubits=2, eps_stat=0.0)


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


class TestCentredKernel:
    """Every bracket is one centred-moment reduction in an operator's eigenbasis."""

    def kerr(self):
        return build_kerr(0.3, 1.0, 0.5, 50)

    def test_diagonal_terms_vanish_exactly_on_fock_states(self):
        dec, _ = self.kerr()
        fock = np.eye(dec.dim, dtype=complex)  # column n is |n>
        for h in dec.terms[:2]:  # detuning and kerr are diagonal
            assert h.eig[1] is None
            assert np.all(double_commutator_norms(h, fock) == 0.0)
            assert np.all(centred_moments(h, fock)[0] == 0.0)

    def test_high_fock_superpositions_match_the_oracle(self):
        # large, nearly equal eigenvalues: the raw moments' formula
        # sqrt(6<H^2>^2 - 8<H><H^3> + 2<H^4>) cancels there and misses rel 1e-12
        dec, st = self.kerr()
        rng = np.random.default_rng(12)
        states = [basis_state("(|47⟩+|49⟩)/√2", st), basis_state("(|30⟩+|49⟩)/√2", st)]
        for _ in range(6):
            v = np.zeros(dec.dim, dtype=complex)
            v[30:] = rng.normal(size=20) + 1j * rng.normal(size=20)
            states.append(pure_state(v / np.linalg.norm(v)))
        block = np.array([s.data for s in states]).T
        for h in (dec.total_operator, *dec.terms):
            got = double_commutator_norms(h, block)
            want = [double_commutator_norm(h, s) for s in states]
            assert got == pytest.approx(want, rel=1e-12), h.label

    def test_collective_bracket_is_conserved_along_shipped_trajectories(self):
        # the exact evolution conserves every moment of H, so ||L_H^2(rho_i)|| is one number per run
        assert CONFIGS
        for path in CONFIGS:
            ctx = _Context(load_config(path))
            total = ctx.decomp.drop_zero_terms().total_operator
            for idx in range(len(ctx.points)):
                norms = double_commutator_norms(total, ctx.exact(idx).T)
                assert np.ptp(norms) <= 1e-12 * norms.max(), (path.name, idx)

    def test_pair_commutator_is_eigendecomposed_once(self, monkeypatch):
        seen, eigensystem = [], linalg._eigensystem

        def counted(m):
            seen.append(m)
            return eigensystem(m)

        monkeypatch.setattr(linalg, "_eigensystem", counted)
        cfg = config_from_dict({"model": "mfim", "plan": {"mode": "fixed_t", "t": 0.2,
                                                           "dt_list": [0.01, 0.02, 0.04, 0.05, 0.1]}})
        ctx = _Context(cfg)
        decomp, reports = cli._compute_bounds(ctx)
        assert len(reports) == 5
        assert sum(m is decomp.pair_commutator.matrix for m in seen) == 1
        assert len({id(m) for m in seen}) == len(seen)  # no operator is decomposed twice


class TestReportedBounds:
    def test_brackets_start_from_the_initial_state(self):
        # step k's bracket is taken on the state it starts from: psi_0 first, psi_{N-1} last
        assert CONFIGS
        for path in CONFIGS:
            ctx = _Context(load_config(path))
            decomp, reports = cli._compute_bounds(ctx)
            for idx, report in enumerate(reports):
                exact = ctx.exact(idx)
                want = dense_per_step(decomp, [ctx.state0.ket(), exact[-2]])
                for key, values in report.per_step.items():
                    assert len(values) == len(exact)
                    got = [values[0], values[-1]]
                    assert got == pytest.approx(want[key].tolist(), rel=1e-12), (path.name, idx, key)
