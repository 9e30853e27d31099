import numpy as np
import pytest

from arcsim.hamiltonians import PAULI, HilbertStructure, annihilator, basis_state, build_kerr, build_mfim, build_rabi
from arcsim.linalg import HermitianOperator, QuantumState, basis_coordinates, mixed_state, pure_state
from arcsim.moments import (
    FD_WEIGHTS,
    MAX_NOISE_STD,
    NoiseModel,
    double_commutator_norm,
    double_commutator_norms,
    moment_block,
    norm_finite_difference,
    norms_from_moments,
)
from arcsim.rng import trajectory_stream
from arcsim.selftest import check_finite_difference, check_moment_formula, expm, random_hermitian
from arcsim.selftest import random_mixed, random_pure

SZ = PAULI["z"]
PLUS = pure_state(np.array([1, 1]) / np.sqrt(2))
ZERO = pure_state(np.array([1, 0], dtype=complex))


def moments(h, state):
    """<H^k>, k = 1..4, of one pure state through the block kernel."""
    return moment_block(h, basis_coordinates(h, state.data[:, None]))[:, 0]


def evolve_density(rho, h, tau):
    """The density matrix U rho U^dag, U = exp(-i h tau)."""
    u = expm(h.matrix, tau)
    return QuantumState(u @ rho.data @ u.conj().T)


def six_scalar_fd(h, rho, dt, errors=None):
    """The finite-difference estimator as measured: six purity/overlap scalars, summed in clongdouble.

    rho1 = exp(+iH dt) rho exp(-iH dt), rho2 its time reverse; `errors` are
    the six scalars' additive measurement errors.
    """
    r0 = rho.density()
    r1 = evolve_density(rho, h, -dt).density()
    r2 = evolve_density(rho, h, dt).density()

    def tr(a, b):
        return np.einsum("ij,ji->", a.astype(np.clongdouble), b.astype(np.clongdouble)).real

    scalars = np.array(
        [tr(r1, r1), tr(r2, r2), tr(r0, r0), tr(r1, r2), tr(r1, r0), tr(r2, r0)], dtype=np.longdouble
    )
    if errors is not None:
        scalars = (scalars.astype(float) + errors).astype(np.longdouble)
    weights = np.array([1.0, 1.0, 4.0, 2.0, -4.0, -4.0], dtype=np.longdouble)
    return float(np.sqrt(max(float(weights @ scalars), 0.0)) / dt**2)


class TestExactOracle:
    def test_eigenstate_vanishes(self):
        assert double_commutator_norm(HermitianOperator(SZ), ZERO) == pytest.approx(0.0)

    def test_plus_state(self):
        val = double_commutator_norm(HermitianOperator(SZ), PLUS)
        assert val == pytest.approx(2 * np.sqrt(2))

    def test_maximally_mixed_vanishes(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 4)
        rho = mixed_state(np.eye(4) / 4)
        assert double_commutator_norm(h, rho) == pytest.approx(0.0, abs=1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 4)
        psi = random_pure(rng, 4)
        base = double_commutator_norm(h, psi)
        scaled = double_commutator_norm(HermitianOperator(2.5 * h.matrix), psi)
        assert scaled == pytest.approx(2.5**2 * base, rel=1e-10)

    def test_vanishes_when_commuting(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 4)
        # rho diagonal in H's eigenbasis commutes with H
        _, v = h.eig
        rho = mixed_state((v * [0.4, 0.3, 0.2, 0.1]) @ v.conj().T)
        assert double_commutator_norm(h, rho) == pytest.approx(0.0, abs=1e-10)


class TestMoments:
    def test_sigma_z_on_plus(self):
        ms = moments(HermitianOperator(SZ), PLUS)
        assert tuple(ms) == pytest.approx((0, 1, 0, 1), abs=1e-12)

    def test_number_eigenstate(self):
        st = HilbertStructure(fock_dim=8)
        a = annihilator(st)
        n_op = HermitianOperator(a.conj().T @ a)
        ket5 = np.zeros(8, dtype=complex)
        ket5[5] = 1.0
        ms = moments(n_op, pure_state(ket5))
        assert tuple(ms) == pytest.approx((5, 25, 125, 625), rel=1e-12)

    def test_noisy_regression(self):
        # frozen replay of the seeded noise stream
        rng = trajectory_stream(12345, 1, 2).step(3)
        m1, m2, m3, m4 = NoiseModel(0.1).perturb(moments(HermitianOperator(SZ), PLUS), rng)
        assert m1 == pytest.approx(0.0476242529156749, rel=1e-12)
        assert m2 == pytest.approx(0.9749671178789511, rel=1e-12)
        assert m3 == pytest.approx(0.03739973514868052, rel=1e-12)
        assert m4 == pytest.approx(1.070985545893037, rel=1e-12)

    def test_zero_noise_is_bit_exact(self):
        rng = trajectory_stream(1).step(0)
        exact = moments(HermitianOperator(SZ), PLUS)
        noisy = NoiseModel(0.0).perturb(moments(HermitianOperator(SZ), PLUS), rng)
        assert tuple(exact) == tuple(noisy)

    def test_cauchy_schwarz_on_noiseless_moments(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = random_hermitian(rng, 6)
            m1, m2, _, m4 = moments(h, random_pure(rng, 6))
            assert m2 >= m1**2 - 1e-9
            assert m4 >= m2**2 - 1e-9


class TestNormFromMoments:
    def test_matches_plus_state_oracle(self):
        assert norms_from_moments(np.array([0.0, 1, 0, 1])) == pytest.approx(2 * np.sqrt(2))

    def test_eigenstate_moments(self):
        assert norms_from_moments(np.array([1.0, 1, 1, 1])) == 0.0

    def test_clamps_negative_radicand(self):
        assert norms_from_moments(np.array([0.0, 0, 0, -0.005])) == 0.0

    @pytest.mark.parametrize("build, args", [(build_kerr, (0.3, 1.0, 0.5, 50)), (build_rabi, (1.0, 1.0, 0.2, 50))])
    def test_exactly_zero_on_fock_states(self, build, args):
        # the raw radicand cancels to rounding here: 51 (term, state) pairs came out 2.6e-9 to 7.8e-3
        dec, _ = build(*args)
        block = np.eye(dec.dim, dtype=complex)  # every Fock state, one column each
        zeros = 0
        for h in dec.terms:
            got = norms_from_moments(moment_block(h, basis_coordinates(h, block)).T)
            want = double_commutator_norms(h, block)
            zero = want == 0.0
            assert np.all(got[zero] == 0.0), (h.label, np.flatnonzero(got[zero]))
            np.testing.assert_allclose(got[~zero], want[~zero], rtol=1e-12, atol=0)
            zeros += zero.sum()
        assert zeros > 0

    def test_oracle_equivalence_random(self):
        within, worst = check_moment_formula(np.random.default_rng(4), dims=(2, 4, 8, 16), count=10)
        assert within, worst


class TestFiniteDifference:
    def test_plus_state(self):
        rho = mixed_state(np.outer([1, 1], [1, 1]) / 2)
        est = norm_finite_difference(HermitianOperator(SZ), rho, dt=1e-3)
        assert est == pytest.approx(2 * np.sqrt(2), rel=1e-5)

    def test_maximally_mixed(self):
        rho = mixed_state(np.eye(2) / 2)
        assert norm_finite_difference(HermitianOperator(SZ), rho, dt=1e-3) <= 1e-8

    def test_commuting_diagonal_term_is_exactly_zero(self):
        dec, st = build_mfim(3, 1.0, 0.5, 0.3)
        rho = mixed_state(0.7 * basis_state("011", st).density() + 0.3 * np.eye(8) / 8)
        for h in (term for term in dec.terms if term.eig[1] is None):  # zz and z
            for dt in (1e-2, 1e-3, 1e-5):
                assert norm_finite_difference(h, rho, dt) == 0.0, (h.label, dt)

    def test_halving_dt_quarters_error(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4, scale=2.0)
        rho = random_mixed(rng, 4)
        exact = double_commutator_norm(h, rho)
        e1 = abs(norm_finite_difference(h, rho, dt=2e-3) - exact)
        e2 = abs(norm_finite_difference(h, rho, dt=1e-3) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)

    def test_convergence_slope(self):
        converges, worst, slopes = check_finite_difference(np.random.default_rng(6), count=5)
        assert converges, (worst, slopes)

    def test_rejects_nonpositive_dt(self):
        rho = mixed_state(np.eye(2) / 2)
        with pytest.raises(ValueError):
            norm_finite_difference(HermitianOperator(SZ), rho, dt=0.0)

    def test_noise_perturbs_six_scalars(self):
        rho = mixed_state(np.outer([1, 1], [1, 1]) / 2)
        h = HermitianOperator(SZ)
        errors = trajectory_stream(7).step(0).normal(0, 1e-6, size=6)
        noisy = norm_finite_difference(h, rho, dt=1e-2, errors=errors)
        assert noisy != norm_finite_difference(h, rho, dt=1e-2)
        assert noisy == pytest.approx(six_scalar_fd(h, rho, 1e-2, errors), rel=1e-8)

    def test_matches_six_scalar_definition(self):
        rng = np.random.default_rng(11)
        for case in range(10):
            h = random_hermitian(rng, 4, scale=2.0)
            if case % 2:  # a diagonal term, which the closed form takes without a basis change
                h = HermitianOperator(np.diag(h.eig[0]))
            rho = random_mixed(rng, 4)
            for dt in (1e-2, 1e-3):
                # std 1e-6 errors, signed to raise the radicand, so neither form clamps it to 0
                errors = np.sign(FD_WEIGHTS) * np.abs(rng.normal(0.0, 1e-6, size=6))
                for e in (None, errors):
                    want = six_scalar_fd(h, rho, dt, e)
                    assert norm_finite_difference(h, rho, dt, e) == pytest.approx(want, rel=1e-8)

    def test_accurate_at_small_dt(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            h = random_hermitian(rng, 4, scale=2.0)
            rho = random_mixed(rng, 4)
            exact = double_commutator_norm(h, rho)
            assert norm_finite_difference(h, rho, dt=1e-5) == pytest.approx(exact, rel=1e-6)


class TestNoiseModel:
    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)

    def test_std_is_finite_and_capped(self):
        # NaN would read as no noise, and inf or a huge std overflows the radicands into NaN
        # and a bool is no std: True would read as std 1
        for std in (float("nan"), float("inf"), -float("inf"), 1e101, True, False, np.True_):
            with pytest.raises(ValueError, match="noise std must be from 0 to 1e"):
                NoiseModel(std)
        for std in (0.0, MAX_NOISE_STD):
            assert NoiseModel(std).std == std

    def test_requires_generator_when_noisy(self):
        with pytest.raises(ValueError):
            NoiseModel(0.1).perturb(np.zeros(3))
