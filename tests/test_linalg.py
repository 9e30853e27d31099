from pathlib import Path

import numpy as np
import pytest

from arcsim.harness import build_model, load_config
from arcsim.hamiltonians import PAULI, I2, annihilator, build_mfim, HilbertStructure
from arcsim.linalg import (
    HermitianOperator,
    commutator,
    evolve_unitary,
    fidelity,
    hs_norm,
    kron,
    mixed_state,
    pure_state,
)

SX, SY, SZ = PAULI["x"], PAULI["y"], PAULI["z"]
PLUS = np.array([1, 1]) / np.sqrt(2)
MINUS = np.array([1, -1]) / np.sqrt(2)


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * (m + m.conj().T) / 2)


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(v / np.linalg.norm(v))


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal_product(self):
        assert np.allclose(np.diag(kron(SZ, SZ)), [1, -1, -1, 1])

    def test_basis_action(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(kron(SX, I2) @ ket00, [0, 0, 1, 0])  # |00> -> |10>


class TestCommutator:
    def test_pauli_algebra(self):
        assert np.allclose(commutator(SX, SY), 2j * SZ)

    def test_self_commutator(self):
        assert np.allclose(commutator(SZ, SZ), 0)

    def test_z_with_plus_projector(self):
        # direct 2x2 arithmetic: |-><+| - |+><-|
        rho = np.outer(PLUS, PLUS)
        expected = np.outer(MINUS, PLUS) - np.outer(PLUS, MINUS)
        assert np.allclose(commutator(SZ, rho), expected)
        assert np.allclose(commutator(SZ, rho), [[0, 1], [-1, 0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(SZ, np.eye(3))


class TestHsNormInner:
    def test_norm_identity(self):
        assert hs_norm(I2) == pytest.approx(np.sqrt(2))

    def test_norm_zero(self):
        assert hs_norm(np.zeros((3, 3))) == 0.0

    def test_norm_projector_combination(self):
        m = 2 * np.outer(PLUS, PLUS) - 2 * np.outer(MINUS, MINUS)
        assert hs_norm(m) == pytest.approx(2 * np.sqrt(2))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = random_hermitian(rng, 6).matrix
            b = random_hermitian(rng, 6).matrix
            assert hs_norm(a + b) <= hs_norm(a) + hs_norm(b) + 1e-12

    def test_norm_squared_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h = random_hermitian(rng, 8)
            ev_sum = float(np.sum(h.eig.eigenvalues ** 2))
            assert hs_norm(h.matrix) ** 2 == pytest.approx(ev_sum, rel=1e-8)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_symmetrizes_within_tolerance(self):
        m = SZ + np.array([[0, 1e-12], [-1e-12, 0]])
        h = HermitianOperator(m)
        assert np.allclose(h.matrix, h.matrix.conj().T)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[np.nan, 0], [0, 1]], dtype=complex))


class TestEig:
    def test_roundtrip_up_to_dim_128(self):
        rng = np.random.default_rng(5)
        for dim in (2, 16, 64, 128):
            h = random_hermitian(rng, dim)
            eig = h.eig
            recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
            scale = np.max(np.abs(h.matrix))
            assert np.max(np.abs(recon - h.matrix)) <= 1e-8 * scale
            assert np.max(np.abs(eig.eigenvectors.conj().T @ eig.eigenvectors - np.eye(dim))) <= 1e-10
            assert np.all(np.diff(eig.eigenvalues) >= 0)


class TestSchattenInf:
    def test_pauli(self):
        assert HermitianOperator(SZ).schatten_inf == pytest.approx(1.0)

    def test_mfim_transverse_term(self):
        # -J h_x sum_i sigma_x^i at L=4, J=1, h_x=0.5: exact diagonalization
        dec, _ = build_mfim(4, 1.0, 0.5, 0.3)
        assert dec.terms[1].schatten_inf == pytest.approx(2.0)

    def test_number_operator(self):
        st = HilbertStructure(fock_dim=7)
        a = annihilator(st)
        n_op = HermitianOperator(a.conj().T @ a)
        assert n_op.schatten_inf == pytest.approx(6.0)

    def test_diagonal_terms_skip_eigh(self):
        # every shipped model's diagonal terms: max |diagonal| equals the eigen-based value exactly
        configs = Path(__file__).resolve().parents[1] / "configs"
        diagonal = 0
        for path in sorted(configs.glob("*.json")):
            dec, _ = build_model(load_config(path))
            for h in dec.terms:
                if h.diagonal is None:
                    continue
                diagonal += 1
                value = h.schatten_inf
                assert "eig" not in vars(h), (path.name, h.label)  # no eigendecomposition built
                assert value == float(np.max(np.abs(h.eig.eigenvalues))), (path.name, h.label)
        assert diagonal == 12


class TestEvolve:
    def test_tau_zero_identity(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 4)
        psi = random_pure(rng, 4)
        out = evolve_unitary(psi, h, 0.0)
        assert np.allclose(out.data, psi.data)

    def test_pi_half_rotation(self):
        h = HermitianOperator(SZ)
        out = evolve_unitary(pure_state(PLUS), h, np.pi / 2)
        assert fidelity(pure_state(MINUS), out) == pytest.approx(1.0)

    def test_purity_preserved_for_mixed(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 3)
        rho = mixed_state(np.diag([0.5, 0.3, 0.2]).astype(complex))
        out = evolve_unitary(rho, h, 0.37)
        purity = np.trace(rho.data @ rho.data).real
        assert np.trace(out.data @ out.data).real == pytest.approx(purity, abs=1e-10)

    def test_preserves_hs_inner(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 4)
        r1 = random_pure(rng, 4).density()
        r2 = random_pure(rng, 4).density()
        before = np.trace(r1 @ r2).real
        e1 = evolve_unitary(mixed_state(r1), h, 0.9)
        e2 = evolve_unitary(mixed_state(r2), h, 0.9)
        assert np.trace(e1.data @ e2.data).real == pytest.approx(before, abs=1e-8)

    def test_dimension_mismatch(self):
        h = HermitianOperator(SZ)
        with pytest.raises(ValueError):
            evolve_unitary(random_pure(np.random.default_rng(0), 4), h, 0.1)

    def test_matches_pade_exponential(self):
        # independent route: scipy's Pade expm instead of the eigenbasis, on
        # dense and diagonal operators and on pure and mixed states
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(10)
        for _ in range(5):
            dense = random_hermitian(rng, 6)
            diagonal = HermitianOperator(np.diag(rng.normal(size=6)))
            assert diagonal.diagonal is not None and dense.diagonal is None
            psi = random_pure(rng, 6)
            w = rng.dirichlet(np.ones(3))
            rho = mixed_state(sum(wk * random_pure(rng, 6).density() for wk in w))
            tau = rng.uniform(-2, 2)
            for h in (dense, diagonal):
                u = expm(-1j * h.matrix * tau)
                ours = evolve_unitary(psi, h, tau).data
                assert np.max(np.abs(u @ psi.data - ours)) <= 1e-12
                ours = evolve_unitary(rho, h, tau).data
                assert np.max(np.abs(u @ rho.data @ u.conj().T - ours)) <= 1e-12


class TestFidelity:
    def test_self(self):
        psi = random_pure(np.random.default_rng(9), 5)
        assert fidelity(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        zero = pure_state(np.array([1, 0], dtype=complex))
        one = pure_state(np.array([0, 1], dtype=complex))
        assert fidelity(zero, one) == 0.0

    def test_against_maximally_mixed(self):
        zero = pure_state(np.array([1, 0], dtype=complex))
        assert fidelity(zero, mixed_state(np.eye(2) / 2)) == pytest.approx(0.5)

    def test_requires_pure_target(self):
        rho = mixed_state(np.eye(2) / 2)
        with pytest.raises(ValueError):
            fidelity(rho, rho)


class TestStateValidation:
    def test_pure_norm_enforced(self):
        with pytest.raises(ValueError):
            pure_state(np.array([1.0, 1.0]))

    def test_mixed_trace_enforced(self):
        with pytest.raises(ValueError):
            mixed_state(np.eye(2))

    def test_mixed_positivity_enforced(self):
        with pytest.raises(ValueError):
            mixed_state(np.diag([1.5, -0.5]).astype(complex))
