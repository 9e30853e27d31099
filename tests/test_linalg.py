from pathlib import Path

import numpy as np
import pytest

from arcsim import linalg
from arcsim.compilers import StepPlan, run_exact
from arcsim.harness import build_model, load_config
from arcsim.hamiltonians import PAULI, I2, annihilator, build_kerr, build_mfim, build_rabi, HilbertStructure
from arcsim.selftest import random_hermitian, random_pure
from arcsim.linalg import (
    HermitianOperator,
    QuantumState,
    _eigensystem,
    basis_coordinates,
    commutator,
    fidelities,
    hs_norm,
    kron,
    mixed_state,
    pure_state,
    rotate_coordinates,
)

SX, SY, SZ = PAULI["x"], PAULI["y"], PAULI["z"]
PLUS = np.array([1, 1]) / np.sqrt(2)
MINUS = np.array([1, -1]) / np.sqrt(2)


def evolve(psi, h, tau):
    """exp(-i h tau) psi through the closed-form kernel, as one column."""
    return rotate_coordinates(h, basis_coordinates(h, psi.data[:, None]), np.array([tau]))[:, 0]


def fidelity(a, b):
    return fidelities(a, b[:, None])[0]


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
            ev_sum = float(np.sum(h.eig[0] ** 2))
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
            values, vectors = h.eig
            recon = (vectors * values) @ vectors.conj().T
            scale = np.max(np.abs(h.matrix))
            assert np.max(np.abs(recon - h.matrix)) <= 1e-8 * scale
            assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(dim))) <= 1e-10
            assert np.all(np.diff(values) >= 0)

    def test_one_cached_pair_per_operator(self, monkeypatch):
        # every term of the three models and random operators: a diagonal one is (diag, None)
        # with no eigendecomposition, a dense one is _eigensystem's pair, each built once
        seen = []

        def counted(m):
            seen.append(m)
            return _eigensystem(m)

        monkeypatch.setattr(linalg, "_eigensystem", counted)
        rng = np.random.default_rng(12)
        models = (build_mfim(4, 1.0, 0.5, 0.3), build_kerr(0.3, 1.0, 0.5, 50), build_rabi(1.0, 1.0, 0.2, 50))
        terms = [h for dec, _ in models for h in dec.terms]
        dense = [h for h in terms if h.label in ("x", "drive", "coupling")]
        diagonal = [h for h in terms if h.label not in ("x", "drive", "coupling")]
        assert len(diagonal) == 6
        dense += [random_hermitian(rng, dim) for dim in (2, 7, 16)]
        diagonal += [HermitianOperator(np.diag(rng.normal(size=dim))) for dim in (2, 7, 16)]
        for h in diagonal:
            values, vectors = h.eig
            assert vectors is None and not seen, h.label
            assert np.array_equal(values, np.diag(h.matrix).real), h.label
            assert h.eig is h.eig
        for h in dense:
            seen.clear()
            values, vectors = h.eig
            assert h.eig is h.eig and [m is h.matrix for m in seen] == [True], h.label
            want_values, want_vectors = _eigensystem(h.matrix)
            assert np.array_equal(values, want_values) and np.array_equal(vectors, want_vectors), h.label


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

    def test_diagonal_terms_skip_eigh(self, monkeypatch):
        # every shipped model's diagonal terms: max |diagonal| equals the eigen-based value exactly
        seen = []
        monkeypatch.setattr(linalg, "_eigensystem", lambda m: seen.append(m) or _eigensystem(m))
        configs = Path(__file__).resolve().parents[1] / "configs"
        diagonal = 0
        for path in sorted(configs.glob("*.json")):
            dec, _ = build_model(load_config(path))
            for h in dec.terms:
                value = h.schatten_inf
                if h.eig[1] is not None:
                    continue
                diagonal += 1
                assert not any(m is h.matrix for m in seen), (path.name, h.label)  # no eigendecomposition built
                assert value == float(np.max(np.abs(_eigensystem(h.matrix)[0]))), (path.name, h.label)
        assert diagonal == 12


class TestEvolve:
    def test_tau_zero_identity(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 4)
        psi = random_pure(rng, 4)
        out = evolve(psi, h, 0.0)
        assert np.allclose(out, psi.data)

    def test_pi_half_rotation(self):
        h = HermitianOperator(SZ)
        out = evolve(pure_state(PLUS), h, np.pi / 2)
        assert fidelity(MINUS, out) == pytest.approx(1.0)

    def test_purity_preserved_for_mixed(self):
        # a mixed state evolves as the ensemble of its pure eigenvectors, as the engine steps it
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 3)
        w = np.array([0.5, 0.3, 0.2])
        out = np.stack([evolve(pure_state(e), h, 0.37) for e in np.eye(3, dtype=complex)], axis=1)
        rho = (out * w) @ out.conj().T
        assert np.trace(rho @ rho).real == pytest.approx(float(w @ w), abs=1e-10)

    def test_preserves_hs_inner(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 4)
        p1, p2 = random_pure(rng, 4), random_pure(rng, 4)
        before = np.trace(p1.density() @ p2.density()).real
        e1, e2 = evolve(p1, h, 0.9), evolve(p2, h, 0.9)
        after = np.trace(np.outer(e1, e1.conj()) @ np.outer(e2, e2.conj())).real
        assert after == pytest.approx(before, abs=1e-8)

    def test_dimension_mismatch(self):
        h = HermitianOperator(SZ)
        with pytest.raises(ValueError):
            run_exact(random_pure(np.random.default_rng(0), 4), h, StepPlan(0.1, 1))

    def test_matches_pade_exponential(self):
        # independent route: scipy's Pade expm instead of the eigenbasis, on
        # dense and diagonal operators
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(10)
        for _ in range(5):
            dense = random_hermitian(rng, 6)
            diagonal = HermitianOperator(np.diag(rng.normal(size=6)))
            assert diagonal.eig[1] is None and dense.eig[1] is not None
            psi = random_pure(rng, 6)
            tau = rng.uniform(-2, 2)
            for h in (dense, diagonal):
                u = expm(-1j * h.matrix * tau)
                assert np.max(np.abs(u @ psi.data - evolve(psi, h, tau))) <= 1e-12


class TestFidelity:
    def test_self(self):
        psi = random_pure(np.random.default_rng(9), 5)
        assert fidelity(psi.data, psi.data) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)) == 0.0

    def test_against_maximally_mixed(self):
        # the ensemble {|0>, |1>} averages to I/2, and its mean fidelity is <0|I/2|0>
        zero = np.array([1, 0], dtype=complex)
        assert fidelities(zero, np.eye(2, dtype=complex)).mean() == pytest.approx(0.5)

    def test_requires_pure_target(self):
        # the exact reference, every fidelity's target, is a pure trajectory
        rho = mixed_state(np.eye(2) / 2)
        with pytest.raises(ValueError, match="expected a pure state"):
            rho.ket()
        with pytest.raises(ValueError, match="expected a pure state"):
            run_exact(rho, HermitianOperator(SZ), StepPlan(1.0, 2))


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

    def test_bare_constructor_checks_every_density_rule(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            QuantumState(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="trace"):
            QuantumState(np.diag([0.5, 0.5 + 1e-9]).astype(complex))
        with pytest.raises(ValueError, match="not Hermitian"):
            QuantumState(np.array([[0.5, 1e-9], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="square"):
            mixed_state(np.array([1.0, 0.0]))

    def test_mixed_state_is_the_bare_constructor(self):
        rng = np.random.default_rng(25)
        for dim in (2, 5, 16):
            vecs = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = vecs @ vecs.conj().T
            m = m / np.trace(m).real
            assert np.array_equal(mixed_state(m).data, QuantumState(m).data)
