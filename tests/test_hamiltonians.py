import re

import numpy as np
import pytest

from arcsim.hamiltonians import (
    Decomposition,
    HilbertStructure,
    I2,
    PAULI,
    annihilator,
    basis_state,
    build_kerr,
    build_mfim,
    build_rabi,
)
from arcsim.hamiltonians import _embed_qubit_ops
from arcsim.linalg import HermitianOperator, commutator, hs_norm, kron


class TestHilbertStructure:
    def test_dims(self):
        assert HilbertStructure(qubit_sites=4).dim == 16
        assert HilbertStructure(fock_dim=50).dim == 50
        assert HilbertStructure(qubit_sites=1, fock_dim=50).dim == 100

    def test_rejects_trivial_space(self):
        with pytest.raises(ValueError):
            HilbertStructure()

    def test_rejects_fock_dim_one(self):
        with pytest.raises(ValueError):
            HilbertStructure(fock_dim=1)


class TestPauliOnSite:
    """Single-site Pauli operators as build_mfim embeds them."""

    def test_first_site_is_leftmost_factor(self):
        st = HilbertStructure(qubit_sites=2)
        op = _embed_qubit_ops({0: PAULI["z"]}, st)
        assert np.allclose(op, kron(PAULI["z"], I2))

    def test_sigma_z_convention_on_0011(self):
        st = HilbertStructure(qubit_sites=4)
        psi = basis_state("0011", st)
        op = _embed_qubit_ops({0: PAULI["z"]}, st)
        val = np.vdot(psi.data, op @ psi.data).real
        assert val == pytest.approx(1.0)  # site 0 holds |0>, sigma_z|0> = +|0>

    def test_x_flips_site_one(self):
        st = HilbertStructure(qubit_sites=2)
        op = _embed_qubit_ops({1: PAULI["x"]}, st)
        ket00 = basis_state("00", st).data
        ket01 = basis_state("01", st).data
        assert np.allclose(op @ ket00, ket01)


class TestAnnihilator:
    def test_lowering_amplitude(self):
        a = annihilator(HilbertStructure(fock_dim=3))
        ket2 = np.array([0, 0, 1], dtype=complex)
        assert np.allclose(a @ ket2, [0, np.sqrt(2), 0])

    def test_kills_vacuum(self):
        a = annihilator(HilbertStructure(fock_dim=3))
        assert np.allclose(a @ np.array([1, 0, 0]), 0)

    def test_number_operator_diagonal(self):
        d = 6
        a = annihilator(HilbertStructure(fock_dim=d))
        assert np.allclose(np.diag(a.conj().T @ a), np.arange(d))

    def test_truncation_corrupts_only_top_level(self):
        d = 8
        a = annihilator(HilbertStructure(fock_dim=d))
        comm = commutator(a, a.conj().T)
        assert np.allclose(comm[: d - 1, : d - 1], np.eye(d - 1))

    def test_requires_fock_mode(self):
        with pytest.raises(ValueError):
            annihilator(HilbertStructure(qubit_sites=2))


def assemble_mfim_directly(L, J, h_x, h_z):
    dim = 2**L
    h = np.zeros((dim, dim), dtype=complex)
    ops = {name: PAULI[name] for name in ("x", "z")}
    for i in range(L):
        factors_zz = [I2] * L
        factors_zz[i] = ops["z"]
        factors_zz[(i + 1) % L] = ops["z"]
        factors_x = [I2] * L
        factors_x[i] = ops["x"]
        factors_z = [I2] * L
        factors_z[i] = ops["z"]
        for factors, coef in ((factors_zz, 1.0), (factors_x, h_x), (factors_z, h_z)):
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            h += -J * coef * term
    return h


class TestBuildMfim:
    def test_figure_configuration(self):
        dec, st = build_mfim(4, 1.0, 0.5, 0.3)
        assert len(dec) == 3
        assert dec.dim == 16 and st.dim == 16

    def test_inf_norms(self):
        dec, _ = build_mfim(4, 1.0, 0.5, 0.3)
        assert np.allclose(dec.inf_norms, (4.0, 2.0, 1.2))

    def test_total_matches_independent_assembly(self):
        dec, _ = build_mfim(4, 1.0, 0.5, 0.3)
        direct = assemble_mfim_directly(4, 1.0, 0.5, 0.3)
        assert np.max(np.abs(dec.total() - direct)) <= 1e-10

    def test_zero_fields(self):
        dec, _ = build_mfim(3, 1.0, 0.0, 0.0)
        assert hs_norm(dec.terms[1].matrix) == 0.0
        assert hs_norm(dec.terms[2].matrix) == 0.0
        assert np.allclose(dec.total(), dec.terms[0].matrix)

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            build_mfim(1, 1.0, 0.5, 0.3)

    def test_tfim_reduction_spin_flip_symmetry(self):
        # h_z = 0 leaves the Hamiltonian invariant under the global spin flip
        dec, st = build_mfim(4, 1.0, 0.7, 0.0)
        flip = np.eye(st.dim, dtype=complex)
        for i in range(4):
            flip = flip @ _embed_qubit_ops({i: PAULI["x"]}, st)
        assert hs_norm(commutator(dec.total(), flip)) <= 1e-10


class TestBuildKerr:
    def test_figure_configuration(self):
        dec, st = build_kerr(0.3, 1.0, 0.5, 50)
        assert len(dec) == 3
        assert dec.dim == 50 and st.dim == 50

    def test_kerr_diagonal(self):
        K = 1.7
        dec, _ = build_kerr(0.3, K, 0.5, 12)
        n = np.arange(12)
        assert np.allclose(np.diag(dec.terms[1].matrix), K * n * (n - 1) / 2)

    def test_zero_drive(self):
        dec, _ = build_kerr(0.3, 1.0, 0.0, 10)
        assert hs_norm(dec.terms[2].matrix) == 0.0

    def test_total_matches_independent_assembly(self):
        delta, K, eps, D = 0.3, 1.0, 0.5, 20
        dec, st = build_kerr(delta, K, eps, D)
        a = annihilator(st)
        direct = delta * a.conj().T @ a + 0.5 * K * a.conj().T @ a.conj().T @ a @ a + eps * (a + a.conj().T)
        assert np.max(np.abs(dec.total() - direct)) <= 1e-10

    def test_truncation_rejected(self):
        with pytest.raises(ValueError):
            build_kerr(0.3, 1.0, 0.5, 1)


class TestBuildRabi:
    def test_figure_configuration(self):
        dec, st = build_rabi(1.0, 1.0, 0.2, 50)
        assert dec.dim == 100 and st.dim == 100

    def test_decoupled_terms_commute(self):
        dec, _ = build_rabi(1.0, 1.0, 0.0, 8)
        assert hs_norm(dec.terms[2].matrix) == 0.0
        assert hs_norm(commutator(dec.terms[0].matrix, dec.terms[1].matrix)) <= 1e-12

    def test_field_expectation(self):
        omega = 1.3
        dec, st = build_rabi(omega, 1.0, 0.2, 50)
        psi = basis_state("2,0", st)
        val = np.vdot(psi.data, dec.terms[0].matrix @ psi.data).real
        assert val == pytest.approx(2 * omega)

    def test_total_matches_independent_assembly(self):
        omega, Om, g, D = 1.0, 1.0, 0.2, 12
        dec, st = build_rabi(omega, Om, g, D)
        a = annihilator(st)
        direct = (
            omega * np.kron(a.conj().T @ a, I2)
            + 0.5 * Om * np.kron(np.eye(D), PAULI["z"])
            + g * np.kron(a + a.conj().T, PAULI["x"])
        )
        assert np.max(np.abs(dec.total() - direct)) <= 1e-10


class TestDecomposition:
    def test_all_terms_hermitian(self):
        for dec in (build_mfim(4, 1, 0.5, 0.3)[0], build_kerr(0.3, 1, 0.5, 10)[0], build_rabi(1, 1, 0.2, 10)[0]):
            for t in dec.terms:
                assert np.max(np.abs(t.matrix - t.matrix.conj().T)) <= 1e-12

    def test_lambda_is_norm_sum(self):
        dec, _ = build_mfim(4, 1.0, 0.5, 0.3)
        assert dec.lam == pytest.approx(sum(dec.inf_norms), rel=1e-10)

    def test_needs_one_term(self):
        with pytest.raises(ValueError):
            Decomposition(())

    def test_dim_mismatch_rejected(self):
        t1 = HermitianOperator(PAULI["z"])
        t2 = HermitianOperator(np.eye(4, dtype=complex))
        with pytest.raises(ValueError):
            Decomposition((t1, t2))

    def test_drop_zero_terms(self):
        dec, _ = build_mfim(3, 1.0, 0.0, 0.3)
        kept = dec.drop_zero_terms()
        assert kept.labels == ("zz", "z")


class TestBasisState:
    def test_qubit_string(self):
        st = HilbertStructure(qubit_sites=4)
        psi = basis_state("0011", st)
        assert np.argmax(np.abs(psi.data)) == 3
        assert psi.data[3] == pytest.approx(1.0)

    def test_fock_superposition(self):
        st = HilbertStructure(fock_dim=50)
        psi = basis_state("(|1⟩+|5⟩)/√2", st)
        assert psi.data[1] == pytest.approx(1 / np.sqrt(2))
        assert psi.data[5] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(np.abs(psi.data) > 1e-12) == 2

    def test_hybrid_superposition(self):
        st = HilbertStructure(qubit_sites=1, fock_dim=50)
        psi = basis_state("(|2,0⟩+|5,0⟩)/√2", st)
        assert psi.data[4] == pytest.approx(1 / np.sqrt(2))
        assert psi.data[10] == pytest.approx(1 / np.sqrt(2))

    def test_ascii_kets(self):
        st = HilbertStructure(fock_dim=10)
        psi = basis_state("(|1>+|5>)/sqrt(2)", st)
        assert psi.data[1] == pytest.approx(1 / np.sqrt(2))

    def test_relative_minus_sign(self):
        st = HilbertStructure(fock_dim=4)
        psi = basis_state("|0⟩-|2⟩", st)
        assert psi.data[0] == pytest.approx(1 / np.sqrt(2))
        assert psi.data[2] == pytest.approx(-1 / np.sqrt(2))

    def test_label_out_of_range(self):
        st = HilbertStructure(fock_dim=5)
        with pytest.raises(ValueError):
            basis_state("|7⟩", st)

    def test_fock_level_ascii_digits_only(self):
        # int() alone would read "1_0" as 10 and the Arabic-Indic "١" as 1
        st = HilbertStructure(qubit_sites=1, fock_dim=50)
        assert np.argmax(np.abs(basis_state("|10,0>", st).data)) == 20
        for spec in ("|1_0,0>", "|١,1>", "|+5,0>", "١|1,0>", "1_0,0", "５,1"):
            with pytest.raises(ValueError):
                basis_state(spec, st)

    def test_oversized_amplitudes_rejected(self):
        st = HilbertStructure(fock_dim=4)
        with pytest.raises(ValueError, match="too large"):
            basis_state("9" * 400 + "|0⟩", st)

    def test_malformed_spec(self):
        st = HilbertStructure(qubit_sites=2)
        with pytest.raises(ValueError):
            basis_state("|01⟩ plus junk", st)

    @pytest.mark.parametrize("spec, stray", [
        ("|0⟩ - 2*|1⟩", "- 2*|1⟩"),  # each was read as (|0⟩+|1⟩)/√2 or (|0⟩+7|1⟩)/√50
        ("|0⟩ - (|1⟩)", "- (|1⟩)"),
        ("|1⟩*3 + |2⟩", "*3 + |2⟩"),
        ("|0⟩ 7 |1⟩", "7 |1⟩"),
        ("|0⟩+|1⟩/√2", "/√2"),
        ("((|0⟩+|1⟩))/√2", "((|0⟩+|1⟩))/√2"),
    ])
    def test_stray_signs_and_factors_rejected(self, spec, stray):
        with pytest.raises(ValueError, match=re.escape(f"(stray {stray!r})")):
            basis_state(spec, HilbertStructure(fock_dim=4))

    @pytest.mark.parametrize("spec", ["(|0⟩+|1⟩)/0", "(|0⟩+|1⟩)/√0", "(|0⟩+|1⟩)/sqrt(0.0)"])
    def test_zero_normalization_rejected(self, spec):
        with pytest.raises(ValueError, match=re.escape(f"state spec {spec!r} divides by zero")):
            basis_state(spec, HilbertStructure(fock_dim=4))

    def test_grammar_coefficients_and_normalizations(self):
        st = HilbertStructure(fock_dim=4)
        r = 1 / np.sqrt(2)
        for spec, want in (("2|0⟩+0.5|1⟩", [2, 0.5, 0, 0]), ("-|0⟩ + 2 |3>", [-1, 0, 0, 2]),
                           ("(|0⟩-|2⟩)/sqrt(2)", [r, 0, -r, 0]), ("( |1⟩ + |2⟩ ) / 2", [0, r, r, 0])):
            want = np.array(want) / np.linalg.norm(want)
            assert np.allclose(basis_state(spec, st).data, want, rtol=0, atol=1e-15), spec

    def test_wrong_qubit_count(self):
        st = HilbertStructure(qubit_sites=3)
        with pytest.raises(ValueError):
            basis_state("01", st)
