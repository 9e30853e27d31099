"""Dense complex linear algebra: states, Hermitian operators, eigenbases, evolution.

Everything is a plain dense ndarray under the hood; target dimensions are
small (<= a few hundred), so no sparsity machinery. An operator's one
eigenbasis is HermitianOperator.eig, the (values, vectors) pair that every
kernel here and in moments and compilers reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_ATOL = 1e-10


def as_complex_matrix(entries) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _hermitian_matrix(entries, what: str) -> np.ndarray:
    """as_complex_matrix(entries) symmetrized, (m + m^dag) / 2, if within HERMITICITY_ATOL of Hermitian."""
    m = as_complex_matrix(entries)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITICITY_ATOL:
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e})")
    return (m + m.conj().T) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, a-index major (row-major block layout)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(Tr(A^dag A)) (Frobenius norm)."""
    return float(np.linalg.norm(a))


def _eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, ascending) and unitary eigenvector matrix (columns) of a dense m."""
    vals, vecs = np.linalg.eigh(m)
    scale = float(np.max(np.abs(m)))
    recon_err = float(np.max(np.abs((vecs * vals) @ vecs.conj().T - m)))
    if recon_err > 1e-8 * scale + 1e-14:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed to reconstruct input (error {recon_err:.3e})"
        )
    ortho_err = float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(m.shape[0]))))
    if ortho_err > 1e-10:
        raise np.linalg.LinAlgError(f"eigenvectors not unitary (error {ortho_err:.3e})")
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return vals, vecs


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A labeled Hermitian matrix.

    Inputs within 1e-10 of Hermitian are symmetrized; anything farther is
    rejected. The eigendecomposition and Schatten-inf norm are computed once
    and cached, so repeated time evolution under the same operator costs
    O(dim^2) per step.
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = _hermitian_matrix(self.matrix, f"matrix {self.label!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(eigenvalues, eigenvectors), computed once; eigenvectors None for an exactly diagonal matrix.

        A diagonal matrix's eigenbasis is the computational basis: its
        eigenvalues are its real diagonal, in order, with no eigh, and the
        block kernels apply it to states without a basis change. Any other
        matrix takes _eigensystem's ascending eigenvalues and unitary columns.
        """
        d = np.diag(self.matrix)
        if not np.array_equal(self.matrix, np.diag(d)):
            return _eigensystem(self.matrix)
        d = d.real.copy()
        d.flags.writeable = False
        return d, None

    @cached_property
    def schatten_inf(self) -> float:
        """Largest absolute eigenvalue (largest singular value for Hermitian input)."""
        return float(np.max(np.abs(self.eig[0])))


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Pure state vector (1-d data) or density matrix (2-d data).

    A density matrix must be Hermitian within HERMITICITY_ATOL, of trace 1
    within 1e-10 and PSD within 1e-10 (no eigenvalue below -1e-10); it is
    symmetrized and divided by its trace once. A vector's norm must be 1
    within 1e-8, which the engine's final states meet; pure_state asks 1e-10
    of external inputs.
    """

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        if d.ndim == 1:
            nrm = float(column_norms(d.reshape(-1, 1))[0])
            if not np.isfinite(nrm) or abs(nrm - 1.0) > 1e-8:
                raise ValueError(f"pure state norm {nrm} too far from 1")
            d = d / nrm
        elif d.ndim == 2:
            d = _hermitian_matrix(d, "density matrix")
            tr = float(np.trace(d).real)
            if abs(tr - 1.0) > 1e-10:
                raise ValueError(f"density matrix trace {tr} is not 1 within 1e-10")
            min_eig = float(np.min(np.linalg.eigvalsh(d)))
            if min_eig < -1e-10:
                raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
            d = d / tr
        else:
            raise ValueError("state data must be a vector or a square matrix")
        d.flags.writeable = False
        object.__setattr__(self, "data", d)

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def density(self) -> np.ndarray:
        """Density-matrix view of the state."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def ket(self) -> np.ndarray:
        """The amplitude vector of a pure state; a density matrix raises ValueError."""
        if not self.is_pure:
            raise ValueError("expected a pure state, got a density matrix")
        return self.data


def pure_state(vector) -> QuantumState:
    """Pure state from a vector; norm must already be 1 within 1e-10."""
    v = np.asarray(vector, dtype=complex)
    if v.ndim != 1:
        raise ValueError("pure state expects a 1-d amplitude vector")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"vector norm {nrm} is not 1 within 1e-10")
    return QuantumState(v / nrm)


def mixed_state(matrix) -> QuantumState:
    """Density matrix from a square matrix; QuantumState checks Hermiticity, trace and PSD at 1e-10."""
    return QuantumState(as_complex_matrix(matrix))


def column_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a (dim, M) block of state vectors."""
    return np.sqrt(np.add.reduce(block.real * block.real + block.imag * block.imag, axis=0))


def basis_coordinates(h: HermitianOperator, block: np.ndarray) -> np.ndarray:
    """Columns of a (dim, M) block in h's eigenbasis: V^dag block (block itself if h is diagonal)."""
    vectors = h.eig[1]
    return block if vectors is None else vectors.conj().T @ block


def rotate_coordinates(h: HermitianOperator, coords: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(-i h tau_m) applied to column m, given the block's basis_coordinates under h.

    The phases exp(-i e tau) = cos(e tau) - i sin(e tau) are written into
    one complex array. One coords column serves every tau. The result is not
    renormalized.
    """
    values, vectors = h.eig
    angle = values[:, None] * taus
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.negative(np.sin(angle, out=out.imag), out=out.imag)
    out *= coords
    return out if vectors is None else vectors @ out


def fidelities(target: np.ndarray, block: np.ndarray) -> np.ndarray:
    """|<target|psi_m>|^2 for each column psi_m of a block, clipped to [0, 1]."""
    return np.clip(np.abs(target.conj() @ block) ** 2, 0.0, 1.0)
