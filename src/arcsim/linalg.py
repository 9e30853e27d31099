"""Dense complex linear algebra: states, Hermitian operators, eigensystems, evolution.

Everything is a plain dense ndarray under the hood; target dimensions are
small (<= a few hundred), so no sparsity machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

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


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues (real, ascending) and unitary eigenvector matrix (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigensystem(m: np.ndarray) -> EigenSystem:
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
    return EigenSystem(vals, vecs)


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
        m = as_complex_matrix(self.matrix)
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > HERMITICITY_ATOL:
            raise ValueError(f"matrix {self.label!r} is not Hermitian (max deviation {dev:.3e})")
        m = (m + m.conj().T) / 2
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eig(self) -> EigenSystem:
        """Eigendecomposition, computed once, eigenvalues ascending."""
        return _eigensystem(self.matrix)

    @cached_property
    def diagonal(self) -> np.ndarray | None:
        """The real diagonal if the matrix is exactly diagonal, else None.

        A diagonal operator's eigenbasis is the computational basis, so the
        block kernels apply it to states without a basis change.
        """
        d = np.diag(self.matrix)
        if not np.array_equal(self.matrix, np.diag(d)):
            return None
        d = d.real.copy()
        d.flags.writeable = False
        return d

    @cached_property
    def schatten_inf(self) -> float:
        """Largest absolute eigenvalue (largest singular value for Hermitian input).

        A diagonal matrix's eigenvalues are its diagonal, so it needs no eigh.
        """
        values = self.eig.eigenvalues if self.diagonal is None else self.diagonal
        return float(np.max(np.abs(values)))


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Pure state vector (1-d data) or density matrix (2-d data).

    Construct external inputs through pure_state / mixed_state, which run the
    full invariant checks; the bare constructor does only the cheap ones and
    is what evolution uses internally.
    """

    data: np.ndarray
    structure: Any = None

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        if d.ndim == 1:
            nrm = float(column_norms(d.reshape(-1, 1))[0])
            if not np.isfinite(nrm) or abs(nrm - 1.0) > 1e-8:
                raise ValueError(f"pure state norm {nrm} too far from 1")
            d = d / nrm
        elif d.ndim == 2:
            d = as_complex_matrix(d)
            dev = float(np.max(np.abs(d - d.conj().T)))
            if dev > 1e-8:
                raise ValueError(f"density matrix not Hermitian (deviation {dev:.3e})")
            d = (d + d.conj().T) / 2
            tr = float(np.trace(d).real)
            if abs(tr - 1.0) > 1e-8:
                raise ValueError(f"density matrix trace {tr} too far from 1")
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


def pure_state(vector, structure: Any = None) -> QuantumState:
    """Pure state from a vector; norm must already be 1 within 1e-10."""
    v = np.asarray(vector, dtype=complex)
    if v.ndim != 1:
        raise ValueError("pure state expects a 1-d amplitude vector")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"vector norm {nrm} is not 1 within 1e-10")
    return QuantumState(v / nrm, structure)


def mixed_state(matrix, structure: Any = None) -> QuantumState:
    """Density matrix from a Hermitian, unit-trace, PSD matrix (1e-10 tolerances)."""
    m = as_complex_matrix(matrix)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITICITY_ATOL:
        raise ValueError(f"density matrix not Hermitian (deviation {dev:.3e})")
    m = (m + m.conj().T) / 2
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {tr} is not 1 within 1e-10")
    min_eig = float(np.min(np.linalg.eigvalsh(m)))
    if min_eig < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return QuantumState(m / tr, structure)


def column_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a (dim, M) block of state vectors."""
    return np.sqrt(np.add.reduce(block.real * block.real + block.imag * block.imag, axis=0))


def eigenbasis(h: HermitianOperator) -> tuple[np.ndarray, np.ndarray | None]:
    """(eigenvalues, eigenvectors) of h; eigenvectors None for a diagonal h.

    A diagonal h keeps its diagonal order, so its eigenvalues are the diagonal.
    """
    if h.diagonal is not None:
        return h.diagonal, None
    return h.eig.eigenvalues, h.eig.eigenvectors


def basis_coordinates(h: HermitianOperator, block: np.ndarray) -> np.ndarray:
    """Columns of a (dim, M) block in h's eigenbasis: V^dag block (block itself if h is diagonal)."""
    _, vectors = eigenbasis(h)
    return block if vectors is None else vectors.conj().T @ block


def rotate_coordinates(h: HermitianOperator, coords: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(-i h tau_m) applied to column m, given the block's basis_coordinates under h.

    The phases exp(-i e tau) = cos(e tau) - i sin(e tau) are written into
    one complex array. One coords column serves every tau. The result is not
    renormalized.
    """
    values, vectors = eigenbasis(h)
    angle = values[:, None] * taus
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.negative(np.sin(angle, out=out.imag), out=out.imag)
    out *= coords
    return out if vectors is None else vectors @ out


def evolve_columns(h: HermitianOperator, psi: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i h t) psi for every t in times, as the columns of a (dim, len(times)) block.

    One basis change serves every column: V (exp(-i e t) * V^dag psi).
    """
    return rotate_coordinates(h, basis_coordinates(h, psi[:, None]), times)


def fidelities(target: np.ndarray, block: np.ndarray) -> np.ndarray:
    """|<target|psi_m>|^2 for each column psi_m of a block, clipped to [0, 1]."""
    return np.clip(np.abs(target.conj() @ block) ** 2, 0.0, 1.0)
