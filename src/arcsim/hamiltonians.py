"""Benchmark Hamiltonians and the Pauli / truncated-boson operator toolkit.

Three models, each split into the three named terms used by the benchmark
protocols: a mixed-field Ising chain (periodic boundary), a driven Kerr
oscillator on a truncated Fock space, and the Rabi model coupling one Fock
mode to one qubit.

Conventions, fixed globally:
  * sigma_z|0> = +|0>; a qubit ket string reads left to right with the
    leftmost site most significant, so "0011" on four sites is basis index 3.
  * Hybrid spaces order the Fock factor first, qubit factors after;
    "|n,q>" means (Fock level n, qubit string q).
  * Bosonic operators are hard-truncated D x D matrices: the creation
    operator annihilates the top level |D-1>.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import HermitianOperator, QuantumState, kron, pure_state

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class HilbertStructure:
    """Tensor layout of the simulated space: one optional Fock mode, then qubits."""

    qubit_sites: int = 0
    fock_dim: int = 0

    def __post_init__(self):
        if self.qubit_sites < 0 or self.fock_dim < 0:
            raise ValueError("qubit_sites and fock_dim must be nonnegative")
        if self.fock_dim == 1:
            raise ValueError("a Fock mode needs truncation dimension >= 2")
        if self.dim < 2:
            raise ValueError("total Hilbert dimension must be >= 2")

    @property
    def dim(self) -> int:
        return max(self.fock_dim, 1) * 2**self.qubit_sites


@dataclass(frozen=True, eq=False)
class Decomposition:
    """An ordered split H = sum_j H_j with cached per-term eigensystems and norms."""

    terms: tuple[HermitianOperator, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("decomposition needs at least one term")
        dims = {t.dim for t in terms}
        if len(dims) != 1:
            raise ValueError(f"terms have mismatched dimensions {sorted(dims)}")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return self.terms[0].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    @cached_property
    def inf_norms(self) -> tuple[float, ...]:
        return tuple(t.schatten_inf for t in self.terms)

    @property
    def lam(self) -> float:
        """Absolute sum of term strengths, sum_j ||H_j||_inf."""
        return float(sum(self.inf_norms))

    def total(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for t in self.terms:
            out = out + t.matrix
        return out

    @cached_property
    def total_operator(self) -> HermitianOperator:
        return HermitianOperator(self.total(), label="total")

    @cached_property
    def pair_commutator(self) -> HermitianOperator:
        """A = i sum_{j<k} [H_j, H_k] as i(P - P^dag), P = sum_j H_j sum_{k>j} H_k: exactly Hermitian."""
        p = np.zeros((self.dim, self.dim), dtype=complex)
        for j in range(1, len(self.terms)):
            p += self.terms[j - 1].matrix @ sum(t.matrix for t in self.terms[j:])
        return HermitianOperator(1j * (p - p.conj().T), label="pair commutator")

    def drop_zero_terms(self) -> "Decomposition":
        """Copy without terms whose Schatten-inf norm is 0; self, with its cached operators, if none is."""
        kept = tuple(t for t, n in zip(self.terms, self.inf_norms) if n > 0.0)
        return self if len(kept) == len(self) else Decomposition(kept)


def _embed_qubit_ops(site_ops: dict[int, np.ndarray], structure: HilbertStructure) -> np.ndarray:
    """Tensor single-qubit operators into the full space (identity elsewhere)."""
    out = np.eye(max(structure.fock_dim, 1), dtype=complex)
    for site in range(structure.qubit_sites):
        out = kron(out, site_ops.get(site, I2))
    return out


def annihilator(structure: HilbertStructure) -> np.ndarray:
    """Truncated annihilation operator on the Fock factor: a|n> = sqrt(n)|n-1>."""
    d = structure.fock_dim
    if d < 2:
        raise ValueError("structure has no Fock mode (fock_dim >= 2 required)")
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(n)
    return a


def build_mfim(L: int, J: float, h_x: float, h_z: float) -> tuple[Decomposition, HilbertStructure]:
    """Mixed-field Ising chain, periodic boundary, split into zz / x / z terms.

    H = -J sum_i [sigma_z^i sigma_z^(i+1) + h_x sigma_x^i + h_z sigma_z^i],
    with site L+1 identified with site 1.
    """
    if L < 2:
        raise ValueError("chain length must be >= 2")
    structure = HilbertStructure(qubit_sites=L)
    dim = structure.dim
    h_zz = np.zeros((dim, dim), dtype=complex)
    hx = np.zeros((dim, dim), dtype=complex)
    hz = np.zeros((dim, dim), dtype=complex)
    for i in range(L):
        h_zz += _embed_qubit_ops({i: PAULI["z"], (i + 1) % L: PAULI["z"]}, structure)
        hx += _embed_qubit_ops({i: PAULI["x"]}, structure)
        hz += _embed_qubit_ops({i: PAULI["z"]}, structure)
    terms = (
        HermitianOperator(-J * h_zz, label="zz"),
        HermitianOperator(-J * h_x * hx, label="x"),
        HermitianOperator(-J * h_z * hz, label="z"),
    )
    return Decomposition(terms), structure


def build_kerr(delta: float, K: float, eps: float, D: int) -> tuple[Decomposition, HilbertStructure]:
    """Driven Kerr oscillator on a D-level Fock space.

    H = delta a^dag a + (K/2) a^dag a^dag a a + eps (a + a^dag); the three
    summands are the decomposition terms, in that order.
    """
    structure = HilbertStructure(fock_dim=D)
    a = annihilator(structure)
    adag = a.conj().T
    terms = (
        HermitianOperator(delta * (adag @ a), label="detuning"),
        HermitianOperator(0.5 * K * (adag @ adag @ a @ a), label="kerr"),
        HermitianOperator(eps * (a + adag), label="drive"),
    )
    return Decomposition(terms), structure


def build_rabi(omega: float, Omega: float, g: float, D: int) -> tuple[Decomposition, HilbertStructure]:
    """Rabi model: one D-level Fock mode coupled to one qubit (Fock factor first).

    H = omega a^dag a + (Omega/2) sigma_z + g (a + a^dag) sigma_x.
    """
    structure = HilbertStructure(qubit_sites=1, fock_dim=D)
    a = annihilator(structure)
    adag = a.conj().T
    eye_d = np.eye(D, dtype=complex)
    terms = (
        HermitianOperator(omega * kron(adag @ a, I2), label="field"),
        HermitianOperator(0.5 * Omega * kron(eye_d, PAULI["z"]), label="qubit"),
        HermitianOperator(g * kron(a + adag, PAULI["x"]), label="coupling"),
    )
    return Decomposition(terms), structure


_NUM = r"\d+(?:\.\d+)?"
# each optional part owns the \s* after it: a run of spaces then matches one way, so a failed match backtracks linearly
_KET = re.compile(rf"\s*(?:(?P<sign>[+-])\s*)?(?:(?P<coef>{_NUM})\s*)?\|(?P<label>[^|⟩>]*)[⟩>]\s*", re.ASCII)
# kets in one pair of outer parentheses, optionally over a normalization: /√n, /sqrt(n) or /n
_OUTER = re.compile(rf"\((?P<kets>[^()]*)\)\s*(?:/\s*(?P<n>√\s*{_NUM}|sqrt\(\s*{_NUM}\s*\)|{_NUM}))?", re.ASCII)


def _basis_index(label: str, structure: HilbertStructure) -> int:
    label = label.strip()
    has_fock = structure.fock_dim >= 2
    has_qubits = structure.qubit_sites > 0
    if has_fock and has_qubits:
        if "," not in label:
            raise ValueError(f"hybrid ket {label!r} must be 'n,qubits' (Fock level, qubit string)")
        fock_part, qubit_part = label.split(",", 1)
        n = _fock_level(fock_part, structure)
        q = _qubit_index(qubit_part, structure)
        return n * 2**structure.qubit_sites + q
    if has_fock:
        return _fock_level(label, structure)
    return _qubit_index(label, structure)


def _fock_level(text: str, structure: HilbertStructure) -> int:
    digits = text.strip()
    # ASCII digits only: int() would also read "1_0" as 10 and "١" as 1
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad Fock level {text!r}")
    n = int(digits)
    if not 0 <= n < structure.fock_dim:
        raise ValueError(f"Fock level {n} outside truncation 0..{structure.fock_dim - 1}")
    return n


def _qubit_index(text: str, structure: HilbertStructure) -> int:
    bits = text.strip()
    if len(bits) != structure.qubit_sites or any(c not in "01" for c in bits):
        raise ValueError(f"qubit string {bits!r} must be {structure.qubit_sites} characters of 0/1")
    return int(bits, 2)


def basis_state(spec: str, structure: HilbertStructure) -> QuantumState:
    """Pure state from a ket string.

    Accepts a bare basis label ("0011", "5", "2,0"), or a sum of kets, each
    with an optional decimal coefficient and each after the first with its own
    + or - ("|0⟩-|2⟩", "2|0⟩+0.5|1⟩"), optionally inside one pair of
    parentheses over /√n, /sqrt(n) or /n with n > 0 ("(|2,0⟩+|5,0⟩)/√2"). ASCII "|n>"
    kets are accepted too. Anything else raises ValueError naming the stray
    text. Amplitudes are normalized after assembly.
    """
    s = spec.strip()
    if not s:
        raise ValueError("empty state spec")
    if "|" not in s:
        terms = [(1.0, s)]
    else:
        outer = _OUTER.fullmatch(s)
        if outer and outer.group("n") and not re.search("[1-9]", outer.group("n")):
            raise ValueError(f"state spec {spec!r} divides by zero; the normalization must be positive")
        kets, terms, pos = (outer.group("kets") if outer else s), [], 0
        while pos < len(kets):  # each ket after the first carries its own sign
            m = _KET.match(kets, pos)
            if m is None or (terms and m.group("sign") is None):
                raise ValueError(f"cannot parse state spec {spec!r} (stray {kets[pos:]!r})")
            coef = float(m.group("coef")) if m.group("coef") else 1.0
            terms.append((-coef if m.group("sign") == "-" else coef, m.group("label")))
            pos = m.end()
    v = np.zeros(structure.dim, dtype=complex)
    for coef, label in terms:
        v[_basis_index(label, structure)] += coef
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-12:
        raise ValueError(f"state spec {spec!r} sums to the zero vector")
    if not np.isfinite(nrm):
        raise ValueError(f"state spec {spec!r} has amplitudes too large to normalize")
    return pure_state(v / nrm)
