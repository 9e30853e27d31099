"""Averaged per-step error bounds for the protocols.

The three circuit-depth bounds share the prefactor t^2/(2N) times the average
over the supplied exact-trajectory states of a per-step bracket:

    trotter1: || sum_{j<k} [L_j, L_k](rho_i) ||
    rc:       || L^2(rho_i) || + lambda * sum_j || L_j^2(rho_i) || / ||H_j||_inf
    arc:      || L^2(rho_i) || + ( sum_j sqrt(|| L_j^2(rho_i) ||) )^2

with L_j(rho) = -i [H_j, rho]. Superoperators are never materialized. The pure
trajectory is one (dim, n) block of states psi_i, and two identities give every
bracket from GEMMs on it, O(dim^2) per state and operator:
    Jacobi:  sum_{j<k} [L_j, L_k](rho) = -[C, rho] with C = sum_{j<k} [H_j, H_k]
             formed once, so the trotter1 bracket is sqrt(2) ||(A - <A>) psi||, A = iC;
    moments: ||L_H^2(rho)|| = sqrt(6 <H'^2>^2 + 2 <H'^4>) with H' = H - <H>.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .compilers import StepPlan
from .hamiltonians import Decomposition
from .linalg import QuantumState
from .moments import double_commutator_norm


@dataclass(eq=False)
class BoundReport:
    """State-dependent depth bounds and their per-step bracket values."""

    trotter1: float
    rc: float
    arc: float
    per_step: dict[str, list[float]]
    total_time: float
    steps: int

    def __post_init__(self):
        if self.arc > self.rc * (1.0 + 1e-9):
            raise np.linalg.LinAlgError(f"adaptive bound {self.arc} exceeds fixed-weight bound {self.rc}")


@dataclass(frozen=True)
class ShotParams:
    """Inputs to the measurement-shot lower bounds.

    k and w are the largest qubit supports of the Pauli strings measured for
    dynamics observables and for the adaptive weights; S and R the exponents
    of their string counts; eps_stat the statistical error target.
    """

    k: int
    w: int
    S: int
    R: int
    n_qubits: int
    eps_stat: float

    def __post_init__(self):
        for name in ("k", "w", "S", "R", "n_qubits"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.eps_stat, numbers.Real) or isinstance(self.eps_stat, bool):
            raise TypeError(f"eps_stat must be a number, got {self.eps_stat!r}")
        if self.k < 1 or self.w < 1:
            raise ValueError("locality parameters k, w must be >= 1")
        if self.S < 0 or self.R < 0:
            raise ValueError("exponents S, R must be nonnegative")
        if self.n_qubits < 1:
            raise ValueError("qubit count must be >= 1")
        if not 0 < self.eps_stat < math.inf:
            raise ValueError("statistical error must be positive and finite")
        try:
            finite = all(map(math.isfinite, shot_lower_bounds(self)))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError("shot bounds overflow a float: lower k, w, S or R, or raise eps_stat")


def _pair_commutator_sum(mats: list[np.ndarray]) -> np.ndarray:
    """C = sum_{j<k} [H_j, H_k] as P - P^dag, P = sum_j H_j (H_{j+1} + ... + H_L)."""
    p = np.zeros_like(mats[0])
    for j in range(1, len(mats)):
        p += mats[j - 1] @ sum(mats[j:])
    return p - p.conj().T


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a.conj(), b).real


def _l2_norms_pure(hmat: np.ndarray, psi: np.ndarray) -> np.ndarray:
    hpsi = hmat @ psi
    mean = _column_dots(psi, hpsi)
    dev = hpsi - mean * psi  # H' psi
    dev2 = hmat @ dev - mean * dev  # H'^2 psi
    return np.sqrt(6.0 * _column_dots(dev, dev) ** 2 + 2.0 * _column_dots(dev2, dev2))


def _brackets(decomposition: Decomposition, exact_states: np.ndarray):
    """Per-state trotter1 bracket, ||L^2(rho_i)||, and ||L_j^2(rho_i)|| in row j, of pure (n, dim) rows."""
    if not len(exact_states):
        raise ValueError("empty exact-state list")
    mats = [t.matrix for t in decomposition.terms]
    ops = [decomposition.total_operator.matrix, *mats]
    c = _pair_commutator_sum(mats)
    psi = exact_states.T.copy()  # a C-contiguous (dim, n) operand for the GEMMs
    l2 = np.array([_l2_norms_pure(m, psi) for m in ops])
    dev = 1j * (c @ psi)
    dev -= _column_dots(psi, dev) * psi
    trotter = np.sqrt(2.0 * _column_dots(dev, dev))
    return trotter, l2[0], l2[1:]


def _rc_brackets(decomposition: Decomposition, collective, terms) -> np.ndarray:
    norms = np.array(decomposition.inf_norms)
    if np.any(norms <= 0):
        raise ValueError("zero-norm term present; drop it before computing the rc bound")
    return collective + decomposition.lam * (terms / norms[:, None]).sum(axis=0)


def _arc_brackets(collective, terms) -> np.ndarray:
    return collective + np.sqrt(terms).sum(axis=0) ** 2


def _mean_bound(plan: StepPlan, brackets: np.ndarray) -> float:
    return plan.total_time**2 / (2.0 * plan.steps) * float(np.mean(brackets))


def bound_report(decomposition: Decomposition, exact_states: np.ndarray, plan: StepPlan) -> BoundReport:
    """All three bounds over one exact trajectory, run_exact's (N, dim) array."""
    trotter, collective, terms = _brackets(decomposition, exact_states)
    per_step = {
        "trotter1": trotter,
        "rc": _rc_brackets(decomposition, collective, terms),
        "arc": _arc_brackets(collective, terms),
    }
    return BoundReport(
        **{k: _mean_bound(plan, v) for k, v in per_step.items()},
        per_step={k: v.tolist() for k, v in per_step.items()},
        total_time=plan.total_time,
        steps=plan.steps,
    )


def check_cauchy_schwarz(decomposition: Decomposition, rho: QuantumState) -> tuple[float, float, bool]:
    """Compare (sum_j sqrt||L_j^2(rho)||)^2 against lambda sum_j ||L_j^2(rho)||/||H_j||_inf.

    A pure rho is a one-row block; a density matrix takes double_commutator_norm per term.
    """
    if rho.is_pure:
        terms = _brackets(decomposition, rho.data[None])[2]
    else:
        terms = np.array([[double_commutator_norm(h, rho)] for h in decomposition.terms])
    rhs = float(_rc_brackets(decomposition, 0.0, terms)[0])
    lhs = float(_arc_brackets(0.0, terms)[0])
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9)


def shot_lower_bounds(p: ShotParams) -> tuple[float, float]:
    """Scaling values of the two shot-count lower bounds (constants unspecified).

    Returns (adaptive state-preparation shots, real-time dynamics shots):
    3^w (4R) ln(N) / eps^2 and 3^max(w,k) max(S, 4R) ln(N) / eps^2.
    """
    log_n = math.log(p.n_qubits)
    prep = 3.0**p.w * (4.0 * p.R) * log_n / p.eps_stat**2
    dyn = 3.0 ** max(p.w, p.k) * max(p.S, 4.0 * p.R) * log_n / p.eps_stat**2
    return prep, dyn
