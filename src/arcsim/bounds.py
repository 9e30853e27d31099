"""Averaged per-step error bounds for the protocols.

The three circuit-depth bounds share the prefactor t^2/(2N) times the average
of a per-step bracket over the supplied exact-trajectory states; the CLI
supplies rho_0 .. rho_{N-1}, the states that steps 1 .. N start from:

    trotter1: || sum_{j<k} [L_j, L_k](rho_i) ||
    rc:       || L^2(rho_i) || + lambda * sum_j || L_j^2(rho_i) || / ||H_j||_inf
    arc:      || L^2(rho_i) || + ( sum_j sqrt(|| L_j^2(rho_i) ||) )^2

with L_j(rho) = -i [H_j, rho]. Superoperators are never materialized. Each
bracket is a reduction of moments.centred_moments over the pure trajectory's
coordinates in an operator's eigenbasis (HermitianOperator.eig), one product
per dense operator and none for a diagonal one:
    ||L_H^2(rho)|| = sqrt(6 <H'^2>^2 + 2 <H'^4>) with H' = H - <H>;
    trotter1 = sqrt(2 <A'^2>), A = i sum_{j<k} [H_j, H_k] (Decomposition.pair_commutator),
    since by Jacobi sum_{j<k} [L_j, L_k](rho) = i [A, rho].
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .compilers import StepPlan
from .hamiltonians import Decomposition
from .linalg import QuantumState
from .moments import centred_moments, double_commutator_norm, double_commutator_norms


@dataclass(eq=False)
class BoundReport:
    """State-dependent depth bounds and their per-step bracket values."""

    t: float
    steps: int
    trotter1: float
    rc: float
    arc: float
    per_step: dict[str, list[float]]

    def __post_init__(self):
        if self.arc > self.rc * (1.0 + 1e-9):
            raise np.linalg.LinAlgError(f"adaptive bound {self.arc} exceeds fixed-weight bound {self.rc}")


def _rc_brackets(decomposition: Decomposition, collective, terms) -> np.ndarray:
    norms = np.array(decomposition.inf_norms)
    if np.any(norms <= 0):
        raise ValueError("zero-norm term present; drop it before computing the rc bound")
    return collective + decomposition.lam * (terms / norms[:, None]).sum(axis=0)


def _arc_brackets(collective, terms) -> np.ndarray:
    return collective + np.sqrt(terms).sum(axis=0) ** 2


def bound_report(decomposition: Decomposition, exact_states: np.ndarray, plan: StepPlan) -> BoundReport:
    """All three bounds over the (N, dim) exact states that the plan's N steps start from, one per row."""
    if not len(exact_states):
        raise ValueError("empty exact-state list")
    psi = np.transpose(exact_states)
    collective = double_commutator_norms(decomposition.total_operator, psi)
    terms = np.array([double_commutator_norms(h, psi) for h in decomposition.terms])
    per_step = {
        "trotter1": np.sqrt(2.0 * centred_moments(decomposition.pair_commutator, psi)[0]),
        "rc": _rc_brackets(decomposition, collective, terms),
        "arc": _arc_brackets(collective, terms),
    }
    return BoundReport(
        t=plan.total_time,
        steps=plan.steps,
        **{k: plan.total_time**2 / (2.0 * plan.steps) * float(np.mean(v)) for k, v in per_step.items()},
        per_step={k: v.tolist() for k, v in per_step.items()},
    )


def check_cauchy_schwarz(decomposition: Decomposition, rho: QuantumState) -> tuple[float, float, bool]:
    """Compare (sum_j sqrt||L_j^2(rho)||)^2 against lambda sum_j ||L_j^2(rho)||/||H_j||_inf.

    A pure rho is a one-column block; a density matrix takes double_commutator_norm per term.
    """
    if rho.is_pure:
        terms = np.array([double_commutator_norms(h, rho.data[:, None]) for h in decomposition.terms])
    else:
        terms = np.array([[double_commutator_norm(h, rho)] for h in decomposition.terms])
    rhs = float(_rc_brackets(decomposition, 0.0, terms)[0])
    lhs = float(_arc_brackets(0.0, terms)[0])
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9)


def shot_lower_bounds(*, k, w, S, R, n_qubits, eps_stat) -> tuple[float, float]:
    """Scaling values of the two shot-count lower bounds (constants unspecified).

    k and w are the largest qubit supports of the Pauli strings measured for
    dynamics observables and for the adaptive weights; S and R the exponents
    of their string counts; eps_stat the statistical error target. Returns
    (adaptive state-preparation shots, real-time dynamics shots):
    3^w (4R) ln(N) / eps^2 and 3^max(w,k) max(S, 4R) ln(N) / eps^2.
    Non-integer counts raise TypeError; out-of-range inputs and bounds past
    float range raise ValueError, and bounds below it round toward 0.0.
    """
    for name, value in (("k", k), ("w", w), ("S", S), ("R", R), ("n_qubits", n_qubits)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if not isinstance(eps_stat, numbers.Real) or isinstance(eps_stat, bool):
        raise TypeError(f"eps_stat must be a number, got {eps_stat!r}")
    if k < 1 or w < 1:
        raise ValueError("locality parameters k, w must be >= 1")
    if S < 0 or R < 0:
        raise ValueError("exponents S, R must be nonnegative")
    if n_qubits < 1:
        raise ValueError("qubit count must be >= 1")
    if not 0 < eps_stat <= sys.float_info.max:
        raise ValueError("statistical error must be positive and finite")
    try:
        log_n = math.log(n_qubits)
        prep = 3.0**w * (4.0 * R) * log_n
        dyn = 3.0 ** max(w, k) * max(S, 4.0 * R) * log_n
        try:
            prep, dyn = prep / eps_stat**2, dyn / eps_stat**2
        except OverflowError:  # eps_stat**2 is past float range, the quotients need not be
            prep, dyn = prep / eps_stat / eps_stat, dyn / eps_stat / eps_stat
    except (OverflowError, ZeroDivisionError):
        prep = dyn = math.inf
    if not (math.isfinite(prep) and math.isfinite(dyn)):
        raise ValueError("shot bounds overflow a float: lower k, w, S or R, or raise eps_stat")
    return prep, dyn
