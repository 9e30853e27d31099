"""Built-in oracle and invariant checks, runnable without any config."""

from __future__ import annotations

import numpy as np

from .bounds import check_cauchy_schwarz
from .compilers import ProbabilityDistribution, StepPlan, cost, optimal_distribution, run_block
from .hamiltonians import Decomposition
from .linalg import HermitianOperator, basis_coordinates, hs_norm, kron, pure_state, mixed_state
from .moments import double_commutator_norm, moment_block, norm_finite_difference, norms_from_moments


def _random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianOperator:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * (m + m.conj().T) / 2)


def _random_pure(rng: np.random.Generator, dim: int):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(v / np.linalg.norm(v))


def _random_mixed(rng: np.random.Generator, dim: int, rank: int = 2):
    vecs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    w = rng.uniform(0.2, 1.0, size=rank)
    w /= w.sum()
    rho = sum(wi * np.outer(v, v.conj()) / np.vdot(v, v).real for wi, v in zip(w, vecs))
    return mixed_state(rho)


def _check_eig_roundtrip(rng) -> tuple[bool, str]:
    h = _random_hermitian(rng, 64)
    values, vectors = h.eig
    err = np.max(np.abs((vectors * values) @ vectors.conj().T - h.matrix))
    ok = err <= 1e-8 * np.max(np.abs(h.matrix))
    return ok, f"reconstruction error {err:.2e} at dim 64"


def _check_moment_formula(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        h = _random_hermitian(rng, 8)
        psi = _random_pure(rng, 8)
        exact = double_commutator_norm(h, psi)
        est = norms_from_moments(moment_block(h, basis_coordinates(h, psi.data[:, None])).T)[0]
        worst = max(worst, abs(est - exact) / (1.0 + exact))
    return worst <= 1e-8, f"worst relative deviation {worst:.2e} over 20 states"


def _check_finite_difference(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(5):
        h = _random_hermitian(rng, 4, scale=2.0)
        rho = _random_mixed(rng, 4)
        exact = double_commutator_norm(h, rho)
        est = norm_finite_difference(h, rho, dt=1e-3)
        worst = max(worst, abs(est - exact) / exact)
    return worst <= 1e-4, f"worst relative error {worst:.2e} at dt=1e-3"


def _check_optimal_distribution(rng) -> tuple[bool, str]:
    for _ in range(20):
        d = rng.uniform(0.1, 5.0, size=rng.integers(2, 7))
        p_opt = optimal_distribution(d)
        best = cost(d, p_opt)
        for _ in range(200):
            q = ProbabilityDistribution(rng.uniform(0.01, 1.0, size=d.size))
            if best > cost(d, q) * (1 + 1e-12):
                return False, "a random distribution beat the optimizer"
    return True, "optimal cost minimal over 20x200 random comparisons"


def _check_cauchy_schwarz(rng) -> tuple[bool, str]:
    for _ in range(50):
        terms = tuple(_random_hermitian(rng, 8) for _ in range(3))
        decomp = Decomposition(terms)
        lhs, rhs, holds = check_cauchy_schwarz(decomp, _random_pure(rng, 8))
        if not holds:
            return False, f"violated: lhs {lhs} > rhs {rhs}"
    return True, "holds on 50 random 3-term instances"


def _check_channel_matching(rng) -> tuple[bool, str]:
    terms = tuple(_random_hermitian(rng, 2) for _ in range(2))
    decomp = Decomposition(terms)
    p = optimal_distribution([1.0, 1.0])

    def defect(dt: float) -> float:
        total = HermitianOperator(decomp.total())
        exact_u = _expm(total.matrix, dt)
        chan = np.zeros((4, 4), dtype=complex)
        for j, term in enumerate(decomp.terms):
            u = _expm(term.matrix, dt / p.p[j])
            chan += p.p[j] * kron(u.conj(), u)
        return hs_norm(chan - kron(exact_u.conj(), exact_u))

    ratio = defect(0.02) / defect(0.01)
    return 3.0 <= ratio <= 5.0, f"defect ratio {ratio:.2f} for dt halving (expect ~4)"


def _expm(h: np.ndarray, tau: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * tau)) @ vecs.conj().T


def _check_trotter_single_term(rng) -> tuple[bool, str]:
    h = _random_hermitian(rng, 4)
    decomp = Decomposition((h,))
    psi = _random_pure(rng, 4)
    f = run_block("trotter1", psi, decomp, StepPlan(1.0, 10), [0])[0].final_fidelity
    return abs(f - 1.0) <= 1e-10, f"single-term product step fidelity {f:.12f}"


CHECKS = [
    ("eigendecomposition round-trip", _check_eig_roundtrip),
    ("moment formula vs direct oracle", _check_moment_formula),
    ("finite-difference estimator", _check_finite_difference),
    ("optimal sampling distribution", _check_optimal_distribution),
    ("adaptive vs fixed-weight inequality", _check_cauchy_schwarz),
    ("first-order channel matching", _check_channel_matching),
    ("single-term product step exactness", _check_trotter_single_term),
]


def run_selftest(seed: int = 20240817) -> list[tuple[str, bool, str]]:
    """Run every check with a fixed seed; returns (name, passed, detail) rows."""
    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        ok, detail = fn(rng)
        results.append((name, ok, detail))
    return results
