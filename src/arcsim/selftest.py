"""Built-in oracle and invariant checks, runnable without any config.

The one home of the paper's five invariants (the public check_* functions) and of the random
instances (random_*, expm): `arcsim selftest` runs them at their defaults, the tests at their own sizes.
"""

from __future__ import annotations

import numpy as np

from .bounds import check_cauchy_schwarz
from .compilers import ProbabilityDistribution, StepPlan, cost, optimal_distribution, run_block
from .hamiltonians import Decomposition
from .linalg import HermitianOperator, basis_coordinates, hs_norm, kron, pure_state, mixed_state
from .moments import double_commutator_norm, moment_block, norm_finite_difference, norms_from_moments


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianOperator:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * (m + m.conj().T) / 2)


def random_pure(rng: np.random.Generator, dim: int):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(v / np.linalg.norm(v))


def random_mixed(rng: np.random.Generator, dim: int, rank: int = 2):
    vecs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    w = rng.uniform(0.2, 1.0, size=rank)
    w /= w.sum()
    rho = sum(wi * np.outer(v, v.conj()) / np.vdot(v, v).real for wi, v in zip(w, vecs))
    return mixed_state(rho)


def expm(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i h tau) of a Hermitian matrix through numpy's eigh, apart from the engine's eigensystem."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * tau)) @ vecs.conj().T


def check_moment_formula(rng, *, dims=(8,), count=20) -> tuple[bool, float]:
    """Moment formula vs direct oracle, count random states per dim: (worst |est-exact|/(1+exact) <= 1e-8, it)."""
    worst = 0.0
    for dim in dims:
        for _ in range(count):
            h, psi = random_hermitian(rng, dim), random_pure(rng, dim)
            exact = double_commutator_norm(h, psi)
            est = norms_from_moments(moment_block(h, basis_coordinates(h, psi.data[:, None])).T)[0]
            worst = np.maximum(worst, abs(est - exact) / (1.0 + exact))  # keeps a NaN, which then fails
    return worst <= 1e-8, worst


def check_finite_difference(rng, *, count=5) -> tuple[bool, float, list[float]]:
    """FD estimator on count random rank-2 states: (log-log error slopes over the four dt in [1.7, 2.3]
    and worst relative error at dt = 1e-3 <= 1e-4, that error, the slopes)."""
    dts = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    slopes, worst = [], 0.0
    for _ in range(count):
        h, rho = random_hermitian(rng, 4, scale=2.0), random_mixed(rng, 4)
        exact = double_commutator_norm(h, rho)
        errs = [abs(norm_finite_difference(h, rho, dt=dt) - exact) for dt in dts]
        slopes.append(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        worst = np.maximum(worst, abs(norm_finite_difference(h, rho, dt=1e-3) - exact) / exact)
    return all(1.7 <= s <= 2.3 for s in slopes) and worst <= 1e-4, worst, slopes


def check_optimal_distribution(rng, *, count=20, rivals=200) -> tuple[bool, int]:
    """√-weights against rivals random distributions on count random d: (none costs less, how many do)."""
    violations = 0
    for _ in range(count):
        d = rng.uniform(0.0, 5.0, size=int(rng.integers(2, 7)))
        best = cost(d, optimal_distribution(d))
        for _ in range(rivals):
            q = ProbabilityDistribution(rng.uniform(1e-3, 1.0, size=d.size))
            violations += best > cost(d, q) * (1 + 1e-12)
    return not violations, violations


def check_weighted_sum(rng, *, count=50) -> tuple[bool, int]:
    """Adaptive vs fixed-weight bracket on count 3-term splits, dims 4, 8, 16 in turn: (never larger, how often)."""
    violations = 0
    for i in range(count):
        dim = (4, 8, 16)[i % 3]
        decomp = Decomposition(tuple(random_hermitian(rng, dim) for _ in range(3)))
        violations += not check_cauchy_schwarz(decomp, random_pure(rng, dim))[2]
    return not violations, violations


def check_channel_matching(rng, *, count=1) -> tuple[bool, float]:
    """Averaged sampled step vs exact step, as superoperators on vec(rho), on count random 2-term splits with
    p the optimum of a random d: (every defect ratio for dt halving in [3, 5], the ratio farthest from 4)."""
    ratios = []
    for _ in range(count):
        decomp = Decomposition(tuple(random_hermitian(rng, 2) for _ in range(2)))
        p = optimal_distribution(rng.uniform(0.5, 2.0, size=2))

        def defect(dt: float) -> float:
            exact_u = expm(decomp.total(), dt)
            chan = np.zeros((4, 4), dtype=complex)
            for j, term in enumerate(decomp.terms):
                u = expm(term.matrix, dt / p.p[j])
                chan += p.p[j] * kron(u.conj(), u)
            return hs_norm(chan - kron(exact_u.conj(), exact_u))

        ratios.append(defect(0.02) / defect(0.01))
    return all(3.0 <= r <= 5.0 for r in ratios), max(ratios, key=lambda r: abs(r - 4.0))


def _check_trotter_single_term(rng) -> tuple[bool, float]:
    decomp = Decomposition((random_hermitian(rng, 4),))
    f = run_block("trotter1", random_pure(rng, 4), decomp, StepPlan(1.0, 10), [0])[0].final_fidelity
    return abs(f - 1.0) <= 1e-10, f


# (name, check, detail[, detail on failure]): a detail formats what check measured and its keyword-default sizes
CHECKS = [
    ("moment formula vs direct oracle", check_moment_formula, "worst relative deviation {:.2e} over {count} states"),
    ("finite-difference estimator", check_finite_difference, "worst relative error {:.2e} at dt=1e-3"),
    ("optimal sampling distribution", check_optimal_distribution, "optimal cost minimal over {count}x{rivals} random "
     "comparisons", "{} of {count}x{rivals} random distributions cost less than the optimum"),
    ("adaptive vs fixed-weight inequality", check_weighted_sum, "holds on {count} random 3-term instances",
     "violated on {} of {count} random 3-term instances"),
    ("first-order channel matching", check_channel_matching, "defect ratio {:.2f} for dt halving (expect ~4)"),
    ("single-term product step exactness", _check_trotter_single_term, "single-term product step fidelity {:.12f}"),
]


def run_selftest(seed: int = 20240817) -> list[tuple[str, bool, str]]:
    """Run every check with a fixed seed; returns (name, passed, detail) rows."""
    results = []
    for name, check, detail, *failed in CHECKS:
        ok, *measured = check(np.random.default_rng(seed))
        detail = failed[0] if failed and not ok else detail
        results.append((name, ok, detail.format(*measured, **(check.__kwdefaults__ or {}))))
    return results
