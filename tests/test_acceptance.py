"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Every tolerance is fixed here; the heavy ensemble criteria are
exact deterministic functions of the pinned master seed.
"""

import time

import numpy as np
import pytest

from arcsim.bounds import bound_report, check_cauchy_schwarz
from arcsim.compilers import ProbabilityDistribution, StepPlan, cost, optimal_distribution, run_exact
from arcsim.emit import series_csv
from arcsim.hamiltonians import Decomposition, basis_state, build_kerr, build_mfim, build_rabi
from arcsim.linalg import HermitianOperator, basis_coordinates, mixed_state, pure_state
from arcsim.moments import (
    double_commutator_norm,
    moment_block,
    norm_finite_difference,
    norms_from_moments,
)
from arcsim.harness import config_from_dict, run_ensemble, run_ptrace

MASTER_SEED = 7


def _report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * (m + m.conj().T) / 2)


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(v / np.linalg.norm(v))


def random_mixed(rng, dim, rank=2):
    vecs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    w = rng.uniform(0.2, 1.0, size=rank)
    w /= w.sum()
    rho = sum(wi * np.outer(v, v.conj()) / np.vdot(v, v).real for wi, v in zip(w, vecs))
    return mixed_state(rho)


def fig2_config():
    return config_from_dict(
        {
            "model": "mfim",
            "params": {"L": 4, "J": 1.0, "h_x": 0.5, "h_z": 0.3},
            "initial_state": "0011",
            "protocols": ["arc", "rc"],
            "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [50]},
            "trajectories": 2000,
            "noise_std": 0.1,
            "master_seed": MASTER_SEED,
        }
    )


@pytest.fixture(scope="module")
def fig2_run():
    result = run_ensemble(fig2_config())
    return result, series_csv(result)


def test_criterion_01_moment_formula_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (2, 4, 8, 16):
        for _ in range(25):
            h = random_hermitian(rng, dim)
            psi = random_pure(rng, dim)
            exact = double_commutator_norm(h, psi)
            est = norms_from_moments(moment_block(h, basis_coordinates(h, psi.data[:, None])).T)[0]
            worst = max(worst, abs(est - exact) / (1.0 + exact))
    elapsed = time.time() - start
    _report(
        1,
        worst <= 1e-8 and elapsed < 5,
        f"moment formula vs direct oracle on 100 random pairs: worst relative "
        f"deviation {worst:.2e} (tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_02_finite_difference_convergence():
    start = time.time()
    rng = np.random.default_rng(102)
    dts = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    slopes, worst_rel = [], 0.0
    for _ in range(20):
        h = random_hermitian(rng, 4, scale=2.0)
        rho = random_mixed(rng, 4)
        exact = double_commutator_norm(h, rho)
        errs = [abs(norm_finite_difference(h, rho, dt=dt) - exact) for dt in dts]
        slopes.append(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        worst_rel = max(
            worst_rel, abs(norm_finite_difference(h, rho, dt=1e-3) - exact) / exact
        )
    elapsed = time.time() - start
    ok = all(1.7 <= s <= 2.3 for s in slopes) and worst_rel <= 1e-4 and elapsed < 10
    _report(
        2,
        ok,
        f"finite-difference estimator on 20 mixed states: slopes in "
        f"[{min(slopes):.2f}, {max(slopes):.2f}] (window [1.7, 2.3]), worst relative "
        f"error {worst_rel:.2e} at dt=1e-3 (tol 1e-4), {elapsed:.1f}s",
    )


def test_criterion_03_lagrange_optimality():
    start = time.time()
    rng = np.random.default_rng(103)
    violations = 0
    for _ in range(200):
        size = int(rng.integers(2, 7))
        d = rng.uniform(0.0, 5.0, size=size)
        best = cost(d, optimal_distribution(d))
        for _ in range(1000):
            q = ProbabilityDistribution(rng.uniform(1e-3, 1.0, size=size))
            if best > cost(d, q) * (1 + 1e-12):
                violations += 1
    elapsed = time.time() - start
    _report(
        3,
        violations == 0 and elapsed < 5,
        f"optimal distribution beat all of 200x1000 random distributions "
        f"({violations} violations), {elapsed:.1f}s",
    )


def test_criterion_04_weighted_sum_inequality():
    start = time.time()
    rng = np.random.default_rng(104)
    holds_all = True
    for i in range(500):
        dim = (4, 8, 16)[i % 3]
        dec = Decomposition(tuple(random_hermitian(rng, dim) for _ in range(3)))
        _, _, holds = check_cauchy_schwarz(dec, random_pure(rng, dim))
        holds_all = holds_all and holds
    single = Decomposition((random_hermitian(rng, 8),))
    lhs, rhs, _ = check_cauchy_schwarz(single, random_pure(rng, 8))
    equality = abs(lhs - rhs) <= 1e-12 * rhs
    elapsed = time.time() - start
    _report(
        4,
        holds_all and equality and elapsed < 30,
        f"adaptive-vs-fixed-weight inequality on 500 random instances "
        f"(all hold: {holds_all}), single-term equality gap "
        f"{abs(lhs - rhs):.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_bound_ordering_on_paper_configs():
    start = time.time()
    configs = [
        ("mfim", *build_mfim(4, 1.0, 0.5, 0.3), "0011"),
        ("kerr", *build_kerr(0.3, 1.0, 0.5, 50), "(|1⟩+|5⟩)/√2"),
        ("rabi", *build_rabi(1.0, 1.0, 0.2, 50), "(|2,0⟩+|5,0⟩)/√2"),
    ]
    plan = StepPlan(1.0, 50)
    details, ok = [], True
    for name, dec, structure, ket in configs:
        exact = run_exact(basis_state(ket, structure), dec.total_operator, plan)
        report = bound_report(dec, exact, plan)
        a, r = report.arc, report.rc
        ok = ok and a <= r * (1 + 1e-9)
        details.append(f"{name}: arc {a:.4f} <= rc {r:.4f}")
    elapsed = time.time() - start
    _report(5, ok and elapsed < 120, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_06_mfim_figure_reproduction(fig2_run):
    start = time.time()
    result, _ = fig2_run
    stats = {sp.protocol: sp for sp in result.series}
    arc, rc = stats["arc"], stats["rc"]
    combined = np.hypot(arc.stderr, rc.stderr)
    ordering = arc.mean_fidelity >= rc.mean_fidelity - 2 * combined
    high = arc.mean_fidelity > 0.9
    elapsed = time.time() - start
    _report(
        6,
        ordering and high,
        f"MFIM at N=50, noise 0.1, M=2000: adaptive {arc.mean_fidelity:.4f} vs "
        f"fixed-weight {rc.mean_fidelity:.4f} (2x combined stderr "
        f"{2 * combined:.4f}); adaptive > 0.9: {high}",
    )


def test_criterion_07_kerr_figure_reproduction():
    start = time.time()
    cfg = config_from_dict(
        {
            "model": "kerr",
            "params": {"delta": 0.3, "K": 1.0, "eps": 0.5, "D": 50},
            "initial_state": "(|1⟩+|5⟩)/√2",
            "protocols": ["rc", "equal", "arc"],
            "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [50]},
            "trajectories": 2000,
            "noise_std": 0.0,
            "master_seed": MASTER_SEED,
        }
    )
    stats = {sp.protocol: sp for sp in run_ensemble(cfg).series}
    arc = stats["arc"]
    ok = True
    pieces = [f"adaptive {arc.mean_fidelity:.4f}"]
    for baseline in ("rc", "equal"):
        sp = stats[baseline]
        slack = 2 * np.hypot(arc.stderr, sp.stderr)
        ok = ok and arc.mean_fidelity >= sp.mean_fidelity - slack
        pieces.append(f"{baseline} {sp.mean_fidelity:.4f}")
    elapsed = time.time() - start
    _report(
        7,
        ok and elapsed < 600,
        f"Kerr at N=50, M=2000: " + ", ".join(pieces) + f", {elapsed:.0f}s",
    )


def test_criterion_08_rabi_figure_reproduction():
    start = time.time()
    base = {
        "model": "rabi",
        "params": {"omega": 1.0, "Omega": 1.0, "g": 0.2, "D": 50},
        "initial_state": "(|2,0⟩+|5,0⟩)/√2",
        "trajectories": 2000,
        "noise_std": 0.0,
        "master_seed": MASTER_SEED,
    }
    ordering_cfg = config_from_dict(
        base
        | {
            "protocols": ["rc", "equal", "arc"],
            "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [50]},
        }
    )
    stats = {sp.protocol: sp for sp in run_ensemble(ordering_cfg).series}
    arc = stats["arc"]
    ordering = True
    pieces = [f"adaptive {arc.mean_fidelity:.4f}"]
    for baseline in ("rc", "equal"):
        sp = stats[baseline]
        slack = 2 * np.hypot(arc.stderr, sp.stderr)
        ordering = ordering and arc.mean_fidelity >= sp.mean_fidelity - slack
        pieces.append(f"{baseline} {sp.mean_fidelity:.4f}")

    sweep_cfg = config_from_dict(
        base
        | {
            "protocols": ["arc"],
            "plan": {"mode": "fixed_t", "t": 1.0, "dt_list": [0.01, 0.02, 0.04, 0.05, 0.1]},
        }
    )
    extrapolated = run_ensemble(sweep_cfg).extrapolated["arc"]
    elapsed = time.time() - start
    _report(
        8,
        ordering and extrapolated >= 0.99 and elapsed < 600,
        f"Rabi at N=50, M=2000: " + ", ".join(pieces)
        + f"; zero-step-size extrapolation {extrapolated:.4f} (>= 0.99), {elapsed:.0f}s",
    )


def test_criterion_09_probability_trace_regimes():
    start = time.time()
    argmax = {}
    for g in (0.2, 0.8):
        cfg = config_from_dict(
            {
                "model": "rabi",
                "params": {"omega": 1.0, "Omega": 1.0, "g": g, "D": 50},
                "initial_state": "(|2,0⟩+|5,0⟩)/√2",
                "protocols": ["arc"],
                "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [50]},
                "noise_std": 0.0,
                "master_seed": MASTER_SEED,
            }
        )
        table = run_ptrace(cfg)
        argmax[g] = np.argmax(table.probabilities, axis=1)
    weak_stable = int(np.count_nonzero(np.diff(argmax[0.2])))
    strong_changes = int(np.count_nonzero(np.diff(argmax[0.8])))
    elapsed = time.time() - start
    _report(
        9,
        weak_stable == 0 and strong_changes >= 1 and elapsed < 60,
        f"dominant-term trace over 50 steps: g=0.2 changes {weak_stable} times "
        f"(expect 0), g=0.8 changes {strong_changes} times (expect >= 1), "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_byte_identical_rerun(fig2_run):
    _, first_csv = fig2_run
    second_csv = series_csv(run_ensemble(fig2_config()))
    identical = first_csv.encode() == second_csv.encode()
    _report(
        10,
        identical,
        f"independent rerun of the MFIM ensemble produced byte-identical CSV: {identical}",
    )
