"""Noise-free arc ensembles against the exact branch tree.

With no measurement noise, arc's weights p(psi) are a function of the current
state, so the mean fidelity after N steps is a finite sum over at most L^N
branches, each weighted by the product of its p's: the random-compiler channel
argument (Campbell, PRL 123, 070503 (2019)) applied branch by branch. The
oracle takes each term's step from its own dense eigh, independent of
HermitianOperator.eig, and each weight from the matrix oracle
double_commutator_norm with the engine's zero rule (p_j = 0 exactly where
d_j = 0); branches with p = 0 are pruned.

With noise, p and the time slice dt / p_j depend on each step's Gaussian
draws, so the mean fidelity is an expectation over them. The noisy oracle
estimates it by Monte Carlo: each sample draws its own noise at every node
of the full branch tree (every branch j at every step) and sums the leaves
by their weights. It shares only the model builders with the engine: its own
generator, raw moments <H^k> from dense matrix powers, norms
sqrt(max(6 m2^2 - 8 m1 m3 + 2 m4, 0)) (the engine's rounding-bound zero acts
only within rounding of 0), and each term's step from its own dense eigh.
"""

import numpy as np
import pytest

from arcsim.hamiltonians import basis_state
from arcsim.harness import build_model, config_from_dict, run_ensemble
from arcsim.linalg import QuantumState
from arcsim.moments import double_commutator_norm

TRAJECTORIES, SEED, Z_BOUND = 2000, 3, 4.0
# Noisy cells: oracle samples and generator seed, and the trajectory count of the noise-1.0 cell,
# four times the others', at which an oracle at half that noise fails it (z = -5.5 at N = 2).
SAMPLES, ORACLE_SEED, STRONG_NOISE_TRAJECTORIES = 5000, 29, 8000


def tree_fidelities(config) -> dict:
    """{N: (exact mean, exact variance, leaves) of one trajectory's final fidelity} per plan point."""
    dec, structure = build_model(config)
    psi0 = basis_state(config.initial_state, structure).data
    dt, depths = config.plan.dt, config.plan.n_list
    steps = [np.linalg.eigh(h.matrix) for h in dec.terms]
    e, v = np.linalg.eigh(dec.total())
    level, out = [(1.0, psi0)], {}
    for n in range(1, max(depths) + 1):
        children = []
        for weight, psi in level:
            d = np.array([double_commutator_norm(h, QuantumState(psi)) for h in dec.terms])
            w = np.where(d > 0.0, np.sqrt(d), 0.0)
            p = w / w.sum() if w.any() else np.full(len(w), 1.0 / len(w))
            for pj, (ej, vj) in zip(p, steps):
                if pj > 0:
                    phi = vj @ (np.exp(-1j * ej * (dt / pj)) * (vj.conj().T @ psi))
                    children.append((weight * pj, phi / np.linalg.norm(phi)))
        level = children
        if n in depths:
            target = v @ (np.exp(-1j * e * (n * dt)) * (v.conj().T @ psi0))
            weights = np.array([weight for weight, _ in level])
            fids = np.abs(np.array([psi for _, psi in level]) @ target.conj()) ** 2
            mean = float(weights @ fids)
            out[n] = (mean, float(weights @ fids**2) - mean**2, len(level))
    return out


def noisy_tree_fidelities(config) -> dict:
    """{N: (Monte-Carlo mean, variance of that mean) of one trajectory's final fidelity} per plan point."""
    dec, structure = build_model(config)
    rng = np.random.default_rng(ORACLE_SEED)
    psi0 = basis_state(config.initial_state, structure).data
    dt, depths, std = config.plan.dt, config.plan.n_list, config.noise_std
    squares = [h.matrix @ h.matrix for h in dec.terms]
    steps = [np.linalg.eigh(h.matrix) for h in dec.terms]
    e, v = np.linalg.eigh(dec.total())
    level, out = [(np.ones(SAMPLES), np.repeat(psi0[:, None], SAMPLES, axis=1))], {}
    for n in range(1, max(depths) + 1):
        children = []
        for weight, psi in level:  # psi: (dim, SAMPLES), one state per sample
            moments = []
            for h, h2 in zip(dec.terms, squares):
                hpsi, h2psi = h.matrix @ psi, h2 @ psi
                pairs = ((psi, hpsi), (psi, h2psi), (hpsi, h2psi), (h2psi, h2psi))
                moments.append([np.sum(a.conj() * b, axis=0).real for a, b in pairs])
            m1, m2, m3, m4 = np.moveaxis(np.array(moments) + rng.normal(0.0, std, (len(dec), 4, SAMPLES)), 1, 0)
            d = np.sqrt(np.maximum(6 * m2 * m2 - 8 * m1 * m3 + 2 * m4, 0.0))
            w = np.where(d > 0.0, np.sqrt(d), 0.0)
            w[:, ~w.any(axis=0)] = 1.0
            p = w / w.sum(axis=0)
            for pj, (ej, vj) in zip(p, steps):
                tau = np.divide(dt, pj, out=np.zeros(SAMPLES), where=pj > 0)
                phi = vj @ (np.exp(-1j * np.outer(ej, tau)) * (vj.conj().T @ psi))
                children.append((weight * pj, phi / np.linalg.norm(phi, axis=0)))
        level = children
        if n in depths:
            target = v @ (np.exp(-1j * e * (n * dt)) * (v.conj().T @ psi0))
            per_sample = sum(weight * np.abs(target.conj() @ psi) ** 2 for weight, psi in level)
            out[n] = (float(np.mean(per_sample)), float(np.var(per_sample, ddof=1) / SAMPLES))
    return out


def arc_config(model, dt, n_list, **extra):
    return config_from_dict({
        "model": model, "protocols": ["arc"], "trajectories": TRAJECTORIES, "master_seed": SEED,
        "noise_std": 0.0, "plan": {"mode": "fixed_dt", "dt": dt, "n_list": n_list}, **extra,
    })


@pytest.mark.parametrize("model, dt", [("mfim", 0.1), ("kerr", 0.05), ("rabi", 0.05)])
def test_ensemble_mean_matches_branch_tree(model, dt):
    config = arc_config(model, dt, [2, 4, 6])
    tree = tree_fidelities(config)
    for sp in run_ensemble(config).series:
        mean, var, leaves = tree[int(sp.x_value)]
        z = (sp.mean_fidelity - mean) / np.sqrt(var / sp.trajectories)
        assert abs(z) <= Z_BOUND, (model, sp.x_value, leaves, z)


def test_commuting_terms_get_no_weight_on_a_fock_state():
    # Kerr's detuning and kerr terms commute with |40>, so only the drive is ever sampled,
    # at tau = dt: a one-leaf tree. Their raw-moment norms came out near 4e-6 before the
    # radicand's rounding-bound zero, which moved the mean by about 1e-5.
    config = arc_config("kerr", 0.05, [1], initial_state="|40⟩")
    (mean, _, leaves), = tree_fidelities(config).values()
    (sp,) = run_ensemble(config).series
    assert leaves == 1
    assert abs(sp.mean_fidelity - mean) <= 1e-12, (sp.mean_fidelity, mean)


@pytest.mark.parametrize("model, dt, noise_std, trajectories", [
    ("mfim", 0.1, 0.1, TRAJECTORIES), ("kerr", 0.05, 0.1, TRAJECTORIES), ("rabi", 0.05, 0.1, TRAJECTORIES),
    ("rabi", 0.05, 1.0, STRONG_NOISE_TRAJECTORIES),
])
def test_noisy_ensemble_mean_matches_monte_carlo_tree(model, dt, noise_std, trajectories):
    config = arc_config(model, dt, [1, 2], noise_std=noise_std, trajectories=trajectories)
    oracle = noisy_tree_fidelities(config)
    for sp in run_ensemble(config).series:
        mean, mc_var = oracle[int(sp.x_value)]
        z = (sp.mean_fidelity - mean) / np.sqrt(sp.stderr**2 + mc_var)
        assert abs(z) <= Z_BOUND, (model, noise_std, sp.x_value, z)
