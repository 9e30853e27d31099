"""Noise-free arc ensembles against the exact branch tree.

With no measurement noise, arc's weights p(psi) are a function of the current
state, so the mean fidelity after N steps is a finite sum over at most L^N
branches, each weighted by the product of its p's: the random-compiler channel
argument (Campbell, PRL 123, 070503 (2019)) applied branch by branch. The
oracle takes each term's step from its own dense eigh, independent of
HermitianOperator.eig, and each weight from the matrix oracle
double_commutator_norm with the engine's zero rule (p_j = 0 exactly where
d_j = 0); branches with p = 0 are pruned.
"""

import numpy as np
import pytest

from arcsim.hamiltonians import basis_state
from arcsim.harness import build_model, config_from_dict, run_ensemble
from arcsim.linalg import QuantumState
from arcsim.moments import double_commutator_norm

TRAJECTORIES, SEED, Z_BOUND = 2000, 3, 4.0


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
