"""The rc and equal ensembles against the exact random-compiler channel.

For a fixed distribution p the trajectory mean of |<psi_exact|psi_m>|^2 is an
unbiased estimate of <psi_exact|Phi^N(rho0)|psi_exact>, with
Phi(rho) = sum_j p_j U_j rho U_j^dag and U_j = exp(-i H_j dt / p_j)
(Campbell, PRL 123, 070503 (2019)). This checks the whole ensemble pipeline
end to end: draws, inverse CDF, tau = dt / p_j, blocks, pool and aggregation.
"""

import numpy as np
import pytest

from arcsim import harness
from arcsim.hamiltonians import basis_state
from arcsim.harness import build_model, config_from_dict, run_ensemble
from arcsim.selftest import expm

CELLS = [("mfim", 50, 0.02), ("kerr", 50, 0.02), ("rabi", 50, 0.02), ("rabi", 20, 0.05)]


def channel_fidelity(config, protocol) -> float:
    """<psi_exact|Phi^N(rho0)|psi_exact> for the fixed distribution of rc or equal."""
    dec, structure = build_model(config)
    psi0 = basis_state(config.initial_state, structure).data
    (n,), dt = config.plan["n_list"], config.plan["dt"]
    p = np.array(dec.inf_norms) if protocol == "rc" else np.ones(len(dec))
    p = p / p.sum()
    steps = [expm(h.matrix, dt / pj) for h, pj in zip(dec.terms, p)]
    rho = np.outer(psi0, psi0.conj())
    for _ in range(n):
        rho = sum(pj * u @ rho @ u.conj().T for pj, u in zip(p, steps))
    target = expm(dec.total(), n * dt) @ psi0
    return float(np.real(target.conj() @ rho @ target))


def z_scores(config) -> dict:
    return {
        sp.protocol: (sp.mean_fidelity - channel_fidelity(config, sp.protocol)) / sp.stderr
        for sp in run_ensemble(config).series
    }


def cell_config(model, n, dt):
    return config_from_dict({
        "model": model, "protocols": ["rc", "equal"], "trajectories": 2000, "master_seed": 3,
        "plan": {"mode": "fixed_dt", "dt": dt, "n_list": [n]},
    })


@pytest.mark.parametrize("model, n, dt", CELLS)
def test_ensemble_mean_matches_channel(model, n, dt):
    for protocol, z in z_scores(cell_config(model, n, dt)).items():
        assert abs(z) <= 4.0, (model, n, protocol, z)


def test_pooled_ensemble_matches_channel(monkeypatch):
    monkeypatch.setattr(harness, "POOL_MIN_S", 0.0)
    monkeypatch.setenv("ARC_SIM_THREADS", "2")
    for protocol, z in z_scores(cell_config("mfim", 50, 0.02)).items():
        assert abs(z) <= 4.0, (protocol, z)
