"""The simulated infidelity against the state-dependent depth bounds.

For a pure target, 1 - F = <psi|rho_exact - E rho_N|psi> is at most the
Hilbert-Schmidt norm of the averaged channel's error, and the bounds' per-step
brackets are that norm's second-order terms (Campbell, PRL 123, 070503
(2019)), so 1 - F <~ bound to leading order in dt. For "arc" the weights
depend on the state, so the check is the paper's argument rather than a
theorem; no channel oracle covers it.

Each shipped run config is checked at noise 0 with "arc", "rc" and
"trotter1", at the plan points where that protocol's bound is smallest and
largest, with the config's own seed and 200 trajectories.
"""

import json
from pathlib import Path

import pytest

from arcsim import cli, harness
from arcsim.harness import config_from_dict, run_ensemble

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PROTOCOLS = ("arc", "rc", "trotter1")
TRAJECTORIES = 200
SIGMAS = 4.0


@pytest.mark.parametrize("name", ["kerr_steps", "rabi_steps", "mfim_steps", "rabi_stepsize"])
def test_infidelity_within_bound(name, monkeypatch):
    monkeypatch.setenv("ARC_SIM_THREADS", "1")
    raw = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    raw.update(protocols=list(PROTOCOLS), trajectories=TRAJECTORIES, noise_std=0.0)
    ctx = harness._Context(config_from_dict(raw))
    _, reports = cli._compute_bounds(ctx)  # the bounds the CLI reports
    checked = {}  # protocol -> plan-point indices of its smallest and largest bound
    for protocol in PROTOCOLS:
        order = sorted(range(len(reports)), key=lambda i: getattr(reports[i], protocol))
        checked[protocol] = {order[0], order[-1]}
    kept = sorted(set().union(*checked.values()))
    list_key = "n_list" if raw["plan"]["mode"] == "fixed_dt" else "dt_list"
    raw["plan"][list_key] = [raw["plan"][list_key][i] for i in kept]
    series = {(s.protocol, s.x_value): s for s in run_ensemble(config_from_dict(raw)).series}

    failures = []
    for protocol, indices in checked.items():
        for i in sorted(indices):
            s = series[(protocol, ctx.points[i].x_value)]
            bound = getattr(reports[i], protocol)
            if not 1.0 - s.mean_fidelity <= bound + SIGMAS * s.stderr:
                failures.append((protocol, s.x_value, 1.0 - s.mean_fidelity, s.stderr, bound))
    assert not failures, failures
