import dataclasses
import json
import os
import pickle
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from arcsim.compilers import EXACT_CHUNK, StepPlan, run_block
from arcsim import harness, rng
from arcsim.emit import ptrace_csv, series_csv
from arcsim.harness import (
    ConfigError,
    PLAN_MODES,
    PROTOCOL_IDS,
    _Context,
    _block_size,
    _openblas_threads,
    _single_blas_thread,
    config_from_dict,
    extrapolate_zero_dt,
    load_config,
    plan_points,
    run_ensemble,
    run_ptrace,
    worker_count,
)
from arcsim.hamiltonians import Decomposition
from arcsim.linalg import QuantumState, basis_coordinates, fidelities, rotate_coordinates
from arcsim.rng import trajectory_stream
from arcsim.selftest import random_hermitian, random_pure

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
MFIM_BLOCK = _block_size(16)  # trajectories per block of the four-site MFIM
DEFAULT_N_LIST, DEFAULT_DT_LIST = list(PLAN_MODES["fixed_dt"]["n_list"]), list(PLAN_MODES["fixed_t"]["dt_list"])


def mfim_config(**overrides):
    raw = {
        "model": "mfim",
        "protocols": ["arc", "rc"],
        "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [10]},
        "trajectories": 40,
        "noise_std": 0.1,
        "master_seed": 5,
    }
    raw.update(overrides)
    return config_from_dict(raw)


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = config_from_dict({"model": "kerr"})
        assert cfg.params == {"delta": 0.3, "K": 1.0, "eps": 0.5, "D": 50}
        assert cfg.initial_state == "(|1⟩+|5⟩)/√2"
        assert cfg.plan["n_list"] == DEFAULT_N_LIST
        assert cfg.trajectories == 2000

    def test_fixed_t_defaults(self):
        cfg = config_from_dict({"model": "rabi", "plan": {"mode": "fixed_t"}})
        assert cfg.plan["dt_list"] == DEFAULT_DT_LIST

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": "mfim", "trjaectories": 10})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": "hubbard"})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": "mfim", "params": {"Jz": 1.0}})

    def test_bad_protocol_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": "mfim", "protocols": ["magnus"]})

    def test_bad_plan_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": "mfim", "plan": {"mode": "fixed_dt", "n_list": [0]}})
        with pytest.raises(ConfigError):
            config_from_dict({"model": "mfim", "plan": {"mode": "adaptive"}})

    def test_seed_range_enforced(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": "mfim", "master_seed": -1})
        with pytest.raises(ConfigError):
            config_from_dict({"model": "mfim", "master_seed": 2**64})

    def test_shot_params_validated(self):
        good = {"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        assert config_from_dict({"model": "mfim", "shot_params": good}).shot_params == good
        for bad in ({"k": 0}, dict(good, k=0), dict(good, n_qbits=4), dict(good, eps_stat=None)):
            with pytest.raises(ConfigError, match="invalid shot_params"):
                config_from_dict({"model": "mfim", "shot_params": bad})

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "mfim", "trajectories": 7}))
        cfg = load_config(path)
        assert cfg.trajectories == 7

    def test_echo_lists_every_field(self):
        shots = {"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        full = config_from_dict({
            "model": "mfim", "ptrace_trajectories": 3, "shot_params": shots,
        })
        names = [f.name for f in dataclasses.fields(full)]
        assert list(full.to_dict()) == names
        bare = config_from_dict({"model": "mfim"}).to_dict()
        assert list(bare) == [n for n in names if n not in ("ptrace_trajectories", "shot_params")]
        echo = full.to_dict()
        echo["params"]["L"] = 9
        echo["protocols"].append("equal")
        echo["shot_params"]["k"] = 2
        echo["plan"]["n_list"].append(99)
        assert (full.params["L"], full.protocols, full.shot_params, full.plan["n_list"]) == (
            4, ["arc", "rc"], shots, DEFAULT_N_LIST
        )
        assert full.to_dict() == config_from_dict(full.to_dict()).to_dict()

    def test_build_model_passes_params_as_builder_keywords(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "build_mfim", lambda **kwargs: calls.append(kwargs) or ("dec", "st"))
        assert harness.build_model(config_from_dict({"model": "mfim", "params": {"J": 2.0}})) == ("dec", "st")
        assert calls == [{"L": 4, "J": 2.0, "h_x": 0.5, "h_z": 0.3}]

    @pytest.mark.parametrize("model, params", [
        ("mfim", {"L": 2}), ("mfim", {"L": 4}), ("kerr", {"D": 2}), ("kerr", {"D": 50}),
        ("rabi", {"D": 2}), ("rabi", {"D": 50}),
    ])
    def test_dimension_cap_reads_the_built_dimension(self, model, params):
        ket = {"mfim": "0" * params.get("L", 0), "kerr": "0", "rabi": "0,0"}[model]
        config = config_from_dict({"model": model, "params": params, "initial_state": ket})
        assert harness._structure(model, config.params) == harness.build_model(config)[1]


class TestPlanModes:
    @pytest.mark.parametrize("mode", sorted(PLAN_MODES))
    def test_keys_defaults_and_echo_come_from_the_table(self, mode):
        table = PLAN_MODES[mode]
        default = config_from_dict({"model": "mfim", "plan": {"mode": mode}}).plan
        assert list(default) == ["mode", *table] and default == {"mode": mode, **table}
        assert all(default[key] is not value for key, value in table.items() if isinstance(value, list))
        given = dict(reversed(table.items()), mode=mode)  # any key order in, table order out
        assert list(config_from_dict({"model": "mfim", "plan": given}).to_dict()["plan"]) == ["mode", *table]
        others = {key for keys in PLAN_MODES.values() for key in keys} - set(table)
        for key in sorted(others) + ["bogus"]:
            with pytest.raises(ConfigError, match=rf"unknown plan keys \['{key}'\] for mode {mode}"):
                config_from_dict({"model": "mfim", "plan": {"mode": mode, key: 1}})


class TestPlanPoints:
    def test_fixed_dt_points(self):
        cfg = config_from_dict(
            {"model": "mfim", "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [5, 50]}}
        )
        points = plan_points(cfg.plan)
        assert [(p.x_kind, p.x_value) for p in points] == [("steps", 5.0), ("steps", 50.0)]
        assert points[1].plan.total_time == pytest.approx(1.0)

    def test_fixed_t_points(self):
        cfg = config_from_dict(
            {"model": "mfim", "plan": {"mode": "fixed_t", "t": 1.0, "dt_list": [0.02, 0.1]}}
        )
        points = plan_points(cfg.plan)
        assert points[0].plan.steps == 50
        assert points[1].plan.steps == 10
        assert points[0].x_value == pytest.approx(0.02)


class TestRunEnsemble:
    def test_exact_channel_is_unity(self):
        cfg = mfim_config(protocols=["exact"], trajectories=1)
        res = run_ensemble(cfg)
        for sp in res.series:
            assert sp.mean_fidelity == pytest.approx(1.0, abs=1e-12)
            assert sp.stderr == 0.0

    def test_deterministic_protocols_run_once(self):
        cfg = mfim_config(protocols=["exact", "trotter1"], trajectories=50)
        res = run_ensemble(cfg)
        assert all(sp.trajectories == 1 for sp in res.series)

    def test_single_term_random_protocol_is_exact(self):
        rng = np.random.default_rng(0)
        dec = Decomposition((random_hermitian(rng, 4),))
        (rec,) = run_block("rc", random_pure(rng, 4), dec, StepPlan(1.0, 10), [trajectory_stream(1)])
        assert rec.final_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_seed_determinism(self):
        a = series_csv(run_ensemble(mfim_config()))
        b = series_csv(run_ensemble(mfim_config()))
        assert a == b

    def test_seed_sensitivity(self):
        a = series_csv(run_ensemble(mfim_config()))
        b = series_csv(run_ensemble(mfim_config(master_seed=6)))
        assert a != b

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setenv("ARC_SIM_THREADS", "1")
        a = series_csv(run_ensemble(mfim_config()))
        monkeypatch.setenv("ARC_SIM_THREADS", "2")
        b = series_csv(run_ensemble(mfim_config()))
        assert a == b

    def test_stderr_formula(self):
        cfg = mfim_config(protocols=["rc"], trajectories=12)
        res = run_ensemble(cfg)
        ctx = _Context(cfg)
        fids = np.array(
            [ctx.run_one("rc", 0, m).final_fidelity for m in range(12)]
        )
        sp = res.series[0]
        assert sp.mean_fidelity == pytest.approx(fids.mean(), abs=1e-15)
        assert sp.stderr == pytest.approx(np.std(fids, ddof=1) / np.sqrt(12), abs=1e-15)

    def test_mean_fidelity_equals_density_average(self):
        # per-trajectory |<psi|phi_m>|^2 averaged == <psi|rho_bar|psi>
        cfg = mfim_config(protocols=["arc"], trajectories=25)
        ctx = _Context(cfg)
        recs = [ctx.run_one("arc", 0, m) for m in range(25)]
        target = ctx.exact(0)[-1]
        mean_direct = np.mean([fidelities(target, r.final_state.data[:, None])[0] for r in recs])
        rho_bar = np.mean([r.final_state.density() for r in recs], axis=0)
        overlap = float(np.real(np.vdot(target, rho_bar @ target)))
        assert mean_direct == pytest.approx(overlap, abs=1e-10)

    def test_monotone_trend_in_dt(self):
        cfg = config_from_dict(
            {
                "model": "mfim",
                "protocols": ["rc", "arc"],
                "plan": {"mode": "fixed_t", "t": 1.0, "dt_list": [0.02, 0.05, 0.1]},
                "trajectories": 150,
                "noise_std": 0.1,
                "master_seed": 19,
            }
        )
        res = run_ensemble(cfg)
        for proto in ("rc", "arc"):
            pts = sorted(
                (sp.x_value, sp.mean_fidelity, sp.stderr)
                for sp in res.series
                if sp.protocol == proto
            )
            for (_, f1, s1), (_, f2, s2) in zip(pts, pts[1:]):
                assert f2 <= f1 + 2 * (s1 + s2)


class TestExactReference:
    def test_shared_dt_computed_once_and_sliced(self, monkeypatch):
        cfg = mfim_config(plan={"mode": "fixed_dt", "dt": 0.02, "n_list": DEFAULT_N_LIST})
        calls = []
        run_exact = harness.run_exact

        def counted(state0, full_h, plan):
            calls.append(plan.steps)
            return run_exact(state0, full_h, plan)

        monkeypatch.setattr(harness, "run_exact", counted)
        ctx = _Context(cfg)
        states = [ctx.exact(i) for i in range(len(ctx.points))]
        assert calls == [50]
        for point, got in zip(ctx.points, states):
            want = run_exact(ctx.state0, ctx.decomp.total_operator, point.plan)
            assert got.shape == want.shape == (point.plan.steps, ctx.state0.dim)
            assert np.array_equal(got, want)

    def test_shipped_references_are_normalized_closed_form_rows(self):
        # bit for bit: state k is its closed-form column, EXACT_CHUNK columns per product,
        # normalized as QuantumState normalizes a vector
        for path in CONFIGS:
            ctx = _Context(load_config(path))
            h, psi0 = ctx.decomp.total_operator, ctx.state0.data
            for group in ctx.groups.values():
                longest = ctx.exact(group[0])
                for q in group:
                    plan, got = ctx.points[q].plan, ctx.exact(q)
                    times = np.arange(1, plan.steps + EXACT_CHUNK) * plan.dt
                    with _single_blas_thread():
                        closed = np.concatenate([
                            rotate_coordinates(h, basis_coordinates(h, psi0[:, None]), times[k : k + EXACT_CHUNK])
                            for k in range(0, plan.steps, EXACT_CHUNK)
                        ], axis=1)
                    want = np.array([QuantumState(closed[:, k]).data for k in range(plan.steps)])
                    assert got.shape == (plan.steps, ctx.state0.dim), (path.name, q)
                    assert np.array_equal(got, want), (path.name, q)
                    assert np.array_equal(got, longest[: plan.steps]), (path.name, q)

    def test_distinct_dt_computed_per_point(self, monkeypatch):
        cfg = mfim_config(plan={"mode": "fixed_t", "t": 0.2, "dt_list": [0.02, 0.05, 0.1]})
        calls = []
        run_exact = harness.run_exact
        monkeypatch.setattr(
            harness, "run_exact", lambda *args: calls.append(args[2].steps) or run_exact(*args)
        )
        ctx = _Context(cfg)
        for i in range(3):
            ctx.exact(i)
            ctx.exact(i)
        assert calls == [10, 4, 2]


class TestExtrapolation:
    def test_exact_linear_data(self):
        pts = [(dt, 1.0 - 2.0 * dt) for dt in (0.01, 0.02, 0.04, 0.08)]
        assert extrapolate_zero_dt(pts) == pytest.approx(1.0)

    def test_constant_data(self):
        assert extrapolate_zero_dt([(0.01, 0.9), (0.02, 0.9), (0.04, 0.9)]) == pytest.approx(0.9)

    def test_clamps_to_unit_interval(self):
        pts = [(0.01, 1.002), (0.02, 1.001), (0.04, 0.999)]
        assert extrapolate_zero_dt(pts) == 1.0

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            extrapolate_zero_dt([(0.01, 0.9), (0.02, 0.8)])

    def test_uses_three_smallest(self):
        # a wild value at large dt must not affect the fit
        pts = [(0.01, 0.99), (0.02, 0.98), (0.04, 0.96), (0.5, 0.0)]
        assert extrapolate_zero_dt(pts) == pytest.approx(1.0, abs=1e-12)

    def test_attached_to_fixed_t_results(self):
        cfg = config_from_dict(
            {
                "model": "mfim",
                "protocols": ["rc"],
                "plan": {"mode": "fixed_t", "t": 0.5, "dt_list": [0.025, 0.05, 0.1]},
                "trajectories": 30,
                "master_seed": 3,
            }
        )
        res = run_ensemble(cfg)
        assert "rc" in res.extrapolated
        assert 0.0 <= res.extrapolated["rc"] <= 1.0

    def test_step_sizes_that_round_to_one_step_count_are_rejected(self):
        plan = {"mode": "fixed_t", "t": 0.1, "dt_list": [0.01, 0.0101, 0.02]}
        with pytest.raises(ConfigError, match=r"step sizes 0\.01 and 0\.0101 both give 10 steps"):
            config_from_dict({"model": "mfim", "protocols": ["rc"], "plan": plan})

    def test_repeated_step_size_adds_points_not_a_step_size(self):
        # three runs at one dt have no slope to fit: no extrapolation, and no rank-deficient polyfit
        cfg = config_from_dict(
            {"model": "mfim", "protocols": ["rc"], "trajectories": 3,
             "plan": {"mode": "fixed_t", "t": 0.1, "dt_list": [0.01, 0.01, 0.01]}}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_ensemble(cfg)
        assert len(res.series) == 3 and res.extrapolated == {}
        with pytest.raises(ValueError, match="3 distinct dt"):
            extrapolate_zero_dt([(0.01, 0.99), (0.01, 0.98), (0.02, 0.97), (0.02, 0.96)])
        # a repeat joins the fit at its dt, and the fourth-smallest dt stays out of it
        pts = [(0.01, 0.99), (0.01, 0.97), (0.02, 0.96), (0.04, 0.94), (0.5, 0.0)]
        want = np.polyfit([0.01, 0.01, 0.02, 0.04], [0.99, 0.97, 0.96, 0.94], 1)[1]
        assert extrapolate_zero_dt(pts) == pytest.approx(want, rel=1e-12)


class TestPtrace:
    def test_requires_arc_only(self):
        cfg = mfim_config(protocols=["rc"])
        with pytest.raises(ConfigError):
            run_ptrace(cfg)

    def test_requires_single_point(self):
        cfg = mfim_config(protocols=["arc"], plan={"mode": "fixed_dt", "dt": 0.02, "n_list": [5, 10]})
        with pytest.raises(ConfigError):
            run_ptrace(cfg)

    def test_table_shape(self):
        cfg = mfim_config(protocols=["arc"], noise_std=0.0)
        table = run_ptrace(cfg)
        assert table.probabilities.shape == (10, 3)
        assert table.steps.tolist() == list(range(1, 11))
        assert np.allclose(table.probabilities.sum(axis=1), 1.0)
        for k in range(10):
            j = table.sampled_indices[k]
            assert table.taus[k] == pytest.approx(0.02 / table.probabilities[k, j], rel=1e-12)

    @pytest.mark.parametrize("model, couplings", [
        ("mfim", ("J",)), ("kerr", ("delta", "K", "eps")), ("rabi", ("omega", "Omega", "g")),
    ])
    def test_arc_weights_do_not_depend_on_the_units_of_h(self, model, couplings):
        # H -> sH with dt -> dt/s leaves every step exp(-i H_j tau_j) and every weight unchanged;
        # MFIM's h_x and h_z multiply J, so J alone sets its scale
        def trace(s):
            params = {key: s * harness.DEFAULT_PARAMS[model][key] for key in couplings}
            return run_ptrace(config_from_dict({
                "model": model, "protocols": ["arc"], "master_seed": 3, "noise_std": 0.0,
                "params": params, "plan": {"mode": "fixed_dt", "dt": 0.05 / s, "n_list": [20]},
            }))

        base = trace(1.0)
        for s in (1e-4, 1e-8):
            table = trace(s)
            assert np.max(np.abs(table.probabilities - base.probabilities)) <= 1e-12, s
            assert np.array_equal(table.sampled_indices, base.sampled_indices), s

    def test_matches_direct_trajectory(self):
        cfg = mfim_config(protocols=["arc"], noise_std=0.0)
        table = run_ptrace(cfg)
        ctx = _Context(cfg)
        rec = ctx.run_one("arc", 0, 0)
        assert np.array_equal(table.probabilities, rec.probabilities)
        assert np.array_equal(table.sampled_indices, rec.indices)

    def test_averaged_mode(self):
        cfg = mfim_config(protocols=["arc"], noise_std=0.0, ptrace_trajectories=4)
        table = run_ptrace(cfg)
        assert np.all(table.sampled_indices == -1)
        assert np.all(np.isnan(table.taus))
        assert np.allclose(table.probabilities.sum(axis=1), 1.0)

    def test_averaged_trace_equals_mean_of_block_records(self, monkeypatch):
        # blocks of 3, 3 and 1: the running per-step sums keep np.mean's bits over all records
        monkeypatch.setattr(harness, "_block_size", lambda dim: 3)
        cfg = mfim_config(protocols=["arc"], ptrace_trajectories=7)
        table = run_ptrace(cfg)
        ctx = _Context(cfg)
        records = []
        for lo, hi in harness._blocks(7, ctx.state0.dim):
            *args, noise = ctx.block("arc", [(0, m) for m in range(lo, hi)])
            records += run_block(*args, noise=noise, exact_states=ctx.exact(0))
        assert len(records) == 7
        want = np.mean(np.stack([rec.probabilities for rec in records]), axis=0)
        assert np.array_equal(table.probabilities, want)
        assert np.all(table.sampled_indices == -1)
        assert np.all(np.isnan(table.taus))

    def test_averaged_trace_memory(self):
        # one running (N, L) sum, not every trajectory's per-step history (7.7 MB here)
        cfg = mfim_config(
            protocols=["arc"], plan={"mode": "fixed_dt", "dt": 0.02, "n_list": [300]}, ptrace_trajectories=400
        )
        tracemalloc.start()
        try:
            run_ptrace(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_rabi_trace_seeded_regression(self):
        # frozen replay: weak-coupling trace under the pinned seed
        cfg = config_from_dict(
            {
                "model": "rabi",
                "protocols": ["arc"],
                "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [50]},
                "noise_std": 0.0,
                "master_seed": 7,
            }
        )
        table = run_ptrace(cfg)
        assert table.probabilities[0] == pytest.approx(
            (0.7176923191705968, 0.0, 0.2823076808294032), rel=1e-9
        )
        assert table.sampled_indices[0] == 0
        assert table.taus[0] == pytest.approx(0.027867094945523533, rel=1e-9)
        assert table.probabilities[5] == pytest.approx(
            (0.6422003585116941, 0.10657813722061076, 0.2512215042676951), rel=1e-9
        )


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ARC_SIM_THREADS", "3")
        assert worker_count() == 3

    def test_default_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("ARC_SIM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count() == 1

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("ARC_SIM_THREADS", "soon")
        with pytest.raises(ConfigError):
            worker_count()
        monkeypatch.setenv("ARC_SIM_THREADS", "0")
        with pytest.raises(ConfigError):
            worker_count()

    def test_env_cap(self, monkeypatch):
        # only the count is read: no process starts
        monkeypatch.setenv("ARC_SIM_THREADS", str(harness.MAX_WORKERS))
        assert worker_count() == harness.MAX_WORKERS == 64
        for value in ("65", "1000"):
            monkeypatch.setenv("ARC_SIM_THREADS", value)
            with pytest.raises(ConfigError, match=f"ARC_SIM_THREADS must be from 1 to 64, got {value}"):
                worker_count()

    def test_single_blas_thread_restores_count(self):
        fns = _openblas_threads()
        before = fns[1]() if fns else None
        with _single_blas_thread():
            if fns:
                assert fns[1]() == 1
        assert (fns[1]() if fns else None) == before

    def test_openblas_lookup_runs_once(self, monkeypatch):
        import ctypes

        opened = []
        cdll = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda *a, **k: opened.append(a) or cdll(*a, **k))
        _openblas_threads.cache_clear()
        first = _openblas_threads()
        loads = len(opened)
        assert _openblas_threads() is first and len(opened) == loads

    def test_rabi_bytes_independent_of_blas_threads(self, monkeypatch):
        # dim-100 products: threaded BLAS changes their last bits, so the
        # ensemble must not run on whatever thread count the caller left set
        monkeypatch.setenv("ARC_SIM_THREADS", "1")
        cfg = config_from_dict(
            {
                "model": "rabi",
                "protocols": ["rc", "arc"],
                "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [20]},
                "trajectories": 6,
                "noise_std": 0.0,
                "master_seed": 11,
            }
        )
        fns = _openblas_threads()
        if fns is None:
            assert series_csv(run_ensemble(cfg)) == series_csv(run_ensemble(cfg))
            return
        set_fn, get_fn = fns
        before = get_fn()
        try:
            outputs = []
            for threads in (2, 1):
                set_fn(threads)
                outputs.append(series_csv(run_ensemble(cfg)))
        finally:
            set_fn(before)
        assert outputs[0] == outputs[1]

    def test_rabi_ptrace_bytes_independent_of_blas_threads(self):
        cfg = config_from_dict(
            {
                "model": "rabi",
                "protocols": ["arc"],
                "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [20]},
                "noise_std": 0.0,
                "master_seed": 12,
                "ptrace_trajectories": 5,
            }
        )
        fns = _openblas_threads()
        if fns is None:
            assert ptrace_csv(run_ptrace(cfg)) == ptrace_csv(run_ptrace(cfg))
            return
        set_fn, get_fn = fns
        before = get_fn()
        try:
            outputs = []
            for threads in (2, 1):
                set_fn(threads)
                outputs.append(ptrace_csv(run_ptrace(cfg)))
        finally:
            set_fn(before)
        assert outputs[0] == outputs[1]

    def test_exact_reference_independent_of_blas_threads(self):
        # the bounds command reads these states outside any trajectory loop
        cfg = config_from_dict(
            {
                "model": "rabi",
                "params": {"g": 0.8},
                "protocols": ["arc"],
                "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [50]},
            }
        )
        fns = _openblas_threads()
        counts = (2, 1) if fns else (None, None)
        before = fns[1]() if fns else None
        try:
            states = []
            for threads in counts:
                if fns:
                    fns[0](threads)
                states.append(_Context(cfg).exact(0))
        finally:
            if fns:
                fns[0](before)
        assert np.array_equal(states[0], states[1])

    def test_bytes_independent_of_worker_count(self, monkeypatch):
        monkeypatch.setattr(harness, "POOL_MIN_S", 0.0)  # pool even for small ensembles
        # more trajectories than one block, so the pool splits each plan point
        cases = [
            ("mfim", {"n_list": [5, 10]}, {"noise_std": 0.2, "trajectories": MFIM_BLOCK + 6}),
            ("rabi", {"n_list": [10]}, {"noise_std": 0.0, "trajectories": 10}),
        ]
        for model, plan, extra in cases:
            raw = {"model": model, "protocols": ["arc", "rc"], "master_seed": 2, **extra,
                   "plan": {"mode": "fixed_dt", "dt": 0.02, **plan}}
            trace = {**raw, "protocols": ["arc"], "plan": {**raw["plan"], "n_list": [10]},
                     "ptrace_trajectories": 3}
            outputs = []
            for threads in ("1", "2"):
                monkeypatch.setenv("ARC_SIM_THREADS", threads)
                outputs.append((
                    series_csv(run_ensemble(config_from_dict(raw))),
                    ptrace_csv(run_ptrace(config_from_dict(trace))),
                ))
            assert outputs[0] == outputs[1], model

    def test_pool_only_for_large_estimates(self, monkeypatch):
        import concurrent.futures

        built = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, **kwargs):
                built.append(kwargs["max_workers"])
                super().__init__(**kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setenv("ARC_SIM_THREADS", "3")
        cfg = mfim_config(
            trajectories=MFIM_BLOCK + 6, plan={"mode": "fixed_dt", "dt": 0.02, "n_list": [5, 10]}
        )
        # arc and rc, three blocks each: 6 tasks and 2 * 806 * 15 trajectory-steps at dim 16
        estimate = 2 * (MFIM_BLOCK + 6) * 15 * (harness.STEP_S + harness.STEP_DIM2_S * 16**2)
        assert estimate < harness.POOL_MIN_S
        outputs = []
        for threshold, pools in (
            (harness.POOL_MIN_S, []), (estimate * 1.001, []), (estimate * 0.999, [3])
        ):
            monkeypatch.setattr(harness, "POOL_MIN_S", threshold)
            built.clear()
            outputs.append(series_csv(run_ensemble(cfg)))
            assert built == pools, threshold
        assert outputs[0] == outputs[1] == outputs[2]
        # one task cannot be shared, and never more workers than tasks
        monkeypatch.setattr(harness, "POOL_MIN_S", 0.0)
        for trajectories, pools in ((MFIM_BLOCK, []), (MFIM_BLOCK + 1, [2])):
            built.clear()
            run_ensemble(mfim_config(protocols=["rc"], trajectories=trajectories))
            assert built == pools, trajectories

    def test_pool_starts_after_the_ziggurat_table(self, monkeypatch):
        # forked workers inherit the parent's table instead of each reading it
        import concurrent.futures

        filled = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, **kwargs):
                filled.append(rng._ziggurat.cache_info().currsize)
                super().__init__(**kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(harness, "POOL_MIN_S", 0.0)  # pool even for small ensembles
        monkeypatch.setenv("ARC_SIM_THREADS", "2")
        # only noisy arc draws Gaussians
        for protocols, noise_std, want in ((["arc"], 0.1, 1), (["rc"], 0.1, 0), (["arc"], 0.0, 0)):
            rng._ziggurat.cache_clear()
            filled.clear()
            cfg = mfim_config(protocols=protocols, noise_std=noise_std, trajectories=MFIM_BLOCK + 1)
            run_ensemble(cfg)
            assert filled == [want], (protocols, noise_std)

    def test_protocol_ids_stable(self):
        # seed paths depend on these ids; changing them silently would break
        # reproducibility of archived results
        assert PROTOCOL_IDS == {"trotter1": 0, "rc": 1, "arc": 2, "equal": 3, "exact": 4}


class TestConfigValidation:
    def test_integer_sizes(self):
        for model, key in (("mfim", "L"), ("kerr", "D"), ("rabi", "D")):
            for bad in (4.7, 4.0, "4", True, 0, -3, None):
                with pytest.raises(ConfigError, match=f"params.{key} must be an integer"):
                    config_from_dict({"model": model, "params": {key: bad}})

    def test_real_couplings(self):
        for bad in ("1.0", float("nan"), float("inf"), None, [1.0], False):
            with pytest.raises(ConfigError, match="params.J must be a finite number"):
                config_from_dict({"model": "mfim", "params": {"J": bad}})
        assert config_from_dict({"model": "mfim", "params": {"J": 2}}).params["J"] == 2

    def test_dimension_cap(self):
        assert harness.MAX_DIM == 1024
        for model, key, largest, ket in (
            ("mfim", "L", 10, "0" * 10), ("kerr", "D", 1024, "|1⟩"), ("rabi", "D", 512, "|2,0⟩")
        ):
            config_from_dict({"model": model, "params": {key: largest}, "initial_state": ket})
            for too_big in (largest + 1, 10**12):
                with pytest.raises(ConfigError, match="exceeds the cap of 1024"):
                    config_from_dict({"model": model, "params": {key: too_big}})


    def test_counts_reject_bools(self):
        for key in ("trajectories", "ptrace_trajectories", "master_seed"):
            for bad in (True, 2.0, "2", None):
                with pytest.raises(ConfigError, match=key):
                    config_from_dict({"model": "mfim", key: bad})
        plans = (
            {"mode": "fixed_dt", "n_list": [5, True]},
            {"mode": "fixed_t", "dt_list": [0.1, True]},
            {"mode": "fixed_t", "dt_list": [float("inf")]},
            {"mode": "fixed_dt", "dt": "0.02"},
            {"mode": "fixed_t", "t": None},
        )
        for plan in plans:
            with pytest.raises(ConfigError, match="plan|step"):
                config_from_dict({"model": "mfim", "plan": plan})
        for key, bad in (("noise_std", "0.1"), ("noise_std", float("nan")), ("model", ["mfim"]),
                         ("initial_state", 3), ("out", 1), ("include_bounds", "no")):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"model": "mfim", key: bad})

    def test_trajectory_cap(self, monkeypatch):
        assert harness.MAX_TRAJECTORIES == 100_000
        for key in ("trajectories", "ptrace_trajectories"):
            with pytest.raises(ConfigError, match=f"{key} must be an integer from 1 to 100000"):
                config_from_dict({"model": "mfim", key: 10**9})
        monkeypatch.setattr(harness, "MAX_TRAJECTORIES", 2000)  # the default trajectory count
        for key in ("trajectories", "ptrace_trajectories"):
            assert getattr(config_from_dict({"model": "mfim", key: 2000}), key) == 2000
            for bad in (2001, 0):
                with pytest.raises(ConfigError, match=f"{key} must be an integer from 1 to 2000"):
                    config_from_dict({"model": "mfim", key: bad})

    def test_step_cap(self, monkeypatch):
        assert harness.MAX_STEPS == 10_000
        monkeypatch.setattr(harness, "MAX_STEPS", 50)
        ok = config_from_dict({"model": "mfim", "plan": {"mode": "fixed_dt", "n_list": [5, 50]}})
        assert [p.plan.steps for p in plan_points(ok.plan)] == [5, 50]
        with pytest.raises(ConfigError, match="step count must be an integer from 1 to 50, got 51"):
            config_from_dict({"model": "mfim", "plan": {"mode": "fixed_dt", "n_list": [5, 51]}})
        ok = config_from_dict({"model": "mfim", "plan": {"mode": "fixed_t", "t": 1.0, "dt_list": [0.02]}})
        assert [p.plan.steps for p in plan_points(ok.plan)] == [50]
        for t, dt in ((1.0, 0.01), (1e300, 1e-10)):
            with pytest.raises(ConfigError, match="exceeds the step cap of 50"):
                config_from_dict({"model": "mfim", "plan": {"mode": "fixed_t", "t": t, "dt_list": [dt]}})


class TestDtGroups:
    def test_group_order_is_longest_first(self):
        cfg = mfim_config(
            plan={"mode": "fixed_t", "t": 0.2, "dt_list": [0.1, 0.05, 0.1]}, trajectories=2
        )
        ctx = _Context(cfg)
        assert ctx.groups == {0.1: [0, 2], 0.05: [1]}
        assert ctx.members("rc", 2, 0, 4) == [(0, 0), (0, 1), (2, 0), (2, 1)]
        assert ctx.members("rc", 0, 1, 4) == ctx.members("arc", 2, 1, 4)  # one layout per count and dt
        assert ctx.members("trotter1", 0, 0, 2) == [(0, 0), (2, 0)]
        cfg = mfim_config(plan={"mode": "fixed_dt", "dt": 0.02, "n_list": [5, 15, 10]}, trajectories=2)
        assert _Context(cfg).members("arc", 0, 0, 6) == [(1, 0), (1, 1), (2, 0), (2, 1), (0, 0), (0, 1)]
        assert _Context(cfg).members("arc", 0, 3, 5) == [(2, 1), (0, 0)]

    def test_fixed_dt_sweep_is_one_group(self):
        # every point steps with the config's dt, though (n * 0.05) / n is not 0.05 for n = 3 or 6
        ctx = _Context(mfim_config(plan={"mode": "fixed_dt", "dt": 0.05, "n_list": [3, 4, 5, 6, 10]}))
        assert ctx.groups == {0.05: [4, 3, 2, 1, 0]}
        assert [point.plan.dt for point in ctx.points] == [0.05] * 5

    def test_block_width_follows_dimension(self):
        # wide blocks of small states, 128 from dim 100 up; the worker count plays no part
        assert [_block_size(dim) for dim in (2, 16, 50, 99, 100, 200, 1024)] == [6400, 800, 256, 129, 128, 128, 128]
        assert harness._blocks(1700, 16) == [(0, 800), (800, 1600), (1600, 1700)]

    def test_bookkeeping_is_one_float_per_trajectory(self, monkeypatch):
        # 20,000 trajectories at 10 plan points of one dt: the fidelity arrays take 1.6 MB, and a
        # list of the group's 200,000 (point, trajectory) pairs would add about 20 MB
        monkeypatch.setenv("ARC_SIM_THREADS", "1")
        monkeypatch.setattr(harness, "_chunk_fidelities", lambda ctx, protocol, q, lo, hi: np.full(hi - lo, 0.5))
        cfg = mfim_config(
            protocols=["rc"], trajectories=20_000, plan={"mode": "fixed_dt", "dt": 0.02, "n_list": DEFAULT_N_LIST}
        )
        ctx = _Context(cfg)
        tracemalloc.start()
        try:
            fids = harness._ensemble_fidelities(ctx, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fids) == 10 and all(np.all(values == 0.5) for values in fids.values())
        assert peak < 10_000_000

    def test_noisy_sweep_memory(self, monkeypatch):
        # the mfim-noisy-sweep benchmark config: one 400-wide block per protocol, which keeps
        # no per-step history and draws a bounded number of pairs at a time
        monkeypatch.setenv("ARC_SIM_THREADS", "1")
        cfg = mfim_config(
            master_seed=11, plan={"mode": "fixed_dt", "dt": 0.02, "n_list": DEFAULT_N_LIST}
        )
        ctx = _Context(cfg)
        tracemalloc.start()
        try:
            harness._ensemble_fidelities(ctx, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_320_000

    def test_ensemble_matches_single_trajectories(self, monkeypatch):
        monkeypatch.setenv("ARC_SIM_THREADS", "1")
        monkeypatch.setattr(harness, "_block_size", lambda dim: 7)  # blocks that mix plan points
        cfg = mfim_config(
            protocols=["arc", "rc", "trotter1", "exact"], trajectories=5, noise_std=0.2,
            plan={"mode": "fixed_dt", "dt": 0.02, "n_list": [5, 20, 10]},
        )
        ctx = _Context(cfg)
        fids = harness._ensemble_fidelities(ctx, cfg)
        for (protocol, q), values in fids.items():
            want = [ctx.run_one(protocol, q, m).final_fidelity for m in range(len(values))]
            assert np.allclose(values, want, rtol=0, atol=1e-12), (protocol, q)

    def test_pool_workers_reuse_parent_context(self, monkeypatch, tmp_path):
        # one exact trajectory per dt, computed in the parent; the workers build no context
        log = tmp_path / "calls.txt"
        parent = os.getpid()

        def record(what):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{what} {os.getpid()}\n")

        run_exact, init, ctx_init = harness.run_exact, harness._worker_init, _Context.__init__
        monkeypatch.setattr(harness, "run_exact", lambda *a: record("exact") or run_exact(*a))
        monkeypatch.setattr(harness, "_worker_init", lambda ctx: record("worker") or init(ctx))
        monkeypatch.setattr(_Context, "__init__", lambda self, c: record("context") or ctx_init(self, c))
        monkeypatch.setenv("ARC_SIM_THREADS", "2")
        monkeypatch.setattr(harness, "POOL_MIN_S", 0.0)  # pool even for small ensembles
        cfg = mfim_config(
            plan={"mode": "fixed_t", "t": 0.2, "dt_list": [0.1, 0.05, 0.1]}, trajectories=20
        )
        run_ensemble(cfg)
        calls = [line.split() for line in log.read_text().splitlines()]
        assert sorted(what for what, pid in calls if int(pid) == parent) == ["context", "exact", "exact"]
        workers = [what for what, pid in calls if int(pid) != parent]
        assert workers and set(workers) == {"worker"}

    def test_context_pickles_for_spawned_workers(self):
        cfg = mfim_config(trajectories=3)
        ctx = _Context(cfg)
        ctx.exact(0)
        clone = pickle.loads(pickle.dumps(ctx))
        runs = [[c.run_one("arc", q, m) for q, m in c.members("arc", 0, 0, 3)] for c in (ctx, clone)]
        for a, b in zip(*runs):
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.final_state.data, b.final_state.data)
