import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from arcsim import bounds, cli, harness, selftest
from arcsim.bounds import BoundReport
from arcsim.emit import SERIES_COLUMNS, emit_svg, ptrace_csv, result_json, series_csv
from arcsim.harness import config_from_dict, run_ensemble, run_ptrace


def write_config(tmp_path, name="cfg.json", **overrides):
    raw = {
        "model": "mfim",
        "protocols": ["arc", "rc"],
        "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [5]},
        "trajectories": 20,
        "noise_std": 0.1,
        "master_seed": 11,
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def small_result():
    cfg = config_from_dict(
        {
            "model": "mfim",
            "protocols": ["arc", "rc"],
            "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [5, 10]},
            "trajectories": 10,
            "master_seed": 2,
        }
    )
    return run_ensemble(cfg)


class TestEmit:
    def test_series_csv_columns(self):
        text = series_csv(small_result())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert len(lines) == 1 + 4  # 2 protocols x 2 plan points
        first = lines[1].split(",")
        assert first[0] == "arc" and first[1] == "steps"

    def test_json_mirrors_schema(self):
        res = small_result()
        doc = json.loads(result_json(res))
        assert doc["config"]["model"] == "mfim"
        assert len(doc["series"]) == 4
        assert set(doc["series"][0]) == set(SERIES_COLUMNS)

    def test_ptrace_csv_columns(self):
        cfg = config_from_dict(
            {
                "model": "rabi",
                "params": {"D": 10},
                "initial_state": "(|1,0⟩+|3,0⟩)/√2",
                "protocols": ["arc"],
                "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [5]},
                "noise_std": 0.0,
                "master_seed": 7,
            }
        )
        text = ptrace_csv(run_ptrace(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "step,p1,p2,p3,sampled_index,tau"
        assert len(lines) == 6
        row = lines[1].split(",")
        assert row[0] == "1"
        probs = np.array([float(x) for x in row[1:4]])
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_svg_render(self, tmp_path):
        path = tmp_path / "chart.svg"
        emit_svg(small_result(), path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2


class TestCliRun:
    def test_run_to_csv_file(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert len(lines) == 3

    def test_run_svg_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "fig.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--svg"])
        assert code == 0
        assert (tmp_path / "fig.svg").exists()

    def test_flag_overrides_change_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(out2), "--trajectories", "25"]) == 0
        assert out1.read_text() != out2.read_text()

    def test_run_with_bounds_builds_one_context(self, tmp_path, monkeypatch):
        # `bounds`, the one command that reports them, reads one exact trajectory per dt
        cfg = write_config(tmp_path, plan={"mode": "fixed_dt", "dt": 0.02, "n_list": [5, 10]})
        parent = os.getpid()
        calls = {"contexts": 0, "exact": 0}
        init, run_exact = harness._Context.__init__, harness.run_exact

        def counted_init(self, config):
            calls["contexts"] += os.getpid() == parent
            init(self, config)

        def counted_exact(*args):
            calls["exact"] += os.getpid() == parent
            return run_exact(*args)

        monkeypatch.setattr(harness._Context, "__init__", counted_init)
        monkeypatch.setattr(harness, "run_exact", counted_exact)
        for threads in ("1", "2"):
            monkeypatch.setenv("ARC_SIM_THREADS", threads)
            calls.update(contexts=0, exact=0)
            assert cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
            # both plan points share dt, so one exact trajectory serves them
            assert calls == {"contexts": 1, "exact": 1}, threads

    def test_seed_override_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "77"])
        cli.main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "77"])
        assert out1.read_bytes() == out2.read_bytes()


class TestCliPtraceBounds:
    def test_ptrace_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            protocols=["arc"],
            noise_std=0.0,
            plan={"mode": "fixed_dt", "dt": 0.02, "n_list": [5]},
        )
        out = tmp_path / "trace.csv"
        code = cli.main(["ptrace", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("step,p1,p2,p3")

    def test_shipped_trace_indices_are_frozen(self, tmp_path):
        # the sampled_index column of the shipped strong-coupling trace, frozen as exact integers
        config = Path(__file__).resolve().parents[1] / "configs" / "rabi_trace_strong_coupling.json"
        out = tmp_path / "trace.csv"
        assert cli.main(["ptrace", "--config", str(config), "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0].split(",")[-2] == "sampled_index"
        column = "".join(row.split(",")[-2] for row in rows[1:])
        assert column == "02222222020210002002022222122022221002200020220022"

    def test_ptrace_trajectories_flag_sets_the_trace_count(self, tmp_path):
        # --trajectories on ptrace averages that many trajectories, as ptrace_trajectories does
        runs = (
            (write_config(tmp_path, "flag.json", protocols=["arc"]), ["--trajectories", "5"]),
            (write_config(tmp_path, "key.json", protocols=["arc"], ptrace_trajectories=5), []),
        )
        outs = []
        for cfg, flag in runs:
            out = cfg.with_suffix(".csv")
            assert cli.main(["ptrace", "--config", str(cfg), "--out", str(out), *flag]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b",-1," in outs[0]  # averaged: no sampled index

    def test_ptrace_wrong_protocol_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, protocols=["rc"])
        assert cli.main(["ptrace", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_bounds_json(self, tmp_path):
        cfg = write_config(
            tmp_path, shot_params={"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        )
        out = tmp_path / "bounds.json"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["bounds"][0]["arc"] <= doc["bounds"][0]["rc"] * (1 + 1e-9)
        assert doc["state_independent"]["arc"] is None
        assert doc["shots"]["arc_state_preparation"] > 0


    def test_bounds_bytes_independent_of_out_name(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "bounds.json", tmp_path / "other-name.json"
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "out" not in json.loads(out1.read_text())["config"]

    def test_bounds_rejects_format_csv_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == cli.EXIT_CONFIG
        assert "bounds writes JSON only" in capsys.readouterr().err
        assert not out.exists()

    def test_bounds_entries_keep_their_key_order(self, tmp_path):
        # the plan point's labels, then BoundReport's fields in declaration order
        cfg = write_config(tmp_path)
        fields = ["t", "steps", "trotter1", "rc", "arc", "per_step"]
        out = tmp_path / "bounds.json"
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        (entry,) = json.loads(out.read_text())["bounds"]
        assert list(entry) == ["x_kind", "x_value"] + fields and list(entry["per_step"]) == fields[2:5]


class TestCliErrors:
    def test_invalid_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, model="heisenberg")
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_missing_config_exits_4(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == cli.EXIT_IO

    def test_unwritable_out_exits_4(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_IO

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)

        def boom(config):
            raise np.linalg.LinAlgError("eigendecomposition failed")

        monkeypatch.setattr(cli, "run_ensemble", boom)
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_NUMERICAL

    def test_bound_ordering_violation_exits_3(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)

        def inverted(decomposition, exact_states, plan):
            return BoundReport(
                trotter1=0.1, rc=1.0, arc=2.0, per_step={}, t=1.0, steps=plan.steps
            )

        monkeypatch.setattr(bounds, "bound_report", inverted)  # cli imports it when a command needs it
        assert cli.main(["bounds", "--config", str(cfg)]) == cli.EXIT_NUMERICAL

    def test_stray_ket_text_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model="kerr", initial_state="|0⟩ - 2*|1⟩")
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "stray '- 2*|1⟩'" in capsys.readouterr().err

    def test_bad_seed_flag_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--seed", "-4"]) == cli.EXIT_CONFIG

    def test_bad_model_size_exits_2_before_building(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("model built")

        monkeypatch.setattr(harness, "build_mfim", never)
        for params, message in (({"L": 40}, "exceeds the cap"), ({"L": 4.7}, "must be an integer")):
            cfg = write_config(tmp_path, params=params)
            assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
            assert message in capsys.readouterr().err

    def test_ket_off_the_model_exits_2_before_building(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("model built")

        for builder in ("build_mfim", "build_kerr", "build_rabi"):
            monkeypatch.setattr(harness, builder, never)
        default = "config error: default ket {} does not fit; set initial_state: {}"
        for overrides, message in (
            ({"params": {"L": 6}}, default.format("'0011'", "qubit string '0011' must be 6 characters")),
            ({"model": "kerr", "params": {"D": 5}}, default.format("'(|1⟩+|5⟩)/√2'", "Fock level 5 outside")),
            ({"model": "rabi", "params": {"D": 4}}, default.format("'(|2,0⟩+|5,0⟩)/√2'", "Fock level 5 outside")),
            ({"params": {"L": 6}, "initial_state": "0011"}, "config error: qubit string '0011' must be 6 characters"),
        ):
            cfg = write_config(tmp_path, **overrides)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                assert message in capsys.readouterr().err

    def test_bad_shot_params_exit_2_before_building(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("model built")

        monkeypatch.setattr(harness, "build_mfim", never)
        good = {"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        for shots in ({"k": 0}, dict(good, kk=1)):
            cfg = write_config(tmp_path, shot_params=shots)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                assert "invalid shot_params" in capsys.readouterr().err

    def test_mistyped_shot_params_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        good = {"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        for shots in (dict(good, k=1.5, w=True, S=0.5), dict(good, eps_stat=float("inf"))):
            cfg = write_config(tmp_path, shot_params=shots)
            assert cli.main(["bounds", "--config", str(cfg)]) == cli.EXIT_CONFIG
            assert "invalid shot_params" in capsys.readouterr().err

    def test_oversized_trajectories_exit_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        monkeypatch.setattr(harness, "MAX_TRAJECTORIES", 30)
        cfg = write_config(tmp_path, protocols=["arc"])
        for config, flag in ((cfg, "--trajectories"), (write_config(tmp_path, "big.json", trajectories=31), None)):
            for command in ("run", "ptrace"):
                argv = [command, "--config", str(config)] + ([flag, "31"] if flag else [])
                assert cli.main(argv) == cli.EXIT_CONFIG
                assert "must be an integer from 1 to 30" in capsys.readouterr().err
        assert cli.main(["run", "--config", str(cfg), "--trajectories", "0"]) == cli.EXIT_CONFIG
        big = write_config(tmp_path, "trace.json", protocols=["arc"], ptrace_trajectories=31)
        assert cli.main(["ptrace", "--config", str(big)]) == cli.EXIT_CONFIG
        assert "ptrace_trajectories" in capsys.readouterr().err

    def test_non_finite_noise_std_exits_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        cfg = write_config(tmp_path, protocols=["arc"])
        finite = "--noise-std must be a finite number"
        for value, message in (("nan", finite), ("inf", finite), ("-inf", finite), ("-0.5", "must be nonnegative")):
            for command in ("run", "ptrace", "bounds"):
                assert cli.main([command, "--config", str(cfg), f"--noise-std={value}"]) == cli.EXIT_CONFIG
                assert message in capsys.readouterr().err

    def test_oversized_noise_std_exits_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        cfg = write_config(tmp_path, protocols=["arc"])
        big = write_config(tmp_path, "big.json", protocols=["arc"], noise_std=1e300)
        for argv, name in (([str(cfg), "--noise-std=1e300"], "--noise-std"), ([str(big)], "noise_std")):
            for command in ("run", "ptrace", "bounds"):
                assert cli.main([command, "--config", *argv]) == cli.EXIT_CONFIG
                assert f"{name} must be at most {harness.MAX_NOISE_STD:g}" in capsys.readouterr().err
        at_cap = write_config(tmp_path, "cap.json", noise_std=harness.MAX_NOISE_STD)
        assert harness.load_config(at_cap).noise_std == harness.MAX_NOISE_STD

    def test_oversized_step_counts_exit_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        for plan in (
            {"mode": "fixed_t", "t": 1e300, "dt_list": [1e-10]},
            {"mode": "fixed_dt", "dt": 0.02, "n_list": [5, harness.MAX_STEPS + 1]},
        ):
            cfg = write_config(tmp_path, plan=plan)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                assert "step" in capsys.readouterr().err

    def test_overflowing_shot_bounds_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        good = {"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        for bad in ({"w": 1000}, {"R": 10**400}, {"S": 10**400}, {"eps_stat": 1e-200}):
            cfg = write_config(tmp_path, shot_params=dict(good, **bad))
            assert cli.main(["bounds", "--config", str(cfg)]) == cli.EXIT_CONFIG
            assert "shot bounds overflow" in capsys.readouterr().err

    def test_oversized_couplings_and_plan_times_exit_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        for overrides, name in (
            ({"params": {"J": 1e80}}, "params.J"),
            ({"params": {"h_x": -1e16}}, "params.h_x"),
            ({"plan": {"mode": "fixed_t", "t": 1e200, "dt_list": [1e198, 5e197, 2.5e197]}}, "plan step size"),
            ({"plan": {"mode": "fixed_t", "t": 1e16, "dt_list": [1e15]}}, "plan t"),
            ({"plan": {"mode": "fixed_dt", "dt": 1e16, "n_list": [5]}}, "plan dt"),
        ):
            cfg = write_config(tmp_path, **overrides)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                err = capsys.readouterr().err
                assert f"{name} must be at most {harness.MAX_MAGNITUDE:g} in magnitude" in err, err

    def test_couplings_and_dt_at_the_magnitude_cap_give_finite_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARC_SIM_THREADS", "1")
        cap = harness.MAX_MAGNITUDE
        cfg = write_config(
            tmp_path,
            params={"L": 4, "J": cap, "h_x": cap, "h_z": cap},
            protocols=["arc", "rc", "trotter1"],
            plan={"mode": "fixed_dt", "dt": cap, "n_list": [1, 3]},
            trajectories=5,
            noise_std=harness.MAX_NOISE_STD,
        )

        def non_finite(constant):
            raise AssertionError(f"{constant} in the output")

        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the command with exit 3
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, usecols=(2, 3, 4, 5))))
            for command, flags in (("run", ["--format", "json"]), ("bounds", [])):
                assert cli.main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
                json.loads(out.read_text(), parse_constant=non_finite)

    def test_mixed_mode_plans_exit_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        for plan, message in (
            ({"mode": "fixed_t", "t": 2.0, "n_list": [7], "dt": 0.3}, "['dt', 'n_list'] for mode fixed_t"),
            ({"mode": "fixed_t", "n_list": "junk"}, "['n_list'] for mode fixed_t"),
            ({"mode": "fixed_dt", "n_list": [5], "t": 2.0, "dt_list": [0.1]}, "['dt_list', 't'] for mode fixed_dt"),
            ({"dt": 0.02, "t": 2.0}, "['t'] for mode fixed_dt"),
        ):
            cfg = write_config(tmp_path, plan=plan)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                assert f"unknown plan keys {message}" in capsys.readouterr().err

    def test_svg_without_out_exits_2_before_running(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_ensemble", lambda config: pytest.fail("the ensemble ran"))
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--svg"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--svg needs --out" in captured.err

    def test_svg_over_out_exits_2_before_running(self, tmp_path, monkeypatch, capsys):
        # the chart goes to --out with a .svg suffix, which an --out ending in .svg already is
        monkeypatch.setattr(cli, "run_ensemble", lambda config: pytest.fail("the ensemble ran"))
        cfg, out = write_config(tmp_path), tmp_path / "r.svg"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--svg"]) == cli.EXIT_CONFIG
        assert "--svg would write its chart over --out" in capsys.readouterr().err
        assert not out.exists()

    def test_output_settings_in_a_config_exit_2(self, tmp_path, monkeypatch, capsys):
        # where and in what form the results go are command-line settings, not part of the
        # experiment, and bounds come from the `bounds` command alone
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        for key, value in (("out", "results.csv"), ("format", "json"), ("include_bounds", True)):
            cfg = write_config(tmp_path, protocols=["arc"], **{key: value})
            for command in ("run", "ptrace", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                assert f"unknown config keys ['{key}']" in capsys.readouterr().err

    def test_integers_past_float_range_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        huge = 10**400
        for overrides, name in (
            ({"params": {"J": huge}}, "params.J"),
            ({"noise_std": huge}, "noise_std"),
            ({"plan": {"mode": "fixed_dt", "dt": huge, "n_list": [5]}}, "plan dt"),
            ({"plan": {"mode": "fixed_t", "t": huge, "dt_list": [0.1]}}, "plan t"),
            ({"plan": {"mode": "fixed_t", "t": 1.0, "dt_list": [0.1, huge]}}, "plan step size"),
        ):
            cfg = write_config(tmp_path, **overrides)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                err = capsys.readouterr().err
                assert f"config error: {name} must be a finite number" in err, err

    def test_single_level_fock_modes_exit_2(self, tmp_path, capsys):
        for model, ket in (("kerr", "|0⟩"), ("rabi", "|0,0⟩")):
            cfg = write_config(tmp_path, model=model, params={"D": 1}, initial_state=ket)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                assert "params.D must be an integer >= 2, got 1" in capsys.readouterr().err

    def test_sizes_below_two_exit_2_before_building(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("model built")

        for builder in ("build_mfim", "build_kerr", "build_rabi"):
            monkeypatch.setattr(harness, builder, never)
        for model, key, ket in (("mfim", "L", "0"), ("kerr", "D", "|0⟩"), ("rabi", "D", "|0,0⟩")):
            cfg = write_config(tmp_path, model=model, params={key: 1}, initial_state=ket)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                assert f"config error: params.{key} must be an integer >= 2, got 1" in capsys.readouterr().err

    def test_too_many_workers_exit_2_before_any_pool(self, tmp_path, monkeypatch, capsys):
        import concurrent.futures

        def never(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        monkeypatch.setattr(harness, "POOL_MIN_S", 0.0)  # any pool this run may start would be started
        monkeypatch.setenv("ARC_SIM_THREADS", "1000")
        assert cli.main(["run", "--config", str(write_config(tmp_path))]) == cli.EXIT_CONFIG
        assert "config error: ARC_SIM_THREADS must be from 1 to 64, got 1000" in capsys.readouterr().err

    def test_negative_shot_exponents_or_no_qubits_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args, **kwargs: pytest.fail("model built"))
        good = {"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        for bad, message in (
            ({"S": -1}, "exponents S, R must be nonnegative"),
            ({"R": -1}, "exponents S, R must be nonnegative"),
            ({"n_qubits": 0}, "qubit count must be >= 1"),
            ({"eps_stat": 10**400}, "statistical error must be positive and finite"),
        ):
            cfg = write_config(tmp_path, shot_params=dict(good, **bad))
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                err = capsys.readouterr().err
                assert "invalid shot_params" in err and message in err, err

    def test_unmapped_failures_exit_3(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        for exc in (MemoryError(), RuntimeError("worker pool\nbroke"), KeyError("x")):
            def fail(config, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "run_ensemble", fail)
            assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_NUMERICAL
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and type(exc).__name__ in err, err


class TestSelftest:
    def test_selftest_passes(self):
        results = selftest.run_selftest()
        assert results and all(ok for _, ok, _ in results)
        assert cli.main(["selftest"]) == 0

    def test_every_invariant_check_is_a_row(self):
        checks = {f for name, f in vars(selftest).items() if name.startswith("check_")}
        assert {f for f in checks if f.__module__ == selftest.__name__} <= {row[1] for row in selftest.CHECKS}

    def test_a_broken_eigendecomposition_fails_the_selftest(self, monkeypatch, capsys):
        exact_eigh = np.linalg.eigh

        def eigh(m):
            vals, vecs = exact_eigh(m)
            return vals * (1 + 1e-6), vecs

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert cli.main(["selftest"]) == cli.EXIT_NUMERICAL
        assert "eigendecomposition failed to reconstruct input" in capsys.readouterr().err

    def test_failing_checks_print_their_failure_detail(self, monkeypatch, capsys):
        rows = [("a", lambda rng, *, count=7: (False, 3), "holds on {count}", "violated on {} of {count}"),
                ("b", lambda rng, *, count=9: (False, 0.5), "deviation {:.1f} over {count}")]
        monkeypatch.setattr(selftest, "CHECKS", rows)
        assert selftest.run_selftest() == [("a", False, "violated on 3 of 7"), ("b", False, "deviation 0.5 over 9")]
        assert cli.main(["selftest"]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().out.splitlines()[-1] == "2 of 2 checks failed"

    def test_invariant_checks_fail_on_nan(self, monkeypatch):
        exact_fd = selftest.norm_finite_difference
        monkeypatch.setattr(selftest, "norms_from_moments", lambda moments: np.full(moments.shape[:-1], np.nan))
        monkeypatch.setattr(selftest, "norm_finite_difference",
                            lambda h, rho, dt: np.nan if dt == 1e-3 else exact_fd(h, rho, dt=dt))
        assert not selftest.check_moment_formula(np.random.default_rng(4), count=3)[0]
        ok, worst, slopes = selftest.check_finite_difference(np.random.default_rng(6), count=2)
        assert not ok and all(1.7 <= s <= 2.3 for s in slopes), (worst, slopes)


PERFBENCH_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(cli.__file__).resolve().parents[1]


def run_python(*argv, **env) -> subprocess.CompletedProcess:
    """python argv in a fresh interpreter with src on the path and `env` added to the environment."""
    return subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=str(SRC), **env),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not PERFBENCH_TRACER.exists(), reason="perfbench/ is not in this tree")
def test_perfbench_tracer_installs(tmp_path):
    """The tracer wraps private boundaries by name; a rename makes it fail to install."""
    proc = run_python(str(PERFBENCH_TRACER), "selftest", PERFBENCH_TRACE_DIR=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("meta-*.json"))


def test_noise_free_ptrace_never_imports_numpy_random(tmp_path):
    """Noise-free draws are all array-computed, so numpy.random stays unloaded."""
    cfg = write_config(tmp_path, protocols=["arc"], noise_std=0.0, ptrace_trajectories=3)
    code = (
        "import sys; from arcsim import cli; "
        f"code = cli.main(['ptrace', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'p.csv')!r}]); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    proc = run_python("-c", code)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_noisy_run_never_imports_numpy_random(tmp_path):
    """Noisy arc draws its Gaussians in arrays, slow path included, so numpy.random stays unloaded."""
    cfg = write_config(tmp_path, protocols=["arc", "rc"], noise_std=0.1, trajectories=40)
    code = (
        "import sys; from arcsim import cli, rng; slow = []; walk = rng._slow_rows; "
        "rng._slow_rows = lambda *a: slow.append(1) or walk(*a); "
        f"code = cli.main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'r.csv')!r}]); "
        "print(code, len(slow) > 0, 'numpy.random' in sys.modules)"
    )
    proc = run_python("-c", code, ARC_SIM_THREADS="1")
    assert proc.stdout.split() == ["0", "True", "False"], proc.stderr


@pytest.mark.parametrize(
    "command, config, noise, trajectories",
    [("run", "mfim_steps", "0.3", "20"), ("ptrace", "rabi_trace_strong_coupling", "0.5", "3")],
)
def test_noisy_shipped_config_never_imports_numpy_random(tmp_path, command, config, noise, trajectories):
    """A noisy MFIM run and a noisy Rabi trace leave the ziggurat's fast path, and numpy.random stays unloaded."""
    config = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    argv = [command, "--config", str(config), "--noise-std", noise, "--trajectories", trajectories,
            "--out", str(tmp_path / "out.csv")]
    code = (
        "import sys; from arcsim import cli, rng; slow = []; walk = rng._slow_rows; "
        "rng._slow_rows = lambda *a: slow.append(1) or walk(*a); "
        f"print(cli.main({argv!r}), len(slow) > 0, 'numpy.random' in sys.modules)"
    )
    proc = run_python("-c", code, ARC_SIM_THREADS="1")
    assert proc.stdout.split() == ["0", "True", "False"], proc.stderr


def test_run_and_ptrace_never_import_bounds(tmp_path):
    """Only the commands that compute a bound, or read shot_params, load the bounds module."""
    cfg = write_config(tmp_path, protocols=["arc"], trajectories=4, ptrace_trajectories=3)
    for name in ("run", "ptrace"):
        argv = [name, "--config", str(cfg), "--out", str(tmp_path / f"{name}.csv")]
        code = f"import sys; from arcsim import cli; print(cli.main({argv!r}), 'arcsim.bounds' in sys.modules)"
        proc = run_python("-c", code, ARC_SIM_THREADS="1")
        assert proc.stdout.split() == ["0", "False"], (name, proc.stderr)


def test_bounds_never_imports_rng(tmp_path):
    """bounds draws nothing, so it never loads the random-stream module, with or without shot_params."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    for cfg in (write_config(tmp_path, protocols=["arc"]), configs / "mfim_bounds.json"):
        argv = ["bounds", "--config", str(cfg), "--out", str(tmp_path / "bounds.json")]
        code = f"import sys; from arcsim import cli; print(cli.main({argv!r}), 'arcsim.rng' in sys.modules)"
        proc = run_python("-c", code, ARC_SIM_THREADS="1")
        assert proc.stdout.split() == ["0", "False"], (cfg.name, proc.stderr)


def test_small_commands_never_import_the_pool(tmp_path):
    """ptrace, bounds and a run below the pool threshold stay in one process."""
    cfg = write_config(tmp_path, protocols=["arc"], ptrace_trajectories=3)
    commands = [[name, "--config", str(cfg), "--out", str(tmp_path / name)]
                for name in ("run", "ptrace", "bounds")]
    code = (
        "import sys; from arcsim import cli; "
        f"codes = [cli.main(argv) for argv in {commands!r}]; "
        "print(*codes, *(name in sys.modules for name in "
        "('concurrent.futures.process', 'multiprocessing')))"
    )
    proc = run_python("-c", code, ARC_SIM_THREADS="2")
    assert proc.stdout.split() == ["0", "0", "0", "False", "False"], proc.stderr


THREADS = "from arcsim.harness import _openblas_threads; print(_openblas_threads()[1]())"


def run_without_thread_vars(argv, **extra) -> subprocess.CompletedProcess:
    """argv in a fresh interpreter whose environment sets no BLAS thread variable but `extra`."""
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    proc = subprocess.run(
        argv, env=dict(env, PYTHONPATH=str(SRC), **extra), capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def python_output(code: str, **extra) -> list[str]:
    return run_without_thread_vars([sys.executable, "-c", code], **extra).stdout.decode().split()


@pytest.mark.skipif(harness._openblas_threads() is None, reason="numpy is not on OpenBLAS here")
class TestBlasThreadPin:
    def test_cli_starts_openblas_on_one_thread(self):
        assert python_output(f"import arcsim.cli; {THREADS}") == ["1"]

    def test_user_thread_count_wins(self):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            code = f"import os, arcsim.cli; {THREADS}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
            bare = python_output(f"import numpy; {THREADS}", **{var: "2"})
            pinned = python_output(code, **{var: "2"})
            # OpenBLAS caps a requested count at the CPUs it sees
            assert pinned == [bare[0], "2" if var == "OPENBLAS_NUM_THREADS" else "None"], var
            if len(os.sched_getaffinity(0)) >= 2:
                assert pinned[0] == "2", var

    def test_import_after_numpy_leaves_environment_alone(self):
        code = "import os, numpy; before = dict(os.environ); import arcsim.cli; print(dict(os.environ) == before)"
        assert python_output(code) == ["True"]

    def test_rabi_bytes_independent_of_the_pin(self, tmp_path):
        cfg = write_config(
            tmp_path, model="rabi", protocols=["arc"], noise_std=0.0, trajectories=6,
            ptrace_trajectories=3, plan={"mode": "fixed_dt", "dt": 0.02, "n_list": [20]},
        )
        for command in ("run", "ptrace", "bounds"):
            argv = [sys.executable, "-m", "arcsim.cli", command, "--config", str(cfg)]
            outputs = [run_without_thread_vars(argv, **extra).stdout
                       for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"})]
            assert outputs[0] == outputs[1], command


def run_module(*argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "arcsim.cli", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120, **kwargs)


class TestExitPath:
    """`python -m arcsim.cli` and the `arcsim` script exit through console_main."""

    def test_console_main_exits_with_mains_code_and_freezes(self, tmp_path, monkeypatch):
        good, bad = write_config(tmp_path), write_config(tmp_path, "bad.json", model="heisenberg")
        for cfg, expected in ((good, cli.EXIT_OK), (bad, cli.EXIT_CONFIG)):
            argv = ["bounds", "--config", str(cfg), "--out", str(tmp_path / "b.json")]
            assert cli.main(argv) == expected
            monkeypatch.setattr(sys, "argv", ["arcsim", *argv])
            try:
                with pytest.raises(SystemExit) as exit_info:
                    cli.console_main()
                assert exit_info.value.code == expected
                assert gc.get_freeze_count() > 0
            finally:
                gc.unfreeze()

    def test_main_leaves_the_collector_alone(self, tmp_path):
        cfg = write_config(tmp_path)
        before = gc.get_freeze_count()
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "b.json")]) == 0
        assert gc.get_freeze_count() == before

    def test_module_run_writes_the_in_process_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "b.json"
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        proc = run_module("bounds", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()

    def test_module_run_bad_config_exits_2_with_its_line(self, tmp_path):
        proc = run_module("bounds", "--config", str(write_config(tmp_path, model="heisenberg")), text=True)
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
