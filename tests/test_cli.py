import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arcsim import bounds, cli, harness
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

    def test_run_json_with_bounds(self, tmp_path):
        cfg = write_config(tmp_path, include_bounds=True, format="json")
        out = tmp_path / "out.json"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "bounds" in doc
        assert doc["bounds"][0]["arc"] <= doc["bounds"][0]["rc"] * (1 + 1e-9)

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
        cfg = write_config(
            tmp_path,
            include_bounds=True,
            format="json",
            plan={"mode": "fixed_dt", "dt": 0.02, "n_list": [5, 10]},
        )
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
            assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
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
                trotter1=0.1, rc=1.0, arc=2.0, per_step={}, total_time=1.0, steps=plan.steps
            )

        monkeypatch.setattr(bounds, "bound_report", inverted)  # cli imports it when a command needs it
        assert cli.main(["bounds", "--config", str(cfg)]) == cli.EXIT_NUMERICAL

    def test_bad_seed_flag_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--seed", "-4"]) == cli.EXIT_CONFIG

    def test_bad_model_size_exits_2_before_building(self, tmp_path, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("model built")

        monkeypatch.setattr(harness, "build_mfim", never)
        for params, message in (({"L": 40}, "exceeds the cap"), ({"L": 4.7}, "must be an integer")):
            cfg = write_config(tmp_path, params=params)
            assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
            assert message in capsys.readouterr().err

    def test_bad_shot_params_exit_2_before_building(self, tmp_path, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("model built")

        monkeypatch.setattr(harness, "build_mfim", never)
        good = {"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        for shots in ({"k": 0}, dict(good, kk=1)):
            cfg = write_config(tmp_path, shot_params=shots)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                assert "invalid shot_params" in capsys.readouterr().err

    def test_mistyped_shot_params_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args: pytest.fail("model built"))
        good = {"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        for shots in (dict(good, k=1.5, w=True, S=0.5), dict(good, eps_stat=float("inf"))):
            cfg = write_config(tmp_path, shot_params=shots)
            assert cli.main(["bounds", "--config", str(cfg)]) == cli.EXIT_CONFIG
            assert "invalid shot_params" in capsys.readouterr().err

    def test_oversized_trajectories_exit_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args: pytest.fail("model built"))
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
        monkeypatch.setattr(harness, "build_mfim", lambda *args: pytest.fail("model built"))
        cfg = write_config(tmp_path, protocols=["arc"])
        finite = "--noise-std must be a finite number"
        for value, message in (("nan", finite), ("inf", finite), ("-inf", finite), ("-0.5", "must be nonnegative")):
            for command in ("run", "ptrace", "bounds"):
                assert cli.main([command, "--config", str(cfg), f"--noise-std={value}"]) == cli.EXIT_CONFIG
                assert message in capsys.readouterr().err

    def test_oversized_noise_std_exits_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args: pytest.fail("model built"))
        cfg = write_config(tmp_path, protocols=["arc"])
        big = write_config(tmp_path, "big.json", protocols=["arc"], noise_std=1e300)
        for argv, name in (([str(cfg), "--noise-std=1e300"], "--noise-std"), ([str(big)], "noise_std")):
            for command in ("run", "ptrace", "bounds"):
                assert cli.main([command, "--config", *argv]) == cli.EXIT_CONFIG
                assert f"{name} must be at most {harness.MAX_NOISE_STD:g}" in capsys.readouterr().err
        at_cap = write_config(tmp_path, "cap.json", noise_std=harness.MAX_NOISE_STD)
        assert harness.load_config(at_cap).noise_std == harness.MAX_NOISE_STD

    def test_oversized_step_counts_exit_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args: pytest.fail("model built"))
        for plan in (
            {"mode": "fixed_t", "t": 1e300, "dt_list": [1e-10]},
            {"mode": "fixed_dt", "dt": 0.02, "n_list": [5, harness.MAX_STEPS + 1]},
        ):
            cfg = write_config(tmp_path, plan=plan)
            for command in ("run", "bounds"):
                assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
                assert "step" in capsys.readouterr().err

    def test_overflowing_shot_bounds_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_mfim", lambda *args: pytest.fail("model built"))
        good = {"k": 1, "w": 1, "S": 4, "R": 1, "n_qubits": 4, "eps_stat": 0.1}
        for bad in ({"w": 1000}, {"R": 10**400}, {"S": 10**400}, {"eps_stat": 1e-200}):
            cfg = write_config(tmp_path, shot_params=dict(good, **bad))
            assert cli.main(["bounds", "--config", str(cfg)]) == cli.EXIT_CONFIG
            assert "shot bounds overflow" in capsys.readouterr().err

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
        from arcsim.selftest import run_selftest

        results = run_selftest()
        assert results and all(ok for _, ok, _ in results)
        assert cli.main(["selftest"]) == 0


PERFBENCH_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.skipif(not PERFBENCH_TRACER.exists(), reason="perfbench/ is not in this tree")
def test_perfbench_tracer_installs(tmp_path):
    """The tracer wraps private boundaries by name; a rename makes it fail to install."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PERFBENCH_TRACE_DIR=str(tmp_path), PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH_TRACER), "selftest"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("meta-*.json"))


def test_noise_free_ptrace_never_imports_numpy_random(tmp_path):
    """Noise-free draws are all array-computed, so numpy.random stays unloaded."""
    cfg = write_config(tmp_path, protocols=["arc"], noise_std=0.0, ptrace_trajectories=3)
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys; from arcsim import cli; "
        f"code = cli.main(['ptrace', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'p.csv')!r}]); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_noisy_run_never_imports_numpy_random(tmp_path):
    """Noisy arc draws its Gaussians in arrays, slow path included, so numpy.random stays unloaded."""
    cfg = write_config(tmp_path, protocols=["arc", "rc"], noise_std=0.1, trajectories=40)
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys; from arcsim import cli, rng; slow = []; walk = rng._slow_rows; "
        "rng._slow_rows = lambda *a: slow.append(1) or walk(*a); "
        f"code = cli.main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'r.csv')!r}]); "
        "print(code, len(slow) > 0, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src), ARC_SIM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.split() == ["0", "True", "False"], proc.stderr


def test_run_and_ptrace_never_import_bounds(tmp_path):
    """Only the commands that compute a bound, or read shot_params, load the bounds module."""
    cfg = write_config(tmp_path, protocols=["arc"], trajectories=4, ptrace_trajectories=3)
    src = Path(cli.__file__).resolve().parents[1]
    for name in ("run", "ptrace"):
        argv = [name, "--config", str(cfg), "--out", str(tmp_path / f"{name}.csv")]
        code = f"import sys; from arcsim import cli; print(cli.main({argv!r}), 'arcsim.bounds' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src), ARC_SIM_THREADS="1"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.stdout.split() == ["0", "False"], (name, proc.stderr)


def test_small_commands_never_import_the_pool(tmp_path):
    """ptrace, bounds and a run below the pool threshold stay in one process."""
    cfg = write_config(tmp_path, protocols=["arc"], ptrace_trajectories=3)
    src = Path(cli.__file__).resolve().parents[1]
    commands = [[name, "--config", str(cfg), "--out", str(tmp_path / name)]
                for name in ("run", "ptrace", "bounds")]
    code = (
        "import sys; from arcsim import cli; "
        f"codes = [cli.main(argv) for argv in {commands!r}]; "
        "print(*codes, *(name in sys.modules for name in "
        "('concurrent.futures.process', 'multiprocessing')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src), ARC_SIM_THREADS="2"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.split() == ["0", "0", "0", "False", "False"], proc.stderr


SRC = Path(cli.__file__).resolve().parents[1]
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
