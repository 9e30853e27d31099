"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py        (from the root of a checkout)

For every workload, untraced and traced: the run is correct and emits every
metric BENCHMARK.json names, with its unit. Then one command's output is
corrupted on purpose and the run must count it as failed. Finally the
benchmark must refuse to run in a directory without the arcsim sources.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    # Full dim 100, so that the worker-invariance check runs where OpenBLAS threads.
    "rabi-ensemble": {"trajectories": 8},
    "rabi-ptrace": {"params": {"omega": 1.0, "Omega": 1.0, "g": 0.8, "D": 8},
                    "initial_state": "(|2,0⟩+|5,0⟩)/√2", "ptrace_trajectories": 3},
    "mfim-noisy-sweep": {"plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [5, 10]},
                         "trajectories": 8},
    "rabi-bounds": {"params": {"omega": 1.0, "Omega": 1.0, "g": 0.2, "D": 8},
                    "initial_state": "(|2,0⟩+|5,0⟩)/√2",
                    "plan": {"mode": "fixed_t", "t": 0.2, "dt_list": [0.05, 0.1, 0.2]}},
}


def tiny(name: str):
    w = WORKLOADS[name]
    # arc beats rc only with enough trajectories; the tiny sizes do not promise it
    return dataclasses.replace(w, config={**w.config, **TINY[name]}, arc_beats_rc=False)


def corrupt(label: str, out: Path) -> None:
    if label == "cmd-0":
        out.write_bytes(out.read_bytes()[:-20] + b"garbage\n")


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: FAIL {message}")
    print(f"smoke: ok   {message}")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result, _ = run.run(tiny(name), 5, 0.5, trace, root)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={int(trace)} correct over {result['attempted']} commands")
            expect(got == units, f"{name} trace={int(trace)} emits every {key} metric with its unit")
    result, report = run.run(tiny("mfim-noisy-sweep"), 5, 0.5, False, root, tamper=corrupt)
    expect(not result["correct"] and "cmd-0" in report["failures"],
           f"a corrupted output counts as failed ({result['failed']}/{result['attempted']})")
    with tempfile.TemporaryDirectory(dir=root / ".perfbench_runs") as bare:
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "rabi-bounds", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=60)
    expect(done.returncode != 0 and not done.stdout,
           "with only BENCHMARK.json and the benchmark's files it exits non-zero, printing no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
