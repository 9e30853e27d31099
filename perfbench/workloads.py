"""The benchmark's workloads: config generation from a seed, work counts, output checks.

Every workload is one `arcsim` subcommand on one generated config. The seed
only becomes the config's `master_seed`, so every seed does the same amount
of work. The checks re-derive the expected output shape from the config
without importing arcsim.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

STOCHASTIC = ("rc", "arc", "equal")
SERIES_COLUMNS = ["protocol", "x_kind", "x_value", "mean_fidelity", "stderr", "trajectories"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # arcsim subcommand: run | ptrace | bounds
    config: dict  # everything but master_seed
    item: str  # what one unit of work_items_per_s is
    why: str
    worker_invariance: bool = False  # compare ARC_SIM_THREADS=1 bytes with the default
    arc_beats_rc: bool = False

    @property
    def out_suffix(self) -> str:
        return ".json" if self.command == "bounds" else ".csv"

    def config_for(self, seed: int) -> dict:
        return dict(self.config, master_seed=seed % 2**64)

    def points(self) -> list[tuple[float, int]]:
        """(x_value, steps) per plan point, as the harness derives them."""
        plan = self.config["plan"]
        if plan["mode"] == "fixed_dt":
            return [(float(n), n) for n in plan["n_list"]]
        t = plan["t"]
        return [(t / max(1, round(t / dt)), max(1, round(t / dt))) for dt in plan["dt_list"]]

    def items(self) -> int:
        """Stochastic trajectory-steps (run, ptrace) or exact states bounded (bounds)."""
        steps = sum(n for _, n in self.points())
        if self.command == "bounds":
            return steps
        if self.command == "ptrace":
            return self.config["ptrace_trajectories"] * steps
        stochastic = sum(1 for p in self.config["protocols"] if p in STOCHASTIC)
        return stochastic * self.config["trajectories"] * steps

    def check(self, data: bytes) -> list[str]:
        """Problems found in one command's output; empty when it is correct."""
        try:
            text = data.decode("utf-8")
            checker = {"run": self._check_run, "ptrace": self._check_ptrace,
                       "bounds": self._check_bounds}[self.command]
            return checker(text)
        except (UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unparsable output: {exc!r}"]

    def _check_run(self, text: str) -> list[str]:
        rows = list(csv.reader(io.StringIO(text)))
        problems = []
        if rows[0] != SERIES_COLUMNS:
            problems.append(f"header {rows[0]}")
        expected = [
            (proto, x) for proto in self.config["protocols"] for x, _ in self.points()
        ]
        x_kind = "steps" if self.config["plan"]["mode"] == "fixed_dt" else "dt"
        body = rows[1:]
        if len(body) != len(expected):
            return problems + [f"{len(body)} rows, expected {len(expected)}"]
        means = {}
        for row, (proto, x) in zip(body, expected):
            if len(row) != len(SERIES_COLUMNS):
                problems.append(f"row {row} has {len(row)} columns")
                continue
            mean, stderr, m = float(row[3]), float(row[4]), int(row[5])
            if row[:2] != [proto, x_kind]:
                problems.append(f"row {row[:2]}, expected {[proto, x_kind]}")
            if not math.isclose(float(row[2]), x, rel_tol=1e-12):
                problems.append(f"x_value {row[2]}, expected {x!r}")
            if not 0.0 <= mean <= 1.0:
                problems.append(f"{proto} mean fidelity {mean} outside [0, 1]")
            if not (math.isfinite(stderr) and stderr >= 0.0):
                problems.append(f"{proto} stderr {stderr}")
            want_m = self.config["trajectories"] if proto in STOCHASTIC else 1
            if m != want_m:
                problems.append(f"{proto} trajectories {m}, expected {want_m}")
            means.setdefault(proto, []).append(mean)
        if self.arc_beats_rc and not all(
            a > r for a, r in zip(means.get("arc", []), means.get("rc", []))
        ):
            problems.append(f"arc mean fidelity {means.get('arc')} not above rc {means.get('rc')}")
        return problems

    def _check_ptrace(self, text: str) -> list[str]:
        rows = list(csv.reader(io.StringIO(text)))
        n_terms = len(rows[0]) - 3
        problems = []
        if rows[0][0] != "step" or rows[0][-2:] != ["sampled_index", "tau"] or n_terms < 1:
            problems.append(f"header {rows[0]}")
        (_, steps), = self.points()
        if len(rows) - 1 != steps:
            return problems + [f"{len(rows) - 1} rows, expected {steps}"]
        averaged = self.config.get("ptrace_trajectories", 1) > 1
        for k, row in enumerate(rows[1:], start=1):
            p = [float(v) for v in row[1:1 + n_terms]]
            if int(row[0]) != k:
                problems.append(f"step {row[0]}, expected {k}")
            if min(p) < 0.0 or max(p) > 1.0 or abs(sum(p) - 1.0) > 1e-9:
                problems.append(f"step {k}: probabilities {p}")
            if averaged and (row[-2] != "-1" or row[-1] != "nan"):
                problems.append(f"step {k}: averaged trace has sample columns {row[-2:]}")
        return problems

    def _check_bounds(self, text: str) -> list[str]:
        doc = json.loads(text)
        points = self.points()
        problems = []
        if len(doc["bounds"]) != len(points):
            return [f"{len(doc['bounds'])} bound entries, expected {len(points)}"]
        for entry, (x, steps) in zip(doc["bounds"], points):
            if entry["steps"] != steps or not math.isclose(entry["x_value"], x, rel_tol=1e-12):
                problems.append(f"bound point {entry['x_value']}/{entry['steps']}, expected {x}/{steps}")
            for name in ("trotter1", "rc", "arc"):
                values = [entry[name]] + entry["per_step"][name]
                if len(entry["per_step"][name]) != steps:
                    problems.append(f"{name} per_step has {len(entry['per_step'][name])} values")
                if not all(math.isfinite(v) and v >= 0.0 for v in values):
                    problems.append(f"{name} bound not finite and nonnegative at x={x}")
            if not entry["arc"] <= entry["rc"]:
                problems.append(f"arc bound {entry['arc']} above rc {entry['rc']} at x={x}")
        return problems


RABI_STATE = "(|2,0⟩+|5,0⟩)/√2"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rabi-ensemble",
            command="run",
            config={
                "model": "rabi",
                "params": {"omega": 1.0, "Omega": 1.0, "g": 0.2, "D": 50},
                "initial_state": RABI_STATE,
                "protocols": ["arc", "rc", "equal"],
                "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [50]},
                "trajectories": 30,
                "noise_std": 0.0,
            },
            item="traj_steps",
            why="dim-100 Rabi ensemble through the process pool; the only model whose "
            "matvecs OpenBLAS threads, so pool x BLAS oversubscription shows here",
            worker_invariance=True,
            arc_beats_rc=True,
        ),
        Workload(
            name="rabi-ptrace",
            command="ptrace",
            config={
                "model": "rabi",
                "params": {"omega": 1.0, "Omega": 1.0, "g": 0.8, "D": 50},
                "initial_state": RABI_STATE,
                "protocols": ["arc"],
                "plan": {"mode": "fixed_dt", "dt": 0.02, "n_list": [50]},
                "noise_std": 0.0,
                "ptrace_trajectories": 80,
            },
            item="traj_steps",
            why="the same dim-100 moment and evolve kernels run serially with no pool, "
            "so kernel changes move it and pool changes should not",
        ),
        Workload(
            name="mfim-noisy-sweep",
            command="run",
            config={
                "model": "mfim",
                "params": {"L": 4, "J": 1.0, "h_x": 0.5, "h_z": 0.3},
                "initial_state": "0011",
                "protocols": ["arc", "rc"],
                "plan": {"mode": "fixed_dt", "dt": 0.02,
                         "n_list": [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]},
                "trajectories": 40,
                "noise_std": 0.1,
            },
            item="traj_steps",
            why="dim-16 noisy sweep: per-step Python, RNG and validation overhead, "
            "many small pool tasks and one exact reference per plan point",
            worker_invariance=True,
        ),
        Workload(
            name="rabi-bounds",
            command="bounds",
            config={
                "model": "rabi",
                "params": {"omega": 1.0, "Omega": 1.0, "g": 0.2, "D": 50},
                "initial_state": RABI_STATE,
                "protocols": ["arc", "rc"],
                "plan": {"mode": "fixed_t", "t": 1.0,
                         "dt_list": [0.01, 0.02, 0.04, 0.05, 0.1]},
            },
            item="bound_states",
            why="dense dim^3 commutator GEMMs along the exact trajectory: no pool, "
            "no RNG; the only workload that measures the bounds module",
        ),
    )
}
