"""The arcsim benchmark: one workload, one seed, one closed-loop run of the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs `python3 -m arcsim.cli` against the
checkout's `src` and writes only under `.perfbench_runs/` there. One client
sends one command at a time (a closed loop) for S seconds, with the program's
default worker count and the inherited environment: no thread variable is set
for the timed commands. Before the loop, fresh processes time the set-up, and
a helper process records the machine. After it, the outputs are checked.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs untraced commands
for S/2 seconds and traced commands for S/2 seconds, and reports the
per-layer metrics of the traced ones plus the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import UNITS as LAYER_UNITS  # noqa: E402
from layers import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "work_items_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 11
RUN_BUDGET_S = 165.0  # the whole run must end within 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CROSS_BLAS_REL_TOL = 1e-12


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


@dataclass
class Outcome:
    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int | None
    data: bytes = b""
    problems: list[str] = field(default_factory=list)


def _spawn(argv, env, cwd, stdout, stderr, deadline) -> tuple[float, float, float, int | None]:
    """Run argv to exit; return wall, user+sys of its process tree, peak RSS (MB), exit code.

    The command gets its own session so that a timeout kills its workers too.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout, stderr=stderr,
                            start_new_session=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    timed_out = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    code = None if timed_out else proc.returncode
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


def mean_fidelities(data: bytes) -> list[float]:
    return [float(row[3]) for row in list(csv.reader(io.StringIO(data.decode())))[1:]]


class Bench:
    """One run: the commands it made, their outcomes, and its failures."""

    def __init__(self, workload: Workload, seed: int, root: Path, tamper=None):
        if not (root / "src" / "arcsim" / "cli.py").is_file():
            raise SetupError(f"no arcsim sources under {root / 'src'}; run from a checkout root")
        self.workload = workload
        self.seed = seed
        self.root = root
        self.tamper = tamper
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = root / ".perfbench_runs" / f"{workload.name}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(workload.config_for(seed), indent=1),
                                    encoding="utf-8")
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.outcomes: list[Outcome] = []
        self.reference: bytes | None = None

    # -- processes ---------------------------------------------------------

    def _helper(self, label: str, argv: list[str], env=None) -> tuple[float, bytes]:
        out, err = self.workdir / f"{label}.stdout", self.workdir / f"{label}.stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            wall, _, _, code = _spawn(argv, env or self.env, self.root, fo, fe, self.deadline)
        if code != 0:
            raise SetupError(f"{label} exited with {code}: {err.read_bytes()[-400:]!r}")
        return wall, out.read_bytes()

    def machine(self) -> dict:
        probe = [sys.executable, str(HERE / "probe.py")]
        record = json.loads(self._helper("machine", probe + ["machine"])[1])
        # Ceilings for the computed GFLOP/s metrics, plus a host-speed gauge: once in the
        # inherited environment and once with one BLAS thread (only this helper is pinned).
        record["ceilings_measured"] = {
            "inherited_env": json.loads(self._helper("ceilings", probe + ["ceilings"])[1]),
            "blas_threads_1": json.loads(self._helper(
                "ceilings-1", probe + ["ceilings"], dict(self.env, **BLAS_PIN))[1]),
        }
        sources = sorted((self.root / "src" / "arcsim").glob("*.py"))
        digest = hashlib.sha256()
        for path in sources:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        record["source_sha256"] = digest.hexdigest()
        record["source_lines"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                                     for p in sources)
        record["git_commit"] = self._git_commit()
        return record

    def _git_commit(self) -> str | None:
        """HEAD of the checkout's own .git, read without running git; None outside git."""
        git = self.root / ".git"
        try:
            head = (git / "HEAD").read_text(encoding="utf-8").strip()
            if not head.startswith("ref: "):
                return head
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text(encoding="utf-8").strip()
            for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        except OSError:
            pass
        return None

    def setup_times(self) -> list[float]:
        argv = [sys.executable, str(HERE / "probe.py"), "setup", str(self.config_path)]
        return [self._helper(f"setup-{i}", argv)[0] for i in range(SETUP_REPEATS)]

    def arcsim(self, label: str, env_extra=None, trace_dir: Path | None = None,
               expect: bytes | None = None) -> Outcome:
        """One CLI command, checked; `expect` is the output it must equal byte for byte."""
        w = self.workload
        out = self.workdir / f"{label}{w.out_suffix}"
        err = self.workdir / f"{label}.stderr"
        # Output goes to stdout: with --out the path would be echoed into JSON output.
        args = [w.command, "--config", str(self.config_path)]
        env = dict(self.env, **(env_extra or {}))
        if trace_dir is None:
            argv = [sys.executable, "-m", "arcsim.cli", *args]
        else:
            trace_dir.mkdir()
            env.update(PERFBENCH_TRACE_DIR=str(trace_dir),
                       PERFBENCH_RUN_ID=f"{w.name}-{self.seed}-{label}")
            argv = [sys.executable, str(HERE / "tracer.py"), *args]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            wall, cpu, rss, code = _spawn(argv, env, self.root, fo, fe, self.deadline)
        if self.tamper is not None:
            self.tamper(label, out)
        o = Outcome(label, wall, cpu, rss, code)
        if code != 0:
            o.problems.append("timed out" if code is None else
                              f"exit code {code}: {err.read_bytes()[-400:]!r}")
        else:
            o.data = out.read_bytes()
            o.problems += w.check(o.data)
            if expect is not None and o.data != expect:
                o.problems.append("output bytes differ from the run's first output")
        self.outcomes.append(o)
        return o

    def closed_loop(self, prefix: str, seconds: float, traced: bool = False) -> list[Outcome]:
        """Commands one after another until `seconds` have passed (at least one)."""
        done: list[Outcome] = []
        t_end = time.monotonic() + seconds
        while not done or time.monotonic() < t_end:
            longest = max(o.wall_s for o in done) if done else 0.0
            if done and time.monotonic() + 1.5 * longest > self.deadline - 5.0:
                break
            label = f"{prefix}-{len(done)}"
            trace_dir = self.workdir / f"trace-{label}" if traced else None
            o = self.arcsim(label, trace_dir=trace_dir, expect=self.reference)
            if self.reference is None and not o.problems:
                self.reference = o.data
            done.append(o)
            if o.returncode is None:
                break
        return done

    # -- checks outside the timed loop -----------------------------------------

    def worker_invariance(self) -> None:
        """The README's promise: output bytes do not depend on ARC_SIM_THREADS."""
        if self.workload.worker_invariance and self.reference is not None:
            self.arcsim("serial", env_extra={"ARC_SIM_THREADS": "1"}, expect=self.reference)

    def blas_invariance(self) -> None:
        """Across BLAS thread settings only the statistics must agree, to rel 1e-12."""
        if self.workload.command != "run" or self.reference is None:
            return
        o = self.arcsim("blas-pinned", env_extra=BLAS_PIN)
        if not o.problems:
            ref, got = mean_fidelities(self.reference), mean_fidelities(o.data)
            if len(ref) != len(got) or not all(
                math.isclose(a, b, rel_tol=CROSS_BLAS_REL_TOL, abs_tol=0.0)
                for a, b in zip(ref, got)
            ):
                o.problems.append(f"mean_fidelity {got} differs from {ref} beyond rel 1e-12")

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.problems]


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values),
            "min": min(values), "max": max(values)}


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
        tamper=None) -> tuple[dict, dict]:
    """Execute one run; return the result object and the full report."""
    b = Bench(workload, seed, root, tamper)
    report = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "why": workload.why, "loop": "closed, 1 client, 1 command at a time",
              "config": workload.config_for(seed), "machine": b.machine()}
    setup = b.setup_times()
    items = workload.items()
    if not trace:
        loop = b.closed_loop("cmd", seconds)
        b.worker_invariance()
        samples = {
            "wall_s": [o.wall_s for o in loop],
            "work_items_per_s": [items / o.wall_s for o in loop],
            "setup_s": setup,
            "cpu_s": [o.cpu_s for o in loop],
            "peak_rss_mb": [o.peak_rss_mb for o in loop],
        }
        summaries = {k: _summary(v) for k, v in samples.items()}
        metrics = {k: {"value": summaries[k]["median"], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
        report["end_to_end"] = summaries
    else:
        base = b.closed_loop("cmd", seconds / 2)
        traced = b.closed_loop("traced", seconds / 2, traced=True)
        b.blas_invariance()
        per_command, profile = [], {}
        for o in traced:
            trace_dir = b.workdir / f"trace-{o.label}"
            if not o.problems:
                values, profile = layer_metrics(trace_dir)
                per_command.append(values)
            shutil.rmtree(trace_dir, ignore_errors=True)
        base_wall = statistics.median(o.wall_s for o in base)
        traced_wall = statistics.median(o.wall_s for o in traced)
        layer = {k: statistics.median(v[k] for v in per_command) if per_command else 0.0
                 for k in LAYER_UNITS if k != "trace.overhead_frac"}
        layer["trace.overhead_frac"] = traced_wall / base_wall - 1.0
        metrics = {k: {"value": layer[k], "unit": u} for k, u in LAYER_UNITS.items()}
        report["untraced_wall_s"] = _summary([o.wall_s for o in base])
        report["traced_wall_s"] = _summary([o.wall_s for o in traced])
        report["profile"] = profile
    report["work_items_per_command"] = {"count": items, "item": workload.item}
    report["setup_s_samples"] = setup
    report["failures"] = {o.label: o.problems for o in b.failed}
    result = {"correct": not b.failed, "attempted": len(b.outcomes), "failed": len(b.failed),
              "metrics": metrics}
    report["result"] = result
    report["path"] = str((b.workdir / "report.json").relative_to(root))
    (b.workdir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return result, report


def _print_human(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"({report['loop']}); report: {report.get('path', '')}")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    item = report["work_items_per_command"]["item"]
    for name, s in report.get("end_to_end", {}).items():
        shown = f"{item}_per_s (work_items_per_s)" if name == "work_items_per_s" else name
        unit = END_TO_END_UNITS[name]
        print(f"  {shown:<40} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n={s['n']}")
    res = report["result"]
    print(f"  failed_frac {res['failed']}/{res['attempted']}")
    for label, problems in report["failures"].items():
        print(f"  FAILED {label}: {'; '.join(problems)[:500]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), Path.cwd())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_human(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
