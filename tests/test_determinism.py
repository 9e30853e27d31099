"""The cross-machine determinism contract: across CPU fingerprints, sampled indices are
identical and floats agree within rel 1e-12.

A fingerprint is numpy's enabled SIMD dispatch targets, the OpenBLAS core in use and
glibc's libm variants. Each is stepped down by an environment variable that any x86-64
host can honour, so one host computes as an older CPU would. Numpy refuses to import
when asked to disable a target outside its dispatch list, and OpenBLAS ignores an
unknown core name, so the child reports what it actually ran on and the test asserts
that both changed: a switch that did nothing fails the test instead of passing it.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from numpy._core import _multiarray_umath as umath

from arcsim import cli

SRC = Path(cli.__file__).resolve().parents[1]
CONFIGS = SRC.parent / "configs"
REL = 1e-12
# glibc without its FMA and AVX2 variants of sin, cos and log1p (tunable names of glibc 2.26 on)
GLIBC_STEP_DOWN = "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-AVX2,-FMA,-FMA4"
FINGERPRINT_VARS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE", "GLIBC_TUNABLES")
COMMANDS = {  # output file -> command: a one-trajectory trace, a reduced noisy sweep, a bound
    "trace.csv": ["ptrace", "--config", str(CONFIGS / "rabi_trace_strong_coupling.json")],
    "mfim.csv": ["run", "--config", str(CONFIGS / "mfim_steps.json"), "--trajectories", "100"],
    "bounds.json": ["bounds", "--config", str(CONFIGS / "rabi_stepsize.json")],
}
CHILD = """
import ctypes, json, sys
from arcsim import cli
from numpy._core import _multiarray_umath as umath

out, commands = sys.argv[1], json.loads(sys.argv[2])
codes = [cli.main([*argv, "--out", f"{out}/{name}"]) for name, argv in commands.items()]
with open("/proc/self/maps") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
cores = []
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            cores.append(fn().decode())
targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
print(json.dumps({"codes": codes, "cores": cores, "targets": targets}))
"""


def run_child(out: Path, **switches) -> dict:
    """The commands in one fresh interpreter on one worker: their exit codes and the fingerprint they ran on."""
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if k not in FINGERPRINT_VARS}
    env.update(PYTHONPATH=str(SRC), ARC_SIM_THREADS="1", **switches)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(out), json.dumps(COMMANDS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def cells(text: str) -> list[str]:
    """The values of a CSV or JSON output, in order: numbers, names and labels."""
    return re.findall(r'[^,\s\[\]{}:"]+', text)


def test_outputs_agree_across_cpu_fingerprints(tmp_path):
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    default = run_child(tmp_path / "default")
    stepped = run_child(
        tmp_path / "stepped", NPY_DISABLE_CPU_FEATURES=" ".join(enabled),
        OPENBLAS_CORETYPE="Nehalem", GLIBC_TUNABLES=GLIBC_STEP_DOWN,
    )
    assert default["codes"] == stepped["codes"] == [0] * len(COMMANDS)
    assert default["targets"] == enabled != [] and stepped["targets"] == []
    assert default["cores"] and stepped["cores"] == ["Nehalem"] * len(default["cores"]) != default["cores"]
    for name in COMMANDS:
        want, got = (cells((tmp_path / run / name).read_text()) for run in ("default", "stepped"))
        assert len(got) == len(want), name
        for i, (a, b) in enumerate(zip(want, got)):
            # labels and integers (sampled indices, step and trajectory counts) must match exactly:
            # a changed integer is far outside rel 1e-12
            assert a == b or math.isclose(float(a), float(b), rel_tol=REL, abs_tol=0.0), (name, i, a, b)
