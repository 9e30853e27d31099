"""The package's documented surface: the README Library section and the benchmark's probe imports."""

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import arcsim

ROOT = Path(__file__).resolve().parent.parent
ROOT_NAMES = {
    "StepPlan",
    "TrajectoryRecord",
    "run_block",
    "run_exact",
    "basis_state",
    "build_mfim",
    "build_kerr",
    "build_rabi",
    "HermitianOperator",
    "mixed_state",
    "NoiseModel",
    "trajectory_stream",
}


def library_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## Library\n(.*?)^## ", text, re.S | re.M).group(1)


def test_readme_library_example_runs():
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().strip()


def test_readme_library_example_never_imports_numpy_random():
    """The noise-free example's keys and draws are array-computed, so numpy.random stays unloaded."""
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    code += "import sys; print('numpy.random' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.split()[-1] == "False", proc.stderr


def test_package_root_holds_the_documented_names():
    # dir() lists the lazily resolved names too, whether or not they were read yet
    public = {
        name
        for name in dir(arcsim)
        if not name.startswith("_") and not isinstance(getattr(arcsim, name), types.ModuleType)
    }
    assert public == ROOT_NAMES
    documented = set(re.findall(r"\w+", library_section()))
    assert ROOT_NAMES <= documented, sorted(ROOT_NAMES - documented)


def test_root_names_are_their_modules_objects():
    for name in sorted(ROOT_NAMES):
        value = getattr(arcsim, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_importing_the_package_loads_no_numpy():
    code = "import sys, arcsim; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.split() == ["False"], proc.stderr


def test_package_data_lists_the_data_files():
    """pyproject's package-data names every non-Python file in src/arcsim, and each name it lists exists.

    An editable install reads the source tree, so only a built wheel would miss a file left unlisted.
    """
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    listed = pyproject["tool"]["setuptools"]["package-data"]["arcsim"]
    files = [path.name for path in (ROOT / "src" / "arcsim").iterdir() if path.is_file() and path.suffix != ".py"]
    assert sorted(listed) == sorted(files)


def test_perfbench_probe_imports_resolve():
    tree = ast.parse((ROOT / "perfbench" / "probe.py").read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("arcsim")
        for alias in node.names
    ]
    assert {name for _, name in imports} >= {"basis_state", "build_model", "load_config", "worker_count"}
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_tracer_pinned_names_resolve():
    """Every private boundary perfbench/tracer.py wraps resolves as its install() resolves it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert set(tracer.EXTRA) <= set(tracer.MODULES)
    for short in tracer.MODULES:
        mod = importlib.import_module(f"arcsim.{short}")
        for qual in tracer.EXTRA.get(short, ()):
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            assert callable(vars(owner).get(attr)), f"arcsim.{short}.{qual}"


def test_every_public_definition_has_a_caller():
    """Every public module-level function or class is a package-root name or used in src/arcsim."""
    paths = (ROOT / "src" / "arcsim").glob("*.py")
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in ROOT_NAMES | used
    )
    assert not unused, unused
