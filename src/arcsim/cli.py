"""Command-line interface: run | ptrace | bounds | selftest.

Exit codes: 0 success, 2 config error, 3 numerical or any other runtime
failure, 4 I/O error.

When the CLI is the first to load numpy and no thread count is set in
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS, it starts
OpenBLAS on one thread. Its products are at most dim 1024 and mostly dim
<= 100, where a second BLAS thread is slower, and an idle one still spins
(about a third of a `ptrace` or `bounds` command's CPU on 2 cores).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from .emit import bounds_json, emit_svg, ptrace_csv, ptrace_json, result_json, series_csv, write_text  # noqa: E402
from .harness import (  # noqa: E402
    ConfigError, ExperimentConfig, _Context, check_noise_std, check_trajectories, load_config,
    run_ensemble, run_ptrace,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcsim",
        description="Randomized-compilation simulator for Hamiltonian time evolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override master seed (u64)")
        p.add_argument("--trajectories", type=int, default=None, help="override trajectory count")
        p.add_argument("--noise-std", type=float, default=None, help="override measurement noise std")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None, help="output format")

    run_p = sub.add_parser("run", help="fidelity experiments over a step-size plan")
    add_common(run_p)
    run_p.add_argument("--svg", action="store_true", help="also render a line chart next to --out")
    run_p.set_defaults(func=cmd_run)

    ptrace_p = sub.add_parser("ptrace", help="per-step adaptive probability trace")
    add_common(ptrace_p)
    ptrace_p.set_defaults(func=cmd_ptrace)

    bounds_p = sub.add_parser("bounds", help="state-dependent depth bounds (JSON)")
    add_common(bounds_p)
    bounds_p.set_defaults(func=cmd_bounds)

    selftest_p = sub.add_parser("selftest", help="oracle and invariant checks")
    selftest_p.set_defaults(func=cmd_selftest)
    return parser


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed must be an unsigned 64-bit integer")
        config.master_seed = args.seed
    if args.trajectories is not None:
        check_trajectories(args.trajectories, "--trajectories")
        key = "ptrace_trajectories" if args.command == "ptrace" else "trajectories"
        setattr(config, key, args.trajectories)
    if args.noise_std is not None:
        config.noise_std = check_noise_std(args.noise_std, "--noise-std")
    if args.out is not None:
        config.out = args.out
    if args.format is not None:
        config.format = args.format
    return config


def _deliver(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _compute_bounds(ctx: _Context):
    from .bounds import bound_report

    decomp = ctx.decomp.drop_zero_terms()
    reports = []
    for idx, point in enumerate(ctx.points):
        reports.append(bound_report(decomp, ctx.exact(idx), point.plan))
    return decomp, reports


def cmd_run(args) -> int:
    config = _load(args)
    result = run_ensemble(config)
    bounds = None
    if config.include_bounds and config.format == "json":
        _, bounds = _compute_bounds(result.context)
    text = series_csv(result) if config.format == "csv" else result_json(result, bounds)
    _deliver(text, config.out)
    if args.svg:
        if config.out is None:
            raise ConfigError("--svg needs --out to name the chart file")
        emit_svg(result, Path(config.out).with_suffix(".svg"))
    return EXIT_OK


def cmd_ptrace(args) -> int:
    config = _load(args)
    table = run_ptrace(config)
    render = ptrace_csv if config.format == "csv" else ptrace_json
    _deliver(render(table), config.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    config = _load(args)
    ctx = _Context(config)
    decomp, reports = _compute_bounds(ctx)
    shots = None
    if config.shot_params is not None:
        from .bounds import ShotParams, shot_lower_bounds

        shots = shot_lower_bounds(ShotParams(**config.shot_params))
    _deliver(bounds_json(config, decomp, ctx.points, reports, shots), config.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest()
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return EXIT_NUMERICAL
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # MemoryError, RuntimeError, a worker that died, ...
        message = " ".join(str(exc).split())
        print(f"runtime failure: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
