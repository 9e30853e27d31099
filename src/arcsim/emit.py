"""CSV / JSON / SVG emission with byte-stable formatting.

Floats are rendered with repr (shortest round-trip form), so identical
results serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .hamiltonians import Decomposition
from .harness import EnsembleResult, ExperimentConfig, PlanPoint, PTraceTable, SeriesPoint

if TYPE_CHECKING:  # annotations only: bounds is loaded by the commands that compute them
    from .bounds import BoundReport

SERIES_COLUMNS = SeriesPoint._fields

_PALETTE = ("#c0392b", "#27ae60", "#8e44ad", "#2980b9", "#d68910")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv(header, rows) -> str:
    """One comma-separated line per row, header first, every field through _fmt."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])


def series_csv(result: EnsembleResult) -> str:
    return _csv(SERIES_COLUMNS, result.series)


def ptrace_csv(table: PTraceTable) -> str:
    n_terms = table.probabilities.shape[1]
    header = ["step", *(f"p{j + 1}" for j in range(n_terms)), "sampled_index", "tau"]
    columns = (table.steps, table.probabilities, table.sampled_indices, table.taus)
    return _csv(header, ([step, *p, j, tau] for step, p, j, tau in zip(*columns)))


def _json(config: ExperimentConfig, **fields) -> str:
    """A JSON document of the config followed by fields, in their order."""
    return json.dumps({"config": config.to_dict(), **fields}, indent=2) + "\n"


_ORDER_NOTE = "order-of-growth values; constants unspecified"


def result_json(result: EnsembleResult) -> str:
    fields = {"series": [sp._asdict() for sp in result.series]}
    if result.extrapolated:
        fields["extrapolated"] = dict(result.extrapolated)
    return _json(result.config, **fields)


def ptrace_json(table: PTraceTable) -> str:
    return _json(
        table.config,
        term_labels=list(table.labels),
        ptrace=[
            {
                "step": int(table.steps[i]),
                "p": [float(x) for x in table.probabilities[i]],
                "sampled_index": int(table.sampled_indices[i]),
                "tau": None if math.isnan(table.taus[i]) else float(table.taus[i]),
            }
            for i in range(len(table.steps))
        ],
    )


def bounds_json(
    config: ExperimentConfig,
    decomposition: Decomposition,
    points: list[PlanPoint],
    reports: list[BoundReport],
    shots: tuple[float, float] | None,
) -> str:
    """The `bounds` document: state-independent scalings, then one entry per plan point.

    `shots` is the (state preparation, dynamics) pair of shot lower bounds,
    or None when the config gives no shot parameters.
    """
    t0 = points[0].plan.total_time
    fields = {
        "note": _ORDER_NOTE,
        "state_independent": {
            "note": "per unit simulation-error budget",
            "trotter1": len(decomposition) ** 3 * (max(decomposition.inf_norms) * t0) ** 2,
            "rc": (decomposition.lam * t0) ** 2,
            "arc": None,
        },
        "bounds": [
            {"x_kind": point.x_kind, "x_value": point.x_value, **vars(report)}
            for point, report in zip(points, reports)
        ],
    }
    if shots is not None:
        prep, dyn = shots
        fields["shots"] = {"note": _ORDER_NOTE, "arc_state_preparation": prep, "dynamics": dyn}
    return _json(config, **fields)


def write_text(path, text: str) -> None:
    """Write text to a file as UTF-8 with the newlines unchanged."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit_svg(result: EnsembleResult, path) -> None:
    """Self-contained SVG line chart: one polyline per protocol."""
    if not result.series:
        raise ValueError("empty result")
    width, height = 640, 420
    left, right, top, bottom = 64, 16, 24, 48
    plot_w, plot_h = width - left - right, height - top - bottom

    protocols = []
    for sp in result.series:
        if sp.protocol not in protocols:
            protocols.append(sp.protocol)
    xs = sorted({sp.x_value for sp in result.series})
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    ys = [sp.mean_fidelity for sp in result.series]
    y_lo = min(0.0 if min(ys) < 0.5 else min(ys) - 0.05, min(ys))
    y_lo = max(0.0, y_lo)
    y_hi = 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    x_label = "step size dt" if result.series[0].x_kind == "dt" else "evolution steps"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for i in range(5):
        y = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{left - 8:.1f}" y="{sy(y) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{y:.2f}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{sy(y):.1f}" x2="{left}" y2="{sy(y):.1f}" stroke="black"/>'
        )
    for x in xs:
        parts.append(
            f'<text x="{sx(x):.1f}" y="{top + plot_h + 16}" font-size="11" '
            f'text-anchor="middle">{x:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{top + plot_h / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {top + plot_h / 2:.1f})">mean fidelity</text>'
    )
    for idx, protocol in enumerate(protocols):
        pts = sorted((sp.x_value, sp.mean_fidelity) for sp in result.series if sp.protocol == protocol)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly = top + 14 + 16 * idx
        lx = left + plot_w - 110
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-size="12">{protocol}</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
