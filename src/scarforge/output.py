"""Deterministic CSV and SVG emission.

Every file starts with '#' metadata lines carrying the tool version, the
run's model and size, and a hash of all numeric-influencing parameters.
Scalar results printed among them (a decay rate, a mean gap ratio) are not
hashed, so that the hash names the configuration and not its outcome.
Floats print at 12 significant digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def format_value(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def config_hash(params: dict) -> str:
    blob = "\n".join(f"{k}={format_value(v)}" for k, v in sorted(params.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def metadata_lines(version: str, params: dict, results: dict | None = None) -> list[str]:
    items = " ".join(f"{k}={format_value(v)}" for k, v in sorted({**params, **(results or {})}.items()))
    return [
        f"# scarforge {version}",
        f"# {items}",
        f"# config={config_hash(params)}",
    ]


def metadata_object(version: str, params: dict) -> dict:
    return {
        "tool": f"scarforge {version}",
        "params": {k: format_value(v) for k, v in sorted(params.items())},
        "config": config_hash(params),
    }


def write_csv(path, version: str, params: dict, columns: list[str], rows, results: dict | None = None) -> None:
    lines = metadata_lines(version, params, results)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _svg_header(width, height, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def write_svg_lines(path, title: str, x, series: dict) -> None:
    """Self-contained line plot on a log y axis; series maps label -> values."""
    width, height, pad = 640, 420, 50
    x = np.asarray(x, dtype=float)
    parts = _svg_header(width, height, title)
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    floor = max(all_y[all_y > 0].min() if np.any(all_y > 0) else 1e-16, 1e-16)
    transform = lambda v: np.log10(np.maximum(np.asarray(v, dtype=float), floor))
    all_y = transform(all_y)
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    x_lo, x_hi = float(x.min()), float(x.max())
    for i, (label, values) in enumerate(series.items()):
        ys = transform(values)
        px = _scale(x, x_lo, x_hi, pad, width - pad)
        py = _scale(ys, y_lo, y_hi, height - pad, pad)
        points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = COLORS[i % len(COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>')
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 16 * i}" font-size="11" fill="{color}">{label}</text>'
        )
    axis = f'M {pad} {pad} L {pad} {height - pad} L {width - pad} {height - pad}'
    parts.append(f'<path d="{axis}" stroke="black" fill="none"/>')
    parts.append(f'<text x="{pad}" y="{height - pad + 24}" font-size="11">{x_lo:.6g}</text>')
    parts.append(f'<text x="{width - pad}" y="{height - pad + 24}" font-size="11" text-anchor="end">{x_hi:.6g}</text>')
    parts.append(f'<text x="{pad - 4}" y="{pad}" font-size="11" text-anchor="end">{10 ** y_hi:.3g}</text>')
    parts.append(f'<text x="{pad - 4}" y="{height - pad}" font-size="11" text-anchor="end">{10 ** y_lo:.3g}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_svg_scatter(path, title: str, x, y, flagged) -> None:
    """Scatter plot on a log y axis with flagged points visually distinguished."""
    width, height, pad = 640, 420, 50
    x = np.asarray(x, dtype=float)
    y = np.log10(np.maximum(np.asarray(y, dtype=float), 1e-16))
    flags = np.asarray(flagged, dtype=bool)
    parts = _svg_header(width, height, title)
    px = _scale(x, x.min(), x.max(), pad, width - pad)
    py = _scale(y, y.min(), y.max(), height - pad, pad)
    for a, b, f in zip(px, py, flags):
        if f:
            parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3.5" fill="none" stroke="#d62728" stroke-width="1.5"/>')
        else:
            parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="1.6" fill="#1f77b4"/>')
    axis = f'M {pad} {pad} L {pad} {height - pad} L {width - pad} {height - pad}'
    parts.append(f'<path d="{axis}" stroke="black" fill="none"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
