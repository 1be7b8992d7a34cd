"""Dependency-free SVG line charts for experiment result tables.

The document is written as text; field names and series labels are escaped
by ``_escape``, so no XML library is imported.
"""

from __future__ import annotations

import warnings

from .experiments import aggregate

__all__ = ["emit_svg_lines"]

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 150, 30, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` replaced by entities, ``&`` first:
    the same string as ``xml.sax.saxutils.escape(text)``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def emit_svg_lines(rows: list[dict], x_axis: str, series: str, path) -> None:
    """Render mean estimation error against ``x_axis``, one polyline per
    ``series`` value, with +/- one standard-error whiskers.

    Output is a standalone SVG 1.1 document built from text primitives only.
    A single distinct x value cannot make a line; the chart degrades to
    points and a warning is issued.
    """
    if not rows:
        raise ValueError("no rows to plot")
    if x_axis not in rows[0] or series not in rows[0]:
        raise ValueError(f"fields {x_axis!r}/{series!r} not present in the table")

    agg = aggregate(rows, x_axis, series)
    if not agg:
        raise ValueError("no finite errors to plot")
    series_vals = sorted({k[0] for k in agg})
    x_vals = sorted({k[1] for k in agg})
    degenerate = len(x_vals) < 2
    if degenerate:
        warnings.warn("single x value: emitting points only, no lines")

    y_top = max(m + s for m, s, _ in agg.values())
    y_bot = min(0.0, min(m - s for m, s, _ in agg.values()))
    if y_top <= y_bot:
        y_top = y_bot + 1.0
    x_lo, x_hi = min(x_vals), max(x_vals)

    span_x = (x_hi - x_lo) or 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / span_x * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + (y_top - y) / (y_top - y_bot) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        px = sx(xt)
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 20}" font-size="11" '
            f'text-anchor="middle">{xt:g}</text>'
        )
    for yt in _ticks(y_bot, y_top):
        py = sy(yt)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yt:.3g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 10}" font-size="12" '
        f'text-anchor="middle">{_escape(x_axis)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.2f})">'
        f'mean error</text>'
    )

    for si, sval in enumerate(series_vals):
        color = PALETTE[si % len(PALETTE)]
        pts = [(x, *agg[(sval, x)][:2]) for x in x_vals if (sval, x) in agg]
        for x, mean, se in pts:
            if se > 0:
                parts.append(
                    f'<line x1="{sx(x):.2f}" y1="{sy(mean - se):.2f}" '
                    f'x2="{sx(x):.2f}" y2="{sy(mean + se):.2f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(mean):.2f}" r="2.5" fill="{color}"/>'
            )
        if not degenerate and len(pts) >= 2:
            coords = " ".join(f"{sx(x):.2f},{sy(mean):.2f}" for x, mean, _ in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = MARGIN_T + 14 + 18 * si
        parts.append(
            f'<line x1="{WIDTH - MARGIN_R + 10}" y1="{ly - 4}" '
            f'x2="{WIDTH - MARGIN_R + 34}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        label = f"{sval:g}" if isinstance(sval, float) else str(sval)
        parts.append(
            f'<text x="{WIDTH - MARGIN_R + 40}" y="{ly}" font-size="11">'
            f'{_escape(series)}={_escape(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
