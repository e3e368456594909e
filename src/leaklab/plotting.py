"""Minimal SVG chart emitters for reports and demos.

Self-contained string builders, no plotting dependency: a report that
needs one line chart should not pull in a rendering stack.  Output is
valid standalone SVG 1.1.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

__all__ = ["line_chart", "bar_chart"]

_W, _H = 640, 360
_ML, _MR, _MT, _MB = 64, 16, 28, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.2g}"
    return f"{v:g}"


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">'
            f"{escape(title)}</text>",
        ]

    def add(self, s: str) -> None:
        self.parts.append(s)

    def finish(self) -> str:
        self.parts.append("</svg>")
        return "\n".join(self.parts)


def _axes(c: _Canvas, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo or 1.0) * pw

    def sy(v):
        return _MT + ph - (v - y_lo) / (y_hi - y_lo or 1.0) * ph

    c.add(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
          f'fill="none" stroke="#333"/>')
    for t in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            c.add(f'<line x1="{sx(t):.1f}" y1="{_MT + ph}" x2="{sx(t):.1f}" '
                  f'y2="{_MT + ph + 4}" stroke="#333"/>')
            c.add(f'<text x="{sx(t):.1f}" y="{_MT + ph + 16}" '
                  f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            c.add(f'<line x1="{_ML - 4}" y1="{sy(t):.1f}" x2="{_ML}" '
                  f'y2="{sy(t):.1f}" stroke="#333"/>')
            c.add(f'<text x="{_ML - 7}" y="{sy(t) + 4:.1f}" '
                  f'text-anchor="end">{_fmt(t)}</text>')
    c.add(f'<text x="{_ML + pw / 2}" y="{_H - 8}" text-anchor="middle">'
          f"{escape(x_label)}</text>")
    c.add(f'<text x="14" y="{_MT + ph / 2}" text-anchor="middle" '
          f'transform="rotate(-90 14 {_MT + ph / 2})">{escape(y_label)}</text>')
    return sx, sy


def line_chart(series: dict[str, list[tuple[float, float]]], *, title: str = "",
               x_label: str = "", y_label: str = "") -> str:
    """Multi-series line chart of (x, y) point lists; the y axis includes 0."""
    pts = [p for s in series.values() for p in s]
    if not pts:
        raise ValueError("no data")
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    y_lo = min(0.0, min(ys))
    y_hi = max(ys) if max(ys) > y_lo else y_lo + 1.0
    c = _Canvas(title)
    sx, sy = _axes(c, min(xs), max(xs) if max(xs) > min(xs) else min(xs) + 1,
                   y_lo, y_hi, x_label, y_label)
    for k, (name, data) in enumerate(series.items()):
        color = _COLORS[k % len(_COLORS)]
        path = " ".join(f"{'M' if i == 0 else 'L'}{sx(x):.1f},{sy(y):.1f}"
                        for i, (x, y) in enumerate(sorted(data)))
        c.add(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in data:
            c.add(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" fill="{color}"/>')
        c.add(f'<text x="{_W - _MR - 6}" y="{_MT + 14 + 14 * k}" text-anchor="end" '
              f'fill="{color}">{escape(name)}</text>')
    return c.finish()


def bar_chart(values: dict[str, float], *, title: str = "", y_label: str = "",
              baseline: float | None = None) -> str:
    """Labeled bar chart with an optional dashed horizontal reference line."""
    if not values:
        raise ValueError("no data")
    y_hi = max(list(values.values()) + ([baseline] if baseline else []) + [0.0])
    y_hi = y_hi or 1.0
    c = _Canvas(title)
    sx, sy = _axes(c, 0, len(values), 0.0, y_hi * 1.08, "", y_label)
    for i, (name, v) in enumerate(values.items()):
        x0, x1 = sx(i + 0.18), sx(i + 0.82)
        c.add(f'<rect x="{x0:.1f}" y="{sy(max(v, 0)):.1f}" width="{x1 - x0:.1f}" '
              f'height="{abs(sy(0) - sy(v)):.1f}" fill="{_COLORS[0]}"/>')
        c.add(f'<text x="{sx(i + 0.5):.1f}" y="{_H - _MB + 16}" '
              f'text-anchor="middle">{escape(str(name))}</text>')
    if baseline is not None:
        c.add(f'<line x1="{_ML}" y1="{sy(baseline):.1f}" x2="{_W - _MR}" '
              f'y2="{sy(baseline):.1f}" stroke="#d62728" stroke-dasharray="5,3"/>')
    return c.finish()
