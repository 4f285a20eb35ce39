"""Standalone SVG line charts (batch tool, no display loop)."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 20, 36, 48


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def write_line_chart(
    path,
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    log_y: bool = False,
) -> None:
    xs = [float(v) for v in x]
    data: dict[str, list[float]] = {}
    for name, ys in series.items():
        vals = [float(v) for v in ys]
        if log_y:
            vals = [math.log10(v) if v > 0 else math.nan for v in vals]
        data[name] = vals
    all_y = [v for ys in data.values() for v in ys if not math.isnan(v)]
    if not all_y:
        all_y = [0.0, 1.0]
    ylo, yhi = min(all_y), max(all_y)
    if yhi == ylo:
        yhi = ylo + 1.0
    xlo, xhi = min(xs), max(xs)
    if xhi == xlo:
        xhi = xlo + 1.0

    def px(v: float) -> float:
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(v: float) -> float:
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{ylabel}{" (log10)" if log_y else ""}</text>',
    ]
    for tv in _ticks(xlo, xhi):
        parts.append(
            f'<text x="{px(tv):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{tv:.3g}</text>'
        )
    for tv in _ticks(ylo, yhi):
        parts.append(
            f'<text x="{_ML - 6}" y="{py(tv) + 4:.1f}" text-anchor="end">{tv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{_ML}" y1="{py(tv):.1f}" x2="{_W - _MR}" y2="{py(tv):.1f}" '
            'stroke="#dddddd" stroke-width="0.5"/>'
        )
    for i, (name, ys) in enumerate(data.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(xs, ys) if not math.isnan(yv)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_W - _MR - 4}" y="{_MT + 14 * (i + 1)}" text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
