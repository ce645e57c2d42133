"""Minimal self-contained SVG line charts (no plotting dependency)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Series", "line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

_WIDTH = 720
_HEIGHT = 520
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 48
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
# both axes span [0, 1], with a grid line and a label at each tick
_TICKS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]
    color: str | None = None
    dashed: bool = False


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` with the replacements ``xml.sax.saxutils.escape`` makes.

    Written out because importing ``xml.sax`` pulls ``urllib``, ``http``,
    ``email`` and ``ssl`` into every CLI process, and ``html`` its entity tables.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    text = f"{value:.4g}"
    return "0" if text == "-0" else text


def line_chart(
    series: Sequence[Series],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render polyline series on the unit square with axes, ticks, and a small legend."""
    if not series:
        raise ValueError("need at least one series")

    def px(x: float) -> float:
        return _MARGIN_LEFT + x * _PLOT_W

    def py(y: float) -> float:
        return _MARGIN_TOP + _PLOT_H - y * _PLOT_H

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">{_escape(title)}</text>'
        )

    for tx in _TICKS:
        gx = px(tx)
        parts.append(
            f'<line x1="{gx:.1f}" y1="{_MARGIN_TOP}" x2="{gx:.1f}" '
            f'y2="{_MARGIN_TOP + _PLOT_H}" stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{gx:.1f}" y="{_MARGIN_TOP + _PLOT_H + 18}" text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _TICKS:
        gy = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{gy:.1f}" x2="{_MARGIN_LEFT + _PLOT_W}" '
            f'y2="{gy:.1f}" stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{gy + 4:.1f}" text-anchor="end">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    if x_label:
        parts.append(
            f'<text x="{_MARGIN_LEFT + _PLOT_W / 2:.1f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        cx, cy = 18, _MARGIN_TOP + _PLOT_H / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{_escape(y_label)}</text>'
        )

    for idx, s in enumerate(series):
        xs = np.asarray(s.x, dtype=float)
        ys = np.asarray(s.y, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1 or len(xs) == 0:
            raise ValueError(f"series {s.label!r} needs equal-length nonempty x and y")
        color = s.color or _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        if len(xs) == 1:
            parts.append(
                f'<circle cx="{px(xs[0]):.2f}" cy="{py(ys[0]):.2f}" r="3" fill="{color}"/>'
            )
        else:
            # whole columns, in the operation order of px and py: the same bits
            coords = " ".join(
                map(
                    "{:.2f},{:.2f}".format,
                    (_MARGIN_LEFT + xs * _PLOT_W).tolist(),
                    (_MARGIN_TOP + _PLOT_H - ys * _PLOT_H).tolist(),
                )
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"{dash}/>'
            )

    legend_y = _MARGIN_TOP + 14
    for idx, s in enumerate(series):
        color = s.color or _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        ly = legend_y + idx * 16
        lx = _MARGIN_LEFT + _PLOT_W - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        parts.append(f'<text x="{lx + 32}" y="{ly + 4}">{_escape(s.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)
