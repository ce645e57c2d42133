"""Minimal self-contained SVG line charts (no plotting dependency).

A polyline's coordinates are written by whole columns, with the bytes of
``"{:.2f}".format``: each pixel coordinate is taken in integer hundredths,
``np.rint(v * 100)``, and its digits come from lookup tables of 4-byte words.
That rounding is the correct one unless the float product ``v * 100`` is
exactly a half: the guard band around a ``.xx5`` half has zero width, since
rounding the exact product to a float never carries it across a half.  Such
coordinates, and those of magnitude 1024 or more (off the canvas), are
formatted one by one and spliced in.  A series with a non-finite x or y, or
an x or y so large that its pixel coordinate overflows, is rejected.
"""

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

# Coordinates below _BOUND in magnitude (the whole canvas) are formatted from whole columns;
# their integer part, at most 1024, is one table word.
_BOUND = 1024.0
_WHOLE = np.array([b"%d" % whole for whole in range(1025)], dtype="S4").view(np.uint32)
# the point, two decimals and the separator after an x (",") or a y (" ")
_CENTS = np.array(
    [[b".%02d%s" % (cents, sep) for cents in range(100)] for sep in (b",", b" ")], dtype="S4"
).view(np.uint32)


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


def _points(values: np.ndarray) -> str:
    """``"{:.2f}".format`` of each value, ``x,y`` pairs joined by spaces; ``values`` alternates x and y.

    Each value gets a row of three NUL-padded words (sign, integer part, the
    rest) and one pass drops the NULs.  A value whose product lands on a half,
    or that lies off the canvas, keeps only its separator, and its text is
    spliced in afterwards.
    """
    hundredths = np.abs(values)
    exact = hundredths < _BOUND
    np.minimum(hundredths, _BOUND, out=hundredths)
    hundredths *= 100
    # Rounding to nearest is monotone and each half below 2^52 is a float, so the rounded
    # product lies on the same side of every half as the exact one, or on the half itself:
    # only there can np.rint and "{:.2f}" differ.
    exact &= hundredths - np.floor(hundredths) != 0.5
    whole, cents = np.divmod(np.rint(hundredths, out=hundredths).astype(np.intp), 100)
    del hundredths  # freed before the byte matrix: a long series' peak memory stays low
    words = np.zeros((len(values), 3), dtype=np.uint32)
    words[:, 1] = _WHOLE[whole]
    words[0::2, 2] = _CENTS[0, cents[0::2]]
    words[1::2, 2] = _CENTS[1, cents[1::2]]
    cells = words.view(np.uint8)
    cells[np.signbit(values), 0] = ord("-")
    slow = np.flatnonzero(~exact)
    cells[slow, :-1] = 0
    text = cells.tobytes().translate(None, b"\0")
    if len(slow):
        # every value ends in "," or " ", the only bytes of the text at or below ","
        ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) <= ord(","))
        starts = np.concatenate(([0], ends[:-1] + 1))[slow].tolist()
        pieces, last = [], 0
        for start, value in zip(starts, values[slow].tolist()):
            pieces += (text[last:start], "{:.2f}".format(value).encode())
            last = start
        pieces.append(text[last:])
        text = b"".join(pieces)
    return text[:-1].decode("ascii")


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
        # whole columns, in the operation order of px and py: the same bits
        values = np.empty(2 * len(xs))
        with np.errstate(over="ignore"):
            values[0::2] = _MARGIN_LEFT + xs * _PLOT_W
            values[1::2] = _MARGIN_TOP + _PLOT_H - ys * _PLOT_H
        if not np.isfinite(values).all():
            raise ValueError(f"series {s.label!r} needs finite x and y, with finite pixel coordinates")
        color = s.color or _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        if len(xs) == 1:
            parts.append(f'<circle cx="{values[0]:.2f}" cy="{values[1]:.2f}" r="3" fill="{color}"/>')
        else:
            parts.append(
                f'<polyline points="{_points(values)}" fill="none" stroke="{color}" stroke-width="1.6"{dash}/>'
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
