"""Minimal deterministic SVG charts.

Hand-written rather than delegated to a plotting library so that identical
inputs produce byte-identical files (no embedded timestamps, hashes, or
font-dependent geometry), which the CLI promises.

Every value handed to a chart is finite; the caller checks that.  An axis
whose range cannot be scaled, because its span overflows or is too small
to step through, raises :class:`AxisError`.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 40, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return _strip(f"{v:.4f}")


class AxisError(ValueError):
    """An axis range that cannot be scaled."""


def _axis(name: str, lo: float, hi: float) -> tuple[float, float]:
    """The drawn range of an axis whose values run from ``lo`` to ``hi``,
    one value widened to a unit.  Its span must be a finite normal float,
    so that the ticks can step through it."""
    if hi <= lo:
        hi = lo + 1.0
    if not sys.float_info.min <= hi - lo < math.inf:
        raise AxisError(f"the {name} axis from {lo!r} to {hi!r} cannot be scaled")
    return lo, hi


def _ticks(lo: float, hi: float, n: int = 5) -> list[tuple[float, str]]:
    """Round values of the range lo < hi, at most about ``n`` steps apart,
    each float once, with their labels."""
    span = hi - lo
    place = math.floor(math.log10(span / n))
    step = 10 ** place
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    # Far from 0, steps of a fraction of the floats' spacing round several
    # ticks to one float.
    ticks = list(dict.fromkeys(k * step for k in range(math.ceil(lo / step), math.floor(hi / step + 1e-12 * span / step) + 1)))
    return list(zip(ticks, _tick_labels(ticks, place + (mult == 10))))


def _tick_labels(ticks: list[float], place: int) -> list[str]:
    """Labels of the ascending, distinct ``ticks``, to the decimal ``place``
    of their step, or to as many more places as adjacent labels need to
    differ.  In fixed notation, as pixel coordinates are, for steps of at
    least 1e-4 and ticks below 1e15; in scientific notation beyond, where
    17 significant digits tell any two floats apart."""
    largest = max(abs(v) for v in ticks)
    while True:
        if place >= -4 and largest < 1e15:
            labels = [_strip(f"{v:.{max(0, -place)}f}") for v in ticks]
        else:
            labels = [_scientific(v, place) for v in ticks]
        if len(set(labels)) == len(labels):
            return labels
        place -= 1


def _scientific(v: float, place: int) -> str:
    """``v`` in scientific notation to the decimal ``place``, within 17
    significant digits."""
    if v == 0:
        return "0"
    digits = min(16, max(0, math.floor(math.log10(abs(v))) - place))
    mantissa, exponent = f"{v:.{digits}e}".split("e")
    return f"{_strip(mantissa)}e{int(exponent)}"


def _strip(number: str) -> str:
    """``number`` without the trailing zeros of its fraction."""
    return number.rstrip("0").rstrip(".") if "." in number else number


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str) -> None:
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            "<!-- schema=seqsew.plot.v1 -->",
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH / 2}" y="22" text-anchor="middle" font-family="monospace" '
            f'font-size="14">{title}</text>',
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{xlabel}</text>',
            f'<text x="14" y="{_HEIGHT / 2}" text-anchor="middle" font-family="monospace" '
            f'font-size="11" transform="rotate(-90 14 {_HEIGHT / 2})">{ylabel}</text>',
        ]
        self.x0, self.x1 = _MARGIN_L, _WIDTH - _MARGIN_R
        self.y0, self.y1 = _HEIGHT - _MARGIN_B, _MARGIN_T

    def set_limits(self, xlo: float, xhi: float, ylo: float, yhi: float) -> None:
        (self.xlo, self.xhi), (self.ylo, self.yhi) = _axis("x", xlo, xhi), _axis("y", ylo, yhi)
        self.parts.append(
            f'<rect x="{self.x0}" y="{self.y1}" width="{self.x1 - self.x0}" '
            f'height="{self.y0 - self.y1}" fill="none" stroke="black"/>'
        )
        for tx, label in _ticks(self.xlo, self.xhi):
            px = self._px(tx)
            self.parts.append(
                f'<line x1="{_fmt(px)}" y1="{self.y0}" x2="{_fmt(px)}" y2="{self.y0 + 4}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{_fmt(px)}" y="{self.y0 + 16}" text-anchor="middle" '
                f'font-family="monospace" font-size="10">{label}</text>'
            )
        for ty, label in _ticks(self.ylo, self.yhi):
            py = self._py(ty)
            self.parts.append(
                f'<line x1="{self.x0 - 4}" y1="{_fmt(py)}" x2="{self.x0}" y2="{_fmt(py)}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{self.x0 - 6}" y="{_fmt(py + 3)}" text-anchor="end" '
                f'font-family="monospace" font-size="10">{label}</text>'
            )

    def _px(self, x: float) -> float:
        return self.x0 + (x - self.xlo) / (self.xhi - self.xlo) * (self.x1 - self.x0)

    def _py(self, y: float) -> float:
        return self.y0 - (y - self.ylo) / (self.yhi - self.ylo) * (self.y0 - self.y1)

    def polyline(self, xs: Sequence[float], ys: Sequence[float], color: str, label: str | None = None, idx: int = 0) -> None:
        pts = " ".join(f"{_fmt(self._px(x))},{_fmt(self._py(y))}" for x, y in zip(xs, ys))
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if label:
            ly = _MARGIN_T + 14 * idx
            self.parts.append(
                f'<line x1="{self.x1 - 130}" y1="{ly}" x2="{self.x1 - 110}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
            )
            self.parts.append(
                f'<text x="{self.x1 - 105}" y="{ly + 3}" font-family="monospace" font-size="10">{label}</text>'
            )

    def bars(self, labels: Sequence[str], values: Sequence[float], colors: Sequence[str]) -> None:
        n = len(values)
        slot = (self.x1 - self.x0) / max(n, 1)
        width = slot * 0.6
        zero_py = self._py(max(self.ylo, min(0.0, self.yhi)))
        for i, (label, v, color) in enumerate(zip(labels, values, colors)):
            cx = self.x0 + slot * (i + 0.5)
            py = self._py(v)
            top, height = (py, zero_py - py) if v >= 0 else (zero_py, py - zero_py)
            self.parts.append(
                f'<rect x="{_fmt(cx - width / 2)}" y="{_fmt(top)}" width="{_fmt(width)}" '
                f'height="{_fmt(max(height, 0.5))}" fill="{color}"/>'
            )
            self.parts.append(
                f'<text x="{_fmt(cx)}" y="{self.y0 + 16}" text-anchor="middle" '
                f'font-family="monospace" font-size="9">{label}</text>'
            )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def line_chart(
    title: str,
    xlabel: str,
    ylabel: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
) -> str:
    canvas = _Canvas(title, xlabel, ylabel)
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    canvas.set_limits(min(all_x), max(all_x), min(all_y + [0.0]), max(all_y))
    for i, (label, xs, ys) in enumerate(series):
        canvas.polyline(xs, ys, _COLORS[i % len(_COLORS)], label or None, i)
    return canvas.render()


def bar_chart(title: str, xlabel: str, ylabel: str, labels: Sequence[str], values: Sequence[float]) -> str:
    canvas = _Canvas(title, xlabel, ylabel)
    canvas.set_limits(-0.5, len(values) - 0.5, min(*values, 0.0), max(*values, 0.0))
    colors = ["#2ca02c" if v >= 0 else "#d62728" for v in values]
    canvas.bars(labels, values, colors)
    return canvas.render()
