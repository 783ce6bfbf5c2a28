"""Minimal SVG emission for Bode panels and time-series plots.

Plots are informational companions to the CSV outputs, so this sticks to
direct markup: axes, gridlines, one polyline per curve, and dashed
crossover markers. No plotting library is involved.
"""

from __future__ import annotations

import math
import sys

from .lti import MarginReport

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 28, 40
_PANEL_W, _PANEL_H = 560, 220
# vertical space between stacked panels, room for the upper panel's x labels
_PANEL_GAP = 60
# every panel draws fewer than 2 * _MAX_POINTS points: a curve of n samples
# is drawn at a stride of n // _MAX_POINTS
_MAX_POINTS = 2000


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About six ticks at 1, 2 or 5 times a power of ten."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _line(x1, y1, x2, y2, stroke: str, dashed: bool) -> str:
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
        f'stroke-width="1"{dash}/>'
    )


class _Panel:
    """The plot area of one curve, top edge at y0: linear y, linear-or-log x.

    It spans the curve's x range and its padded y range.
    """

    def __init__(self, y0, xs, ys, log_x):
        self.x0, self.y0 = _MARGIN_L, y0
        self.xs, self.ys = xs, ys
        self.xlim, self.ylim = (xs[0], xs[-1]), _pad(min(ys), max(ys))
        self.log_x = log_x

    def px(self, x: float) -> float:
        f = math.log10 if self.log_x else float
        lo, hi = self.xlim
        return self.x0 + (f(x) - f(lo)) / (f(hi) - f(lo)) * _PANEL_W

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        return self.y0 + _PANEL_H * (1.0 - (y - lo) / (hi - lo))

    def draw(self, out, xlabel, ylabel, color, level):
        """Frame, grid, tick and axis labels, the curve, and a dashed line at
        y = level (None: no line)."""
        out.append(
            f'<rect x="{self.x0}" y="{self.y0}" width="{_PANEL_W}" height="{_PANEL_H}" '
            'fill="none" stroke="#333" stroke-width="1"/>'
        )
        if self.log_x:
            d0 = math.ceil(math.log10(self.xlim[0]))
            d1 = math.floor(math.log10(self.xlim[1]))
            xticks = [(10.0 ** d, f"1e{d}") for d in range(d0, d1 + 1)]
        else:
            xticks = [(t, f"{t:g}") for t in _nice_ticks(*self.xlim)]
        for t, label in xticks:
            x = f"{self.px(t):.1f}"
            out.append(_line(x, self.y0, x, self.y0 + _PANEL_H, "#ddd", False))
            out.append(
                f'<text x="{x}" y="{self.y0 + _PANEL_H + 16}" font-size="11" '
                f'text-anchor="middle">{label}</text>'
            )
        for t in _nice_ticks(*self.ylim):
            y = self.py(t)
            out.append(
                _line(self.x0, f"{y:.1f}", self.x0 + _PANEL_W, f"{y:.1f}", "#eee", False)
            )
            out.append(
                f'<text x="{self.x0 - 6}" y="{y + 4:.1f}" font-size="11" '
                f'text-anchor="end">{t:g}</text>'
            )
        out.append(
            f'<text x="{self.x0 + _PANEL_W / 2}" y="{self.y0 + _PANEL_H + 32}" '
            f'font-size="12" text-anchor="middle">{xlabel}</text>'
        )
        out.append(
            f'<text x="{self.x0 - 48}" y="{self.y0 + _PANEL_H / 2}" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 {self.x0 - 48} '
            f'{self.y0 + _PANEL_H / 2})">{ylabel}</text>'
        )
        pts = " ".join(
            f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(self.xs, self.ys)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if level is not None and self.ylim[0] <= level <= self.ylim[1]:
            yp = f"{self.py(level):.1f}"
            out.append(_line(self.x0, yp, self.x0 + _PANEL_W, yp, "#888", True))

    def vline(self, out, x, color, label):
        if not (self.xlim[0] <= x <= self.xlim[1]):
            return
        xp = self.px(x)
        out.append(
            _line(f"{xp:.1f}", self.y0, f"{xp:.1f}", self.y0 + _PANEL_H, color, True)
        )
        if label:
            out.append(
                f'<text x="{xp + 4:.1f}" y="{self.y0 + 14}" font-size="11" '
                f'fill="{color}">{label}</text>'
            )


def _pad(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    # a subnormal span counts as flat: its tick step would underflow to 0;
    # so does one too narrow for a tick step to advance a tick value
    if span < sys.float_info.min or span < 1e-12 * max(abs(lo), abs(hi)):
        span = max(abs(hi), 1.0)
    return lo - 0.05 * span, hi + 0.05 * span


def _figure(title: str, curves, markers) -> str:
    """SVG document of panels stacked top to bottom, one per curve.

    `curves` holds (xs, ys, log_x, xlabel, ylabel, color, level) per panel,
    `level` being the y of a dashed reference line (None: no line); xs and
    ys are sequences of numbers, decimated here to the point budget.
    `markers` holds (x, color, labels): a dashed vertical line across
    every panel, labeled labels[i] on panel i (None: no label).
    """
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    height = _MARGIN_T + len(curves) * (_PANEL_H + _PANEL_GAP) - _PANEL_GAP + _MARGIN_B
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="18" font-size="13" text-anchor="middle">{title}</text>',
    ]
    panels = []
    for i, (xs, ys, log_x, xlabel, ylabel, color, level) in enumerate(curves):
        step = max(1, len(xs) // _MAX_POINTS)
        xs = [float(x) for x in xs[::step]]
        ys = [float(y) for y in ys[::step]]
        panel = _Panel(_MARGIN_T + i * (_PANEL_H + _PANEL_GAP), xs, ys, log_x)
        panel.draw(out, xlabel, ylabel, color, level)
        panels.append(panel)
    for x, color, labels in markers:
        for panel, label in zip(panels, labels):
            panel.vline(out, x, color, label)
    out.append("</svg>")
    return "\n".join(out)


def bode_svg(sweep, margins: MarginReport, title: str) -> str:
    """Two-panel magnitude/phase plot of bode_sweep's columns, crossover markers."""
    omegas, mags, phases = sweep
    markers = []
    if margins.gain_crossover is not None:
        # stability_margins finds the phase margin wherever it finds this crossover
        label = f"PM {margins.phase_margin_deg:.1f} deg"
        markers.append((margins.gain_crossover, "#1a7a3c", (None, label)))
    if margins.phase_crossover is not None:
        label = f"GM {margins.gain_margin_db:.2f} dB"
        markers.append((margins.phase_crossover, "#b06e10", (label, None)))
    return _figure(title, [
        (omegas, mags, True, "omega (rad/s)", "magnitude (dB)", "#1f4e9c", 0.0),
        (omegas, phases, True, "omega (rad/s)", "phase (deg)", "#9c2f1f", -180.0),
    ], markers)


def timeseries_svg(times, values, xlabel: str, ylabel: str, title: str) -> str:
    """Single-panel line plot on linear axes."""
    return _figure(title, [(times, values, False, xlabel, ylabel, "#1f4e9c", None)], [])
