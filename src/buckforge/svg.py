"""Minimal SVG emission for Bode panels and time-series plots.

Plots are informational companions to the CSV outputs, so this sticks to
direct markup: axes, gridlines, one polyline per curve, and dashed
crossover markers. No plotting library is involved.

The panels of one figure share its x column, which is mapped to pixels
once. A polyline's points are ``"%.2f"`` of those pixels, from
`csvtext.format_2f`: the same text as Python's formatting, exactly, from
numpy passes; a pixel's own value is computed as before, by float64
ufuncs and, on a log axis, libm's log10 per point. Every caller's x column
rises, so every pixel lies in the panel, inside format_2f's domain; a sample
whose x leaves the column's first-to-last range may map off it and raise
ValueError.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .csvtext import format_2f
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
    # rounding drops the error the repeated additions leave; it keeps three
    # digits below the step's leading one, and never fewer than 12 decimals
    decimals = max(12, 3 - math.floor(math.log10(step)))
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, decimals))
        t += step
    return ticks


def _log10(x):
    """math.log10 of a number, or of each number of an array.

    Not np.log10: numpy's SIMD log10 rounds some values differently from libm.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.log10, x.tolist()), float, len(x))
    return math.log10(x)


def _line(x1, y1, x2, y2, stroke: str, dashed: bool) -> str:
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
        f'stroke-width="1"{dash}/>'
    )


class _Panel:
    """The plot area of one curve, top edge at y0: linear y, linear-or-log x.

    It spans the curve's x range and its padded y range; xs and ys are
    float arrays. px and py map a number, or each number of an array.
    """

    def __init__(self, y0, xs, ys, log_x):
        self.x0, self.y0 = _MARGIN_L, y0
        self.ys = ys
        self.xlim = (float(xs[0]), float(xs[-1]))
        self.ylim = _pad(float(ys.min()), float(ys.max()))
        self.log_x = log_x

    def px(self, x):
        lo, hi = self.xlim
        if self.log_x:
            x, lo, hi = _log10(x), math.log10(lo), math.log10(hi)
        return self.x0 + (x - lo) / (hi - lo) * _PANEL_W

    def py(self, y):
        lo, hi = self.ylim
        return self.y0 + _PANEL_H * (1.0 - (y - lo) / (hi - lo))

    def draw(self, out, xpixels, xlabel, ylabel, color, level):
        """Frame, grid, tick and axis labels, the curve, and a dashed line at
        y = level (None: no line); xpixels is px of the panel's xs."""
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
        xy = np.column_stack((xpixels, self.py(self.ys)))
        pts = format_2f(xy.ravel(), b", ")[:-1].decode("ascii")
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


def _figure(title: str, xs, log_x, xlabel, curves, markers) -> str:
    """SVG document of panels stacked top to bottom, one per curve, all over
    the x column xs.

    `curves` holds (ys, ylabel, color, level) per panel, `level` being the
    y of a dashed reference line (None: no line); xs and ys are sequences of
    numbers, decimated here to the point budget; a drawn sample that is not
    finite, or an x range or padded y range wider than the float range,
    raises ValueError naming the series.
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
    step = max(1, len(xs) // _MAX_POINTS)
    xs = np.asarray(xs, dtype=float)[::step]
    xs_finite = bool(np.isfinite(xs).all())
    panels, xpixels = [], None
    for i, (ys, ylabel, color, level) in enumerate(curves):
        ys = np.asarray(ys, dtype=float)[::step]
        if not (xs_finite and np.isfinite(ys).all()):
            raise ValueError(f"cannot plot {ylabel!r}: a drawn sample is not finite")
        panel = _Panel(_MARGIN_T + i * (_PANEL_H + _PANEL_GAP), xs, ys, log_x)
        (x_lo, x_hi), (y_lo, y_hi) = panel.xlim, panel.ylim
        if not math.isfinite(x_hi - x_lo):
            raise ValueError(f"cannot plot {ylabel!r}: its x range overflows")
        if not math.isfinite(y_hi - y_lo):
            raise ValueError(f"cannot plot {ylabel!r}: its padded y range overflows")
        if xpixels is None:
            # every panel spans the same x range, so maps xs alike
            xpixels = panel.px(xs)
        panel.draw(out, xpixels, xlabel, ylabel, color, level)
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
    return _figure(title, omegas, True, "omega (rad/s)", [
        (mags, "magnitude (dB)", "#1f4e9c", 0.0),
        (phases, "phase (deg)", "#9c2f1f", -180.0),
    ], markers)


def timeseries_svg(times, values, xlabel: str, ylabel: str, title: str) -> str:
    """Single-panel line plot on linear axes."""
    return _figure(title, times, False, xlabel, [(values, ylabel, "#1f4e9c", None)], [])
