"""Minimal SVG emission for Bode panels and time-series plots.

Plots are informational companions to the CSV outputs, so this sticks to
direct markup: axes, gridlines, one polyline per curve, and dashed
crossover markers. No plotting library is involved.
"""

from __future__ import annotations

import math

from .lti import FrequencyPoint, MarginReport

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 28, 40
_PANEL_W, _PANEL_H = 560, 220


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
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


class _Panel:
    """One x/y plot area with linear y and linear-or-log x."""

    def __init__(self, x0, y0, xlim, ylim, log_x):
        self.x0, self.y0 = x0, y0
        self.xlim, self.ylim = xlim, ylim
        self.log_x = log_x

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        if self.log_x:
            frac = (math.log10(x) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
        else:
            frac = (x - lo) / (hi - lo)
        return self.x0 + frac * _PANEL_W

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        return self.y0 + _PANEL_H * (1.0 - (y - lo) / (hi - lo))

    def frame(self, out, xlabel, ylabel):
        out.append(
            f'<rect x="{self.x0}" y="{self.y0}" width="{_PANEL_W}" height="{_PANEL_H}" '
            'fill="none" stroke="#333" stroke-width="1"/>'
        )
        if self.log_x:
            d0 = math.ceil(math.log10(self.xlim[0]))
            d1 = math.floor(math.log10(self.xlim[1]))
            for d in range(d0, d1 + 1):
                x = self.px(10.0 ** d)
                out.append(
                    f'<line x1="{x:.1f}" y1="{self.y0}" x2="{x:.1f}" '
                    f'y2="{self.y0 + _PANEL_H}" stroke="#ddd" stroke-width="1"/>'
                )
                out.append(
                    f'<text x="{x:.1f}" y="{self.y0 + _PANEL_H + 16}" font-size="11" '
                    f'text-anchor="middle">1e{d}</text>'
                )
        else:
            for t in _nice_ticks(*self.xlim):
                x = self.px(t)
                out.append(
                    f'<line x1="{x:.1f}" y1="{self.y0}" x2="{x:.1f}" '
                    f'y2="{self.y0 + _PANEL_H}" stroke="#ddd" stroke-width="1"/>'
                )
                out.append(
                    f'<text x="{x:.1f}" y="{self.y0 + _PANEL_H + 16}" font-size="11" '
                    f'text-anchor="middle">{t:g}</text>'
                )
        for t in _nice_ticks(*self.ylim):
            y = self.py(t)
            out.append(
                f'<line x1="{self.x0}" y1="{y:.1f}" x2="{self.x0 + _PANEL_W}" '
                f'y2="{y:.1f}" stroke="#eee" stroke-width="1"/>'
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

    def polyline(self, out, xs, ys, color="#1f4e9c"):
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    def vline(self, out, x, color, label=None):
        if not (self.xlim[0] <= x <= self.xlim[1]):
            return
        xp = self.px(x)
        out.append(
            f'<line x1="{xp:.1f}" y1="{self.y0}" x2="{xp:.1f}" '
            f'y2="{self.y0 + _PANEL_H}" stroke="{color}" stroke-width="1" '
            'stroke-dasharray="4 3"/>'
        )
        if label:
            out.append(
                f'<text x="{xp + 4:.1f}" y="{self.y0 + 14}" font-size="11" '
                f'fill="{color}">{label}</text>'
            )

    def hline(self, out, y, color):
        if not (self.ylim[0] <= y <= self.ylim[1]):
            return
        yp = self.py(y)
        out.append(
            f'<line x1="{self.x0}" y1="{yp:.1f}" x2="{self.x0 + _PANEL_W}" '
            f'y2="{yp:.1f}" stroke="{color}" stroke-width="1" stroke-dasharray="4 3"/>'
        )


def _pad(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    if span <= 0.0:
        span = max(abs(hi), 1.0)
    return lo - 0.05 * span, hi + 0.05 * span


def bode_svg(
    points: list[FrequencyPoint], margins: MarginReport | None = None, title: str = ""
) -> str:
    """Two-panel magnitude/phase plot with crossover markers."""
    omegas = [pt.omega for pt in points]
    mags = [pt.magnitude_db for pt in points]
    phases = [pt.phase_deg for pt in points]
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    height = _MARGIN_T + 2 * _PANEL_H + 60 + _MARGIN_B
    mag_panel = _Panel(
        _MARGIN_L, _MARGIN_T, (omegas[0], omegas[-1]), _pad(min(mags), max(mags)), True
    )
    ph_panel = _Panel(
        _MARGIN_L,
        _MARGIN_T + _PANEL_H + 60,
        (omegas[0], omegas[-1]),
        _pad(min(phases), max(phases)),
        True,
    )
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="18" font-size="13" text-anchor="middle">{title}</text>',
    ]
    mag_panel.frame(out, "omega (rad/s)", "magnitude (dB)")
    mag_panel.polyline(out, omegas, mags)
    mag_panel.hline(out, 0.0, "#888")
    ph_panel.frame(out, "omega (rad/s)", "phase (deg)")
    ph_panel.polyline(out, omegas, phases, color="#9c2f1f")
    ph_panel.hline(out, -180.0, "#888")
    if margins is not None:
        if margins.gain_crossover is not None:
            pm = margins.phase_margin_deg
            label = f"PM {pm:.1f} deg" if pm is not None else "gain crossover"
            mag_panel.vline(out, margins.gain_crossover, "#1a7a3c")
            ph_panel.vline(out, margins.gain_crossover, "#1a7a3c", label)
        if margins.phase_crossover is not None:
            gm = margins.gain_margin_db
            mag_panel.vline(out, margins.phase_crossover, "#b06e10", f"GM {gm:.2f} dB")
            ph_panel.vline(out, margins.phase_crossover, "#b06e10")
    out.append("</svg>")
    return "\n".join(out)


def timeseries_svg(times, values, xlabel: str, ylabel: str, title: str = "") -> str:
    """Single-panel line plot on linear axes."""
    xs = [float(x) for x in times]
    ys = [float(y) for y in values]
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    height = _MARGIN_T + _PANEL_H + _MARGIN_B
    panel = _Panel(
        _MARGIN_L, _MARGIN_T, (xs[0], xs[-1]), _pad(min(ys), max(ys)), False
    )
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="18" font-size="13" text-anchor="middle">{title}</text>',
    ]
    panel.frame(out, xlabel, ylabel)
    panel.polyline(out, xs, ys)
    out.append("</svg>")
    return "\n".join(out)
