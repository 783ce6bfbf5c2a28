"""PI controller construction, loop assembly, and phase-margin tuning.

The integral gain is always taken as a given and only the proportional
gain is searched: a 1-D bracket-and-bisect on the phase margin of the
compensated loop. The margin is not monotone in kp at small gains, so the
search scans its grid down from the largest kp to the first exact hit or
falling edge: the largest satisfying kp, the faster of equal-margin designs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .converter import ConverterParams, default_sensor_gain
from .lti import (
    MarginReport,
    TransferFunction,
    close_unity_loop,
    dc_gain,
    gain_crossing,
    poles,
    series,
    stability_margins,
    window_response,
)
from .timedomain import NotSettledError, step_metrics, step_response


class TuningError(RuntimeError):
    """The requested phase margin cannot be met inside the kp bracket.

    `trace` holds the search that failed (a TuningTrace), when there is one.
    """

    def __init__(self, message: str, trace: "TuningTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class PIGains:
    """Proportional and integral gains; finite, non-negative, not both zero."""

    kp: float
    ki: float

    def __post_init__(self):
        for name in ("kp", "ki"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.kp < 0.0 or self.ki < 0.0:
            raise ValueError(f"gains must be non-negative, got ({self.kp}, {self.ki})")
        if self.kp == 0.0 and self.ki == 0.0:
            raise ValueError("kp and ki cannot both be zero")


def pi_tf(g: PIGains) -> TransferFunction:
    """(kp*s + ki)/s; proportional-only gains keep the uncancelled s/s."""
    return TransferFunction((g.kp, g.ki), (1.0, 0.0))


def compensated_loop(plant: TransferFunction, g: PIGains) -> TransferFunction:
    """Open loop plant * PI, with PI in duty-domain gains."""
    return series(plant, pi_tf(g))


@dataclass(frozen=True)
class TuningTrace:
    """How `tune_kp_for_pm` reached its answer.

    `kp_grid` is the top of the kp grid the scan evaluated, ascending, and
    `pm_grid[i]` the phase margin at `kp_grid[i]` (None: |L| never reaches
    1). `bracket` is the grid interval the bisection started from, None on
    an exact grid hit or when no interval brackets the target. `bisection`
    lists each midpoint as (kp, phase margin); `pm_evals` counts grid and
    midpoint margins. A tuned kp is accepted on its margin recorded here.
    """

    kp_grid: tuple[float, ...]
    pm_grid: tuple[float | None, ...]
    bracket: tuple[float, float] | None
    bisection: tuple[tuple[float, float | None], ...]
    pm_evals: int


@dataclass(frozen=True)
class TuningResult:
    gains: PIGains
    trace: TuningTrace


KP_BRACKET = (1e-6, 1e3)
KP_GRID_PER_DECADE = 10
# bisection stops once the phase margin is this close to the target
PM_TOLERANCE_DEG = 0.05


def tune_kp_for_pm(plant: TransferFunction, ki: float, target_pm: float) -> TuningResult:
    """Find kp whose compensated loop hits the phase-margin target.

    Scans a log grid over the kp bracket from its top down, computing PM(kp)
    only at the points it reaches, to the first exact hit or falling edge of
    PM(kp) - target, then bisects to within PM_TOLERANCE_DEG. Raises
    TuningError with the observed margins when no bracket exists, and with
    the final bracket and its end margins when bisection stops at a jump of
    PM(kp); the result and the error carry a TuningTrace of the search. The
    margin of the returned kp is the one the search computed,
    `stability_margins`'s phase margin bit for bit. Raises ValueError when a
    loop's response is not finite on the margin window.
    """
    if not (0.0 < target_pm < 180.0):
        raise ValueError(f"target phase margin must be in (0, 180), got {target_pm!r}")
    if not (0.0 < ki < math.inf):
        raise ValueError(f"ki must be positive and finite for PI tuning, got {ki!r}")

    # kp scales only the numerator, so every loop shares one den(j*omega)
    unit_kp = compensated_loop(plant, PIGains(1.0, ki))
    den_resp = window_response(unit_kp.den, None)

    def pm_of(kp: float) -> float | None:
        # compensated_loop(plant, PIGains(kp, ki)), coefficient for coefficient
        loop = TransferFunction(tuple(np.convolve(plant.num, (kp, ki))), unit_kp.den)
        return gain_crossing(loop, window_response(loop.num, den_resp))[2]

    def excess(pm: float | None) -> float:
        # no gain crossover: the loop never reaches unit magnitude
        return math.inf if pm is None else pm - target_pm

    lo, hi = KP_BRACKET
    n = int(round(math.log10(hi / lo) * KP_GRID_PER_DECADE)) + 1
    grid = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    pms: list[float | None] = [None] * n  # the scan evaluates grid[start:]
    steps: list[tuple[float, float | None]] = []

    def trace(bracket: tuple[float, float] | None) -> TuningTrace:
        kps, evaluated = tuple(grid[start:]), tuple(pms[start:])
        return TuningTrace(kps, evaluated, bracket, tuple(steps), len(kps) + len(steps))

    def reached(pm: float | None) -> str:
        return "no gain crossover" if pm is None else f"{pm!r} deg"

    bracket = None
    for start in reversed(range(n)):
        pms[start] = pm_of(grid[start])
        here = excess(pms[start])
        if here == 0.0:
            # PM(grid[start]) is the target itself
            return TuningResult(PIGains(grid[start], ki), trace(None))
        if start < n - 1 and here * excess(pms[start + 1]) < 0.0:
            bracket = start
            if here > 0.0:
                # falling edge: largest kp still satisfying the target
                break
    if bracket is None:
        finite = [x + target_pm for x in map(excess, pms) if math.isfinite(x)]
        observed = (
            f"observed margins span [{min(finite):.3f}, {max(finite):.3f}] deg"
            if finite
            else "no kp gives a gain crossover (|L| never crosses 1 on the "
            "margin window)"
        )
        raise TuningError(
            f"phase margin target {target_pm!r} deg not bracketed for "
            f"kp in [{lo!r}, {hi!r}]; {observed}",
            trace(None),
        )

    span = (grid[bracket], grid[bracket + 1])
    a, b = span
    pm_a, pm_b = pms[bracket], pms[bracket + 1]
    for _ in range(100):
        mid = math.sqrt(a * b)
        pm = pm_of(mid)
        steps.append((mid, pm))
        fm = excess(pm)
        if abs(fm) <= PM_TOLERANCE_DEG:
            return TuningResult(PIGains(mid, ki), trace(span))
        if excess(pm_a) * fm <= 0.0:
            b, pm_b = mid, pm
        else:
            a, pm_a = mid, pm
        if b - a <= 1e-12 * b:
            break
    # the bracket straddled a jump of PM(kp) or the margin window's edge
    raise TuningError(
        f"phase margin target {target_pm!r} deg not met: PM(kp) jumps from "
        f"{reached(pm_a)} at kp {a!r} to {reached(pm_b)} at kp {b!r}, across the target",
        trace(span),
    )


# Margin values reported in the published case studies for this plant,
# kept so reports can show the computed numbers next to the claimed ones.
REFERENCE_CASE_STUDIES = {
    (0.23, 1.0): {
        "phase_margin_deg": 75.0,
        "phase_margin_is_lower_bound": True,
        "gain_margin_db": -0.151,
    },
    (10.0, 1.0): {
        "phase_margin_deg": 10.0,
        "phase_margin_is_lower_bound": False,
        "gain_margin_db": 0.0428,
    },
}


def published_gain_reference(target_pm: float) -> dict | None:
    """The published gains whose claimed phase margin is within 0.5 deg of
    `target_pm`, for a tuning result to cite; None when there are none."""
    for (kp, ki), claim in REFERENCE_CASE_STUDIES.items():
        if abs(target_pm - claim["phase_margin_deg"]) <= 0.5:
            return {
                "kp": kp,
                "ki": ki,
                "claimed_phase_margin_deg": claim["phase_margin_deg"],
                "note": (
                    "a published design for this plant reports these gains for "
                    "the same margin target; the bare plant*PI loop reaches the "
                    "target at the kp tuned here instead"
                ),
            }
    return None


def _reference_comparison(g: PIGains, computed: MarginReport) -> dict | None:
    for (kp, ki), claim in REFERENCE_CASE_STUDIES.items():
        if math.isclose(g.kp, kp, rel_tol=1e-9) and math.isclose(g.ki, ki, rel_tol=1e-9):
            pm = computed.phase_margin_deg
            delta = None if pm is None else pm - claim["phase_margin_deg"]
            if pm is None:
                agrees = False
            elif claim["phase_margin_is_lower_bound"]:
                agrees = pm >= claim["phase_margin_deg"]
            else:
                agrees = abs(pm - claim["phase_margin_deg"]) <= 0.5
            return {
                "published": dict(claim),
                "computed_phase_margin_deg": pm,
                "computed_gain_margin_db": computed.gain_margin_db,
                "phase_margin_delta_deg": delta,
                "matches_published_claim": bool(agrees),
                "note": (
                    "published margins for these gains do not reproduce from the "
                    "plant-times-PI loop alone; both readings are reported"
                    if not agrees
                    else "computed margins agree with the published values"
                ),
            }
    return None


# window and resolution of the closed-loop step in a design report
DESIGN_STEP_T_END = 0.05
DESIGN_STEP_SAMPLES = 20001


def design_report(plant: TransferFunction, g: PIGains, p: ConverterParams) -> dict:
    """Margins, closed-loop poles, and step metrics in one JSON-ready dict.

    The bare plant*PI loop is reported next to the physical PWM loop, which
    adds the modulator gain 1/vs and the sensor gain vref/vo_target (the bare
    loop at gains times vref/(vo_target*vs)), since published margin figures
    for this plant are only reproducible under one of them. Step metrics are
    relative to the simulated window; the model-exact steady-state error
    comes from the closed-loop DC gain.
    """
    loop = compensated_loop(plant, g)
    scale = (1.0 / p.vs) * default_sensor_gain(p)
    pwm_loop = TransferFunction(tuple(x * scale for x in loop.num), loop.den)
    bare = stability_margins(loop)
    variants = {
        "plant_times_pi": asdict(bare),
        "with_modulator_and_sensor_gains": asdict(stability_margins(pwm_loop)),
    }

    closed = close_unity_loop(loop)
    closed_poles = poles(closed)
    closed_dc = dc_gain(closed)

    metrics = None
    metrics_note = None
    try:
        traj = step_response(closed, DESIGN_STEP_T_END, DESIGN_STEP_SAMPLES)
        m = step_metrics(traj, 1.0)
        metrics = asdict(m)
    except NotSettledError as exc:
        metrics_note = str(exc)

    return {
        "gains": {"kp": g.kp, "ki": g.ki},
        # the loop is no longer selectable; both keys stay so tune.json keeps its bytes
        "loop_config": {"include_modulator_gain": False, "include_sensor_gain": False},
        "selected_loop_margins": variants["plant_times_pi"],
        "loop_variants": variants,
        "closed_loop": {
            "poles": [[z.real, z.imag] for z in closed_poles],
            "dc_gain": closed_dc,
            "model_steady_state_error": 1.0 - closed_dc,
            "step_window_s": DESIGN_STEP_T_END,
            "step_metrics": metrics,
            "step_metrics_note": metrics_note,
        },
        "reference_comparison": _reference_comparison(g, bare),
        "converter_params": asdict(p),
    }
