"""PI controller construction, loop assembly, and phase-margin tuning.

The integral gain is always taken as a given and only the proportional
gain is searched: a 1-D bracket-and-bisect on the phase margin of the
compensated loop. Because the margin is not monotone in kp at small
gains, the search keeps the sign-change bracket at the largest satisfying
kp, which favors the faster response among equal-margin designs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .converter import ConverterParams, default_sensor_gain
from .lti import (
    MarginReport,
    TransferFunction,
    close_unity_loop,
    dc_gain,
    phase_margin,
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


@dataclass(frozen=True)
class LoopConfig:
    """Optional fixed loop gains beyond plant and controller.

    The sawtooth comparator divides the control voltage by its peak, and a
    sensing divider scales the output before the error node; both toggles
    default to off so the bare plant-times-controller loop is analyzed.
    """

    include_modulator_gain: bool = False
    include_sensor_gain: bool = False


def pi_tf(g: PIGains) -> TransferFunction:
    """(kp*s + ki)/s; proportional-only gains keep the uncancelled s/s."""
    return TransferFunction((g.kp, g.ki), (1.0, 0.0))


def compensated_loop(
    plant: TransferFunction, g: PIGains, cfg: LoopConfig, p: ConverterParams
) -> TransferFunction:
    """Open loop plant * PI, scaled by 1/vs and vref/vo_target as `cfg` selects."""
    loop = series(plant, pi_tf(g))
    scale = 1.0
    if cfg.include_modulator_gain:
        scale /= p.vs
    if cfg.include_sensor_gain:
        scale *= default_sensor_gain(p)
    if scale == 1.0:
        return loop
    return TransferFunction(tuple(x * scale for x in loop.num), loop.den)


@dataclass(frozen=True)
class TuningTrace:
    """How `tune_kp_for_pm` reached its answer.

    `pm_grid[i]` is the phase margin at `kp_grid[i]` (None: |L| never
    reaches 1). `bracket` is the grid interval the bisection started from,
    None on an exact grid hit or when no interval brackets the target.
    `bisection` lists each midpoint as (kp, phase margin). `pm_evals`
    counts phase-margin evaluations; the final full margin report of the
    chosen kp is not one of them.
    """

    kp_grid: tuple[float, ...]
    pm_grid: tuple[float | None, ...]
    bracket: tuple[float, float] | None
    bisection: tuple[tuple[float, float | None], ...]
    pm_evals: int


@dataclass(frozen=True)
class TuningResult:
    gains: PIGains
    margins: MarginReport
    trace: TuningTrace | None = None


KP_BRACKET = (1e-6, 1e3)
KP_GRID_PER_DECADE = 10
# bisection stops once the phase margin is this close to the target
PM_TOLERANCE_DEG = 0.05


def tune_kp_for_pm(
    plant: TransferFunction,
    ki: float,
    target_pm: float,
    cfg: LoopConfig,
    p: ConverterParams,
) -> TuningResult:
    """Find kp whose compensated loop hits the phase-margin target.

    Scans a log grid over the kp bracket for a sign change of
    PM(kp) - target, preferring the change at the largest satisfying kp,
    then bisects to within PM_TOLERANCE_DEG. Raises TuningError with the
    observed margins when no bracket exists, and with the final bracket and
    its end margins when bisection stops at a jump of PM(kp); the result
    and the error carry a TuningTrace of the search. Raises ValueError when
    a loop's response is not finite on the margin window.
    """
    if not (0.0 < target_pm < 180.0):
        raise ValueError(f"target phase margin must be in (0, 180), got {target_pm!r}")
    if not (0.0 < ki < math.inf):
        raise ValueError(f"ki must be positive and finite for PI tuning, got {ki!r}")

    # kp scales only the numerator, so every loop shares one den(j*omega)
    unit_kp = compensated_loop(plant, PIGains(1.0, ki), cfg, p)
    den_resp = window_response(unit_kp.den, None)

    def pm_of(kp: float) -> float | None:
        loop = compensated_loop(plant, PIGains(kp, ki), cfg, p)
        return phase_margin(loop, window_response(loop.num, den_resp))

    def excess(pm: float | None) -> float:
        # no gain crossover: the loop never reaches unit magnitude
        return math.inf if pm is None else pm - target_pm

    lo, hi = KP_BRACKET
    n = int(round(math.log10(hi / lo) * KP_GRID_PER_DECADE)) + 1
    grid = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    pms = [pm_of(k) for k in grid]
    f = [excess(pm) for pm in pms]
    steps: list[tuple[float, float | None]] = []

    def trace(bracket: tuple[float, float] | None) -> TuningTrace:
        return TuningTrace(tuple(grid), tuple(pms), bracket, tuple(steps), n + len(steps))

    def reached(pm: float | None) -> str:
        return "no gain crossover" if pm is None else f"{pm!r} deg"

    def result(kp: float, bracket: tuple | None, jump: str) -> TuningResult:
        margins = stability_margins(compensated_loop(plant, PIGains(kp, ki), cfg, p))
        pm = margins.phase_margin_deg
        if pm is None or abs(pm - target_pm) > PM_TOLERANCE_DEG:
            # the bracket straddled a jump of PM(kp) or the margin window's edge
            raise TuningError(
                f"phase margin target {target_pm!r} deg not met: the search "
                f"ended at kp {kp!r} with {reached(pm)}{jump}",
                trace(bracket),
            )
        return TuningResult(PIGains(kp, ki), margins, trace(bracket))

    hit = next((i for i in reversed(range(n)) if f[i] == 0.0), None)
    if hit is not None:
        return result(grid[hit], None, "")

    bracket = None
    for i in reversed(range(n - 1)):
        if f[i] * f[i + 1] < 0.0:
            bracket = i
            if f[i] > 0.0:
                # falling edge: largest kp still satisfying the target
                break
    if bracket is None:
        finite = [x + target_pm for x in f if math.isfinite(x)]
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

    a, b = grid[bracket], grid[bracket + 1]
    pm_a, pm_b = pms[bracket], pms[bracket + 1]
    for _ in range(100):
        mid = math.sqrt(a * b)
        pm = pm_of(mid)
        steps.append((mid, pm))
        fm = excess(pm)
        if abs(fm) <= PM_TOLERANCE_DEG:
            a = b = mid
            break
        if excess(pm_a) * fm <= 0.0:
            b, pm_b = mid, pm
        else:
            a, pm_a = mid, pm
        if b - a <= 1e-12 * b:
            break
    jump = "" if a == b else (
        f"; PM(kp) jumps from {reached(pm_a)} at kp {a!r} to {reached(pm_b)} "
        f"at kp {b!r}, across the target"
    )
    return result(math.sqrt(a * b), (grid[bracket], grid[bracket + 1]), jump)


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


def design_report(
    plant: TransferFunction, g: PIGains, cfg: LoopConfig, p: ConverterParams
) -> dict:
    """Margins, closed-loop poles, and step metrics in one JSON-ready dict.

    Both loop-gain readings (bare plant*PI versus the variant with
    modulator and sensor gains) are reported side by side, since published
    margin figures for this plant are only reproducible under one of them.
    Step metrics are relative to the simulated window; the model-exact
    steady-state error comes from the closed-loop DC gain.
    """
    variant_configs = {
        "plant_times_pi": LoopConfig(),
        "with_modulator_and_sensor_gains": LoopConfig(True, True),
    }
    # one report per distinct loop: the selected config is often a variant
    margins = {
        c: stability_margins(compensated_loop(plant, g, c, p))
        for c in dict.fromkeys((cfg, *variant_configs.values()))
    }
    variants = {name: asdict(margins[c]) for name, c in variant_configs.items()}

    closed = close_unity_loop(compensated_loop(plant, g, cfg, p))
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
        "loop_config": asdict(cfg),
        "selected_loop_margins": asdict(margins[cfg]),
        "loop_variants": variants,
        "closed_loop": {
            "poles": [[z.real, z.imag] for z in closed_poles],
            "dc_gain": closed_dc,
            "model_steady_state_error": 1.0 - closed_dc,
            "step_window_s": DESIGN_STEP_T_END,
            "step_metrics": metrics,
            "step_metrics_note": metrics_note,
        },
        "reference_comparison": _reference_comparison(g, margins[LoopConfig()]),
        "converter_params": asdict(p),
    }
