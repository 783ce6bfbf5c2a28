"""Buck converter parameters and per-switching-mode linear models.

The converter is a two-state system: inductor current and capacitor
voltage. With the transistor ON the source drives the LC filter; with it
OFF the freewheel diode carries the inductor current and the source is
disconnected. Both modes share the same state matrix; only the input
vector differs. Switches are ideal and conduction is continuous.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields


class ParameterError(ValueError):
    """A converter parameter violates a physical constraint.

    ``field`` names the offending parameter.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ConverterParams:
    """Circuit constants plus regulation targets and PWM settings (all SI).

    Construction checks finite values, positive elements, a normal vs (so PWM
    thresholds vs/spp*k stay below vs), a finite mode model and finite
    vref/vo_target and vo_target/vref. A simulated source may sag below
    vo_target; validate_params adds that rule.
    """

    vg: float         # input voltage, V
    vo_target: float  # desired output voltage, V
    r_load: float     # load resistance, ohm
    r_l: float        # inductor series resistance, ohm
    l: float          # inductance, H
    c: float          # capacitance, F
    fs: float         # switching frequency, Hz
    vs: float         # PWM sawtooth peak, V
    vref: float       # controller reference voltage, V

    def __post_init__(self):
        for name in PARAM_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(name, f"{name} must be finite, got {value!r}")
        for name in ("vg", "r_load", "l", "c", "fs", "vs", "r_l", "vo_target", "vref"):
            value = getattr(self, name)
            sign = "non-negative" if name == "r_l" else "positive"
            if value < 0.0 or (value == 0.0 and sign == "positive"):
                raise ParameterError(name, f"{name} must be {sign}, got {value!r}")
        if self.vs < sys.float_info.min:
            raise ParameterError("vs", f"vs must be a normal float, got {self.vs!r}")
        # finite mode model (vg-scaled input column), sensor gain and its inverse
        rc = self.r_load * self.c
        for name, term, entry in (
            ("l", "1/l", 1.0 / self.l),
            ("c", "1/c", 1.0 / self.c),
            ("r_load", "1/(r_load*c)", 1.0 / rc if rc > 0.0 else math.inf),
            ("r_l", "r_l/l", self.r_l / self.l),
            ("vg", "vg/l", self.vg * (1.0 / self.l)),
            ("vo_target", "vref/vo_target", self.vref / self.vo_target),
            ("vref", "vo_target/vref", self.vo_target / self.vref),
        ):
            if not math.isfinite(entry):
                value = getattr(self, name)
                raise ParameterError(name, f"{name} {value!r} makes {term} overflow")


@dataclass(frozen=True)
class StateSpaceModel:
    """(A, B, C) of a 2-state, single-input, single-output linear system.

    State order is [inductor current (A), capacitor voltage (V)]; the
    input is the source voltage and the output is the capacitor voltage.
    """

    a: tuple[tuple[float, float], tuple[float, float]]
    b: tuple[float, float]
    c: tuple[float, float]
    state_labels: tuple[str, str] = ("inductor_current_a", "capacitor_voltage_v")


PARAM_FIELDS = tuple(f.name for f in fields(ConverterParams))


def validate_params(raw: ConverterParams) -> ConverterParams:
    """Refuse vo_target > vg, the design-time step-down rule; return raw unchanged."""
    if raw.vo_target > raw.vg:
        raise ParameterError(
            "vo_target",
            f"vo_target ({raw.vo_target!r}) exceeds vg ({raw.vg!r}); "
            "a buck stage can only step down",
        )
    return raw


def params_from_dict(doc: dict) -> ConverterParams:
    """Build validated params from a JSON-style mapping.

    The document must contain exactly the ConverterParams field names;
    unknown keys are rejected so typos in physical constants cannot pass
    silently.
    """
    unknown = sorted(set(doc) - set(PARAM_FIELDS))
    if unknown:
        raise ParameterError(unknown[0], f"unknown parameter field {unknown[0]!r}")
    missing = [name for name in PARAM_FIELDS if name not in doc]
    if missing:
        raise ParameterError(missing[0], f"missing parameter field {missing[0]!r}")
    values = {}
    for name in PARAM_FIELDS:
        value = doc[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(name, f"{name} must be a number, got {value!r}")
        try:
            values[name] = float(value)
        except OverflowError:
            raise ParameterError(name, f"{name} is beyond the float range") from None
    return validate_params(ConverterParams(**values))


def load_params(path: str) -> ConverterParams:
    """Read and validate a converter parameter JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ParameterError("document", "parameter file nests too deeply") from None
    if not isinstance(doc, dict):
        raise ParameterError("document", "parameter file must hold a JSON object")
    return params_from_dict(doc)


def default_sensor_gain(p: ConverterParams) -> float:
    """vref/vo_target, the sensing divider that makes vref command vo_target."""
    return p.vref / p.vo_target


def _shared_a(p: ConverterParams) -> tuple[tuple[float, float], tuple[float, float]]:
    return (
        (-p.r_l / p.l, -1.0 / p.l),
        (1.0 / p.c, -1.0 / (p.r_load * p.c)),
    )


def mode_on_model(p: ConverterParams) -> StateSpaceModel:
    """State-space model with the transistor conducting."""
    return StateSpaceModel(a=_shared_a(p), b=(1.0 / p.l, 0.0), c=(0.0, 1.0))


def mode_off_model(p: ConverterParams) -> StateSpaceModel:
    """State-space model with the transistor off (freewheel diode conducting).

    The source is disconnected, so the input vector is zero; A and C are
    shared with the ON mode.
    """
    return StateSpaceModel(a=_shared_a(p), b=(0.0, 0.0), c=(0.0, 1.0))

