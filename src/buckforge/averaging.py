"""State-space averaging, equilibrium solving, and small-signal extraction.

The switched converter is replaced by the duty-weighted average of its two
mode models. The averaged system is solved for its DC operating point,
linearized about it with respect to duty perturbations, and reduced to the
duty-to-output transfer function. All 2x2 algebra is done in closed form
(adjugate over determinant) so coefficients are exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .converter import ConverterParams, StateSpaceModel, validate_params
from .converter import mode_off_model, mode_on_model
from .lti import TransferFunction, close_unity_loop
from .pi_design import PIGains, compensated_loop


class SingularModelError(ValueError):
    """The averaged state matrix is singular; no unique equilibrium."""

    def __init__(self, determinant: float):
        super().__init__(
            f"averaged state matrix is singular (determinant {determinant!r})"
        )
        self.determinant = determinant


@dataclass(frozen=True)
class OperatingPoint:
    """Steady state of the averaged model at a fixed duty and input voltage."""

    duty: float  # D in [0, 1]
    il: float    # equilibrium inductor current, A
    vc: float    # equilibrium capacitor voltage, V
    vg: float    # input voltage at which computed, V


@dataclass(frozen=True)
class SmallSignalModel:
    """Linearization of the averaged model about an operating point.

    ``b_d`` is the duty-perturbation input column
    (A_on - A_off) x0 + (B_on - B_off) vg at the operating point x0.
    """

    a: tuple[tuple[float, float], tuple[float, float]]
    b_d: tuple[float, float]
    c: tuple[float, float]


def _check_duty(d: float) -> None:
    if not (0.0 <= d <= 1.0):
        raise ValueError(f"duty cycle must lie in [0, 1], got {d!r}")


def averaged_model(
    on: StateSpaceModel, off: StateSpaceModel, d: float
) -> StateSpaceModel:
    """Duty-weighted average d*on + (1-d)*off of the mode models."""
    _check_duty(d)
    w = 1.0 - d
    a = tuple(
        tuple(d * x + w * y for x, y in zip(row_on, row_off))
        for row_on, row_off in zip(on.a, off.a)
    )
    b = tuple(d * x + w * y for x, y in zip(on.b, off.b))
    c = tuple(d * x + w * y for x, y in zip(on.c, off.c))
    return StateSpaceModel(a=a, b=b, c=c, state_labels=on.state_labels)


def equilibrium(
    on: StateSpaceModel, off: StateSpaceModel, d: float, vg: float
) -> OperatingPoint:
    """Solve the averaged model's steady state A x + B vg = 0 exactly.

    Direct 2x2 Cramer solve; raises SingularModelError with the
    determinant value if the averaged matrix has no inverse.
    """
    avg = averaged_model(on, off, d)
    (a11, a12), (a21, a22) = avg.a
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        raise SingularModelError(det)
    r1 = -avg.b[0] * vg
    r2 = -avg.b[1] * vg
    il = (r1 * a22 - r2 * a12) / det
    vc = (a11 * r2 - a21 * r1) / det
    return OperatingPoint(duty=d, il=il, vc=vc, vg=vg)


def full_duty_output(p: ConverterParams) -> float:
    """Averaged equilibrium output at duty 1: vg * R / (R + R_L)."""
    return p.vg * p.r_load / (p.r_load + p.r_l)


def solve_duty(p: ConverterParams) -> OperatingPoint:
    """Duty cycle that places the averaged output at vo_target.

    The equilibrium output is linear in D (vc = D * full_duty_output), so
    the duty follows from one division; the full operating point is then
    recovered from the averaged model.
    """
    validate_params(p)
    gain = full_duty_output(p)
    # vo_target > 0, so a zero gain or a zero duty comes only from float
    # underflow or overflow
    d = p.vo_target / gain if gain > 0.0 else math.inf
    if not (0.0 < d <= 1.0):
        raise ValueError(
            f"required duty {d!r} is outside (0, 1]; "
            f"vo_target {p.vo_target!r} is unreachable from vg {p.vg!r} "
            f"with winding resistance {p.r_l!r}"
        )
    return equilibrium(mode_on_model(p), mode_off_model(p), d, p.vg)


def small_signal_model(
    on: StateSpaceModel, off: StateSpaceModel, op: OperatingPoint
) -> SmallSignalModel:
    """Jacobian of the averaged dynamics with respect to state and duty."""
    avg = averaged_model(on, off, op.duty)
    x0 = (op.il, op.vc)
    b_d = tuple(
        (row_on[0] - row_off[0]) * x0[0]
        + (row_on[1] - row_off[1]) * x0[1]
        + (b_on - b_off) * op.vg
        for row_on, row_off, b_on, b_off in zip(on.a, off.a, on.b, off.b)
    )
    return SmallSignalModel(a=avg.a, b_d=b_d, c=avg.c)


def duty_to_output_tf(ssm: SmallSignalModel) -> TransferFunction:
    """C (sI - A)^-1 B for the 2-state case, in closed form.

    Denominator is s^2 - trace(A) s + det(A); the numerator comes from the
    adjugate row, so no numeric inversion is involved.
    """
    (a11, a12), (a21, a22) = ssm.a
    b1, b2 = ssm.b_d
    c1, c2 = ssm.c
    num1 = c1 * b1 + c2 * b2
    num0 = c1 * (a12 * b2 - a22 * b1) + c2 * (a21 * b1 - a11 * b2)
    den = (1.0, -(a11 + a22), a11 * a22 - a12 * a21)
    return TransferFunction((num1, num0), den)


@dataclass(frozen=True)
class PlantDerivation:
    """Full model chain from parameters to the duty-to-output plant."""

    mode_on: StateSpaceModel
    mode_off: StateSpaceModel
    operating_point: OperatingPoint
    small_signal: SmallSignalModel
    plant: TransferFunction


def line_to_output_tf(derivation: PlantDerivation, gains: PIGains) -> TransferFunction:
    """Averaged closed-loop line-to-output response Gvg/(1 + L), where
    L = compensated_loop(plant, gains) at duty-domain gains.

    Both modes share A and the OFF mode's input column is zero, so the
    averaged line column D*B_on is D/Vg times the duty column b_d = B_on*Vg,
    and Gvg = (D/Vg)*Gvd. With Gvd = N/Dp and the PI (kp*s + ki)/s this is
    (D/Vg)*N*s / (Dp*s + N*(kp*s + ki)): the closed loop's denominator, and
    so its order, 3.
    """
    op = derivation.operating_point
    scale = op.duty / op.vg
    num = tuple(c * scale for c in derivation.plant.num) + (0.0,)
    return TransferFunction(num, close_unity_loop(compensated_loop(derivation.plant, gains)).den)


def continuous_conduction(p: ConverterParams, op: OperatingPoint) -> tuple[float, bool]:
    """The ratio I_L/(delta_i_L/2) at an operating point, with the ripple
    delta_i_L = (vg - vc - I_L*r_l)*D/(L*fs), and whether the point is in
    continuous conduction mode (CCM), where the averaged model holds: the
    inductor current stays above zero, I_L > delta_i_L/2. The verdict is
    compared in product form, so that no L*fs is divided by; a point with no
    ripple has an infinite ratio."""
    swing = (op.vg - op.vc - op.il * p.r_l) * op.duty
    # at full duty there is no ripple, even where L*fs underflows to 0
    if swing <= 0.0:
        return math.inf, True
    return 2.0 * op.il * p.l * p.fs / swing, op.il * p.l * p.fs > 0.5 * swing


def _check_continuous_conduction(p: ConverterParams, op: OperatingPoint) -> None:
    """Refuse an operating point outside CCM (`continuous_conduction`), naming
    the boundary load: with x = 1/r_load, so that I_L = vo*x, the ratio is 1
    where vo*r_l^2*x^2 + b*x - (vg - vo) = 0, b = 2*L*fs*vg - r_l*(vg - 2*vo),
    and CCM holds for r_load below 1/x at its positive root."""
    ratio, in_ccm = continuous_conduction(p, op)
    if in_ccm:
        return
    detail = (
        f"I_L/(delta_i_L/2) is {ratio:.3f}, not above 1"
        if math.isfinite(ratio)
        else "I_L is not above delta_i_L/2"
    )
    vg, vo, r_l = p.vg, p.vo_target, p.r_l
    b = 2.0 * p.l * p.fs * vg - r_l * (vg - 2.0 * vo)
    root = math.sqrt(b * b + 4.0 * vo * r_l * r_l * (vg - vo))
    # 1/x = (b + root)/(2*(vg - vo)) stays finite at r_l = 0; for b < 0, b + root
    # comes without cancellation from (b + root)*(root - b) = 4*vo*r_l^2*(vg - vo)
    span = b + root if b >= 0.0 else 4.0 * vo * r_l * r_l * (vg - vo) / (root - b)
    boundary = (
        f"it needs r_load below {span / (2.0 * (vg - vo)):.6g} ohm"
        if vo < vg and span > 0.0
        else "no positive finite r_load is at its boundary"
    )
    raise ValueError(
        f"operating point is outside continuous conduction mode: {detail} ({boundary}); "
        "the averaged plant does not hold there (simulate models discontinuous conduction)"
    )


def derive_plant(p: ConverterParams) -> PlantDerivation:
    """Run the whole modeling chain for a parameter set.

    Raises ValueError when the operating point is not in continuous
    conduction mode, the region where the averaged model holds.
    """
    on = mode_on_model(p)
    off = mode_off_model(p)
    op = solve_duty(p)
    _check_continuous_conduction(p, op)
    ssm = small_signal_model(on, off, op)
    return PlantDerivation(
        mode_on=on,
        mode_off=off,
        operating_point=op,
        small_signal=ssm,
        plant=duty_to_output_tf(ssm),
    )
