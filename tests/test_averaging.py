import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from buckforge import (
    PIGains,
    StateSpaceModel,
    averaged_model,
    close_unity_loop,
    compensated_loop,
    continuous_conduction,
    derive_plant,
    duty_to_output_tf,
    equilibrium,
    line_to_output_tf,
    mode_off_model,
    mode_on_model,
    small_signal_model,
    solve_duty,
    step_response,
    tune_kp_for_pm,
)
from buckforge.averaging import SingularModelError
from buckforge.lti import dc_gain


@pytest.fixture
def modes(nominal_params):
    return mode_on_model(nominal_params), mode_off_model(nominal_params)


def test_averaged_shares_a_and_weights_b(modes):
    on, off = modes
    for d in (0.2, 0.51, 0.9):
        avg = averaged_model(on, off, d)
        for row, row_on in zip(avg.a, on.a):
            for got, want in zip(row, row_on):
                assert got == pytest.approx(want, rel=1e-14)
        assert avg.b[0] == pytest.approx(4000.0 * d, rel=1e-12)
        assert avg.b[1] == 0.0


def test_weight_collapse(modes):
    on, off = modes
    assert averaged_model(on, off, 1.0) == on
    assert averaged_model(on, off, 0.0) == off


def test_duty_out_of_range(modes):
    on, off = modes
    with pytest.raises(ValueError):
        averaged_model(on, off, 1.5)


def test_averaged_model_affine_in_duty(modes):
    on, off = modes
    d1, d2 = 0.2, 0.7
    a = averaged_model(on, off, d1)
    b = averaged_model(on, off, d2)
    mid = averaged_model(on, off, (d1 + d2) / 2)
    for i in range(2):
        for j in range(2):
            resid = a.a[i][j] + b.a[i][j] - 2 * mid.a[i][j]
            assert abs(resid) <= 1e-12 * max(1.0, abs(a.a[i][j]))
        resid = a.b[i] + b.b[i] - 2 * mid.b[i]
        assert abs(resid) <= 1e-12 * max(1.0, abs(a.b[i]))


def test_equilibrium_nominal_duty(modes):
    on, off = modes
    op = equilibrium(on, off, 0.51, 30.0)
    assert 1.49 <= op.il <= 1.53
    assert op.vc == pytest.approx(15.0, abs=0.01)


def test_equilibrium_zero_duty(modes):
    on, off = modes
    op = equilibrium(on, off, 0.0, 30.0)
    assert op.il == 0.0
    assert op.vc == 0.0


def test_equilibrium_quarter_duty_exact_rational(modes):
    # Cramer solve of the same 2x2 system in exact rational arithmetic
    on, off = modes
    a11, a12 = Fraction(-800), Fraction(-4000)
    a21, a22 = 1 / Fraction(30, 1000), -1 / Fraction(300, 1000)
    d = Fraction(1, 4)
    b1 = Fraction(4000) * 30 * d
    det = a11 * a22 - a12 * a21
    il_exact = (-b1 * a22) / det
    vc_exact = (a21 * b1) / det
    assert vc_exact == Fraction(125, 17)

    op = equilibrium(on, off, 0.25, 30.0)
    assert op.il == pytest.approx(float(il_exact), rel=1e-12)
    assert op.vc == pytest.approx(float(vc_exact), rel=1e-12)


def test_singular_matrix_reported():
    zero = StateSpaceModel(
        a=((0.0, 0.0), (0.0, 0.0)), b=(1.0, 0.0), c=(0.0, 1.0)
    )
    with pytest.raises(SingularModelError) as exc:
        equilibrium(zero, zero, 0.5, 30.0)
    assert exc.value.determinant == 0.0


def test_solve_duty_nominal(nominal_params):
    op = solve_duty(nominal_params)
    assert op.duty == pytest.approx(0.51, abs=1e-9)
    assert op.il == pytest.approx(1.5, rel=1e-9)
    assert op.vc == pytest.approx(15.0, rel=1e-9)


def test_solve_duty_lossless_half(nominal_params):
    p = dataclasses.replace(nominal_params, r_l=0.0)
    assert solve_duty(p).duty == 0.5


def test_solve_duty_unreachable(nominal_params):
    p = dataclasses.replace(nominal_params, vo_target=30.0)
    with pytest.raises(ValueError, match="outside"):
        solve_duty(p)


@pytest.mark.parametrize("changes,duty", [
    # vg*r_load/(r_load+r_l) underflows to 0
    ({"vg": 3e-149, "vo_target": 1e-150, "r_l": 1e300}, "inf"),
    # vg*r_load overflows, so vo_target/gain reads 0
    ({"vg": 1e300, "r_load": 1e10}, "0.0"),
])
def test_solve_duty_out_of_float_range(nominal_params, changes, duty):
    p = dataclasses.replace(nominal_params, **changes)
    with pytest.raises(ValueError, match=rf"required duty {duty} is outside \(0, 1\]"):
        solve_duty(p)


def test_small_signal_input_column(modes, nominal_params):
    on, off = modes
    op = solve_duty(nominal_params)
    ssm = small_signal_model(on, off, op)
    assert ssm.b_d == (120000.0, 0.0)
    assert ssm.a == on.a
    assert ssm.c == (0.0, 1.0)


def test_small_signal_no_switching_effect(modes):
    on, _ = modes
    op = equilibrium(on, on, 0.4, 30.0)
    ssm = small_signal_model(on, on, op)
    assert ssm.b_d == (0.0, 0.0)


def test_small_signal_linear_in_vg(modes):
    on, off = modes
    op = equilibrium(on, off, 0.51, 15.0)
    ssm = small_signal_model(on, off, op)
    assert ssm.b_d == (60000.0, 0.0)


def test_small_signal_rejects_duty_outside_unit_interval(modes):
    on, off = modes
    op = dataclasses.replace(equilibrium(on, off, 0.5, 30.0), duty=1.5)
    with pytest.raises(ValueError, match="duty"):
        small_signal_model(on, off, op)


def test_duty_to_output_nominal(nominal_params):
    tf = derive_plant(nominal_params).plant
    assert len(tf.num) == 1
    assert tf.num[0] == pytest.approx(3_999_960.0, rel=1e-3)
    assert tf.den[0] == 1.0
    assert tf.den[1] == pytest.approx(803.333, rel=1e-3)
    assert tf.den[2] == pytest.approx(135_998.4, rel=1e-3)
    # against the exact formula det(A) = r_l/(l*r_load*c) + 1/(l*c)
    p = nominal_params
    det = p.r_l / (p.l * p.r_load * p.c) + 1.0 / (p.l * p.c)
    assert tf.den[2] == pytest.approx(det, rel=1e-12)


def test_zero_input_column_gives_zero_tf(modes):
    on, _ = modes
    op = equilibrium(on, on, 0.4, 30.0)
    tf = duty_to_output_tf(small_signal_model(on, on, op))
    assert tf.num == (0.0,)


@pytest.mark.parametrize("changes,refused", [
    # the boundary I_L = delta_i_L/2 lies near 60 ohm on the nominal config
    ({"r_load": 59.0}, None),
    ({"r_load": 61.0}, "I_L/(delta_i_L/2) is 0.984, not above 1"),
    # full duty has no ripple, though L*fs underflows to 0
    ({"vo_target": 30.0, "r_l": 0.0, "fs": 5e-324}, None),
    # one ulp below full duty the ripple is real, and L*fs still 0
    ({"vo_target": 29.41176470588235, "fs": 5e-324},
     "I_L/(delta_i_L/2) is 0.000, not above 1"),
    ({"r_load": 100.0}, "(it needs r_load below 60.0007 ohm)"),
    # with no winding resistance the boundary is 2*L*fs*vg/(vg - vo)
    ({"r_load": 100.0, "r_l": 0.0}, "(it needs r_load below 60 ohm)"),
    ({"r_load": 100.0, "vg": 48.0, "l": 100e-6}, "(it needs r_load below 17.3465 ohm)"),
    # b = 2*L*fs*vg - r_l*(vg - 2*vo) is negative here
    ({"r_load": 1.0, "vo_target": 5.0, "r_l": 1.0, "l": 1e-6, "fs": 1e3},
     "(it needs r_load below 0.200401 ohm)"),
    # L*fs underflows to 0 and r_l is 0: no load has a ratio of 1
    ({"r_l": 0.0, "fs": 5e-324}, "(no positive finite r_load is at its boundary)"),
])
def test_derive_plant_refuses_a_point_outside_ccm(nominal_params, changes, refused):
    p = dataclasses.replace(nominal_params, **changes)
    if refused is None:
        derive_plant(p)
    else:
        with pytest.raises(ValueError, match=re.escape(refused)):
            derive_plant(p)
    named = re.search(r"r_load below (\S+) ohm", refused or "")
    if named:
        # a load 0.1 % on either side of the named one lands on either side of the rule
        load = float(named.group(1))
        derive_plant(dataclasses.replace(p, r_load=load * 0.999))
        with pytest.raises(ValueError, match="outside continuous conduction mode"):
            derive_plant(dataclasses.replace(p, r_load=load * 1.001))


@pytest.mark.parametrize("changes,ratio,in_ccm", [
    ({}, 6.002, True),
    ({"r_load": 100.0}, 0.600, False),
    # full duty has no ripple
    ({"vo_target": 30.0, "r_l": 0.0}, math.inf, True),
])
def test_continuous_conduction_ratio(nominal_params, changes, ratio, in_ccm):
    p = dataclasses.replace(nominal_params, **changes)
    op = solve_duty(p)
    got, verdict = continuous_conduction(p, op)
    assert verdict is in_ccm
    assert got == pytest.approx(ratio, abs=5e-4)
    if math.isfinite(got):
        ripple = (op.vg - op.vc - op.il * p.r_l) * op.duty / (p.l * p.fs)
        assert got == pytest.approx(op.il / (ripple / 2.0), rel=1e-12)


def test_dc_gain_matches_equilibrium_slope(nominal_params):
    p = nominal_params
    tf = derive_plant(p).plant
    slope = p.vg * p.r_load / (p.r_load + p.r_l)
    assert dc_gain(tf) == pytest.approx(slope, rel=1e-9)


def test_equilibrium_residual(modes, nominal_params):
    on, off = modes
    op = solve_duty(nominal_params)
    avg = averaged_model(on, off, op.duty)
    r1 = avg.a[0][0] * op.il + avg.a[0][1] * op.vc + avg.b[0] * op.vg
    r2 = avg.a[1][0] * op.il + avg.a[1][1] * op.vc + avg.b[1] * op.vg
    norm_x = math.hypot(op.il, op.vc)
    assert math.hypot(r1, r2) < 1e-9 * norm_x


def test_loss_aware_volt_second_balance(modes, nominal_params):
    on, off = modes
    p = nominal_params
    for d in (0.1, 0.51, 0.9):
        op = equilibrium(on, off, d, p.vg)
        expect = d * p.vg * p.r_load / (p.r_load + p.r_l)
        assert op.vc == pytest.approx(expect, rel=1e-12)
    # with no winding loss this is the ideal conversion ratio exactly
    lossless = dataclasses.replace(p, r_l=0.0)
    on0, off0 = mode_on_model(lossless), mode_off_model(lossless)
    op = equilibrium(on0, off0, 0.4, 30.0)
    assert op.vc == pytest.approx(0.4 * 30.0, rel=1e-12)


@pytest.mark.parametrize("tuned", [False, True], ids=["kp0.23_ki1", "pm50_ki1"])
def test_line_to_output_tf(nominal_params, tuned):
    derivation = derive_plant(nominal_params)
    plant = derivation.plant
    gains = tune_kp_for_pm(plant, 1.0, 50.0).gains if tuned else PIGains(0.23, 1.0)
    line = line_to_output_tf(derivation, gains)
    assert line.den == close_unity_loop(compensated_loop(plant, gains)).den
    assert len(line.den) == 4

    # the averaged model's own line column B = D*B_on + (1 - D)*B_off through
    # C adj(sI - A) B, times s
    d = derivation.operating_point.duty
    on, off = derivation.mode_on, derivation.mode_off

    def avg(x, y):
        return d * x + (1.0 - d) * y

    (a11, a12), (a21, a22) = (map(avg, r_on, r_off) for r_on, r_off in zip(on.a, off.a))
    b1, b2 = map(avg, on.b, off.b)
    c1, c2 = map(avg, on.c, off.c)
    s1 = c1 * b1 + c2 * b2
    s0 = c1 * (a12 * b2 - a22 * b1) + c2 * (a21 * b1 - a11 * b2)
    assert s1 == 0.0
    assert line.num == pytest.approx((s0, 0.0), rel=1e-14)

    # the integrator rejects a line step
    assert dc_gain(line) == 0.0
    response = step_response(line, 0.05, 2001).values
    assert response[0] == 0.0 and np.isfinite(response).all()
