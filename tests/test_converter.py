import dataclasses
import json
import math

import numpy as np
import pytest

from buckforge import (
    ConverterParams,
    ParameterError,
    load_params,
    mode_off_model,
    mode_on_model,
    params_from_dict,
    validate_params,
)


def test_nominal_params_accepted(nominal_params):
    assert validate_params(nominal_params) is nominal_params


@pytest.mark.parametrize(
    "field,value",
    [
        ("l", 0.0),
        ("c", 0.0),
        ("r_load", 0.0),
        ("fs", 0.0),
        ("vs", 0.0),
        ("vg", 0.0),
        ("vg", -5.0),
        ("r_l", -0.1),
        ("vo_target", 0.0),
        ("vref", 0.0),
        ("vref", -1.0),
        ("vs", 5.5e-323),
    ],
)
def test_rejections_name_the_field(nominal_params, field, value):
    with pytest.raises(ParameterError) as exc:
        dataclasses.replace(nominal_params, **{field: value})
    assert exc.value.field == field
    assert field in str(exc.value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ConverterParams)])
def test_non_finite_field_rejected(nominal_params, field, value):
    with pytest.raises(ParameterError) as exc:
        dataclasses.replace(nominal_params, **{field: value})
    assert exc.value.field == field
    assert f"{field} must be finite" in str(exc.value)


@pytest.mark.parametrize(
    "changes,field,term",
    [
        ({"l": 5e-324}, "l", "1/l"),
        ({"c": 5e-324}, "c", "1/c"),
        # r_load*c underflows to 0
        ({"r_load": 5e-324}, "r_load", "1/(r_load*c)"),
        # r_load*c is subnormal and its reciprocal overflows
        ({"r_load": 1e-300, "c": 1e-10}, "r_load", "1/(r_load*c)"),
        ({"r_l": 1e306}, "r_l", "r_l/l"),
        ({"vg": 1.7e308}, "vg", "vg/l"),
    ],
)
def test_non_finite_mode_model_rejected(nominal_params, changes, field, term):
    doc = dict(dataclasses.asdict(nominal_params), **changes)
    for build in (lambda: ConverterParams(**doc), lambda: params_from_dict(doc)):
        with pytest.raises(ParameterError) as exc:
            build()
        assert exc.value.field == field
        assert f"makes {term} overflow" in str(exc.value)


@pytest.mark.parametrize(
    "changes,field,message",
    [
        # vref/vo_target underflows to 0
        ({"vref": 5e-324}, "vref", "vref 5e-324 makes vo_target/vref overflow"),
        # vref/vo_target is subnormal, and the PWM gain factor vs/(vref/vo_target)
        # would overflow
        ({"vref": 1e-310}, "vref", "vref 1e-310 makes vo_target/vref overflow"),
        ({"vo_target": 5e-324}, "vo_target", "vo_target 5e-324 makes vref/vo_target overflow"),
        ({"vref": 1e300, "vo_target": 1e-10}, "vo_target", "makes vref/vo_target overflow"),
    ],
)
def test_sensor_gain_out_of_range_rejected(nominal_params, changes, field, message):
    doc = dict(dataclasses.asdict(nominal_params), **changes)
    for build in (lambda: ConverterParams(**doc), lambda: params_from_dict(doc)):
        with pytest.raises(ParameterError) as exc:
            build()
        assert exc.value.field == field
        assert message in str(exc.value)


def test_extreme_but_finite_mode_model_accepted(nominal_params):
    # every mode-model entry is finite, however far from the nominal design
    p = dataclasses.replace(nominal_params, vg=1e300, l=1e-3, r_load=1e-150, c=1e-150)
    m = mode_on_model(p)
    assert all(math.isfinite(x) for x in (*m.a[0], *m.a[1], p.vg * m.b[0]))


def test_step_up_target_rejected(nominal_params):
    bad = dataclasses.replace(nominal_params, vo_target=31.0)
    with pytest.raises(ParameterError) as exc:
        validate_params(bad)
    assert exc.value.field == "vo_target"


def test_mode_on_matrices_nominal(nominal_params):
    m = mode_on_model(nominal_params)
    # values as printed in the reference design, truncated displays
    printed_a = ((-800.0, -4000.0), (33.333, -3.333))
    for row, printed_row in zip(m.a, printed_a):
        for got, want in zip(row, printed_row):
            assert got == pytest.approx(want, rel=1e-3)
    assert m.b == pytest.approx((4000.0, 0.0))
    assert m.c == (0.0, 1.0)


def test_mode_on_first_principles(nominal_params):
    p = nominal_params
    m = mode_on_model(p)
    assert m.a[0][0] * p.l == pytest.approx(-p.r_l, rel=1e-12)
    assert m.a[0][1] * p.l == pytest.approx(-1.0, rel=1e-12)
    assert m.a[1][0] * p.c == pytest.approx(1.0, rel=1e-12)
    assert m.a[1][1] * p.r_load * p.c == pytest.approx(-1.0, rel=1e-12)
    assert m.b[0] * p.l == pytest.approx(1.0, rel=1e-12)


def test_zero_winding_resistance(nominal_params):
    m0 = mode_on_model(dataclasses.replace(nominal_params, r_l=0.0))
    m = mode_on_model(nominal_params)
    assert m0.a[0][0] == 0.0
    assert m0.a[0][1] == m.a[0][1]
    assert m0.a[1] == m.a[1]
    assert m0.b == m.b


def test_doubled_inductance_halves_first_row(nominal_params):
    m = mode_on_model(nominal_params)
    m2 = mode_on_model(dataclasses.replace(nominal_params, l=2 * nominal_params.l))
    assert m2.a[0][0] == m.a[0][0] / 2
    assert m2.a[0][1] == m.a[0][1] / 2
    assert m2.b[0] == m.b[0] / 2
    assert m2.a[1] == m.a[1]


def test_mode_off_shares_a_and_c(nominal_params):
    on = mode_on_model(nominal_params)
    off = mode_off_model(nominal_params)
    assert off.a == on.a
    assert off.c == on.c
    assert off.b == (0.0, 0.0)


def test_mode_matrices_strictly_stable():
    # Re(eigenvalue) < 0 iff trace < 0 and det > 0 for a 2x2; check both
    # the closed-form criterion and explicit roots on random valid params
    rng = np.random.default_rng(7)
    from buckforge import ConverterParams

    for _ in range(200):
        p = ConverterParams(
            vg=float(rng.uniform(1, 400)),
            vo_target=0.5,
            r_load=float(rng.uniform(0.1, 100)),
            r_l=float(rng.uniform(0, 5)),
            l=float(10 ** rng.uniform(-6, -1)),
            c=float(10 ** rng.uniform(-7, -1)),
            fs=1e4,
            vs=10.0,
            vref=1.0,
        )
        (a11, a12), (a21, a22) = mode_on_model(p).a
        trace = a11 + a22
        det = a11 * a22 - a12 * a21
        assert trace < 0.0 and det > 0.0
        roots = np.roots([1.0, -trace, det])
        assert (roots.real < 0.0).all()


NOMINAL_DOC = {
    "vg": 30.0,
    "vo_target": 15.0,
    "r_load": 10.0,
    "r_l": 0.2,
    "l": 250e-6,
    "c": 30e-3,
    "fs": 60e3,
    "vs": 10.0,
    "vref": 2.0,
}


def test_params_from_dict_roundtrip(nominal_params):
    assert params_from_dict(NOMINAL_DOC) == nominal_params


def test_unknown_field_rejected():
    doc = dict(NOMINAL_DOC, esr=0.01)
    with pytest.raises(ParameterError) as exc:
        params_from_dict(doc)
    assert exc.value.field == "esr"


def test_missing_field_rejected():
    doc = dict(NOMINAL_DOC)
    del doc["fs"]
    with pytest.raises(ParameterError) as exc:
        params_from_dict(doc)
    assert exc.value.field == "fs"


@pytest.mark.parametrize("value", ["10", True, None])
def test_non_numeric_field_rejected(value):
    doc = dict(NOMINAL_DOC, vs=value)
    with pytest.raises(ParameterError) as exc:
        params_from_dict(doc)
    assert exc.value.field == "vs"


def test_load_params(tmp_path, nominal_params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(NOMINAL_DOC))
    assert load_params(str(path)) == nominal_params


def test_load_params_rejects_non_object(tmp_path):
    path = tmp_path / "params.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParameterError):
        load_params(str(path))
