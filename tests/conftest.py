import pathlib

import pytest
from hypothesis import settings

from buckforge import ConverterParams, derive_plant

# a longer search for the properties marked oracle_property:
# pytest -m oracle_property --hypothesis-profile=ci
settings.register_profile("ci", max_examples=5000)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
NOMINAL_CONFIG = REPO_ROOT / "configs" / "buck_nominal.json"


@pytest.fixture
def nominal_params() -> ConverterParams:
    return ConverterParams(
        vg=30.0,
        vo_target=15.0,
        r_load=10.0,
        r_l=0.2,
        l=250e-6,
        c=30e-3,
        fs=60e3,
        vs=10.0,
        vref=2.0,
    )


@pytest.fixture
def nominal_plant(nominal_params):
    return derive_plant(nominal_params).plant


@pytest.fixture
def nominal_config_path() -> str:
    return str(NOMINAL_CONFIG)
