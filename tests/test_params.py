import json
from dataclasses import fields

import numpy as np
import pytest

from nncc import (
    SPEED_OF_LIGHT,
    ParameterError,
    SystemParams,
    db_to_linear,
    load_config,
    validate,
    wavelength,
)


def test_db_to_linear_identity():
    assert db_to_linear(0.0) == 1.0


def test_db_to_linear_values():
    assert db_to_linear(5.0) == pytest.approx(3.16228, abs=1e-5)
    assert db_to_linear(4.0) == pytest.approx(2.51189, abs=1e-5)
    # high-precision references
    assert db_to_linear(5.0) == pytest.approx(3.162277660168379, rel=1e-14)
    assert db_to_linear(4.0) == pytest.approx(2.511886431509580, rel=1e-14)


def test_db_to_linear_rejects_non_finite():
    with pytest.raises(ParameterError):
        db_to_linear(float("nan"))
    with pytest.raises(ParameterError):
        db_to_linear(float("inf"))


def test_db_round_trip():
    for a in np.linspace(-40.0, 40.0, 33):
        assert db_to_linear(a) * db_to_linear(-a) == pytest.approx(1.0, rel=1e-12)


def test_wavelength_values():
    assert wavelength(2.4e9) == pytest.approx(0.12491352416666667, rel=1e-14)
    assert wavelength(2.1e9) == pytest.approx(0.14275831333333333, rel=1e-14)
    assert wavelength(SPEED_OF_LIGHT) == 1.0


def test_wavelength_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(ParameterError):
            wavelength(bad)


def test_validate_accepts_default_set():
    lin = validate(SystemParams())
    assert lin.lambda_s == pytest.approx(0.12491352416666667, rel=1e-14)
    assert lin.lambda_c == pytest.approx(0.14275831333333333, rel=1e-14)
    assert lin.g_bs == pytest.approx(3.162277660168379, rel=1e-14)
    assert lin.delta_s == pytest.approx(2.511886431509580, rel=1e-14)
    assert lin.delta_c == pytest.approx(1.584893192461113, rel=1e-14)
    assert lin.g_u1 == 1.0 and lin.g_u2 == 1.0


@pytest.mark.parametrize("field,value", [
    ("p_out_target", 0.0),
    ("p_out_target", 1.0),
    ("rho", -1.0),
    ("rho", 0.0),
    ("f_s", -2.4e9),
    ("b_c", 0.0),
    ("n0", 0.0),
    ("rate", -1e5),
    ("sigma2_short", 0.0),
    ("gap_s_db", 0.0),
    ("gap_c_db", -2.0),
] + [(f.name, value) for f in fields(SystemParams) for value in (True, "5", 1j)])
def test_validate_rejects_and_names_field(field, value):
    raw = SystemParams(**{field: value})
    with pytest.raises(ParameterError) as err:
        validate(raw)
    assert field in str(err.value)
    assert err.value.field == field


def test_validate_accepts_any_real_number_type():
    lin = validate(SystemParams(rho=np.float64(1e-4), rate=100_000, g_bs_db=np.int64(5)))
    assert lin == validate(SystemParams())


def test_validate_idempotent():
    raw = SystemParams()
    assert validate(raw) == validate(raw)


def test_gaps_exceed_one_in_linear_scale():
    lin = validate(SystemParams())
    assert lin.delta_s > 1.0 and lin.delta_c > 1.0


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"rate": 1e6, "rho": 2e-4}))
    raw = load_config(str(path))
    assert raw.rate == 1e6 and raw.rho == 2e-4
    assert raw.f_s == SystemParams().f_s  # untouched fields keep defaults


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"bandwidth": 1.0}))
    with pytest.raises(ParameterError) as err:
        load_config(str(path))
    assert "bandwidth" in str(err.value)


def test_replace_raw_revalidates(params):
    other = params.replace_raw(rate=1e6)
    assert other.rate == 1e6
    assert other.lambda_s == params.lambda_s
    with pytest.raises(ParameterError):
        params.replace_raw(rho=-1.0)
