"""System parameters: raw radio constants, validation, and derived linear quantities.

All downstream modules consume :class:`LinearParams`, which is produced once by
:func:`validate` and is immutable, so it can be shared freely across workers.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact


class ParameterError(ValueError):
    """A system parameter violates its constraint; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class SystemParams:
    """Raw system parameters. SI units throughout; ``*_db`` fields in dB.

    Defaults reproduce the short-range/cellular uplink setup used by the
    bundled experiments: 2.4 GHz / 2 MHz short-range link, 2100 MHz / 5 MHz
    cellular link, 0 dB handset and 5 dB base-station antenna gains, 4 dB and
    2 dB capacity gaps.  The noise density defaults to thermal noise at 290 K
    (-174 dBm/Hz) and the fading power means to 1 (unit-mean Rayleigh).
    """

    f_s: float = 2.4e9        # short-range carrier frequency, Hz
    b_s: float = 2e6          # short-range bandwidth, Hz
    f_c: float = 2.1e9        # cellular carrier frequency, Hz
    b_c: float = 5e6          # cellular bandwidth, Hz
    g_u1_db: float = 0.0      # antenna gain of the first handset, dB
    g_u2_db: float = 0.0      # antenna gain of the second handset, dB
    g_bs_db: float = 5.0      # base-station antenna gain, dB
    gap_s_db: float = 4.0     # short-range capacity gap, dB (> 0)
    gap_c_db: float = 2.0     # cellular capacity gap, dB (> 0)
    n0: float = 10.0 ** -20.4  # noise power spectral density, W/Hz
    sigma2_short: float = 1.0  # mean of the short-range fading power gain
    sigma2_cell: float = 1.0   # mean of the cellular fading power gain
    rho: float = 1e-4         # handset density, units 1/m^2
    p_out_target: float = 1e-3  # end-to-end target outage probability
    rate: float = 1e5         # required data rate, bits/s


_RAW_FIELDS = frozenset(f.name for f in fields(SystemParams))


@dataclass(frozen=True, kw_only=True)
class LinearParams(SystemParams):
    """Validated parameters plus derived constants (wavelengths, linear gains).

    Immutable; safe to share across any number of concurrent workers.
    """

    lambda_s: float
    lambda_c: float
    g_u1: float
    g_u2: float
    g_bs: float
    delta_s: float
    delta_c: float


def db_to_linear(x_db: float) -> float:
    """Convert power dB to a linear factor, 10^(x/10)."""
    if not math.isfinite(x_db):
        raise ParameterError("db", f"dB value must be finite, got {x_db!r}")
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:  # above about 3082.5 dB; validate refuses it, naming the field
        return math.inf


def wavelength(freq: float) -> float:
    """Carrier wavelength in meters for a frequency in Hz."""
    if not (freq > 0):
        raise ParameterError("freq", f"frequency must be > 0, got {freq!r}")
    return SPEED_OF_LIGHT / freq


_POSITIVE_FIELDS = (
    "f_s", "b_s", "f_c", "b_c", "n0",
    "sigma2_short", "sigma2_cell", "rho", "rate",
)


def validate(raw: SystemParams) -> LinearParams:
    """Check every invariant of ``raw`` and compute the derived constants.

    Raises :class:`ParameterError` naming the first offending field.
    Idempotent: equal inputs always yield equal derived constants.
    """
    for f in fields(SystemParams):
        value = getattr(raw, f.name)
        # bool is an int subclass, but true is not a radio constant
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(f.name, f"must be a real number, got {value!r}")
    for name in _POSITIVE_FIELDS:
        value = getattr(raw, name)
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(name, f"must be finite and > 0, got {value!r}")
    if not (0.0 < raw.p_out_target < 1.0):
        raise ParameterError("p_out_target", f"must lie in (0, 1), got {raw.p_out_target!r}")
    for name in ("gap_s_db", "gap_c_db"):  # a gap exceeds 1 in linear scale: > 0 dB
        if not (math.isfinite(getattr(raw, name)) and getattr(raw, name) > 0):
            raise ParameterError(name, f"must be > 0 dB, got {getattr(raw, name)!r}")
    for name in ("g_u1_db", "g_u2_db", "g_bs_db"):
        if not math.isfinite(getattr(raw, name)):
            raise ParameterError(name, "must be finite")

    p = LinearParams(
        **{f.name: getattr(raw, f.name) for f in fields(SystemParams)},
        lambda_s=wavelength(raw.f_s),
        lambda_c=wavelength(raw.f_c),
        g_u1=db_to_linear(raw.g_u1_db),
        g_u2=db_to_linear(raw.g_u2_db),
        g_bs=db_to_linear(raw.g_bs_db),
        delta_s=db_to_linear(raw.gap_s_db),
        delta_c=db_to_linear(raw.gap_c_db),
    )
    # Link.coeff's factors must be normal: fading mean, squared wavelength, gain product, gap
    factors = [("sigma2_short", p.sigma2_short), ("sigma2_cell", p.sigma2_cell),
               ("f_s", p.lambda_s * p.lambda_s), ("f_c", p.lambda_c * p.lambda_c),
               ("gap_s_db", p.delta_s), ("gap_c_db", p.delta_c)]
    for x, y in (("g_u1_db", "g_u2_db"), ("g_u1_db", "g_bs_db"), ("g_u2_db", "g_bs_db")):
        factors.append((max(x, y, key=lambda n: abs(getattr(raw, n))),  # the larger |dB|
                        getattr(p, x[:-3]) * getattr(p, y[:-3])))
    for name, value in factors:
        if not sys.float_info.min <= value < math.inf:
            raise ParameterError(name, f"gives the link factor {value:.3g}, outside the "
                                       "normal floating-point range")
    return p


def load_config(path: str) -> dict:
    """Read a flat JSON config whose keys match :class:`SystemParams` fields.

    Returns the fields it sets, by name; the others keep their defaults.
    Unknown keys are rejected so typos do not silently fall back to defaults.
    """
    import json  # only a config file is JSON

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError("config", f"{path}: expected a flat JSON object")
    unknown = sorted(set(data) - _RAW_FIELDS)
    if unknown:
        raise ParameterError(unknown[0], f"unknown config key in {path}")
    return data
