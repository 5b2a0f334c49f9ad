"""System parameters: raw radio constants, validation, and derived linear quantities.

:class:`SystemParams` is the one parameter record: an immutable NamedTuple of
raw constants whose linear quantities (wavelengths, linear gains and gaps)
are read-only properties.  :func:`validate` checks a record and returns it
unchanged, so a validated record can be shared freely across workers.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import NamedTuple

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact


class ParameterError(ValueError):
    """A system parameter violates its constraint; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class SystemParams(NamedTuple):
    """System parameters. SI units throughout; ``*_db`` fields in dB.

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

    # linear quantities, derived on each read; validate checks they are usable
    lambda_s = property(lambda p: wavelength(p.f_s), doc="short-range wavelength, m")
    lambda_c = property(lambda p: wavelength(p.f_c), doc="cellular wavelength, m")
    g_u1 = property(lambda p: db_to_linear(p.g_u1_db), doc="first handset's gain, linear")
    g_u2 = property(lambda p: db_to_linear(p.g_u2_db), doc="second handset's gain, linear")
    g_bs = property(lambda p: db_to_linear(p.g_bs_db), doc="base-station gain, linear")
    delta_s = property(lambda p: db_to_linear(p.gap_s_db), doc="short-range gap, linear")
    delta_c = property(lambda p: db_to_linear(p.gap_c_db), doc="cellular gap, linear")


_RAW_FIELDS = frozenset(SystemParams._fields)


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


def validate(raw: SystemParams) -> SystemParams:
    """Check every invariant of ``raw``, its linear quantities included.

    Returns the record it checked, ``raw`` itself: the linear quantities are
    properties, so there is nothing to copy or derive.  Raises
    :class:`ParameterError` naming the first offending field.
    """
    for name, value in zip(SystemParams._fields, raw):
        # bool is an int subclass, but true is not a radio constant
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(name, f"must be a real number, got {value!r}")
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

    # Link.coeff's factors must be normal: fading mean, squared wavelength, gain product, gap
    def gain(x, y):  # a gain product is named by the gain of larger |dB|
        return (max(x, y, key=lambda n: abs(getattr(raw, n))),
                getattr(raw, x[:-3]) * getattr(raw, y[:-3]))

    links = (  # fading mean, gain product, carrier and wavelength of each link
        (("sigma2_short", raw.sigma2_short), gain("g_u1_db", "g_u2_db"), "f_s", raw.lambda_s),
        (("sigma2_cell", raw.sigma2_cell), gain("g_u1_db", "g_bs_db"), "f_c", raw.lambda_c),
        (("sigma2_cell", raw.sigma2_cell), gain("g_u2_db", "g_bs_db"), "f_c", raw.lambda_c))
    factors = [("sigma2_short", raw.sigma2_short), ("sigma2_cell", raw.sigma2_cell),
               ("f_s", raw.lambda_s * raw.lambda_s), ("f_c", raw.lambda_c * raw.lambda_c),
               ("gap_s_db", raw.delta_s), ("gap_c_db", raw.delta_c)]
    factors += [link[1] for link in links]
    for name, value in factors:
        if not sys.float_info.min <= value < math.inf:
            raise ParameterError(name, f"gives the link factor {value:.3g}, outside the "
                                       "normal floating-point range")
    # and so must each link's product, formed in Link.coeff's order; the
    # factor farthest from 1 in log scale is named
    for fade, gains, freq, lam in links:
        product = fade[1] * gains[1] * lam * lam
        if not sys.float_info.min <= product < math.inf:
            name = max(fade, gains, (freq, lam * lam), key=lambda f: abs(math.log(f[1])))[0]
            raise ParameterError(name, f"gives the link product {product:.3g}, outside the "
                                       "normal floating-point range")
    return raw


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
