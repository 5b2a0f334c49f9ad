"""System parameters: raw radio constants, validation, and derived linear quantities.

All downstream modules consume :class:`LinearParams`, which is produced once by
:func:`validate` and is immutable, so it can be shared freely across workers.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace

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


@dataclass(frozen=True)
class LinearParams:
    """Validated parameters plus derived constants (wavelengths, linear gains).

    Immutable; safe to share across any number of concurrent workers.
    """

    f_s: float
    b_s: float
    f_c: float
    b_c: float
    g_u1_db: float
    g_u2_db: float
    g_bs_db: float
    gap_s_db: float
    gap_c_db: float
    n0: float
    sigma2_short: float
    sigma2_cell: float
    rho: float
    p_out_target: float
    rate: float
    # derived
    lambda_s: float
    lambda_c: float
    g_u1: float
    g_u2: float
    g_bs: float
    delta_s: float
    delta_c: float

    def replace_raw(self, **changes) -> "LinearParams":
        """Re-validate with some raw fields changed (derived fields recomputed)."""
        raw = SystemParams(**{f.name: getattr(self, f.name) for f in fields(SystemParams)})
        return validate(replace(raw, **changes))


def db_to_linear(x_db: float) -> float:
    """Convert power dB to a linear factor, 10^(x/10)."""
    if not math.isfinite(x_db):
        raise ParameterError("db", f"dB value must be finite, got {x_db!r}")
    return 10.0 ** (x_db / 10.0)


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
    # gaps must exceed 1 in linear scale, i.e. be strictly positive in dB
    if not (math.isfinite(raw.gap_s_db) and raw.gap_s_db > 0):
        raise ParameterError("gap_s_db", f"must be > 0 dB, got {raw.gap_s_db!r}")
    if not (math.isfinite(raw.gap_c_db) and raw.gap_c_db > 0):
        raise ParameterError("gap_c_db", f"must be > 0 dB, got {raw.gap_c_db!r}")
    for name in ("g_u1_db", "g_u2_db", "g_bs_db"):
        if not math.isfinite(getattr(raw, name)):
            raise ParameterError(name, "must be finite")

    return LinearParams(
        **{f.name: getattr(raw, f.name) for f in fields(SystemParams)},
        lambda_s=wavelength(raw.f_s),
        lambda_c=wavelength(raw.f_c),
        g_u1=db_to_linear(raw.g_u1_db),
        g_u2=db_to_linear(raw.g_u2_db),
        g_bs=db_to_linear(raw.g_bs_db),
        delta_s=db_to_linear(raw.gap_s_db),
        delta_c=db_to_linear(raw.gap_c_db),
    )


def load_config(path: str) -> SystemParams:
    """Read a flat JSON config whose keys match :class:`SystemParams` fields.

    Unknown keys are rejected so typos do not silently fall back to defaults.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError("config", f"{path}: expected a flat JSON object")
    known = {f.name for f in fields(SystemParams)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ParameterError(unknown[0], f"unknown config key in {path}")
    return SystemParams(**data)
