"""Physical constants, unit conversions, and run-configuration parsing.

Everything downstream works in SI (meters, rad/s, joules); electron-volts
and micrometers appear only here, at the configuration boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


# 2019 SI exact values
C = 299792458.0
HBAR = 1.054571817e-34
E_CHARGE = 1.602176634e-19


def ev_to_angular(energy_ev: float) -> float:
    """Photon energy in eV to angular frequency in rad/s."""
    if energy_ev < 0:
        raise ValueError(f"energy must be non-negative, got {energy_ev} eV")
    return energy_ev * E_CHARGE / HBAR


def angular_to_ev(omega: float) -> float:
    """Angular frequency in rad/s to photon energy in eV."""
    if omega < 0:
        raise ValueError(f"angular frequency must be non-negative, got {omega}")
    return omega * HBAR / E_CHARGE


def cutoff_frequency(slab_width: float) -> float:
    """Lowest propagating angular frequency of the slab mode, c*pi / width.

    ``slab_width`` is the full gap between the mirrors, in meters.
    """
    if slab_width <= 0:
        raise ValueError(f"slab width must be positive, got {slab_width}")
    return C * math.pi / slab_width


class ConfigError(ValueError):
    """Base class for configuration failures."""


class ConfigParseError(ConfigError):
    """A line of the config file could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigValidationError(ConfigError):
    """A config value violates its constraint."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass(frozen=True)
class Config:
    """The medium of a run, in eV and um: resonance, plasma and damping
    frequency (as photon energies) and region length.  The defaults are the
    reference medium.  The frequency grid and the output path of a sweep
    are set on the command line, not here."""

    hbar_omega0_ev: float = 5.0
    hbar_omegap_ev: float = 0.2
    hbar_delta_ev: float = 1.25
    region_length_um: float = 19.7

    def __post_init__(self):
        for key in CONFIG_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ConfigValidationError(key, "must be finite")
            if getattr(self, key) <= 0:
                raise ConfigValidationError(key, "must be strictly positive")


CONFIG_KEYS = tuple(f.name for f in fields(Config))


def parse_config(text: str) -> Config:
    """Parse ``key = value`` lines; ``#`` starts a comment; blank lines ignored.

    Unknown or repeated keys and malformed lines raise
    :class:`ConfigParseError` with the line number; constraint violations
    raise :class:`ConfigValidationError` naming the key.
    """
    values: dict[str, float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(line_no, f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigParseError(line_no, f"unknown key {key!r}")
        if key in values:
            raise ConfigParseError(line_no, f"key {key!r} given twice")
        if not value:
            raise ConfigParseError(line_no, f"empty value for {key!r}")
        try:
            values[key] = float(value)
        except ValueError:
            raise ConfigParseError(line_no, f"cannot parse value {value!r} for {key!r}") from None
    return Config(**values)


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
