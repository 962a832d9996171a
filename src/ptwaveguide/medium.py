"""Dispersive material model for the gain/loss bilayer.

A pumped (gain) and an unpumped (absorbing) section of the same atomic gas
fill adjacent regions of the waveguide; both follow a single-resonance
Lorentz permittivity with opposite sign of the resonant term.  A medium,
:class:`MediumParams`, is four numbers: resonance, plasma and damping
frequency and region length; the slab width follows from the resonance so
that the waveguide cutoff sits on it.  The module provides the exact
squared wavenumber of the guided mode, its near-cutoff first-order
truncation, and the effective Schrodinger parameters (complex potential and
auxiliary mass) that the truncation is equivalent to.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .quantities import C, HBAR, ConfigValidationError, cutoff_frequency, ev_to_angular

logger = logging.getLogger(__name__)

# The near-cutoff reduction assumes omega_p^2/delta << delta, omega_c.
# Above this ratio the truncation is dubious; we warn rather than refuse.
REGIME_WARN_LEVEL = 0.1
# The reduction is first order in the detuning from cutoff: the default sweep
# ends at this omega/omega_c, and a packet carrier above it is refused.
NEAR_CUTOFF_X_MAX = 1.10


class ParameterError(ValueError):
    """Physically inconsistent medium parameters."""


class RegionKind(Enum):
    """Medium sections; the enum value is the sign of the resonant term."""

    GAIN = -1
    ABSORBING = 1

    @property
    def sign(self) -> int:
        return self.value


@dataclass(frozen=True)
class MediumParams:
    """Medium and geometry parameters, all SI.

    ``slab_width`` = c*pi/omega0 and the cutoff ``omega_c`` computed from it
    are derived, so the cutoff coincides with the resonance, as the
    near-cutoff truncation implemented here requires;
    ``dataclasses.replace(params, omega0=...)`` retunes both.
    """

    omega0: float
    omega_p: float
    delta: float
    region_length: float
    slab_width: float = field(init=False)
    omega_c: float = field(init=False)

    def __post_init__(self):
        if not (self.omega0 > 0 and self.delta > 0 and self.region_length > 0):
            raise ParameterError("omega0, delta, region_length must be positive")
        if not self.omega_p >= 0:
            raise ParameterError("omega_p must be non-negative")
        object.__setattr__(self, "slab_width", C * math.pi / self.omega0)
        object.__setattr__(self, "omega_c", cutoff_frequency(self.slab_width))
        if self.regime_ratio > REGIME_WARN_LEVEL:
            logger.warning(
                "medium outside the weak-resonance regime: "
                "omega_p^2/delta^2 = %.3g, omega_p^2/(delta*omega_c) = %.3g",
                self.regime_ratio_damping, self.regime_ratio_cutoff)

    # Diagnostics for the small-parameter assumption omega_p^2/delta << delta, omega_c.
    @property
    def regime_ratio_damping(self) -> float:
        return (self.omega_p / self.delta) ** 2

    @property
    def regime_ratio_cutoff(self) -> float:
        return self.omega_p ** 2 / (self.delta * self.omega_c)

    @property
    def regime_ratio(self) -> float:
        return max(self.regime_ratio_damping, self.regime_ratio_cutoff)


def permittivity(kind: RegionKind, omega, params: MediumParams):
    """Single-resonance Lorentz relative permittivity.

    1 - sign * omega_p^2 / (omega^2 - omega0^2 + 2i*delta*omega); the pumped
    region enters with the opposite sign, flipping absorption into gain.
    ``omega`` may be an array.
    """
    if np.any(omega <= 0):
        raise ValueError(f"frequency must be positive, got {np.min(omega)}")
    denom = omega * omega - params.omega0 ** 2 + 2j * params.delta * omega
    return 1.0 - kind.sign * params.omega_p ** 2 / denom


def k_squared_exact(kind: RegionKind, omega, params: MediumParams):
    """Squared longitudinal wavenumber of the guided mode, dispersive model;
    ``omega`` may be an array."""
    eps = permittivity(kind, omega, params)
    return (omega * omega * eps - params.omega_c ** 2) / C ** 2


def k_squared_approx(kind: RegionKind, detuning, params: MediumParams):
    """First-order near-cutoff truncation of the squared wavenumber.

    2*omega_c*detuning/c^2 + i*sign*omega_c*omega_p^2/(2 c^2 delta); exact at
    zero detuning when the cutoff is tuned to the resonance.  Negative
    detunings are allowed for diagnostics; ``detuning`` may be an array.
    """
    re = 2.0 * params.omega_c * detuning / C ** 2
    im = kind.sign * params.omega_c * params.omega_p ** 2 / (2.0 * C ** 2 * params.delta)
    return re + complex(0.0, im)


def effective_potential(kind: RegionKind, params: MediumParams) -> complex:
    """Complex potential of the equivalent Schrodinger problem, in joules.

    Purely imaginary: +i|V| in the gain region (amplifying), -i|V| in the
    absorbing region.
    """
    return -1j * kind.sign * params.omega_p ** 2 * HBAR / (4.0 * params.delta)


def effective_mass(params: MediumParams) -> float:
    """Auxiliary mass of the equivalent Schrodinger problem: hbar*omega_c/c^2."""
    return HBAR * params.omega_c / C ** 2


def from_config(config) -> MediumParams:
    """The medium of a run configuration, in SI: the four numbers of
    :class:`quantities.Config` converted from eV and um.  The slab width is
    not configured: :class:`MediumParams` derives it from the resonance.

    A medium outside the floating-point range fails here, before any kernel
    runs, with a :class:`quantities.ConfigValidationError` naming its config
    keys: an SI value, a product of two frequencies, a regime ratio or the
    gain/loss wavenumber that is not finite and positive.  The kernels
    square in Python floats, whose ``**`` raises OverflowError where numpy
    gives inf, and a zero divisor raises ZeroDivisionError."""
    omega0, omega_p, delta = (ev_to_angular(value) for value in (
        config.hbar_omega0_ev, config.hbar_omegap_ev, config.hbar_delta_ev))
    region_length = config.region_length_um * 1e-6
    # in stages: each computes only with what the stages before it passed
    _require_in_range(("hbar_omega0_ev", "omega0", omega0),
                      ("hbar_omegap_ev", "omega_p", omega_p),
                      ("hbar_delta_ev", "delta", delta),
                      ("region_length_um", "region_length", region_length))
    # as MediumParams derives it
    omega_c = cutoff_frequency(C * math.pi / omega0)
    _require_in_range(("hbar_omega0_ev", "omega0^2", omega0 * omega0),
                      ("hbar_omega0_ev", "omega_c^2", omega_c * omega_c),
                      ("hbar_omegap_ev", "omega_p^2", omega_p * omega_p),
                      ("hbar_delta_ev, hbar_omega0_ev", "delta*omega_c", delta * omega_c))
    _require_in_range(("hbar_omegap_ev, hbar_delta_ev", "omega_p^2/delta^2",
                       (omega_p / delta) * (omega_p / delta)),
                      ("hbar_omegap_ev, hbar_delta_ev, hbar_omega0_ev",
                       "omega_p^2/(delta*omega_c)", omega_p * omega_p / (delta * omega_c)))
    params = MediumParams(omega0=omega0, omega_p=omega_p, delta=delta,
                          region_length=region_length)
    _require_in_range(("hbar_omegap_ev, hbar_delta_ev, hbar_omega0_ev",
                       "the reduced model's gain/loss k^2",
                       abs(k_squared_approx(RegionKind.ABSORBING, 0.0, params))))
    return params


def _require_in_range(*quantities: tuple[str, str, float]):
    """Reject the first (config keys, name, SI value) whose value is not
    finite and positive."""
    for keys, name, value in quantities:
        if not 0 < value < math.inf:
            raise ConfigValidationError(
                keys, f"{name} = {value:g} in SI units is outside the floating-point range")
