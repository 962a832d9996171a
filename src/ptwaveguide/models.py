"""The two concrete scattering models and the frequency sweep.

Exact: dispersive Maxwell wavenumbers of the guided mode.
Approximate: first-order near-cutoff truncation, equivalent to a stationary
Schrodinger problem at energy hbar*detuning with the purely imaginary
gain/loss potential.

Both reduce to the same two-layer stack geometry: gain over (-l, 0),
absorber over (0, l), vacuum outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .helmholtz import amplitude_arrays, flux_sums
from .medium import MediumParams, RegionKind, k_squared_approx, k_squared_exact
from .quantities import C

STATUS_OK = "ok"
STATUS_SINGULAR = "singular"
STATUS_NONFINITE = "nonfinite"
STATUSES = (STATUS_OK, STATUS_SINGULAR, STATUS_NONFINITE)

# Largest sweep grid.  `sweep --check` of both models peaks at ~365 bytes
# of RSS a point (45.2-45.3 MiB at 40,000 points, 170.5 MiB at 400,000),
# so the cap is ~1.5 GB; a grid over it is rejected before any array is
# allocated.
MAX_SWEEP_POINTS = 4_000_000


class BelowCutoffError(ValueError):
    """No propagating exterior solution at or below the cutoff."""


class ModelKind(Enum):
    EXACT = "exact"
    APPROXIMATE = "approx"


def exact_bilayer(params: MediumParams, omega):
    """Exterior wavenumber and the (k^2, thickness) pairs of the gain and
    absorber layers, dispersive model; ``omega`` may be an array."""
    # scalars become 0-d arrays, so a single frequency goes through the same
    # arithmetic as a whole grid
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= params.omega_c):
        raise BelowCutoffError(
            f"omega = {np.min(omega):.6e} is not above the cutoff {params.omega_c:.6e}")
    k_outer = np.sqrt(omega * omega - params.omega_c ** 2) / C
    return k_outer, _bilayer(params, k_squared_exact, omega)


def approx_bilayer(params: MediumParams, detuning):
    """As :func:`exact_bilayer` with the truncated wavenumbers at the given
    detuning above cutoff.

    Identical to the stationary Schrodinger problem at energy E = hbar*detuning
    with mass hbar*omega_c/c^2 and the piecewise-imaginary potential:
    2m(E - V)/hbar^2 reproduces the truncated k^2 exactly.
    """
    detuning = np.asarray(detuning, dtype=float)
    if np.any(detuning <= 0):
        raise BelowCutoffError(f"detuning = {np.min(detuning):.6e} must be positive")
    k_outer = np.sqrt(2.0 * params.omega_c * detuning) / C
    return k_outer, _bilayer(params, k_squared_approx, detuning)


def _bilayer(params: MediumParams, k_squared, x):
    l = params.region_length
    return ((k_squared(RegionKind.GAIN, x, params), l),
            (k_squared(RegionKind.ABSORBING, x, params), l))


def bilayer(model: ModelKind, params: MediumParams, omega):
    if model is ModelKind.EXACT:
        return exact_bilayer(params, omega)
    return approx_bilayer(params, omega - params.omega_c)


def pt_defect(params: MediumParams, omega):
    """Deviation of the dispersive profile from k^2(-z) = conj(k^2(z)),
    dimensionless.

    |k^2(gain) - conj(k^2(absorbing))| of the exact model, the maximum over
    mirrored position pairs, scaled by the gain/loss wavenumber magnitude at
    cutoff (the strength of the non-Hermitian term, a frequency-independent
    yardstick).  Zero at omega = omega_c = omega0, where the resonance makes
    the two regions exact complex conjugates, and growing with detuning; the
    approximate profile is mirror-conjugate by construction.  ``omega`` may
    be an array.
    """
    if np.any(omega < params.omega_c):
        raise BelowCutoffError(
            f"omega = {np.min(omega):.6e} is below the cutoff {params.omega_c:.6e}")
    scale = abs(k_squared_approx(RegionKind.ABSORBING, 0.0, params))
    if scale == 0.0:
        return 0.0
    g = k_squared_exact(RegionKind.GAIN, omega, params)
    a = k_squared_exact(RegionKind.ABSORBING, omega, params)
    return abs(g - a.conjugate()) / scale


@dataclass(frozen=True)
class ModelColumns:
    """One model's scattering over a frequency grid, one entry per frequency.

    ``t`` is t_left = t_right = 1/m22, and ``t_mirrored`` is t of the
    mirrored stack, which reciprocity makes equal to it.  ``status`` is
    ``singular`` where m22 = 0, ``nonfinite`` where any of t, r_left,
    r_right, s_left or s_right is not finite, else ``ok``; the numbers of
    other rows are meaningless.
    """

    t: np.ndarray
    r_left: np.ndarray
    r_right: np.ndarray
    s_left: np.ndarray
    s_right: np.ndarray
    status: np.ndarray
    t_mirrored: np.ndarray

    @classmethod
    def from_amplitudes(cls, t, r_left, r_right, singular, t_mirrored) -> "ModelColumns":
        """Columns of :func:`helmholtz.amplitude_arrays`' output."""
        s_left, s_right = flux_sums(t, r_left, r_right)
        finite = (np.isfinite(t) & np.isfinite(r_left) & np.isfinite(r_right)
                  & np.isfinite(s_left) & np.isfinite(s_right))
        status = np.where(singular, STATUS_SINGULAR,
                          np.where(finite, STATUS_OK, STATUS_NONFINITE))
        return cls(t, r_left, r_right, s_left, s_right, status, t_mirrored)


@dataclass(frozen=True)
class SweepTable:
    """Scattering of each requested model over the omega/omega_c grid."""

    omega_over_omegac: np.ndarray
    models: Mapping[ModelKind, ModelColumns]

    def status_counts(self) -> dict[str, int]:
        """Rows of each status, counted over frequencies and models."""
        return {status: sum(int(np.count_nonzero(col.status == status))
                            for col in self.models.values()) for status in STATUSES}


def sweep_grid(start: float, stop: float, n: int) -> np.ndarray:
    """n uniformly spaced omega/omega_c values, endpoints included.

    The one check of a sweep range: 1 < start < stop < inf (exterior waves
    propagate only above cutoff) and 2 <= n <= :data:`MAX_SWEEP_POINTS`.
    """
    if not (1.0 < start < stop < np.inf):
        raise ValueError(f"need 1 < start < stop < inf, got start={start}, stop={stop}")
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if n > MAX_SWEEP_POINTS:
        raise ValueError(f"need at most {MAX_SWEEP_POINTS} points, got {n}")
    step = (stop - start) / (n - 1)
    return start + np.arange(n) * step


def evaluate_row(params: MediumParams, omega_over_omegac,
                 models: Sequence[ModelKind]) -> SweepTable:
    """Sweep table of the requested models at one omega/omega_c, or at each
    of a sequence of them; one kernel call per model, on the calling
    thread."""
    x = np.array(omega_over_omegac, dtype=float, ndmin=1)
    return SweepTable(x, {model: ModelColumns.from_amplitudes(
        *amplitude_arrays(*bilayer(model, params, x * params.omega_c))) for model in models})


def sweep(params: MediumParams, start: float, stop: float, n: int,
          models: Sequence[ModelKind] = (ModelKind.EXACT, ModelKind.APPROXIMATE)) -> SweepTable:
    """:func:`evaluate_row` over :func:`sweep_grid`, rows in ascending
    frequency order."""
    return evaluate_row(params, sweep_grid(start, stop, n), models)
