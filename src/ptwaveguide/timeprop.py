"""Time-dependent propagation under the effective Schrodinger equation.

i*hbar dpsi/dt = -(hbar^2/2m) d^2psi/dz^2 + V(z) psi, with the piecewise
imaginary gain/loss potential and the auxiliary mass from :mod:`medium`.
Crank-Nicolson stepping on a uniform grid with hard-wall boundaries: the
implicit midpoint rule handles the non-Hermitian potential stably and is
exactly norm-preserving in the Hermitian limit.  Wavepacket scattering runs
validate the correspondence with the stationary amplitudes.

One step loop, :func:`_march`, checks dt, builds the operators and LU-factors
the constant tridiagonal LHS once (LAPACK zgttrf), then yields the field
after each step; a step is one zgttrs solve.  :func:`propagate` keeps every
k-th state from it; :func:`scatter_packet` checks the walls and keeps its
snapshots.

Caution: for strong pumping the gain section can exceed its amplification
threshold (the bilayer then hosts exponentially growing modes, seeded by
roundoff within ~2 ps at the reference parameters).  Runs must finish
inside the stable window; :func:`plan_packet_run` encodes a validated
recipe.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .helmholtz import SpectralSingularityError, amplitude_arrays
from .medium import MediumParams, RegionKind, effective_mass, effective_potential
from .models import approx_bilayer
from .quantities import HBAR

logger = logging.getLogger(__name__)

# Accuracy guard for a single step: the potential phase per step stays small.
POTENTIAL_PHASE_GUARD = 0.1

# Default contamination thresholds (amplitude relative to the global peak).
# Validated against the reference medium: subcritical ring-down radiation and
# dispersive grid precursors set a floor near 1e-9; packets that actually
# touch a wall blow through 1e-6 within a few hundred steps.
BOUNDARY_TOL = 1e-6
INTERIOR_TOL = 0.75


class PlacementError(ValueError):
    """Initial packet overlaps the medium or a grid boundary."""


class BoundaryContaminationError(RuntimeError):
    """Field reached a hard wall: results would include wall reflections."""


class IncompleteScatterError(RuntimeError):
    """Field still inside the medium at t_final."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on [z_min, z_max] with the time step used on it."""

    z_min: float
    z_max: float
    n_points: int
    dt: float

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("need at least 2 grid points")
        if not self.z_max > self.z_min:
            raise ValueError("z_max must exceed z_min")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / (self.n_points - 1)

    @property
    def z(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.n_points)


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian packet: center (m), width sigma (m), carrier wavenumber (1/m).

    Negative carrier_k means leftward motion (right incidence).
    """

    center: float
    sigma: float
    carrier_k: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.carrier_k == 0:
            raise ValueError("carrier_k must be nonzero")

    def omega_spread(self, mass: float) -> float:
        """Induced frequency bandwidth: group velocity times sqrt(2)/(2 sigma)."""
        return (HBAR * abs(self.carrier_k) / mass) * math.sqrt(2.0) / (2.0 * self.sigma)

    def bandwidth_ratio(self, params: MediumParams) -> float:
        """Omega_spread / delta; the narrow-band assumption wants this small."""
        return self.omega_spread(effective_mass(params)) / params.delta


@dataclass(frozen=True)
class WavepacketState:
    psi: np.ndarray
    t: float
    grid: SpatialGrid


def norm(state: WavepacketState) -> float:
    """Discrete L2 norm squared, sum |psi|^2 dz."""
    return float(np.sum(np.abs(state.psi) ** 2) * state.grid.dz)


def potential_on_grid(params: MediumParams, grid: SpatialGrid) -> np.ndarray:
    """Effective potential sampled on the grid (complex, joules).

    Boundary points take the region to their right, as in
    :func:`medium.region_sign`.
    """
    z = grid.z
    l = params.region_length
    vacuum, gain, absorbing = (effective_potential(kind, params) for kind in
                               (RegionKind.VACUUM, RegionKind.GAIN, RegionKind.ABSORBING))
    return np.where(z < -l, vacuum,
                    np.where(z < 0, gain, np.where(z < l, absorbing, vacuum)))


def initial_gaussian(spec: WavepacketSpec, grid: SpatialGrid,
                     params: MediumParams) -> WavepacketState:
    """Normalized Gaussian packet, placed clear of the medium and the walls.

    psi(z) = N exp(-(z - z0)^2 / (4 sigma^2) + i k z), discrete norm 1.
    """
    l = params.region_length
    clearance = 6.0 * spec.sigma
    if spec.carrier_k > 0:
        if spec.center + clearance >= -l:
            raise PlacementError(
                f"left packet at {spec.center:.3e} overlaps the medium "
                f"(needs center + 6 sigma < {-l:.3e})")
    else:
        if spec.center - clearance <= l:
            raise PlacementError(
                f"right packet at {spec.center:.3e} overlaps the medium "
                f"(needs center - 6 sigma > {l:.3e})")
    if spec.center - clearance <= grid.z_min or spec.center + clearance >= grid.z_max:
        raise PlacementError("packet within 6 sigma of a grid boundary")
    z = grid.z
    psi = np.exp(-(z - spec.center) ** 2 / (4.0 * spec.sigma ** 2)
                 + 1j * spec.carrier_k * z)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.dz)
    return WavepacketState(psi=psi, t=0.0, grid=grid)


def _cn_operators(potential: np.ndarray, mass: float, dz: float, dt: float):
    """Tridiagonal LHS as (sub-, main, super-diagonal), and the RHS main
    diagonal and off-diagonal value, of one implicit midpoint step."""
    gamma = 1j * HBAR * dt / (4.0 * mass * dz * dz)
    vfac = 1j * dt / (2.0 * HBAR) * potential
    lower = np.full(potential.size - 1, -gamma, dtype=complex)
    lhs = (lower, 1.0 + 2.0 * gamma + vfac, lower.copy())
    return lhs, 1.0 - 2.0 * gamma - vfac, gamma


def _check_guard(potential: np.ndarray, dt: float):
    vmax = float(np.max(np.abs(potential))) if potential.size else 0.0
    if dt * vmax / HBAR >= POTENTIAL_PHASE_GUARD:
        raise ValueError(
            f"dt too large: dt*|V|max/hbar = {dt * vmax / HBAR:.3g} >= "
            f"{POTENTIAL_PHASE_GUARD}")


def _march(psi: np.ndarray, potential: np.ndarray, mass: float, dz: float,
           dt: float, n_steps: int):
    """Yield (step, psi) after each of n_steps implicit midpoint steps.

    The constant LHS is checked and LU-factored once (zgttrf); each step
    builds the RHS, checks it and is one zgttrs solve.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    _check_guard(potential, dt)
    lhs, rhs_main, gamma = _cn_operators(potential, mass, dz, dt)
    for band in lhs:
        np.asarray_chkfinite(band)
    # in place: the diagonals are needed only as their LU factors
    dl, d, du, du2, ipiv, info = zgttrf(*lhs, overwrite_dl=1, overwrite_d=1,
                                        overwrite_du=1)
    if info > 0:  # pragma: no cover - cannot occur under the guard
        raise RuntimeError(f"singular Crank-Nicolson system: zero pivot {info}")
    for step in range(1, n_steps + 1):
        rhs = rhs_main * psi
        rhs[1:] += gamma * psi[:-1]
        rhs[:-1] += gamma * psi[1:]
        psi, _ = zgttrs(dl, d, du, du2, ipiv, np.asarray_chkfinite(rhs), overwrite_b=1)
        psi[0] = 0.0
        psi[-1] = 0.0
        yield step, psi


def propagate(state: WavepacketState, potential: np.ndarray, mass: float,
              dt: float, n_steps: int, record_every: int = 0) -> list[WavepacketState]:
    """March n_steps; return recorded states (always includes the final one).

    record_every = 0 records only the final state; k > 0 records every k-th
    step starting from the initial state.
    """
    psi = np.asarray(state.psi, dtype=complex)
    out: list[WavepacketState] = []
    if record_every:
        out.append(state)
    for step, psi in _march(psi, potential, mass, state.grid.dz, dt, n_steps):
        if record_every and step % record_every == 0:
            out.append(WavepacketState(psi=psi.copy(), t=state.t + step * dt,
                                       grid=state.grid))
    final = WavepacketState(psi=psi, t=state.t + n_steps * dt, grid=state.grid)
    if not out or out[-1].t != final.t:
        out.append(final)
    return out


def norm_balance_residual(trajectory: Sequence[WavepacketState],
                          potential: np.ndarray) -> float:
    """Worst violation of d/dt(norm) = (2/hbar) * sum Im(V) |psi|^2 dz.

    Central time differences at interior states; the defect rate is scaled
    by the norm and by the characteristic balance rate (the largest |flux|
    per unit norm, floored at 1/duration so the Hermitian case is still
    well-defined).  Second-order accurate stepping makes this O(dt^2).
    """
    if len(trajectory) < 3:
        raise ValueError("need at least 3 states")
    times = np.array([s.t for s in trajectory])
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("trajectory must be uniformly spaced in time")
    dt = float(steps[0])
    dz = trajectory[0].grid.dz
    norms = np.array([norm(s) for s in trajectory])
    im_v = np.imag(potential)
    fluxes = np.array([(2.0 / HBAR) * float(np.sum(im_v * np.abs(s.psi) ** 2) * dz)
                       for s in trajectory])
    duration = times[-1] - times[0]
    rate_scale = max(float(np.max(np.abs(fluxes) / norms)), 1.0 / duration)
    worst = 0.0
    for k in range(1, len(trajectory) - 1):
        dndt = (norms[k + 1] - norms[k - 1]) / (2.0 * dt)
        worst = max(worst, abs(dndt - fluxes[k]) / norms[k])
    return worst / rate_scale


@dataclass(frozen=True)
class PacketPrediction:
    """Spectral averages of the stationary amplitudes over the packet."""

    transmitted: float
    reflected: float


def transmission_prediction(params: MediumParams, spec: WavepacketSpec,
                            n_points: int = 4001, half_width: float = 8.0
                            ) -> PacketPrediction:
    """Average |t|^2 and |r|^2 of the stationary reduced model over the
    packet's analytic Gaussian spectrum |A(k)|^2 ~ exp(-2 sigma^2 (k-k0)^2).

    The incidence side follows the carrier sign; each wavenumber maps to the
    detuning hbar k^2 / (2m) of the equivalent stationary problem.
    """
    mass = effective_mass(params)
    k0 = abs(spec.carrier_k)
    from_left = spec.carrier_k > 0
    dk = half_width / (2.0 * spec.sigma)
    ks = np.linspace(k0 - dk, k0 + dk, n_points)
    if ks[0] <= 0:
        raise ValueError("packet spectrum reaches k <= 0; increase sigma or carrier")
    weights = np.exp(-2.0 * spec.sigma ** 2 * (ks - k0) ** 2)
    t, r_left, r_right, singular = amplitude_arrays(
        *approx_bilayer(params, HBAR * ks * ks / (2.0 * mass)))
    bad = singular | ~np.isfinite(t)
    if bad.any():
        raise SpectralSingularityError(
            f"spectral singularity at k = {ks[bad][0]:.6e} inside the packet spectrum")
    t2 = np.abs(t) ** 2
    r2 = np.abs(r_left if from_left else r_right) ** 2
    w = np.trapezoid(weights, ks)
    return PacketPrediction(
        transmitted=float(np.trapezoid(weights * t2, ks) / w),
        reflected=float(np.trapezoid(weights * r2, ks) / w),
    )


def deviation_percent(measured: float, predicted: float) -> str:
    """|measured - predicted| / predicted in percent to three decimals, or
    "n/a" when the predicted fraction is below 1e-6: fractions print to six
    decimals, and a relative deviation from a smaller one says nothing."""
    if predicted < 1e-6:
        return "n/a"
    return f"{100 * (abs(measured - predicted) / predicted):.3f}%"


@dataclass(frozen=True)
class ScatterResult:
    """Outcome of a wavepacket scattering run."""

    transmitted: float
    reflected: float
    interior_norm: float
    norm_gain: float
    predicted_transmitted: float
    predicted_reflected: float
    bandwidth_ratio: float
    t_final: float
    boundary_peak: float
    interior_amplitude: float
    states: tuple[WavepacketState, ...]

    @property
    def total(self) -> float:
        return self.transmitted + self.reflected + self.interior_norm


def fractions_below_residual(result: ScatterResult) -> tuple[str, ...]:
    """Names of the outgoing fractions ("transmitted", "reflected") smaller
    than the norm still inside the medium at t_final: that residual has yet
    to leave by one side or the other, so such a fraction is not settled."""
    return tuple(name for name in ("transmitted", "reflected")
                 if getattr(result, name) < result.interior_norm)


def scatter_packet(params: MediumParams, spec: WavepacketSpec, grid: SpatialGrid,
                   t_final: float, *, boundary_tol: float = BOUNDARY_TOL,
                   interior_tol: float = INTERIOR_TOL, check_every: int = 200,
                   record_times: Sequence[float] = ()) -> ScatterResult:
    """Scatter a Gaussian packet off the gain/loss bilayer.

    Returns the transmitted and reflected norm fractions at t_final together
    with the stationary-model spectral averages they should approach.  The
    run is rejected if the field touches a wall (enlarge the grid) or if a
    dominant share of it is still inside the medium (lengthen t_final, or
    note that above the amplification threshold the medium never clears).
    ``record_times`` requests intermediate snapshots (nearest step).
    """
    state = initial_gaussian(spec, grid, params)
    ratio = spec.bandwidth_ratio(params)
    if ratio > 0.1:
        logger.warning("packet bandwidth ratio Omega/delta = %.3g is not narrow-band", ratio)
    potential = potential_on_grid(params, grid)
    mass = effective_mass(params)
    dt = grid.dt
    n_steps = max(1, int(round(t_final / dt)))
    z = grid.z
    inside = (z >= -params.region_length) & (z <= params.region_length)
    wanted = {min(n_steps, max(1, int(round(t / dt)))) for t in record_times}
    boundary_peak = 0.0
    recorded: list[WavepacketState] = []
    for step, psi in _march(state.psi, potential, mass, grid.dz, dt, n_steps):
        if step % check_every == 0 or step == n_steps:
            peak = float(np.abs(psi).max())
            edge = max(float(np.abs(psi[:5]).max()), float(np.abs(psi[-5:]).max()))
            boundary_peak = max(boundary_peak, edge / peak)
            if edge / peak > boundary_tol:
                raise BoundaryContaminationError(
                    f"boundary amplitude {edge / peak:.2e} of peak at step {step} "
                    f"exceeds {boundary_tol:.1e}; enlarge the grid or stop earlier")
        if step in wanted:
            recorded.append(WavepacketState(psi=psi.copy(), t=step * dt, grid=grid))
    final = WavepacketState(psi=psi, t=n_steps * dt, grid=grid)
    absq = np.abs(psi) ** 2
    peak = math.sqrt(float(absq.max()))
    interior_amp = math.sqrt(float(absq[inside].max())) / peak
    if interior_amp > interior_tol:
        raise IncompleteScatterError(
            f"interior amplitude is {interior_amp:.2f} of the peak at t_final; "
            "the medium has not cleared (lengthen t_final; if the gain section "
            "is above its amplification threshold it never will)")
    dz = grid.dz
    transmitted = float(np.sum(absq[z > params.region_length]) * dz)
    reflected = float(np.sum(absq[z < -params.region_length]) * dz)
    interior_norm = float(np.sum(absq[inside]) * dz)
    prediction = transmission_prediction(params, spec)
    if spec.carrier_k < 0:
        transmitted, reflected = reflected, transmitted
    total = transmitted + reflected + interior_norm
    return ScatterResult(
        transmitted=transmitted,
        reflected=reflected,
        interior_norm=interior_norm,
        norm_gain=total - 1.0,
        predicted_transmitted=prediction.transmitted,
        predicted_reflected=prediction.reflected,
        bandwidth_ratio=ratio,
        t_final=final.t,
        boundary_peak=boundary_peak,
        interior_amplitude=interior_amp,
        states=(*recorded, final),
    )


@dataclass(frozen=True)
class PacketRunPlan:
    spec: WavepacketSpec
    grid: SpatialGrid
    t_final: float


def plan_packet_run(params: MediumParams, sigma: float, energy: float,
                    from_left: bool = True, *, dt: float = 1e-16,
                    points_per_wavelength: float = 80.0,
                    placement_sigmas: float = 7.0) -> PacketRunPlan:
    """Desk-scale run recipe validated against the reference medium.

    ``energy`` is the carrier kinetic energy hbar^2 k^2 / 2m in joules.  The
    time budget lets the slower of the transmitted/reflected packets clear
    the medium by 8.6 dispersed widths; wall clearances are 10.5 dispersed
    widths plus margin.  The grid step is snapped so that all three region
    boundaries fall exactly on grid points: otherwise the effective layer
    lengths shift by O(dz), which moves the interference fringes and biases
    the fractions at the few-per-mil level.  Everything is overridable by
    constructing :class:`WavepacketSpec` and :class:`SpatialGrid` directly.
    """
    if energy <= 0:
        raise ValueError("carrier energy must be positive")
    mass = effective_mass(params)
    k0 = math.sqrt(2.0 * mass * energy) / HBAR
    v = HBAR * k0 / mass
    l = params.region_length
    z0 = l + placement_sigmas * sigma
    t_near = (z0 - l) / v
    t_cross = (z0 + l) / v
    spread_rate = HBAR / (2.0 * mass * sigma * sigma)

    def dispersed(t: float) -> float:
        return sigma * math.sqrt(1.0 + (spread_rate * t) ** 2)

    t_final = t_cross
    for _ in range(12):
        t_final = t_cross + 8.6 * dispersed(t_final) / v
    s_f = dispersed(t_final)
    wall = 10.5 * s_f + 12e-6
    refl_center = l + (t_final - t_near) * v
    trans_center = l + (t_final - t_cross) * v
    near_extent = max(refl_center + wall, z0 + 6.0 * sigma + 2e-6)
    far_extent = trans_center + wall
    wavelength = 2.0 * math.pi / k0
    # snap dz so l is an exact multiple, then extend the ends in whole cells;
    # -l, 0 and +l all land on grid points
    dz = l / math.ceil(l * points_per_wavelength / wavelength)
    cells_near = math.ceil((near_extent - l) / dz)
    cells_far = math.ceil((far_extent - l) / dz)
    if from_left:
        z_min = -l - cells_near * dz
        z_max = l + cells_far * dz
        center, carrier = -z0, k0
    else:
        z_min = -l - cells_far * dz
        z_max = l + cells_near * dz
        center, carrier = z0, -k0
    n_points = int(round((z_max - z_min) / dz)) + 1
    grid = SpatialGrid(z_min=z_min, z_max=z_max, n_points=n_points, dt=dt)
    return PacketRunPlan(
        spec=WavepacketSpec(center=center, sigma=sigma, carrier_k=carrier),
        grid=grid,
        t_final=t_final,
    )
