"""Time-dependent propagation under the effective Schrodinger equation.

i*hbar dpsi/dt = -(hbar^2/2m) d^2psi/dz^2 + V(z) psi, with the piecewise
imaginary gain/loss potential and the auxiliary mass from :mod:`medium`.
Fourth-order Pade stepping on a uniform grid with hard-wall boundaries: the
diagonal Pade (2,2) approximant of the propagator handles the non-Hermitian
potential stably and is exactly norm-preserving in the Hermitian limit.
Wavepacket scattering runs validate the correspondence with the stationary
amplitudes.

With K = iH dt/hbar and H the lattice Hamiltonian, a step is
(1 - K/2 + K^2/12) / (1 + K/2 + K^2/12), a rational function of H like the
Crank-Nicolson step, so it shares H's eigenfunctions for any dt: once the
medium has drained, the outgoing fractions depend on the grid, not on the
time step.  dt sets the timing only: with theta = E dt / hbar, the carrier
turns by phi(theta) = 2 atan((theta/2) / (1 - theta^2/12)) per step, and the
scheme's group velocity is v phi'(theta) = v (1 + theta^2/12) /
(1 + theta^2/12 + theta^4/144), whose error goes as theta^4.
:func:`plan_packet_run` therefore sizes dt by the carrier
(:data:`PACKET_THETA`) and stretches its time budget by 1/phi'(theta).

One step loop, :func:`_march`, checks dt, builds the operators and LU-factors
the two constant tridiagonal factors I + aK of the step's denominator once
each (LAPACK zgttrf), then yields the field after each step.  A step takes
the rational function in partial fractions, 1 + c [(I + a1 K)^-1 -
(I + a2 K)^-1]: its two in-place zgttrs solves share one right-hand side and
are independent, so one runs on the single worker of a standard-library
ThreadPoolExecutor while the other runs on the caller's thread, and a step
allocates no array.  The march copies the caller's field once and updates
that copy in place: every step yields the same array, overwritten by the
next step.
The two LAPACK routines come from scipy's compiled extension
``scipy.linalg._flapack``, which :func:`_flapack` finds with the import
system's file finder and loads on its own: importing ``scipy.linalg`` would
cost each packet run 0.3-0.5 s and about 23 MB of memory for modules the
stepper never calls.  They are the very objects ``scipy.linalg.lapack``
exports, so the fields are bit-identical.  Its OpenBLAS, like numpy's,
loads with one thread unless ``OPENBLAS_NUM_THREADS`` is set: a default
pool's worker would spin on the core that the second solve needs.
The march's one consumer, :func:`scatter_packet`, checks the walls and
keeps copies of its snapshots.

Caution: for strong pumping the gain section can exceed its amplification
threshold (the bilayer then hosts exponentially growing modes, seeded by
roundoff within ~2 ps at the reference parameters).  Runs must finish
inside the stable window; :func:`plan_packet_run` encodes a validated
recipe.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _one_blas_thread
from .helmholtz import SpectralSingularityError, amplitude_arrays
from .medium import (NEAR_CUTOFF_X_MAX, MediumParams, RegionKind, effective_mass,
                     effective_potential)
from .models import approx_bilayer
from .quantities import HBAR

# Accuracy guard for a single step: the potential phase per step stays small.
POTENTIAL_PHASE_GUARD = 0.1

# Contamination thresholds (amplitude relative to the global peak): a run
# fails if its field touches a wall, or if its largest amplitude inside the
# medium at t_final exceeds INTERIOR_TOL of the peak.
# Validated against the reference medium: subcritical ring-down radiation and
# dispersive grid precursors set a floor near 1e-9; packets that actually
# touch a wall blow through 1e-6 within a few hundred steps.
BOUNDARY_TOL = 1e-6
INTERIOR_TOL = 0.75
# scatter_packet checks the walls every CHECK_EVERY steps and at the last one.
CHECK_EVERY = 200

# The run recipe of plan_packet_run: carrier phase per time step
# (theta = E dt / hbar), grid points per carrier wavelength, and the packet's
# start clearance from the medium in widths.  theta = 1.2 keeps the
# transmitted fractions of the default runs, and the left run's reflected
# one, within 1e-6 relative of a 10x finer step; the reference medium's
# sigma = 6 um run, which its growing modes dominate, leaves 0.54 of its
# norm inside against 0.32.  At 0.2 eV the guard's cap binds at 1.25.
PACKET_THETA = 1.2
POINTS_PER_WAVELENGTH = 80.0
PLACEMENT_SIGMAS = 7.0
# The step's two shifts, a = 1/4 +- i/(4 sqrt 3): the roots of
# (1 + a1 K)(1 + a2 K) = 1 + K/2 + K^2/12, the denominator of the diagonal
# Pade (2,2) approximant of exp(-K) (van Dijk & Toyama, Phys. Rev. E 75,
# 036707 (2007)).
PADE_SHIFTS = (complex(0.25, 0.25 / math.sqrt(3.0)), complex(0.25, -0.25 / math.sqrt(3.0)))
# c = 1 / (a1 - a2): the step is 1 + c [(I + a1 K)^-1 - (I + a2 K)^-1].
PADE_RESIDUE = 1.0 / (PADE_SHIFTS[0] - PADE_SHIFTS[1])
# Largest plan, in tridiagonal solves times grid points: a step is two
# solves.  As sigma * k0 falls to 4.3 the time budget, and with it the grid,
# grows without bound; near that limit the cap keeps a plan under ~2e6
# points at 0.2 eV (~30 MB per complex field).  It rejects widths below
# 0.606 um at 0.2 eV (sigma * k0 < 4.34; 1.8e6 points x 13,298 steps at the
# limit) and admits 0.61 um (1.07e6 points x 8,045 steps, 1.7e10 point-solves).
MAX_POINT_SOLVES = 5 * 10 ** 10

# transmission_prediction samples the packet spectrum at this many
# wavenumbers, spanning this many spectral standard deviations each side of k0.
PREDICTION_POINTS = 4001
PREDICTION_HALF_WIDTH = 8.0

# Norm fractions print to six decimals: a fraction or residual below this
# resolution reads as zero, and no deviation or comparison is drawn from it.
PRINTED_RESOLUTION = 1e-6


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
        # an integer type (int, np.int64) only: a float count fails later, in np.linspace
        if operator.index(self.n_points) < 2:
            raise ValueError("need at least 2 grid points")
        _require_finite("z_min", self.z_min)
        _require_finite("z_max", self.z_max)
        if not self.z_max > self.z_min:
            raise ValueError("z_max must exceed z_min")
        _require_positive("dt", self.dt)

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
        _require_finite("center", self.center)
        _require_positive("sigma", self.sigma)
        _require_finite("carrier_k", self.carrier_k)
        if self.carrier_k == 0:
            raise ValueError("carrier_k must be nonzero")

    def bandwidth_ratio(self, params: MediumParams) -> float:
        """Omega / delta, with Omega the induced frequency bandwidth: group
        velocity times sqrt(2)/(2 sigma).  The narrow-band assumption wants
        this small."""
        velocity = HBAR * abs(self.carrier_k) / effective_mass(params)
        return velocity * math.sqrt(2.0) / (2.0 * self.sigma) / params.delta


def potential_on_grid(params: MediumParams, grid: SpatialGrid) -> np.ndarray:
    """Effective potential sampled on the grid (complex, joules).

    Gain fills [-l, 0), the absorber [0, l) and vacuum the rest: a point
    exactly on a region boundary takes the region to its right.  But the
    grid is a ``linspace``: a boundary that :func:`plan_packet_run` snaps
    onto the grid misses its point by roundoff, on either side, so that
    point does not reliably take the region to its right.
    """
    z = grid.z
    l = params.region_length
    vacuum, gain, absorbing = (effective_potential(kind, params) for kind in
                               (RegionKind.VACUUM, RegionKind.GAIN, RegionKind.ABSORBING))
    return np.where(z < -l, vacuum,
                    np.where(z < 0, gain, np.where(z < l, absorbing, vacuum)))


def initial_gaussian(spec: WavepacketSpec, grid: SpatialGrid,
                     params: MediumParams) -> np.ndarray:
    """Normalized Gaussian packet on the grid, placed clear of the medium
    and the walls.

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
    return psi


def _require_positive(name: str, value: float):
    """Reject a value that is not a finite, positive number (nan, inf, <= 0)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value:g}")


def _require_finite(name: str, value: float):
    """Reject a value that is nan or infinite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value:g}")


def _lhs_bands(potential: np.ndarray, mass: float, dz: float, c: complex):
    """Sub-, main and super-diagonal of I + i c H / hbar, with H the lattice
    Hamiltonian and c a complex time."""
    gamma = 1j * HBAR * c / (2.0 * mass * dz * dz)
    main = potential * (1j * c / HBAR)
    main += 1.0 + 2.0 * gamma
    lower = np.full(potential.size - 1, -gamma, dtype=complex)
    return lower, main, lower.copy()


def _check_guard(potential: np.ndarray, dt: float):
    vmax = float(np.max(np.abs(potential))) if potential.size else 0.0
    if dt * vmax / HBAR >= POTENTIAL_PHASE_GUARD:
        raise ValueError(
            f"dt too large: dt*|V|max/hbar = {dt * vmax / HBAR:.3g} >= "
            f"{POTENTIAL_PHASE_GUARD}")


def _flapack():
    """scipy's compiled LAPACK extension, without scipy.linalg's __init__.

    The module already in ``sys.modules`` if there is one; otherwise the
    extension that a FileFinder finds in scipy's directory (``find_spec``
    imports nothing) is loaded under its own name and registered, so a later
    ``import scipy.linalg`` reuses the same module and function objects.

    The extension loads its own OpenBLAS, under
    :func:`ptwaveguide._one_blas_thread` as numpy's does in the package's
    ``__init__``: with one thread unless ``OPENBLAS_NUM_THREADS`` is set.  A
    default pool, in either library, starts a worker that spins for about
    0.1 s after the load, on the core that the march's second solve needs;
    the stepper calls no threaded BLAS.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(folder, loaders).find_spec(name)
    if spec is None:
        raise ImportError(f"no scipy LAPACK extension _flapack.* in {folder}")
    # module_from_spec dlopens the extension and its OpenBLAS
    with _one_blas_thread():
        module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _march(psi: np.ndarray, potential: np.ndarray, mass: float, dz: float,
           dt: float, n_steps: int):
    """Yield (step, psi) after each of n_steps Pade (2,2) steps.

    With K = i H dt / hbar, a step is (1 - a1 K)(1 - a2 K) / (1 + a1 K)(1 + a2 K)
    = (1 - K/2 + K^2/12) / (1 + K/2 + K^2/12), taken in partial fractions:
    psi <- psi + (y1 - y2) with (I + a K) y = c psi for each shift a of
    :data:`PADE_SHIFTS`, c = :data:`PADE_RESIDUE`.  Each tridiagonal I + a K
    is checked and LU-factored once (zgttrf).  A step checks that its field
    is finite, then makes two independent zgttrs solves, both read off
    :func:`_flapack` at the first step: zgttrs releases the GIL, so one runs
    on the one worker of a ThreadPoolExecutor that the march shuts down when
    it ends, while the other runs here.  A step allocates no array: the
    march copies the caller's psi once, leaving it untouched, and updates
    that one field in place from two solution buffers, y1 and y2.  Every
    step yields the same array, overwritten by the next step; copy it to
    keep it.
    """
    # loaded at the first step, like the LAPACK extension, so that importing
    # the CLI or running a sweep does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    lapack = _flapack()
    zgttrf, zgttrs = lapack.zgttrf, lapack.zgttrs
    _check_guard(potential, dt)
    factors = []
    for shift in PADE_SHIFTS:
        bands = _lhs_bands(potential, mass, dz, shift * dt)
        for band in bands:
            np.asarray_chkfinite(band)
        # in place: the diagonals are needed only as their LU factors
        *lu, info = zgttrf(*bands, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info > 0:  # pragma: no cover - cannot occur under the guard
            raise RuntimeError(f"singular Pade step system: zero pivot {info}")
        factors.append(lu)
    # freed here if the caller keeps no reference, as scatter_packet does not
    del potential
    lu1, lu2 = factors
    # the march's own field: the caller's array is left as it was
    psi = np.array(psi, dtype=complex)
    # contiguous, so each solution overwrites its right-hand side in place
    y1, y2 = np.empty_like(psi), np.empty_like(psi)
    with ThreadPoolExecutor(max_workers=1) as worker:
        for step in range(1, n_steps + 1):
            # NaN propagates through both reductions, and +-inf shows in one
            parts = psi.view(float)
            if not (math.isfinite(np.maximum.reduce(parts))
                    and math.isfinite(np.minimum.reduce(parts))):
                raise ValueError("array must not contain infs or NaNs")
            np.multiply(psi, PADE_RESIDUE, out=y1)
            np.copyto(y2, y1)
            solved = worker.submit(zgttrs, *lu1, y1, overwrite_b=1)
            try:
                y2, _ = zgttrs(*lu2, y2, overwrite_b=1)
            finally:
                y1, _ = solved.result()
            y1 -= y2
            psi += y1
            psi[0] = 0.0
            psi[-1] = 0.0
            yield step, psi


@dataclass(frozen=True)
class PacketPrediction:
    """Spectral averages of the stationary amplitudes over the packet."""

    transmitted: float
    reflected: float


def transmission_prediction(params: MediumParams, spec: WavepacketSpec
                            ) -> PacketPrediction:
    """Average |t|^2 and |r|^2 of the stationary reduced model over the
    packet's analytic Gaussian spectrum |A(k)|^2 ~ exp(-2 sigma^2 (k-k0)^2).

    The incidence side follows the carrier sign; each wavenumber maps to the
    detuning hbar k^2 / (2m) of the equivalent stationary problem.  A
    spectrum that meets a spectral singularity (m22 = 0) raises
    :class:`SpectralSingularityError`; one over which the transfer-matrix
    entries overflow, so that |t|^2 or |r|^2 is not finite, raises
    ValueError.  It takes no time step: the CLI computes it before the run,
    so that a packet without a prediction is refused before it steps.
    """
    mass = effective_mass(params)
    k0 = abs(spec.carrier_k)
    from_left = spec.carrier_k > 0
    dk = PREDICTION_HALF_WIDTH / (2.0 * spec.sigma)
    ks = np.linspace(k0 - dk, k0 + dk, PREDICTION_POINTS)
    if ks[0] <= 0:
        raise ValueError("packet spectrum reaches k <= 0; increase sigma or carrier")
    weights = np.exp(-2.0 * spec.sigma ** 2 * (ks - k0) ** 2)
    # an overflow is rejected just below, by the point it first reaches
    with np.errstate(over="ignore", invalid="ignore"):
        t, r_left, r_right, singular = amplitude_arrays(
            *approx_bilayer(params, HBAR * ks * ks / (2.0 * mass)))
        t2 = np.abs(t) ** 2
        r2 = np.abs(r_left if from_left else r_right) ** 2
    if singular.any():
        raise SpectralSingularityError(
            f"spectral singularity at k = {ks[singular][0]:.6e} inside the packet "
            "spectrum: m22 = 0")
    overflow = ~(np.isfinite(t2) & np.isfinite(r2))
    if overflow.any():
        raise ValueError(
            f"the transfer-matrix entries overflow at k = {ks[overflow][0]:.6e} inside the "
            "packet spectrum: the stationary prediction is not finite")
    w = np.trapezoid(weights, ks)
    return PacketPrediction(
        transmitted=float(np.trapezoid(weights * t2, ks) / w),
        reflected=float(np.trapezoid(weights * r2, ks) / w),
    )


def deviation_percent(measured: float, predicted: float) -> str:
    """|measured - predicted| / predicted in percent to three decimals, or
    "n/a" when the predicted fraction is below :data:`PRINTED_RESOLUTION`: a
    relative deviation from a fraction that prints as zero says nothing."""
    if predicted < PRINTED_RESOLUTION:
        return "n/a"
    return f"{100 * (abs(measured - predicted) / predicted):.3f}%"


@dataclass(frozen=True)
class ScatterResult:
    """What a wavepacket scattering run measured: the outgoing norm fractions
    and the norm still inside the medium at t_final, and the recorded
    (t, psi) states on the run's grid, the final one last.  It holds no
    stationary prediction: compare it with :func:`transmission_prediction`
    of the same packet."""

    transmitted: float
    reflected: float
    interior_norm: float
    states: tuple[tuple[float, np.ndarray], ...]

    @property
    def total(self) -> float:
        return self.transmitted + self.reflected + self.interior_norm


def fractions_below_residual(result: ScatterResult) -> tuple[str, ...]:
    """Names of the outgoing fractions ("transmitted", "reflected") smaller
    than the norm still inside the medium at t_final: that residual has yet
    to leave by one side or the other, so such a fraction is not settled.

    None is named when the residual itself is below
    :data:`PRINTED_RESOLUTION`, however small the fractions."""
    if result.interior_norm < PRINTED_RESOLUTION:
        return ()
    return tuple(name for name in ("transmitted", "reflected")
                 if getattr(result, name) < result.interior_norm)


def require_record_times(record_times: Sequence[float]) -> None:
    """Reject a snapshot time that is not finite and non-negative."""
    for t in record_times:
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"record time must be finite and non-negative, got {t:g}")


def scatter_packet(params: MediumParams, spec: WavepacketSpec, grid: SpatialGrid,
                   t_final: float, *, record_times: Sequence[float] = ()) -> ScatterResult:
    """Scatter a Gaussian packet off the gain/loss bilayer.

    Returns what the march measured: the transmitted and reflected norm
    fractions at t_final, the norm left inside the medium, and the
    snapshots; it evaluates nothing stationary.  The run is rejected if the
    field touches a wall (enlarge the grid), if its norm overflows, or if its
    largest amplitude inside the medium exceeds :data:`INTERIOR_TOL` of the
    peak (lengthen t_final, or note that above the amplification threshold
    the medium never clears).
    ``record_times`` requests intermediate snapshots (nearest step), each
    kept as a (t, psi) pair on ``grid``; the final state is always kept,
    once.
    """
    _require_positive("t_final", t_final)
    require_record_times(record_times)
    dt = grid.dt
    n_steps = max(1, int(round(t_final / dt)))
    # the march holds the only references to the initial field and the
    # potential: it drops the field once it has copied it into the one it
    # updates, and the potential once it has factored the step
    steps = _march(initial_gaussian(spec, grid, params), potential_on_grid(params, grid),
                   effective_mass(params), grid.dz, dt, n_steps)
    # the final state is kept anyway: a time that rounds to t_final or past
    # it adds nothing
    wanted = {max(1, int(round(t / dt))) for t in record_times if t < t_final} - {n_steps}
    recorded: list[tuple[float, np.ndarray]] = []
    # closed on a raise, so that its executor shuts down with the run
    with contextlib.closing(steps):
        for step, psi in steps:
            if step % CHECK_EVERY == 0 or step == n_steps:
                peak = float(np.abs(psi).max())
                edge = max(float(np.abs(psi[:5]).max()), float(np.abs(psi[-5:]).max()))
                if edge / peak > BOUNDARY_TOL:
                    raise BoundaryContaminationError(
                        f"boundary amplitude {edge / peak:.2e} of peak at step {step} "
                        f"exceeds {BOUNDARY_TOL:.1e}; enlarge the grid or stop earlier")
            if step in wanted:
                recorded.append((step * dt, psi.copy()))
    dz = grid.dz
    z = grid.z
    inside = (z >= -params.region_length) & (z <= params.region_length)
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        absq = np.abs(psi) ** 2
        transmitted = float(np.sum(absq[z > params.region_length]) * dz)
        reflected = float(np.sum(absq[z < -params.region_length]) * dz)
        interior_norm = float(np.sum(absq[inside]) * dz)
    if not math.isfinite(transmitted + reflected + interior_norm):
        raise IncompleteScatterError(
            "the field's norm overflows at t_final: the medium's growing modes "
            "have taken over")
    peak = math.sqrt(float(absq.max()))
    interior_amp = math.sqrt(float(absq[inside].max())) / peak
    if interior_amp > INTERIOR_TOL:
        raise IncompleteScatterError(
            f"interior amplitude is {interior_amp:.2f} of the peak at t_final; "
            "the medium has not cleared (lengthen t_final; if the gain section "
            "is above its amplification threshold it never will)")
    if spec.carrier_k < 0:
        transmitted, reflected = reflected, transmitted
    return ScatterResult(
        transmitted=transmitted,
        reflected=reflected,
        interior_norm=interior_norm,
        states=(*recorded, (n_steps * dt, psi)),
    )


@dataclass(frozen=True)
class PacketRunPlan:
    spec: WavepacketSpec
    grid: SpatialGrid
    t_final: float


# numpy warnings off: a plan far over the point-solve cap overflows, and the cap rejects it
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def plan_packet_run(params: MediumParams, sigma: float, energy: float,
                    from_left: bool = True) -> PacketRunPlan:
    """Desk-scale run recipe validated against the reference medium.

    ``energy`` is the carrier kinetic energy hbar^2 k^2 / 2m in joules.  The
    time budget lets the slower of the transmitted/reflected packets clear
    the medium by 8.6 dispersed widths, t = t_cross + 8.6 sigma(t) / v; as
    sigma(t) / v grows like t / (2 sigma k0), it has a solution only for
    sigma * k0 > 4.3, and a plan below that is rejected.  The time step
    turns the carrier by ``PACKET_THETA``, dt = theta hbar / E, capped at
    half of ``POTENTIAL_PHASE_GUARD`` hbar / |V|max; the planned t_final is
    the budget times (1 + theta^2/12 + theta^4/144) / (1 + theta^2/12)
    (theta as realized), because the scheme moves the packet that much
    slower than v.  A plan whose grid points times solves, two per step,
    exceed ``MAX_POINT_SOLVES`` is rejected, and so is one whose counts
    overflow the floating-point range.  Wall clearances
    are 10.5 dispersed widths plus margin.  The grid step is snapped so that
    all three region boundaries fall exactly on grid points: otherwise the
    effective layer lengths shift by O(dz), which moves the interference
    fringes and biases the fractions at the few-per-mil level.  Everything
    is overridable by constructing :class:`WavepacketSpec` and
    :class:`SpatialGrid` directly.

    A carrier above omega/omega_c = 1 + E / hbar omega_c =
    ``NEAR_CUTOFF_X_MAX``, outside the near-cutoff regime, is rejected.
    """
    _require_positive("sigma", sigma)
    _require_positive("carrier energy", energy)
    x = 1.0 + energy / (HBAR * params.omega_c)
    if x > NEAR_CUTOFF_X_MAX:
        raise ValueError(f"carrier at omega/omega_c = {x:.10g} is above "
                         f"{NEAR_CUTOFF_X_MAX:g}, outside the near-cutoff regime of "
                         "the reduced model")
    mass = effective_mass(params)
    k0 = math.sqrt(2.0 * mass * energy) / HBAR
    if not sigma * k0 > 4.3:
        raise ValueError(f"sigma*k0 = {sigma * k0:.3g} must exceed 4.3: the packet spreads "
                         "faster than it clears the medium, so no time budget exists")
    v = HBAR * k0 / mass
    # numpy scalars from here on: where a plan overflows they give inf or
    # nan, and Python's floats would raise.  They round +, -, *, / and ** as
    # Python's floats do, so a plan within the cap is bit-identical.
    l = np.float64(params.region_length)
    z0 = l + PLACEMENT_SIGMAS * sigma
    t_near = (z0 - l) / v
    t_cross = (z0 + l) / v
    spread_rate = HBAR / (2.0 * mass * sigma * sigma)
    # t - t_cross = b sqrt(1 + (s t)^2) with b = 8.6 sigma / v, s = spread_rate,
    # squared: a quadratic in t whose larger root is the budget (b s < 1 by
    # the sigma * k0 check)
    b = 8.6 * sigma / v
    bs2 = (b * spread_rate) ** 2
    t_final = (t_cross + b * math.sqrt(1.0 + (spread_rate * t_cross) ** 2 - bs2)) / (1.0 - bs2)
    s_f = sigma * math.sqrt(1.0 + (spread_rate * t_final) ** 2)
    wall = 10.5 * s_f + 12e-6
    refl_center = l + (t_final - t_near) * v
    trans_center = l + (t_final - t_cross) * v
    near_extent = max(refl_center + wall, z0 + 6.0 * sigma + 2e-6)
    far_extent = trans_center + wall
    wavelength = 2.0 * math.pi / k0
    # snap dz so l is an exact multiple, then extend the ends in whole cells;
    # -l, 0 and +l all land on grid points
    cells_medium = np.ceil(l * POINTS_PER_WAVELENGTH / wavelength)
    dz = l / cells_medium
    # the counts stay floats until the point-solve cap below has passed: a
    # plan far over it can count more points than a float converts to an int
    cells_near = float(np.ceil((near_extent - l) / dz))
    cells_far = float(np.ceil((far_extent - l) / dz))
    if from_left:
        z_min = -l - cells_near * dz
        z_max = l + cells_far * dz
        center, carrier = -z0, k0
    else:
        z_min = -l - cells_far * dz
        z_max = l + cells_near * dz
        center, carrier = z0, -k0
    # the medium's 2 cells_medium cells, the ends' cells, and one point more
    n_points = float(cells_near + cells_far + 2.0 * cells_medium) + 1.0
    # the carrier turns by theta per step, unless that step would turn the
    # potential by more than half the guard (slow carriers, strong media)
    dt = PACKET_THETA * HBAR / energy
    vmax = max(abs(effective_potential(kind, params)) for kind in RegionKind)
    if vmax > 0:
        dt = min(dt, 0.5 * POTENTIAL_PHASE_GUARD * HBAR / vmax)
    # the scheme's group velocity is v phi'(theta), phi(theta) =
    # 2 atan((theta/2) / (1 - theta^2/12)) the carrier's phase per step: the
    # packet reaches the places the grid was sized for 1/phi' times later
    theta2 = (energy * dt / HBAR) ** 2
    t_final *= (1.0 + theta2 / 12.0 + theta2 * theta2 / 144.0) / (1.0 + theta2 / 12.0)
    n_steps = max(1.0, float(np.rint(t_final / dt)))
    if not 2 * n_points * n_steps <= MAX_POINT_SOLVES:
        raise ValueError(f"sigma*k0 = {sigma * k0:.3g} plans {n_points:.3g} points x "
                         f"{n_steps:.3g} steps of 2 solves, over the {MAX_POINT_SOLVES:.0e} "
                         "point-solve limit")
    grid = SpatialGrid(z_min=float(z_min), z_max=float(z_max), n_points=int(n_points), dt=dt)
    return PacketRunPlan(
        spec=WavepacketSpec(center=float(center), sigma=sigma, carrier_k=carrier),
        grid=grid,
        t_final=float(t_final),
    )
