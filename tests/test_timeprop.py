import importlib.machinery
import importlib.util
import inspect
import itertools
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import reference
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse
from oracles import norm, norm_balance_residual, propagate
from scipy.linalg import _flapack as flapack

import ptwaveguide.timeprop as tp
from ptwaveguide.helmholtz import SpectralSingularityError, amplitude_arrays
from ptwaveguide.medium import RegionKind, effective_mass, effective_potential, from_config
from ptwaveguide.models import approx_bilayer
from ptwaveguide.quantities import E_CHARGE, HBAR, Config
from ptwaveguide.timeprop import (PREDICTION_HALF_WIDTH, PREDICTION_POINTS,
                                  PRINTED_RESOLUTION, BoundaryContaminationError,
                                  IncompleteScatterError, PlacementError,
                                  SpatialGrid, WavepacketSpec,
                                  _march, fractions_below_residual,
                                  initial_gaussian, plan_packet_run,
                                  potential_on_grid, scatter_packet,
                                  transmission_prediction)


def carrier_for_energy(params, energy_ev: float) -> float:
    return math.sqrt(2.0 * effective_mass(params) * energy_ev * E_CHARGE) / HBAR


def pade_stretch(theta):
    """1/phi'(theta), phi(theta) = 2 atan((theta/2) / (1 - theta^2/12)) the
    Pade (2,2) step's phase for the carrier's theta = E dt / hbar."""
    return (1.0 + theta ** 2 / 12.0 + theta ** 4 / 144.0) / (1.0 + theta ** 2 / 12.0)


def banded_steps(psi, potential, mass, dz, dt, n_steps):
    """Reference stepper: the Pade (2,2) step in partial fractions,
    psi <- (y0 - y1) + psi with (I + a K) y = c psi for each shift a,
    c = 1 / (a1 - a2) and K = i H dt / hbar, each a full banded solve
    (scipy.linalg.solve_banded); returns every state."""
    residue = 1.0 / (tp.PADE_SHIFTS[0] - tp.PADE_SHIFTS[1])
    lhs = []
    for a in tp.PADE_SHIFTS:
        c = a * dt
        gamma = 1j * HBAR * c / (2.0 * mass * dz * dz)
        bands = np.zeros((3, potential.size), dtype=complex)
        bands[0, 1:] = -gamma
        bands[1, :] = potential * (1j * c / HBAR) + (1.0 + 2.0 * gamma)
        bands[2, :-1] = -gamma
        lhs.append(bands)
    states = []
    for _ in range(n_steps):
        y0, y1 = (scipy.linalg.solve_banded((1, 1), bands, psi * residue)
                  for bands in lhs)
        psi = (y0 - y1) + psi
        psi[0] = 0.0
        psi[-1] = 0.0
        states.append(psi)
    return states


def unfactored_steps(psi, potential, mass, dz, dt, n_steps):
    """Independent stepper: (I + K/2 + K^2/12) psi' = (I - K/2 + K^2/12) psi
    with K = i H dt / hbar a sparse matrix and K^2 its product, one
    pentadiagonal solve per step; returns the final state."""
    n = potential.size
    off = np.full(n - 1, -HBAR * HBAR / (2.0 * mass * dz * dz))
    k = 1j * dt / HBAR * scipy.sparse.diags(
        [off, HBAR * HBAR / (mass * dz * dz) + potential, off], [-1, 0, 1], format="csr")
    k2 = k @ k
    eye = scipy.sparse.identity(n, format="csr")
    lhs, rhs = eye + k / 2 + k2 / 12, eye - k / 2 + k2 / 12
    bands = np.zeros((5, n), dtype=complex)
    for d in range(-2, 3):
        bands[2 - d, max(d, 0):n + min(d, 0)] = lhs.diagonal(d)
    for _ in range(n_steps):
        psi = scipy.linalg.solve_banded((2, 2), bands, rhs @ psi)
    return psi


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the stepper's zgttrf and zgttrs calls, on the LAPACK extension
    module it reads them from; the march calls zgttrs from two threads."""
    calls = {"zgttrf": 0, "zgttrs": 0}
    lock = threading.Lock()
    for name in calls:
        original = getattr(flapack, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            with lock:
                calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(flapack, name, counted)
    return calls


GRID = dict(z_min=-80e-6, z_max=60e-6, n_points=3000, dt=1e-16)
SPEC = dict(center=-40e-6, sigma=2e-6, carrier_k=1e6)


@pytest.mark.parametrize("cls, field, value", [
    (SpatialGrid, "z_min", -math.inf),
    (SpatialGrid, "z_max", math.inf),
    (SpatialGrid, "dt", math.nan),
    (WavepacketSpec, "center", math.nan),
    (WavepacketSpec, "sigma", math.nan),
    (WavepacketSpec, "carrier_k", math.inf),
])
def test_non_finite_field_rejected(cls, field, value):
    valid = GRID if cls is SpatialGrid else SPEC
    cls(**valid)
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        cls(**dict(valid, **{field: value}))


def test_grid_point_count_must_be_integer():
    # a float count used to construct and fail later, at grid.z
    with pytest.raises(TypeError):
        SpatialGrid(**dict(GRID, n_points=2.5))
    assert SpatialGrid(**dict(GRID, n_points=np.int64(3000))).z.size == 3000


class TestGaussian:
    def test_unit_norm(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 4000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        psi = initial_gaussian(spec, grid, params)
        assert norm(psi, grid.dz) == pytest.approx(1.0, abs=1e-12)

    def test_carrier_expectation(self, params):
        # sigma = 57 dz; the central-difference estimator carries a
        # (k dz)^2/6 bias, so keep the carrier low enough for the 0.1% check
        grid = SpatialGrid(-80e-6, 60e-6, 4000, 1e-16)
        kbar = carrier_for_energy(params, 0.01)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6, carrier_k=kbar)
        psi = initial_gaussian(spec, grid, params)
        dz = grid.dz
        dpsi = (psi[2:] - psi[:-2]) / (2 * dz)
        k_mean = float(np.sum(np.imag(psi[1:-1].conjugate() * dpsi)) * dz)
        assert k_mean == pytest.approx(kbar, rel=1e-3)

    def test_spectral_width(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 8192, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        psi = initial_gaussian(spec, grid, params)
        ks = 2 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dz)
        power = np.abs(np.fft.fft(psi)) ** 2
        k_mean = float(np.sum(ks * power) / np.sum(power))
        k_var = float(np.sum((ks - k_mean) ** 2 * power) / np.sum(power))
        assert math.sqrt(k_var) == pytest.approx(1.0 / (2 * spec.sigma), rel=1e-2)

    def test_bandwidth_ratio(self, params):
        spec = WavepacketSpec(center=-40e-6, sigma=3e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        # v*sqrt(2)/(2 sigma delta) at 0.2 eV carrier and 3 um width
        assert spec.bandwidth_ratio(params) == pytest.approx(0.0105, abs=5e-4)

    def test_overlapping_medium_rejected(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 4000, 1e-16)
        with pytest.raises(PlacementError):
            initial_gaussian(WavepacketSpec(-25e-6, 2e-6, 1e6), grid, params)

    def test_overlapping_boundary_rejected(self, params):
        grid = SpatialGrid(-45e-6, 60e-6, 4000, 1e-16)
        with pytest.raises(PlacementError):
            initial_gaussian(WavepacketSpec(-36e-6, 2e-6, 1e6), grid, params)


class TestPadeStep:
    def test_free_single_step_norm(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-50e-6, sigma=4e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        psi = initial_gaussian(spec, grid, params)
        potential = np.zeros(grid.n_points, dtype=complex)
        out = propagate(psi, potential, effective_mass(params), grid.dz, grid.dt, 1)
        assert norm(out, grid.dz) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("sign", [-1.0, +1.0])
    def test_uniform_imaginary_potential(self, params, sign):
        # norm follows exp(-+ 2|V|t/hbar); the step's deviation is fourth
        # order in E dt / hbar (6e-9 at 1e-16 s), falling 16-fold with dt/2
        grid_dt = {1e-16: None, 5e-17: None}
        vmag = 0.008 * E_CHARGE
        mass = effective_mass(params)
        for dt in grid_dt:
            grid = SpatialGrid(-80e-6, 60e-6, 3000, dt)
            spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                                  carrier_k=carrier_for_energy(params, 0.2))
            psi = initial_gaussian(spec, grid, params)
            potential = np.full(grid.n_points, sign * 1j * vmag, dtype=complex)
            steps = int(round(4e-14 / dt))
            final = propagate(psi, potential, mass, grid.dz, dt, steps)
            expected = math.exp(sign * 2.0 * vmag * steps * dt / HBAR)
            grid_dt[dt] = abs(norm(final, grid.dz) - expected) / expected
        assert grid_dt[1e-16] < 5e-4
        assert grid_dt[5e-17] < 0.3 * grid_dt[1e-16]

    def test_potential_matches_pointwise_regions(self, params):
        # a power-of-two region length puts -l, 0 and l exactly on the points
        # 64, 128 and 192; each boundary point takes the region to its right,
        # in the potential and in the cuts of scatter_packet's fractions
        l = 2.0 ** -15
        params = replace(params, region_length=l)
        grid = SpatialGrid(-2 * l, 2 * l, 257, 1e-16)
        gain, absorbing = (effective_potential(kind, params)
                           for kind in (RegionKind.GAIN, RegionKind.ABSORBING))
        expected = np.repeat([0.0, gain, absorbing, 0.0], [64, 64, 64, 65])
        assert grid.z[[64, 128, 192]].tolist() == [-l, 0.0, l]
        assert np.array_equal(potential_on_grid(params, grid), expected)
        assert tp._region_starts(params, grid).tolist() == [64, 128, 192]

    def test_guard_rejects_large_dt(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-12)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        psi = initial_gaussian(spec, grid, params)
        potential = potential_on_grid(params, grid)
        with pytest.raises(ValueError, match="dt too large"):
            propagate(psi, potential, effective_mass(params), grid.dz, grid.dt, 1)


class TestFactoredStepper:
    @pytest.mark.parametrize("direction", [+1.0, -1.0])
    def test_bit_identical_to_banded_solver(self, params, direction):
        # a packet straddling the gain/absorber interface, so that the
        # potential acts at every step
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        z = grid.z
        psi = np.exp(-z ** 2 / (4.0 * (4e-6) ** 2)
                     + 1j * direction * carrier_for_energy(params, 0.2) * z)
        potential = potential_on_grid(params, grid)
        mass = effective_mass(params)
        fields = [got.copy() for _, got in _march(psi, potential, mass, grid.dz,
                                                  grid.dt, 300)]
        expected = banded_steps(psi, potential, mass, grid.dz, grid.dt, 300)
        assert np.any(np.imag(potential) != 0)
        assert len(fields) == 300
        assert all(np.array_equal(got, want) for got, want in zip(fields, expected))

    @pytest.mark.parametrize("direction", [+1.0, -1.0])
    def test_matches_unfactored_step(self, params, direction):
        # the two shifted substeps against one solve of the (2,2) Pade step
        # itself, on the step of the default plan (theta = 1.2), for a packet
        # straddling the gain/absorber interface and clear of the walls
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1.2 * HBAR / (0.2 * E_CHARGE))
        z = grid.z
        psi = np.exp(-z ** 2 / (4.0 * (4e-6) ** 2)
                     + 1j * direction * carrier_for_energy(params, 0.2) * z)
        potential = potential_on_grid(params, grid)
        mass = effective_mass(params)
        for _, got in _march(psi, potential, mass, grid.dz, grid.dt, 50):
            pass
        want = unfactored_steps(psi, potential, mass, grid.dz, grid.dt, 50)
        assert np.abs(got).max() > 0.1
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_factorization_per_run(self, params, lapack_calls):
        # one factorization per shift; one solve per shift and step
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        propagate(initial_gaussian(spec, grid, params), potential_on_grid(params, grid),
                  effective_mass(params), grid.dz, grid.dt, 7)
        assert lapack_calls == {"zgttrf": 2, "zgttrs": 14}

    def test_lapack_functions_are_scipys(self):
        # the stepper's routines are the very objects scipy.linalg.lapack
        # exports, however the extension was loaded
        lapack = tp._flapack()
        assert lapack.zgttrf is scipy.linalg.lapack.zgttrf
        assert lapack.zgttrs is scipy.linalg.lapack.zgttrs

    def test_missing_lapack_extension_names_folder(self, monkeypatch, tmp_path):
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy_spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy_spec)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            tp._flapack()

    def test_nan_field_rejected(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        psi = initial_gaussian(spec, grid, params)
        psi[1500] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            propagate(psi, potential_on_grid(params, grid), effective_mass(params),
                      grid.dz, grid.dt, 3)

    def test_nonfinite_potential_rejected_before_stepping(self, params, lapack_calls):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        potential = potential_on_grid(params, grid)
        potential[2000] = complex(0.0, np.nan)
        steps = _march(np.ones(grid.n_points, dtype=complex), potential,
                       effective_mass(params), grid.dz, grid.dt, 3)
        with pytest.raises(ValueError, match="infs or NaNs"):
            next(steps)
        assert lapack_calls == {"zgttrf": 0, "zgttrs": 0}


    def test_nonfinite_imaginary_part_rejected(self, params, lapack_calls):
        # finite but for one imaginary infinity: rejected before any solve
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        psi = np.ones(grid.n_points, dtype=complex)
        psi[1500] = complex(0.0, np.inf)
        steps = _march(psi, potential_on_grid(params, grid), effective_mass(params),
                       grid.dz, grid.dt, 3)
        with pytest.raises(ValueError, match="infs or NaNs"), np.errstate(invalid="ignore"):
            next(steps)
        assert lapack_calls == {"zgttrf": 2, "zgttrs": 0}

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                       complex(np.inf, 0.0), complex(0.0, np.inf),
                                       complex(-np.inf, 0.0), complex(0.0, -np.inf)],
                             ids=["nan-real", "nan-imag", "inf-real", "inf-imag",
                                  "-inf-real", "-inf-imag"])
    def test_nonfinite_field_rejected_before_solves(self, params, lapack_calls, value):
        # a field that turns non-finite between steps, in either part, is
        # rejected before the next step's solves
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        steps = _march(initial_gaussian(spec, grid, params),
                       potential_on_grid(params, grid), effective_mass(params),
                       grid.dz, grid.dt, 3)
        _, field = next(steps)
        field[1500] = value
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            next(steps)
        assert lapack_calls == {"zgttrf": 2, "zgttrs": 2}

    def test_no_thread_outlives_a_march(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        psi = initial_gaussian(spec, grid, params)
        potential = potential_on_grid(params, grid)
        mass = effective_mass(params)
        before = set(threading.enumerate())
        # run to its end
        propagate(psi, potential, mass, grid.dz, grid.dt, 3)
        assert set(threading.enumerate()) == before
        # closed after its first step, its one worker running until then
        steps = _march(psi, potential, mass, grid.dz, grid.dt, 3)
        next(steps)
        assert len(set(threading.enumerate()) - before) == 1
        steps.close()
        assert set(threading.enumerate()) == before
        # a NaN field raises inside the march
        bad = psi.copy()
        bad[1500] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            propagate(bad, potential, mass, grid.dz, grid.dt, 3)
        assert set(threading.enumerate()) == before
        # the run raises mid-march; its traceback, which holds scatter_packet's
        # frame, is still alive here
        with pytest.raises(BoundaryContaminationError) as raised:
            scatter_packet(params, spec, SpatialGrid(-60e-6, 2e-6, 2000, 1e-16), 1.0e-12)
        assert raised.value.__traceback__ is not None
        assert set(threading.enumerate()) == before

    def test_worker_error_reraised_in_caller(self, params, monkeypatch):
        # a solve that fails on the worker's thread raises in the thread that
        # runs the march, which ends without hanging or leaving a thread
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        psi = initial_gaussian(spec, grid, params)
        potential = potential_on_grid(params, grid)
        original = flapack.zgttrs

        def failing_off_runner(*args, **kwargs):
            if threading.current_thread() is not runner:
                raise RuntimeError("worker solve failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(flapack, "zgttrs", failing_off_runner)
        raised = []

        def run():
            try:
                propagate(psi, potential, effective_mass(params), grid.dz, grid.dt, 3)
            except RuntimeError as exc:
                raised.append(str(exc))

        # a daemon, so that a hung march fails this test but not the session
        runner = threading.Thread(target=run, daemon=True)
        before = set(threading.enumerate())
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert raised == ["worker solve failed"]
        assert set(threading.enumerate()) == before

    def test_concurrent_marches_match_serial(self, params):
        # three marches at once, six threads on two cores, with the
        # interpreter switching threads as often as it can: each gives the
        # field of the same march run alone, bit for bit
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        potential = potential_on_grid(params, grid)
        mass = effective_mass(params)
        starts = [initial_gaussian(WavepacketSpec(center=center, sigma=2e-6,
                                                  carrier_k=carrier_for_energy(params, 0.2)),
                                   grid, params) for center in (-40e-6, -45e-6, -50e-6)]
        alone = [propagate(start, potential, mass, grid.dz, grid.dt, 50) for start in starts]
        together = [None] * len(starts)

        def run(i):
            together[i] = propagate(starts[i], potential, mass, grid.dz, grid.dt, 50)

        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(len(starts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(np.array_equal(got, want) for got, want in zip(together, alone))

    def test_yields_one_owned_field(self, params):
        # every step updates and yields the same array, a copy of the caller's
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        psi = initial_gaussian(spec, grid, params)
        fields = [field for _, field in _march(psi, potential_on_grid(params, grid),
                                               effective_mass(params), grid.dz, grid.dt, 4)]
        assert len(fields) == 4
        assert all(field is fields[0] for field in fields)
        assert not np.shares_memory(fields[0], psi)

    def test_steps_allocate_nothing(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        psi = initial_gaussian(spec, grid, params)
        steps = _march(psi, potential_on_grid(params, grid), effective_mass(params),
                       grid.dz, grid.dt, 11)
        tracemalloc.start()
        try:
            next(steps)  # the buffers and the LU factors are set up here
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                next(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.25 * psi.nbytes

    def test_initial_field_untouched(self, params, monkeypatch):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        potential = potential_on_grid(params, grid)
        mass = effective_mass(params)
        psi = initial_gaussian(spec, grid, params)
        before = psi.copy()
        for _ in _march(psi, potential, mass, grid.dz, grid.dt, 5):
            pass
        propagate(psi, potential, mass, grid.dz, grid.dt, 5)
        norm_balance_residual(psi, potential, mass, grid.dz, grid.dt, 5)
        assert np.array_equal(psi, before)
        made = []

        def kept_initial_gaussian(*args):
            made.append(initial_gaussian(*args))
            return made[-1]

        monkeypatch.setattr(tp, "initial_gaussian", kept_initial_gaussian)
        scatter_packet(params, spec, grid, 5 * grid.dt)
        assert np.array_equal(made[0], before)

    @pytest.mark.parametrize("every", [1, 4])
    def test_recorded_states_own_their_fields(self, params, every):
        # the stepper yields the field it updates; every kept state is its own copy
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        states = scatter_packet(params, spec, grid, 6 * grid.dt,
                                record_times=[k * grid.dt for k in range(every, 6, every)]
                                ).states
        assert len(states) == (6 if every == 1 else 2)
        assert not any(np.shares_memory(a, b)
                       for (_, a), (_, b) in itertools.combinations(states, 2))

    @pytest.mark.parametrize("from_left", [True, False])
    def test_default_grid_bit_identical(self, params, from_left):
        # the first 100 steps of the default packet run, on its own grid
        plan = plan_packet_run(params, sigma=3e-6, energy=0.2 * E_CHARGE,
                               from_left=from_left)
        grid = plan.grid
        assert grid.n_points == 22235
        psi = initial_gaussian(plan.spec, grid, params)
        potential = potential_on_grid(params, grid)
        mass = effective_mass(params)
        expected = banded_steps(psi, potential, mass, grid.dz, grid.dt, 100)
        steps = _march(psi, potential, mass, grid.dz, grid.dt, 100)
        assert all(np.array_equal(got, want) for (_, got), want in zip(steps, expected))


class TestNormBalance:
    def _start(self, params, dt, n=3000):
        grid = SpatialGrid(-55e-6, 45e-6, n, dt)
        spec = WavepacketSpec(center=-34e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        return initial_gaussian(spec, grid, params), potential_on_grid(params, grid), grid.dz

    def _residual(self, params, dt, steps, potential=None, n=3000):
        psi, reference, dz = self._start(params, dt, n)
        if potential is None:
            potential = reference
        return norm_balance_residual(psi, potential, effective_mass(params),
                                     dz, dt, steps)

    def test_real_potential_conserves(self, params):
        potential = np.full(3000, 0.001 * E_CHARGE, dtype=complex)
        assert self._residual(params, 1e-16, 300, potential=potential) <= 1e-10

    def test_reference_potential_residual_and_dt_scaling(self, params):
        residuals = {dt: self._residual(params, dt, int(round(8e-14 / dt)), n=5000)
                     for dt in (2e-16, 1e-16)}
        assert residuals[1e-16] <= 1e-6
        # the residual's central difference is second order: halving dt
        # divides it by ~4
        assert 3.0 <= residuals[2e-16] / residuals[1e-16] <= 5.0

    def test_uniform_imaginary_consistent(self, params):
        vmag = 0.008 * E_CHARGE
        potential = np.full(3000, -1j * vmag, dtype=complex)
        residual = self._residual(params, 1e-16, 300, potential=potential)
        # dominated by the residual's central difference, O(dt^2) (7e-7)
        assert residual <= 1e-3
        assert self._residual(params, 5e-17, 600, potential=potential) <= 0.3 * residual

    def test_requires_three_states(self, params):
        psi, potential, dz = self._start(params, 1e-16)
        for steps in (0, 1):
            with pytest.raises(ValueError, match="3 states"):
                norm_balance_residual(psi, potential, effective_mass(params),
                                      dz, 1e-16, steps)

    def test_keeps_scalars_not_states(self, params):
        # criterion 10's grid over 801 states: a trajectory of them would
        # take 801 fields; the residual keeps two floats per state, and the
        # march's two LU factorizations, its field and its two solution
        # buffers take about 12 fields
        psi, potential, dz = self._start(params, 1e-16, n=5000)
        mass = effective_mass(params)
        # a short march first, so that first-use allocations (the LAPACK
        # extension's import at the first step) fall outside the window
        norm_balance_residual(psi, potential, mass, dz, 1e-16, 2)
        tracemalloc.start()
        try:
            norm_balance_residual(psi, potential, mass, dz, 1e-16, 800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * psi.nbytes


class TestScatter:
    def test_medium_off_is_transparent(self, hermitian_params):
        plan = plan_packet_run(hermitian_params, sigma=2e-6,
                               energy=0.2 * E_CHARGE)
        result = scatter_packet(hermitian_params, plan.spec, plan.grid,
                                plan.t_final)
        assert result.transmitted == pytest.approx(1.0, abs=1e-6)
        assert abs(result.total - 1.0) <= 1e-6
        assert result.reflected <= 1e-8

    def test_left_incidence_gains_norm(self, params, default_packet_run):
        # gain region is met first: the scattered packet carries extra norm
        plan, result = default_packet_run
        prediction = transmission_prediction(params, plan.spec)
        assert result.total > 1.0
        assert result.transmitted == pytest.approx(prediction.transmitted,
                                                   rel=2e-2)
        assert result.reflected == pytest.approx(prediction.reflected,
                                                 rel=2e-2)

    def test_norm_straddles_unity_at_low_energy(self, subcritical_params):
        # absorber-first runs lose norm, gain-first runs gain it; checked
        # mid-flight (the interior need not be cleared for the total norm)
        sub = subcritical_params
        mass = effective_mass(sub)
        kbar = carrier_for_energy(sub, 0.02)
        totals = {}
        for side, (z0, kk, z_min, z_max) in {
                "left": (-47.7e-6, kbar, -95e-6, 35e-6),
                "right": (+47.7e-6, -kbar, -35e-6, 95e-6)}.items():
            grid = SpatialGrid(z_min, z_max, 3716, 2e-16)
            spec = WavepacketSpec(center=z0, sigma=4e-6, carrier_k=kk)
            psi = initial_gaussian(spec, grid, sub)
            potential = potential_on_grid(sub, grid)
            final = propagate(psi, potential, mass, grid.dz, grid.dt,
                              int(round(1.5e-12 / grid.dt)))
            totals[side] = norm(final, grid.dz)
        assert totals["left"] > 1.0 > totals["right"]

    def test_right_incidence_equals_mirrored_left(self, subcritical_params):
        # mirror the profile and the packet: totals agree to roundoff
        sub = subcritical_params
        mass = effective_mass(sub)
        kbar = carrier_for_energy(sub, 0.05)
        grid = SpatialGrid(-80e-6, 80e-6, 4000, 2e-16)
        potential = potential_on_grid(sub, grid)
        steps = int(round(0.9e-12 / grid.dt))
        right = initial_gaussian(
            WavepacketSpec(center=45e-6, sigma=3e-6, carrier_k=-kbar), grid, sub)
        total_right = norm(propagate(right, potential, mass, grid.dz, grid.dt, steps), grid.dz)
        left_mirrored = initial_gaussian(
            WavepacketSpec(center=-45e-6, sigma=3e-6, carrier_k=kbar), grid, sub)
        total_left = norm(propagate(left_mirrored, potential[::-1].copy(), mass,
                                    grid.dz, grid.dt, steps), grid.dz)
        assert abs(total_right - total_left) <= 1e-8 * total_right

    def test_grid_convergence_second_order(self, subcritical_params):
        # grids are aligned so the region boundaries stay on grid points at
        # every refinement; the transmitted fraction then converges at
        # second order in dz
        sub = subcritical_params
        spec = WavepacketSpec(center=-47.7e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(sub, 0.15))
        fractions = []
        for n in (2101, 4201, 8401):
            grid = SpatialGrid(-120e-6, 90e-6, n, 1e-16)
            result = scatter_packet(sub, spec, grid, 1.35e-12)
            fractions.append(result.transmitted)
        d_coarse = abs(fractions[1] - fractions[0])
        d_fine = abs(fractions[2] - fractions[1])
        assert d_fine < d_coarse
        assert d_fine < 4.0 * d_coarse
        assert 2.5 <= d_coarse / d_fine <= 7.0

    def test_boundary_contamination_detected(self, params):
        # a grid that ends right behind the packet gets contaminated fast
        grid = SpatialGrid(-60e-6, 2e-6, 2000, 1e-16)
        spec = WavepacketSpec(center=-33.7e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        with pytest.raises(BoundaryContaminationError):
            scatter_packet(params, spec, grid, 1.0e-12)

    @pytest.mark.parametrize("sigma, energy_ev", [(0.3e-6, 0.2), (0.1e-6, 0.2),
                                                  (0.59e-6, 0.2), (3e-6, 0.001)])
    def test_plan_without_time_budget_rejected(self, params, monkeypatch,
                                               sigma, energy_ev):
        # t = t_cross + 8.6 sigma(t) / v has no solution for sigma * k0 <= 4.3
        # (sigma <= 0.6 um at 0.2 eV, <= 8.5 um at 0.001 eV): no grid is built
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(tp, "SpatialGrid", no_grid)
        with pytest.raises(ValueError, match=r"sigma\*k0 = .* must exceed 4\.3"):
            plan_packet_run(params, sigma=sigma, energy=energy_ev * E_CHARGE)

    @pytest.mark.parametrize("sigma_k0", [4.3 * (1 + 1e-9), 4.33])
    def test_plan_over_point_step_limit_rejected(self, params, monkeypatch, sigma_k0):
        # just above sigma * k0 = 4.3 the budget is finite but huge (4.33 is
        # 0.604 um at 0.2 eV, 2.5e6 points x 1.9e4 steps): no grid is built
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(tp, "SpatialGrid", no_grid)
        sigma = sigma_k0 / carrier_for_energy(params, 0.2)
        with pytest.raises(ValueError, match=r"over the 5e\+10 point-solve limit"):
            plan_packet_run(params, sigma=sigma, energy=0.2 * E_CHARGE)

    @pytest.mark.parametrize("energy_ev, x", [(0.5000001, "1.10000002"), (1e4, "2001")])
    def test_plan_above_near_cutoff_regime_rejected(self, params, monkeypatch, energy_ev, x):
        # x = 1 + E / hbar omega_c above 1.10 (0.5 eV here, which still plans)
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(tp, "SpatialGrid", no_grid)
        with pytest.raises(ValueError, match=rf"omega/omega_c = {x} is above 1\.1,"):
            plan_packet_run(params, sigma=3e-6, energy=energy_ev * E_CHARGE)

    def test_plan_just_above_time_budget_limit(self, params):
        plan = plan_packet_run(params, sigma=0.61e-6, energy=0.2 * E_CHARGE)
        assert 4.3 < plan.spec.sigma * plan.spec.carrier_k < 4.4
        assert math.isfinite(plan.t_final)

    @pytest.mark.parametrize("sigma, energy_ev", [(0.61e-6, 0.2), (1e-6, 0.1), (2e-6, 0.02)])
    def test_plan_budget_is_fixed_point(self, params, sigma, energy_ev):
        # t = t_cross + 8.6 sigma(t) / v holds for the physical budget, the
        # planned t_final over the scheme's slowdown 1/phi'(theta); planned
        # only: these runs would be long (8,045 steps at 0.61 um)
        plan = plan_packet_run(params, sigma=sigma, energy=energy_ev * E_CHARGE)
        theta = energy_ev * E_CHARGE * plan.grid.dt / HBAR
        mass = effective_mass(params)
        v = HBAR * abs(plan.spec.carrier_k) / mass
        t_cross = (abs(plan.spec.center) + params.region_length) / v
        spread_rate = HBAR / (2.0 * mass * sigma ** 2)
        t = plan.t_final / pade_stretch(theta)
        budget = t_cross + 8.6 * sigma * math.sqrt(1.0 + (spread_rate * t) ** 2) / v
        assert abs(budget - t) <= 1e-12 * t
        if sigma == 0.61e-6:
            assert round(plan.t_final / plan.grid.dt) == 8_045

    @pytest.mark.parametrize("medium, capped", [
        ("params", {0.02, 0.03, 0.05, 0.1}), ("subcritical_params", {0.02, 0.03}),
        ("hermitian_params", set())])
    def test_planned_dt_from_carrier(self, request, medium, capped):
        # dt = theta hbar / E, unless that step would turn the strongest
        # potential by more than half the guard; planned only
        p = request.getfixturevalue(medium)
        vmax = abs(effective_potential(RegionKind.GAIN, p))
        seen = set()
        for energy_ev in (0.02, 0.03, 0.05, 0.1, 0.2, 0.3, 0.5):
            energy = energy_ev * E_CHARGE
            plan = plan_packet_run(p, sigma=3e-6, energy=energy)
            dt = plan.grid.dt
            tp._check_guard(potential_on_grid(p, plan.grid), dt)
            carrier_dt = tp.PACKET_THETA * HBAR / energy
            if carrier_dt * vmax / HBAR <= tp.POTENTIAL_PHASE_GUARD / 2:
                assert dt == pytest.approx(carrier_dt, rel=1e-12)
            else:
                seen.add(energy_ev)
                assert dt * vmax / HBAR == pytest.approx(tp.POTENTIAL_PHASE_GUARD / 2,
                                                         rel=1e-12)
        assert seen == capped

    @pytest.mark.parametrize("theta", [1.2, 0.3])
    def test_plan_stretch_is_inverse_phase_slope(self, params, theta):
        # the planned t_final over the physical budget (iterated here to its
        # fixed point) is 1/phi'(theta), phi the phase per step of the two
        # factored substeps at the carrier, differentiated numerically;
        # theta = 1.2 is the 0.2 eV carrier's, and 0.3 the guard's cap for
        # a carrier of 6 |V|max
        energy = (0.2 * E_CHARGE if theta == 1.2
                  else 6.0 * abs(effective_potential(RegionKind.GAIN, params)))
        plan = plan_packet_run(params, sigma=3e-6, energy=energy)
        assert energy * plan.grid.dt / HBAR == pytest.approx(theta, rel=1e-12)
        mass = effective_mass(params)
        v = HBAR * abs(plan.spec.carrier_k) / mass
        t_cross = (abs(plan.spec.center) + params.region_length) / v
        spread_rate = HBAR / (2.0 * mass * 3e-6 ** 2)
        budget = t_cross
        for _ in range(100):
            budget = t_cross + 8.6 * 3e-6 * math.sqrt(1.0 + (spread_rate * budget) ** 2) / v

        def phase(th):
            factor = 1.0
            for a in tp.PADE_SHIFTS:
                factor *= 2.0 / (1.0 + a * 1j * th) - 1.0
            return -np.angle(factor)

        h = 1e-4
        slope = (phase(theta + h) - phase(theta - h)) / (2.0 * h)
        assert plan.t_final / budget == pytest.approx(1.0 / slope, rel=1e-8)

    def test_low_carrier_right_run_matches_fine_step(self, subcritical_params):
        # `packet --config <hbar_omegap_ev = 0.1> --from right --energy-ev 0.02`:
        # T is 1.031589 with a 1e-16 s step; a Crank-Nicolson step of
        # theta = 0.3 misses it by 6e-4, its late outflow below the carrier
        # arriving too early
        plan = plan_packet_run(subcritical_params, sigma=3e-6, energy=0.02 * E_CHARGE,
                               from_left=False)
        result = scatter_packet(subcritical_params, plan.spec, plan.grid, plan.t_final)
        assert result.transmitted == pytest.approx(1.031589, abs=1e-5)

    def test_planned_dt_matches_fine_step(self, subcritical_params):
        # a draining plan (absorber first, regions shortened to 5 um): the
        # carrier-sized step gives the fractions of a 1e-16 s step run to the
        # unscaled budget, and leaves no more inside
        short = replace(subcritical_params, region_length=5e-6)
        plan = plan_packet_run(short, sigma=1.5e-6, energy=0.2 * E_CHARGE,
                               from_left=False)
        theta = 0.2 * E_CHARGE * plan.grid.dt / HBAR
        assert theta == pytest.approx(tp.PACKET_THETA, rel=1e-12)
        coarse = scatter_packet(short, plan.spec, plan.grid, plan.t_final)
        fine = scatter_packet(short, plan.spec, replace(plan.grid, dt=1e-16),
                              plan.t_final / pade_stretch(theta))
        assert coarse.transmitted == pytest.approx(fine.transmitted, rel=1e-5)
        assert coarse.reflected == pytest.approx(fine.reflected, rel=1e-5, abs=1e-6)
        assert coarse.interior_norm <= fine.interior_norm

    @pytest.mark.parametrize("from_left", [True, False])
    def test_fractions_partition_norm_where_potential_is(self, from_left):
        # on this plan one grid point sits exactly at +l: the potential puts
        # it in the right vacuum, and so must the fractions; each fraction is
        # the norm of one of three slices that tile the final state, cut
        # where the potential starts and ends
        params = from_config(Config(hbar_omegap_ev=0.1, region_length_um=10))
        plan = plan_packet_run(params, sigma=3e-6, energy=0.2 * E_CHARGE,
                               from_left=from_left)
        grid = plan.grid
        medium = np.flatnonzero(potential_on_grid(params, grid))
        start, stop = medium[0], medium[-1] + 1
        assert grid.z[stop] == params.region_length
        assert stop == (10708 if from_left else 8882)
        result = scatter_packet(params, plan.spec, grid, plan.t_final)
        absq = np.abs(result.states[-1][1]) ** 2
        left, inside, right = (float(np.sum(part) * grid.dz)
                               for part in (absq[:start], absq[start:stop], absq[stop:]))
        assert result.interior_norm == inside
        assert (result.reflected, result.transmitted) == (
            (left, right) if from_left else (right, left))
        assert absq[stop] > 0

    def test_unfinished_run_rejected(self, params):
        plan = plan_packet_run(params, sigma=3e-6, energy=0.2 * E_CHARGE)
        with pytest.raises(IncompleteScatterError):
            scatter_packet(params, plan.spec, plan.grid, 0.35e-12)

    def test_same_fields_as_propagate(self, params, default_packet_run):
        # scatter_packet and propagate consume the same step loop: on the same
        # grid, potential and step count their fields agree bit for bit
        plan, result = default_packet_run
        grid = plan.grid
        potential = potential_on_grid(params, grid)
        mass = effective_mass(params)
        # the final state continues the 0.4 ps snapshot
        (t_snapshot, recorded), (t_final, last) = result.states
        steps = [round(t / grid.dt) for t in (t_snapshot, t_final)]
        snapshot = propagate(initial_gaussian(plan.spec, grid, params), potential, mass,
                             grid.dz, grid.dt, steps[0])
        final = propagate(snapshot, potential, mass, grid.dz, grid.dt, steps[1] - steps[0])
        assert t_snapshot == steps[0] * grid.dt
        assert np.array_equal(recorded, snapshot)
        assert np.array_equal(last, final)
        assert norm(snapshot, grid.dz) > 2.0  # the packet has entered the gain section

    @pytest.mark.parametrize("t_final", [math.inf, math.nan, -1e-12, 0.0])
    def test_t_final_must_be_finite_and_positive(self, params, monkeypatch, t_final):
        # rejected before any step
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(tp, "_march", no_steps)
        plan = plan_packet_run(params, sigma=3e-6, energy=0.2 * E_CHARGE)
        with pytest.raises(ValueError, match=f"^t_final must be finite and positive, "
                                             f"got {t_final:g}$"):
            scatter_packet(params, plan.spec, plan.grid, t_final)

    def test_guard_rejects_large_dt(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-12)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        with pytest.raises(ValueError, match="dt too large"):
            scatter_packet(params, spec, grid, 1e-12)

    def test_fractions_below_residual(self, default_packet_run):
        _, result = default_packet_run
        assert result.interior_norm < result.transmitted < result.reflected
        assert fractions_below_residual(result) == ()
        assert fractions_below_residual(replace(result, reflected=1e-4)) == ("reflected",)
        assert fractions_below_residual(replace(result, interior_norm=2.0)) == ("transmitted",)
        assert fractions_below_residual(replace(result, interior_norm=40.0)) == (
            "transmitted", "reflected")
        # a fraction equal to the residual is not named
        assert fractions_below_residual(
            replace(result, transmitted=result.interior_norm)) == ()
        # a residual below the printed resolution unsettles nothing, however
        # small the fractions; at the resolution it names them again
        tiny = replace(result, reflected=8.6e-28, interior_norm=4.51e-18)
        assert fractions_below_residual(tiny) == ()
        assert fractions_below_residual(
            replace(tiny, interior_norm=PRINTED_RESOLUTION)) == ("reflected",)

    def test_record_times(self, default_packet_run):
        plan, result = default_packet_run
        assert len(result.states) == 2
        assert result.states[0][0] == pytest.approx(0.4e-12, rel=1e-6)
        assert result.states[-1][0] == pytest.approx(plan.t_final, rel=1e-3)


    def test_final_snapshot_kept_once(self, params):
        # requested times at and past t_final all fall on the final state
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        result = scatter_packet(params, spec, grid, 150 * grid.dt,
                                record_times=(50 * grid.dt, 150 * grid.dt, 1e-12))
        assert [round(t / grid.dt) for t, _ in result.states] == [50, 150]

    def test_surface_perfbench_reads(self, params):
        # perfbench/run.py sizes its packet checks from plan_packet_run's
        # grid and t_final; perfbench/traced_cli.py binds scatter_packet's
        # arguments by name and counts the result's states
        plan = plan_packet_run(params, sigma=3e-6, energy=0.2 * E_CHARGE, from_left=False)
        assert (plan.grid.n_points, round(plan.t_final / plan.grid.dt)) == (22235, 279)
        assert plan.grid.dz == (plan.grid.z_max - plan.grid.z_min) / (plan.grid.n_points - 1)
        parameters = inspect.signature(scatter_packet).parameters
        assert list(parameters)[2:] == ["grid", "t_final", "record_times"]
        assert parameters["record_times"].kind is inspect.Parameter.KEYWORD_ONLY
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        result = scatter_packet(params, spec, grid=grid, t_final=6 * grid.dt,
                                record_times=(2 * grid.dt, 4 * grid.dt))
        assert len(result.states) == 3


class TestPrediction:
    def test_prediction_positive_and_direction_dependent(self, params):
        kbar = carrier_for_energy(params, 0.2)
        left = transmission_prediction(
            params, WavepacketSpec(-40e-6, 3e-6, kbar))
        right = transmission_prediction(
            params, WavepacketSpec(40e-6, 3e-6, -kbar))
        assert left.transmitted == pytest.approx(right.transmitted, rel=1e-12)
        assert left.reflected > 1.0          # gain-side reflection amplifies
        assert right.reflected < 1e-2        # absorber-side reflection is tiny

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_array_prediction_matches_pointwise_solves(self, params, sign):
        # the same spectral average with one single-wavenumber solve each
        spec = WavepacketSpec(-40e-6 * sign, 3e-6, sign * carrier_for_energy(params, 0.2))
        got = transmission_prediction(params, spec)
        k0 = abs(spec.carrier_k)
        dk = PREDICTION_HALF_WIDTH / (2.0 * spec.sigma)
        ks = np.linspace(k0 - dk, k0 + dk, PREDICTION_POINTS)
        weights = np.exp(-2.0 * spec.sigma ** 2 * (ks - k0) ** 2)
        t2, r2 = [], []
        for k in ks:
            t, r_left, r_right, _, _ = amplitude_arrays(*approx_bilayer(
                params, HBAR * k * k / (2.0 * effective_mass(params))))
            t2.append(abs(complex(t)) ** 2)
            r2.append(abs(complex(r_left if sign > 0 else r_right)) ** 2)
        w = np.trapezoid(weights, ks)
        assert got.transmitted == pytest.approx(np.trapezoid(weights * t2, ks) / w, rel=1e-12)
        assert got.reflected == pytest.approx(np.trapezoid(weights * r2, ks) / w, rel=1e-12)

    @pytest.mark.parametrize("omegap_ev", [0.2, 0.1])
    @pytest.mark.parametrize("sigma_um", [3.0, 6.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_prediction_matches_reference_spectral_average(self, omegap_ev, sigma_um, sign):
        # perfbench/reference.py averages its own characteristic-matrix
        # amplitudes over 1,601 wavenumbers, the prediction the kernel's over
        # 4,001; both Gaussians are resolved far below 1e-10
        params = from_config(Config(hbar_omegap_ev=omegap_ev))
        sigma = sigma_um * 1e-6
        got = transmission_prediction(
            params, WavepacketSpec(-40e-6 * sign, sigma, sign * carrier_for_energy(params, 0.2)))
        t2, r2_left, r2_right = reference.packet_fractions(
            reference.Medium.from_ev(omegap_ev=omegap_ev), sigma, 0.2)
        assert got.transmitted == pytest.approx(t2, rel=1e-10)
        assert got.reflected == pytest.approx(r2_left if sign > 0 else r2_right, rel=1e-10)

    def test_singular_spectrum_point_raises(self, params, monkeypatch):
        # a spectral singularity inside the packet spectrum has no stationary
        # prediction: the flagged point raises instead of averaging nan
        def flag_middle(k_outer, layers):
            t, r_left, r_right, singular, t_mirrored = amplitude_arrays(k_outer, layers)
            singular = singular.copy()
            singular[singular.size // 2] = True
            return t, r_left, r_right, singular, t_mirrored

        monkeypatch.setattr(tp, "amplitude_arrays", flag_middle)
        spec = WavepacketSpec(-40e-6, 3e-6, carrier_for_energy(params, 0.2))
        with pytest.raises(SpectralSingularityError, match="spectral singularity at k"):
            transmission_prediction(params, spec)
