import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from ptwaveguide.helmholtz import amplitudes
from ptwaveguide.medium import (MediumParams, effective_mass,
                                effective_potential, region_at)
from ptwaveguide.models import build_approx_stack
from ptwaveguide.quantities import E_CHARGE, HBAR
from ptwaveguide.timeprop import (BoundaryContaminationError,
                                  IncompleteScatterError, PlacementError,
                                  SpatialGrid, WavepacketSpec, WavepacketState,
                                  _march, fractions_below_residual,
                                  initial_gaussian, norm, norm_balance_residual,
                                  plan_packet_run, potential_on_grid, propagate,
                                  scatter_packet, transmission_prediction)


def carrier_for_energy(params, energy_ev: float) -> float:
    return math.sqrt(2.0 * effective_mass(params) * energy_ev * E_CHARGE) / HBAR


def banded_steps(psi, potential, mass, dz, dt, n_steps):
    """Reference stepper: the implicit midpoint rule with a full banded
    solve (scipy.linalg.solve_banded) per step; returns every state."""
    gamma = 1j * HBAR * dt / (4.0 * mass * dz * dz)
    vfac = 1j * dt / (2.0 * HBAR) * potential
    lhs = np.zeros((3, potential.size), dtype=complex)
    lhs[0, 1:] = -gamma
    lhs[1, :] = 1.0 + 2.0 * gamma + vfac
    lhs[2, :-1] = -gamma
    rhs_main = 1.0 - 2.0 * gamma - vfac
    states = []
    for _ in range(n_steps):
        rhs = rhs_main * psi
        rhs[1:] += gamma * psi[:-1]
        rhs[:-1] += gamma * psi[1:]
        psi = scipy.linalg.solve_banded((1, 1), lhs, rhs)
        psi[0] = 0.0
        psi[-1] = 0.0
        states.append(psi)
    return states


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the stepper's zgttrf and zgttrs calls."""
    calls = {"zgttrf": 0, "zgttrs": 0}
    for name in calls:
        original = getattr(scipy.linalg.lapack, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, counted)
    return calls


class TestGaussian:
    def test_unit_norm(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 4000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        state = initial_gaussian(spec, grid, params)
        assert norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_carrier_expectation(self, params):
        # sigma = 57 dz; the central-difference estimator carries a
        # (k dz)^2/6 bias, so keep the carrier low enough for the 0.1% check
        grid = SpatialGrid(-80e-6, 60e-6, 4000, 1e-16)
        kbar = carrier_for_energy(params, 0.01)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6, carrier_k=kbar)
        state = initial_gaussian(spec, grid, params)
        dz = grid.dz
        psi = state.psi
        dpsi = (psi[2:] - psi[:-2]) / (2 * dz)
        k_mean = float(np.sum(np.imag(psi[1:-1].conjugate() * dpsi)) * dz)
        assert k_mean == pytest.approx(kbar, rel=1e-3)

    def test_spectral_width(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 8192, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        state = initial_gaussian(spec, grid, params)
        ks = 2 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dz)
        power = np.abs(np.fft.fft(state.psi)) ** 2
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


class TestCrankNicolson:
    def test_free_single_step_norm(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-50e-6, sigma=4e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        state = initial_gaussian(spec, grid, params)
        potential = np.zeros(grid.n_points, dtype=complex)
        out = propagate(state, potential, effective_mass(params), grid.dt, 1)[-1]
        assert norm(out) == pytest.approx(1.0, abs=1e-12)
        assert out.t == grid.dt

    @pytest.mark.parametrize("sign", [-1.0, +1.0])
    def test_uniform_imaginary_potential(self, params, sign):
        # norm follows exp(-+ 2|V|t/hbar); the CN deviation is the kinetic
        # cross term (E dt / 2 hbar)^2 per unit rate, quartering with dt/2
        grid_dt = {1e-16: None, 5e-17: None}
        vmag = 0.008 * E_CHARGE
        mass = effective_mass(params)
        for dt in grid_dt:
            grid = SpatialGrid(-80e-6, 60e-6, 3000, dt)
            spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                                  carrier_k=carrier_for_energy(params, 0.2))
            state = initial_gaussian(spec, grid, params)
            potential = np.full(grid.n_points, sign * 1j * vmag, dtype=complex)
            steps = int(round(4e-14 / dt))
            final = propagate(state, potential, mass, dt, steps)[-1]
            expected = math.exp(sign * 2.0 * vmag * steps * dt / HBAR)
            grid_dt[dt] = abs(norm(final) - expected) / expected
        assert grid_dt[1e-16] < 5e-4
        assert grid_dt[5e-17] < 0.3 * grid_dt[1e-16]

    def test_potential_matches_pointwise_regions(self, params):
        # a power-of-two region length puts -l, 0 and l exactly on grid points
        l = 2.0 ** -15
        params = MediumParams.tuned(params.omega0, params.omega_p, params.delta, l)
        grid = SpatialGrid(-2 * l, 2 * l, 257, 1e-16)
        expected = [effective_potential(region_at(z, params), params) for z in grid.z]
        potential = potential_on_grid(params, grid)
        assert np.any(grid.z == -l) and np.any(grid.z == 0) and np.any(grid.z == l)
        assert np.array_equal(potential, np.array(expected, dtype=complex))

    def test_guard_rejects_large_dt(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-12)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        state = initial_gaussian(spec, grid, params)
        potential = potential_on_grid(params, grid)
        with pytest.raises(ValueError, match="dt too large"):
            propagate(state, potential, effective_mass(params), grid.dt, 1)


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
        states = propagate(WavepacketState(psi=psi, t=0.0, grid=grid), potential,
                           mass, grid.dt, 300, record_every=1)
        expected = banded_steps(psi, potential, mass, grid.dz, grid.dt, 300)
        assert np.any(np.imag(potential) != 0)
        assert len(states) == 301
        assert all(np.array_equal(s.psi, e) for s, e in zip(states[1:], expected))

    def test_one_factorization_per_run(self, params, lapack_calls):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        propagate(initial_gaussian(spec, grid, params), potential_on_grid(params, grid),
                  effective_mass(params), grid.dt, 7)
        assert lapack_calls == {"zgttrf": 1, "zgttrs": 7}

    def test_nan_field_rejected(self, params):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-40e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        state = initial_gaussian(spec, grid, params)
        state.psi[1500] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            propagate(state, potential_on_grid(params, grid), effective_mass(params),
                      grid.dt, 3)

    def test_nonfinite_potential_rejected_before_stepping(self, params, lapack_calls):
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        potential = potential_on_grid(params, grid)
        potential[2000] = complex(0.0, np.nan)
        steps = _march(np.ones(grid.n_points, dtype=complex), potential,
                       effective_mass(params), grid.dz, grid.dt, 3)
        with pytest.raises(ValueError, match="infs or NaNs"):
            next(steps)
        assert lapack_calls == {"zgttrf": 0, "zgttrs": 0}


class TestNormBalance:
    def _trajectory(self, params, dt, steps, potential=None, n=3000):
        grid = SpatialGrid(-55e-6, 45e-6, n, dt)
        spec = WavepacketSpec(center=-34e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        state = initial_gaussian(spec, grid, params)
        if potential is None:
            potential = potential_on_grid(params, grid)
        return propagate(state, potential, effective_mass(params), dt, steps,
                         record_every=1), potential

    def test_real_potential_conserves(self, params):
        potential = np.full(3000, 0.001 * E_CHARGE, dtype=complex)
        traj, _ = self._trajectory(params, 1e-16, 300, potential=potential)
        assert norm_balance_residual(traj, potential) <= 1e-10

    def test_reference_potential_residual_and_dt_scaling(self, params):
        residuals = {}
        for dt in (2e-16, 1e-16):
            traj, potential = self._trajectory(params, dt, int(round(8e-14 / dt)),
                                               n=5000)
            residuals[dt] = norm_balance_residual(traj, potential)
        assert residuals[1e-16] <= 1e-6
        # second-order stepping: halving dt divides the residual by ~4
        assert 3.0 <= residuals[2e-16] / residuals[1e-16] <= 5.0

    def test_uniform_imaginary_consistent(self, params):
        vmag = 0.008 * E_CHARGE
        potential = np.full(3000, -1j * vmag, dtype=complex)
        traj, _ = self._trajectory(params, 1e-16, 300, potential=potential)
        residual = norm_balance_residual(traj, potential)
        # dominated by the kinetic cross term (E dt / 2 hbar)^2-scale
        assert residual <= 1e-3
        traj2, _ = self._trajectory(params, 5e-17, 600, potential=potential)
        assert norm_balance_residual(traj2, potential) <= 0.3 * residual

    def test_requires_three_states(self, params):
        traj, potential = self._trajectory(params, 1e-16, 1)
        with pytest.raises(ValueError):
            norm_balance_residual(traj[:2], potential)


class TestScatter:
    def test_medium_off_is_transparent(self, hermitian_params):
        plan = plan_packet_run(hermitian_params, sigma=2e-6,
                               energy=0.2 * E_CHARGE)
        result = scatter_packet(hermitian_params, plan.spec, plan.grid,
                                plan.t_final)
        assert result.transmitted == pytest.approx(1.0, abs=1e-6)
        assert abs(result.norm_gain) <= 1e-6
        assert result.reflected <= 1e-8

    def test_left_incidence_gains_norm(self, default_packet_run):
        # gain region is met first: the scattered packet carries extra norm
        _, result = default_packet_run
        assert result.total > 1.0
        assert result.transmitted == pytest.approx(result.predicted_transmitted,
                                                   rel=2e-2)
        assert result.reflected == pytest.approx(result.predicted_reflected,
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
            state = initial_gaussian(spec, grid, sub)
            potential = potential_on_grid(sub, grid)
            final = propagate(state, potential, mass, grid.dt,
                              int(round(1.5e-12 / grid.dt)))[-1]
            totals[side] = norm(final)
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
        total_right = norm(propagate(right, potential, mass, grid.dt, steps)[-1])
        left_mirrored = initial_gaussian(
            WavepacketSpec(center=-45e-6, sigma=3e-6, carrier_k=kbar), grid, sub)
        total_left = norm(propagate(left_mirrored, potential[::-1].copy(), mass,
                                    grid.dt, steps)[-1])
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
            scatter_packet(params, spec, grid, 1.0e-12, check_every=50)

    def test_unfinished_run_rejected(self, params):
        plan = plan_packet_run(params, sigma=3e-6, energy=0.2 * E_CHARGE)
        with pytest.raises(IncompleteScatterError):
            scatter_packet(params, plan.spec, plan.grid, 0.35e-12)

    def test_same_fields_as_propagate(self, params):
        # scatter_packet and propagate consume the same step loop: on the same
        # grid, potential and step count their fields agree bit for bit
        grid = SpatialGrid(-80e-6, 60e-6, 3000, 1e-16)
        spec = WavepacketSpec(center=-32e-6, sigma=2e-6,
                              carrier_k=carrier_for_energy(params, 0.2))
        result = scatter_packet(params, spec, grid, 2000 * grid.dt, interior_tol=1.0,
                                record_times=(1000 * grid.dt,))
        states = propagate(initial_gaussian(spec, grid, params),
                           potential_on_grid(params, grid), effective_mass(params),
                           grid.dt, 2000, record_every=1000)
        assert [s.t for s in result.states] == [s.t for s in states[1:]]
        assert np.array_equal(result.states[0].psi, states[1].psi)
        assert np.array_equal(result.states[-1].psi, states[-1].psi)
        assert norm(states[-1]) > 2.0  # the packet has entered the gain section

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

    def test_record_times(self, default_packet_run):
        plan, result = default_packet_run
        assert len(result.states) == 2
        assert result.states[0].t == pytest.approx(0.4e-12, rel=1e-6)
        assert result.states[-1].t == pytest.approx(plan.t_final, rel=1e-3)


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
        # the same spectral average with one scalar stack solve per wavenumber
        spec = WavepacketSpec(-40e-6 * sign, 3e-6, sign * carrier_for_energy(params, 0.2))
        n, half_width = 201, 8.0
        got = transmission_prediction(params, spec, n_points=n, half_width=half_width)
        k0 = abs(spec.carrier_k)
        dk = half_width / (2.0 * spec.sigma)
        ks = np.linspace(k0 - dk, k0 + dk, n)
        weights = np.exp(-2.0 * spec.sigma ** 2 * (ks - k0) ** 2)
        t2, r2 = [], []
        for k in ks:
            amp = amplitudes(build_approx_stack(
                params, HBAR * k * k / (2.0 * effective_mass(params))))
            t2.append(abs(amp.t_left) ** 2)
            r2.append(abs(amp.r_left if sign > 0 else amp.r_right) ** 2)
        w = np.trapezoid(weights, ks)
        assert got.transmitted == pytest.approx(np.trapezoid(weights * t2, ks) / w, rel=1e-12)
        assert got.reflected == pytest.approx(np.trapezoid(weights * r2, ks) / w, rel=1e-12)
