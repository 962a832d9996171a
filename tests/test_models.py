import math

import numpy as np
import pytest
import reference
from conftest import kernel_amplitudes, max_relative_difference
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ode_amplitudes

from ptwaveguide.helmholtz import amplitude_arrays, flux_sums, transfer_arrays
from ptwaveguide.medium import RegionKind, effective_mass, effective_potential, \
    from_config, k_squared_approx
from ptwaveguide.models import (MAX_SWEEP_POINTS, STATUS_OK, BelowCutoffError, ModelKind,
                                approx_bilayer, bilayer, evaluate_row,
                                exact_bilayer, pt_defect, sweep, sweep_grid)
from ptwaveguide.quantities import HBAR, Config

# Frequencies of test_regression_pins: the growth end, the fringes below
# x = 1.02, the low-energy asymmetry's edge and the tail.
PIN_X = (1.0005, 1.005, 1.01, 1.0197017543859648, 1.03, 1.05, 1.08, 1.1)

# Near-threshold points (hbar omega_p in eV, omega/omega_c) of
# test_kernel_matches_50_digits_near_threshold: the laser point of the
# 0.1499512 eV medium and three detunings from it, the near-cutoff threshold
# of the 0.0902994 eV medium, and the growth end of the reference medium.
THRESHOLD_POINTS = ([(0.1499512, x) for x in (1.009042366, 1.0090424, 1.00904, 1.0091)]
                    + [(0.0902994, 1.001762246)]
                    + [(0.2, x) for x in (1.0005, 1.00075, 1.001)])


class TestStacks:
    def test_exact_outer_wavenumber(self, params):
        k_outer, layers = exact_bilayer(params, 1.01 * params.omega_c)
        assert k_outer == pytest.approx(3592374.1534089535, rel=1e-3)
        assert len(layers) == 2
        assert layers[0][1] == params.region_length
        # gain layer first (negative imaginary part), absorber second
        assert layers[0][0].imag < 0 < layers[1][0].imag

    def test_approx_outer_wavenumber(self, params):
        k_outer, _ = approx_bilayer(params, 0.01 * params.omega_c)
        assert k_outer == pytest.approx(3583426.75681718, rel=1e-3)

    def test_below_cutoff_rejected(self, params):
        with pytest.raises(BelowCutoffError):
            exact_bilayer(params, params.omega_c)
        with pytest.raises(BelowCutoffError):
            approx_bilayer(params, 0.0)

    def test_schrodinger_identity(self, params):
        # 2m(E - V)/hbar^2 reproduces the truncated k^2 for every region
        mass = effective_mass(params)
        for kind in RegionKind:
            for frac in (1e-4, 0.007, 0.05):
                detuning = frac * params.omega_c
                energy = HBAR * detuning
                v = effective_potential(kind, params)
                lhs = 2.0 * mass * (energy - v) / HBAR ** 2
                rhs = k_squared_approx(kind, detuning, params)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_medium_off_is_transparent(self, hermitian_params):
        for model in ModelKind:
            t, r_left, r_right, _ = amplitude_arrays(
                *bilayer(model, hermitian_params, 1.01 * hermitian_params.omega_c))
            s_left, s_right = flux_sums(t, r_left, r_right)
            assert s_left == pytest.approx(1.0, abs=1e-10)
            assert s_right == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("omegap_ev, x", THRESHOLD_POINTS)
    def test_kernel_matches_50_digits_near_threshold(self, model, omegap_ev, x):
        # Near a pole m22 is a small difference of terms of the size of
        # sum |m_ij|, so rounding in the kernel and in its inputs (omega and
        # k^2, formed by the package's own arithmetic) leaves m22 an absolute
        # error of up to ~200 ulps of sum |m_ij|.  t, r_left and r_right are
        # all divided by m22, so their relative error grows as 1 / residual,
        # residual = |m22| / sum |m_ij|.  The bound max(1e-11, 1e-13 /
        # residual) is at least twice the error at each of these points (the
        # largest, 4.6e-8, at residual 1.05e-7).
        params = from_config(Config(hbar_omegap_ev=omegap_ev))
        stack = bilayer(model, params, x * params.omega_c)
        m = [complex(entry) for entry in transfer_arrays(*stack)]
        residual = abs(m[3]) / sum(map(abs, m))
        bound = max(1e-11, 1e-13 / residual)
        expected = reference.mp_amplitudes(
            model.value, reference.Medium.from_ev(omegap_ev=omegap_ev), x)
        for got, want in zip(amplitude_arrays(*stack)[:3], expected):
            assert abs(complex(got) - want) <= bound * abs(want)


class TestPtDefect:
    def test_exact_zero_at_cutoff(self, params):
        assert pt_defect(params, params.omega_c) <= 1e-12

    def test_exact_increasing_samples(self, params):
        vals = [pt_defect(params, x * params.omega_c)
                for x in (1.01, 1.05, 1.10)]
        assert vals[0] < vals[1] < vals[2]

    def test_below_cutoff_rejected(self, params):
        with pytest.raises(BelowCutoffError):
            pt_defect(params, 0.99 * params.omega_c)


class TestSweep:
    def test_grid_endpoints(self, params):
        table = sweep(params, 1.01, 1.02, 2)
        assert table.omega_over_omegac.tolist() == [1.01, 1.02]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_grid(0.9, 1.1, 10)
        with pytest.raises(ValueError):
            sweep_grid(1.1, 1.05, 10)
        with pytest.raises(ValueError):
            sweep_grid(1.01, 1.1, 1)
        for start, stop in ((math.nan, 1.1), (1.01, math.nan), (1.01, math.inf),
                            (math.inf, 1.1)):
            with pytest.raises(ValueError):
                sweep_grid(start, stop, 10)

    def test_grid_point_cap(self):
        assert sweep_grid(1.0005, 1.1, MAX_SWEEP_POINTS).size == MAX_SWEEP_POINTS
        with pytest.raises(ValueError, match=f"^need at most {MAX_SWEEP_POINTS} points, "
                                             f"got {MAX_SWEEP_POINTS + 1}$"):
            sweep_grid(1.0005, 1.1, MAX_SWEEP_POINTS + 1)

    @pytest.mark.parametrize("start, stop, n", [(1.0005, 1.10, 400), (1.001, 1.05, 9),
                                                (1.00041, 1.1007, 40_000)])
    def test_grid_matches_python_loop(self, start, stop, n):
        # start + i * step in Python floats, the grid's reference arithmetic
        step = (stop - start) / (n - 1)
        assert sweep_grid(start, stop, n).tolist() == [start + i * step for i in range(n)]

    def test_low_energy_asymmetry_row(self, params):
        row = evaluate_row(params, 1.005, tuple(ModelKind))
        for model in ModelKind:
            col = row.models[model]
            assert col.s_left[0] > 1.0
            assert col.s_right[0] < 1.0

    def test_regression_pins(self, params):
        # log10 flux sums of both models on the reference medium against the
        # 50-digit characteristic-matrix product of perfbench/reference.py
        table = evaluate_row(params, PIN_X, tuple(ModelKind))
        medium = reference.Medium.from_ev()
        for model, col in table.models.items():
            for i, x in enumerate(PIN_X):
                left, right = reference.flux_sums(
                    *reference.mp_amplitudes(model.value, medium, x))
                assert math.log10(col.s_left[i]) == pytest.approx(math.log10(left), abs=1e-9)
                assert math.log10(col.s_right[i]) == pytest.approx(math.log10(right),
                                                                   abs=1e-9)

    def test_agreement_window(self, params):
        # pointwise log10 agreement of the two models on the default grid:
        # within 0.05 up to x = 1.0158; bounded by 0.65 up to 1.02, where
        # slightly shifted interference fringes dominate the comparison
        # (bounds validated against the adaptive-ODE cross-check before
        # freezing; see test_acceptance for the envelope assertions)
        worst_inner = 0.0
        worst_window = 0.0
        for x in sweep_grid(1.0005, 1.10, 400):
            if x >= 1.02:
                break
            row = evaluate_row(params, x, tuple(ModelKind))
            e = row.models[ModelKind.EXACT]
            a = row.models[ModelKind.APPROXIMATE]
            for se, sa in ((e.s_left[0], a.s_left[0]), (e.s_right[0], a.s_right[0])):
                le, la = math.log10(se), math.log10(sa)
                metric = abs(le - la) / max(1.0, abs(le))
                worst_window = max(worst_window, metric)
                if x < 1.0158:
                    worst_inner = max(worst_inner, metric)
        assert worst_inner <= 0.05
        assert worst_window <= 0.65

    def test_agreement_improves_toward_cutoff(self, params):
        # the truncation error of the reduced model shrinks with detuning
        for side in ("s_left", "s_right"):
            devs = []
            for frac in (1e-3, 1e-2):
                row = evaluate_row(params, 1.0 + frac, tuple(ModelKind))
                e = getattr(row.models[ModelKind.EXACT], side)[0]
                a = getattr(row.models[ModelKind.APPROXIMATE], side)[0]
                devs.append(abs(e - a) / e)
            assert devs[0] < devs[1]

    def test_swap_layers_swaps_sides(self, params):
        for model in ModelKind:
            k_outer, layers = bilayer(model, params, 1.013 * params.omega_c)
            t_a, r_left_a, r_right_a, _ = amplitude_arrays(k_outer, layers)
            t_b, r_left_b, r_right_b, _ = amplitude_arrays(k_outer, layers[::-1])
            s = flux_sums(t_a, r_left_a, r_right_a)
            t = flux_sums(t_b, r_left_b, r_right_b)
            assert s[0] == pytest.approx(t[1], rel=1e-10)
            assert s[1] == pytest.approx(t[0], rel=1e-10)

    def test_hermitian_sweep_is_unitary(self, hermitian_params):
        for col in sweep(hermitian_params, 1.0005, 1.10, 50).models.values():
            for s_left, s_right in zip(col.s_left, col.s_right):
                assert s_left == pytest.approx(1.0, abs=1e-10)
                assert s_right == pytest.approx(1.0, abs=1e-10)

    def test_rows_match_pointwise_evaluation(self, params):
        # the array kernel over the grid against one single-frequency solve
        # per row, with the flux sums as Python's abs(complex) ** 2
        table = sweep(params, 1.0005, 1.10, 60)
        for model, col in table.models.items():
            assert (col.status == STATUS_OK).all()
            for i, x in enumerate(table.omega_over_omegac.tolist()):
                t, r_left, _, r_right = kernel_amplitudes(
                    *bilayer(model, params, x * params.omega_c))
                s_left = abs(t) ** 2 + abs(r_left) ** 2
                s_right = abs(t) ** 2 + abs(r_right) ** 2
                scale = math.sqrt(col.s_left[i] + col.s_right[i])
                for got, want in ((col.t[i], t), (col.r_left[i], r_left),
                                  (col.r_right[i], r_right)):
                    assert abs(got - want) <= 1e-13 * scale
                assert col.s_left[i] == pytest.approx(s_left, rel=1e-13)
                assert col.s_right[i] == pytest.approx(s_right, rel=1e-13)

    @given(st.floats(min_value=1.0002, max_value=1.1))
    @settings(max_examples=40, deadline=None)
    def test_approx_generalized_unitarity_everywhere(self, params, x):
        t, r_left, _, r_right = kernel_amplitudes(
            *approx_bilayer(params, (x - 1.0) * params.omega_c))
        cross = r_left.conjugate() * r_right
        assert abs(abs(t) ** 2 + cross - 1.0) <= 1e-8
        assert abs(cross.imag) <= 1e-8
        assert abs((t.conjugate() * r_left).real) <= 1e-8
        assert abs((t.conjugate() * r_right).real) <= 1e-8

    def test_exact_model_oracle_spot_check(self, params):
        stack = exact_bilayer(params, 1.0197 * params.omega_c)
        rel = max_relative_difference(kernel_amplitudes(*stack), ode_amplitudes(*stack))
        assert rel < 1e-6
