import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptwaveguide.medium import (MediumParams, ParameterError, RegionKind,
                                effective_mass, effective_potential,
                                k_squared_approx, k_squared_exact, permittivity)
from ptwaveguide.models import pt_defect
from ptwaveguide.quantities import C, E_CHARGE, HBAR, ev_to_angular
from ptwaveguide.timeprop import SpatialGrid, potential_on_grid

# Gain/loss wavenumber scale at cutoff for the reference medium,
# omega_c * omega_p^2 / (2 c^2 delta), frozen from a direct evaluation.
K_CUTOFF = 2054551571435.728


class TestParams:
    def test_tuned_couples_cutoff_to_resonance(self, params, subcritical_params):
        # the width is derived from the resonance and the cutoff from the
        # width, by exactly this arithmetic (0.2 eV and 0.1 eV media)
        for p in (params, subcritical_params):
            assert p.slab_width == C * math.pi / p.omega0
            assert p.omega_c == C * math.pi / (C * math.pi / p.omega0)
            assert abs(p.omega_c - p.omega0) <= 1e-9 * p.omega0

    def test_regime_ratios(self, params):
        # omega_p^2/delta^2 and omega_p^2/(delta*omega_c) at the reference values
        assert params.regime_ratio_damping == pytest.approx(0.0256, rel=1e-12)
        assert params.regime_ratio_cutoff == pytest.approx(0.0064, rel=1e-12)
        assert params.regime_ratio == pytest.approx(0.0256, rel=1e-12)

    def test_out_of_regime_warns(self, caplog):
        with caplog.at_level("WARNING", logger="ptwaveguide.medium"):
            MediumParams(omega0=ev_to_angular(5.0),
                         omega_p=ev_to_angular(2.0),
                         delta=ev_to_angular(1.25),
                         region_length=19.7e-6)
        assert any("regime" in rec.message for rec in caplog.records)

    def test_positivity(self):
        with pytest.raises(ParameterError):
            MediumParams(omega0=-1.0, omega_p=1e14, delta=1e15,
                         region_length=19.7e-6)
        with pytest.raises(ParameterError):
            MediumParams(omega0=1e15, omega_p=-1e14, delta=1e15,
                         region_length=19.7e-6)
        with pytest.raises(ParameterError):  # nan fails every comparison
            MediumParams(omega0=math.nan, omega_p=1e14, delta=1e15,
                         region_length=19.7e-6)


class TestRegionProfile:
    # a power-of-two region length L puts -L, 0 and L exactly on the points
    # 64, 128 and 192 of 257 on [-2L, 2L]
    L = 2.0 ** -15

    @pytest.fixture(scope="class")
    def signs(self, params):
        """The grid and the sign of the resonant term at each of its points,
        read off the potential: +i|V| is gain (-1), -i|V| absorbing (+1)."""
        grid = SpatialGrid(-2 * self.L, 2 * self.L, 257, 1e-16)
        potential = potential_on_grid(replace(params, region_length=self.L), grid)
        return grid, -np.sign(potential.imag).astype(int)

    def test_region_values(self, signs):
        _, sign = signs
        expected = np.repeat([0, -1, +1, 0], [64, 64, 64, 65])
        assert np.array_equal(sign, expected)

    def test_right_continuous_boundaries(self, signs):
        grid, sign = signs
        assert grid.z[[64, 128, 192]].tolist() == [-self.L, 0.0, self.L]
        assert sign[[64, 128, 192]].tolist() == [-1, +1, 0]
        assert sign[[63, 127, 191]].tolist() == [0, -1, +1]

    def test_region_kinds(self):
        # vacuum is no kind: outside the medium the models compute their own
        # exterior wavenumber, and the packet grid's potential is zero
        assert [(kind.name, kind.sign) for kind in RegionKind] == [
            ("GAIN", -1), ("ABSORBING", +1)]


class TestPermittivity:
    def test_absorbing_at_resonance(self, params):
        # at resonance eps = 1 + i sign * omega_p^2 / (2 delta omega0) = 1 + 0.0032i
        eps = permittivity(RegionKind.ABSORBING, params.omega0, params)
        assert eps.real == pytest.approx(1.0, abs=1e-12)
        assert eps.imag == pytest.approx(0.0032, abs=1e-6)

    def test_gain_at_resonance_is_conjugate(self, params):
        eps_g = permittivity(RegionKind.GAIN, params.omega0, params)
        eps_a = permittivity(RegionKind.ABSORBING, params.omega0, params)
        assert eps_g == pytest.approx(eps_a.conjugate(), rel=1e-15)

    def test_nonpositive_frequency_rejected(self, params):
        with pytest.raises(ValueError):
            permittivity(RegionKind.GAIN, 0.0, params)

    @given(st.floats(min_value=1e-3, max_value=2.0))
    def test_sign_convention(self, params, frac):
        # Im eps > 0 absorbing, < 0 gain, over (0, 2 omega0)
        omega = frac * params.omega0
        assert permittivity(RegionKind.ABSORBING, omega, params).imag > 0
        assert permittivity(RegionKind.GAIN, omega, params).imag < 0


class TestWavenumbers:
    def test_absorbing_at_cutoff(self, params):
        # real part cancels exactly at the tuned resonance; the imaginary
        # part is omega_c omega_p^2 / (2 c^2 delta)
        k2 = k_squared_exact(RegionKind.ABSORBING, params.omega_c, params)
        assert k2.imag == pytest.approx(K_CUTOFF, rel=1e-3)
        assert abs(k2.real) < 1e-12 * abs(k2)

    def test_gain_at_cutoff_is_conjugate(self, params):
        g = k_squared_exact(RegionKind.GAIN, params.omega_c, params)
        a = k_squared_exact(RegionKind.ABSORBING, params.omega_c, params)
        assert g == pytest.approx(a.conjugate(), rel=1e-14)

    def test_resonance_identity(self, params):
        # zero-detuning truncation equals the dispersive value at cutoff
        for kind in RegionKind:
            exact = k_squared_exact(kind, params.omega_c, params)
            approx = k_squared_approx(kind, 0.0, params)
            assert abs(exact - approx) <= 1e-12 * max(abs(exact), K_CUTOFF)

    def test_absorbing_small_detuning(self, params):
        # 2 omega_c^2 * 1e-3 / c^2 plus the cutoff-scale imaginary part
        k2 = k_squared_approx(RegionKind.ABSORBING, 1e-3 * params.omega_c, params)
        assert k2.real == pytest.approx(1.284094732147330e12, rel=1e-3)
        assert k2.imag == pytest.approx(K_CUTOFF, rel=1e-3)

    @given(st.floats(min_value=-0.1, max_value=0.1))
    def test_truncation_is_mirror_conjugate(self, params, frac):
        detuning = frac * params.omega_c
        g = k_squared_approx(RegionKind.GAIN, detuning, params)
        a = k_squared_approx(RegionKind.ABSORBING, detuning, params)
        assert g == a.conjugate()  # bitwise, by construction

    def test_raw_mirror_defect_zero_at_cutoff(self, params):
        assert pt_defect(params, params.omega_c) <= 1e-12

    def test_raw_mirror_defect_increasing(self, params):
        xs = [1.0 + 0.011 * i for i in range(10)]
        vals = [pt_defect(params, x * params.omega_c) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_expansion_consistency(self, params):
        # relative truncation error shrinks linearly in the detuning; the
        # clean decade is 1e-5 -> 1e-4 of the cutoff, where the gain/loss
        # term still dominates the wavenumber scale
        for kind in RegionKind:
            ratios = []
            for frac in (1e-5, 1e-4, 1e-3):
                omega = (1.0 + frac) * params.omega_c
                exact = k_squared_exact(kind, omega, params)
                approx = k_squared_approx(kind, frac * params.omega_c, params)
                ratios.append(abs(exact - approx) / abs(exact))
            assert ratios[0] < ratios[1] < ratios[2]
            assert ratios[1] / ratios[0] > 8.0


class TestEffective:
    def test_absorbing_potential(self, params):
        # -i * (hbar omega_p)^2/(4 hbar delta) = -0.008i eV
        v = effective_potential(RegionKind.ABSORBING, params)
        assert v.real == 0.0
        assert v.imag / E_CHARGE == pytest.approx(-0.008, abs=1e-5)

    def test_gain_is_conjugate(self, params):
        v_g = effective_potential(RegionKind.GAIN, params)
        v_a = effective_potential(RegionKind.ABSORBING, params)
        assert v_g == v_a.conjugate()
        assert v_g.imag > 0  # amplifying

    def test_mass_value(self, params):
        m = effective_mass(params)
        assert m == pytest.approx(8.913309608139488e-36, rel=1e-3)
        assert m == pytest.approx(5.0 * E_CHARGE / C ** 2, rel=2e-9 + 1e-12)

    def test_mass_inverts_to_cutoff(self, params):
        assert effective_mass(params) * C ** 2 / HBAR == \
            pytest.approx(params.omega_c, rel=1e-12)

    def test_mass_scales_inverse_width(self, params):
        # replacing the resonance retunes the width with it
        wider = replace(params, omega0=params.omega0 / 2)
        assert wider.slab_width == 2 * params.slab_width
        assert effective_mass(wider) == pytest.approx(effective_mass(params) / 2,
                                                      rel=1e-12)
