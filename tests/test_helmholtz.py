import cmath
import math

import numpy as np
import pytest
from conftest import kernel_amplitudes, max_relative_difference
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import growth_exponent, ode_amplitudes

import ptwaveguide.helmholtz as hh
from ptwaveguide.helmholtz import amplitude_arrays, flux_sums, transfer_arrays
from ptwaveguide.models import exact_bilayer

complex_k = st.builds(complex,
                      st.floats(min_value=0.1, max_value=5.0),
                      st.floats(min_value=-2.0, max_value=2.0))
k_outers = st.floats(min_value=0.3, max_value=3.0)

# Moderate stacks: |Im k| * d stays small enough that even the naive 2x2
# determinant is numerically meaningful.
moderate_layer = st.tuples(
    st.builds(complex, st.floats(min_value=-6.0, max_value=6.0),
              st.floats(min_value=-3.0, max_value=3.0)),
    st.floats(min_value=0.0, max_value=1.5),
)
moderate_stack = st.tuples(k_outers, st.lists(moderate_layer, min_size=0, max_size=5))


def assert_close(a: complex, b: complex, rel: float, floor: float = 0.0):
    assert abs(a - b) <= max(rel * max(abs(a), abs(b), 1e-300), floor)


def entries(k_outer, layers):
    """The kernel's transfer-matrix entries as complex numbers."""
    return [complex(m) for m in transfer_arrays(k_outer, layers)[:4]]


class TestPropagationMatrix:
    """The matrix that carries the plane-wave amplitudes across one uniform
    layer."""

    def test_zero_length_identity(self):
        assert entries(1.3, [(1.5 + 0.5j, 0.0)]) == [1, 0, 0, 1]

    @given(complex_k, st.floats(min_value=0.0, max_value=1.0), k_outers)
    def test_determinant_is_one(self, k, d, k_outer):
        # |Im k| * d <= 2 keeps the entries small enough for the numeric
        # 2x2 determinant to resolve 1e-12
        m11, m12, m21, m22 = entries(k_outer, [(k * k, d)])
        assert abs(m11 * m22 - m12 * m21 - 1.0) <= 1e-12

    def test_zero_wavenumber_is_linear_pair(self):
        # k^2 = 0: phi = a + b z, the {1, z} pair [[1, d], [0, 1]], which the
        # plane-wave basis of k = 2 turns into [[1 + ikd/2, -ikd/2],
        # [ikd/2, 1 - ikd/2]]; every number here is exact in binary
        assert entries(2.0, [(0.0, 0.75)]) == [1 + 0.75j, -0.75j, 0.75j, 1 - 0.75j]

    def test_entry_magnitudes(self):
        # reference absorbing layer at cutoff: k = sqrt(i * 2.0545515714e12),
        # Im(k) * 19.7 um = 19.9669, so the plane-wave factors are e^-+19.9669.
        # With k_outer = |k| the ratio k/k_l is e^{-i pi/4}, and the growing
        # wave enters m22 as e^{-ikd} (1 + 1/sqrt 2) / 2, m11 as
        # e^{-ikd} (1 - 1/sqrt 2) / 2 and m12 = m21 as e^{-ikd} / (2 sqrt 2)
        k2 = 2.054551571435728e12 * 1j
        k = cmath.sqrt(k2)
        assert (k * 19.7e-6).imag == pytest.approx(19.96685903389028, rel=1e-9)
        m11, m12, m21, m22 = entries(abs(k), [(k2, 19.7e-6)])
        growth = math.exp(19.96685903389028)
        half = 1.0 / math.sqrt(2.0)
        assert abs(m22) == pytest.approx(growth * (1 + half) / 2, rel=1e-6)
        assert abs(m22) == pytest.approx((1 + half) / 2 / 2.130606760108735e-9, rel=1e-6)
        assert abs(m11) == pytest.approx(growth * (1 - half) / 2, rel=1e-6)
        assert m21 == -m12
        assert abs(m12) == pytest.approx(growth * half / 2, rel=1e-6)

    @given(complex_k, k_outers, st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_additivity(self, k, k_outer, d1, d2):
        # a layer split in two carries the amplitudes as the whole layer does
        whole = entries(k_outer, [(k * k, d1 + d2)])
        split = entries(k_outer, [(k * k, d1), (k * k, d2)])
        # entries reach e^{|Im k| (d1 + d2)}; compare relative to the largest
        scale = max(abs(c) for c in whole)
        for got, want in zip(split, whole):
            assert abs(got - want) <= 1e-12 * scale

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError):
            transfer_arrays(1.0, [(1.0, -1e-9)])
        with pytest.raises(ValueError):
            ode_amplitudes(1.0, [(1.0, -1e-9)])

    def test_array_inputs_match_scalars(self):
        # frequencies as arrays: k_outer and each k^2 broadcast together
        k_outer = np.array([1.1, 0.4, 2.5, 1.0])
        k2 = np.array([2.0 + 1.0j, -1.5 - 0.4j, 0.0, 4e-20 + 0j])
        arrays = transfer_arrays(k_outer, [(k2, 0.8), (np.conj(k2), 0.3)])
        for i, (k, value) in enumerate(zip(k_outer, k2)):
            for entry, scalar in zip(arrays, transfer_arrays(
                    k, [(value, 0.8), (value.conjugate(), 0.3)])):
                assert_close(entry[i], scalar, 1e-15)


class TestTotalTransfer:
    """The transfer matrix of a whole stack."""

    def test_empty_stack_identity(self):
        assert entries(1.0, []) == [1, 0, 0, 1]

    def test_single_layer_matches_direct_matching(self):
        # independent check: solve the two-interface continuity system
        # directly for a single uniform slab
        k0, k1, d = 2.0, 1.2 + 0.8j, 0.7
        m11, m12, m21, m22 = entries(k0, [(k1 * k1, d)])
        # coefficients referenced at the slab edges; continuity at z=0 and z=d
        # phi = A+ e^{ik0 z} + A- e^{-ik0 z}  ->  B+ e^{ik1 z} + B- e^{-ik1 z}
        #     -> C+ e^{ik0 (z-d)} + C- e^{-ik0 (z-d)}
        for a_plus, a_minus in ((1.0, 0.3 - 0.2j), (0.0, 1.0), (1.0j, 0.0)):
            b_plus = 0.5 * (1 + k0 / k1) * a_plus + 0.5 * (1 - k0 / k1) * a_minus
            b_minus = 0.5 * (1 - k0 / k1) * a_plus + 0.5 * (1 + k0 / k1) * a_minus
            bp_d = b_plus * cmath.exp(1j * k1 * d)
            bm_d = b_minus * cmath.exp(-1j * k1 * d)
            c_plus = 0.5 * (1 + k1 / k0) * bp_d + 0.5 * (1 - k1 / k0) * bm_d
            c_minus = 0.5 * (1 - k1 / k0) * bp_d + 0.5 * (1 + k1 / k0) * bm_d
            assert_close(m11 * a_plus + m12 * a_minus, c_plus, 1e-12)
            assert_close(m21 * a_plus + m22 * a_minus, c_minus, 1e-12)

    @given(moderate_stack)
    @settings(max_examples=200)
    def test_determinant_law(self, stack):
        # equal exterior media make the analytic determinant exactly 1; the
        # numeric 2x2 determinant resolves it only while the entry growth
        # stays far from 1/sqrt(machine eps)
        k_outer, layers = stack
        assume(growth_exponent(layers) <= 1.5)
        m11, m12, m21, m22 = entries(k_outer, layers)
        assert abs(m11 * m22 - m12 * m21 - 1.0) <= 1e-9

    @given(moderate_stack)
    @settings(max_examples=100)
    def test_reversal_swaps_reflections(self, stack):
        k_outer, layers = stack
        assume(growth_exponent(layers) <= 2.5)
        t_a, r_left_a, r_right_a, singular_a, _ = amplitude_arrays(k_outer, layers)
        t_b, r_left_b, r_right_b, singular_b, _ = amplitude_arrays(k_outer, layers[::-1])
        if singular_a or singular_b:
            return
        # the floor treats machine-zero reflections as equal
        assert_close(r_left_a, r_right_b, 1e-9, floor=1e-12)
        assert_close(r_right_a, r_left_b, 1e-9, floor=1e-12)
        assert_close(t_a, t_b, 1e-9, floor=1e-12)

    def test_degenerate_layer_limit(self):
        # a k^2 = 0 layer of finite thickness crosses through the {1, z} pair;
        # compare against a tiny-but-finite k^2 as the continuous limit
        k0, d = 1.3, 0.9
        exact_zero = kernel_amplitudes(k0, [(0.0, d)])
        tiny = kernel_amplitudes(k0, [(1e-12 + 0.0j, d)])
        assert_close(exact_zero[0], tiny[0], 1e-6)
        assert_close(exact_zero[1], tiny[1], 1e-6)

    def test_degenerate_sandwich(self):
        # degenerate layer between normal ones, against the ODE oracle
        layers = [(2.0 + 0.3j, 0.8), (0.0, 0.6), (1.5 - 0.2j, 0.5)]
        assert max_relative_difference(kernel_amplitudes(1.0, layers),
                                       ode_amplitudes(1.0, layers)) < 1e-6


class TestAmplitudes:
    def test_empty_stack_transparent(self):
        t, r_left, r_right, singular, t_mirrored = amplitude_arrays(1e7, [])
        assert t == 1.0 and r_left == 0.0 and r_right == 0.0 and not singular
        assert t_mirrored == 1.0
        assert [float(s) for s in flux_sums(t, r_left, r_right)] == [1.0, 1.0]

    def test_rectangular_barrier_closed_form(self):
        # textbook tunneling formula as an independent oracle
        k, k2_layer, d = 1e7, -1e13, 1e-7
        kappa = math.sqrt(-k2_layer)
        t = complex(amplitude_arrays(k, [(k2_layer, d)])[0])
        denom = cmath.cosh(kappa * d) \
            + 1j * ((kappa ** 2 - k ** 2) / (2 * k * kappa)) * cmath.sinh(kappa * d)
        expected = 1.0 / abs(denom) ** 2
        assert abs(t) ** 2 == pytest.approx(expected, rel=1e-10)

    @given(moderate_stack)
    @settings(max_examples=150)
    def test_transmission_reciprocity(self, stack):
        # t_right is the transmission of the reversed stack
        k_outer, layers = stack
        t, _, _, singular, _ = amplitude_arrays(k_outer, layers)
        t_right, _, _, singular_right, _ = amplitude_arrays(k_outer, layers[::-1])
        if singular or singular_right:
            return
        assert abs(t - t_right) <= 1e-10 * max(abs(t), 1e-300)

    @given(st.lists(st.tuples(st.floats(min_value=-6.0, max_value=6.0).map(complex),
                              st.floats(min_value=0.0, max_value=1.5)),
                    min_size=1, max_size=4),
           k_outers)
    @settings(max_examples=150)
    def test_real_potential_unitarity(self, layers, k_outer):
        t, r_left, r_right, _, _ = amplitude_arrays(k_outer, layers)
        s_left, s_right = flux_sums(t, r_left, r_right)
        assert s_left == pytest.approx(1.0, abs=1e-10)
        assert s_right == pytest.approx(1.0, abs=1e-10)

    @given(st.lists(moderate_layer, min_size=1, max_size=3), k_outers)
    @settings(max_examples=150)
    def test_pt_generalized_unitarity(self, half, k_outer):
        # build a mirror-conjugate stack: second half is the reversed
        # conjugate of the first
        mirrored = [(k2.conjugate(), d) for k2, d in reversed(half)]
        t, r_left, r_right, singular, _ = amplitude_arrays(k_outer, half + mirrored)
        if singular:
            return
        t, r_left, r_right = complex(t), complex(r_left), complex(r_right)
        if max(abs(r_left), abs(r_right), abs(t)) > 1e3:
            return  # too close to a scattering pole for absolute tolerances
        cross = r_left.conjugate() * r_right
        assert abs(abs(t) ** 2 + cross - 1.0) <= 1e-8
        assert abs(cross.imag) <= 1e-8
        assert abs((t.conjugate() * r_left).real) <= 1e-8
        assert abs((t.conjugate() * r_right).real) <= 1e-8

    def test_branch_independence(self, monkeypatch):
        layers = [(2.0 + 1.0j, 0.8), (-1.5 - 0.4j, 1.2), (0.5j, 0.9)]
        reference = kernel_amplitudes(1.1, layers)
        original = hh.wavenumber_from_k2
        monkeypatch.setattr(hh, "wavenumber_from_k2", lambda k2: -original(k2))
        flipped = kernel_amplitudes(1.1, layers)
        assert max_relative_difference(reference, flipped) <= 1e-12

    def test_singular_flag(self, monkeypatch):
        # m22 = 0 is a spectral singularity: flagged, without a floating-point
        # warning, while the other frequencies keep their amplitudes
        ones = np.ones(3, dtype=complex)
        monkeypatch.setattr(hh, "transfer_arrays", lambda k_outer, layers: (
            ones, 2.0 * ones, 3.0 * ones, np.array([1.0, 0.0, 2.0]), ones))
        with np.errstate(all="raise"):
            t, r_left, r_right, singular, _ = amplitude_arrays(np.ones(3), [])
        assert singular.tolist() == [False, True, False]
        assert t[[0, 2]].tolist() == [1.0, 0.5]
        assert r_left[[0, 2]].tolist() == [-3.0, -1.5]
        assert r_right[[0, 2]].tolist() == [2.0, 1.0]


class TestOdeOracle:
    def test_free_region(self):
        k = 1e6
        t_left, r_left, t_right, r_right = ode_amplitudes(k, [(k * k, 5e-6)])
        assert abs(r_left) <= 1e-8
        assert abs(r_right) <= 1e-8
        assert abs(t_left) == pytest.approx(1.0, abs=1e-8)
        # phases match the transfer-matrix convention for the same span
        assert_close(t_left, kernel_amplitudes(k, [(k * k, 5e-6)])[0], 1e-8)

    def test_reference_stack_cross_validation(self, params):
        stack = exact_bilayer(params, 1.01 * params.omega_c)
        assert max_relative_difference(kernel_amplitudes(*stack),
                                       ode_amplitudes(*stack)) < 1e-6

    def test_knot_far_below_step_size(self):
        # the integrator's last step from 8.89e-6 lands on 8.89e-6 - 8.89e-6
        # = 0.0, past the 1.3e-95 knot; k^2 there must still be the layer's
        layers = [(0j, 1.3303519330515215e-95), (0j, 1e-5)]
        assert max_relative_difference(kernel_amplitudes(1.0, layers),
                                       ode_amplitudes(1.0, layers)) < 1e-6

    @given(st.lists(moderate_layer, min_size=1, max_size=5),
           st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_random_stack_cross_validation(self, layers, k_outer):
        if amplitude_arrays(k_outer, layers)[3]:
            return
        assert max_relative_difference(kernel_amplitudes(k_outer, layers),
                                       ode_amplitudes(k_outer, layers)) < 1e-6
