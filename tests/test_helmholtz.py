import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptwaveguide.helmholtz as hh
from ptwaveguide.helmholtz import (Layer, LayerStack,
                                   SpectralSingularityError, TransferMatrix,
                                   amplitudes, flux_sums, layer_matrix,
                                   max_relative_difference, ode_amplitudes,
                                   ode_amplitudes_for_stack, total_transfer)
from ptwaveguide.models import build_exact_stack

complex_k = st.builds(complex,
                      st.floats(min_value=0.1, max_value=5.0),
                      st.floats(min_value=-2.0, max_value=2.0))

# Moderate stacks: |Im k| * d stays small enough that even the naive 2x2
# determinant is numerically meaningful.
moderate_layer = st.builds(
    lambda re, im, d: Layer(complex(re, im), d),
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.5),
)
moderate_stack = st.builds(
    lambda k, layers: LayerStack(k, tuple(layers)),
    st.floats(min_value=0.3, max_value=3.0),
    st.lists(moderate_layer, min_size=0, max_size=5),
)


def assert_close(a: complex, b: complex, rel: float, floor: float = 0.0):
    assert abs(a - b) <= max(rel * max(abs(a), abs(b), 1e-300), floor)


class TestPropagationMatrix:
    """The (phi, phi') characteristic matrix that carries the state across
    one uniform layer."""

    def test_zero_length_identity(self):
        assert [complex(c) for c in layer_matrix(1.5 + 0.5j, 0.0)] == [1, 0, 0, 1]

    @given(complex_k, st.floats(min_value=0.0, max_value=1.0))
    def test_determinant_is_one(self, k, d):
        # |Im k| * d <= 2 keeps the entries small enough for the numeric
        # 2x2 determinant to resolve 1e-12
        c11, c12, c21, c22 = layer_matrix(k * k, d)
        assert abs(c11 * c22 - c12 * c21 - 1.0) <= 1e-12

    def test_zero_wavenumber_is_linear_pair(self):
        # k^2 = 0: phi = a + b z, the {1, z} fundamental pair
        assert [complex(c) for c in layer_matrix(0.0, 0.7)] == [1, 0.7, 0, 1]

    def test_entry_magnitudes(self):
        # reference absorbing layer at cutoff: k = sqrt(i * 2.0545515714e12),
        # Im(k) * 19.7 um = 19.9669, so the plane-wave factors are e^-+19.9669
        # and cos(kd) = (e^{ikd} + e^{-ikd}) / 2 grows as e^19.9669 / 2
        k2 = 2.054551571435728e12 * 1j
        k = cmath.sqrt(k2)
        assert (k * 19.7e-6).imag == pytest.approx(19.96685903389028, rel=1e-9)
        c11, c12, c21, c22 = (complex(c) for c in layer_matrix(k2, 19.7e-6))
        growth = math.exp(19.96685903389028) / 2
        assert abs(c11) == pytest.approx(growth, rel=1e-6)
        assert abs(c11) == pytest.approx(0.5 / 2.130606760108735e-9, rel=1e-6)
        assert c22 == c11
        assert abs(c12) == pytest.approx(growth / abs(k), rel=1e-6)
        assert abs(c21) == pytest.approx(growth * abs(k), rel=1e-6)

    @given(complex_k, st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_additivity(self, k, d1, d2):
        a11, a12, a21, a22 = layer_matrix(k * k, d1)
        b11, b12, b21, b22 = layer_matrix(k * k, d2)
        whole = layer_matrix(k * k, d1 + d2)
        product = (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                   a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
        # entries reach e^{|Im k| (d1 + d2)}; compare relative to the largest
        scale = max(abs(c) for c in whole)
        for got, want in zip(product, whole):
            assert abs(got - want) <= 1e-12 * scale

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError):
            layer_matrix(1.0, -1e-9)

    def test_array_inputs_match_scalars(self):
        k2 = np.array([2.0 + 1.0j, -1.5 - 0.4j, 0.0, 4e-20 + 0j])
        arrays = layer_matrix(k2, 0.8)
        for i, value in enumerate(k2):
            for entry, scalar in zip(arrays, layer_matrix(value, 0.8)):
                assert_close(entry[i], scalar, 1e-15)


class TestTotalTransfer:
    def test_empty_stack_identity(self):
        m = total_transfer(LayerStack(1.0, ()))
        assert m == TransferMatrix(1.0, 0.0, 0.0, 1.0)

    def test_single_layer_matches_direct_matching(self):
        # independent check: solve the two-interface continuity system
        # directly for a single uniform slab
        k0, k1, d = 2.0, 1.2 + 0.8j, 0.7
        m = total_transfer(LayerStack(k0, (Layer(k1 * k1, d),)))
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
            got_plus = m.m11 * a_plus + m.m12 * a_minus
            got_minus = m.m21 * a_plus + m.m22 * a_minus
            assert_close(got_plus, c_plus, 1e-12)
            assert_close(got_minus, c_minus, 1e-12)

    @given(moderate_stack)
    @settings(max_examples=200)
    def test_determinant_law(self, stack):
        # equal exterior media make the analytic determinant exactly 1; the
        # numeric 2x2 determinant resolves it only while the entry growth
        # stays far from 1/sqrt(machine eps)
        assume(hh.growth_exponent(stack) <= 1.5)
        assert abs(total_transfer(stack).det() - 1.0) <= 1e-9

    @given(moderate_stack)
    @settings(max_examples=100)
    def test_reversal_swaps_reflections(self, stack):
        assume(hh.growth_exponent(stack) <= 2.5)
        reversed_stack = LayerStack(stack.k_outer, tuple(reversed(stack.layers)))
        try:
            a = amplitudes(stack)
            b = amplitudes(reversed_stack)
        except SpectralSingularityError:
            return
        # the floor treats machine-zero reflections as equal
        assert_close(a.r_left, b.r_right, 1e-9, floor=1e-12)
        assert_close(a.r_right, b.r_left, 1e-9, floor=1e-12)
        assert_close(a.t_left, b.t_left, 1e-9, floor=1e-12)

    def test_degenerate_layer_limit(self):
        # a k^2 = 0 layer of finite thickness crosses through the {1, z} pair;
        # compare against a tiny-but-finite k^2 as the continuous limit
        k0, d = 1.3, 0.9
        exact_zero = amplitudes(LayerStack(k0, (Layer(0.0, d),)))
        tiny = amplitudes(LayerStack(k0, (Layer(1e-12 + 0.0j, d),)))
        assert_close(exact_zero.t_left, tiny.t_left, 1e-6)
        assert_close(exact_zero.r_left, tiny.r_left, 1e-6)

    def test_degenerate_sandwich(self):
        # degenerate layer between normal ones, against the ODE oracle
        stack = LayerStack(1.0, (Layer(2.0 + 0.3j, 0.8), Layer(0.0, 0.6),
                                 Layer(1.5 - 0.2j, 0.5)))
        a = amplitudes(stack)
        o = ode_amplitudes_for_stack(stack)
        assert max_relative_difference(a, o) < 1e-6


class TestAmplitudes:
    def test_empty_stack_transparent(self):
        amp = amplitudes(LayerStack(1e7, ()))
        assert amp.t_left == 1.0 and amp.t_right == 1.0
        assert amp.r_left == 0.0 and amp.r_right == 0.0
        assert flux_sums(amp) == (1.0, 1.0)

    def test_rectangular_barrier_closed_form(self):
        # textbook tunneling formula as an independent oracle
        k, k2_layer, d = 1e7, -1e13, 1e-7
        kappa = math.sqrt(-k2_layer)
        amp = amplitudes(LayerStack(k, (Layer(k2_layer, d),)))
        denom = cmath.cosh(kappa * d) \
            + 1j * ((kappa ** 2 - k ** 2) / (2 * k * kappa)) * cmath.sinh(kappa * d)
        expected = 1.0 / abs(denom) ** 2
        assert abs(amp.t_left) ** 2 == pytest.approx(expected, rel=1e-10)

    @given(moderate_stack)
    @settings(max_examples=150)
    def test_transmission_reciprocity(self, stack):
        try:
            amp = amplitudes(stack)
        except SpectralSingularityError:
            return
        assert abs(amp.t_left - amp.t_right) <= 1e-10 * max(abs(amp.t_left), 1e-300)

    @given(st.lists(st.builds(lambda re, d: Layer(complex(re, 0.0), d),
                              st.floats(min_value=-6.0, max_value=6.0),
                              st.floats(min_value=0.0, max_value=1.5)),
                    min_size=1, max_size=4),
           st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=150)
    def test_real_potential_unitarity(self, layers, k_outer):
        s_left, s_right = flux_sums(amplitudes(LayerStack(k_outer, tuple(layers))))
        assert s_left == pytest.approx(1.0, abs=1e-10)
        assert s_right == pytest.approx(1.0, abs=1e-10)

    @given(st.lists(moderate_layer, min_size=1, max_size=3),
           st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=150)
    def test_pt_generalized_unitarity(self, half, k_outer):
        # build a mirror-conjugate stack: second half is the reversed
        # conjugate of the first
        mirrored = tuple(Layer(layer.k2.conjugate(), layer.thickness)
                         for layer in reversed(half))
        stack = LayerStack(k_outer, tuple(half) + mirrored)
        try:
            amp = amplitudes(stack)
        except SpectralSingularityError:
            return
        if max(abs(amp.r_left), abs(amp.r_right), abs(amp.t_left)) > 1e3:
            return  # too close to a scattering pole for absolute tolerances
        t2 = abs(amp.t_left) ** 2
        cross = amp.r_left.conjugate() * amp.r_right
        assert abs(t2 + cross - 1.0) <= 1e-8
        assert abs(cross.imag) <= 1e-8
        assert abs((amp.t_left.conjugate() * amp.r_left).real) <= 1e-8
        assert abs((amp.t_left.conjugate() * amp.r_right).real) <= 1e-8

    def test_branch_independence(self, monkeypatch):
        stack = LayerStack(1.1, (Layer(2.0 + 1.0j, 0.8), Layer(-1.5 - 0.4j, 1.2),
                                 Layer(0.5j, 0.9)))
        reference = amplitudes(stack)
        original = hh.wavenumber_from_k2
        monkeypatch.setattr(hh, "wavenumber_from_k2", lambda k2: -original(k2))
        flipped = amplitudes(stack)
        assert max_relative_difference(reference, flipped) <= 1e-12

    def test_spectral_singularity_raises(self):
        with pytest.raises(SpectralSingularityError):
            hh._amplitudes_from_transfer(TransferMatrix(1.0, 1.0, 1.0, 0.0))


class TestOdeOracle:
    def test_free_region(self):
        k = 1e6
        amp = ode_amplitudes(lambda z: k * k, (0.0, 5e-6), k)
        assert abs(amp.r_left) <= 1e-8
        assert abs(amp.r_right) <= 1e-8
        assert abs(amp.t_left) == pytest.approx(1.0, abs=1e-8)
        # phases match the transfer-matrix convention for the same span
        tmm = amplitudes(LayerStack(k, (Layer(k * k, 5e-6),)))
        assert_close(amp.t_left, tmm.t_left, 1e-8)

    def test_reference_stack_cross_validation(self, params):
        stack = build_exact_stack(params, 1.01 * params.omega_c)
        a = amplitudes(stack)
        o = ode_amplitudes_for_stack(stack)
        assert max_relative_difference(a, o) < 1e-6

    def test_knot_far_below_step_size(self):
        # the integrator's last step from 8.89e-6 lands on 8.89e-6 - 8.89e-6
        # = 0.0, past the 1.3e-95 knot; k^2 there must still be the layer's
        stack = LayerStack(1.0, (Layer(0j, 1.3303519330515215e-95),
                                 Layer(0j, 1e-5)))
        a = amplitudes(stack)
        o = ode_amplitudes_for_stack(stack)
        assert max_relative_difference(a, o) < 1e-6

    @given(st.lists(moderate_layer, min_size=1, max_size=5),
           st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_random_stack_cross_validation(self, layers, k_outer):
        stack = LayerStack(k_outer, tuple(layers))
        if stack.total_thickness == 0:
            return
        try:
            a = amplitudes(stack)
        except SpectralSingularityError:
            return
        o = ode_amplitudes_for_stack(stack)
        assert max_relative_difference(a, o) < 1e-6
