"""Closed-form tests of the benchmark's independent reference.

Run from the root of the checkout: python3 -m pytest perfbench/test_reference.py
"""

import numpy as np
import pytest

import reference as ref

X = np.linspace(1.0005, 1.10, 2001)


@pytest.mark.parametrize("model", ["exact", "approx"])
def test_unit_flux_sums_with_medium_off(model):
    t, r_left, r_right = ref.amplitudes(model, ref.Medium.from_ev(omegap_ev=0.0), X)
    for s in ref.flux_sums(t, r_left, r_right):
        np.testing.assert_allclose(s, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k1_scale", [0.3, 2.7, 1.6 + 0.2j])
def test_single_slab_transmission(k1_scale):
    # Fabry-Perot slab with both phase references on its faces:
    # t = 1 / (cos k1 d - (i/2)(k1/k0 + k0/k1) sin k1 d), and for a lossless
    # slab |t|^2 = 1 / (1 + ((k0^2 - k1^2) / (2 k0 k1))^2 sin^2 k1 d).
    k0 = np.linspace(1.0, 4.0, 301)
    k1 = k1_scale * k0
    d = 2.3
    t, r_left, r_right = ref.stack_amplitudes(k0, [(k1 ** 2, d)])
    expected = 1 / (np.cos(k1 * d) - 0.5j * (k1 / k0 + k0 / k1) * np.sin(k1 * d))
    np.testing.assert_allclose(t, expected, rtol=1e-12)
    np.testing.assert_allclose(r_left, r_right, rtol=1e-12)
    if np.isrealobj(k1):
        lossless = 1 / (1 + ((k0 ** 2 - k1 ** 2) / (2 * k0 * k1)) ** 2
                        * np.sin(k1 * d) ** 2)
        np.testing.assert_allclose(np.abs(t) ** 2, lossless, rtol=1e-12)


def test_mirrored_stack_swaps_reflections():
    k0 = np.array([1.3, 2.1])
    layers = [((1.1 + 0.4j) ** 2, 0.7), ((0.6 - 0.2j) ** 2, 1.9)]
    t, r_left, r_right = ref.stack_amplitudes(k0, layers)
    t_m, r_left_m, r_right_m = ref.stack_amplitudes(k0, layers[::-1])
    np.testing.assert_allclose(t_m, t, rtol=1e-13)
    np.testing.assert_allclose(r_left_m, r_right, rtol=1e-13)
    np.testing.assert_allclose(r_right_m, r_left, rtol=1e-13)


def test_generalized_unitarity_of_the_reduced_model():
    t, r_left, r_right = ref.amplitudes("approx", ref.Medium.from_ev(), X)
    big_t = np.abs(t) ** 2
    np.testing.assert_allclose(np.abs(big_t - 1), np.abs(r_left * r_right),
                               rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("model", ["exact", "approx"])
def test_float64_matches_50_digits_at_the_growth_end(model):
    medium = ref.Medium.from_ev()
    x = np.array([1.0005, 1.0006, 1.001])
    got = ref.amplitudes(model, medium, x)
    for i, xi in enumerate(x):
        for a, b in zip((g[i] for g in got), ref.mp_amplitudes(model, medium, float(xi))):
            assert abs(a - b) <= 1e-11 * abs(b)


def test_packet_average_narrows_to_the_carrier():
    medium = ref.Medium.from_ev(omegap_ev=0.1)
    energy_ev = 0.2
    omega = medium.omega0 + energy_ev * ref.E_CHARGE / ref.HBAR
    t, r_left, r_right = ref.amplitudes("approx", medium, np.array([omega / medium.omega0]))
    wide = ref.packet_fractions(medium, 3e-6, energy_ev)
    narrow = ref.packet_fractions(medium, 3e-3, energy_ev)
    stationary = [abs(a[0]) ** 2 for a in (t, r_left, r_right)]
    np.testing.assert_allclose(narrow, stationary, rtol=1e-3)
    assert wide != pytest.approx(narrow, rel=1e-6)
