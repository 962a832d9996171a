"""Piecewise-constant 1D Helmholtz scattering engine.

Solves phi'' + k^2(z) phi = 0 for a stack of uniform layers between two
identical semi-infinite propagating regions.  One array kernel multiplies
the layers' characteristic matrices, each written in the exterior's
plane-wave basis, over arrays of frequencies; scalar callers use it with
length-1 inputs.  Adaptive Runge-Kutta integration of the same ODE is the
independent cross-validation oracle.

Phase conventions: each exterior's coefficients multiply e^{+-ik(z - z_edge)}
with z_edge the stack edge it touches (the left exterior is referenced at
the first interface, the right exterior at the last).  All |.|^2
observables and the PT bilinears are reference-independent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class SpectralSingularityError(ArithmeticError):
    """m22 = 0: amplitudes diverge at this real frequency (gain-induced pole)."""


class StiffnessError(RuntimeError):
    """Adaptive integration step size underflowed."""

    def __init__(self, z: float, message: str):
        super().__init__(f"integration stalled near z = {z:.6e}: {message}")
        self.z = z


@dataclass(frozen=True)
class Layer:
    """Uniform slab with complex squared wavenumber (1/m^2) and thickness (m)."""

    k2: complex
    thickness: float

    def __post_init__(self):
        if self.thickness < 0:
            raise ValueError(f"thickness must be non-negative, got {self.thickness}")


@dataclass(frozen=True)
class LayerStack:
    """Ordered layers between two identical propagating exterior regions."""

    k_outer: float
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if self.k_outer <= 0:
            raise ValueError(f"k_outer must be positive, got {self.k_outer}")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def total_thickness(self) -> float:
        return sum(layer.thickness for layer in self.layers)


@dataclass(frozen=True)
class TransferMatrix:
    """Plane-wave coefficient map (A+, A-) of the left exterior to the right."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Transmission/reflection amplitudes for left and right incidence."""

    t_left: complex
    r_left: complex
    t_right: complex
    r_right: complex


def wavenumber_from_k2(k2):
    """Principal square root; real-axis inputs resolve to the upper branch cut.

    Accepts scalars and arrays.  Amplitudes are branch-independent (the layer
    matrix is even in k); a fixed choice just makes intermediates
    reproducible.
    """
    z = np.asarray(k2, dtype=complex)
    return np.sqrt(np.where(z.imag == 0.0, z.real + 0j, z))


def layer_matrix(k2, d: float):
    """Entries (c11, c12, c21, c22) of the characteristic matrix of a uniform
    layer, [[cos kd, sin(kd)/k], [-k sin kd, cos kd]] (Born & Wolf,
    *Principles of Optics* sec. 1.6), mapping (phi, phi') across it.

    Even in k, determinant 1, and regular at k = 0, where it becomes the
    {1, z} pair [[1, d], [0, 1]].  ``k2`` may be an array.
    """
    _, kd, sin_over_k = _layer_phase(k2, d)
    cos = np.cos(kd)
    return cos, sin_over_k, -np.asarray(k2, dtype=complex) * sin_over_k, cos


def _layer_phase(k2, d: float):
    """(k, kd, sin(kd)/k) of a uniform layer; the last is regular at k = 0."""
    if d < 0:
        raise ValueError(f"thickness must be non-negative, got {d}")
    k = wavenumber_from_k2(k2)
    kd = k * d
    # sin(x)/x by its series where the quotient would lose accuracy or
    # overflow (subnormal x)
    small = np.abs(kd) < 1e-4
    kd2 = kd * kd
    sinc = np.where(small, 1.0 - kd2 / 6.0 * (1.0 - kd2 / 20.0),
                    np.sin(kd) / np.where(small, 1.0, kd))
    return k, kd, d * sinc


def transfer_arrays(k_outer, layers: Sequence[tuple]):
    """Scattering kernel: transfer-matrix entries (m11, m12, m21, m22) of a
    stack given as (k2, thickness) pairs between exteriors of wavenumber
    ``k_outer``.

    ``k_outer`` and each k2 may be arrays over frequencies (they broadcast);
    thicknesses are numbers.  Each layer's characteristic matrix C (see
    :func:`layer_matrix`) enters in the exterior's plane-wave basis,
    P^-1 C P with P = [[1, 1], [ik, -ik]] mapping (A+, A-) to (phi, phi'):

        [[e^{i k_l d} + q,  s (k2 - k^2)],
         [s (k^2 - k2),     e^{-i k_l d} - q]],

    with s = i sin(k_l d) / (2 k k_l) and q = s (k_l - k)^2, and the layers
    multiply left to right.  Every term is regular at k_l = 0, and no entry
    is formed as a difference of near-equal terms: the contrast k2 - k^2 is
    a factor of the off-diagonal entries, so a weak or thin layer's
    reflection keeps full relative accuracy, and the diagonal keeps the
    decaying plane wave instead of recovering it as cos - i sin of two
    growing ones.
    """
    k = np.asarray(k_outer, dtype=float)
    k_sq = k * k
    i_over_2k = 0.5j / k
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for k2, d in layers:
        k_layer, kd, sin_over_k = _layer_phase(k2, d)
        contrast = np.asarray(k2, dtype=complex) - k_sq
        mismatch = contrast / (k_layer + k)  # k_l - k without cancellation
        # the thickness enters by one product, so subnormal layers round once
        off = sin_over_k * (i_over_2k * contrast)
        q = sin_over_k * (i_over_2k * mismatch * mismatch)
        a, e = np.exp(1j * kd) + q, np.exp(-1j * kd) - q
        m11, m12, m21, m22 = (a * m11 + off * m21, a * m12 + off * m22,
                              e * m21 - off * m11, e * m22 - off * m12)
    return m11, m12, m21, m22


def _ratios(m12, m21, m22):
    # With equal exterior wavenumbers the determinant is exactly 1, so
    # t_left = det/m22 = 1/m22 = t_right; using the analytic value avoids
    # the catastrophic cancellation of the numeric 2x2 determinant when the
    # matrix entries reach e^{2 Im(k) d} ~ e^{40}.
    m22 = np.asarray(m22, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = 1.0 / m22
        r_left = -m21 / m22
        r_right = m12 / m22
    return t, r_left, r_right, m22 == 0


def amplitude_arrays(k_outer, layers: Sequence[tuple]):
    """(t, r_left, r_right, singular) of the kernel :func:`transfer_arrays`.

    ``singular`` is true where m22 = 0 (a spectral singularity); the
    amplitudes there are meaningless.  Elsewhere they can still be
    non-finite where the matrix entries overflowed.
    """
    _, m12, m21, m22 = transfer_arrays(k_outer, layers)
    return _ratios(m12, m21, m22)


def total_transfer(stack: LayerStack) -> TransferMatrix:
    """Transfer matrix of the stack, left exterior to right exterior."""
    pairs = [(layer.k2, layer.thickness) for layer in stack.layers]
    return TransferMatrix(*(complex(m) for m in transfer_arrays(stack.k_outer, pairs)))


def _amplitudes_from_transfer(m: TransferMatrix) -> ScatteringAmplitudes:
    t, r_left, r_right, singular = _ratios(m.m12, m.m21, m.m22)
    if singular or not np.isfinite(t):
        raise SpectralSingularityError(
            f"m22 = {m.m22!r}: spectral singularity, no bounded scattering "
            "solution at this real frequency")
    t = complex(t)
    return ScatteringAmplitudes(t_left=t, r_left=complex(r_left),
                                t_right=t, r_right=complex(r_right))


def amplitudes(stack: LayerStack) -> ScatteringAmplitudes:
    """Scattering amplitudes of the stack for both incidence directions.

    Left incidence: phi = e^{ikz'} + r_left e^{-ikz'} on the left
    (z' referenced at the first interface) and t_left e^{ikz''} on the right
    (z'' referenced at the last).  Right incidence is the mirror image.
    Raises :class:`SpectralSingularityError` at a scattering pole.
    """
    return _amplitudes_from_transfer(total_transfer(stack))


def flux_sums(amp: ScatteringAmplitudes) -> tuple[float, float]:
    """(|t|^2 + |r|^2) for left and right incidence; 1 for unitary scattering."""
    s_left = abs(amp.t_left) ** 2 + abs(amp.r_left) ** 2
    s_right = abs(amp.t_right) ** 2 + abs(amp.r_right) ** 2
    return s_left, s_right


def stack_k2_profile(stack: LayerStack):
    """Piecewise k^2(z) of the stack laid out on [0, total_thickness].

    Returns (k2_of_z, (z_min, z_max), knots); knots are the interior
    interface positions, useful to segment the ODE oracle.
    """
    edges = [0.0]
    for layer in stack.layers:
        edges.append(edges[-1] + layer.thickness)
    k2_outer = complex(stack.k_outer * stack.k_outer)
    spans = [(edges[i], edges[i + 1], complex(stack.layers[i].k2))
             for i in range(len(stack.layers))]

    def k2_of_z(z: float) -> complex:
        for z0, z1, k2 in spans:
            if z0 < z <= z1:
                return k2
        return k2_outer

    return k2_of_z, (0.0, edges[-1]), tuple(edges[1:-1])


def ode_amplitudes(k2_of_z, z_span: tuple[float, float], k_outer: float, *,
                   knots: tuple[float, ...] = (), rtol: float = 1e-10,
                   atol: float = 1e-10, method: str = "RK45") -> ScatteringAmplitudes:
    """Scattering amplitudes by direct adaptive integration of the wave ODE.

    Independent cross-check of :func:`amplitudes`: integrates
    phi'' = -k^2(z) phi from the far boundary seeded with the outgoing wave
    to the near boundary, where the solution splits into incoming and
    outgoing plane waves.  The unknowns are the local plane-wave amplitudes
    (variation of parameters): phi = A e^{ik(z - z_ref)} + B e^{-ik(z - z_ref)}
    with phi' = ik (A e^{ik(z - z_ref)} - B e^{-ik(z - z_ref)}), so

        A' = i D phi e^{-ik(z - z_ref)} / (2k),
        B' = -i D phi e^{ik(z - z_ref)} / (2k),    D = k^2(z) - k_outer^2.

    The reflected amplitude starts at zero and grows only where D is
    nonzero, so a weak reflection is integrated directly rather than
    recovered from near-cancelling (phi, phi') combinations.  ``knots``
    (interior discontinuities of k^2) split the integration into smooth
    segments; the embedded 5(4) pair then controls the error properly.
    Conventions match :func:`amplitudes` (references at z_min and z_max).
    """
    from scipy.integrate import solve_ivp

    z_min, z_max = z_span
    if not z_max > z_min:
        raise ValueError("z_span must be increasing")
    ik = 1j * k_outer
    k_sq = k_outer * k_outer
    i_over_2k = 0.5j / k_outer

    def run(points: list[float], y0, z_ref: float, atol):
        """(A, B) at the last point and each component's peak |.| en route."""
        y = np.asarray(y0, dtype=complex)
        peak = np.abs(y)
        for z0, z1 in zip(points[:-1], points[1:]):
            if z1 == z0:
                continue
            # k^2 is looked up at z clamped just inside the segment so a
            # discontinuity at a knot never leaks the neighbouring segment's
            # value into this one.  Guarding only exact endpoint hits is not
            # enough: the integrator's t + h can round past a knot much
            # smaller than the step (t + h == 0.0 for a knot at 1e-95), and
            # a pad below the knot's ulp rounds away.  A segment with no
            # float inside (one ulp wide) takes the value at its upper end,
            # the half-open (z0, z1] convention of stack_k2_profile.
            lo, hi = min(z0, z1), max(z0, z1)
            pad = (hi - lo) * 1e-12
            inner_lo = max(lo + pad, math.nextafter(lo, hi))
            inner_hi = max(min(hi - pad, math.nextafter(hi, lo)), inner_lo)

            def rhs(z, state, lo=inner_lo, hi=inner_hi):
                a, b = state
                wave = cmath.exp(ik * (z - z_ref))
                drive = i_over_2k * (k2_of_z(min(max(z, lo), hi)) - k_sq) \
                    * (a * wave + b / wave)
                return [drive / wave, -drive * wave]

            sol = solve_ivp(rhs, (z0, z1), y, method=method, rtol=rtol, atol=atol,
                            first_step=abs(z1 - z0) / 1000.0 or abs(z1 - z0))
            if not sol.success:
                raise StiffnessError(float(sol.t[-1]), sol.message)
            peak = np.maximum(peak, np.abs(sol.y).max(axis=1))
            y = sol.y[:, -1]
        return y, peak

    def solve(points: list[float], y0, z_ref: float) -> np.ndarray:
        y, peak = run(points, y0, z_ref, atol)
        # A weak reflection stays orders of magnitude below the transmitted
        # amplitude, and an absolute tolerance sized for the larger one
        # leaves it unresolved (the step then skips over its e^{2ikz}
        # oscillation).  Rerun with each component's tolerance scaled to
        # its own peak.
        ratio = peak / peak.max()
        if ratio.min() < 1e-3:
            scaled = np.maximum(atol * ratio, np.finfo(float).tiny)
            y, _ = run(points, y0, z_ref, scaled)
        return y

    interior = sorted(k for k in knots if z_min < k < z_max)
    forward = [z_min, *interior, z_max]
    backward = list(reversed(forward))

    # e^{ikL}: moves an amplitude referenced at one edge to the other
    span_phase = cmath.exp(ik * (z_max - z_min))

    # Left incidence: outgoing wave e^{ik(z - z_max)} seeded at z_max and
    # integrated to z_min, where phi = A e^{-ikL} e^{ik(z - z_min)}
    # + B e^{ikL} e^{-ik(z - z_min)}.
    a, b = solve(backward, [1.0, 0.0], z_max)
    t_left = span_phase / a
    r_left = b / a * span_phase * span_phase

    # Right incidence: outgoing wave e^{-ik(z - z_min)} seeded at z_min,
    # the mirror image.
    a, b = solve(forward, [0.0, 1.0], z_min)
    t_right = span_phase / b
    r_right = a / b * span_phase * span_phase

    return ScatteringAmplitudes(t_left=t_left, r_left=r_left,
                                t_right=t_right, r_right=r_right)


def ode_amplitudes_for_stack(stack: LayerStack, **kwargs) -> ScatteringAmplitudes:
    """ODE-oracle amplitudes of a LayerStack (same conventions as amplitudes)."""
    k2_of_z, z_span, knots = stack_k2_profile(stack)
    if z_span[1] == z_span[0]:
        return ScatteringAmplitudes(1.0, 0.0, 1.0, 0.0)
    return ode_amplitudes(k2_of_z, z_span, stack.k_outer, knots=knots, **kwargs)


def max_relative_difference(a: ScatteringAmplitudes, b: ScatteringAmplitudes) -> float:
    """Worst relative amplitude disagreement between two solutions."""
    worst = 0.0
    for x, y in ((a.t_left, b.t_left), (a.r_left, b.r_left),
                 (a.t_right, b.t_right), (a.r_right, b.r_right)):
        scale = max(abs(x), abs(y))
        if scale > 0:
            worst = max(worst, abs(x - y) / scale)
    return worst


def growth_exponent(stack: LayerStack) -> float:
    """Largest |Im k| * thickness over the stack.

    Transfer-matrix entries reach e^{2x} of this exponent; above ~17 the
    numeric 2x2 determinant is destroyed by cancellation (amplitudes remain
    accurate, as they only use entry ratios and the analytic determinant).
    """
    return max((float(abs(wavenumber_from_k2(layer.k2).imag)) * layer.thickness
                for layer in stack.layers), default=0.0)
