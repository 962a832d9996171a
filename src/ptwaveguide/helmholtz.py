"""Piecewise-constant 1D Helmholtz scattering engine.

Solves phi'' + k^2(z) phi = 0 for a stack of uniform layers between two
identical semi-infinite propagating regions.  A stack is the exterior
wavenumber ``k_outer`` and a list of (k2, thickness) pairs, and that is the
only input format.  One array kernel, :func:`transfer_arrays`, multiplies
the layers' characteristic matrices, each written in the exterior's
plane-wave basis, over arrays of frequencies; :func:`amplitude_arrays` and
:func:`flux_sums` read it.  Adaptive Runge-Kutta integration of the same
ODE, :func:`ode_amplitudes`, is the independent cross-validation oracle.

Phase conventions: each exterior's coefficients multiply e^{+-ik(z - z_edge)}
with z_edge the stack edge it touches (the left exterior is referenced at
the first interface, the right exterior at the last).  All |.|^2
observables and the PT bilinears are reference-independent.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np


class SpectralSingularityError(ArithmeticError):
    """m22 = 0: amplitudes diverge at this real frequency (gain-induced pole)."""


class StiffnessError(RuntimeError):
    """Adaptive integration step size underflowed."""

    def __init__(self, z: float, message: str):
        super().__init__(f"integration stalled near z = {z:.6e}: {message}")
        self.z = z


def wavenumber_from_k2(k2):
    """Principal square root; real-axis inputs resolve to the upper branch cut.

    Accepts scalars and arrays.  Amplitudes are branch-independent (the layer
    matrix is even in k); a fixed choice just makes intermediates
    reproducible.
    """
    z = np.asarray(k2, dtype=complex)
    return np.sqrt(np.where(z.imag == 0.0, z.real + 0j, z))


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
    thicknesses are numbers.  Each layer's characteristic matrix, which maps
    (phi, phi') across it (Born & Wolf, *Principles of Optics* sec. 1.6),

        C = [[cos k_l d,         sin(k_l d) / k_l],
             [-k_l sin k_l d,    cos k_l d]],

    even in k_l, of determinant 1 and equal to [[1, d], [0, 1]] at k_l = 0,
    enters in the exterior's plane-wave basis, P^-1 C P with
    P = [[1, 1], [ik, -ik]] mapping (A+, A-) to (phi, phi'):

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


def amplitude_arrays(k_outer, layers: Sequence[tuple]):
    """(t, r_left, r_right, singular) of the kernel :func:`transfer_arrays`.

    Left incidence: phi = e^{ikz'} + r_left e^{-ikz'} on the left (z'
    referenced at the first interface) and t e^{ikz''} on the right (z''
    referenced at the last); right incidence is the mirror image, with the
    same t.  ``singular`` is true where m22 = 0 (a spectral singularity); the
    amplitudes there are meaningless.  Elsewhere they can still be
    non-finite where the matrix entries overflowed.
    """
    _, m12, m21, m22 = transfer_arrays(k_outer, layers)
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


def flux_sums(t, r_left, r_right):
    """(|t|^2 + |r_left|^2, |t|^2 + |r_right|^2), elementwise over arrays;
    both are 1 for unitary scattering.

    Each |z|^2 is Re(z)^2 + Im(z)^2 in float64: correctly rounded more often
    than numpy's complex abs squared.  An overflow gives inf, not an error.
    """
    t, r_left, r_right = (np.asarray(a, dtype=complex) for a in (t, r_left, r_right))
    with np.errstate(over="ignore"):
        t2 = t.real ** 2 + t.imag ** 2
        return tuple(t2 + (r.real ** 2 + r.imag ** 2) for r in (r_left, r_right))


# The oracle's integrator: scipy's embedded 5(4) Runge-Kutta pair and its
# relative and absolute tolerances.
ODE_METHOD = "RK45"
ODE_RTOL = 1e-10
ODE_ATOL = 1e-10


def ode_amplitudes(k_outer, layers: Sequence[tuple]):
    """(t_left, r_left, t_right, r_right) of the stack by direct adaptive
    integration of the wave ODE.

    Independent cross-check of :func:`amplitude_arrays`, for one frequency:
    ``k_outer`` and each k2 are numbers.  The layers are laid out on
    [0, total thickness] as a piecewise k^2(z); the oracle integrates
    phi'' = -k^2(z) phi from the far boundary seeded with the outgoing wave
    to the near boundary, where the solution splits into incoming and
    outgoing plane waves.  The unknowns are the local plane-wave amplitudes
    (variation of parameters): phi = A e^{ik(z - z_ref)} + B e^{-ik(z - z_ref)}
    with phi' = ik (A e^{ik(z - z_ref)} - B e^{-ik(z - z_ref)}), so

        A' = i D phi e^{-ik(z - z_ref)} / (2k),
        B' = -i D phi e^{ik(z - z_ref)} / (2k),    D = k^2(z) - k_outer^2.

    The reflected amplitude starts at zero and grows only where D is
    nonzero, so a weak reflection is integrated directly rather than
    recovered from near-cancelling (phi, phi') combinations.  The interfaces
    split the integration into smooth segments; the embedded 5(4) pair then
    controls the error properly.  Conventions match :func:`amplitude_arrays`
    (references at the first and last interface).
    """
    k_outer = float(k_outer)
    ik = 1j * k_outer
    k_sq = k_outer * k_outer
    i_over_2k = 0.5j / k_outer
    edges = [0.0]
    spans = []  # (z0, z1, k2) of each layer, occupying (z0, z1]
    for k2, d in layers:
        if d < 0:
            raise ValueError(f"thickness must be non-negative, got {d}")
        edges.append(edges[-1] + d)
        spans.append((edges[-2], edges[-1], complex(k2)))
    z_min, z_max = 0.0, edges[-1]
    if z_max == z_min:
        return 1.0, 0.0, 1.0, 0.0
    from scipy.integrate import solve_ivp

    def k2_of_z(z: float) -> complex:
        for z0, z1, k2 in spans:
            if z0 < z <= z1:
                return k2
        return complex(k_sq)

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
            # the half-open (z0, z1] convention of k2_of_z.
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

            sol = solve_ivp(rhs, (z0, z1), y, method=ODE_METHOD, rtol=ODE_RTOL,
                            atol=atol, first_step=abs(z1 - z0) / 1000.0 or abs(z1 - z0))
            if not sol.success:
                raise StiffnessError(float(sol.t[-1]), sol.message)
            peak = np.maximum(peak, np.abs(sol.y).max(axis=1))
            y = sol.y[:, -1]
        return y, peak

    def solve(points: list[float], y0, z_ref: float) -> np.ndarray:
        y, peak = run(points, y0, z_ref, ODE_ATOL)
        # A weak reflection stays orders of magnitude below the transmitted
        # amplitude, and an absolute tolerance sized for the larger one
        # leaves it unresolved (the step then skips over its e^{2ikz}
        # oscillation).  Rerun with each component's tolerance scaled to
        # its own peak.
        ratio = peak / peak.max()
        if ratio.min() < 1e-3:
            scaled = np.maximum(ODE_ATOL * ratio, np.finfo(float).tiny)
            y, _ = run(points, y0, z_ref, scaled)
        return y

    interior = [z for z in edges[1:-1] if z_min < z < z_max]
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

    return t_left, r_left, t_right, r_right


def growth_exponent(layers: Sequence[tuple]) -> float:
    """Largest |Im k| * thickness over the (k2, thickness) pairs; each k2 may
    be an array over frequencies, and the largest over it counts.

    Transfer-matrix entries reach e^{2x} of this exponent; above ~17 the
    numeric 2x2 determinant is destroyed by cancellation (amplitudes remain
    accurate, as they only use entry ratios and the analytic determinant).
    """
    return max((float(np.max(np.abs(wavenumber_from_k2(k2).imag))) * d
                for k2, d in layers), default=0.0)
