"""Piecewise-constant 1D Helmholtz scattering engine.

Solves phi'' + k^2(z) phi = 0 for a stack of uniform layers between two
identical semi-infinite propagating regions.  A stack is the exterior
wavenumber ``k_outer`` and a list of (k2, thickness) pairs, and that is the
only input format.  One array kernel, :func:`transfer_arrays`, multiplies
the layers' characteristic matrices, each written in the exterior's
plane-wave basis, over arrays of frequencies, in the stack's order and in
reverse; :func:`amplitude_arrays` and :func:`flux_sums` read it.

Phase conventions: each exterior's coefficients multiply e^{+-ik(z - z_edge)}
with z_edge the stack edge it touches (the left exterior is referenced at
the first interface, the right exterior at the last).  All |.|^2
observables and the PT bilinears are reference-independent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Frequencies per kernel pass of :func:`amplitude_arrays`: the chunk bounds
# the kernel's temporaries and keeps them in cache.  Both models at 40,000
# frequencies, each multiplied in both orders, take ~42-44 ms in chunks of
# 4,096 against ~56-60 ms in one pass (~42-45 ms at 2,048, ~49-55 ms at
# 1,024, ~53-54 ms at 8,192; fastest of 15 rounds, 2-core x86_64).
_CHUNK = 4096


class SpectralSingularityError(ArithmeticError):
    """m22 = 0: amplitudes diverge at this real frequency (gain-induced pole)."""


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
    ``k_outer``, and m22 of the mirrored stack, the layers in reverse order.

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
    multiply left to right; the mirrored stack multiplies the same matrices
    right to left, with the same arithmetic, so its m22 has the bits of the
    reversed stack's own kernel call.  Every term is regular at k_l = 0,
    and no entry is formed as a difference of near-equal terms: the
    contrast k2 - k^2 is a factor of the off-diagonal entries, so a weak or
    thin layer's reflection keeps full relative accuracy, and the diagonal
    keeps the decaying plane wave instead of recovering it as cos - i sin of
    two growing ones.
    """
    k = np.asarray(k_outer, dtype=float)
    k_sq = k * k
    i_over_2k = 0.5j / k
    matrices = []
    for k2, d in layers:
        k_layer, kd, sin_over_k = _layer_phase(k2, d)
        contrast = np.asarray(k2, dtype=complex) - k_sq
        mismatch = contrast / (k_layer + k)  # k_l - k without cancellation
        # the thickness enters by one product, so subnormal layers round once;
        # no operand is unnamed: numpy multiplies into one of 256 KiB or more
        # in place, operands swapped, and its complex multiply is not bitwise
        # commutative, so a frequency's digits would depend on the length
        off = i_over_2k * contrast
        off = sin_over_k * off
        q = i_over_2k * mismatch * mismatch
        q = sin_over_k * q
        matrices.append((np.exp(1j * kd) + q, np.exp(-1j * kd) - q, off))
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for a, e, off in matrices:
        m11, m12, m21, m22 = (a * m11 + off * m21, a * m12 + off * m22,
                              e * m21 - off * m11, e * m22 - off * m12)
    # m22 of the reversed product reads only its m12 and m22
    n12, n22 = 0.0, 1.0
    for a, e, off in reversed(matrices):
        n12, n22 = a * n12 + off * n22, e * n22 - off * n12
    return m11, m12, m21, m22, n22


def amplitude_arrays(k_outer, layers: Sequence[tuple]):
    """(t, r_left, r_right, singular, t_mirrored) of the kernel
    :func:`transfer_arrays`.

    Left incidence: phi = e^{ikz'} + r_left e^{-ikz'} on the left (z'
    referenced at the first interface) and t e^{ikz''} on the right (z''
    referenced at the last); right incidence is the mirror image, with the
    same t.  ``singular`` is true where m22 = 0 (a spectral singularity); the
    amplitudes there are meaningless.  Elsewhere they can still be
    non-finite where the matrix entries overflowed.  ``t_mirrored`` is t of
    the mirrored stack, from the kernel's m22 of it: bitwise equal to
    ``amplitude_arrays(k_outer, layers[::-1])[0]``, and equal to t where
    reciprocity holds.  A 1-d ``k_outer`` is evaluated in chunks of
    :data:`_CHUNK` frequencies, each k2 with it.
    """
    k = np.asarray(k_outer, dtype=float)
    if k.ndim == 1 and k.size > _CHUNK:
        t, r_left, r_right, t_mirrored = (np.empty(k.size, complex) for _ in range(4))
        singular = np.empty(k.size, bool)
        for lo in range(0, k.size, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            (t[part], r_left[part], r_right[part], singular[part],
             t_mirrored[part]) = amplitude_arrays(
                k[part], [(np.broadcast_to(k2, k.shape)[part], d) for k2, d in layers])
        return t, r_left, r_right, singular, t_mirrored
    _, m12, m21, m22, n22 = transfer_arrays(k_outer, layers)
    # With equal exterior wavenumbers the determinant is exactly 1, so
    # t_left = det/m22 = 1/m22 = t_right; using the analytic value avoids
    # the catastrophic cancellation of the numeric 2x2 determinant when the
    # matrix entries reach e^{2 Im(k) d} ~ e^{40}.
    m22, n22 = np.asarray(m22, dtype=complex), np.asarray(n22, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = 1.0 / m22
        r_left = -m21 / m22
        r_right = m12 / m22
        t_mirrored = 1.0 / n22
    return t, r_left, r_right, m22 == 0, t_mirrored


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
