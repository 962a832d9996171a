"""Independent reference for the benchmark's correctness checks.

Scattering amplitudes of a stack of uniform layers between two identical
propagating exterior media, from the (phi, phi') characteristic matrix of
each layer (Born & Wolf, *Principles of Optics*, sec. 1.6):

    [[cos kd, sin(kd)/k], [-k sin kd, cos kd]]

The matrix is even in k, so no branch of sqrt(k^2) has to be chosen, and
its determinant is exactly 1.  The medium is written out from the physics:
a single-resonance Lorentz permittivity whose resonant term flips sign in
the pumped half, the guided-mode wavenumber k^2 = (omega^2 eps - omega_c^2)/c^2
with the cutoff tuned to the resonance, and its first-order near-cutoff
truncation.  Nothing is imported from the package under test.

The functions take numpy arrays of frequencies, or mpmath numbers when
called with ``lib=mpmath``: :func:`mp_amplitudes` repeats the product at 50
digits for spot checks where the matrix entries grow like e^40.

Phase references follow the usual transfer-matrix convention: the left
exterior wave is referenced at the first interface and the right one at the
last.  The checks only rely on |t|, |r| and flux sums, which do not depend
on that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

C = 299792458.0
HBAR = 1.054571817e-34
E_CHARGE = 1.602176634e-19

GAIN = -1
ABSORBER = 1


@dataclass(frozen=True)
class Medium:
    """Gain region on (-l, 0), absorber on (0, l); SI units.

    ``omega0`` is both the Lorentz resonance and the waveguide cutoff.
    """

    omega0: float
    omega_p: float
    delta: float
    length: float

    @classmethod
    def from_ev(cls, omega0_ev: float = 5.0, omegap_ev: float = 0.2,
                delta_ev: float = 1.25, length_um: float = 19.7) -> "Medium":
        to_rad_s = E_CHARGE / HBAR
        return cls(omega0_ev * to_rad_s, omegap_ev * to_rad_s,
                   delta_ev * to_rad_s, length_um * 1e-6)

    @property
    def mass(self) -> float:
        """Mass of the equivalent Schrodinger problem, hbar*omega_c/c^2."""
        return HBAR * self.omega0 / C ** 2


def k2_exact(medium: Medium, omega, sign: int):
    """Guided-mode k^2 with the Lorentz permittivity; sign -1 gain, +1 absorber."""
    w0 = medium.omega0
    eps = 1 - sign * medium.omega_p ** 2 / ((omega - w0) * (omega + w0)
                                            + 2j * medium.delta * omega)
    return (omega * omega * eps - w0 * w0) / C ** 2


def k2_approx(medium: Medium, omega, sign: int):
    """k^2 truncated at first order in the detuning omega - omega_c."""
    w0 = medium.omega0
    return (2 * w0 * (omega - w0)
            + 1j * sign * w0 * medium.omega_p ** 2 / (2 * medium.delta)) / C ** 2


def exterior_k(model: str, medium: Medium, omega, lib=np):
    """Wavenumber of the empty guide above cutoff, in either model."""
    w0 = medium.omega0
    if model == "exact":
        return lib.sqrt((omega - w0) * (omega + w0)) / C
    return lib.sqrt(2 * w0 * (omega - w0)) / C


def bilayer(model: str, medium: Medium, omega):
    """(k^2, thickness) of the gain then the absorbing layer, left to right."""
    k2 = k2_exact if model == "exact" else k2_approx
    return [(k2(medium, omega, GAIN), medium.length),
            (k2(medium, omega, ABSORBER), medium.length)]


def characteristic_matrix(layers, lib=np):
    """Product of the layers' (phi, phi') matrices, first layer rightmost.

    Maps (phi, phi') at the left edge of the stack to the right edge.
    """
    m11, m12, m21, m22 = 1, 0, 0, 1
    for k2, d in layers:
        k = lib.sqrt(k2)
        cos, sin = lib.cos(k * d), lib.sin(k * d)
        a12, a21 = sin / k, -k * sin
        m11, m12, m21, m22 = (cos * m11 + a12 * m21, cos * m12 + a12 * m22,
                              a21 * m11 + cos * m21, a21 * m12 + cos * m22)
    return m11, m12, m21, m22


def stack_amplitudes(k_out, layers, lib=np):
    """(t, r_left, r_right) of the stack between exteriors of wavenumber k_out.

    Left incidence matches phi = e^{ikz} + r e^{-ikz} and phi' at the left
    edge to t e^{ikz} at the right edge through the characteristic matrix,
    whose determinant is 1.  Right incidence is left incidence on the
    mirrored stack.
    """
    def left(m):
        m11, m12, m21, m22 = m
        q = 1j * k_out
        denom = q * (m11 + m22) - q * q * m12 - m21
        return 2 * q / denom, (m21 - q * q * m12 + q * (m22 - m11)) / denom

    t, r_left = left(characteristic_matrix(layers, lib))
    _, r_right = left(characteristic_matrix(layers[::-1], lib))
    return t, r_left, r_right


def amplitudes(model: str, medium: Medium, x):
    """(t, r_left, r_right) arrays at omega/omega_c = x for "exact" or "approx"."""
    omega = np.asarray(x, dtype=float) * medium.omega0
    return stack_amplitudes(exterior_k(model, medium, omega),
                            bilayer(model, medium, omega))


def mp_amplitudes(model: str, medium: Medium, x: float, dps: int = 50):
    """:func:`amplitudes` at one float frequency, evaluated with ``dps`` digits."""
    with mpmath.workdps(dps):
        omega = mpmath.mpf(x) * mpmath.mpf(medium.omega0)
        t, r_left, r_right = stack_amplitudes(
            exterior_k(model, medium, omega, mpmath), bilayer(model, medium, omega),
            mpmath)
        return complex(t), complex(r_left), complex(r_right)


def flux_sums(t, r_left, r_right):
    """|t|^2 + |r|^2 for left and for right incidence."""
    t2 = np.abs(t) ** 2
    return t2 + np.abs(r_left) ** 2, t2 + np.abs(r_right) ** 2


def packet_fractions(medium: Medium, sigma: float, energy_ev: float,
                     n_points: int = 1601, half_width: float = 8.0):
    """Spectral averages of |t|^2, |r_left|^2 and |r_right|^2 over a packet.

    A Gaussian packet exp(-(z - z0)^2 / (4 sigma^2) + i k0 z) of the reduced
    model carries the momentum density exp(-2 sigma^2 (k - k0)^2); each k is
    the stationary problem at detuning hbar k^2 / (2m) above the cutoff, and
    k0 belongs to the carrier's kinetic energy.  The average runs over
    ``half_width`` standard deviations either side of k0.
    """
    k0 = np.sqrt(2 * medium.mass * energy_ev * E_CHARGE) / HBAR
    spread = half_width / (2 * sigma)
    ks = np.linspace(k0 - spread, k0 + spread, n_points)
    weight = np.exp(-2 * sigma ** 2 * (ks - k0) ** 2)
    omega = medium.omega0 + HBAR * ks ** 2 / (2 * medium.mass)
    t, r_left, r_right = stack_amplitudes(ks, bilayer("approx", medium, omega))
    norm = np.trapezoid(weight, ks)
    return tuple(float(np.trapezoid(weight * np.abs(a) ** 2, ks) / norm)
                 for a in (t, r_left, r_right))
