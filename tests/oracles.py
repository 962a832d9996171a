"""Reference computations that the tests check the package against.

None of this runs in ``ptwaveguide sweep`` or ``ptwaveguide packet``:

- :func:`ode_amplitudes` integrates the wave ODE of a layer stack with
  scipy's adaptive Runge-Kutta pair, an independent cross-check of the
  transfer-matrix kernel ``helmholtz.amplitude_arrays``.
- :func:`growth_exponent` bounds the growth of a stack's transfer-matrix
  entries, so property tests can keep to well-conditioned stacks.
- :func:`propagate` and :func:`norm_balance_residual` march a wavepacket
  field through the package's one step loop, ``timeprop._march``, and read
  the final field or the norm balance of every step; :func:`norm` is a
  field's discrete norm.

Imported from the tests as ``from oracles import ...``, as conftest helpers
are.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Sequence

import numpy as np

from ptwaveguide.helmholtz import wavenumber_from_k2
from ptwaveguide.quantities import HBAR
from ptwaveguide.timeprop import _march


class StiffnessError(RuntimeError):
    """Adaptive integration step size underflowed."""

    def __init__(self, z: float, message: str):
        super().__init__(f"integration stalled near z = {z:.6e}: {message}")
        self.z = z


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


def norm(psi: np.ndarray, dz: float) -> float:
    """Discrete L2 norm squared, sum |psi|^2 dz."""
    return float(np.sum(np.abs(psi) ** 2) * dz)


def propagate(psi: np.ndarray, potential: np.ndarray, mass: float, dz: float,
              dt: float, n_steps: int) -> np.ndarray:
    """March the field psi n_steps; return the final field, a new array."""
    for _, psi in _march(psi, potential, mass, dz, dt, n_steps):
        pass
    return psi


def norm_balance_residual(psi: np.ndarray, potential: np.ndarray, mass: float,
                          dz: float, dt: float, n_steps: int) -> float:
    """Worst violation of d/dt(norm) = (2/hbar) * sum Im(V) |psi|^2 dz over
    n_steps from the field psi.

    The march keeps two numbers per state, its norm and its flux, not the
    state.  Central time differences at interior states; the defect rate is
    scaled by the norm and by the characteristic balance rate (the largest
    |flux| per unit norm, floored at 1/duration so the Hermitian case is
    still well-defined).  Only the central time difference is O(dt^2): the
    step itself is fourth-order accurate.
    """
    if n_steps < 2:
        raise ValueError("need at least 2 steps (3 states)")
    im_v = np.imag(potential)
    norms = np.empty(n_steps + 1)
    fluxes = np.empty(n_steps + 1)
    psi0 = np.ascontiguousarray(psi, dtype=complex)
    # sums over the real and imaginary parts: no |psi|^2 array
    for k, psi in itertools.chain([(0, psi0)], _march(psi0, potential, mass, dz, dt, n_steps)):
        parts = psi.view(float)
        norms[k] = float(np.dot(parts, parts) * dz)
        flux = (np.einsum("i,i,i->", im_v, psi.real, psi.real)
                + np.einsum("i,i,i->", im_v, psi.imag, psi.imag))
        fluxes[k] = (2.0 / HBAR) * float(flux * dz)
    rate_scale = max(float(np.max(np.abs(fluxes) / norms)), 1.0 / (n_steps * dt))
    dndt = (norms[2:] - norms[:-2]) / (2.0 * dt)
    return float(np.max(np.abs(dndt - fluxes[1:-1]) / norms[1:-1])) / rate_scale
