"""Scattering off gain/loss bilayers in a planar slab waveguide.

Two models of the same geometry: the exact dispersive (Lorentz) guided-mode
wave equation, and its near-cutoff reduction to a Schrodinger equation with
a purely imaginary mirror-antisymmetric potential.  Includes a transfer-
matrix scattering engine, frequency sweeps, and fourth-order (Pade)
wavepacket propagation.
"""

__version__ = "0.1.0"
