"""Scattering off gain/loss bilayers in a planar slab waveguide.

Two models of the same geometry: the exact dispersive (Lorentz) guided-mode
wave equation, and its near-cutoff reduction to a Schrodinger equation with
a purely imaginary mirror-antisymmetric potential.  Includes a transfer-
matrix scattering engine, frequency sweeps, and fourth-order (Pade)
wavepacket propagation.
"""

__version__ = "0.1.0"

from .medium import MediumParams, RegionKind
from .models import ModelKind, sweep
from .quantities import Config, cutoff_frequency, ev_to_angular

__all__ = [
    "__version__",
    "Config",
    "MediumParams",
    "ModelKind",
    "RegionKind",
    "cutoff_frequency",
    "ev_to_angular",
    "sweep",
]
