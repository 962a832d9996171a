"""Scattering off gain/loss bilayers in a planar slab waveguide.

Two models of the same geometry: the exact dispersive (Lorentz) guided-mode
wave equation, and its near-cutoff reduction to a Schrodinger equation with
a purely imaginary mirror-antisymmetric potential.  Includes a transfer-
matrix scattering engine, frequency sweeps, and fourth-order (Pade)
wavepacket propagation.

Importing the package loads numpy under :func:`_one_blas_thread`, as the
stepper loads scipy's LAPACK extension: each bundles its own OpenBLAS,
whose default pool starts a worker thread that spins for about 0.1 s after
the load, on the core that the stepper's second solve needs.  The package
calls no threaded BLAS.  Side effect for library users: a process that
imports ``ptwaveguide`` before numpy, with ``OPENBLAS_NUM_THREADS`` unset,
gets single-threaded numpy BLAS.
"""

import contextlib
import os


@contextlib.contextmanager
def _one_blas_thread():
    """Set ``OPENBLAS_NUM_THREADS=1`` for the block if it is unset.

    An OpenBLAS sizes its thread pool from the environment when its library
    loads, so a library loaded inside the block starts with one thread
    unless the variable was set.  The environment is left as it was found.
    """
    unset = "OPENBLAS_NUM_THREADS" not in os.environ
    if unset:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if unset:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)


with _one_blas_thread():
    import numpy as _numpy  # noqa: F401  (loaded here for its OpenBLAS)

__version__ = "0.1.0"
