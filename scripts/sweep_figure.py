#!/usr/bin/env python3
"""Reproduce the flux-sum comparison figure: runs `ptwaveguide sweep --plot`
(both models, CSV + gnuplot script + manifest written next to each other),
then prints two figures of that sweep.

Usage: python scripts/sweep_figure.py [output.csv]
Then:  gnuplot -p output.csv.gp
"""

import sys

import numpy as np

from ptwaveguide import cli
from ptwaveguide.medium import from_config
from ptwaveguide.models import ModelKind, sweep
from ptwaveguide.quantities import Config, angular_to_ev

out = sys.argv[1] if len(sys.argv) > 1 else "figure_sweep.csv"
if cli.main(["sweep", "--plot", "--output", out]) != 0:
    sys.exit(1)

params = from_config(Config())
print(f"medium: hbar*omega_c = {angular_to_ev(params.omega_c):.2f} eV tuned to the "
      f"resonance, regions {params.region_length * 1e6:.1f} um")
print(f"weak-resonance ratios: {params.regime_ratio_damping:.4f}, "
      f"{params.regime_ratio_cutoff:.4f}")

table = sweep(params, *cli.SWEEP_WINDOW,
              models=(ModelKind.EXACT, ModelKind.APPROXIMATE))

# where does the left/right asymmetry hold, and how close are the models?
x = table.omega_over_omegac
asymmetric = np.logical_and.reduce([(col.s_left > 1) & (col.s_right < 1)
                                    for col in table.models.values()])
broken = np.flatnonzero(~asymmetric)
asym_prefix = x[(broken[0] if broken.size else x.size) - 1]
exact = table.models[ModelKind.EXACT]
approx = table.models[ModelKind.APPROXIMATE]
low = x < 1.0158
worst_low = 0.0
for se, sa in ((exact.s_left, approx.s_left), (exact.s_right, approx.s_right)):
    le, la = np.log10(se[low]), np.log10(sa[low])
    worst_low = max(worst_low, float(np.max(np.abs(le - la) / np.maximum(1.0, np.abs(le)))))
print(f"s_left > 1 > s_right holds on every grid point up to omega/omega_c "
      f"= {asym_prefix:.4f} (both models)")
print(f"worst log10 model-agreement metric below 1.0158: {worst_low:.4f}")
