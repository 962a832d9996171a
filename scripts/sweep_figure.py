#!/usr/bin/env python3
"""Reproduce the flux-sum comparison figure: both models swept over
omega/omega_c, CSV + gnuplot script written next to each other.

Usage: python scripts/sweep_figure.py [output.csv]
Then:  gnuplot -p output.csv.gp
"""

import sys

from ptwaveguide.cli import render_plot_script, rows_to_csv, write_manifest
from ptwaveguide.medium import from_config
from ptwaveguide.models import ModelKind, pt_defect, sweep
from ptwaveguide.quantities import Config

out = sys.argv[1] if len(sys.argv) > 1 else "figure_sweep.csv"
config = Config(output_path=out)
params = from_config(config)
models = (ModelKind.EXACT, ModelKind.APPROXIMATE)

print(f"medium: hbar*omega_c = {5.0:.2f} eV tuned to the resonance, "
      f"regions {params.region_length * 1e6:.1f} um")
print(f"weak-resonance ratios: {params.regime_ratio_damping:.4f}, "
      f"{params.regime_ratio_cutoff:.4f}")

rows = sweep(params, config.sweep_start, config.sweep_stop,
             config.sweep_points, models=models)

with open(out, "w", encoding="utf-8", newline="\n") as fh:
    fh.write(rows_to_csv(rows, models))
write_manifest(out + ".manifest.json", config, params, models, rows)
with open(out + ".gp", "w", encoding="utf-8", newline="\n") as fh:
    fh.write(render_plot_script(out))

# where does the left/right asymmetry hold, and how close are the models?
asym_prefix = None
worst_low = 0.0
broken = False
for row in rows:
    results = row.results.values()
    if not broken and all(r.s_left > 1 > r.s_right for r in results):
        asym_prefix = row.omega_over_omegac
    else:
        broken = True
    if row.omega_over_omegac < 1.0158:
        exact = row.results[ModelKind.EXACT]
        approx = row.results[ModelKind.APPROXIMATE]
        for le, la in ((exact.log10_s_left, approx.log10_s_left),
                       (exact.log10_s_right, approx.log10_s_right)):
            worst_low = max(worst_low, abs(le - la) / max(1.0, abs(le)))
defect = max(pt_defect(ModelKind.EXACT, params,
                       row.omega_over_omegac * params.omega_c) for row in rows)
print(f"s_left > 1 > s_right holds on every grid point up to omega/omega_c "
      f"= {asym_prefix:.4f} (both models)")
print(f"worst log10 model-agreement metric below 1.0158: {worst_low:.4f}")
print(f"max mirror-conjugation defect of the dispersive profile: {defect:.3f}")
print(f"wrote {out}, {out}.gp, {out}.manifest.json")
