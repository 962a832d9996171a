#!/usr/bin/env python3
"""Wavepacket scattering versus the stationary prediction.

Runs the reference medium at a 0.2 eV carrier for two packet widths and
prints how closely the transmitted/reflected fractions track the spectral
averages of the stationary reduced model.  Doubling sigma halves the
bandwidth; the transmitted-fraction agreement sharpens accordingly.

Note the time ceiling: the pumped section is above its amplification
threshold, so round-off-seeded modes take over after roughly 2 ps; the
planned runs finish well inside the stable window.
"""

import time

from ptwaveguide.medium import from_config
from ptwaveguide.quantities import Config, E_CHARGE
from ptwaveguide.timeprop import deviation_percent, plan_packet_run, scatter_packet

params = from_config(Config())
energy_ev = 0.2

for sigma_um in (3.0, 6.0):
    start = time.time()
    plan = plan_packet_run(params, sigma=sigma_um * 1e-6,
                           energy=energy_ev * E_CHARGE)
    result = scatter_packet(params, plan.spec, plan.grid, plan.t_final)
    print(f"sigma = {sigma_um:.0f} um  (Omega/delta = {result.bandwidth_ratio:.4f}, "
          f"{plan.grid.n_points} points, t_final = {plan.t_final * 1e12:.2f} ps, "
          f"{time.time() - start:.0f} s)")
    print(f"  transmitted {result.transmitted:.6f} vs {result.predicted_transmitted:.6f} "
          f"({deviation_percent(result.transmitted, result.predicted_transmitted)})")
    print(f"  reflected   {result.reflected:.4f} vs {result.predicted_reflected:.4f} "
          f"({deviation_percent(result.reflected, result.predicted_reflected)})")
    print(f"  norm gain   {result.norm_gain:+.4f} "
          f"(gain region first, so the packet returns amplified)")
