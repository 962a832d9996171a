"""Command-line front end: frequency sweeps, plot scripts, packet runs.

Exit codes: 0 success, 1 failed --check assertions, 2 configuration or
domain errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain, repeat
from math import log10

import numpy as np

from . import __version__
from .medium import MediumParams, from_config, width_mismatch
from .helmholtz import amplitude_arrays
from .models import (STATUS_NONFINITE, STATUS_OK, ModelColumns, ModelKind,
                     SweepTable, bilayer, pt_defect, sweep)
from .quantities import (E_CHARGE, Config, ConfigError, angular_to_ev,
                         config_as_dict, ev_to_angular, load_config,
                         with_overrides)
from .timeprop import (BoundaryContaminationError, IncompleteScatterError,
                       PlacementError, deviation_percent,
                       fractions_below_residual, plan_packet_run, scatter_packet)

CSV_HEADER = ("omega_over_omegac,model,t_left_re,t_left_im,r_left_re,r_left_im,"
              "t_right_re,t_right_im,r_right_re,r_right_im,sum_left,sum_right,"
              "log10_sum_left,log10_sum_right,status")

_SNAPSHOT_ROW = "%.15g,%.15g,%.15g,%.15g,%.15g\n"
_SNAPSHOT_BLOCK = 2048  # points per write; a whole state at once adds ~8 MB of peak RSS

_MODEL_CHOICES = {
    "exact": (ModelKind.EXACT,),
    "approx": (ModelKind.APPROXIMATE,),
    "both": (ModelKind.EXACT, ModelKind.APPROXIMATE),
}


def _model_lines(x: list[float], model: ModelKind, col: ModelColumns) -> list[str]:
    # one %-template render per row over .tolist() columns: Python floats
    # print exactly as f"{x:.15g}" does
    s_left, s_right = col.s_left.tolist(), col.s_right.tolist()
    t_re, t_im = col.t.real.tolist(), col.t.imag.tolist()
    template = "%.15g," + model.value + ",%.15g" * 12 + "," + STATUS_OK
    lines = [template % row for row in zip(
        x, t_re, t_im, col.r_left.real.tolist(), col.r_left.imag.tolist(),
        t_re, t_im, col.r_right.real.tolist(), col.r_right.imag.tolist(),
        s_left, s_right, map(log10, s_left), map(log10, s_right))]
    blank = "%.15g," + model.value + "," * 13 + "%s"
    for i in np.flatnonzero(col.status != STATUS_OK).tolist():
        lines[i] = blank % (x[i], col.status[i])
    return lines


def rows_to_csv(table: SweepTable) -> str:
    """Render the sweep table in the fixed schema, one line per frequency and
    model; rows that are not ok keep empty numeric fields and their status."""
    x = table.omega_over_omegac.tolist()
    per_model = [_model_lines(x, model, col) for model, col in table.models.items()]
    return "\n".join([CSV_HEADER, *chain.from_iterable(zip(*per_model))]) + "\n"


def render_plot_script(csv_path: str) -> str:
    """Gnuplot script: exact model as solid/dashed lines for left/right
    incidence, reduced model as symbols, versus omega/omega_c."""
    q = csv_path
    return (
        "# Flux sums |t|^2 + |r|^2 for left/right incidence.\n"
        "# Usage: gnuplot -p <this file>\n"
        'set datafile separator ","\n'
        'set xlabel "omega / omega_c"\n'
        'set ylabel "log10(|t|^2 + |r|^2)"\n'
        "set key top right\n"
        "plot \\\n"
        f'  "{q}" using (strcol(2) eq "exact" ? $1 : 1/0):13 '
        'with lines lc rgb "#1f77b4" lw 2 title "exact, left incidence", \\\n'
        f'  "{q}" using (strcol(2) eq "exact" ? $1 : 1/0):14 '
        'with lines lc rgb "#d62728" lw 2 dt 2 title "exact, right incidence", \\\n'
        f'  "{q}" using (strcol(2) eq "approx" ? $1 : 1/0):13 '
        'with points lc rgb "#1f77b4" pt 7 ps 0.4 title "reduced model, left", \\\n'
        f'  "{q}" using (strcol(2) eq "approx" ? $1 : 1/0):14 '
        'with points lc rgb "#d62728" pt 6 ps 0.4 title "reduced model, right"\n'
    )


def write_manifest(path: str, config: Config, params: MediumParams,
                   table: SweepTable) -> None:
    by_status = table.status_counts()
    frequencies, csv_rows = len(table.omega_over_omegac), sum(by_status.values())
    manifest = {
        "tool": "ptwaveguide",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config_as_dict(config),
        "derived": {
            "omega_c_rad_s": params.omega_c,
            "hbar_omega_c_ev": angular_to_ev(params.omega_c),
            "slab_width_m": params.slab_width,
            "width_mismatch_rel": width_mismatch(params, config),
            "regime_ratio_damping": params.regime_ratio_damping,
            "regime_ratio_cutoff": params.regime_ratio_cutoff,
        },
        "models": [m.value for m in table.models],
        "rows": frequencies,
        "frequencies": frequencies,
        "csv_rows": csv_rows,
        "singular_rows": csv_rows - by_status[STATUS_OK],
        "rows_by_status": by_status,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_checks(table: SweepTable, params: MediumParams, config: Config) -> list[str]:
    """Property assertions on the sweep table; returns failure messages,
    ordered by frequency, then model, then check."""
    found: list[tuple[tuple[int, int, int, int], str]] = []

    def flag(part, j, check, mask, message):
        found.extend(((part, i, j, check), message(i)) for i in np.flatnonzero(mask).tolist())

    x = table.omega_over_omegac.tolist()
    for j, (model, col) in enumerate(table.models.items()):
        ok, name = col.status == STATUS_OK, model.value
        flag(0, j, 0, col.status == STATUS_NONFINITE,
             lambda i: f"non-finite amplitudes at x={x[i]} ({name})")
        # t of the mirrored stack is t_right of this one
        k_outer, layers = bilayer(model, params, table.omega_over_omegac * params.omega_c)
        t, t_right = col.t, amplitude_arrays(k_outer, layers[::-1])[0]
        with np.errstate(invalid="ignore"):
            reciprocity = np.abs(t - t_right) > 1e-10 * np.maximum(np.abs(t), 1e-300)
        flag(0, j, 1, ok & reciprocity, lambda i: f"reciprocity violated at x={x[i]} ({name})")
        if model is ModelKind.APPROXIMATE:
            resid = np.abs(np.abs(t) ** 2 + col.r_left.conjugate() * col.r_right - 1.0)
            flag(0, j, 2, ok & (resid > 1e-8),
                 lambda i: f"generalized unitarity residual {resid[i]:.2e} at x={x[i]}")
        asymmetric = (col.s_left > 1.0) & (col.s_right < 1.0)
        flag(0, j, 3, ok & (table.omega_over_omegac <= 1.019) & ~asymmetric,
             lambda i: f"low-energy asymmetry violated at x={x[i]} ({name}): "
                       f"s_left={float(col.s_left[i])}, s_right={float(col.s_right[i])}")
    # Hermitian control: switching the resonant term off must give unit sums.
    control = sweep(replace(params, omega_p=0.0), config.sweep_start, config.sweep_stop,
                    min(41, config.sweep_points))
    x_off = control.omega_over_omegac.tolist()
    for j, (model, col) in enumerate(control.models.items()):
        ok, name, status = col.status == STATUS_OK, model.value, col.status.tolist()
        flag(1, j, 0, ~ok,
             lambda i: f"{status[i]} row with the medium off at x={x_off[i]} ({name})")
        not_unit = (np.abs(col.s_left - 1.0) > 1e-10) | (np.abs(col.s_right - 1.0) > 1e-10)
        flag(1, j, 1, ok & not_unit, lambda i: "unit flux sums violated with the medium "
                                               f"off at x={x_off[i]} ({name})")
    failures = [message for _, message in sorted(found)]
    if not any((col.status == STATUS_OK).any() for col in table.models.values()):
        failures.insert(0, "no row has status ok")
    return failures


def _load(args) -> Config:
    config = load_config(args.config) if args.config else Config()
    overrides = {}
    if getattr(args, "sweep", None):
        parts = args.sweep.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--sweep expects START:STOP:N, got {args.sweep!r}")
        overrides = dict(sweep_start=float(parts[0]), sweep_stop=float(parts[1]),
                         sweep_points=int(parts[2]))
    if getattr(args, "output", None):
        overrides["output_path"] = args.output
    return with_overrides(config, **overrides)


def cmd_sweep(args) -> int:
    config = _load(args)
    params = from_config(config)
    models = _MODEL_CHOICES[args.models]
    table = sweep(params, config.sweep_start, config.sweep_stop,
                  config.sweep_points, models=models)
    csv_text = rows_to_csv(table)
    with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text)
    write_manifest(config.output_path + ".manifest.json", config, params, table)
    x, by_status = table.omega_over_omegac, table.status_counts()
    singular = sum(by_status.values()) - by_status[STATUS_OK]
    max_defect = float(np.max(pt_defect(ModelKind.EXACT, params, x * params.omega_c)))
    print(f"wrote {config.output_path}: {len(x)} frequencies x "
          f"{len(models)} model(s), {singular} singular row(s)")
    print(f"max mirror-conjugation defect of the exact profile: {max_defect:.6g}")
    if args.plot:
        plot_path = config.output_path + ".gp"
        with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_plot_script(config.output_path))
        print(f"wrote {plot_path}")
    if args.check:
        failures = run_checks(table, params, config)
        if failures:
            for message in failures:
                print(f"CHECK FAILED: {message}", file=sys.stderr)
            return 1
        print("all sweep checks passed")
    return 0


def cmd_plot(args) -> int:
    with open(args.csv_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        print(f"error: {args.csv_path} does not carry the expected header",
              file=sys.stderr)
        return 2
    if len(lines) < 2:
        print(f"error: {args.csv_path} has no data rows", file=sys.stderr)
        return 2
    script = render_plot_script(args.csv_path)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(script)
    else:
        sys.stdout.write(script)
    return 0


def cmd_packet(args) -> int:
    config = _load(args)
    params = from_config(config)
    plan = plan_packet_run(params, sigma=args.sigma_um * 1e-6,
                           energy=args.energy_ev * E_CHARGE,
                           from_left=(args.incidence == "left"))
    if args.t_final_ps is not None:
        plan = replace(plan, t_final=args.t_final_ps * 1e-12)
    record = tuple(float(t) * 1e-12 for t in args.snapshot_times_ps.split(",")) \
        if args.snapshot_times_ps else ()
    guards = {}
    if args.interior_tol is not None:
        guards["interior_tol"] = args.interior_tol
    result = scatter_packet(params, plan.spec, plan.grid, plan.t_final,
                            record_times=record, **guards)
    x_carrier = 1.0 + ev_to_angular(args.energy_ev) / params.omega_c
    print(f"carrier: {args.energy_ev:g} eV (omega/omega_c = {x_carrier:.4f}), "
          f"sigma = {args.sigma_um:g} um, incidence {args.incidence}")
    print(f"bandwidth ratio Omega/delta = {result.bandwidth_ratio:.4f}")
    print(f"transmitted fraction: {result.transmitted:.6f} "
          f"(stationary prediction {result.predicted_transmitted:.6f}, "
          f"deviation {deviation_percent(result.transmitted, result.predicted_transmitted)})")
    print(f"reflected fraction:   {result.reflected:.6f} "
          f"(stationary prediction {result.predicted_reflected:.6f}, "
          f"deviation {deviation_percent(result.reflected, result.predicted_reflected)})")
    print(f"interior residual:    {result.interior_norm:.6f}")
    print(f"total norm:           {result.total:.6f} "
          f"(norm gain {result.norm_gain:+.6f})")
    for name in fractions_below_residual(result):
        print(f"warning: {name} fraction {getattr(result, name):.3g} is below the "
              f"interior residual {result.interior_norm:.3g}; it is not settled",
              file=sys.stderr)
    if args.snapshots:
        with open(args.snapshots, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,z,re_psi,im_psi,abs2_psi\n")
            for state in result.states:
                for lo in range(0, state.psi.size, _SNAPSHOT_BLOCK):
                    psi = state.psi[lo:lo + _SNAPSHOT_BLOCK]
                    # |psi|^2 as hypot, then Python's float ** (libm pow): the
                    # digits of abs(p) ** 2 on a numpy complex scalar
                    abs2 = [a ** 2 for a in np.hypot(psi.real, psi.imag).tolist()]
                    fh.write("".join([_SNAPSHOT_ROW % row for row in zip(
                        repeat(state.t), state.grid.z[lo:lo + _SNAPSHOT_BLOCK].tolist(),
                        psi.real.tolist(), psi.imag.tolist(), abs2)]))
        print(f"wrote {args.snapshots}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptwaveguide",
        description="Scattering off a gain/loss bilayer in a planar slab "
                    "waveguide: dispersive model, near-cutoff reduction, "
                    "and wavepacket propagation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a frequency sweep and write CSV")
    p_sweep.add_argument("--config", help="config file (key = value lines)")
    p_sweep.add_argument("--models", choices=sorted(_MODEL_CHOICES), default="both")
    p_sweep.add_argument("--sweep", metavar="START:STOP:N",
                         help="override the omega/omega_c grid")
    p_sweep.add_argument("--output", help="override the CSV path")
    p_sweep.add_argument("--plot", action="store_true",
                         help="also write a gnuplot script next to the CSV")
    p_sweep.add_argument("--check", action="store_true",
                         help="run property assertions on the sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="emit a gnuplot script for a sweep CSV")
    p_plot.add_argument("csv_path")
    p_plot.add_argument("--output", help="write the script here instead of stdout")
    p_plot.set_defaults(func=cmd_plot)

    p_packet = sub.add_parser("packet", help="scatter a wavepacket off the bilayer")
    p_packet.add_argument("--config", help="config file (key = value lines)")
    p_packet.add_argument("--sigma-um", type=float, default=3.0,
                          help="packet width sigma in micrometers")
    p_packet.add_argument("--energy-ev", type=float, default=0.2,
                          help="carrier kinetic energy in eV")
    p_packet.add_argument("--from", dest="incidence", choices=("left", "right"),
                          default="left")
    p_packet.add_argument("--t-final-ps", type=float, default=None,
                          help="override the planned run duration")
    p_packet.add_argument("--interior-tol", type=float, default=None,
                          help="override the interior-clearance guard "
                               "(useful for mid-flight snapshots)")
    p_packet.add_argument("--snapshots", help="write field snapshots to this CSV")
    p_packet.add_argument("--snapshot-times-ps",
                          help="comma separated times (ps) to snapshot")
    p_packet.set_defaults(func=cmd_packet)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PlacementError, BoundaryContaminationError, IncompleteScatterError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
