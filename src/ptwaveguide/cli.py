"""Command-line front end: frequency sweeps, plot scripts, packet runs.

Exit codes: 0 success, 1 failed --check assertions, 2 configuration or
domain errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections import deque
from contextlib import nullcontext, suppress
from dataclasses import asdict, replace
from datetime import datetime, timezone
from itertools import chain
from time import perf_counter
from typing import Iterator

import numpy as np

from . import __version__
from .csvtext import WIDTH, g15_fields, join_rows
from .medium import NEAR_CUTOFF_X_MAX, MediumParams, from_config
from .helmholtz import SpectralSingularityError, amplitude_arrays
from .models import (STATUS_NONFINITE, STATUS_OK, ModelColumns, ModelKind,
                     SweepTable, bilayer, pt_defect, sweep)
from .quantities import (E_CHARGE, Config, ConfigError, angular_to_ev, ev_to_angular,
                         load_config)
from .timeprop import (BoundaryContaminationError, IncompleteScatterError,
                       deviation_percent, fractions_below_residual, plan_packet_run,
                       require_record_times, scatter_packet, transmission_prediction)

logger = logging.getLogger(__name__)

CSV_HEADER = ("omega_over_omegac,model,t_left_re,t_left_im,r_left_re,r_left_im,"
              "t_right_re,t_right_im,r_right_re,r_right_im,sum_left,sum_right,"
              "log10_sum_left,log10_sum_right,status")

# The distinct numeric columns of a model, and the CSV's 12 numeric fields
# as indices into them: t_left and t_right print the same t.
_CSV_FIELDS = ("t_re", "t_im", "r_left_re", "r_left_im", "r_right_re", "r_right_im",
               "sum_left", "sum_right", "log10_sum_left", "log10_sum_right")
_CSV_ORDER = (0, 1, 2, 3, 0, 1, 4, 5, 6, 7, 8, 9)

# Values per renderer call.  g15_fields takes ~120 ns a value in calls of
# 1,024 values and ~82-91 ns from 3,072 on (2-core x86_64), and peaks at ~290
# bytes a value.  The sweep renders a block of frequencies in one call; the
# snapshot writer a block of points' three fields (6,144 values), next to one
# grid's z text (22 bytes a point).  It runs at the end of a packet run, on
# top of its peak RSS: writing 11 states of 22,235 points, the CLI's own peak
# RSS is ~41.8 MB; 1,024 points per block lower it by under 0.1 MB and cost
# 6-9 ms a run.
_SWEEP_BLOCK = 8192
_SNAPSHOT_BLOCK = 2048

# Blocks per segment of a sweep CSV written by two threads (~6 MB of text):
# the worker renders the tail of each segment while the caller writes its
# head, so the worker holds at most a segment, about half of one while both
# threads run (all of it if the caller is descheduled).  At 40,000
# frequencies, 16 blocks measured the same and 64 ~1% faster, holding twice
# the text.  The worker starts on a CSV of one segment or more, or half a
# segment with the checks: below that, its start (the executor's import
# and thread, ~2 ms) and the threads' contention for the GIL cost about
# what it takes over (break-even measured at ~16 blocks with the checks,
# ~26 without).
_SWEEP_SEGMENT = 32

# sweep --sweep: the default omega/omega_c grid (start, stop, points)
SWEEP_WINDOW = (1.0005, NEAR_CUTOFF_X_MAX, 400)

# sweep prints the models' worst log10 agreement below this omega/omega_c,
# the window in which acceptance criterion 8 holds the reduced model to 0.05
AGREEMENT_X_MAX = 1.0158

_MODEL_CHOICES = {
    "exact": (ModelKind.EXACT,),
    "approx": (ModelKind.APPROXIMATE,),
    "both": (ModelKind.EXACT, ModelKind.APPROXIMATE),
}


def _model_values(col: ModelColumns, lo: int, hi: int, ok: np.ndarray) -> list[np.ndarray]:
    """The 10 distinct numeric columns of one model's rows lo..hi, in the
    order of :data:`_CSV_FIELDS`."""
    t, r_left, r_right = col.t[lo:hi], col.r_left[lo:hi], col.r_right[lo:hi]
    s_left, s_right = col.s_left[lo:hi], col.s_right[lo:hi]
    # rows that are not ok print no number: log10 of 1 in their place
    return [t.real, t.imag, r_left.real, r_left.imag, r_right.real, r_right.imag,
            s_left, s_right, *(np.log10(np.where(ok, s, 1.0)) for s in (s_left, s_right))]


def _block_starts(table: SweepTable) -> range:
    """The first frequency of each CSV block: :data:`_SWEEP_BLOCK` values,
    x and each model's distinct columns."""
    rows = _SWEEP_BLOCK // (1 + len(_CSV_FIELDS) * len(table.models))
    return range(0, len(table.omega_over_omegac), rows)


def _drain(pop) -> Iterator:
    """Items of a deque's pop or popleft until the deque is empty; another
    thread may take items from its other end meanwhile."""
    while True:
        try:
            yield pop()
        except IndexError:
            return


def csv_chunks(table: SweepTable, worker=None) -> Iterator[bytes]:
    """The sweep table in the fixed CSV schema, header first, then blocks
    of rows: one line per frequency and model, each field as '%.15g'; rows
    that are not ok keep empty numeric fields and their status.

    With ``worker``, a one-thread executor, the blocks go in segments of
    :data:`_SWEEP_SEGMENT`: the caller renders each segment's blocks from
    the front and yields each at once, the worker, once free, renders them
    from the back and keeps them, and its blocks follow when none is left.
    A segment whose share the worker has not started is the caller's alone."""
    yield (CSV_HEADER + "\n").encode()
    columns = list(table.models.values())
    names = np.array([f",{model.value},".encode() for model in table.models])
    names = names.view(np.uint8).reshape(len(columns), -1)
    n = len(table.omega_over_omegac)
    starts = _block_starts(table)

    def render(lo: int) -> bytes:
        hi = min(lo + starts.step, n)
        status = np.stack([col.status[lo:hi] for col in columns], axis=1)
        ok = status == STATUS_OK
        # one render per block: x once for all models, then each model's columns
        fields = g15_fields(np.concatenate([table.omega_over_omegac[lo:hi], *chain.from_iterable(
            _model_values(col, lo, hi, ok[:, j]) for j, col in enumerate(columns))]))
        x = fields[:hi - lo, None]
        numbers = fields[hi - lo:].reshape(len(columns), len(_CSV_FIELDS), hi - lo, WIDTH)
        numbers = numbers.transpose(2, 0, 1, 3)  # frequency, model, column, text
        numbers[~ok] = 0
        cells = [x, names]
        for k in _CSV_ORDER:
            cells += [numbers[:, :, k], b","]
        # nine bytes fit the longest status, "nonfinite"
        cells += [status.astype("S9").view(np.uint8).reshape(hi - lo, len(columns), 9), b"\n"]
        return join_rows(cells, (hi - lo, len(columns)))

    if worker is None:
        yield from map(render, starts)
        return
    for first in range(0, len(starts), _SWEEP_SEGMENT):
        todo = deque(starts[first:first + _SWEEP_SEGMENT])
        tail = worker.submit(list, map(render, _drain(todo.pop)))
        yield from map(render, _drain(todo.popleft))
        yield from ([] if tail.cancel() else reversed(tail.result()))


def write_snapshots(path: str, grid, states) -> None:
    """Snapshot CSV of a run's (t, psi) states on its grid: one line per
    state and grid point, each field as '%.15g'; z is rendered once."""
    with open(path, "wb") as fh:
        fh.write(b"t,z,re_psi,im_psi,abs2_psi\n")
        z = grid.z
        z_text = np.empty((z.size, WIDTH), np.uint8)
        for lo in range(0, z.size, _SNAPSHOT_BLOCK):
            z_text[lo:lo + _SNAPSHOT_BLOCK] = g15_fields(z[lo:lo + _SNAPSHOT_BLOCK])
        for t, psi in states:
            t_text = b"%.15g," % t
            for lo in range(0, psi.size, _SNAPSHOT_BLOCK):
                block = psi[lo:lo + _SNAPSHOT_BLOCK]
                fields = g15_fields(np.concatenate(
                    [block.real, block.imag, block.real ** 2 + block.imag ** 2]))
                real, imag, abs2 = fields.reshape(3, block.size, WIDTH)
                fh.write(join_rows([t_text, z_text[lo:lo + block.size], b",", real, b",", imag,
                                    b",", abs2, b"\n"], (block.size,)))


# The CSV path goes into a double-quoted gnuplot string, where a backslash
# starts an escape and a quote or a line break ends the string.
_GNUPLOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n",
                                  "\r": "\\r", "\t": "\\t"})


def render_plot_script(csv_path: str) -> str:
    """Gnuplot script: exact model as solid/dashed lines for left/right
    incidence, reduced model as symbols, versus omega/omega_c."""
    q = csv_path.translate(_GNUPLOT_ESCAPES)
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


def write_manifest(path: str, config: Config, window: tuple[float, float, int],
                   params: MediumParams, table: SweepTable,
                   stage_seconds: dict[str, float]) -> None:
    """JSON manifest of a sweep: the medium's config, the requested
    (start, stop, points) window, derived quantities, row counts and the
    wall time of each stage of the run."""
    by_status = table.status_counts()
    manifest = {
        "tool": "ptwaveguide",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": asdict(config),
        "sweep": {"start": window[0], "stop": window[1], "points": window[2]},
        "derived": {
            "omega_c_rad_s": params.omega_c,
            "hbar_omega_c_ev": angular_to_ev(params.omega_c),
            "slab_width_m": params.slab_width,
            "regime_ratio_damping": params.regime_ratio_damping,
            "regime_ratio_cutoff": params.regime_ratio_cutoff,
        },
        "models": [m.value for m in table.models],
        "frequencies": len(table.omega_over_omegac),
        "csv_rows": sum(by_status.values()),
        "rows_by_status": by_status,
        "stage_seconds": stage_seconds,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _asymmetric(col: ModelColumns) -> np.ndarray:
    """s_left > 1 > s_right on each row: the side met first dominates."""
    return (col.s_left > 1.0) & (col.s_right < 1.0)


def figure_lines(table: SweepTable) -> list[str]:
    """The comparison figure's two numbers, of a table of both models: the
    omega/omega_c up to which every grid point is asymmetric in both, and
    the worst log10 model-agreement metric below :data:`AGREEMENT_X_MAX`.
    A row that is not ok in either model breaks the asymmetry and is left
    out of the agreement."""
    x = table.omega_over_omegac
    exact, approx = table.models[ModelKind.EXACT], table.models[ModelKind.APPROXIMATE]
    ok = (exact.status == STATUS_OK) & (approx.status == STATUS_OK)
    broken = np.flatnonzero(~(ok & _asymmetric(exact) & _asymmetric(approx)))
    if broken.size and broken[0] == 0:
        asymmetry = f"fails at the first grid point, omega/omega_c = {x[0]:.4f}"
    else:
        edge = x[broken[0] - 1] if broken.size else x[-1]
        asymmetry = f"holds on every grid point up to omega/omega_c = {edge:.4f} (both models)"
    low = ok & (x < AGREEMENT_X_MAX)
    log_exact = np.log10(np.concatenate([exact.s_left[low], exact.s_right[low]]))
    log_approx = np.log10(np.concatenate([approx.s_left[low], approx.s_right[low]]))
    metric = np.abs(log_exact - log_approx) / np.maximum(1.0, np.abs(log_exact))
    return [f"s_left > 1 > s_right {asymmetry}",
            f"worst log10 model-agreement metric below {AGREEMENT_X_MAX}: "
            + (f"{metric.max():.4f}" if metric.size else "n/a")]


def run_checks(table: SweepTable, params: MediumParams) -> list[str]:
    """Property assertions on the sweep table; returns failure messages,
    ordered by frequency, then model, then check.  The medium-off control
    sweeps the table's range at up to 41 points."""
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
        flag(0, j, 3, ok & (table.omega_over_omegac <= 1.019) & ~_asymmetric(col),
             lambda i: f"low-energy asymmetry violated at x={x[i]} ({name}): "
                       f"s_left={float(col.s_left[i])}, s_right={float(col.s_right[i])}")
    # Hermitian control: switching the resonant term off must give unit sums.
    control = sweep(replace(params, omega_p=0.0), x[0], x[-1], min(41, len(x)))
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


def parse_sweep(text: str) -> tuple[float, float, int]:
    """(start, stop, points) of a START:STOP:N text; the range itself is
    checked by :func:`models.sweep_grid`."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--sweep expects START:STOP:N, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"--sweep expects numbers START:STOP and an integer N, "
                         f"got {text!r}") from None


def _load(args) -> Config:
    return load_config(args.config) if args.config else Config()


def _finished(fn, *args):
    """(fn(*args), the perf_counter() at its return)."""
    return fn(*args), perf_counter()


def _csv_worker(table: SweepTable, check: bool):
    """A one-thread executor for the checks and the tail of each CSV segment,
    or a null context where the work is too small for a thread to pay."""
    if len(_block_starts(table)) < (_SWEEP_SEGMENT // 2 if check else _SWEEP_SEGMENT):
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1)


def cmd_sweep(args) -> int:
    """Sweep the window, write the CSV and its manifest, print the summary;
    with --check, run the property assertions.  On a CSV of a segment or
    more (half a segment with --check) one worker thread runs the checks,
    then renders the tail of each segment (:func:`csv_chunks`) while this
    thread writes its head; the "csv" and "checks" stage times both count
    from the end of the sweep, so they overlap."""
    window = parse_sweep(args.sweep)
    start = perf_counter()
    config = _load(args)
    params = from_config(config)
    configured = perf_counter()
    models = _MODEL_CHOICES[args.models]
    table = sweep(params, *window, models=models)
    swept = perf_counter()
    failures = []
    with _csv_worker(table, args.check) as worker:
        if worker and args.check:
            checks = worker.submit(_finished, run_checks, table, params)
        with open(args.output, "wb") as fh:
            fh.writelines(csv_chunks(table, worker))
        written = perf_counter()
        if args.check:
            failures, checked = checks.result() if worker else _finished(run_checks, table,
                                                                         params)
    stage_seconds = {"config": configured - start, "sweep": swept - configured,
                     "csv": written - swept}
    if args.check:
        stage_seconds["checks"] = checked - swept
    write_manifest(args.output + ".manifest.json", config, window, params, table,
                   stage_seconds)
    x, by_status = table.omega_over_omegac, table.status_counts()
    max_defect = float(np.max(pt_defect(params, x * params.omega_c)))
    counts = ", ".join(f"{n} {status}" for status, n in by_status.items())
    print(f"wrote {args.output}: {len(x)} frequencies x "
          f"{len(models)} model(s), rows {counts}")
    print(f"max mirror-conjugation defect of the exact profile: {max_defect:.6g}")
    if args.models == "both":
        print("\n".join(figure_lines(table)))
    if args.plot:
        plot_path = args.output + ".gp"
        with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_plot_script(args.output))
        print(f"wrote {plot_path}")
    if failures:
        for message in failures:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        return 1
    if args.check:
        print("all sweep checks passed")
    return 0


def cmd_packet(args) -> int:
    config = _load(args)
    params = from_config(config)
    plan = plan_packet_run(params, sigma=args.sigma_um * 1e-6,
                           energy=args.energy_ev * E_CHARGE,
                           from_left=(args.incidence == "left"))
    text = args.snapshot_times_ps
    try:
        record = tuple(float(t) * 1e-12 for t in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"--snapshot-times-ps expects comma separated numbers, "
                         f"got {text!r}") from None
    require_record_times(record)
    if record and not args.snapshots:
        raise ValueError("--snapshot-times-ps needs --snapshots: the requested states "
                         "would not be written")
    # the stationary side first: a packet with no prediction fails before it steps
    prediction = transmission_prediction(params, plan.spec)
    ratio = plan.spec.bandwidth_ratio(params)
    if ratio > 0.1:
        logger.warning("packet bandwidth ratio Omega/delta = %.3g is not narrow-band", ratio)
    # the snapshot path is opened for appending before the first step, so one
    # that cannot be written fails before the run; a file this opening made
    # goes with a run that fails, one that was there keeps its bytes
    made = bool(args.snapshots) and not os.path.lexists(args.snapshots)
    if args.snapshots:
        open(args.snapshots, "ab").close()
    try:
        result = scatter_packet(params, plan.spec, plan.grid, plan.t_final,
                                record_times=record)
    except BaseException:
        if made:
            with suppress(OSError):  # the run's error is the one to report
                os.remove(args.snapshots)
        raise
    x_carrier = 1.0 + ev_to_angular(args.energy_ev) / params.omega_c
    print(f"carrier: {args.energy_ev:g} eV (omega/omega_c = {x_carrier:.4f}), "
          f"sigma = {args.sigma_um:g} um, incidence {args.incidence}")
    print(f"bandwidth ratio Omega/delta = {ratio:.4f}")
    print(f"transmitted fraction: {result.transmitted:.6f} "
          f"(stationary prediction {prediction.transmitted:.6f}, "
          f"deviation {deviation_percent(result.transmitted, prediction.transmitted)})")
    print(f"reflected fraction:   {result.reflected:.6f} "
          f"(stationary prediction {prediction.reflected:.6f}, "
          f"deviation {deviation_percent(result.reflected, prediction.reflected)})")
    print(f"interior residual:    {result.interior_norm:.6f}")
    print(f"total norm:           {result.total:.6f} "
          f"(norm gain {result.total - 1.0:+.6f})")
    for name in fractions_below_residual(result):
        print(f"warning: {name} fraction {getattr(result, name):.3g} is below the "
              f"interior residual {result.interior_norm:.3g}; it is not settled",
              file=sys.stderr)
    if args.snapshots:
        write_snapshots(args.snapshots, plan.grid, result.states)
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
    sweep_default = ":".join(map(str, SWEEP_WINDOW))
    p_sweep.add_argument("--sweep", metavar="START:STOP:N", default=sweep_default,
                         help=f"the omega/omega_c grid (default {sweep_default})")
    p_sweep.add_argument("--output", default="results.csv",
                         help="the CSV path (default results.csv)")
    p_sweep.add_argument("--plot", action="store_true",
                         help="also write a gnuplot script next to the CSV")
    p_sweep.add_argument("--check", action="store_true",
                         help="run property assertions on the sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    p_packet = sub.add_parser("packet", help="scatter a wavepacket off the bilayer")
    p_packet.add_argument("--config", help="config file (key = value lines)")
    p_packet.add_argument("--sigma-um", type=float, default=3.0,
                          help="packet width sigma in micrometers")
    p_packet.add_argument("--energy-ev", type=float, default=0.2,
                          help="carrier kinetic energy in eV")
    p_packet.add_argument("--from", dest="incidence", choices=("left", "right"),
                          default="left")
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
    except (BoundaryContaminationError, IncompleteScatterError, SpectralSingularityError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
