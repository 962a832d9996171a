"""Benchmark of the ptwaveguide command line, end to end and layer by layer.

Run from the root of a ptwaveguide checkout:

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 12 --trace 0

Every CLI run is a fresh ``python -m ptwaveguide`` process on inputs made
from ``--seed``; its outputs are checked against the independent reference
in ``reference.py`` and against the method's invariants, outside the timed
interval.  CLI runs repeat until their summed wall time reaches
``--seconds``.  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` each CLI run is made once plain and once under
``traced_cli.py``, and the per-layer metrics are reported.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import reference

HERE = os.path.dirname(os.path.abspath(__file__))

SWEEP_POINTS = 40_000
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT_S = 150.0

SIGMA_UM = 3.0
ENERGY_EV = 0.2
REFERENCE_OMEGAP_EV = 0.2
SUBCRITICAL_OMEGAP_EV = 0.1
SNAPSHOT_TIMES_PS = tuple(0.1 * i for i in range(1, 11))

# Float64 agreement between two correct kernels is ~4e-12 at the sharpest
# resonance of the window (mpmath confirms both sides there); 1e-9 leaves
# room for a reordered kernel and still catches a wrong one.
AMPLITUDE_RTOL = 1e-9
RECIPROCITY_RTOL = 1e-10
UNITARITY_RTOL = 1e-8
LOW_ENERGY_EDGE = 1.019
MP_SPOT_ROWS = 3
# Criterion 10 of the acceptance suite: a sigma = 3 um packet matches the
# stationary spectral average to 2%.
PACKET_RTOL = 0.02
PRINTED_ATOL = 1e-6  # the packet summary prints six decimals

THROUGHPUTS = {"sweep.rows_per_s": "rows/s", "packet.point_steps_per_s": "point-steps/s"}

CHECKOUT_HINT = "run it from the root of a ptwaveguide checkout (src/ptwaveguide)"

SETUP_CODE = """
import sys
import ptwaveguide.cli
from ptwaveguide.medium import from_config
from ptwaveguide.quantities import Config, load_config
from_config(load_config(sys.argv[1]) if len(sys.argv) > 1 else Config())
"""


@dataclass
class Run:
    """One child process: how long it took and what it left behind."""

    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no output)"


class Bench:
    def __init__(self, root: str, out_dir: str):
        self.src = os.path.join(root, "src")
        self.out_dir = out_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def spawn(self, argv: list[str], tag: str) -> Run:
        """Run argv to its end; wall time from spawn to exit and peak RSS."""
        out_path, err_path = self.path(tag + ".stdout"), self.path(tag + ".stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.out_dir)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as out, open(err_path) as err:
            return Run(wall, usage.ru_maxrss / 1024.0, proc.returncode, out.read(), err.read())

    def cli(self, args: list[str], traced_stats: str | None = None) -> Run:
        if traced_stats is None:
            argv = [sys.executable, "-m", "ptwaveguide", *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), traced_stats, *args]
        return self.spawn(argv, "cli" if traced_stats is None else "traced")

    def setup_seconds(self, config: str | None) -> float:
        """Time of a fresh interpreter importing the CLI, loading the config
        and building the medium."""
        run = self.spawn([sys.executable, "-c", SETUP_CODE] + ([config] if config else []),
                         "setup")
        if run.returncode != 0:
            raise RuntimeError(f"set-up launch failed: {last_line(run.stderr)}")
        return run.wall_s

    def import_seconds(self) -> dict[str, float]:
        """Cumulative import times from ``python -X importtime``, medians."""
        samples: dict[str, list[float]] = {"import.ptwaveguide_s": [],
                                           "import.scipy_integrate_s": [],
                                           "import.scipy_linalg_s": []}
        for _ in range(IMPORTTIME_LAUNCHES):
            run = self.spawn([sys.executable, "-X", "importtime", "-c",
                              "import ptwaveguide.cli"], "importtime")
            top = 0.0
            found = {"scipy.integrate": 0.0, "scipy.linalg": 0.0}
            for line in run.stderr.splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                _, cumulative, name = line[len("import time:"):].split("|")
                if not cumulative.strip().isdigit():
                    continue  # the header line
                seconds = int(cumulative) * 1e-6
                if name.startswith(" ptwaveguide"):  # one space: top level
                    top += seconds
                elif name.strip() in found:
                    found[name.strip()] = seconds
            samples["import.ptwaveguide_s"].append(top)
            samples["import.scipy_integrate_s"].append(found["scipy.integrate"])
            samples["import.scipy_linalg_s"].append(found["scipy.linalg"])
        return {key: statistics.median(values) for key, values in samples.items()}


# --------------------------------------------------------------------------
# workloads


class SweepDense:
    """``sweep --models both --check`` over the default window, densely."""

    config = None
    throughput = "sweep.rows_per_s"
    models = ("exact", "approx")
    columns = ("omega_over_omegac", "t_left_re", "t_left_im", "r_left_re", "r_left_im",
               "t_right_re", "t_right_im", "r_right_re", "r_right_im",
               "sum_left", "sum_right")

    def __init__(self, bench: Bench, seed: int):
        rng = np.random.default_rng(seed)
        self.start = 1.0005 + float(rng.uniform(-1e-4, 1e-4))
        self.stop = 1.10 + float(rng.uniform(-1e-3, 1e-3))
        self.csv = bench.path("sweep.csv")
        self.args = ["sweep", "--models", "both", "--check",
                     "--sweep", f"{self.start!r}:{self.stop!r}:{SWEEP_POINTS}",
                     "--output", self.csv]
        self.medium = reference.Medium.from_ev()
        step = (self.stop - self.start) / (SWEEP_POINTS - 1)
        self.x = self.start + np.arange(SWEEP_POINTS) * step
        self.expected = {model: reference.amplitudes(model, self.medium, self.x)
                         for model in self.models}
        self.work = 2 * SWEEP_POINTS

    def check(self, run: Run, tally: Tally) -> None:
        """Every row of the CSV against the reference; a row is one operation."""
        problems = []
        if run.returncode != 0:
            problems.append(f"sweep exited {run.returncode}: {last_line(run.stderr)}")
        try:
            with open(self.csv) as fh:
                header, *lines = fh.read().splitlines()
        except (OSError, ValueError) as exc:
            header, lines = "", []
            problems.append(f"sweep CSV unreadable: {exc}")
        names = header.split(",")
        col = {name: i for i, name in enumerate(names)}
        if not set(self.columns + ("model", "status")) <= set(col):
            problems.append(f"sweep CSV header lacks expected columns: {header!r}")
            lines = []
        fields = [line.split(",") for line in lines]
        failed = 0
        for model in self.models:
            rows = [f for f in fields if len(f) == len(names) and f[col["model"]] == model]
            if len(rows) != SWEEP_POINTS:
                problems.append(f"{len(rows)} well-formed {model} rows, expected {SWEEP_POINTS}")
                failed += SWEEP_POINTS
                continue
            ok = np.array([f[col["status"]] == "ok" for f in rows])
            if not ok.all():
                problems.append(f"{np.count_nonzero(~ok)} {model} rows are not ok")
            values = np.array([[f[col[name]] for name in self.columns]
                               for f, good in zip(rows, ok) if good], dtype=float)
            bad = ~ok
            bad[ok] = self._row_failures(model, np.flatnonzero(ok),
                                         dict(zip(self.columns, values.T)), problems)
            failed += int(np.count_nonzero(bad))
        if run.returncode != 0:
            failed = 2 * SWEEP_POINTS
        tally.add(2 * SWEEP_POINTS, failed, problems)

    def _row_failures(self, model: str, idx, v: dict, problems: list[str]) -> np.ndarray:
        x = v["omega_over_omegac"]
        t_l = v["t_left_re"] + 1j * v["t_left_im"]
        t_r = v["t_right_re"] + 1j * v["t_right_im"]
        r_l = v["r_left_re"] + 1j * v["r_left_im"]
        r_r = v["r_right_re"] + 1j * v["r_right_im"]
        s_l, s_r = v["sum_left"], v["sum_right"]
        t, ref_l, ref_r = (a[idx] for a in self.expected[model])
        ref_sl, ref_sr = reference.flux_sums(t, ref_l, ref_r)

        def off(a, b, scale, tol):
            return np.abs(a - b) > tol * scale

        checks = {
            "frequency off the requested grid": off(x, self.x[idx], 1.0, 1e-13),
            "|t| off the reference": off(np.abs(t_l), np.abs(t),
                                         np.sqrt(np.minimum(ref_sl, ref_sr)), AMPLITUDE_RTOL),
            "|r_left| off the reference": off(np.abs(r_l), np.abs(ref_l),
                                              np.sqrt(ref_sl), AMPLITUDE_RTOL),
            "|r_right| off the reference": off(np.abs(r_r), np.abs(ref_r),
                                               np.sqrt(ref_sr), AMPLITUDE_RTOL),
            "flux sums off the reference": off(s_l, ref_sl, ref_sl, AMPLITUDE_RTOL)
                                           | off(s_r, ref_sr, ref_sr, AMPLITUDE_RTOL),
            "flux sums disagree with the row's amplitudes":
                off(s_l, np.abs(t_l) ** 2 + np.abs(r_l) ** 2, s_l, 1e-12)
                | off(s_r, np.abs(t_r) ** 2 + np.abs(r_r) ** 2, s_r, 1e-12),
            "reciprocity t_left = t_right violated":
                off(t_l, t_r, np.abs(t_l), RECIPROCITY_RTOL),
            "low-energy asymmetry s_left > 1 > s_right violated":
                (x <= LOW_ENERGY_EDGE) & ~((s_l > 1.0) & (s_r < 1.0)),
            "50-digit spot check failed": self._spot_check(model, idx, t_l, r_l, r_r),
        }
        if model == "approx":
            # Ge, Chong & Stone (2012): |T - 1| = sqrt(R_left R_right) for a
            # PT-symmetric profile, whatever the phase references.
            big_t, geo = np.abs(t_l) ** 2, np.abs(r_l) * np.abs(r_r)
            checks["generalized unitarity violated"] = off(
                np.abs(big_t - 1.0), geo, np.maximum(1.0, np.maximum(big_t, geo)),
                UNITARITY_RTOL)
        failed = np.zeros(idx.size, dtype=bool)
        for message, mask in checks.items():
            if mask.any():
                problems.append(f"{model}: {message} at {np.count_nonzero(mask)} "
                                f"row(s), first omega/omega_c = {float(x[np.argmax(mask)])!r}")
            failed |= mask
        return failed

    def _spot_check(self, model: str, idx, t_l, r_l, r_r) -> np.ndarray:
        """The lowest frequencies, where the matrix entries reach e^40, at 50
        digits: the float64 reference and the CSV must both agree."""
        bad = np.zeros(idx.size, dtype=bool)
        ref = self.expected[model]
        for j in np.flatnonzero(idx < MP_SPOT_ROWS):
            i = idx[j]
            exact = reference.mp_amplitudes(model, self.medium, float(self.x[i]))
            for got in ((ref[0][i], ref[1][i], ref[2][i]), (t_l[j], r_l[j], r_r[j])):
                bad[j] |= any(abs(abs(a) - abs(b)) > AMPLITUDE_RTOL * abs(b)
                              for a, b in zip(got, exact))
        return bad


class Packet:
    """``packet`` at the default carrier and width; each run is one operation."""

    throughput = "packet.point_steps_per_s"

    def __init__(self, bench: Bench, from_left: bool, omegap_ev: float,
                 snapshot_times: tuple[float, ...], config: str | None):
        sys.path.insert(0, bench.src)
        from ptwaveguide.medium import from_config
        from ptwaveguide.quantities import E_CHARGE, Config
        from ptwaveguide.timeprop import plan_packet_run
        plan = plan_packet_run(from_config(Config(hbar_omegap_ev=omegap_ev)),
                               sigma=SIGMA_UM * 1e-6, energy=ENERGY_EV * E_CHARGE,
                               from_left=from_left)
        self.grid = plan.grid
        self.n_steps = max(1, round(plan.t_final / plan.grid.dt))
        self.work = self.grid.n_points * self.n_steps
        self.from_left = from_left
        self.config = config
        self.snapshot_times = snapshot_times
        self.snapshots = bench.path("snapshots.csv") if snapshot_times else None
        self.args = ["packet"]
        if config:
            self.args += ["--config", config]
        if not from_left:
            self.args += ["--from", "right"]
        if snapshot_times:
            self.args += ["--snapshots", self.snapshots, "--snapshot-times-ps",
                          ",".join(f"{t:.6f}" for t in snapshot_times)]
        medium = reference.Medium.from_ev(omegap_ev=omegap_ev)
        self.expected_t = reference.packet_fractions(medium, SIGMA_UM * 1e-6, ENERGY_EV)[0]

    def check(self, run: Run, tally: Tally) -> None:
        problems = []
        if run.returncode != 0:
            problems.append(f"packet exited {run.returncode}: {last_line(run.stderr)}")
        else:
            total_norm = self._check_summary(run.stdout, problems)
            if self.snapshots and total_norm is not None:
                self._check_snapshots(total_norm, problems)
        tally.add(1, 1 if problems else 0, problems)

    def _check_summary(self, stdout: str, problems: list[str]) -> float | None:
        """Printed fractions against the reference; returns the printed norm."""
        fractions = re.search(r"transmitted fraction: +(\S+) \(stationary prediction (\S+),",
                              stdout)
        norm = re.search(r"total norm: +(\S+)", stdout)
        if not (fractions and norm):
            problems.append(f"packet summary not understood: {stdout[-300:]!r}")
            return None
        transmitted, predicted = map(float, fractions.groups())
        total_norm = float(norm.group(1))
        if abs(predicted - self.expected_t) > PRINTED_ATOL + 1e-6 * self.expected_t:
            problems.append(f"stationary prediction {predicted} differs from the "
                            f"reference spectral average {self.expected_t:.8f}")
        if abs(transmitted - self.expected_t) > PACKET_RTOL * self.expected_t:
            problems.append(f"transmitted fraction {transmitted} is more than "
                            f"{PACKET_RTOL:.0%} from the reference {self.expected_t:.6f}")
        if self.from_left and not total_norm > 1.0:
            problems.append(f"gain-first packet ends with norm {total_norm} <= 1")
        if not self.from_left and not total_norm < 1.0:
            problems.append(f"absorber-first packet ends with norm {total_norm} >= 1")
        return total_norm

    def _check_snapshots(self, total_norm: float, problems: list[str]) -> None:
        try:
            data = np.loadtxt(self.snapshots, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            problems.append(f"snapshots unreadable: {exc}")
            return
        grid, dt = self.grid, self.grid.dt
        steps = sorted({min(self.n_steps, max(1, round(t * 1e-12 / dt)))
                        for t in self.snapshot_times} | {self.n_steps})
        if data.shape != (len(steps) * grid.n_points, 5):
            problems.append(f"snapshots hold {data.shape} values, expected "
                            f"{len(steps)} states of {grid.n_points} points")
            return
        states = data.reshape(len(steps), grid.n_points, 5)
        if np.abs(states[:, :, 0] - np.array(steps)[:, None] * dt).max() > 1e-3 * dt:
            problems.append("snapshot times are not the requested steps")
        z = states[0, :, 1]
        if (np.abs(states[:, :, 1] - z).max() > 0
                or np.abs(np.diff(z) - grid.dz).max() > 1e-6 * grid.dz
                or abs(z[0] - grid.z_min) > 1e-6 * grid.dz):
            problems.append("snapshot z columns are not the planned grid")
        re_psi, im_psi, abs2 = states[:, :, 2], states[:, :, 3], states[:, :, 4]
        if not np.allclose(abs2, re_psi ** 2 + im_psi ** 2, rtol=1e-12, atol=1e-300):
            problems.append("abs2_psi differs from re^2 + im^2")
        final_norm = float(abs2[-1].sum() * grid.dz)
        if abs(final_norm - total_norm) > PRINTED_ATOL + 1e-9 * final_norm:
            problems.append(f"last snapshot norm {final_norm:.8f} differs from the "
                            f"printed total norm {total_norm}")


def make_workload(name: str, bench: Bench, seed: int):
    if name == "sweep-dense":
        return SweepDense(bench, seed)
    if name == "packet-left":
        return Packet(bench, from_left=True, omegap_ev=REFERENCE_OMEGAP_EV,
                      snapshot_times=(), config=None)
    if name == "packet-right-snapshots":
        config = bench.path("subcritical.cfg")
        with open(config, "w") as fh:
            fh.write(f"hbar_omegap_ev = {SUBCRITICAL_OMEGAP_EV}\n")
        rng = np.random.default_rng(seed)
        times = tuple(round(t + float(rng.uniform(-0.02, 0.02)), 6) for t in SNAPSHOT_TIMES_PS)
        return Packet(bench, from_left=False, omegap_ev=SUBCRITICAL_OMEGAP_EV,
                      snapshot_times=times, config=config)
    raise ValueError(name)


WORKLOADS = ("sweep-dense", "packet-left", "packet-right-snapshots")


# --------------------------------------------------------------------------
# metrics


def rounds(bench: Bench, workload, seconds: float, tally: Tally, traced: bool):
    """Repeat rounds of a set-up launch, a plain CLI run and, if ``traced``,
    a traced one, until the CLI runs' summed wall time reaches ``seconds``.

    Set-up launches alternate with the CLI runs, so that both sample the
    same stretch of the machine's drifting speed.  Returns the set-up times,
    the plain runs, the traced runs and the per-layer figures of each.
    """
    setups, plain, traced_runs, layers = [], [], [], []
    stats_path = bench.path("trace.json")
    while not plain or sum(r.wall_s for r in plain + traced_runs) < seconds:
        setups.append(bench.setup_seconds(workload.config))
        run = bench.cli(workload.args)
        workload.check(run, tally)
        plain.append(run)
        if traced:
            run = bench.cli(workload.args, traced_stats=stats_path)
            workload.check(run, tally)
            traced_runs.append(run)
            with open(stats_path) as fh:
                stats = json.load(fh)
            snapshots = getattr(workload, "snapshots", None)
            layers.append(layer_metrics(stats, os.path.getsize(snapshots) if snapshots else 0))
    while len(setups) < SETUP_LAUNCHES:
        setups.append(bench.setup_seconds(workload.config))
    return setups, plain, traced_runs, layers


def end_to_end(bench: Bench, workload, seconds: float, tally: Tally) -> dict:
    setups, runs, _, _ = rounds(bench, workload, seconds, tally, traced=False)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
    }


def per_layer(bench: Bench, workload, seconds: float, tally: Tally) -> dict:
    metrics = {key: (value, "s") for key, value in bench.import_seconds().items()}
    setups, plain, traced, layers = rounds(bench, workload, seconds, tally, traced=True)
    for key, (_, unit) in layers[0].items():
        metrics[key] = (statistics.median(m[key][0] for m in layers), unit)
    # Work of one operation per second of the plain CLI run beyond set-up.
    compute_s = statistics.median(r.wall_s for r in plain) - statistics.median(setups)
    for name, unit in THROUGHPUTS.items():
        metrics[name] = (workload.work / compute_s if name == workload.throughput else 0.0,
                         unit)
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in plain), "s")
    return metrics


def layer_metrics(stats: dict, snapshot_bytes: int) -> dict:
    spans, counts = stats["spans"], stats["counts"]

    def busy(key):
        return spans.get(key, {}).get("busy_s", 0.0)

    def self_time(key):
        span = spans.get(key, {})
        return span.get("busy_s", 0.0) - span.get("child_s", 0.0)

    def calls(key):
        return spans.get(key, {}).get("calls", 0)

    k2 = ("medium.k_squared_exact", "medium.k_squared_approx")
    n_amp = calls("helmholtz.amplitudes")
    steps = counts["point_steps"]
    return {
        "quantities.load_config_s": (busy("quantities.load_config"), "s"),
        "medium.from_config_s": (busy("medium.from_config"), "s"),
        "medium.k2_calls": (sum(calls(k) for k in k2), "count"),
        "medium.k2_s": (sum(busy(k) for k in k2), "s"),
        "models.build_stack_calls": (calls("models.build_stack"), "count"),
        "models.build_stack_s": (busy("models.build_stack"), "s"),
        "models.sweep_s": (busy("models.sweep"), "s"),
        "models.sweep_self_s": (self_time("models.sweep"), "s"),
        "models.pt_defect_s": (busy("models.pt_defect"), "s"),
        "helmholtz.amplitudes_calls": (n_amp, "count"),
        "helmholtz.amplitudes_s": (busy("helmholtz.amplitudes"), "s"),
        "helmholtz.amplitude_us": (busy("helmholtz.amplitudes") / n_amp * 1e6 if n_amp else 0.0, "us"),
        "timeprop.scatter_packet_self_s": (self_time("timeprop.scatter_packet"), "s"),
        "timeprop.point_steps": (steps, "count"),
        "timeprop.point_step_ns": (self_time("timeprop.scatter_packet") / steps * 1e9 if steps else 0.0, "ns"),
        "timeprop.plan_packet_run_s": (busy("timeprop.plan_packet_run"), "s"),
        "timeprop.potential_on_grid_s": (busy("timeprop.potential_on_grid"), "s"),
        "timeprop.initial_gaussian_s": (busy("timeprop.initial_gaussian"), "s"),
        "timeprop.transmission_prediction_s": (busy("timeprop.transmission_prediction"), "s"),
        "timeprop.recorded_states": (counts["recorded_states"], "count"),
        "cli.run_checks_s": (busy("cli.run_checks"), "s"),
        "cli.rows_to_csv_s": (busy("cli.rows_to_csv"), "s"),
        "cli.csv_bytes": (counts["csv_bytes"], "bytes"),
        "cli.write_manifest_s": (busy("cli.write_manifest"), "s"),
        "cli.cmd_sweep_self_s": (self_time("cli.cmd_sweep"), "s"),
        "cli.cmd_packet_self_s": (self_time("cli.cmd_packet"), "s"),
        "cli.snapshot_bytes": (snapshot_bytes, "bytes"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ptwaveguide", "cli.py")):
        print(f"perfbench: no ptwaveguide sources under {root}; {CHECKOUT_HINT}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    bench = Bench(root, out_dir)
    workload = make_workload(args.workload, bench, args.seed)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(bench, workload, args.seconds, tally)

    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} operations: {tally.attempted} attempted, {tally.failed} failed")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
