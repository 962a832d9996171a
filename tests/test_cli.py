import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

import ptwaveguide.cli as cli
from ptwaveguide.cli import CSV_HEADER, main, render_plot_script
from ptwaveguide.helmholtz import ScatteringAmplitudes, flux_sums
from ptwaveguide.medium import from_config
from ptwaveguide.models import ModelColumns, ModelKind, SweepTable, sweep, sweep_grid
from ptwaveguide.quantities import E_CHARGE, Config, load_config
from ptwaveguide.timeprop import plan_packet_run, scatter_packet


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


def _singular_table(xs):
    n = len(xs)
    columns = ModelColumns.from_amplitudes(
        np.full(n, np.nan + 0j), np.zeros(n, complex), np.zeros(n, complex),
        np.ones(n, bool))
    return SweepTable(np.array(xs, dtype=float), {ModelKind.EXACT: columns})


def _inject(table, model, field, index, value):
    """Copy of the table with one entry of one model's column replaced."""
    column = getattr(table.models[model], field).copy()
    column[index] = value
    models = dict(table.models)
    models[model] = replace(table.models[model], **{field: column})
    return replace(table, models=models)


class TestRowStatus:
    # a table built from amplitude arrays: an ok row, a singular row (m22 = 0)
    # and a row whose reflection overflowed
    XS = (1.001, 1.002, 1.003)

    @pytest.fixture
    def table(self):
        columns = ModelColumns.from_amplitudes(
            np.array([0.5 + 0.5j, complex(np.inf, np.nan), 0.5 + 0j]),
            np.array([0.1j, 0j, np.inf + 0j]),
            np.array([0.2 + 0j, 0j, 0.1 + 0j]),
            np.array([False, True, False]))
        return SweepTable(np.array(self.XS), {ModelKind.EXACT: columns})

    def test_statuses(self, table):
        assert table.models[ModelKind.EXACT].status.tolist() == \
            ["ok", "singular", "nonfinite"]
        assert table.status_counts() == {"ok": 1, "singular": 1, "nonfinite": 1}

    def test_csv_keeps_empty_fields(self, table):
        lines = cli.rows_to_csv(table).splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("1.001,exact,0.5,0.5,0,0.1,0.5,0.5,0.2,0,")
        assert lines[1].endswith(",ok")
        assert lines[2] == "1.002,exact" + "," * 13 + "singular"
        assert lines[3] == "1.003,exact" + "," * 13 + "nonfinite"

    def test_manifest_counts(self, table, params, tmp_path):
        path = tmp_path / "m.json"
        cli.write_manifest(str(path), Config(), params, table)
        manifest = json.loads(path.read_text())
        assert manifest["rows"] == manifest["frequencies"] == 3
        assert manifest["singular_rows"] == 2
        assert manifest["rows_by_status"] == {"ok": 1, "singular": 1, "nonfinite": 1}
        assert sum(manifest["rows_by_status"].values()) == manifest["csv_rows"] == 3

    def test_check_fails_on_nonfinite(self, table, params):
        failures = cli.run_checks(table, params, Config())
        assert "non-finite amplitudes at x=1.003 (exact)" in failures
        assert not any("x=1.002" in message for message in failures)


class TestCheckMessages:
    """One violation injected into a sweep table; run_checks reports exactly
    that row, with the message text of the per-row checks it replaced."""

    @pytest.fixture(scope="class")
    def table(self, params):
        return sweep(params, 1.001, 1.05, 9)

    def test_clean_table_passes(self, table, params):
        assert cli.run_checks(table, params, Config()) == []

    def test_reciprocity(self, table, params):
        t = complex(table.models[ModelKind.EXACT].t[2])
        bad = _inject(table, ModelKind.EXACT, "t", 2, t * (1 + 1e-9))
        x = float(table.omega_over_omegac[2])
        assert cli.run_checks(bad, params, Config()) == [
            f"reciprocity violated at x={x} (exact)"]

    def test_generalized_unitarity(self, table, params):
        col = table.models[ModelKind.APPROXIMATE]
        r_right = complex(col.r_right[4]) * (1 + 1e-6)
        bad = _inject(table, ModelKind.APPROXIMATE, "r_right", 4, r_right)
        t, r_left = complex(col.t[4]), complex(col.r_left[4])
        resid = abs(abs(t) ** 2 + r_left.conjugate() * r_right - 1.0)
        assert resid > 1e-8
        x = float(table.omega_over_omegac[4])
        assert cli.run_checks(bad, params, Config()) == [
            f"generalized unitarity residual {resid:.2e} at x={x}"]

    def test_low_energy_asymmetry(self, table, params):
        bad = _inject(table, ModelKind.EXACT, "s_left", 1, 0.5)
        x = float(table.omega_over_omegac[1])
        assert x <= 1.019
        s_right = float(table.models[ModelKind.EXACT].s_right[1])
        assert cli.run_checks(bad, params, Config()) == [
            f"low-energy asymmetry violated at x={x} (exact): "
            f"s_left=0.5, s_right={s_right}"]

    def test_non_unit_medium_off_row(self, table, params, monkeypatch):
        real_sweep = cli.sweep

        def control_sweep(*args, **kwargs):
            control = real_sweep(*args, **kwargs)
            return _inject(control, ModelKind.APPROXIMATE, "s_right", 7, 1.0 + 1e-9)

        monkeypatch.setattr(cli, "sweep", control_sweep)
        config = Config()
        x = sweep_grid(config.sweep_start, config.sweep_stop, 41)[7]
        assert cli.run_checks(table, params, config) == [
            f"unit flux sums violated with the medium off at x={x} (approx)"]

    def test_all_singular_table(self, params):
        table = _singular_table((1.001, 1.01))
        assert cli.run_checks(table, params, Config()) == ["no row has status ok"]


class TestSweepCommand:
    def test_default_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run_cli("sweep", "--sweep", "1.001:1.05:9",
                       "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 9 * 2  # both models per frequency
        assert (tmp_path / "out.csv.manifest.json").exists()
        summary = capsys.readouterr().out
        assert "9 frequencies" in summary

    def test_csv_precision_and_status(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli("sweep", "--sweep", "1.003:1.01:3", "--output", str(out))
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert fields[1] in ("exact", "approx")
            assert fields[-1] == "ok"
            # amplitudes carry at least 12 significant digits
            for value in fields[2:14]:
                mantissa = re.sub(r"[-+.e]", "", value.split("e")[0])
                assert len(mantissa.lstrip("0")) >= 12 or float(value) == 0

    def test_csv_digits_match_elementwise_format(self, params):
        # the columnar render against the per-row formula it replaced: Python
        # complex parts and helmholtz.flux_sums, each field as f"{x:.15g}"
        table = sweep(params, 1.0005, 1.10, 400)
        expected = [CSV_HEADER]
        for i, x in enumerate(table.omega_over_omegac.tolist()):
            for model, col in table.models.items():
                t, rl, rr = complex(col.t[i]), complex(col.r_left[i]), complex(col.r_right[i])
                s_left, s_right = flux_sums(ScatteringAmplitudes(t, rl, t, rr))
                fields = (x, t.real, t.imag, rl.real, rl.imag, t.real, t.imag, rr.real,
                          rr.imag, s_left, s_right, math.log10(s_left), math.log10(s_right))
                expected.append(f"{x:.15g},{model.value},"
                                + ",".join(f"{v:.15g}" for v in fields[1:]) + ",ok")
        assert cli.rows_to_csv(table) == "\n".join(expected) + "\n"

    def test_models_filter(self, tmp_path):
        out = tmp_path / "approx.csv"
        run_cli("sweep", "--sweep", "1.003:1.01:4", "--models", "approx",
                "--output", str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        assert all(line.split(",")[1] == "approx" for line in lines[1:])

    def test_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep_points = 5\nsweep_start = 1.002\n"
                       "sweep_stop = 1.03\noutput_path = ignored.csv\n")
        out = tmp_path / "cfg.csv"
        assert run_cli("sweep", "--config", str(cfg), "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5 * 2
        assert lines[1].startswith("1.002,")

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sweep_start = 0.5\n")
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert "sweep_start" in capsys.readouterr().err

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# fine\nsweep_points == 7\n")
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        assert run_cli("sweep", "--config", str(tmp_path / "nope.cfg")) == 3

    def test_unwritable_output_exits_3(self, tmp_path):
        assert run_cli("sweep", "--sweep", "1.003:1.01:2",
                       "--output", str(tmp_path / "no_dir" / "x.csv")) == 3

    def test_determinism(self, tmp_path):
        # identical flags => byte-identical CSV and plot script
        out = tmp_path / "a.csv"
        gp = tmp_path / "a.csv.gp"
        args = ("sweep", "--sweep", "1.001:1.04:11", "--plot",
                "--output", str(out))
        run_cli(*args)
        first_csv, first_gp = read(out), read(gp)
        run_cli(*args)
        assert read(out) == first_csv
        assert read(gp) == first_gp

    def test_check_mode_passes(self, tmp_path, capsys):
        out = tmp_path / "ok.csv"
        assert run_cli("sweep", "--sweep", "1.001:1.018:7", "--check",
                       "--output", str(out)) == 0
        assert "all sweep checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["hbar_omegap_ev = nan", "sweep_stop = inf"])
    def test_non_finite_config_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "bad.csv"
        assert run_cli("sweep", "--config", str(cfg), "--check",
                       "--output", str(out)) == 2
        captured = capsys.readouterr()
        assert line.split()[0] in captured.err
        assert "checks passed" not in captured.out
        assert not out.exists()

    def test_checks_fail_without_ok_rows(self, params, monkeypatch):
        singular = _singular_table((1.001, 1.01))
        # the medium-off control sweep comes back singular too
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: singular)
        failures = cli.run_checks(singular, params, Config())
        assert "no row has status ok" in failures
        assert sum("medium off" in message for message in failures) == 2

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m.csv"
        run_cli("sweep", "--sweep", "1.003:1.01:2", "--output", str(out))
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["tool"] == "ptwaveguide"
        assert manifest["rows"] == manifest["frequencies"] == 2
        assert manifest["singular_rows"] == 0
        assert manifest["rows_by_status"] == {"ok": 4, "singular": 0, "nonfinite": 0}
        # one CSV row per frequency and model
        assert sum(manifest["rows_by_status"].values()) == manifest["csv_rows"] == 4
        assert manifest["derived"]["hbar_omega_c_ev"] == pytest.approx(5.0)
        assert manifest["config"]["sweep_points"] == 2


class TestPlotCommand:
    def test_script_series(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        run_cli("sweep", "--sweep", "1.003:1.01:3", "--output", str(out))
        capsys.readouterr()
        assert run_cli("plot", str(out)) == 0
        script = capsys.readouterr().out
        assert script.count("with lines") == 2
        assert script.count("with points") == 2
        assert script == render_plot_script(str(out))

    def test_regenerated_csv_same_script(self, tmp_path):
        out = tmp_path / "p.csv"
        gp1, gp2 = tmp_path / "1.gp", tmp_path / "2.gp"
        run_cli("sweep", "--sweep", "1.003:1.01:3", "--output", str(out))
        run_cli("plot", str(out), "--output", str(gp1))
        run_cli("sweep", "--sweep", "1.003:1.01:3", "--output", str(out))
        run_cli("plot", str(out), "--output", str(gp2))
        assert read(gp1) == read(gp2)

    def test_empty_csv_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli("plot", str(empty)) == 2
        header_only = tmp_path / "header.csv"
        header_only.write_text(CSV_HEADER + "\n")
        assert run_cli("plot", str(header_only)) == 2

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert run_cli("plot", str(bad)) == 2


class TestPacketCommand:
    def test_defaults_match_prediction(self, capsys):
        assert run_cli("packet") == 0
        out, err = capsys.readouterr()
        assert "warning" not in err  # both fractions exceed the interior residual
        match = re.search(r"transmitted fraction: .*deviation ([0-9.]+)%", out)
        assert match and float(match.group(1)) <= 2.0
        assert "norm gain +" in out  # gain region first: the packet gains norm

    @pytest.fixture(scope="class")
    def medium_off_output(self, tmp_path_factory):
        cfg = tmp_path_factory.mktemp("off") / "off.cfg"
        cfg.write_text("hbar_omegap_ev = 1e-12\n")
        out = io.StringIO()
        with redirect_stdout(out):
            assert run_cli("packet", "--config", str(cfg), "--sigma-um", "2.5") == 0
        return out.getvalue()

    def test_medium_off_transmits_everything(self, medium_off_output):
        out = medium_off_output
        assert "transmitted fraction: 1.000000" in out
        match = re.search(r"norm gain ([+-][0-9.]+)", out)
        assert match and abs(float(match.group(1))) <= 1e-6

    def test_medium_off_reflection_deviation(self, medium_off_output):
        # the predicted reflection is below the printed resolution: no
        # relative deviation from it is printed
        line = re.search(r"reflected fraction: .*", medium_off_output).group(0)
        assert line.endswith("deviation n/a)")
        assert all(float(p) <= 100.0 for p in re.findall(r"([0-9.]+)%", line))

    def test_incidence_sides_straddle_unity(self, tmp_path, capsys):
        # sub-threshold pumping, low carrier: the gain-first run gains norm,
        # the absorber-first run loses it (checked mid-flight)
        cfg = tmp_path / "sub.cfg"
        cfg.write_text("hbar_omegap_ev = 0.1\n")
        totals = {}
        for side in ("left", "right"):
            assert run_cli("packet", "--config", str(cfg), "--energy-ev", "0.02",
                           "--sigma-um", "4", "--from", side,
                           "--t-final-ps", "1.5", "--interior-tol", "1.0") == 0
            out, err = capsys.readouterr()
            totals[side] = float(re.search(r"total norm:\s+([0-9.]+)", out).group(1))
            # mid-flight, most of the norm is inside the medium: neither
            # outgoing fraction is settled, and each gets one stderr line
            printed = {name: float(re.search(rf"{name}:\s+([0-9.]+)", out).group(1))
                       for name in ("transmitted fraction", "reflected fraction",
                                    "interior residual")}
            warnings = err.splitlines()
            assert len(warnings) == 2
            for name, line in zip(("transmitted", "reflected"), warnings):
                match = re.fullmatch(rf"warning: {name} fraction (\S+) is below the "
                                     r"interior residual (\S+); it is not settled", line)
                assert match
                assert float(match.group(1)) == pytest.approx(
                    printed[f"{name} fraction"], rel=5e-3, abs=5e-7)
                assert float(match.group(2)) == pytest.approx(
                    printed["interior residual"], rel=5e-3)
        assert totals["left"] > 1.0 > totals["right"]

    def test_snapshots_written(self, tmp_path, capsys):
        cfg = tmp_path / "off.cfg"
        cfg.write_text("hbar_omegap_ev = 1e-12\n")
        snap = tmp_path / "snap.csv"
        assert run_cli("packet", "--config", str(cfg), "--sigma-um", "2.5",
                       "--snapshots", str(snap),
                       "--snapshot-times-ps", "0.4") == 0
        capsys.readouterr()
        lines = snap.read_text().splitlines()
        assert lines[0] == "t,z,re_psi,im_psi,abs2_psi"
        times = {line.split(",")[0] for line in lines[1:]}
        assert len(times) == 2  # requested time plus the final state

    def test_snapshot_digits_match_elementwise_format(self, tmp_path, capsys):
        # the batched writer against f"{x:.15g}" per element on a short run
        cfg = tmp_path / "off.cfg"
        cfg.write_text("hbar_omegap_ev = 1e-12\n")
        snap = tmp_path / "snap.csv"
        assert run_cli("packet", "--config", str(cfg), "--sigma-um", "2.5",
                       "--t-final-ps", "0.05", "--interior-tol", "1.0",
                       "--snapshots", str(snap), "--snapshot-times-ps", "0.02") == 0
        capsys.readouterr()
        params = from_config(load_config(str(cfg)))
        plan = plan_packet_run(params, sigma=2.5 * 1e-6, energy=0.2 * E_CHARGE)
        result = scatter_packet(params, plan.spec, plan.grid, 0.05 * 1e-12,
                                record_times=(0.02 * 1e-12,), interior_tol=1.0)
        expected = ["t,z,re_psi,im_psi,abs2_psi\n"]
        for state in result.states:
            z = state.grid.z
            for i in range(state.psi.size):
                p = state.psi[i]
                expected.append(f"{state.t:.15g},{z[i]:.15g},{p.real:.15g},"
                                f"{p.imag:.15g},{abs(p) ** 2:.15g}\n")
        assert len(result.states) == 2
        assert snap.read_bytes() == "".join(expected).encode()

    def test_bad_packet_parameters_exit_2(self, capsys):
        assert run_cli("packet", "--energy-ev", "-0.1") == 2
        capsys.readouterr()


def test_import_leaves_scipy_unloaded():
    # scipy serves only the ODE oracle and the time stepper; a sweep
    # should not pay for importing it
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, ptwaveguide.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
