import json
import os
import re
import subprocess
import sys

import pytest

import ptwaveguide.cli as cli
from ptwaveguide.cli import CSV_HEADER, main, render_plot_script
from ptwaveguide.models import ModelKind, ModelResult, SweepRow
from ptwaveguide.quantities import Config


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


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

    def test_determinism_and_parallel_independence(self, tmp_path):
        # identical flags => byte-identical CSV and plot script; the degree
        # of parallelism must not show in the output either
        out = tmp_path / "a.csv"
        gp = tmp_path / "a.csv.gp"
        args = ("sweep", "--sweep", "1.001:1.04:11", "--plot",
                "--output", str(out))
        run_cli(*args)
        first_csv, first_gp = read(out), read(gp)
        run_cli(*args)
        assert read(out) == first_csv
        assert read(gp) == first_gp
        run_cli(*args, "--jobs", "4")
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
        models = (ModelKind.EXACT,)
        singular = [SweepRow(x, {ModelKind.EXACT: ModelResult.singular()})
                    for x in (1.001, 1.01)]
        # the medium-off control sweep comes back singular too
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: singular)
        failures = cli.run_checks(singular, models, params, Config())
        assert "no row has status ok" in failures
        assert sum("medium off" in message for message in failures) == 2

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m.csv"
        run_cli("sweep", "--sweep", "1.003:1.01:2", "--output", str(out))
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["tool"] == "ptwaveguide"
        assert manifest["rows"] == 2
        assert manifest["singular_rows"] == 0
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
        out = capsys.readouterr().out
        match = re.search(r"transmitted fraction: .*deviation ([0-9.]+)%", out)
        assert match and float(match.group(1)) <= 2.0
        assert "norm gain +" in out  # gain region first: the packet gains norm

    def test_medium_off_transmits_everything(self, tmp_path, capsys):
        cfg = tmp_path / "off.cfg"
        cfg.write_text("hbar_omegap_ev = 1e-12\n")
        assert run_cli("packet", "--config", str(cfg), "--sigma-um", "2.5") == 0
        out = capsys.readouterr().out
        assert "transmitted fraction: 1.000000" in out
        match = re.search(r"norm gain ([+-][0-9.]+)", out)
        assert match and abs(float(match.group(1))) <= 1e-6

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
            out = capsys.readouterr().out
            totals[side] = float(re.search(r"total norm:\s+([0-9.]+)", out).group(1))
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
