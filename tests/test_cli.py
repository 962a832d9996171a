import argparse
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import product
from time import sleep

import numpy as np
import pytest

import ptwaveguide.cli as cli
import ptwaveguide.helmholtz as hh
import ptwaveguide.models as models
from ptwaveguide.cli import CSV_HEADER, main, render_plot_script
from ptwaveguide.csvtext import line_text
from ptwaveguide.helmholtz import SpectralSingularityError, amplitude_arrays
from ptwaveguide.medium import from_config
from ptwaveguide.models import (STATUSES, ModelColumns, ModelKind, SweepTable, bilayer,
                                evaluate_row, sweep, sweep_grid)
from ptwaveguide.quantities import CONFIG_KEYS, E_CHARGE, Config, load_config
from ptwaveguide.timeprop import SpatialGrid, plan_packet_run, scatter_packet


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


def _singular_table(xs):
    n = len(xs)
    t = np.full(n, np.nan + 0j)
    columns = ModelColumns.from_amplitudes(
        t, np.zeros(n, complex), np.zeros(n, complex), np.ones(n, bool), t)
    return SweepTable(np.array(xs, dtype=float), {ModelKind.EXACT: columns})


def _failing_reciprocity(k_outer, layers):
    """For ``models.amplitude_arrays``: its mirrored-stack t, which only
    run_checks reads, off by 1e-6, so every ok row of every model fails the
    reciprocity check, in order of frequency, then model."""
    *rest, t_mirrored = amplitude_arrays(k_outer, layers)
    return (*rest, t_mirrored * (1 + 1e-6))


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
        t = np.array([0.5 + 0.5j, complex(np.inf, np.nan), 0.5 + 0j])
        columns = ModelColumns.from_amplitudes(
            t, np.array([0.1j, 0j, np.inf + 0j]), np.array([0.2 + 0j, 0j, 0.1 + 0j]),
            np.array([False, True, False]), t)
        return SweepTable(np.array(self.XS), {ModelKind.EXACT: columns})

    def test_statuses(self, table):
        status = table.models[ModelKind.EXACT].status
        assert status.dtype == np.uint8
        assert [STATUSES[c] for c in status.tolist()] == ["ok", "singular", "nonfinite"]
        assert table.status_counts() == {"ok": 1, "singular": 1, "nonfinite": 1}

    def test_csv_keeps_empty_fields(self, table):
        lines = b"".join(cli.csv_chunks(table)).decode().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("1.001,exact,0.5,0.5,0,0.1,0.5,0.5,0.2,0,")
        assert lines[1].endswith(",ok")
        assert lines[2] == "1.002,exact" + "," * 13 + "singular"
        assert lines[3] == "1.003,exact" + "," * 13 + "nonfinite"

    def test_csv_of_models_differing_in_status(self):
        # at each frequency the two models differ in status (ok/nonfinite,
        # singular/ok, nonfinite/singular), then both are ok: each line keeps
        # its own empty fields and status
        def columns(t, r_left, r_right, singular):
            t = np.array(t, complex)
            return ModelColumns.from_amplitudes(t, np.array(r_left, complex),
                                                np.array(r_right, complex),
                                                np.array(singular), t)

        exact = columns([0.5 + 0.5j, 0j, complex(np.inf, 0), 0.25 - 1e-300j],
                        [0.1j, 0j, 0.3, -2e-7], [0.2, 0j, 0.1, 3e5],
                        [False, True, False, False])
        approx = columns([1e200, 0.75 + 0.1j, 0j, 1 / 3], [0j, 1e-5, 0j, 0.1],
                         [0j, 0.2j, 0j, -0.0], [False, False, True, False])
        table = SweepTable(np.array([1.001, 1.002, 1.003, 1.0045]),
                           {ModelKind.EXACT: exact, ModelKind.APPROXIMATE: approx})
        empty = "," * 13
        assert b"".join(cli.csv_chunks(table)).decode().splitlines()[1:] == [
            "1.001,exact,0.5,0.5,0,0.1,0.5,0.5,0.2,0,0.51,0.54,-0.292429823902064,"
            "-0.267606240177031,ok",
            f"1.001,approx{empty}nonfinite",
            f"1.002,exact{empty}singular",
            "1.002,approx,0.75,0.1,1e-05,0,0.75,0.1,0,0.2,0.5725000001,0.6125,"
            "-0.242224508912215,-0.21289390696343,ok",
            f"1.003,exact{empty}nonfinite",
            f"1.003,approx{empty}singular",
            "1.0045,exact,0.25,-1e-300,-2e-07,0,0.25,-1e-300,300000,0,0.06250000000004,"
            "90000000000.0625,-1.20411998265565,10.9542425094396,ok",
            "1.0045,approx,0.333333333333333,0,0.1,0,0.333333333333333,0,-0,0,"
            "0.121111111111111,0.111111111111111,-0.916816011498701,-0.954242509439325,ok"]

    def test_manifest_counts(self, table, params, tmp_path):
        path = tmp_path / "m.json"
        cli.write_manifest(str(path), Config(), (1.001, 1.003, 3), params, table, {})
        manifest = json.loads(path.read_text())
        assert manifest["frequencies"] == 3
        assert manifest["rows_by_status"] == {"ok": 1, "singular": 1, "nonfinite": 1}
        assert sum(manifest["rows_by_status"].values()) == manifest["csv_rows"] == 3

    def test_sweep_summary_counts_each_status(self, table, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: table)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--models", "exact", "--output", str(out)) == 0
        assert "3 frequencies x 1 model(s), rows 1 ok, 1 singular, 1 nonfinite\n" \
            in capsys.readouterr().out
        # the file is written block by block: the same text as the chunks joined
        assert out.read_text() == b"".join(cli.csv_chunks(table)).decode()

    def test_finite_overflow_is_nonfinite(self):
        # |t|^2 of a finite t = 1e200 overflows: the row is nonfinite, with
        # no exception and no warning, and the ordinary row stays ok
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = np.array([1e200 + 0j, 0.5 + 0.5j])
            columns = ModelColumns.from_amplitudes(
                t, np.array([0j, 0.1j]), np.array([0j, 0.2 + 0j]), np.array([False, False]), t)
        assert columns.status.dtype == np.uint8
        assert [STATUSES[c] for c in columns.status.tolist()] == ["nonfinite", "ok"]

    def test_check_fails_on_nonfinite(self, table, params):
        failures = cli.run_checks(table, params)
        assert "non-finite amplitudes at x=1.003 (exact)" in failures
        assert not any("x=1.002" in message for message in failures)


class TestCheckMessages:
    """One violation injected into a sweep table; run_checks reports exactly
    that row, with the message text of the per-row checks it replaced."""

    @pytest.fixture(scope="class")
    def table(self, params):
        return sweep(params, 1.001, 1.05, 9)

    def test_clean_table_passes(self, table, params):
        assert cli.run_checks(table, params) == []

    def test_reciprocity(self, table, params):
        t = complex(table.models[ModelKind.EXACT].t[2])
        bad = _inject(table, ModelKind.EXACT, "t", 2, t * (1 + 1e-9))
        x = float(table.omega_over_omegac[2])
        assert cli.run_checks(bad, params) == [
            f"reciprocity violated at x={x} (exact)"]

    def test_generalized_unitarity(self, table, params):
        col = table.models[ModelKind.APPROXIMATE]
        r_right = complex(col.r_right[4]) * (1 + 1e-6)
        bad = _inject(table, ModelKind.APPROXIMATE, "r_right", 4, r_right)
        t, r_left = complex(col.t[4]), complex(col.r_left[4])
        resid = abs(abs(t) ** 2 + r_left.conjugate() * r_right - 1.0)
        assert resid > 1e-8
        x = float(table.omega_over_omegac[4])
        assert cli.run_checks(bad, params) == [
            f"generalized unitarity residual {resid:.2e} at x={x}"]

    def test_non_unit_medium_off_row(self, table, params, monkeypatch):
        real_sweep = cli.sweep

        def control_sweep(*args, **kwargs):
            control = real_sweep(*args, **kwargs)
            return _inject(control, ModelKind.APPROXIMATE, "s_right", 7, 1.0 + 1e-9)

        monkeypatch.setattr(cli, "sweep", control_sweep)
        # the control sweeps the table's range, at its 9 points
        xs = table.omega_over_omegac
        x = sweep_grid(xs[0], xs[-1], 9).tolist()[7]
        assert cli.run_checks(table, params) == [
            f"unit flux sums violated with the medium off at x={x} (approx)"]

    @pytest.mark.parametrize("present, absent", [(ModelKind.EXACT, ModelKind.APPROXIMATE),
                                                 (ModelKind.APPROXIMATE, ModelKind.EXACT)],
                             ids=["exact", "approx"])
    def test_medium_off_control_of_an_absent_model(self, params, monkeypatch, present,
                                                   absent):
        # a control of the model the table lacks is not run, so its failure
        # prints nothing
        real_sweep = cli.sweep

        def control_sweep(*args, **kwargs):
            control = real_sweep(*args, **kwargs)
            if absent in control.models:
                control = _inject(control, absent, "s_left", 3, 1.0 + 1e-9)
            return control

        monkeypatch.setattr(cli, "sweep", control_sweep)
        assert cli.run_checks(sweep(params, 1.001, 1.05, 9, models=(present,)), params) == []

    def test_one_frequency_table(self, params, monkeypatch):
        # a table of one frequency passes, and the medium-off control
        # evaluates that frequency, once for each model
        table = evaluate_row(params, 1.01, (ModelKind.EXACT, ModelKind.APPROXIMATE))
        frequencies = []

        def counted(k_outer, layers):
            frequencies.append(np.size(k_outer))
            return amplitude_arrays(k_outer, layers)

        monkeypatch.setattr(models, "amplitude_arrays", counted)
        assert cli.run_checks(table, params) == []
        assert frequencies == [1, 1]
        bad = _inject(table, ModelKind.EXACT, "t", 0, complex(table.models[ModelKind.EXACT].t[0])
                      * (1 + 1e-9))
        assert cli.run_checks(bad, params) == ["reciprocity violated at x=1.01 (exact)"]

    def test_all_singular_table(self, params):
        table = _singular_table((1.001, 1.01))
        assert cli.run_checks(table, params) == ["no row has status ok"]

    @pytest.mark.parametrize("omegap_ev, delta_ev, length_um",
                             product((0.02, 0.1, 0.3), (0.5, 2.5), (5.0, 60.0)))
    def test_every_medium_passes(self, omegap_ev, delta_ev, length_um):
        # the checks assert invariants, which hold on any medium; where the
        # gain side dominates depends on the medium and is not checked
        params = from_config(Config(hbar_omegap_ev=omegap_ev, hbar_delta_ev=delta_ev,
                                    region_length_um=length_um))
        assert cli.run_checks(sweep(params, 1.0005, 1.10, 400), params) == []


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
        # the columnar render against a per-row formula: Python complex parts
        # and flux sums |t|^2 + |r|^2 with |z|^2 = Re^2 + Im^2, summed in
        # flux_sums' order, numpy's log10 of them, each field as f"{x:.15g}".
        # Squares are x*x: Python's float ** calls libm pow, which can differ
        # from numpy's square in the last ulp
        table = sweep(params, 1.0005, 1.10, 400)
        expected = [CSV_HEADER]
        for i, x in enumerate(table.omega_over_omegac.tolist()):
            for model, col in table.models.items():
                t, rl, rr = complex(col.t[i]), complex(col.r_left[i]), complex(col.r_right[i])
                t2 = t.real * t.real + t.imag * t.imag
                s_left = t2 + (rl.real * rl.real + rl.imag * rl.imag)
                s_right = t2 + (rr.real * rr.real + rr.imag * rr.imag)
                fields = (x, t.real, t.imag, rl.real, rl.imag, t.real, t.imag, rr.real,
                          rr.imag, s_left, s_right, float(np.log10(s_left)),
                          float(np.log10(s_right)))
                expected.append(f"{x:.15g},{model.value},"
                                + ",".join(f"{v:.15g}" for v in fields[1:]) + ",ok")
        assert b"".join(cli.csv_chunks(table)).decode() == "\n".join(expected) + "\n"

    def test_csv_text_does_not_depend_on_block_size(self, params, default_packet_run,
                                                    tmp_path, monkeypatch):
        # numpy gives an element the same bits wherever it falls in a block:
        # blocks of 21 values, one sweep row of two models and 7 snapshot
        # points, write the bytes of the default blocks.  The snapshots are every 16th point of
        # the default run's two states, on a grid of as many points
        table = sweep(params, 1.0005, 1.10, 400)
        plan, result = default_packet_run
        states = [(t, psi[::16]) for t, psi in result.states]
        grid = replace(plan.grid, n_points=states[0][1].size)
        cli.write_snapshots(str(tmp_path / "default.csv"), grid, states)
        default = b"".join(cli.csv_chunks(table))
        monkeypatch.setattr(cli, "_BLOCK_VALUES", 21)
        chunks = list(cli.csv_chunks(table))
        assert len(chunks) == 1 + 400
        assert b"".join(chunks) == default
        cli.write_snapshots(str(tmp_path / "small.csv"), grid, states)
        assert (tmp_path / "small.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    def test_snapshot_writer_builds_z_once_per_grid(self, tmp_path, monkeypatch):
        # two states of three blocks of points each: the grid's z is built once
        grid = SpatialGrid(-1.0, 1.0, cli._BLOCK_VALUES, 1e-16)
        psi = np.full(grid.n_points, 0.5 + 0.5j)
        built = []
        z = SpatialGrid.z.fget
        monkeypatch.setattr(SpatialGrid, "z", property(lambda g: built.append(g) or z(g)))
        cli.write_snapshots(str(tmp_path / "one.csv"), grid, [(t, psi) for t in (0.0, 1e-13)])
        assert built == [grid]

    def test_snapshot_edge_values_match_elementwise_format(self, tmp_path):
        # two states on a grid of no whole number of blocks, then on a grid
        # equal to it whose z ends at -0.0 instead of 0.0.  The fields
        # include values the renderer leaves to Python
        n = cli._BLOCK_VALUES // 3  # points per block
        a = SpatialGrid(-1e-5, 0.0, 2 * n + 5, 1e-16)
        signed = replace(a, z_max=-0.0)
        assert signed == a
        rng = np.random.default_rng(5)
        for name, grid in (("a", a), ("signed", signed)):
            states = []
            for t in (0.0, 1e-13):
                psi = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
                psi[:6] = [0.0, -0.0, 5e-324, 1e-300, complex(-0.0, 2.5e-310),
                           complex(1e-300, -0.0)]
                states.append((t, psi))
            cli.write_snapshots(str(tmp_path / f"{name}.csv"), grid, states)
            expected = ["t,z,re_psi,im_psi,abs2_psi\n"]
            z = grid.z
            for t, psi in states:
                for i in range(psi.size):
                    p = complex(psi[i])
                    expected.append(f"{t:.15g},{z[i]:.15g},{p.real:.15g},"
                                    f"{p.imag:.15g},{p.real * p.real + p.imag * p.imag:.15g}\n")
            assert (tmp_path / f"{name}.csv").read_bytes() == "".join(expected).encode()
        assert expected[-1].startswith("1e-13,-0,")

    def test_snapshot_writer_memory_is_bounded(self, tmp_path):
        # the writer holds the grid's z text (22 bytes a point) and one
        # block's renders (~4.9 MB here); rendering a whole state in one call
        # peaks at ~1.3 kB a point
        grid = SpatialGrid(-1.0, 1.0, 100_000, 1e-16)
        rng = np.random.default_rng(3)
        states = [(t, rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points))
                  for t in (0.0, 1e-13, 2e-13)]
        # builds the renderer's tables
        cli.write_snapshots(str(tmp_path / "warm.csv"), grid, states[:1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli.write_snapshots(str(tmp_path / "s.csv"), grid, states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 40 * grid.n_points + 2e6

    def test_models_filter(self, tmp_path):
        out = tmp_path / "approx.csv"
        run_cli("sweep", "--sweep", "1.003:1.01:4", "--models", "approx",
                "--output", str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        assert all(line.split(",")[1] == "approx" for line in lines[1:])

    def test_config_file_and_overrides(self, tmp_path):
        # the file sets the medium, the flags set the grid and the path
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hbar_omegap_ev = 0.1\nregion_length_um = 10\n")
        out = tmp_path / "cfg.csv"
        assert run_cli("sweep", "--config", str(cfg), "--sweep", "1.002:1.03:5",
                       "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5 * 2
        assert lines[1].startswith("1.002,")
        expected = b"".join(cli.csv_chunks(sweep(from_config(load_config(str(cfg))),
                                                 1.002, 1.03, 5)))
        assert out.read_bytes() == expected
        assert expected != b"".join(cli.csv_chunks(sweep(from_config(Config()),
                                                         1.002, 1.03, 5)))

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hbar_delta_ev = -0.5\n")
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert "hbar_delta_ev" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        ("sweep", "slab_width_um = 0.124"), ("sweep", "sweep_points = 400"),
        ("sweep", "output_path = results.csv"), ("packet", "sweep_start = 1.0005")])
    def test_removed_config_key_exits_2(self, tmp_path, capsys, monkeypatch, command, line):
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"hbar_omegap_ev = 0.2\n{line}\n")
        assert run_cli(command, "--config", str(cfg)) == 2
        assert capsys.readouterr().err == \
            f"config error: line 2: unknown key {line.split()[0]!r}\n"
        assert os.listdir(tmp_path) == ["old.cfg"]

    @pytest.mark.parametrize("window, message", [
        pytest.param("1.001:1.05", "--sweep expects START:STOP:N, got '1.001:1.05'",
                     id="missing N"),
        pytest.param("1.001:1.05:9.5", "--sweep expects numbers START:STOP and an "
                     "integer N, got '1.001:1.05:9.5'", id="non-integer N"),
        pytest.param("1.001:1.05:1", "need at least 2 points, got 1", id="N < 2"),
        pytest.param("1.0005:1.1:100000000000",
                     "need at most 4000000 points, got 100000000000", id="N over the cap"),
        pytest.param("1.0:1.05:9", "need 1 < start < stop < inf, got start=1.0, stop=1.05",
                     id="start <= 1"),
        pytest.param("1.05:1.05:9", "need 1 < start < stop < inf, got start=1.05, "
                     "stop=1.05", id="stop <= start"),
        pytest.param("nan:1.05:9", "need 1 < start < stop < inf, got start=nan, stop=1.05",
                     id="nan start"),
        pytest.param("inf:1.05:9", "need 1 < start < stop < inf, got start=inf, stop=1.05",
                     id="inf start"),
        pytest.param("1.001:nan:9", "need 1 < start < stop < inf, got start=1.001, "
                     "stop=nan", id="nan stop"),
        pytest.param("1.001:inf:9", "need 1 < start < stop < inf, got start=1.001, "
                     "stop=inf", id="inf stop"),
    ])
    def test_bad_sweep_exits_2(self, tmp_path, capsys, window, message):
        out = tmp_path / "bad.csv"
        assert run_cli("sweep", "--sweep", window, "--check", "--plot",
                       "--output", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# fine\nhbar_omegap_ev == 7\n")
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

    @pytest.fixture
    def subcritical_config(self, tmp_path):
        cfg = tmp_path / "subcritical.cfg"
        cfg.write_text("hbar_omegap_ev = 0.1\n")
        return str(cfg)

    def test_check_passes_on_subcritical_medium(self, tmp_path, capsys, subcritical_config):
        # its asymmetry ends at 1.0027 (test_subcritical_sweep_prints_figure),
        # which the checks do not assert
        out = tmp_path / "sub.csv"
        assert run_cli("sweep", "--check", "--config", subcritical_config,
                       "--output", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("all sweep checks passed\n")

    def test_planted_violation_fails_on_subcritical_medium(self, tmp_path, capsys, monkeypatch,
                                                           subcritical_params,
                                                           subcritical_config):
        monkeypatch.setattr(models, "amplitude_arrays", _failing_reciprocity)
        table = sweep(subcritical_params, *cli.SWEEP_WINDOW)
        expected = cli.run_checks(table, subcritical_params)
        assert len(expected) == 2 * cli.SWEEP_WINDOW[2]
        assert run_cli("sweep", "--check", "--config", subcritical_config,
                       "--output", str(tmp_path / "bad.csv")) == 1
        captured = capsys.readouterr()
        assert captured.err == "".join(f"CHECK FAILED: {m}\n" for m in expected)
        assert "checks passed" not in captured.out

    # the last seven are finite in eV but leave the floating-point range in
    # SI units: as omega_p or omega0 squared, as omega_p^2/delta^2, as omega_p
    # and omega0 themselves, in the reduced model's omega_c * omega_p^2 with
    # every ratio finite, or as a delta * omega_c that underflows to zero
    @pytest.mark.parametrize("line", [
        "hbar_omegap_ev = nan", "sweep_stop = inf", "region_length_um = inf",
        "hbar_omegap_ev = 1e200", "hbar_delta_ev = 1e-300", "hbar_omega0_ev = 1e140",
        "hbar_omegap_ev = 1e300", "hbar_omega0_ev = 1e308",
        pytest.param("hbar_omega0_ev = 6.6e134\nhbar_omegap_ev = 6.6e84\nhbar_delta_ev = 6.6e84",
                     id="gain-loss-k2-overflows"),
        pytest.param("hbar_omega0_ev = 6.6e-177\nhbar_omegap_ev = 6.6e-176\n"
                     "hbar_delta_ev = 6.6e-179", id="cutoff-ratio-divisor-underflows")])
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
        failures = cli.run_checks(singular, params)
        assert "no row has status ok" in failures
        assert sum("medium off" in message for message in failures) == 2

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m.csv"
        run_cli("sweep", "--sweep", "1.003:1.01:2", "--output", str(out))
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["tool"] == "ptwaveguide"
        assert manifest["frequencies"] == 2
        assert manifest["rows_by_status"] == {"ok": 4, "singular": 0, "nonfinite": 0}
        # one CSV row per frequency and model
        assert sum(manifest["rows_by_status"].values()) == manifest["csv_rows"] == 4
        assert manifest["derived"]["hbar_omega_c_ev"] == pytest.approx(5.0)
        assert manifest["derived"]["slab_width_m"] == from_config(Config()).slab_width
        assert "width_mismatch_rel" not in manifest["derived"]
        assert manifest["config"] == {key: getattr(Config(), key) for key in CONFIG_KEYS}
        assert manifest["sweep"] == {"start": 1.003, "stop": 1.01, "points": 2}
        stages = manifest["stage_seconds"]
        assert set(stages) == {"config", "sweep", "csv"}
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_plot_script_series(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run_cli("sweep", "--sweep", "1.003:1.01:3", "--plot", "--output", str(out)) == 0
        assert capsys.readouterr().out.endswith(f"wrote {out}.gp\n")
        script = (tmp_path / "p.csv.gp").read_text()
        assert script.count("with lines") == 2
        assert script.count("with points") == 2
        assert script == render_plot_script(str(out))

    @pytest.mark.parametrize("path", ["runs/p.csv", 'my"run.csv', "a\\tb.csv",
                                      "ends\\", "line\nbreak.csv", "tab\tand\rcr.csv"])
    def test_plot_script_quotes_the_path(self, path):
        # each plot line names the CSV in a double-quoted gnuplot string on
        # one line; undoing gnuplot's backslash escapes gives the path back,
        # and a path with none of them is written as it is
        script = render_plot_script(path)
        literals = re.findall(r'^  "((?:[^"\\\n]|\\.)*)" using', script, re.M)
        assert len(literals) == 4
        escapes = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
        for literal in literals:
            assert re.sub(r"\\(.)", lambda m: escapes[m[1]], literal) == path
        if path == "runs/p.csv":
            assert script.count('  "runs/p.csv" using') == 4

    FIGURE = ["s_left > 1 > s_right holds on every grid point up to omega/omega_c = 1.0207 "
              "(both models)", "worst log10 model-agreement metric below 1.0158: 0.0483"]

    def test_default_sweep_prints_figure(self, tmp_path, capsys):
        # README's figure command: the two numbers follow the mirror-defect
        # line, and the plot script's line comes last
        out = tmp_path / "figure_sweep.csv"
        assert run_cli("sweep", "--plot", "--output", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("max mirror-conjugation defect of the exact profile: ")
        assert lines[2:] == self.FIGURE + [f"wrote {out}.gp"]

    def test_subcritical_sweep_prints_figure(self, tmp_path, capsys, subcritical_config):
        # the asymmetry edge belongs to the medium: at half the reference
        # pumping it ends far below the reference medium's 1.0207
        assert run_cli("sweep", "--config", subcritical_config,
                       "--output", str(tmp_path / "sub.csv")) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "s_left > 1 > s_right holds on every grid point up to omega/omega_c = 1.0027 "
            "(both models)", "worst log10 model-agreement metric below 1.0158: 0.0621"]

    @pytest.mark.parametrize("window, asymmetry", [
        ("1.03:1.1:40", "fails at the first grid point, omega/omega_c = 1.0300"),
        ("1.02:1.1:9", "holds on every grid point up to omega/omega_c = 1.0200 (both models)")])
    def test_figure_outside_default_window(self, tmp_path, capsys, window, asymmetry):
        # no grid point lies below 1.0158, so there is no agreement to report
        assert run_cli("sweep", "--sweep", window, "--output", str(tmp_path / "w.csv")) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            f"s_left > 1 > s_right {asymmetry}",
            "worst log10 model-agreement metric below 1.0158: n/a"]

    @pytest.mark.parametrize("fields", [
        ("t", "r_left", "r_right", "s_left", "s_right", "status"), ("status",)],
        ids=["singular row", "status only"])
    def test_figure_leaves_out_rows_not_ok(self, params, tmp_path, capsys, monkeypatch,
                                           fields):
        # the default sweep's worst-agreement row (x = 1.01496, 0.0483) made
        # singular in the exact model, or only marked so with its sums kept:
        # the asymmetry ends on the point below it, and the worst agreement
        # is the next-worst row's
        table = sweep(params, *cli.SWEEP_WINDOW)
        i = 58
        assert f"{table.omega_over_omegac[i]:.5f}" == "1.01496"
        singular = _singular_table(table.omega_over_omegac[i:i + 1]).models[ModelKind.EXACT]
        for field in fields:
            table = _inject(table, ModelKind.EXACT, field, i, getattr(singular, field)[0])
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: table)
        assert run_cli("sweep", "--output", str(tmp_path / "s.csv")) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "s_left > 1 > s_right holds on every grid point up to omega/omega_c = 1.0147 "
            "(both models)", "worst log10 model-agreement metric below 1.0158: 0.0464"]

    @pytest.mark.parametrize("models", ["exact", "approx"])
    def test_one_model_prints_no_figure(self, tmp_path, capsys, models):
        assert run_cli("sweep", "--models", models, "--output", str(tmp_path / "m.csv")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("max mirror-conjugation defect of the exact profile: ")

    @pytest.mark.parametrize("passing", [True, False])
    def test_manifest_times_checks(self, tmp_path, capsys, monkeypatch, passing):
        # the manifest is written after the checks, whether or not they pass
        if not passing:
            monkeypatch.setattr(cli, "run_checks", lambda *args: ["planted failure"])
        out = tmp_path / "c.csv"
        assert run_cli("sweep", "--sweep", "1.003:1.01:2", "--check",
                       "--output", str(out)) == (0 if passing else 1)
        err = capsys.readouterr().err
        assert err == ("" if passing else "CHECK FAILED: planted failure\n")
        stages = json.loads((tmp_path / "c.csv.manifest.json").read_text())["stage_seconds"]
        assert set(stages) == {"config", "sweep", "csv", "checks"}
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_stage_times_are_consecutive(self, tmp_path, monkeypatch):
        # "checks" counts from the end of the CSV: a render slowed by 0.2 s
        # lengthens "csv" alone
        chunks = cli.csv_chunks

        def slow_chunks(table):
            sleep(0.2)
            yield from chunks(table)

        monkeypatch.setattr(cli, "csv_chunks", slow_chunks)
        out = tmp_path / "c.csv"
        assert run_cli("sweep", "--sweep", "1.003:1.01:2", "--check", "--output", str(out)) == 0
        stages = json.loads((tmp_path / "c.csv.manifest.json").read_text())["stage_seconds"]
        assert stages["csv"] >= 0.2
        assert stages["checks"] < 0.2

    def test_failing_model_exits_2(self, tmp_path, capsys, monkeypatch):
        # a model evaluation that raises, after the first model's, fails the
        # sweep before anything is written or printed
        recorded = bilayer

        def planted(model, params, omega):
            if model is ModelKind.APPROXIMATE:
                raise ValueError("planted model failure")
            return recorded(model, params, omega)

        monkeypatch.setattr("ptwaveguide.models.bilayer", planted)
        out = tmp_path / "f.csv"
        assert run_cli("sweep", "--sweep", "1.0005:1.10:40", "--check",
                       "--output", str(out)) == 2
        assert capsys.readouterr() == ("", "error: planted model failure\n")
        assert os.listdir(tmp_path) == []


class TestSweepMemory:
    """tracemalloc peaks of the sweep and of its checks at 40,000
    frequencies, per frequency.  The kernel's chunks bound its temporaries:
    in one pass the sweep peaks at ~532 bytes a frequency."""
    POINTS = 40_000

    @classmethod
    def peak_per_point(cls, fn, *args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / cls.POINTS

    def test_sweep(self, params):
        # both models, as the CLI runs them, each with its mirrored t: ~241
        # bytes measured
        assert self.peak_per_point(sweep, params, 1.0005, 1.10, self.POINTS) <= 320

    def test_run_checks(self, params):
        # ~61 bytes measured: the table's columns are read, and the kernel
        # runs only for the 41-frequency control
        table = sweep(params, 1.0005, 1.10, self.POINTS)
        assert self.peak_per_point(cli.run_checks, table, params) <= 220

    def test_run_checks_runs_the_kernel_only_for_the_control(self, params, monkeypatch):
        # reciprocity reads the sweep's own mirrored t: the one kernel work
        # left is the medium-off control, 41 frequencies for each model
        table = sweep(params, 1.0005, 1.10, self.POINTS)
        frequencies = []

        def counted(k_outer, layers):
            frequencies.append(np.size(k_outer))
            return amplitude_arrays(k_outer, layers)

        for module in (hh, models, cli):
            if getattr(module, "amplitude_arrays", None) is amplitude_arrays:
                monkeypatch.setattr(module, "amplitude_arrays", counted)
        assert cli.run_checks(table, params) == []
        assert frequencies == [41, 41]

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda model: model.value)
    def test_run_checks_controls_only_the_tables_model(self, params, monkeypatch, model):
        # a table of one model runs the control of that model alone
        table = sweep(params, 1.0005, 1.10, self.POINTS, models=(model,))
        frequencies = []

        def counted(k_outer, layers):
            frequencies.append(np.size(k_outer))
            return amplitude_arrays(k_outer, layers)

        monkeypatch.setattr(models, "amplitude_arrays", counted)
        assert cli.run_checks(table, params) == []
        assert frequencies == [41]


class TestPacketCommand:
    @pytest.fixture(scope="class")
    def default_outputs(self):
        """(stdout, stderr) of the default packet run from each side."""
        outputs = {}
        for side in ("left", "right"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert run_cli("packet", "--from", side) == 0
            outputs[side] = out.getvalue(), err.getvalue()
        return outputs

    def test_defaults_match_prediction(self, default_outputs):
        out, err = default_outputs["left"]
        assert "warning" not in err  # both fractions exceed the interior residual
        match = re.search(r"transmitted fraction: .*deviation ([0-9.]+)%", out)
        assert match and float(match.group(1)) <= 2.0
        assert "norm gain +" in out  # gain region first: the packet gains norm

    @pytest.fixture(scope="class")
    def medium_off_output(self, tmp_path_factory):
        """(stdout, stderr, snapshot CSV) of the sigma = 2.5 um run with the
        medium off, snapshots at 0.02 ps and at the end."""
        folder = tmp_path_factory.mktemp("off")
        cfg, snap = folder / "off.cfg", folder / "snap.csv"
        cfg.write_text("hbar_omegap_ev = 1e-12\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run_cli("packet", "--config", str(cfg), "--sigma-um", "2.5",
                           "--snapshots", str(snap), "--snapshot-times-ps", "0.02") == 0
        return out.getvalue(), err.getvalue(), snap

    def test_medium_off_transmits_everything(self, medium_off_output):
        out, err, _ = medium_off_output
        # the interior residual is far below the printed resolution, so no
        # fraction is reported as unsettled
        assert "warning" not in err
        assert "transmitted fraction: 1.000000" in out
        match = re.search(r"norm gain ([+-][0-9.]+)", out)
        assert match and abs(float(match.group(1))) <= 1e-6

    def test_medium_off_reflection_deviation(self, medium_off_output):
        # the predicted reflection is below the printed resolution: no
        # relative deviation from it is printed
        line = re.search(r"reflected fraction: .*", medium_off_output[0]).group(0)
        assert line.endswith("deviation n/a)")
        assert all(float(p) <= 100.0 for p in re.findall(r"([0-9.]+)%", line))

    def test_incidence_sides_straddle_unity(self, default_outputs):
        # the gain-first run gains norm, the absorber-first run loses it; its
        # reflected fraction is below the interior residual, not settled, and
        # gets the one stderr line
        totals = {side: float(re.search(r"total norm:\s+([0-9.]+)", out).group(1))
                  for side, (out, _) in default_outputs.items()}
        assert totals["left"] > 1.0 > totals["right"]
        out, err = default_outputs["right"]
        printed = {name: float(re.search(rf"{name}:\s+([0-9.]+)", out).group(1))
                   for name in ("reflected fraction", "interior residual")}
        match = re.fullmatch(r"warning: reflected fraction (\S+) is below the "
                             r"interior residual (\S+); it is not settled\n", err)
        assert match
        assert float(match.group(1)) == pytest.approx(printed["reflected fraction"],
                                                      rel=5e-3, abs=5e-7)
        assert float(match.group(2)) == pytest.approx(printed["interior residual"],
                                                      rel=5e-3)

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

    def test_snapshot_digits_match_elementwise_format(self, medium_off_output):
        # the batched writer against f"{x:.15g}" per element
        params = from_config(Config(hbar_omegap_ev=1e-12))
        plan = plan_packet_run(params, sigma=2.5 * 1e-6, energy=0.2 * E_CHARGE)
        result = scatter_packet(params, plan.spec, plan.grid, plan.t_final,
                                record_times=(0.02 * 1e-12,))
        expected = ["t,z,re_psi,im_psi,abs2_psi\n"]
        z = plan.grid.z
        for t, psi in result.states:
            for i in range(psi.size):
                p = complex(psi[i])
                expected.append(f"{t:.15g},{z[i]:.15g},{p.real:.15g},"
                                f"{p.imag:.15g},{p.real * p.real + p.imag * p.imag:.15g}\n")
        assert len(result.states) == 2
        assert medium_off_output[2].read_bytes() == "".join(expected).encode()

    def test_bad_packet_parameters_exit_2(self, capsys):
        assert run_cli("packet", "--energy-ev", "-0.1") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("option, value, message", [
        ("--snapshot-times-ps", "0.1,inf",
         "record time must be finite and non-negative, got inf"),
        ("--snapshot-times-ps", "-0.1",
         "record time must be finite and non-negative, got -1e-13"),
        ("--snapshot-times-ps", "0.1,,",
         "--snapshot-times-ps expects comma separated numbers, got '0.1,,'"),
        ("--energy-ev", "inf", "carrier energy must be finite and positive, got inf"),
        ("--sigma-um", "inf", "sigma must be finite and positive, got inf"),
        ("--sigma-um", "nan", "sigma must be finite and positive, got nan"),
    ])
    def test_non_finite_packet_input_exits_2(self, monkeypatch, capsys,
                                            option, value, message):
        # rejected where the value enters, before any step is taken
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        assert run_cli("packet", option, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("option, value, product", [
        ("--sigma-um", "0.3", "2.15"), ("--energy-ev", "0.001", "1.52")])
    def test_unplannable_packet_exits_2(self, monkeypatch, capsys, option, value, product):
        # a packet too narrow or too slow for a finite time budget
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        assert run_cli("packet", option, value) == 2
        assert capsys.readouterr().err == (
            f"error: sigma*k0 = {product} must exceed 4.3: the packet spreads faster "
            "than it clears the medium, so no time budget exists\n")

    def test_oversized_packet_plan_exits_2(self, monkeypatch, capsys):
        # sigma*k0 = 4.33 has a time budget, but its grid and step count are
        # over the point-solve limit
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        assert run_cli("packet", "--sigma-um", "0.604") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sigma*k0 = 4.33 plans ")
        assert err.endswith(" steps of 2 solves, over the 5e+10 point-solve limit\n")

    @pytest.mark.parametrize("sigma_um, product", [("1e200", "7.17e+200"), ("1e308", "inf")])
    def test_huge_packet_plan_exits_2_in_one_line(self, monkeypatch, capsys, sigma_um, product):
        # counts far past the limit (infinite at 1e308) print in three digits
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        assert run_cli("packet", "--sigma-um", sigma_um) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: sigma\*k0 = {re.escape(product)} plans \S+ points x \S+ "
                            r"steps of 2 solves, over the 5e\+10 point-solve limit\n", err)
        assert len(err) < 200

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("length_um, counts", [
        ("1e4", "5.68e+06 points x 7.57e+04"),
        # the time budget and the grid overflow the float range: inf counts
        ("1e200", "inf points x inf"), ("1e307", "inf points x inf")])
    def test_long_medium_plan_exits_2_in_one_line(self, tmp_path, monkeypatch, capsys,
                                                  length_um, counts):
        # a long medium plans a packet over the point-solve limit, at a sigma*k0
        # far from 4.3; numpy's overflow warnings are errors here
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        cfg = tmp_path / "long.cfg"
        cfg.write_text(f"region_length_um = {length_um}\n")
        assert run_cli("packet", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"error: sigma*k0 = 21.5 plans {counts} steps of 2 solves, over the 5e+10 "
            "point-solve limit\n")

    @pytest.mark.filterwarnings("error")
    def test_packet_without_prediction_exits_2_before_stepping(self, tmp_path, monkeypatch,
                                                                capsys):
        # the transfer-matrix entries of a 400 um medium overflow across this
        # packet's spectrum: no stationary prediction, so no run; numpy's
        # overflow warnings are errors here
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        cfg = tmp_path / "long.cfg"
        cfg.write_text("region_length_um = 400\n")
        assert run_cli("packet", "--config", str(cfg), "--energy-ev", "0.005",
                       "--sigma-um", "10") == 2
        assert capsys.readouterr().err == (
            "error: the transfer-matrix entries overflow at k = 7.331790e+05 inside the "
            "packet spectrum: the stationary prediction is not finite\n")

    def test_spectral_singularity_exits_2(self, monkeypatch, capsys):
        def singular(params, spec):
            raise SpectralSingularityError("spectral singularity at k = 1e6")

        monkeypatch.setattr(cli, "transmission_prediction", singular)
        assert run_cli("packet") == 2
        assert capsys.readouterr().err == "error: spectral singularity at k = 1e6\n"

    def test_broadband_packet_warns_before_stepping(self, tmp_path, monkeypatch, caplog):
        # hbar_delta_ev = 0.1 makes the default packet's Omega/delta 0.132
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("hbar_delta_ev = 0.1\n")
        with caplog.at_level("WARNING", logger="ptwaveguide.cli"), \
                pytest.raises(AssertionError, match="stepped"):
            run_cli("packet", "--config", str(cfg))
        assert caplog.messages[-1] == (
            "packet bandwidth ratio Omega/delta = 0.132 is not narrow-band")

    @pytest.mark.parametrize("line", ["hbar_omegap_ev = 1e200", "hbar_delta_ev = 1e-300",
                                      "hbar_omega0_ev = 1e140", "hbar_omegap_ev = 1e300",
                                      "hbar_omega0_ev = 1e308"])
    def test_out_of_range_medium_exits_2(self, tmp_path, monkeypatch, capsys, line):
        # rejected by its key where the config becomes SI, before any step
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        snapshots = tmp_path / "snaps.csv"
        assert run_cli("packet", "--config", str(cfg), "--snapshots", str(snapshots)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and line.split()[0] in err
        assert not snapshots.exists()

    def test_unwritable_snapshots_exit_3_before_stepping(self, tmp_path, monkeypatch, capsys):
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        snapshots = tmp_path / "no_dir" / "x.csv"
        assert run_cli("packet", "--snapshots", str(snapshots),
                       "--snapshot-times-ps", "0.1") == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("i/o error: ") and str(snapshots) in err

    def test_failed_run_leaves_no_snapshots(self, tmp_path, monkeypatch, capsys):
        # the file made before the first step goes with a run that fails
        monkeypatch.setattr("ptwaveguide.timeprop._march", self.overflowing)
        snapshots = tmp_path / "snaps.csv"
        assert run_cli("packet", "--snapshots", str(snapshots)) == 2
        assert capsys.readouterr().out == ""
        assert not snapshots.exists()

    @staticmethod
    def overflowing(psi, potential, mass, dz, dt, n_steps):
        yield n_steps, psi * 1e200

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_failed_run_keeps_what_was_at_snapshot_path(self, tmp_path, monkeypatch, capsys,
                                                        kind):
        # a path that was there before the run is neither emptied nor removed
        monkeypatch.setattr("ptwaveguide.timeprop._march", self.overflowing)
        earlier = tmp_path / "earlier.csv"
        earlier.write_bytes(b"t,z,re_psi,im_psi,abs2_psi\n0,0,1,0,1\n")
        snapshots = earlier
        if kind == "symlink":
            snapshots = tmp_path / "link.csv"
            snapshots.symlink_to(earlier)
        assert run_cli("packet", "--snapshots", str(snapshots)) == 2
        assert capsys.readouterr().out == ""
        assert snapshots.is_symlink() == (kind == "symlink")
        assert earlier.read_bytes() == b"t,z,re_psi,im_psi,abs2_psi\n0,0,1,0,1\n"

    def test_failed_snapshot_write_leaves_no_snapshots(self, tmp_path, monkeypatch, capsys,
                                                       default_packet_run):
        # a write that fails part way, as on a full disk, fails the run with
        # exit 3 before the summary, and the file the run made goes with it
        def failing(path, grid, states):
            with open(path, "wb") as fh:
                fh.write(b"t,z,re_psi,im_psi,abs2_psi\n")
                raise OSError(27, "File too large")

        monkeypatch.setattr(cli, "scatter_packet", lambda *args, **kwargs: default_packet_run[1])
        monkeypatch.setattr(cli, "write_snapshots", failing)
        snapshots = tmp_path / "snaps.csv"
        assert run_cli("packet", "--snapshots", str(snapshots)) == 3
        assert capsys.readouterr() == ("", "i/o error: [Errno 27] File too large\n")
        assert not snapshots.exists()

    def test_failed_snapshot_write_keeps_what_was_at_snapshot_path(
            self, tmp_path, monkeypatch, capsys, default_packet_run):
        # a write that fails after its first block, as on a full disk, leaves
        # the file that was at the path as it was, and no temporary file
        written = []

        def failing(lines):
            if written:
                raise OSError(27, "File too large")
            written.append(lines.shape)
            return line_text(lines)

        monkeypatch.setattr(cli, "scatter_packet", lambda *args, **kwargs: default_packet_run[1])
        monkeypatch.setattr(cli, "line_text", failing)
        earlier = tmp_path / "earlier.csv"
        earlier.write_bytes(b"t,z\n")
        assert run_cli("packet", "--snapshots", str(earlier)) == 3
        assert capsys.readouterr() == ("", "i/o error: [Errno 27] File too large\n")
        assert len(written) == 1
        assert earlier.read_bytes() == b"t,z\n"
        assert os.listdir(tmp_path) == ["earlier.csv"]

    @pytest.mark.parametrize("kind", ["new", "file", "symlink"])
    def test_snapshot_file_permissions(self, tmp_path, kind):
        # the written file has the bits that opening the path for writing
        # would have left: the umask's on a new file, a file's own on one
        # that was there; a symlink stays, and its target is written
        target, path = tmp_path / "snaps.csv", tmp_path / "snaps.csv"
        if kind != "new":
            target.write_bytes(b"old")
            target.chmod(0o640)
        if kind == "symlink":
            path = tmp_path / "link.csv"
            path.symlink_to(target)
        with open(tmp_path / "w.csv", "wb"):
            pass
        grid = SpatialGrid(-1.0, 1.0, 5, 1e-16)
        with cli._replacing(str(path)) as out:
            cli.write_snapshots(out, grid, [(0.0, np.ones(grid.n_points, complex))])
        expected = 0o640 if kind != "new" else (tmp_path / "w.csv").stat().st_mode & 0o777
        assert target.stat().st_mode & 0o777 == expected
        assert path.is_symlink() == (kind == "symlink")
        assert target.read_bytes().startswith(b"t,z,re_psi,im_psi,abs2_psi\n0,-1,1,0,1\n")
        assert sorted(os.listdir(tmp_path)) == sorted({target.name, path.name, "w.csv"})

    def test_refused_snapshot_file_exits_3_before_stepping(self, tmp_path, monkeypatch,
                                                            capsys):
        # the new file beside the target is made before the first step, so a
        # folder that refuses it fails the run before it steps, naming the path
        def no_steps(*args):
            raise AssertionError("stepped")

        def refusing(file, *args, **kwargs):
            if file.endswith(".tmp"):
                raise PermissionError(13, "Permission denied", file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        monkeypatch.setattr(cli, "open", refusing, raising=False)
        earlier = tmp_path / "earlier.csv"
        earlier.write_bytes(b"t,z\n")
        assert run_cli("packet", "--snapshots", str(earlier)) == 3
        assert capsys.readouterr() == (
            "", f"i/o error: [Errno 13] Permission denied: '{earlier}'\n")
        assert earlier.read_bytes() == b"t,z\n"
        assert os.listdir(tmp_path) == ["earlier.csv"]

    def test_snapshots_to_a_pipe(self, tmp_path, monkeypatch, default_packet_run):
        # a target that is not a regular file, here a named pipe, is written
        # in place and stays what it was
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []

        def read():
            while not received or not received[-1]:  # an empty read is a writer that wrote nothing
                received.append(pipe.read_bytes())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        monkeypatch.setattr(cli, "scatter_packet", lambda *args, **kwargs: default_packet_run[1])
        assert run_cli("packet", "--snapshots", str(pipe)) == 0
        reader.join(60)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert os.listdir(tmp_path) == ["pipe"]
        plan, result = default_packet_run
        cli.write_snapshots(str(tmp_path / "file.csv"), plan.grid, result.states)
        assert received[-1] == (tmp_path / "file.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["hard link", "other user"])
    def test_snapshots_written_in_place(self, tmp_path, monkeypatch, default_packet_run,
                                        kind):
        # a rename would split a hard-linked file, or hand another user's file
        # to this one: such a file is written in place and keeps its inode
        earlier = tmp_path / "earlier.csv"
        earlier.write_bytes(b"t,z\n")
        inode = earlier.stat().st_ino
        if kind == "hard link":
            os.link(earlier, tmp_path / "link.csv")
        else:
            monkeypatch.setattr(cli.os, "geteuid", lambda: earlier.stat().st_uid + 1)
        monkeypatch.setattr(cli, "scatter_packet", lambda *args, **kwargs: default_packet_run[1])
        assert run_cli("packet", "--snapshots", str(earlier)) == 0
        assert earlier.stat().st_ino == inode
        assert earlier.read_bytes().startswith(b"t,z,re_psi,im_psi,abs2_psi\n")
        assert len(os.listdir(tmp_path)) == 1 + (kind == "hard link")

    def test_failed_removal_keeps_run_error(self, tmp_path, monkeypatch, capsys):
        # a snapshot file that cannot be removed does not hide the run's error
        def refused(path):
            raise PermissionError(f"refused: {path}")

        monkeypatch.setattr("ptwaveguide.timeprop._march", self.overflowing)
        monkeypatch.setattr(cli.os, "remove", refused)
        assert run_cli("packet", "--snapshots", str(tmp_path / "snaps.csv")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_snapshot_times_need_snapshots_file(self, monkeypatch, capsys):
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        assert run_cli("packet", "--snapshot-times-ps", "0.1") == 2
        assert capsys.readouterr().err == (
            "error: --snapshot-times-ps needs --snapshots: the requested states "
            "would not be written\n")

    def test_carrier_above_near_cutoff_regime_exits_2(self, monkeypatch, capsys):
        # 1e4 eV is omega/omega_c = 2001 on the default medium: refused at plan time
        def no_steps(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("ptwaveguide.timeprop._march", no_steps)
        assert run_cli("packet", "--energy-ev", "1e4") == 2
        assert capsys.readouterr().err == (
            "error: carrier at omega/omega_c = 2001 is above 1.1, outside the "
            "near-cutoff regime of the reduced model\n")

    def test_overflowing_field_exits_2(self, monkeypatch, capsys):
        # a field whose |psi|^2 overflows prints no inf fraction: it fails closed
        def overflowing(psi, potential, mass, dz, dt, n_steps):
            yield n_steps, psi * 1e200

        monkeypatch.setattr("ptwaveguide.timeprop._march", overflowing)
        assert run_cli("packet") == 2
        out, err = capsys.readouterr()
        assert "inf" not in out
        assert err == ("error: the field's norm overflows at t_final: the medium's "
                       "growing modes have taken over\n")

    @pytest.mark.parametrize("argv, message", [
        (("plot", "x.csv"), "invalid choice: 'plot'"),
        (("packet", "--t-final-ps", "1"), "unrecognized arguments: --t-final-ps 1"),
        (("packet", "--interior-tol", "1"), "unrecognized arguments: --interior-tol 1")])
    def test_removed_command_and_options_exit_2(self, capsys, argv, message):
        # packet runs its plan, and sweep --plot writes the plot script
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*argv):
    """A fresh interpreter with this checkout's package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=60)


def test_import_leaves_scipy_unloaded():
    # the time stepper loads scipy's LAPACK extension and its executor at its
    # first step, and a sweep pays for neither
    code = ("import sys, ptwaveguide.cli; "
            "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)")
    assert run_python("-c", code).stdout.split() == ["False", "False"]


def test_sweep_starts_no_thread(tmp_path):
    # a sweep runs on the calling thread alone, with or without --check: it
    # neither imports the executor nor starts a thread
    code = """if True:
        import sys, threading
        import ptwaveguide.cli as cli
        started = []
        start = threading.Thread.start
        threading.Thread.start = lambda thread: (started.append(thread), start(thread))[1]
        argv = ["sweep", "--sweep", "1.0005:1.10:40000", "--output", *sys.argv[1:]]
        assert cli.main(argv) == 0
        print('concurrent.futures' in sys.modules, len(started))
        """
    out = str(tmp_path / "s.csv")
    for flags in ((), ("--check",)):
        assert run_python("-c", code, out, *flags).stdout.splitlines()[-1].split() == \
            ["False", "0"]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_packet_steps_leave_scipy_linalg_unloaded():
    # two steps on the default packet grid: the stepper loads scipy's LAPACK
    # extension alone, where importing scipy.linalg would add ~23 MB
    code = """if True:
        import resource, sys
        import ptwaveguide.cli
        from ptwaveguide.medium import effective_mass, from_config
        from ptwaveguide.quantities import E_CHARGE, Config
        from ptwaveguide.timeprop import (_march, initial_gaussian, plan_packet_run,
                                          potential_on_grid)
        params = from_config(Config())
        plan = plan_packet_run(params, 3e-6, 0.2 * E_CHARGE)
        psi = initial_gaussian(plan.spec, plan.grid, params)
        potential = potential_on_grid(params, plan.grid)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for _ in _march(psi, potential, effective_mass(params), plan.grid.dz,
                        plan.grid.dt, 2):
            pass
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        print(plan.grid.n_points, 'scipy.linalg' in sys.modules, grown)
    """
    n_points, linalg_loaded, grown_kib = run_python("-c", code).stdout.split()
    assert (n_points, linalg_loaded) == ("22235", "False")
    assert int(grown_kib) < 12 * 1024


def test_stepper_lapack_shared_with_later_scipy_import():
    # the extension the stepper loads is the one a later import of
    # scipy.linalg uses: the same module, the same function objects
    code = """if True:
        import sys
        from ptwaveguide.timeprop import _flapack
        lapack = _flapack()
        assert 'scipy.linalg' not in sys.modules
        import numpy as np
        import scipy.linalg, scipy.linalg.lapack
        assert _flapack() is lapack is sys.modules['scipy.linalg._flapack']
        assert scipy.linalg.lapack.zgttrf is lapack.zgttrf
        assert scipy.linalg.lapack.zgttrs is lapack.zgttrs
        x = scipy.linalg.solve_banded((1, 1), np.array([[0, 1.0], [2, 2], [1, 0]]),
                                      np.array([1.0, 2.0]))
        print(x.tolist())
    """
    assert run_python("-c", code).stdout.strip() == "[0.0, 1.0]"


@pytest.mark.parametrize("preset", [None, "3"])
def test_lapack_load_leaves_openblas_threads_as_found(preset):
    # a fresh interpreter, where the extension is not loaded yet: its OpenBLAS
    # is loaded with OPENBLAS_NUM_THREADS=1 unless the variable is set, and
    # the environment is left as it was found
    code = f"""if True:
        import importlib.machinery, os, sys
        from ptwaveguide.timeprop import _flapack
        os.environ.pop('OPENBLAS_NUM_THREADS', None)
        if {preset!r} is not None:
            os.environ['OPENBLAS_NUM_THREADS'] = {preset!r}
        seen = []
        create = importlib.machinery.ExtensionFileLoader.create_module

        def recording(self, spec):
            seen.append(f"{{spec.name}}:{{os.environ.get('OPENBLAS_NUM_THREADS')}}")
            return create(self, spec)

        importlib.machinery.ExtensionFileLoader.create_module = recording
        assert 'scipy.linalg._flapack' not in sys.modules
        _flapack()
        print(seen[0], os.environ.get('OPENBLAS_NUM_THREADS'))
    """
    during = preset or "1"
    assert run_python("-c", code).stdout.split() == [f"scipy.linalg._flapack:{during}",
                                                     str(preset)]


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="counts threads in /proc/self/task; one core starts no BLAS worker")
@pytest.mark.parametrize("preset", [None, "3"])
def test_import_loads_numpy_blas_with_one_thread_unless_set(preset):
    # a fresh interpreter: importing the CLI loads numpy, whose OpenBLAS
    # starts no worker thread unless OPENBLAS_NUM_THREADS is set, and the
    # environment is left as it was found
    code = f"""if True:
        import os
        os.environ.pop('OPENBLAS_NUM_THREADS', None)
        if {preset!r} is not None:
            os.environ['OPENBLAS_NUM_THREADS'] = {preset!r}
        import ptwaveguide.cli
        print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))
    """
    tasks, left = run_python("-c", code).stdout.split()
    assert left == str(preset)
    if preset is None:
        assert tasks == "1"
    else:
        assert int(tasks) > 1


def test_import_builds_no_render_tables():
    # the CSV renderer's tables are built on first use, not by importing the CLI
    code = ("import ptwaveguide.cli, ptwaveguide.csvtext as c; "
            "print(c._tables.cache_info().currsize)")
    assert run_python("-c", code).stdout.strip() == "0"


def test_readme_matches_parser_and_config():
    # the README's command-line synopsis names exactly each subcommand's
    # options, and its config block exactly the config keys and defaults
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```\n(.*?)```", fh.read(), re.S)
    documented: dict[str, set[str]] = {}
    for line in next(b for b in blocks if b.startswith("ptwaveguide ")).splitlines():
        if line.startswith("ptwaveguide "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z-]+", line))
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    assert documented == {name: {option for action in sub._actions
                                 for option in action.option_strings} - {"-h", "--help"}
                          for name, sub in subcommands.items()}
    listed = re.findall(r"(\w+)\s*=\s*(\S+)", next(b for b in blocks if "hbar_omega0_ev" in b))
    assert sorted(key for key, _ in listed) == sorted(CONFIG_KEYS)
    assert {key: float(value) for key, value in listed} == \
        {key: getattr(Config(), key) for key in CONFIG_KEYS}


def test_readme_reproduction_commands_parse():
    # every command of README's "Reproducing" block parses with today's parser
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Reproducing", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("ptwaveguide ")]
    assert len(commands) == 3
    for argv in commands:
        cli.build_parser().parse_args(argv)
