"""Command line contract: config resolution, exit codes, CSV schema, regeneration."""

import argparse
import errno
import math
import mmap
import shlex
import subprocess
import sys

import numpy as np
import pytest

from kinktrap import Outcome, __version__, _kernels
from kinktrap.cli import (
    _CHUNK_ROWS,
    _COMMANDS,
    ConfigError,
    _emit_csv,
    _fmt,
    build_parser,
    load_config,
    main,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def meta_value(text, key):
    """Value of a '# key = value' line, None when absent."""
    prefix = f"# {key} = "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def csv_body(text):
    lines = text.splitlines()
    i = next(j for j, line in enumerate(lines) if not line.startswith("#"))
    return lines[i], lines[i + 1:]


class TestLoadConfig:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# model\nk = 2.5\nn=3\n\nseparation = none\nscheme = RK4\nworkers = 4\n"
        )
        values = load_config(str(cfg))
        assert values == {"k": 2.5, "n": 3, "separation": None,
                          "scheme": "RK4", "workers": 4}

    def test_unknown_key_is_a_hard_error_with_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1.0\nsprng = 2.0\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*sprng"):
            load_config(str(cfg))

    def test_line_without_equals_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(str(cfg))

    def test_non_numeric_value_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = fast\n")
        with pytest.raises(ConfigError, match="expected a number"):
            load_config(str(cfg))

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))

    def test_a_key_of_another_subcommand_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1.0\nseed_delta = 1e-3\n")
        code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert err == (f"error: {cfg}:2: config key 'seed_delta' "
                       "does not apply to simulate\n")

    @pytest.mark.parametrize("command", ["sweep", "zoom"])
    def test_the_subcommands_own_keys_are_accepted(self, command, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\nv_min = 0.2\nv_max = 0.3\ndv = 0.05\n")
        assert load_config(str(cfg), command) == {
            "workers": 2, "v_min": 0.2, "v_max": 0.3, "dv": 0.05}


class TestResolution:
    def test_flags_beat_config_beats_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2.0\nbeta = 0.5\n")
        code, out, _ = run_cli(
            ["simulate", "--config", str(cfg), "--k", "3.0",
             "--A", "0", "--t-max", "20", "--record-every", "5000"],
            capsys)
        assert code == 0
        assert meta_value(out, "k") == "3.0"       # flag wins over file
        assert meta_value(out, "beta") == "0.5"    # file wins over default
        assert meta_value(out, "alpha") == "1.0"   # untouched default

    def test_center_halfwidth_set_the_grid_window(self, capsys, tmp_path):
        out_file = tmp_path / "z.csv"
        code, _, _ = run_cli(
            ["zoom", "--center", "0.12", "--halfwidth", "0.005", "--dv", "0.005",
             "--t-max", "300", "--factor", "2", "--depth", "1",
             "--out", str(out_file)],
            capsys)
        assert code == 0
        text = out_file.read_text()
        assert float(meta_value(text, "v_min")) == pytest.approx(0.115, abs=1e-15)
        assert float(meta_value(text, "v_max")) == pytest.approx(0.125, abs=1e-15)

    def test_center_without_halfwidth_is_bad_usage(self, capsys):
        code, _, err = run_cli(["sweep", "--center", "0.12"], capsys)
        assert code == 1
        assert "halfwidth" in err

    def test_unknown_scheme_in_config_is_bad_usage(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = Euler\n")
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 1
        assert "scheme" in err


class TestExitCodes:
    @pytest.mark.parametrize("argv, phrase", [
        (["simulate", "--v0", "-1"], "v0 must be positive"),
        (["sweep", "--alpha", "inf"], "alpha must be positive and finite"),
        (["sweep", "--beta", "inf"], "beta must be positive and finite"),
        (["sweep", "--k", "inf"], "k must be positive and finite"),
    ], ids=["simulate-v0", "sweep-alpha-inf", "sweep-beta-inf", "sweep-k-inf"])
    def test_invalid_physics_value_exits_one(self, argv, phrase, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {phrase}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, phrase", [
        (["sweep", "--v-min", "0.3", "--v-max", "0.3", "--t-max", "1e30",
          "--max-steps", str(2**64)], "max_steps must be a positive integer at most"),
        (["simulate", "--t-max", "1", "--record-every", str(2**64 + 1)],
         "record_every must be a positive integer at most"),
        (["simulate", "--n", str(2**63 - 2)], "n must be an integer >= 1 and at most"),
    ], ids=["sweep-max-steps", "simulate-record-every", "simulate-n"])
    def test_integer_past_int64_exits_one(self, argv, phrase, capsys):
        """The kernels take these as C int64s; a larger value must not wrap."""
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {phrase}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--launch-offset=-inf"],
        ["sweep", "--t-max", "inf"],
    ], ids=["simulate-launch-offset", "sweep-t-max"])
    def test_non_finite_launch_setting_exits_one(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("argv, field", [
        (["sweep", "--v-max", "inf"], "v_max"),
        (["sweep", "--dv", "inf"], "dv"),
        (["zoom", "--dv", "nan"], "dv"),
    ], ids=["sweep-v-max", "sweep-dv", "zoom-dv-nan"])
    def test_non_finite_grid_setting_exits_one(self, argv, field, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field} must be") and "finite" in err

    def test_oversized_grid_exits_one(self, capsys):
        code, out, err = run_cli(["sweep", "--dv", "1e-300"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: v_min..v_max = 0.05..0.3 in steps of dv = 1e-300 "
                              "gives 2.5e+299 grid points")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workers", "0"],
        ["zoom", "--workers", "-3"],
    ], ids=["sweep-zero", "zoom-negative"])
    def test_bad_worker_count_exits_one(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: workers must be a positive integer")

    @pytest.mark.parametrize("argv, phrase", [
        (["sensitivity", "--sample-interval", "inf"], "sample_interval must be positive"),
        (["sensitivity", "--dt", "1e-320"], "dt = 1e-320 is too small"),
        (["linear-compare", "--dt", "1e-320"], "dt = 1e-320 is too small"),
        (["simulate", "--dt", "1e-320"], "dt = 1e-320 is too small"),
        (["sweep", "--dt", "1e-320"], "dt = 1e-320 is too small"),
    ], ids=["sensitivity-sample-interval", "sensitivity-dt", "linear-compare-dt",
            "simulate-dt", "sweep-dt"])
    def test_overflowing_step_ratio_exits_one(self, argv, phrase, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {phrase}") and err.count("\n") == 1

    def test_unmappable_recording_exits_one(self, monkeypatch, capsys):
        """A recording too large to map is a usage error; mmap is faked, so
        nothing is mapped or run."""
        def no_memory(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", no_memory)
        code, out, err = run_cli(["simulate", "--t-max", "1e12", "--max-steps",
                                  "100000000000000", "--record-every", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot map a recording of 100000000000001 rows "
                              "at record_every = 1") and err.count("\n") == 1

    def test_no_well_linear_compare_exits_two(self, capsys):
        code, _, err = run_cli(["linear-compare", "--A", "0"], capsys)
        assert code == 2
        assert "no attractive well" in err

    def test_exhausted_step_budget_exits_two(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--max-steps", "100", "--record-every", "10"], capsys)
        assert code == 2
        assert "budget" in err

    def test_too_short_probe_run_exits_two(self, capsys):
        code, _, err = run_cli(["linear-compare", "--t-max", "0.5"], capsys)
        assert code == 2
        assert "crossings" in err

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--turbo"])
        assert exc.value.code == 1

    def test_no_arguments_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


@pytest.fixture(scope="module")
def sim_text(tmp_path_factory):
    # free pair crosses the 20 length units at t = 200, inside the horizon
    out = tmp_path_factory.mktemp("csv") / "sim.csv"
    code = main(["simulate", "--A", "0", "--t-max", "250",
                 "--record-every", "5000", "--out", str(out)])
    assert code == 0
    return out.read_text()


class TestCsvSchema:
    def test_version_and_command_lead_the_file(self, sim_text):
        lines = sim_text.splitlines()
        assert lines[0] == f"# kinktrap-version {__version__}"
        assert lines[1].startswith("# command = kinktrap simulate ")

    def test_echo_omits_output_only_flags(self, sim_text):
        command = sim_text.splitlines()[1]
        assert "--out" not in command
        assert "--workers" not in command

    def test_settings_lines_cover_the_whole_scenario(self, sim_text):
        for key in ("k", "alpha", "n", "A", "beta", "v0", "launch_offset",
                    "separation", "t_max", "exit_radius", "dt", "scheme",
                    "record_every", "max_steps"):
            assert meta_value(sim_text, key) is not None, key
        assert meta_value(sim_text, "separation") == "none"
        assert meta_value(sim_text, "scheme") == "VelocityVerlet"

    def test_result_metadata_is_present(self, sim_text):
        assert meta_value(sim_text, "outcome") == "Transmitted"
        assert float(meta_value(sim_text, "v_final")) == pytest.approx(0.1, abs=1e-10)
        assert float(meta_value(sim_text, "t_end")) > 0.0
        assert int(meta_value(sim_text, "steps")) > 0

    def test_rows_are_round_trip_floats(self, sim_text):
        header, rows = csv_body(sim_text)
        assert header == "t,x1,x2,v1,v2,R,r,E"
        assert rows
        for row in rows:
            cells = row.split(",")
            assert len(cells) == 8
            values = [float(c) for c in cells]
            assert values[5] == pytest.approx(0.5 * (values[1] + values[2]), rel=1e-12)

    def test_energy_column_reproduces_the_reported_drift(self, tmp_path, capsys):
        """With every step recorded, max|E - E[0]|/|E[0]| over the E column is
        the header's energy_drift to the last bit."""
        out = tmp_path / "dense.csv"
        code, _, _ = run_cli(
            ["simulate", "--v0", "0.3", "--record-every", "1", "--out", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        _, rows = csv_body(text)
        energy = [float(row.rsplit(",", 1)[1]) for row in rows]
        drift = max(abs(e - energy[0]) for e in energy) / abs(energy[0])
        assert drift == float(meta_value(text, "energy_drift"))

    def test_stdout_is_the_default_sink(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--A", "0", "--t-max", "20", "--record-every", "5000"],
            capsys)
        assert code == 0
        assert out.startswith("# kinktrap-version")


@pytest.fixture
def format_calls(monkeypatch):
    """The (start, stop) of every _kernels.format_rows call the writer makes;
    the calls reach the C copy where gcc built it."""
    calls = []
    real = _kernels.format_rows
    assert hasattr(real, "py_func") == (_kernels.BACKEND == "c")

    def spy(columns, start, stop):
        calls.append((start, stop))
        return real(columns, start, stop)

    monkeypatch.setattr(_kernels, "format_rows", spy)
    return calls


class TestCsvWriter:
    """The writer streams the body in chunks, a body of float64 arrays only
    through _kernels.format_rows and any other column by column; its bytes
    must be those of _fmt on every cell, row by row."""

    @staticmethod
    def written_and_expected(tmp_path, columns):
        header = [f"c{i}" for i in range(len(columns))]
        out = tmp_path / "w.csv"
        _emit_csv(str(out), "simulate", {"v0": 0.1}, ["v0"], {"rows": len(columns[0])},
                  header, columns)
        expected = "".join(
            [f"# kinktrap-version {__version__}\n",
             "# command = kinktrap simulate --v0 0.1\n",
             "# v0 = 0.1\n",
             f"# rows = {len(columns[0])}\n",
             ",".join(header) + "\n"]
            + [",".join(_fmt(cell) for cell in row) + "\n" for row in zip(*columns)])
        return out.read_bytes(), expected.encode()

    def test_float_array_edge_values(self, tmp_path, format_calls):
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05, 1e16, 0.1]
        column = np.array(values)
        written, expected = self.written_and_expected(tmp_path, (column, column[::-1]))
        assert written == expected
        assert b"\nnan,0.1\n" in written and b"\n-0.0,5e-324\n" in written
        assert format_calls == [(0, len(values))]

    def test_float_bodies_are_written_by_format_rows(self, tmp_path, format_calls):
        """Float64 arrays only, a reversed and a strided view among them, over
        two chunks: format_rows writes each chunk, in C where gcc built it."""
        rng = np.random.default_rng(3)
        rows = _CHUNK_ROWS + 5
        grid = rng.standard_normal((rows, 3)) * np.array([1.0, 1e-300, 1e300])
        column = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
        columns = (column, column[::-1], grid[:, 1], np.arange(rows, dtype=np.float64))
        assert not (columns[1].flags.c_contiguous or columns[2].flags.c_contiguous)
        written, expected = self.written_and_expected(tmp_path, columns)
        assert written == expected
        assert format_calls == [(0, _CHUNK_ROWS), (_CHUNK_ROWS, rows)]

    def test_columns_that_are_not_float_arrays(self, tmp_path, format_calls):
        columns = (
            [0.1, -0.0, math.inf, 1e16, 2.5],
            [0, -3, 2**70, 7, 1],
            list(Outcome)[:4] + [Outcome.TRAPPED],
            [None] * 5,
            ["omega_cm", "a b", "", "x", "y"],
            np.arange(5, dtype=np.int64),
            np.array([True, False, True, True, False]),
        )
        written, expected = self.written_and_expected(tmp_path, columns)
        assert written == expected
        assert b"\n0.1,0,Transmitted,none,omega_cm,0,true\n" in written
        assert format_calls == []

    @pytest.mark.parametrize("rows", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1],
                             ids=["empty", "one", "chunk-1", "chunk", "chunk+1"])
    def test_chunk_boundaries(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        columns = (list(range(rows)), rng.standard_normal(rows),
                   rng.standard_normal(rows) * 1e-300)
        written, expected = self.written_and_expected(tmp_path, columns)
        assert written == expected
        assert written.count(b"\n") == 5 + rows

    def test_stdout_and_out_get_the_same_bytes(self, tmp_path, capsys):
        argv = ["simulate", "--A", "0", "--t-max", "20", "--record-every", "1"]
        out = tmp_path / "sim.csv"
        code, text, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert (code, text) == (0, "")
        code, text, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(csv_body(text)[1]) > 2 * _CHUNK_ROWS
        assert text.encode() == out.read_bytes()

    def test_a_failed_run_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(["simulate", "--max-steps", "100", "--record-every", "10",
                                "--out", str(out)], capsys)
        assert code == 2 and "budget" in err
        assert not out.exists()


# One quick run per subcommand, for the regeneration tests.
REGENERATION_RUNS = {
    "simulate": ["simulate", "--v0", "0.27", "--t-max", "200", "--record-every", "100"],
    "sweep": ["sweep", "--v-min", "0.1", "--v-max", "0.14", "--dv", "0.02",
              "--launch-offset=-8", "--exit-radius", "8", "--t-max", "200"],
    "zoom": ["zoom", "--center", "0.12", "--halfwidth", "0.005", "--dv", "0.005",
             "--t-max", "300", "--factor", "2"],
    "sensitivity": ["sensitivity", "--v0", "0.056", "--t-max", "100",
                    "--seed-delta", "1e-8", "--sample-interval", "0.5"],
    "linear-compare": ["linear-compare", "--t-max", "120", "--scheme", "RK4"],
}


class TestRegeneration:
    @staticmethod
    def first_run(tmp_path, argv):
        first = tmp_path / "a.csv"
        assert main(argv + ["--out", str(first)]) == 0
        return first

    @pytest.mark.parametrize("argv", REGENERATION_RUNS.values(), ids=REGENERATION_RUNS)
    def test_echoed_command_reproduces_the_file_byte_for_byte(self, argv, tmp_path, capsys):
        first = self.first_run(tmp_path, argv)
        command = first.read_text().splitlines()[1]
        argv = shlex.split(command.removeprefix("# command = "))
        assert argv[0] == "kinktrap"
        second = tmp_path / "b.csv"
        code = main(argv[1:] + ["--out", str(second)])
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("argv", REGENERATION_RUNS.values(), ids=REGENERATION_RUNS)
    def test_settings_block_is_a_config_file(self, argv, tmp_path, capsys):
        """The '# key = value' lines of the echoed settings, uncommented, make
        a config file that reproduces the file byte for byte."""
        first = self.first_run(tmp_path, argv)
        echo_keys = _COMMANDS[argv[0]][2]
        block = first.read_text().splitlines()[2:2 + len(echo_keys)]
        assert [line.split(" = ")[0] for line in block] == [f"# {key}" for key in echo_keys]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(line.removeprefix("# ") + "\n" for line in block))
        second = tmp_path / "b.csv"
        assert main([argv[0], "--config", str(cfg), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_leaves_the_bytes_alone(self, tmp_path, capsys):
        outs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}.csv"
            code, _, _ = run_cli(
                ["sweep", "--v-min", "0.1", "--v-max", "0.14", "--dv", "0.02",
                 "--t-max", "200", "--workers", workers, "--out", str(out)],
                capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestParser:
    @pytest.mark.parametrize("command", _COMMANDS)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: kinktrap {command} ")

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_every_flag_but_the_output_only_ones_is_echoed(self, command):
        """A subcommand takes a flag for each setting its CSV echoes, plus
        --config and --out; sweep and zoom also take --center, --halfwidth
        (echoed as v_min and v_max) and --workers (which changes no byte)."""
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        parser = sub.choices[command]
        flags = {opt for action in parser._actions for opt in action.option_strings}
        expected = {"--" + key.replace("_", "-") for key in _COMMANDS[command][2]}
        expected |= {"-h", "--help", "--config", "--out"}
        if command in ("sweep", "zoom"):
            expected |= {"--center", "--halfwidth", "--workers"}
        assert flags == expected


class TestSweepAndZoomOutput:
    def test_sweep_counts_add_up(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(
            ["sweep", "--v-min", "0.1", "--v-max", "0.3", "--dv", "0.05",
             "--t-max", "300", "--out", str(out)],
            capsys)
        assert code == 0
        text = out.read_text()
        header, rows = csv_body(text)
        assert header == "v0,outcome,v_final,t_end,energy_drift,steps"
        points = int(meta_value(text, "points"))
        assert points == len(rows) == 5
        counted = sum(int(meta_value(text, k)) for k in
                      ("transmitted", "reflected", "trapped", "error"))
        assert counted == points

    def test_zoom_rows_are_sorted_and_tagged_by_depth(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        code, _, _ = run_cli(
            ["zoom", "--v-min", "0.256", "--v-max", "0.26", "--dv", "0.002",
             "--factor", "2", "--depth", "2", "--out", str(out)],
            capsys)
        assert code == 0
        text = out.read_text()
        header, rows = csv_body(text)
        assert header == "depth,v0,outcome,v_final,t_end,energy_drift,steps"
        keys = []
        for row in rows:
            cells = row.split(",")
            keys.append((int(cells[0]), float(cells[1])))
        assert keys == sorted(keys)
        assert {k[0] for k in keys} >= {0, 1}
        assert int(meta_value(text, "rows")) == len(rows)


class TestSensitivityOutput:
    def test_degenerate_run_reports_no_exponent(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run_cli(
            ["sensitivity", "--A", "0", "--t-max", "50", "--out", str(out)],
            capsys)
        assert code == 0
        text = out.read_text()
        assert meta_value(text, "metric") == "euclidean(x1, x2, v1, v2)"
        assert meta_value(text, "degenerate") == "true"
        assert meta_value(text, "lambda") == "none"
        assert meta_value(text, "window_start") == "none"
        assert meta_value(text, "t_first_unit") == "none"
        header, rows = csv_body(text)
        assert header == "t,d"
        assert len(rows) == 51  # head sample plus one per time unit

    def test_chaotic_run_reports_the_fit(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(
            ["sensitivity", "--v0", "0.056", "--t-max", "400", "--out", str(out)],
            capsys)
        assert code == 0
        text = out.read_text()
        assert meta_value(text, "degenerate") == "false"
        lam = float(meta_value(text, "lambda"))
        assert 0.01 < lam < 0.2
        assert float(meta_value(text, "window_start")) < float(meta_value(text, "window_end"))


class TestLinearCompareOutput:
    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "lc.csv"
        code, stdout, _ = run_cli(
            ["linear-compare", "--t-max", "120", "--out", str(out)], capsys)
        assert code == 0
        for token in ("free equilibrium separation", "in-well equilibrium separation",
                      "omega_cm", "omega_relative", "stretch_center"):
            assert token in stdout
        text = out.read_text()
        header, rows = csv_body(text)
        assert header == "quantity,measured,r_eq_r0,r_eq_half_r0"
        assert [row.split(",")[0] for row in rows] == \
               ["omega_cm", "omega_relative", "stretch_center"]
        assert float(meta_value(text, "s_in")) == pytest.approx(0.9359141408358356, abs=1e-12)
        # the closed-form stretch centers under the two r_eq readings
        centers = rows[2].split(",")
        assert float(centers[2]) == pytest.approx(0.800148253899938, abs=1e-9)
        assert float(centers[3]) == pytest.approx(0.24730046779071785, abs=1e-9)


class TestModuleEntryPoint:
    def test_python_dash_m_reports_the_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kinktrap", "--version"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"kinktrap {__version__} (kernel: {_kernels.BACKEND})"

    def test_a_closed_pipe_exits_quietly(self):
        """A reader that stops after one line: the CSV (about 3 MB, well over
        a pipe's buffer) meets a closed pipe, and the run exits 141 with
        nothing on stderr but the kernel line a fallback prints."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "kinktrap", "simulate", "--A", "0", "--t-max", "20",
             "--record-every", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"# kinktrap-version")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
        lines = err.splitlines()
        if _kernels.BACKEND == "python":
            lines = [line for line in lines if "Python reference" not in line]
        assert lines == []


# Runs in a fresh interpreter: a sweep on one and two workers and a zoom,
# whose CSVs go to argv[2]-*.csv, then --version; prints whether numpy was
# loaded.  With argv[1] == "numpy-first" it imports numpy before anything.
NUMPY_FREE_RUNS = """
import contextlib, io, sys
if sys.argv[1] == "numpy-first":
    import numpy
from kinktrap.cli import main
grid = ["--v-min", "0.2", "--v-max", "0.3", "--dv", "0.05", "--launch-offset=-4",
        "--exit-radius", "4", "--t-max", "60"]
prefix = sys.argv[2]
for workers in ("1", "2"):
    assert main(["sweep", *grid, "--workers", workers, "--out", f"{prefix}-w{workers}.csv"]) == 0
assert main(["zoom", *grid, "--factor", "2", "--depth", "1", "--out", f"{prefix}-zoom.csv"]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0
print("numpy" in sys.modules)
"""


class TestNumpyFree:
    def test_sweep_zoom_and_version_never_load_numpy(self, tmp_path):
        """The same runs write the same bytes whether or not numpy was
        imported first."""
        loaded = {}
        for mode in ("numpy-free", "numpy-first"):
            proc = subprocess.run(
                [sys.executable, "-c", NUMPY_FREE_RUNS, mode, str(tmp_path / mode)],
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            loaded[mode] = proc.stdout.strip()
        assert loaded == {"numpy-free": "False", "numpy-first": "True"}
        for name in ("w1", "w2", "zoom"):
            free = (tmp_path / f"numpy-free-{name}.csv").read_bytes()
            assert free == (tmp_path / f"numpy-first-{name}.csv").read_bytes(), name
        assert (tmp_path / "numpy-free-w1.csv").read_bytes() == \
            (tmp_path / "numpy-free-w2.csv").read_bytes()
