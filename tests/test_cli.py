"""Command line contract: config resolution, exit codes, CSV schema, regeneration."""

import argparse
import contextlib
import errno
import hashlib
import importlib
import io
import math
import mmap
import re
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from kinktrap import Outcome, Scheme, __version__, _kernels, cli
from kinktrap.cli import (
    _CHUNK_BYTES,
    _COMMANDS,
    ConfigError,
    _chunk_rows,
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


def flags_of(command):
    """The option strings of a subcommand's parser."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {opt for action in sub.choices[command]._actions for opt in action.option_strings}


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
        values = load_config(str(cfg), "sweep")
        assert values == {"k": 2.5, "n": 3, "separation": None,
                          "scheme": Scheme.RK4, "workers": 4}

    def test_unknown_key_is_a_hard_error_with_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1.0\nsprng = 2.0\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*sprng"):
            load_config(str(cfg), "sweep")

    def test_a_repeated_key_is_a_hard_error_with_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2.0\nn = 3\nk = 3.0\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: config key 'k' is given twice"):
            load_config(str(cfg), "sweep")

    def test_line_without_equals_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(str(cfg), "sweep")

    def test_non_numeric_value_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = fast\n")
        with pytest.raises(ConfigError) as exc:
            load_config(str(cfg), "sweep")
        assert str(exc.value) == f"{cfg}:1: config key 'k': expected a number, got 'fast'"

    @pytest.mark.parametrize("line, expected", [
        ("separation = fast", "a number or none"),
        ("n = 2.5", "an integer"),
    ], ids=["float-or-none", "int"])
    def test_a_bad_value_names_its_line_key_and_kind(self, line, expected, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dv = 0.01\n{line}\n")
        key, _, raw = line.partition(" = ")
        with pytest.raises(ConfigError) as exc:
            load_config(str(cfg), "sweep")
        assert str(exc.value) == (f"{cfg}:2: config key {key!r}: "
                                  f"expected {expected}, got {raw!r}")

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"), "sweep")

    def test_a_key_of_another_subcommand_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1.0\nseed_delta = 1e-3\n")
        code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert err == (f"error: {cfg}:2: config key 'seed_delta' "
                       "does not apply to simulate\n")

    @pytest.mark.parametrize("command", ["sweep"])
    def test_the_subcommands_own_keys_are_accepted(self, command, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\nv_min = 0.2\nv_max = 0.3\ndv = 0.05\n")
        assert load_config(str(cfg), command) == {
            "workers": 2, "v_min": 0.2, "v_max": 0.3, "dv": 0.05}

    @pytest.mark.parametrize("key", ["factor", "depth"])
    def test_a_refinement_key_is_unknown(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2\n")
        code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {cfg}:1: unknown config key {key!r}\n"


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

    def test_a_flags_none_beats_a_configs_number(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("separation = 1.5\n")
        args = build_parser().parse_args(
            ["simulate", "--config", str(cfg), "--separation", "none"])
        assert cli._resolve(args)["separation"] is None

    def test_a_separation_of_none_is_the_default(self, tmp_path, capsys):
        """--separation none, the text the settings block echoes for the
        default, runs the default's bytes."""
        outs = []
        for extra in ([], ["--separation", "none"]):
            out = tmp_path / f"sim{len(extra)}.csv"
            assert main(["simulate", "--A", "0", "--t-max", "20", "--record-every", "5000",
                         *extra, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_scheme_in_config_is_bad_usage(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = Euler\n")
        code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: {cfg}:1: config key 'scheme': "
                       "expected VelocityVerlet or RK4, got 'Euler'\n")

    def test_an_unknown_scheme_flag_is_bad_usage_naming_both(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scheme", "Euler"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "kinktrap simulate: error: argument --scheme: "
            "expected VelocityVerlet or RK4, got 'Euler'")

    def test_the_help_names_both_schemes(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if line.lstrip().startswith("--scheme")]
        assert line.split() == ["--scheme", "SCHEME", "integrator:", "VelocityVerlet",
                                "or", "RK4"]

    def test_a_non_numeric_flag_names_its_type(self, capsys):
        for flag, kind in [("--k", "float"), ("--separation", "float"), ("--n", "int")]:
            with pytest.raises(SystemExit) as exc:
                main(["simulate", flag, "fast"])
            assert exc.value.code == 1
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"kinktrap simulate: error: argument {flag}: invalid {kind} value: 'fast'")


# Values of each kind whose echoed text a flag and a config line must read
# back alike: a negative float, which the echo glues to its flag with '=',
# an int, separation's none and each scheme by name.
READINGS = {
    "float": [0.25, -12.5, 1e-07],
    "int": [7],
    "float | None": [None, 1.25],
    "Scheme": list(Scheme),
    "str": ["run.csv"],
}


class TestOneReading:
    @pytest.mark.parametrize("command", _COMMANDS)
    def test_a_flag_and_a_config_line_read_the_echoed_text_alike(self, command, tmp_path):
        """For every setting the subcommand takes, the text _fmt echoes for
        a value resolves to that value, of its type, as a flag and as a
        config line."""
        cfg = tmp_path / "run.cfg"
        for key in cli._flags_of(command):
            for value in READINGS[cli._SETTINGS[key].kind]:
                text = _fmt(value)
                flag = "--" + key.replace("_", "-")
                argv = [f"{flag}={text}"] if text.startswith("-") else [flag, text]
                from_flag = cli._resolve(build_parser().parse_args([command, *argv]))[key]
                cfg.write_text(f"{key} = {text}\n")
                from_config = load_config(str(cfg), command)[key]
                assert [from_flag, type(from_flag)] == [value, type(value)], (key, text)
                assert [from_config, type(from_config)] == [value, type(value)], (key, text)


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
        (["sweep", "--dv", "nan"], "dv"),
    ], ids=["sweep-v-max", "sweep-dv", "sweep-dv-nan"])
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
        ["sweep", "--workers", "-3"],
    ], ids=["sweep-zero", "sweep-negative"])
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

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_an_out_that_cannot_be_written_exits_one(self, where, tmp_path, capsys):
        out = tmp_path / "absent" / "x.csv" if where == "missing-directory" else tmp_path
        code, text, err = run_cli(["simulate", "--t-max", "1", "--out", str(out)], capsys)
        assert (code, text) == (1, "")
        assert err.startswith("error: [Errno ") and err.endswith(f"{str(out)!r}\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, work", [
        ("simulate", "run_scattering"), ("sweep", "sweep"),
        ("sensitivity", "sensitivity"), ("linear-compare", "measured_frequency"),
    ])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_an_out_that_cannot_be_written_fails_before_the_run(
            self, command, work, where, monkeypatch, tmp_path, capsys):
        """The subcommand's work function is never called."""
        def no_run(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(cli, work, no_run)
        out = tmp_path / "absent" / "x.csv" if where == "missing-directory" else tmp_path
        code, text, err = run_cli([command, "--out", str(out)], capsys)
        assert (code, text) == (1, "")
        assert err.startswith("error: [Errno ") and err.endswith(f"{str(out)!r}\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, work", [
        ("simulate", "integrate"), ("sweep", "_classify_point"),
    ])
    def test_a_launch_inside_the_exit_radius_exits_one_before_the_run(
            self, command, work, monkeypatch, capsys):
        """The subcommands that test the exit refuse a launch point inside
        the exit radius; sweep before any point runs."""
        module = importlib.import_module(
            "kinktrap.scattering" if command == "simulate" else "kinktrap.sweep")

        def no_run(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(module, work, no_run)
        code, out, err = run_cli([command, "--launch-offset=-5"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: exit_radius (10.0) must not exceed |launch_offset| (5.0); "
                       "otherwise the launch point is already outside\n")

    def test_sensitivity_runs_from_inside_the_exit_radius(self, capsys):
        """sensitivity has no exit test and no --exit-radius flag, so the
        exit radius cannot veto its launch point."""
        code, out, err = run_cli(["sensitivity", "--launch-offset=-5", "--t-max", "20"], capsys)
        assert (code, err) == (0, "")
        assert meta_value(out, "launch_offset") == "-5.0"
        assert len(csv_body(out)[1]) == 21

    def test_no_well_linear_compare_exits_two(self, capsys):
        code, _, err = run_cli(["linear-compare", "--A", "0"], capsys)
        assert code == 2
        assert "no attractive well" in err

    def test_overflowing_run_exits_two(self, capsys):
        code, out, err = run_cli(["simulate", "--A", "1e300", "--t-max", "10"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: the state is not finite after 10000 steps")
        assert err.count("\n") == 1

    def test_huge_exponent_exits_one_at_once(self):
        """An n the kernels would loop over for hours is refused before a
        step runs."""
        proc = subprocess.run(
            [sys.executable, "-m", "kinktrap", "simulate", "--n", "9223372036854775805",
             "--t-max", "1"], capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "error: n must be an integer >= 1 and at most 24" in proc.stderr

    def test_exhausted_step_budget_exits_two(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--max-steps", "100", "--record-every", "10"], capsys)
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("t_max", ["-5", "0"])
    def test_probe_run_that_cannot_start_exits_one(self, t_max, capsys):
        code, out, err = run_cli(["linear-compare", "--t-max", t_max], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: t_max must be after the start time") and err.count("\n") == 1

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

    def test_a_stdout_without_a_byte_stream_exits_one_before_the_run(
            self, monkeypatch, capsys):
        """A text-only stdout put in place in-process cannot take the CSV's
        bytes: one error line, exit 1, and the run never starts."""
        def no_run(*args, **kwargs):
            raise AssertionError("run_scattering ran")

        monkeypatch.setattr(cli, "run_scattering", no_run)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(["simulate", "--A", "0", "--t-max", "1", "--record-every", "100"])
        err = capsys.readouterr().err
        assert (code, text.getvalue()) == (1, "")
        assert err.startswith("error: stdout has no byte stream") and err.count("\n") == 1

    def test_linear_compare_prints_its_table_to_a_text_only_stdout(self):
        """Without --out it writes no CSV, so such a stdout is enough."""
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(["linear-compare", "--t-max", "120"]) == 0
        assert text.getvalue().startswith("free equilibrium separation")


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


def _about_one_chunk(chunk):
    """Body row counts about one chunk of chunk rows."""
    return [0, 1, chunk - 1, chunk, chunk + 1]


ABOUT_ONE_CHUNK = ["empty", "one", "chunk-1", "chunk", "chunk+1"]


class TestCsvWriter:
    """The writer streams the body in chunks, a body of contiguous float64
    arrays only through _kernels.format_rows and any other cell by cell; its
    bytes must be those of _fmt on every cell, row by row."""

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
        written, expected = self.written_and_expected(tmp_path, (column, column[::-1].copy()))
        assert written == expected
        assert b"\nnan,0.1\n" in written and b"\n-0.0,5e-324\n" in written
        assert format_calls == [(0, len(values))]

    @staticmethod
    def float_columns(rows):
        """Random bit patterns and a reversed view of them, a strided view of
        values near both ends of the exponent range, and counting numbers."""
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((rows, 3)) * np.array([1.0, 1e-300, 1e300])
        column = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
        return column, column[::-1], grid[:, 1], np.arange(rows, dtype=np.float64)

    def test_float_bodies_are_written_by_format_rows(self, tmp_path, format_calls):
        """Contiguous float64 arrays only, over two chunks: format_rows
        writes each chunk, in C where gcc built it."""
        chunk = _chunk_rows(4)
        rows = chunk + 5
        columns = tuple(np.ascontiguousarray(c) for c in self.float_columns(rows))
        written, expected = self.written_and_expected(tmp_path, columns)
        assert written == expected
        assert format_calls == [(0, chunk), (chunk, rows)]

    def test_strided_float_columns_are_written_cell_by_cell(self, tmp_path, format_calls):
        """A reversed and a strided float64 view among the columns: the body
        goes through _fmt, with the bytes format_rows gives the same values."""
        chunk = _chunk_rows(4)
        rows = chunk + 5
        columns = self.float_columns(rows)
        assert not (columns[1].flags.c_contiguous or columns[2].flags.c_contiguous)
        written, expected = self.written_and_expected(tmp_path, columns)
        assert written == expected
        assert format_calls == []
        contiguous = tuple(np.ascontiguousarray(c) for c in columns)
        assert written == self.written_and_expected(tmp_path, contiguous)[0]
        assert format_calls == [(0, chunk), (chunk, rows)]

    @pytest.mark.parametrize("ncols", [2, 8])
    def test_no_chunk_can_outgrow_the_text_budget(self, tmp_path, format_calls, ncols):
        """Every format_rows call gets as many rows as the longest possible
        text of a row fits in _CHUNK_BYTES, and no more, except the last;
        the calls cover the body once, in order."""
        row_bytes = _kernels._CELL_BYTES * ncols
        rows = 2 * (_CHUNK_BYTES // row_bytes) + 3
        columns = tuple(np.random.default_rng(ncols).standard_normal((ncols, rows)))
        written, expected = self.written_and_expected(tmp_path, columns)
        assert written == expected
        starts, stops = zip(*format_calls)
        assert starts == (0, *stops[:-1]) and stops[-1] == rows
        for start, stop in format_calls:
            assert (stop - start) * row_bytes <= _CHUNK_BYTES
        for start, stop in format_calls[:-1]:
            assert (stop - start + 1) * row_bytes > _CHUNK_BYTES

    def test_columns_that_are_not_float_arrays(self, tmp_path, format_calls):
        columns = (
            [0.1, -0.0, math.inf, 1e16, 2.5],
            [0, -3, 2**70, 7, 1],
            list(Outcome)[:4] + [Outcome.TRAPPED],
            [None] * 5,
            ["omega_cm", "a b", "", "x", "y"],
        )
        written, expected = self.written_and_expected(tmp_path, columns)
        assert written == expected
        assert b"\n0.1,0,Transmitted,none,omega_cm\n" in written
        assert format_calls == []

    @staticmethod
    def through_stdout(capsys, columns):
        """What _emit_csv writes to stdout for the body columns of
        written_and_expected."""
        header = [f"c{i}" for i in range(len(columns))]
        _emit_csv(None, "simulate", {"v0": 0.1}, ["v0"], {"rows": len(columns[0])},
                  header, columns)
        return capsys.readouterr().out.encode()

    @pytest.mark.parametrize("rows", _about_one_chunk(_chunk_rows(3)), ids=ABOUT_ONE_CHUNK)
    def test_chunk_boundaries(self, tmp_path, capsys, rows):
        rng = np.random.default_rng(rows)
        columns = (list(range(rows)), rng.standard_normal(rows),
                   rng.standard_normal(rows) * 1e-300)
        written, expected = self.written_and_expected(tmp_path, columns)
        assert written == expected
        assert written.count(b"\n") == 5 + rows
        assert self.through_stdout(capsys, columns) == written

    @pytest.mark.parametrize("rows", _about_one_chunk(_chunk_rows(8)), ids=ABOUT_ONE_CHUNK)
    def test_float_chunk_boundaries(self, tmp_path, capsys, format_calls, rows):
        """Eight float64 columns, simulate's width, through --out and
        through stdout: the same bytes, _fmt's, in one or two chunks."""
        columns = tuple(np.random.default_rng(rows).standard_normal((8, rows)))
        written, expected = self.written_and_expected(tmp_path, columns)
        assert written == expected
        assert self.through_stdout(capsys, columns) == written
        assert len(format_calls) == 2 * -(-rows // _chunk_rows(8))

    # Per run: its arguments and a line its CSV holds.  simulate's body is
    # more than two chunks of format_rows bytes, sensitivity's is format_rows
    # bytes under metadata that reads none, and the sweep's goes through _fmt.
    STDOUT_RUNS = {
        "simulate": (["simulate", "--A", "0", "--t-max", "20", "--record-every", "1"],
                     "# steps = 20000"),
        "sensitivity": (["sensitivity", "--A", "0", "--t-max", "20"], "# lambda = none"),
        "sweep": (["sweep", "--v-min", "0.2", "--v-max", "0.3", "--dv", "0.05",
                   "--launch-offset=-4", "--exit-radius", "4", "--t-max", "60",
                   "--workers", "1"], "# points = 3"),
    }

    @pytest.mark.parametrize("name", STDOUT_RUNS)
    def test_stdout_and_out_get_the_same_bytes(self, tmp_path, capsys, name):
        argv, line = self.STDOUT_RUNS[name]
        out = tmp_path / "run.csv"
        code, text, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert (code, text) == (0, "")
        code, text, _ = run_cli(argv, capsys)
        assert code == 0
        assert line in text.splitlines()
        if name == "simulate":
            assert len(csv_body(text)[1]) > 2 * _chunk_rows(8)
        assert text.encode() == out.read_bytes()

    def test_a_failed_run_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(["simulate", "--max-steps", "100", "--record-every", "10",
                                "--out", str(out)], capsys)
        assert code == 2 and "budget" in err
        assert not out.exists()


# The call sites that the benchmark's traced runs wrap, each by its name in
# the calling module (perfbench/run.py, install), and per run the calls each
# site sees (EXPECTED_SPANS there).  A name that its caller comes to import
# inside a function, or that a subcommand stops calling, breaks those runs.
SEAM_SITES = [("cli", "sweep"), ("cli", "sensitivity"), ("cli", "run_scattering"),
              ("sweep", "run_scattering"), ("sweep", "integrate"),
              ("scattering", "integrate"), ("_kernels", "_run_verlet"),
              ("_kernels", "_run_rk4")]

SEAM_RUNS = {
    "simulate": (["simulate", "--v0", "0.3", "--t-max", "40", "--record-every", "100"],
                 {"cli.run_scattering": 1, "scattering.integrate": 1,
                  "_kernels._run_verlet": 1}),
    "sensitivity": (["sensitivity", "--v0", "0.056", "--t-max", "50"],
                    {"cli.sensitivity": 1, "sweep.integrate": 2, "_kernels._run_verlet": 2}),
    "sweep": (["sweep", "--v-min", "0.2", "--v-max", "0.3", "--dv", "0.05",
               "--launch-offset=-4", "--exit-radius", "4", "--t-max", "60", "--workers", "1"],
              {"cli.sweep": 1, "sweep.run_scattering": 3, "scattering.integrate": 3,
               "_kernels._run_verlet": 3}),
}


class TestBenchmarkSeams:
    @staticmethod
    def counting(name, original, calls, steps):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            result = original(*args, **kwargs)
            if name.startswith("_kernels."):
                steps.append(result[1])  # a runner returns (status, steps, ...)
            return result

        return wrapper

    @pytest.mark.parametrize("name", SEAM_RUNS)
    def test_the_benchmark_call_sites_see_each_run(self, name, tmp_path, monkeypatch):
        """Wrapped by name as the benchmark wraps them, the sites see the
        calls it expects, and the runners' steps add up to the CSV's."""
        assert _kernels.NUMBA_ENABLED is False  # the benchmark reads it
        calls, steps = {}, []
        for module, attr in SEAM_SITES:
            mod = importlib.import_module(f"kinktrap.{module}")
            wrapper = self.counting(f"{module}.{attr}", getattr(mod, attr), calls, steps)
            monkeypatch.setattr(mod, attr, wrapper)
        argv, expected = SEAM_RUNS[name]
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert calls == expected
        text = out.read_text()
        if name == "simulate":
            total = int(meta_value(text, "steps"))
        elif name == "sweep":
            header, rows = csv_body(text)
            column = header.split(",").index("steps")
            total = sum(int(row.split(",")[column]) for row in rows)
        else:
            total = 2 * round(float(meta_value(text, "t_max")) / float(meta_value(text, "dt")))
        assert sum(steps) == total > 0


# One quick run per subcommand, for the regeneration tests.
REGENERATION_RUNS = {
    "simulate": ["simulate", "--v0", "0.27", "--t-max", "200", "--record-every", "100"],
    "sweep": ["sweep", "--v-min", "0.1", "--v-max", "0.14", "--dv", "0.02",
              "--launch-offset=-8", "--exit-radius", "8", "--t-max", "200"],
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

    def test_zoom_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zoom"])
        assert exc.value.code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: kinktrap ")
        assert lines[-1].startswith("kinktrap: error: argument command: invalid choice: 'zoom'")

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_every_flag_but_the_output_only_ones_is_echoed(self, command):
        """A subcommand takes a flag for each setting its CSV echoes, plus
        --config and --out; sweep also takes --workers (which changes no
        byte)."""
        flags = flags_of(command)
        expected = {"--" + key.replace("_", "-") for key in _COMMANDS[command][2]}
        expected |= {"-h", "--help", "--config", "--out"}
        if command == "sweep":
            expected |= {"--workers"}
        assert flags == expected


NUMBER_WORDS = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"]


class TestReadme:
    @staticmethod
    def command_line():
        """The "Command line" section of the README, up to the next section."""
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        return text.split("\n## Command line\n")[1].split("\n## ")[0]

    def test_the_subcommands_are_those_of_the_parser(self):
        """The count in 'One executable, N subcommands' and the subcommands
        of the examples, in order of first use."""
        section = self.command_line()
        [word] = re.findall(r"One executable, (\w+) subcommands", section)
        assert NUMBER_WORDS.index(word) == len(_COMMANDS)
        examples = re.findall(r"^    kinktrap ([\w-]+)", section, re.M)
        assert list(dict.fromkeys(examples)) == list(_COMMANDS)

    def test_the_example_flags_are_flags_of_their_subcommand(self):
        """Every --flag on an example command line is one its subcommand takes."""
        examples = re.findall(r"^    kinktrap ([\w-]+)(.*)$", self.command_line(), re.M)
        assert examples
        for command, rest in examples:
            used = set(re.findall(r"--[\w-]+", rest))
            assert used <= flags_of(command), (command, sorted(used - flags_of(command)))

    def test_the_config_keys_are_the_settings(self):
        [keys] = re.findall(r"\): `([^`]*)`\. Any other key", self.command_line())
        assert sorted(keys.split()) == sorted(cli._SETTINGS)


class TestSweepOutput:
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

    @pytest.mark.parametrize("extra, counts, sha256", [
        (["--workers", "1"], ["6", "7", "13", "0"],
         "fc64a74beafd0cc8faed53b4c881df9264a153ab8c1418cc09da45cfee28cce8"),
        (["--workers", "2"], ["6", "7", "13", "0"],
         "fc64a74beafd0cc8faed53b4c881df9264a153ab8c1418cc09da45cfee28cce8"),
        (["--max-steps", "300000"], ["5", "4", "0", "17"],
         "4a9af4594f43fbfe59c932abe0a2ac65a4aac5c64afe4c9ce72a267e17cc6422"),
        (["--max-steps", "300000", "--workers", "2"], ["5", "4", "0", "17"],
         "4a9af4594f43fbfe59c932abe0a2ac65a4aac5c64afe4c9ce72a267e17cc6422"),
    ], ids=["workers-1", "workers-2", "error-rows", "error-rows-workers-2"])
    def test_a_sweep_keeps_its_bytes(self, extra, counts, sha256, tmp_path, capsys):
        """26 points at t_max = 500: the class counts and the sha256 of the
        whole CSV, on one and two workers, and with a step budget that ends
        17 runs as Error rows, whose nan cells are formatted one by one, on
        one and two workers."""
        out = tmp_path / "pinned.csv"
        code, _, _ = run_cli(["sweep", "--v-min", "0.05", "--v-max", "0.3", "--dv", "0.01",
                              "--t-max", "500", *extra, "--out", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        assert [meta_value(text, key) for key in
                ("transmitted", "reflected", "trapped", "error")] == counts
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


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

    @pytest.mark.parametrize("v0, fit, sha256", [
        ("0.056", ["0.04627496181586281", "7.0", "210.0", "239.0"],
         "839e2ce52a7af5350b858b7799c49bddc29cca04ef49c355d4e96731c247d3a3"),
        ("0.0559995", ["0.05048537387510042", "7.0", "216.0", "234.0"],
         "01f3dddf722507b49477f570867990556d7d3c984c8551cfcc074d778cf9c25b"),
    ], ids=["0.056", "0.0559995"])
    def test_a_chaotic_run_keeps_its_exponent_window_and_distances(
            self, v0, fit, sha256, tmp_path, capsys):
        """Two trapped launches to t_max = 1000: the fitted exponent, its
        window and the first unit distance, to the last digit, and the
        sha256 of the text from the t,d header to the end of the file."""
        out = tmp_path / "pinned.csv"
        code, _, _ = run_cli(
            ["sensitivity", "--v0", v0, "--t-max", "1000", "--out", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        assert [meta_value(text, key) for key in
                ("lambda", "window_start", "window_end", "t_first_unit")] == fit
        body = out.read_bytes()
        body = body[body.index(b"\nt,d\n") + 1:]
        assert hashlib.sha256(body).hexdigest() == sha256


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

    def test_the_first_probe_is_released_before_the_second_runs(self, monkeypatch, capsys):
        """The first probe's trajectory, five recorded columns and R, is
        freed once its escape check is done, so it does not stay resident
        through the second probe run."""
        probes, alive = [], []
        measure = cli.measured_frequency

        def spy(*args, **kwargs):
            alive.append([ref() is not None for ref in probes])
            omega, traj = measure(*args, **kwargs)
            probes.append(weakref.ref(traj))
            return omega, traj

        monkeypatch.setattr(cli, "measured_frequency", spy)
        code, _, _ = run_cli(["linear-compare", "--t-max", "120"], capsys)
        assert code == 0
        assert alive == [[], [False]]


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


# Runs in a fresh interpreter: a sweep on one and two workers, a simulate
# under each scheme, a chaotic sensitivity run and a linear-compare
# under each scheme, whose CSVs go to argv[2]-*.csv, then --version;
# prints whether numpy was loaded.  With argv[1] == "numpy-first" it imports
# numpy before anything.
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
assert main(["simulate", "--v0", "0.3", "--record-every", "1",
             "--out", f"{prefix}-verlet.csv"]) == 0
assert main(["simulate", "--scheme", "RK4", "--v0", "0.3", "--record-every", "3",
             "--out", f"{prefix}-rk4.csv"]) == 0
assert main(["sensitivity", "--v0", "0.056", "--t-max", "300",
             "--out", f"{prefix}-sensitivity.csv"]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    for scheme in ("VelocityVerlet", "RK4"):
        assert main(["linear-compare", "--t-max", "120", "--scheme", scheme,
                     "--out", f"{prefix}-linear-{scheme}.csv"]) == 0
    try:
        main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0
print("numpy" in sys.modules)
"""


class TestNumpyFree:
    def test_sweep_and_version_never_load_numpy(self, tmp_path):
        """Nor do simulate, sensitivity and linear-compare.  The same runs
        write the same bytes whether or not numpy was imported first, the
        sensitivity run's fitted exponent and linear-compare's measured
        frequencies included."""
        loaded = {}
        for mode in ("numpy-free", "numpy-first"):
            proc = subprocess.run(
                [sys.executable, "-c", NUMPY_FREE_RUNS, mode, str(tmp_path / mode)],
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            loaded[mode] = proc.stdout.strip()
        assert loaded == {"numpy-free": "False", "numpy-first": "True"}
        for name in ("w1", "w2", "verlet", "rk4", "sensitivity",
                     "linear-VelocityVerlet", "linear-RK4"):
            free = (tmp_path / f"numpy-free-{name}.csv").read_bytes()
            assert free == (tmp_path / f"numpy-first-{name}.csv").read_bytes(), name
        assert (tmp_path / "numpy-free-w1.csv").read_bytes() == \
            (tmp_path / "numpy-free-w2.csv").read_bytes()
        sensitivity = (tmp_path / "numpy-free-sensitivity.csv").read_text()
        assert meta_value(sensitivity, "degenerate") == "false"
        assert 0.01 < float(meta_value(sensitivity, "lambda")) < 0.2
