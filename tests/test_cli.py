"""Command line contract: config resolution, exit codes, CSV schema, regeneration."""

import shlex
import subprocess
import sys

import pytest

from kinktrap import __version__, _kernels
from kinktrap.cli import ConfigError, load_config, main


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
    def test_invalid_physics_value_exits_one(self, capsys):
        code, _, err = run_cli(["simulate", "--v0", "-1"], capsys)
        assert code == 1
        assert "v0 must be positive" in err

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


class TestRegeneration:
    def test_echoed_command_reproduces_the_file_byte_for_byte(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        code, _, _ = run_cli(
            ["simulate", "--v0", "0.27", "--t-max", "200",
             "--record-every", "100", "--out", str(first)],
            capsys)
        assert code == 0
        command = first.read_text().splitlines()[1]
        argv = shlex.split(command.removeprefix("# command = "))
        assert argv[0] == "kinktrap"
        second = tmp_path / "b.csv"
        code = main(argv[1:] + ["--out", str(second)])
        assert code == 0
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
