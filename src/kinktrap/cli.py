"""Command line front end.

Subcommands: simulate, sweep, sensitivity, linear-compare.  Two tables
drive it.  _SETTINGS gives each setting its default, its kind and its help;
a default lives on the record field or function parameter that consumes it,
and only v0, record_every and out are the command line's own.  A kind
(_KINDS) is one converter, which reads the text of a flag and of a config
line alike.  _COMMANDS gives each subcommand its handler, its help and the
settings its CSV echoes; the parser is one loop over it, and every flag is
one setting.

Settings are resolved in three layers (defaults, then a config file, then
flags) and the resolved values are echoed into the output as a re-runnable
command line and as '# key = value' lines, so any CSV can be regenerated byte
for byte from its own header, and its settings lines, uncommented, are a
config file that does the same.  The echo deliberately omits --workers and
--out: neither affects the data.

Exit codes: 0 success, 1 bad usage or configuration, an --out that cannot be
opened for writing, or no --out and a stdout with no byte stream, 2 a run
that failed for physical or numerical reasons (particle coincidence, step
budget, no measurable oscillation), 141 the reader of the output closed its
pipe (128 + SIGPIPE, as a shell reports a process killed by it).
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from collections import namedtuple
from contextlib import nullcontext
from enum import Enum

from . import __version__, _kernels
from .dynamics import (
    CMState,
    ModelParams,
    equilibrium_separation,
)
from .integrator import RUN_ERRORS, IntegratorConfig, Scheme
from .linearized import (
    InsufficientOscillations,
    in_well_equilibrium_separation,
    linearized_frequencies,
    measured_frequency,
)
from .scattering import Scenario, run_scattering
from .sweep import SweepSpec, sensitivity, sweep

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Raised for malformed config files, unknown keys, or bad settings."""


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

def _float_or_none(text: str) -> float | None:
    return None if text.lower() in ("none", "") else float(text)


_float_or_none.__name__ = "float"  # argparse's error: "invalid float value"


def _scheme(text: str) -> Scheme:
    try:
        return Scheme(text)
    except ValueError:
        # argparse prints this error's text as it is, naming every scheme
        raise argparse.ArgumentTypeError(
            f"expected {_KINDS['Scheme'].expected}, got {text!r}") from None


# A setting type's converter, which reads the text of a flag (as its argparse
# type) and of a config line, and what a config error says it expected.
_Kind = namedtuple("_Kind", ["convert", "expected"])

# Per setting type, by the text of its annotation.
_KINDS = {
    "float": _Kind(float, "a number"),
    "int": _Kind(int, "an integer"),
    "float | None": _Kind(_float_or_none, "a number or none"),
    "Scheme": _Kind(_scheme, " or ".join(scheme.value for scheme in Scheme)),
    "str": _Kind(str, "text"),
}

# A setting's default, its kind (a key of _KINDS) and its help text.
_Setting = namedtuple("_Setting", ["default", "kind", "help"])


def _library(home, **helps) -> dict:
    """{setting: _Setting} for settings whose default and type are those of a
    field of home, a record class, or of a parameter of home, a function.  A
    field's default is the class attribute of its name, a parameter's is in
    the function's __defaults__, and either's type is its annotation text."""
    if isinstance(home, type):
        defaults = vars(home)
    else:
        code = home.__code__
        names = code.co_varnames[:code.co_argcount]
        defaults = dict(zip(names[len(names) - len(home.__defaults__):], home.__defaults__))
    found = {}
    for name, text in helps.items():
        found[name] = _Setting(defaults[name], home.__annotations__[name], text)
    return found


# Each group is in the order the CSV headers echo it.
_MODEL = _library(ModelParams, k="spring constant", alpha="repulsion strength",
                  n="repulsion exponent", A="well depth", beta="inverse square well width")
_LAUNCH = _library(
    Scenario,
    launch_offset="initial centre of mass position (sign sets direction)",
    separation="initial particle separation (default: free rest length)",
    t_max="time horizon (linear-compare: probe run length)",
    exit_radius="|R| at which an outgoing pair has left the region")
_INTEGRATOR = _library(IntegratorConfig, dt="time step",
                       scheme=f"integrator: {_KINDS['Scheme'].expected}")
_GRID = _library(SweepSpec, v_min="lowest launch speed", v_max="highest launch speed",
                 dv="grid spacing")
_DIVERGENCE = _library(sensitivity, seed_delta="launch speed perturbation",
                       sample_interval="time between recorded distance samples")

# Every setting that flags and config files may set.  A default lives on the
# record field or function parameter that consumes it; v0, record_every and
# out are the command line's own.
_SETTINGS = {
    **_MODEL, **_LAUNCH, **_INTEGRATOR, **_GRID, **_DIVERGENCE,
    **_library(IntegratorConfig, max_steps="hard step budget per trajectory"),
    **_library(sweep, workers="parallel workers, at most one per point and CPU (data unchanged)"),
    "v0": _Setting(0.1, "float", "launch speed toward the well"),
    "record_every": _Setting(10, "int", "record every Nth step"),
    "out": _Setting(None, "str", "output CSV path (default: stdout)"),
}


def load_config(path: str, command: str) -> dict:
    """Parse a flat 'key = value' file for a subcommand.  Blank lines and
    #-comments are skipped; keys outside the published set are a hard error,
    not a warning, so a typo cannot silently fall back to a default.  So is a
    key given twice, so one of its values cannot be silently ignored, and a
    published key for which the subcommand has no flag, so a setting cannot
    be silently dropped.  A value is read by the converter of its setting's
    kind, the one its flag uses."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    values: dict = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is given twice")
        if key not in _flags_of(command):
            raise ConfigError(
                f"{path}:{lineno}: config key {key!r} does not apply to {command}")
        kind = _KINDS[_SETTINGS[key].kind]
        try:
            values[key] = kind.convert(raw)
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(f"{path}:{lineno}: config key {key!r}: "
                              f"expected {kind.expected}, got {raw!r}") from None
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, later layers winning.  The namespace
    holds only the flags given (their argparse default is SUPPRESS)."""
    res = {key: setting.default for key, setting in _SETTINGS.items()}
    if args.config:
        res.update(load_config(args.config, args.command))
    res.update((key, value) for key, value in vars(args).items() if key in _SETTINGS)
    return res


def _pick(res: dict, names) -> dict:
    return {name: res[name] for name in names}


def _params(res: dict) -> ModelParams:
    return ModelParams(**_pick(res, _MODEL))


def _scenario(res: dict) -> Scenario:
    return Scenario(params=_params(res), v0=res["v0"], **_pick(res, _LAUNCH))


def _integrator_config(res: dict) -> IntegratorConfig:
    return IntegratorConfig(**_pick(res, [*_INTEGRATOR, "max_steps"]))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """Shortest round-trip form: repr for floats, bare text otherwise."""
    if value is None:
        return "none"
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _echo_command(command: str, settings: dict, keys: list) -> str:
    parts = ["kinktrap", command]
    for key in keys:
        value = settings[key]
        if value is None:
            continue
        flag = _flag(key)
        text = _fmt(value)
        # leading '-' values are glued with '=' so the echo always re-parses
        parts.append(f"{flag}={text}" if text.startswith("-") else f"{flag} {text}")
    return " ".join(parts)


def _check_out(path: str | None, command: str) -> None:
    """Raise, before any work, what writing the CSV would raise.  With no
    path the CSV goes to stdout's byte stream, so a stdout without one (a
    text stream such as io.StringIO put in its place in-process) raises
    ConfigError, except for linear-compare, which then writes no CSV.  With
    a path, raise the OSError that opening it for writing would raise when
    path is a directory or its parent directory is missing.  Nothing is
    created, so a run that fails leaves no file."""
    if not path:
        if command != "linear-compare" and not hasattr(sys.stdout, "buffer"):
            raise ConfigError("stdout has no byte stream to write the CSV to; use --out")
        return
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


# The text of one chunk of body rows is at most this many bytes: the output
# is streamed, never held whole.  Each format_rows call checks and addresses
# every column again, so much smaller chunks cost time.
_CHUNK_BYTES = 512 * 1024


def _chunk_rows(ncols: int) -> int:
    """The rows of a chunk of ncols columns whose longest possible text,
    _kernels._CELL_BYTES a cell, fits in _CHUNK_BYTES; at least one."""
    return max(1, _CHUNK_BYTES // (_kernels._CELL_BYTES * ncols))


def _emit_csv(
    out: str | None,
    command: str,
    settings: dict,
    echo_keys: list,
    meta: dict,
    header: list,
    columns: tuple,
) -> None:
    """Write the metadata, the header and a body given as equal-length
    columns (buffers, lists or tuples), one line per row, as bytes to one
    binary sink: the file out, or stdout's byte stream after what is
    pending on stdout's text layer.  The body goes in chunks of
    _chunk_rows(len(columns)) rows.  A body of aligned, C-contiguous 1-D
    float64 buffers only (trajectory columns, numpy arrays) is written by
    _kernels.format_rows, whose bytes go to the sink as they are; any other
    body is formatted cell by cell through _fmt and encoded per chunk.  Both
    give _fmt's text for every cell."""
    lines = [f"# kinktrap-version {__version__}"]
    lines.append(f"# command = {_echo_command(command, settings, echo_keys)}")
    for key in echo_keys:
        lines.append(f"# {key} = {_fmt(settings[key])}")
    for key, value in meta.items():
        lines.append(f"# {key} = {_fmt(value)}")
    lines.append(",".join(header))
    rows = len(columns[0])
    try:
        columns = _kernels.float64_views(columns, "columns")
    except ValueError:
        floats = False
    else:
        # columns of unequal length take the zip(strict=True) path, which raises
        floats = all(len(col) == rows for col in columns)
    if out:
        sink = open(out, "wb")
    else:
        sys.stdout.flush()
        sink = nullcontext(sys.stdout.buffer)
    chunk = _chunk_rows(len(columns))
    with sink as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            if floats:
                fh.write(_kernels.format_rows(columns, start, stop))
                continue
            cells = [map(_fmt, col[start:stop]) for col in columns]
            fh.write(("\n".join(map(",".join, zip(*cells, strict=True))) + "\n").encode())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_SIM_KEYS = [*_MODEL, "v0", *_LAUNCH, *_INTEGRATOR, "record_every", "max_steps"]


def _cmd_simulate(res: dict) -> int:
    rec = run_scattering(_scenario(res), _integrator_config(res),
                         record_every=res["record_every"])
    traj = rec.trajectory
    meta = {
        "outcome": rec.outcome.value,
        "v_final": rec.v_final,
        "t_end": rec.t_end,
        "energy_drift": rec.energy_drift,
        "steps": rec.steps,
    }
    columns = (traj.t, traj.x1, traj.x2, traj.v1, traj.v2, traj.R, traj.r, traj.E)
    _emit_csv(res["out"], "simulate", res, _SIM_KEYS, meta,
              ["t", "x1", "x2", "v1", "v2", "R", "r", "E"], columns)
    return 0


_SWEEP_KEYS = [*_MODEL, *_GRID, *_LAUNCH, *_INTEGRATOR, "max_steps"]

_SWEEP_HEADER = ["v0", "outcome", "v_final", "t_end", "energy_drift", "steps"]


def _sweep_spec(res: dict) -> SweepSpec:
    return SweepSpec(params=_params(res), cfg=_integrator_config(res),
                     **_pick(res, [*_GRID, *_LAUNCH]))


def _cmd_sweep(res: dict) -> int:
    records = sweep(_sweep_spec(res), workers=res["workers"])
    counts = {"transmitted": 0, "reflected": 0, "trapped": 0, "error": 0}
    for rec in records:
        counts[rec.outcome.value.lower()] += 1
    columns = tuple([getattr(r, name) for r in records] for name in _SWEEP_HEADER)
    _emit_csv(res["out"], "sweep", res, _SWEEP_KEYS, {"points": len(records), **counts},
              _SWEEP_HEADER, columns)
    return 0


# sensitivity runs to t_max with no exit test
_SENS_KEYS = [*_MODEL, "v0", *(key for key in _LAUNCH if key != "exit_radius"),
              *_INTEGRATOR, *_DIVERGENCE, "max_steps"]


def _cmd_sensitivity(res: dict) -> int:
    report = sensitivity(_scenario(res), _integrator_config(res),
                         **_pick(res, _DIVERGENCE))
    meta = {
        "metric": report.metric,
        "scale": report.scale,
        "lambda": report.lambda_,
        "degenerate": report.degenerate,
        "window_start": None if report.window is None else report.window[0],
        "window_end": None if report.window is None else report.window[1],
        "t_first_unit": report.t_first_unit,
    }
    _emit_csv(res["out"], "sensitivity", res, _SENS_KEYS, meta, ["t", "d"],
              (report.times, report.distances))
    return 0


_LINCMP_KEYS = [*_MODEL, "t_max", *_INTEGRATOR, "max_steps"]


def _cmd_linear_compare(res: dict) -> int:
    params = _params(res)
    if params.A <= 0.0:
        print("error: no attractive well (A <= 0); nothing to compare",
              file=sys.stderr)
        return 2
    cfg = _integrator_config(res)
    t_max = res["t_max"]

    r0 = equilibrium_separation(params)
    try:
        s_in = in_well_equilibrium_separation(params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lp_full = linearized_frequencies(params, r_eq=r0)
    lp_half = linearized_frequencies(params, r_eq=0.5 * r0)

    amp = 0.05 / math.sqrt(params.beta)
    try:
        omega_cm, traj_cm = measured_frequency(
            params, CMState(t=0.0, R=amp, V=0.0, r=0.5 * s_in, w=0.0),
            cfg, t_max, use_cm_coordinate=True)
        if max(map(abs, traj_cm.R)) > 5.0 * amp:
            print("error: the pair escaped the well during the probe run",
                  file=sys.stderr)
            return 2
        del traj_cm  # its columns would stay resident through the second probe
        omega_rel, _ = measured_frequency(
            params, CMState(t=0.0, R=0.0, V=0.0, r=0.5 * (s_in + 0.01), w=0.0),
            cfg, t_max, use_cm_coordinate=False)
    except InsufficientOscillations as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    table = [
        ("omega_cm", omega_cm, lp_full.omega_R, lp_half.omega_R),
        ("omega_relative", omega_rel, lp_full.omega_eps, lp_half.omega_eps),
        ("stretch_center", s_in, lp_full.r_eq + lp_full.delta,
         lp_half.r_eq + lp_half.delta),
    ]
    print(f"free equilibrium separation   {r0:.9g}")
    print(f"in-well equilibrium separation {s_in:.9g}")
    print(f"{'quantity':<16} {'measured':>12} {'r_eq=r0':>12} {'r_eq=r0/2':>12}")
    for name, measured, full, half in table:
        print(f"{name:<16} {measured:>12.6f} {full:>12.6f} {half:>12.6f}")

    if res["out"]:
        meta = {"r0": r0, "s_in": s_in,
                "delta_full": lp_full.delta, "delta_half": lp_half.delta}
        _emit_csv(res["out"], "linear-compare", res, _LINCMP_KEYS, meta,
                  ["quantity", "measured", "r_eq_r0", "r_eq_half_r0"],
                  tuple(zip(*table)))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for physics
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Per subcommand: its handler, its help, the settings its CSV echoes and the
# flags it takes besides those, --config and --out.
_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate one launch and dump the trajectory",
                 _SIM_KEYS, []),
    "sweep": (_cmd_sweep, "classify outcomes over a launch speed grid",
              _SWEEP_KEYS, ["workers"]),
    "sensitivity": (_cmd_sensitivity, "divergence of two launches differing by seed-delta",
                    _SENS_KEYS, []),
    "linear-compare": (_cmd_linear_compare, "measured trapped-pair frequencies vs the "
                       "small oscillation closed forms", _LINCMP_KEYS, []),
}


def _flags_of(command: str) -> list:
    """The settings a subcommand takes as flags, besides --config."""
    _, _, echo_keys, extra = _COMMANDS[command]
    return ["out", *echo_keys, *extra]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kinktrap",
                     description="bound pair scattering off a Gaussian well")
    parser.add_argument("--version", action="version",
                        version=f"kinktrap {__version__} (kernel: {_kernels.BACKEND})")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, text, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="flat 'key = value' settings file")
        for key in _flags_of(command):
            setting = _SETTINGS[key]
            p.add_argument(_flag(key), type=_KINDS[setting.kind].convert,
                           default=argparse.SUPPRESS, help=setting.help)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        res = _resolve(args)
        _check_out(res["out"], args.command)
        return args.func(res)
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered to devnull,
        # so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ConfigError, ValueError, OSError) as exc:
        # OSError, of which BrokenPipeError above is a kind: an --out that
        # cannot be opened for writing, found before the run where
        # _check_out can tell
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
