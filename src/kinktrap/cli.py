"""Command line front end.

Subcommands: simulate, sweep, zoom, sensitivity, linear-compare.  Settings are
resolved in three layers (built-in defaults, then a config file, then flags)
and the fully resolved values are echoed into the output as a re-runnable
command line, so any CSV can be regenerated byte for byte from its own header.
The echo deliberately omits --workers and --out: neither affects the data.

Exit codes: 0 success, 1 bad usage or configuration, 2 a run that failed for
physical or numerical reasons (particle coincidence, step budget, no
measurable oscillation).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from enum import Enum
from typing import Optional, get_type_hints

from . import __version__, _kernels
from .dynamics import (
    CMState,
    CoincidentParticles,
    ModelParams,
    equilibrium_separation,
)
from .integrator import IntegratorConfig, Scheme, StepBudgetExhausted
from .linearized import (
    InsufficientOscillations,
    in_well_equilibrium_separation,
    linearized_frequencies,
    measured_frequency,
)
from .scattering import Scenario, run_scattering
from .sweep import SweepSpec, sensitivity, sweep, zoom

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Raised for malformed config files, unknown keys, or bad settings."""


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

def _conv_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {raw!r}") from None


def _conv_int(key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected an integer, got {raw!r}") from None


def _conv_optional_float(key: str, raw: str) -> Optional[float]:
    if raw.lower() in ("none", ""):
        return None
    return _conv_float(key, raw)


def _conv_text(key: str, raw: str) -> str:
    return raw


_CONVERTERS_BY_TYPE = {
    float: _conv_float,
    int: _conv_int,
    Optional[float]: _conv_optional_float,
    Scheme: _conv_text,
}


def _field_settings(cls, names) -> dict:
    """{name: (default, converter)} read off the dataclass fields that
    consume these settings."""
    hints = get_type_hints(cls)
    return {name: (getattr(cls, name), _CONVERTERS_BY_TYPE[hints[name]]) for name in names}


# The settings each dataclass takes from the command line, in the order the
# CSV header echoes them.
_MODEL = ["k", "alpha", "n", "A", "beta"]
_LAUNCH = ["launch_offset", "separation", "t_max", "exit_radius"]
_INTEGRATOR = ["dt", "scheme"]
_GRID = ["v_min", "v_max", "dv"]

# The published settings: (default, config-file converter) per key.  Each
# default lives on the dataclass that uses it; v0, workers and out are the
# command line's own.
_SETTINGS = {
    **_field_settings(ModelParams, _MODEL),
    **_field_settings(Scenario, _LAUNCH),
    **_field_settings(IntegratorConfig, _INTEGRATOR),
    **_field_settings(SweepSpec, _GRID),
    "v0": (0.1, _conv_float),
    "workers": (1, _conv_int),
    "out": (None, _conv_text),
}

_SCHEMES = [scheme.value for scheme in Scheme]


def load_config(path: str) -> dict:
    """Parse a flat 'key = value' file.  Blank lines and #-comments are
    skipped; keys outside the published set are a hard error, not a warning,
    so a typo cannot silently fall back to a default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
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
        values[key] = _SETTINGS[key][1](key, raw)
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, later layers winning."""
    res = {key: default for key, (default, _) in _SETTINGS.items()}
    if getattr(args, "config", None):
        res.update(load_config(args.config))
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            res[key] = val
    center = getattr(args, "center", None)
    halfwidth = getattr(args, "halfwidth", None)
    if (center is None) != (halfwidth is None):
        raise ConfigError("--center and --halfwidth must be given together")
    if center is not None:
        if not (halfwidth > 0.0):
            raise ConfigError(f"--halfwidth must be positive, got {halfwidth!r}")
        res["v_min"] = center - halfwidth
        res["v_max"] = center + halfwidth
    try:
        res["scheme"] = Scheme(res["scheme"])
    except ValueError:
        raise ConfigError(
            f"scheme must be {' or '.join(_SCHEMES)}, got {res['scheme']!r}"
        ) from None
    return res


def _pick(res: dict, names: list) -> dict:
    return {name: res[name] for name in names}


def _params(res: dict) -> ModelParams:
    return ModelParams(**_pick(res, _MODEL))


def _scenario(res: dict) -> Scenario:
    return Scenario(params=_params(res), v0=res["v0"], **_pick(res, _LAUNCH))


def _integrator_config(res: dict, max_steps: int) -> IntegratorConfig:
    return IntegratorConfig(max_steps=max_steps, **_pick(res, _INTEGRATOR))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """Shortest round-trip form: repr for floats, bare text otherwise."""
    if value is None:
        return "none"
    if isinstance(value, Enum):
        return str(value.value)
    # no numpy value exists before numpy is loaded
    np = sys.modules.get("numpy")
    if isinstance(value, float) or np is not None and isinstance(value, np.floating):
        return repr(float(value))
    if isinstance(value, bool) or np is not None and isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, int) or np is not None and isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _echo_command(command: str, settings: dict, keys: list) -> str:
    parts = ["kinktrap", command]
    for key in keys:
        value = settings[key]
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        text = _fmt(value)
        # leading '-' values are glued with '=' so the echo always re-parses
        parts.append(f"{flag}={text}" if text.startswith("-") else f"{flag} {text}")
    return " ".join(parts)


# Body rows formatted and written per chunk: the output is streamed, never
# held whole.
_CHUNK_ROWS = 8192


def _emit_csv(
    out: Optional[str],
    command: str,
    settings: dict,
    echo_keys: list,
    meta: dict,
    header: list,
    columns: tuple,
) -> None:
    """Write the metadata, the header and a body given as equal-length
    columns (arrays, lists or tuples), one line per row.  A body of float64
    arrays only is written by _kernels.format_rows, any other body cell by
    cell through _fmt; both give _fmt's text for every cell."""
    lines = [f"# kinktrap-version {__version__}"]
    lines.append(f"# command = {_echo_command(command, settings, echo_keys)}")
    for key in echo_keys:
        lines.append(f"# {key} = {_fmt(settings[key])}")
    for key, value in meta.items():
        lines.append(f"# {key} = {_fmt(value)}")
    lines.append(",".join(header))
    rows = len(columns[0])
    # columns of unequal length take the zip(strict=True) path, which raises;
    # no array exists before numpy is loaded
    np = sys.modules.get("numpy")
    floats = np is not None and all(
        isinstance(col, np.ndarray) and col.dtype == np.float64 and col.ndim == 1
        and len(col) == rows for col in columns)
    if floats:
        columns = [np.require(col, np.float64, ("C", "A")) for col in columns]
    sink = open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout)
    with sink as fh:
        fh.write("\n".join(lines) + "\n")
        for start in range(0, rows, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, rows)
            if floats:
                fh.write(_kernels.format_rows(columns, start, stop))
                continue
            cells = [map(_fmt, col[start:stop]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_SIM_KEYS = [*_MODEL, "v0", *_LAUNCH, *_INTEGRATOR, "record_every", "max_steps"]


def _cmd_simulate(res: dict, args: argparse.Namespace) -> int:
    sc = _scenario(res)
    params = sc.params
    cfg = _integrator_config(res, args.max_steps)
    rec = run_scattering(sc, cfg, record_every=args.record_every)
    traj = rec.trajectory
    energy = _kernels.energy_column(traj.x1, traj.v1, traj.x2, traj.v2, params.k,
                                    params.alpha, params.n, params.A, params.beta)
    settings = {**res, "record_every": args.record_every, "max_steps": args.max_steps}
    meta = {
        "outcome": rec.outcome.value,
        "v_final": rec.v_final,
        "t_end": rec.t_end,
        "energy_drift": rec.energy_drift,
        "steps": rec.steps,
    }
    columns = (traj.t, traj.x1, traj.x2, traj.v1, traj.v2, traj.R, traj.r, energy)
    _emit_csv(res["out"], "simulate", settings, _SIM_KEYS, meta,
              ["t", "x1", "x2", "v1", "v2", "R", "r", "E"], columns)
    return 0


_SWEEP_KEYS = [*_MODEL, *_GRID, *_LAUNCH, *_INTEGRATOR, "max_steps"]

_SWEEP_HEADER = ["v0", "outcome", "v_final", "t_end", "energy_drift", "steps"]


def _sweep_spec(res: dict, max_steps: int) -> SweepSpec:
    return SweepSpec(params=_params(res), cfg=_integrator_config(res, max_steps),
                     **_pick(res, _GRID + _LAUNCH))


def _sweep_columns(records) -> tuple:
    """The _SWEEP_HEADER columns of these records."""
    return tuple([getattr(r, name) for r in records] for name in _SWEEP_HEADER)


def _class_counts(records) -> dict:
    counts = {"transmitted": 0, "reflected": 0, "trapped": 0, "error": 0}
    for rec in records:
        counts[rec.outcome.value.lower()] += 1
    return counts


def _cmd_sweep(res: dict, args: argparse.Namespace) -> int:
    spec = _sweep_spec(res, args.max_steps)
    records = sweep(spec, workers=res["workers"])
    settings = {**res, "max_steps": args.max_steps}
    meta = {"points": len(records), **_class_counts(records)}
    _emit_csv(res["out"], "sweep", settings, _SWEEP_KEYS, meta, _SWEEP_HEADER,
              _sweep_columns(records))
    return 0


_ZOOM_KEYS = _SWEEP_KEYS + ["factor", "depth"]


def _cmd_zoom(res: dict, args: argparse.Namespace) -> int:
    spec = _sweep_spec(res, args.max_steps)
    zoom_rows = zoom(spec, refinement_factor=args.factor, depth=args.depth,
                     workers=res["workers"])
    zoom_rows = sorted(zoom_rows, key=lambda zr: (zr.depth, zr.record.v0))
    settings = {**res, "max_steps": args.max_steps,
                "factor": args.factor, "depth": args.depth}
    meta = {"rows": len(zoom_rows), **_class_counts([zr.record for zr in zoom_rows])}
    columns = ([zr.depth for zr in zoom_rows],
               *_sweep_columns([zr.record for zr in zoom_rows]))
    _emit_csv(res["out"], "zoom", settings, _ZOOM_KEYS, meta,
              ["depth"] + _SWEEP_HEADER, columns)
    return 0


# sensitivity runs to t_max with no exit test
_SENS_KEYS = [*_MODEL, "v0", *(key for key in _LAUNCH if key != "exit_radius"),
              *_INTEGRATOR, "seed_delta", "sample_interval", "max_steps"]


def _cmd_sensitivity(res: dict, args: argparse.Namespace) -> int:
    cfg = _integrator_config(res, args.max_steps)
    report = sensitivity(_scenario(res), cfg, seed_delta=args.seed_delta,
                         sample_interval=args.sample_interval)
    settings = {**res, "seed_delta": args.seed_delta,
                "sample_interval": args.sample_interval, "max_steps": args.max_steps}
    meta = {
        "metric": report.metric,
        "scale": report.scale,
        "lambda": report.lambda_,
        "degenerate": report.degenerate,
        "window_start": None if report.window is None else report.window[0],
        "window_end": None if report.window is None else report.window[1],
        "t_first_unit": report.t_first_unit,
    }
    _emit_csv(res["out"], "sensitivity", settings, _SENS_KEYS, meta, ["t", "d"],
              (report.times, report.distances))
    return 0


_LINCMP_KEYS = [*_MODEL, "t_max", *_INTEGRATOR, "max_steps"]


def _cmd_linear_compare(res: dict, args: argparse.Namespace) -> int:
    params = _params(res)
    if params.A <= 0.0:
        print("error: no attractive well (A <= 0); nothing to compare",
              file=sys.stderr)
        return 2
    cfg = _integrator_config(res, args.max_steps)
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
        if float(abs(traj_cm.R).max()) > 5.0 * amp:
            print("error: the pair escaped the well during the probe run",
                  file=sys.stderr)
            return 2
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
        settings = {**res, "max_steps": args.max_steps}
        meta = {"r0": r0, "s_in": s_in,
                "delta_full": lp_full.delta, "delta_half": lp_half.delta}
        _emit_csv(res["out"], "linear-compare", settings, _LINCMP_KEYS, meta,
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


def _add_common(p):
    p.add_argument("--config", help="flat 'key = value' settings file")
    p.add_argument("--out", help="output CSV path (default: stdout)")


def _add_model(p):
    p.add_argument("--k", type=float, help="spring constant")
    p.add_argument("--alpha", type=float, help="repulsion strength")
    p.add_argument("--n", type=int, help="repulsion exponent")
    p.add_argument("--A", type=float, help="well depth")
    p.add_argument("--beta", type=float, help="inverse square well width")


def _add_integrator(p):
    p.add_argument("--dt", type=float, help="time step")
    p.add_argument("--scheme", choices=_SCHEMES, help="integrator")
    p.add_argument("--max-steps", type=int, default=IntegratorConfig.max_steps,
                   help="hard step budget per trajectory")


def _add_launch(p, with_v0=True, with_exit=True):
    if with_v0:
        p.add_argument("--v0", type=float, help="launch speed toward the well")
    p.add_argument("--launch-offset", type=float,
                   help="initial centre of mass position (sign sets direction)")
    p.add_argument("--separation", type=float,
                   help="initial particle separation (default: free rest length)")
    p.add_argument("--t-max", type=float, help="time horizon")
    if with_exit:
        p.add_argument("--exit-radius", type=float,
                       help="|R| at which an outgoing pair has left the region")


def _add_grid(p):
    p.add_argument("--v-min", type=float, help="lowest launch speed")
    p.add_argument("--v-max", type=float, help="highest launch speed")
    p.add_argument("--dv", type=float, help="grid spacing")
    p.add_argument("--center", type=float,
                   help="with --halfwidth, sets v-min/v-max around this speed")
    p.add_argument("--halfwidth", type=float, help="half width for --center")
    p.add_argument("--workers", type=int,
                   help="parallel workers, at most one per point and CPU (data unchanged)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kinktrap",
                     description="bound pair scattering off a Gaussian well")
    parser.add_argument("--version", action="version",
                        version=f"kinktrap {__version__} (kernel: {_kernels.BACKEND})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one launch and dump the trajectory")
    _add_common(p); _add_model(p); _add_launch(p); _add_integrator(p)
    p.add_argument("--record-every", type=int, default=10,
                   help="record every Nth step")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="classify outcomes over a launch speed grid")
    _add_common(p); _add_model(p); _add_launch(p, with_v0=False); _add_grid(p)
    _add_integrator(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("zoom", help="sweep, then refine class boundaries")
    _add_common(p); _add_model(p); _add_launch(p, with_v0=False); _add_grid(p)
    _add_integrator(p)
    p.add_argument("--factor", type=int, default=5, help="grid refinement factor")
    p.add_argument("--depth", type=int, default=1, help="refinement levels")
    p.set_defaults(func=_cmd_zoom)

    p = sub.add_parser("sensitivity",
                       help="divergence of two launches differing by seed-delta")
    _add_common(p); _add_model(p); _add_launch(p, with_exit=False); _add_integrator(p)
    p.add_argument("--seed-delta", type=float, default=1e-9,
                   help="launch speed perturbation")
    p.add_argument("--sample-interval", type=float, default=1.0,
                   help="time between recorded distance samples")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("linear-compare",
                       help="measured trapped-pair frequencies vs the small "
                            "oscillation closed forms")
    _add_common(p); _add_model(p); _add_integrator(p)
    p.add_argument("--t-max", type=float, help="probe run length")
    p.set_defaults(func=_cmd_linear_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        res = _resolve(args)
        return args.func(res, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CoincidentParticles, StepBudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
