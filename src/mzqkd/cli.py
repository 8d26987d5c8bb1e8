"""Command-line front end.

Subcommands: design, sweep, spectra, bb84, gterm, compensate, oracle-check.
Each takes --config, --format, --output and the flags of the settings it reads.
Exit codes: 0 success, 2 configuration error, 3 infeasible design,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import bb84 as bb84_mod
from . import compensation as comp_mod
from . import io as io_mod
from .config import (RunConfig, apply_overrides, default_config_path,
                     load_config_file)
from .core import MzConfig, check_domain
from .design import build_design_report, sweep_lengths
from .errors import ConfigError, InfeasibleDesignError, ResolutionError, VerificationError
from .spectra import (GridSpec, eval_analytic, eval_oracle,
                      max_normalized_deviation)
from .units import km_to_m


# RunConfig fields that several subcommands read together.
DISPERSION = ("lambda0_nm", "delta_lambda_nm", "dispersion_ps_per_km_nm", "leg_length_m",
              "convention")
SHIFTERS = ("delta_d_m", "delta_m_m", "delta_c_m")
EDGES = ("t_rising_ns", "t_falling_ns", "detector_profile")


def _common_flags(parser: argparse.ArgumentParser, formats: tuple[str, ...],
                  *names: str) -> None:
    """--config, --format (one of ``formats``, the first by default), --output
    and the flags of the RunConfig fields ``names``."""
    parser.set_defaults(formats=formats)
    parser.add_argument("--config", help="config file path (INI); defaults to $MZQKD_CONFIG")
    groups = {}
    for f in fields(RunConfig):
        if f.name not in names and f.name not in ("out_format", "out_path"):
            continue
        section = f.metadata["section"]
        if section not in groups:
            groups[section] = parser.add_argument_group(section)
        kwargs = f.metadata["argparse"]
        if f.name == "out_format":
            kwargs = dict(kwargs, choices=formats)
        groups[section].add_argument(f.metadata["flag"] or "--" + f.name.replace("_", "-"),
                                     dest=f.name, type=f.metadata["cast"], **kwargs)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """File values (or defaults) under the flags, with the command's format resolved."""
    path = args.config or default_config_path()
    config = apply_overrides(load_config_file(path) if path else RunConfig(), args)
    config.validate_design()
    config.resolved_edge_times()  # every command checks the interferometer settings
    config.mz_config()
    if config.out_format is None:
        config.out_format = args.formats[0]
    elif config.out_format not in args.formats:
        raise ConfigError(f"output.format: {config.out_format!r} not supported "
                          f"by this command (choose from {args.formats})")
    return config


def _length_range_m(args: argparse.Namespace) -> np.ndarray:
    """--steps >= 2 lengths from --l-min-km up to --l-max-km, m; both ends in the domain."""
    if args.steps < 2:
        raise ConfigError(f"{args.command} needs at least 2 steps")
    if not args.l_min_km < args.l_max_km:
        raise ConfigError(f"{args.command} range is empty: l-min-km must be below l-max-km")
    for name in ("l_min_km", "l_max_km"):
        check_domain("fiber_length", getattr(args, name), name.replace("_", "-"), km_to_m)
    try:
        return np.linspace(km_to_m(args.l_min_km), km_to_m(args.l_max_km), args.steps)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest array
        raise ConfigError(f"{args.command} steps {args.steps} ask for {8 * args.steps} bytes "
                          "of lengths, more than can be allocated") from exc


# ------------------------------------------------------------- subcommands

def cmd_design(args: argparse.Namespace, config: RunConfig) -> int:
    params = config.link_params()
    rising, falling = config.resolved_edge_times()
    report = build_design_report(params, config.rho, actual_phase_sum=args.sum_m, t_rising=rising,
                                 t_falling=falling, safety_factor=config.safety_factor)
    if config.out_format == "json":
        text = io_mod.design_report_json(report, params)
    else:
        text = io_mod.design_report_text(report)
    io_mod.emit(text, config.out_path)
    return 0


def cmd_sweep(args: argparse.Namespace, config: RunConfig) -> int:
    params = config.link_params()
    columns = sweep_lengths(params, config.rho, _length_range_m(args),
                            *config.resolved_edge_times(), config.safety_factor)
    if config.out_format == "svg-plot":
        name, label = (("rate_linear_hz", "rate_hz") if args.quantity == "rate"
                       else ("min_phase_sum_m", "min_phase_sum_m"))
        series = [(name, columns["length_m"] / 1e3, columns[name])]
        text = io_mod.svg_line_chart(series, "length_km", label)
    else:
        text = io_mod.sweep_csv(columns)
    io_mod.emit(text, config.out_path)
    return 0


def cmd_spectra(args: argparse.Namespace, config: RunConfig) -> int:
    params, mz = config.link_params(), config.mz_config()
    grid = GridSpec(n_points=args.n_points, pad_sigmas=args.pad_sigmas)
    curve = eval_analytic(params, mz, grid)
    if config.out_format == "json":
        text = io_mod.curve_json(curve, config.normalize, args.relative_axis)
    elif config.out_format == "svg-plot":
        x, yo, yp = io_mod.curve_arrays(curve, config.normalize, args.relative_axis)
        text = io_mod.svg_line_chart(
            [("exit_o", x, yo), ("exit_p", x, yp)],
            "x_offset_m" if args.relative_axis else "x_m", "intensity")
    else:
        text = io_mod.curve_csv(curve, config.normalize, args.relative_axis)
    io_mod.emit(text, config.out_path)
    return 0


def cmd_bb84(args: argparse.Namespace, config: RunConfig) -> int:
    params = config.link_params()
    baseline = args.baseline_m
    if baseline is None:
        baseline = bb84_mod.default_baseline(params, config.rho)
    else:
        check_domain("shifter", baseline, "baseline-m")
    table = bb84_mod.detection_table(params, baseline)
    if table.warning:
        print(f"warning: {table.warning}", file=sys.stderr)
    if config.out_format == "json":
        text = io_mod.detection_table_json(table, params)
    else:
        text = io_mod.detection_table_csv(table)
    directory = args.dump_spectra_dir
    if directory:
        # a directory that cannot be made fails the run before the table is out
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create {directory!r}: {exc.strerror}") from exc
    io_mod.emit(text, config.out_path)
    if directory:
        _dump_bb84_spectra(params, table, directory, config.normalize)
    return 0


def _dump_bb84_spectra(params, table, directory: str, normalize: str) -> None:
    for row in table.rows:
        mz = MzConfig(delta_d=table.baseline + row.phi_d,
                      delta_m=table.baseline + row.phi_m)
        curve = eval_analytic(params, mz)
        name = f"alice{row.alice_basis}{row.bit}_bob{row.bob_basis}.csv"
        io_mod.atomic_write_text(os.path.join(directory, name),
                                 io_mod.curve_csv(curve, normalize))


def cmd_gterm(args: argparse.Namespace, config: RunConfig) -> int:
    params = config.link_params()
    lengths = _length_range_m(args)
    analysis = bb84_mod.g_term_analysis(params, lengths, delta_c=config.delta_c_m)
    io_mod.emit(io_mod.gterm_csv(analysis), config.out_path)
    return 0


def cmd_compensate(args: argparse.Namespace, config: RunConfig) -> int:
    params = config.link_params()
    plan = comp_mod.plan(params, args.clock_ghz * 1e9, config.rho, config.mode,
                         *config.resolved_edge_times(), config.safety_factor)
    if config.out_format == "json":
        text = io_mod.plan_json(plan, params)
    else:
        text = io_mod.plan_text(plan, params)
    io_mod.emit(text, config.out_path)
    return 0


def cmd_oracle_check(args: argparse.Namespace, config: RunConfig) -> int:
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise ConfigError(f"threshold must be positive and finite, got {args.threshold!r}")
    params, mz = config.link_params(), config.mz_config()
    lengths_km = args.l_km if args.l_km else [0.0, 1.0, 50.0]
    for lkm in lengths_km:
        check_domain("fiber_length", lkm, "l-km", km_to_m)
    grid = GridSpec(n_points=args.n_points)
    worst = 0.0
    lines = []
    for lkm in lengths_km:
        p = replace(params, fiber_length=km_to_m(lkm))
        deviation = max_normalized_deviation(eval_analytic(p, mz, grid),
                                             eval_oracle(p, mz, grid))
        worst = max(worst, deviation)
        lines.append(f"L={io_mod.fmt(lkm)} km  max_normalized_deviation={deviation:.3e}")
    lines.append(f"worst={worst:.3e} threshold={args.threshold:.3e}")
    io_mod.emit("\n".join(lines) + "\n", config.out_path)
    if worst > args.threshold:
        raise VerificationError(
            f"analytic and oracle spectra deviate by {worst:.3e} "
            f"(threshold {args.threshold:.3e})")
    return 0


# ------------------------------------------------------------------- main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged, so one instance serves every ``main``
    call in a process; building it costs some fifty parses.
    """
    parser = argparse.ArgumentParser(
        prog="mzqkd",
        description="Design and verification toolkit for dispersion-limited "
                    "two-interferometer QKD links")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="visibility, shifter bound, rates, gate window")
    _common_flags(p, ("text", "json"), "length_km", *DISPERSION, *EDGES, "rho",
                  "safety_factor")
    p.add_argument("--sum-m", dest="sum_m", type=float,
                   help="actual shifter sum for the gate-window bound, m")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("sweep", help="design bounds over a fiber-length range")
    _common_flags(p, ("csv", "svg-plot"), *DISPERSION, *EDGES, "rho", "safety_factor")
    p.add_argument("--l-min-km", type=float, required=True)
    p.add_argument("--l-max-km", type=float, required=True)
    p.add_argument("--steps", type=int, default=46)
    p.add_argument("--quantity", choices=("phase-sum", "rate"), default="phase-sum",
                   help="series for svg-plot output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectra", help="output position spectra of both exits")
    _common_flags(p, ("csv", "json", "svg-plot"), "length_km", *DISPERSION, "group_index",
                  "t_fiber", "t_leg", *SHIFTERS, "normalize")
    p.add_argument("--n-points", type=int, default=4096)
    p.add_argument("--pad-sigmas", type=float, default=6.0)
    p.add_argument("--relative-axis", action="store_true",
                   help="emit x as offset from the middle-pulse center")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("bb84", help="phase-encoding detection truth table")
    _common_flags(p, ("csv", "json"), "length_km", *DISPERSION, "rho", "group_index",
                  "t_fiber", "t_leg", "normalize")
    p.add_argument("--baseline-m", type=float,
                   help="common shifter baseline; default: half the rho bound, "
                        "rounded up to the next cm")
    p.add_argument("--dump-spectra-dir",
                   help="also write one spectra CSV per table row (the dump alone "
                        "reads --group-index, --t-fiber, --t-leg and --normalize)")
    p.set_defaults(func=cmd_bb84)

    p = sub.add_parser("gterm", help="dispersion-correction coefficient over length")
    _common_flags(p, ("csv",), *DISPERSION, "delta_c_m")
    p.add_argument("--l-min-km", type=float, default=0.05)
    p.add_argument("--l-max-km", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=4001)
    p.set_defaults(func=cmd_gterm)

    p = sub.add_parser("compensate", help="dispersion-compensation plan for a clock rate")
    _common_flags(p, ("text", "json"), "length_km", *DISPERSION, "rho", "mode", *EDGES,
                  "safety_factor")
    p.add_argument("--clock-ghz", type=float, required=True)
    p.set_defaults(func=cmd_compensate)

    p = sub.add_parser("oracle-check", help="verify analytic spectra against the "
                                            "wavenumber-domain oracle")
    _common_flags(p, ("text",), *DISPERSION, *SHIFTERS)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--l-km", type=float, action="append",
                   help="fiber length to check, km (repeatable; default 0, 1, 50)")
    p.add_argument("--n-points", type=int, default=1024)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _resolve_config(args))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleDesignError as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return 3
    except (VerificationError, ResolutionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
