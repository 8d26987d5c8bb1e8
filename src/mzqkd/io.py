"""Deterministic file emission: CSV, JSON, aligned text and minimal SVG.

Identical inputs must produce byte-identical outputs, so everything is
formatted through one float formatter, JSON keys are sorted, and the SVG
writer emits plain hand-assembled markup with no timestamps or random ids.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bb84 import DetectionTable, GTermAnalysis
from .compensation import CompensationPlan, precompensate_input
from .core import LinkParams, MzConfig, effective_kappa
from .design import DesignReport
from .errors import ConfigError
from .spectra import SpectrumCurve
from .units import C0


def fmt(value) -> str:
    """Shortest stable decimal form of a number."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def atomic_write_text(path: str, text: str) -> None:
    """Write the full text, then move it into place in one step.

    The file gets the permissions a plain ``open`` would give it (0o666 less
    the umask), not the 0o600 of the temporary file it is written through.
    A path that cannot be written raises ConfigError and leaves no file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-mzqkd-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


def emit(text: str, path: str | None) -> None:
    """Write to a file atomically, or to stdout when no path is given."""
    if path is None or path == "-":
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        atomic_write_text(path, text)


def csv_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


def link_as_dict(params: LinkParams) -> dict:
    """The SI-unit link inputs that every command with JSON output reads.

    Each JSON output embeds these plus the settings of its own command, for
    reproducibility; a setting the command does not read is left out, so
    that the output does not change with it.
    """
    return {
        "lambda0_m": params.lambda0,
        "delta_lambda_m": params.delta_lambda,
        "dispersion_s_per_m2": params.dispersion,
        "fiber_length_m": params.fiber_length,
        "leg_length_m": params.leg_length,
        "convention": params.convention,
        "c0_m_per_s": C0,
    }


def to_json(payload: Mapping) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- reports

def design_report_text(report: DesignReport) -> str:
    rows = [
        ("rho", fmt(report.rho), ""),
        ("visibility", fmt(report.visibility), ""),
        ("min_phase_sum", fmt(report.min_phase_sum), "m"),
        ("max_rate_linear", fmt(report.max_rate_linear), "Hz"),
        ("max_rate_nonlinear", fmt(report.max_rate_nonlinear), "Hz"),
        ("max_rate_general", fmt(report.max_rate_general), "Hz"),
        ("safety_factor", fmt(report.safety_factor), ""),
    ]
    if report.actual_phase_sum is not None:
        rows.append(("actual_phase_sum", fmt(report.actual_phase_sum), "m"))
        rows.append(("gate_window", fmt(report.gate_window), "s"))
    width = max(len(name) for name, _, _ in rows)
    return "".join(f"{name:<{width}}  {value} {unit}".rstrip() + "\n"
                   for name, value, unit in rows)


def design_report_json(report: DesignReport, params: LinkParams,
                       config: MzConfig) -> str:
    payload = {
        "config_si": {**link_as_dict(params),
                      "t_rising_s": config.t_rising, "t_falling_s": config.t_falling},
        "report": {
            "rho": report.rho,
            "visibility": report.visibility,
            "min_phase_sum_m": report.min_phase_sum,
            "max_rate_linear_hz": report.max_rate_linear,
            "max_rate_nonlinear_hz": report.max_rate_nonlinear,
            "max_rate_general_hz": report.max_rate_general,
            "gate_window_s": report.gate_window,
            "actual_phase_sum_m": report.actual_phase_sum,
            "safety_factor": report.safety_factor,
        },
    }
    return to_json(payload)


def sweep_csv(columns: Mapping[str, np.ndarray]) -> str:
    header = ["length_km", "min_phase_sum_m", "rate_linear_hz",
              "rate_nonlinear_hz", "rate_general_hz"]
    body = zip(columns["length_m"] / 1e3, *(columns[name] for name in header[1:]))
    return csv_table(header, body)


# ----------------------------------------------------------------- curves

def curve_arrays(curve: SpectrumCurve, normalize: str = "absolute",
                 relative_axis: bool = False):
    x = curve.x_relative if relative_axis else curve.x
    yo, yp = curve.intensity_o, curve.intensity_p
    if normalize == "peak":
        peak = max(float(yo.max()), float(yp.max()))
        if peak > 0:
            yo, yp = yo / peak, yp / peak
    elif normalize != "absolute":
        raise ValueError("normalize must be 'absolute' or 'peak'")
    return x, yo, yp


def curve_csv(curve: SpectrumCurve, normalize: str = "absolute",
              relative_axis: bool = False) -> str:
    x, yo, yp = curve_arrays(curve, normalize, relative_axis)
    unit = "per_m" if normalize == "absolute" else "peak_normalized"
    header = ["x_m" if not relative_axis else "x_offset_m",
              f"intensity_o_{unit}", f"intensity_p_{unit}"]
    return csv_table(header, zip(x, yo, yp))


def curve_json(curve: SpectrumCurve, normalize: str = "absolute",
               relative_axis: bool = False) -> str:
    x, yo, yp = curve_arrays(curve, normalize, relative_axis)
    params, config = curve.derived.params, curve.derived.config
    payload = {
        "config_si": {**link_as_dict(params),
                      "group_index": params.group_index,
                      "t_fiber": params.t_fiber,
                      "t_leg": params.t_leg,
                      "delta_d_m": config.delta_d,
                      "delta_m_m": config.delta_m,
                      "delta_c_m": config.delta_c},
        "derived": {
            "delta_k_per_m": curve.derived.delta_k,
            "kappa_m": curve.derived.kappa,
            "delta1_m2": curve.derived.delta1,
            "gamma": curve.derived.gamma,
            "sigma_m": curve.derived.sigma,
            "fwhm_m": curve.derived.fwhm,
            "mu_m": dict(curve.derived.mu),
            "window_center_m": curve.derived.window_center,
        },
        "normalize": normalize,
        "relative_axis": relative_axis,
        "x": [float(v) for v in x],
        "intensity_o": [float(v) for v in yo],
        "intensity_p": [float(v) for v in yp],
    }
    return to_json(payload)


# ------------------------------------------------------------------ bb84

def detection_table_csv(table: DetectionTable) -> str:
    header = ["alice_basis", "bit", "bob_basis", "phi_d_m", "phi_m_m",
              "p_o", "p_p"]
    body = [(r.alice_basis, r.bit, r.bob_basis, r.phi_d, r.phi_m, r.p_o, r.p_p)
            for r in table.rows]
    return csv_table(header, body)


def detection_table_json(table: DetectionTable, params: LinkParams) -> str:
    payload = {
        "baseline_m": table.baseline,
        "link_length_m": table.link_length,
        "warning": table.warning,
        "convention": params.convention,
        "rows": [{
            "alice_basis": r.alice_basis, "bit": r.bit, "bob_basis": r.bob_basis,
            "phi_d_m": r.phi_d, "phi_m_m": r.phi_m,
            "p_o": r.p_o, "p_p": r.p_p,
        } for r in table.rows],
    }
    return to_json(payload)


def gterm_csv(analysis: GTermAnalysis) -> str:
    header = ["length_km", "g_per_m", "second_term"]
    body = zip(analysis.lengths / 1e3, analysis.g_values, analysis.second_terms)
    text = csv_table(header, body)
    text += f"# argmax_length_m,{fmt(analysis.argmax_length)}\n"
    text += f"# analytic_argmax_m,{fmt(analysis.analytic_argmax)}\n"
    return text


# ------------------------------------------------------------------ plans

def plan_json(plan: CompensationPlan, params: LinkParams) -> str:
    dcf = None
    if plan.regime != "no_dcf":
        element = precompensate_input(params, plan)
        dcf = {
            "kappa_cp_m": effective_kappa(params),
            "l_cp_m": plan.dcf_equivalent_length,
            "t_cp": element.t_cp,
            "b_cp_m2": element.b_cp,
        }
    payload = {
        "regime": plan.regime,
        "clock_rate_hz": plan.clock_rate,
        "link_length_m": plan.link_length,
        "active_length_m": plan.active_length,
        "dcf_equivalent_length_m": plan.dcf_equivalent_length,
        "dcf_params": dcf,
        "phase_sum_requirement_m": plan.phase_sum_requirement,
        "rho": plan.rho,
        "mode": plan.mode,
        "safety_factor": plan.safety_factor,
        "t_rising_s": plan.t_rising,
        "t_falling_s": plan.t_falling,
        "convention": params.convention,
    }
    return to_json(payload)


def plan_text(plan: CompensationPlan, params: LinkParams) -> str:
    lines = [
        f"regime                  {plan.regime}",
        f"clock_rate              {fmt(plan.clock_rate)} Hz",
        f"link_length             {fmt(plan.link_length)} m",
        f"active_length           {fmt(plan.active_length)} m",
        f"dcf_equivalent_length   {fmt(plan.dcf_equivalent_length)} m",
        f"phase_sum_requirement   {fmt(plan.phase_sum_requirement)} m",
    ]
    if plan.regime != "no_dcf":
        b_cp = precompensate_input(params, plan).b_cp
        lines.append(f"dcf kappa_cp*l_cp       {fmt(b_cp)} m^2")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- svg

def svg_line_chart(series: Sequence[tuple[str, np.ndarray, np.ndarray]],
                   x_label: str, y_label: str) -> str:
    """Minimal deterministic 640 x 420 line chart; one polyline per named series."""
    if not series:
        raise ValueError("chart needs at least one series")
    width, height, margin = 640, 420, 60
    inner_w, inner_h = width - 2 * margin, height - 2 * margin
    x_min = min(float(np.min(x)) for _, x, _ in series)
    x_max = max(float(np.max(x)) for _, x, _ in series)
    y_min = min(float(np.min(y)) for _, _, y in series)
    y_max = max(float(np.max(y)) for _, _, y in series)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def sx(v):
        return margin + (v - x_min) / (x_max - x_min) * inner_w

    def sy(v):
        return height - margin - (v - y_min) / (y_max - y_min) * inner_h

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{margin}" y="{margin}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4
        yv = y_min + (y_max - y_min) * i / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" '
                     f'font-size="11" text-anchor="middle">{fmt(xv)}</text>')
        parts.append(f'<text x="{margin - 6}" y="{sy(yv):.1f}" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle">{fmt(yv)}</text>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{height / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 {height / 2:.1f})">'
                 f'{y_label}</text>')
    for idx, (name, xs, ys) in enumerate(series):
        color = colors[idx % len(colors)]
        points = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                          for a, b in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{width - margin - 4}" y="{margin + 16 + 14 * idx}" '
                     f'font-size="12" text-anchor="end" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
