"""Deterministic file emission: CSV, JSON, aligned text and minimal SVG.

Identical inputs must produce byte-identical outputs, so each number form
has one spelling: ``%.12g`` in CSV and text (``fmt``), ``float.__repr__`` in
JSON (as ``json`` writes it) and ``%.2f`` for SVG coordinates.  JSON keys are
sorted, and the SVG writer emits plain hand-assembled markup with no
timestamps or random ids.  Float arrays are formatted a chunk of rows at a
time (``format_rows``) or by ``json``'s C encoder (``json_array``), not by
one Python call per value.  SVG coordinates are written from numpy digit
tables: each is rounded to hundredths against its exact binary value, as
``%.2f`` rounds it.  They take ``svg_line_chart``'s coordinates, each in the
plot box [60, 580] x [60, 360] or NaN (where a span overflows); a chunk
holding a NaN goes through ``format_rows``.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from typing import Mapping, Sequence

import numpy as np

from .bb84 import DetectionTable, GTermAnalysis
from .compensation import CompensationPlan, precompensate_input
from .core import PAIRS, LinkParams, effective_kappa
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


# Rows per chunk of format_rows: the lists of one chunk stay small, so the
# whole table never exists as Python floats at once.
CHUNK_ROWS = 512


def format_rows(row_format: str, columns: Sequence) -> str:
    """Each row of equal-length float columns through one %-format, concatenated.

    ``"%.12g" % v`` and ``format(v, ".12g")`` take the same double-to-string
    path (``-0``, ``nan`` and ``inf`` included), so a CSV value reads as
    ``fmt`` writes it.  Each chunk of rows becomes Python floats through one
    ``tolist()``.
    """
    table = np.array(columns, dtype=float)
    chunks = (zip(*table[:, start:start + CHUNK_ROWS].tolist())
              for start in range(0, table.shape[1], CHUNK_ROWS))
    return "".join(map(row_format.__mod__, itertools.chain.from_iterable(chunks)))


def float_csv(header: Sequence[str], columns: Sequence) -> str:
    """A CSV table of float columns, each value as ``fmt`` writes it."""
    row_format = ",".join(["%.12g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + format_rows(row_format, columns)


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


def json_array(values) -> str:
    """A float list as ``to_json`` writes it under a top-level key.

    ``indent=2`` sends ``json`` through its pure-Python encoder; these
    separators give the same text from the C encoder, ``NaN`` and
    ``Infinity`` included.
    """
    values = np.asarray(values, dtype=float).tolist()
    if not values:
        return "[]"
    return "[\n    " + json.dumps(values, separators=(",\n    ", ": "))[1:-1] + "\n  ]"


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


def design_report_json(report: DesignReport, params: LinkParams) -> str:
    payload = {
        "config_si": {**link_as_dict(params),
                      "t_rising_s": report.t_rising, "t_falling_s": report.t_falling},
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
    return float_csv(header, [columns["length_m"] / 1e3,
                              *(columns[name] for name in header[1:])])


# ----------------------------------------------------------------- curves

def curve_arrays(curve: SpectrumCurve, normalize: str = "absolute",
                 relative_axis: bool = False):
    """The printed axis and intensities; absolute ones take the link's transmission once."""
    x = curve.x_relative if relative_axis else curve.x
    yo, yp = curve.intensity_o, curve.intensity_p
    if normalize == "absolute":
        t = curve.derived.params.transmission
        yo, yp = yo * t, yp * t
    elif normalize == "peak":
        peak = max(float(yo.max()), float(yp.max()))
        if peak > 0:
            yo, yp = yo / peak, yp / peak
    else:
        raise ConfigError("normalize must be 'absolute' or 'peak'")
    return x, yo, yp


def curve_csv(curve: SpectrumCurve, normalize: str = "absolute",
              relative_axis: bool = False) -> str:
    x, yo, yp = curve_arrays(curve, normalize, relative_axis)
    unit = "per_m" if normalize == "absolute" else "peak_normalized"
    header = ["x_m" if not relative_axis else "x_offset_m",
              f"intensity_o_{unit}", f"intensity_p_{unit}"]
    return float_csv(header, [x, yo, yp])


def curve_json(curve: SpectrumCurve, normalize: str = "absolute",
               relative_axis: bool = False) -> str:
    x, yo, yp = curve_arrays(curve, normalize, relative_axis)
    params, config = curve.derived.params, curve.config
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
            "mu_m": {pair: curve.derived.origin + pair_sum
                     for pair, pair_sum in zip(PAIRS, config.pair_sums)},
            "window_center_m": curve.window_center,
        },
        "normalize": normalize,
        "relative_axis": relative_axis,
    }
    # Each array key first holds its own name; the text is cut at those lines
    # and joined once with the arrays in their place.
    arrays = {"x": x, "intensity_o": yo, "intensity_p": yp}
    rest = to_json({**payload, **{name: name for name in arrays}})
    pieces = []
    for name in sorted(arrays):
        head, rest = rest.split(f'\n  "{name}": "{name}"', 1)
        pieces += [head, f'\n  "{name}": ', json_array(arrays[name])]
    return "".join(pieces + [rest])


# ------------------------------------------------------------------ bb84

def detection_table_csv(table: DetectionTable) -> str:
    """One row per setting through one %-format; the numbers as ``fmt`` writes them."""
    return "alice_basis,bit,bob_basis,phi_d_m,phi_m_m,p_o,p_p\n" + "".join(
        "%s,%d,%s,%.12g,%.12g,%.12g,%.12g\n"
        % (r.alice_basis, r.bit, r.bob_basis, r.phi_d, r.phi_m, r.p_o, r.p_p)
        for r in table.rows)


def detection_table_json(table: DetectionTable, params: LinkParams) -> str:
    """The table as ``to_json`` writes it, through json's C encoder.

    ``indent=2`` takes the pure-Python encoder; the separators below carry
    the indentation instead, as in ``json_array``.  The rows are flat
    records, so the one break between two of them, "},\n" and the record
    indent, occurs in no string the encoder writes.
    """
    payload = {
        "baseline_m": table.baseline,
        "link_length_m": table.link_length,
        "warning": table.warning,
        "convention": params.convention,
        "rows": "rows",
    }
    rows = "[]"
    if table.rows:
        text = json.dumps([{
            "alice_basis": r.alice_basis, "bit": r.bit, "bob_basis": r.bob_basis,
            "phi_d_m": r.phi_d, "phi_m_m": r.phi_m,
            "p_o": r.p_o, "p_p": r.p_p,
        } for r in table.rows], sort_keys=True, separators=(",\n      ", ": "))
        rows = ("[\n    {\n      " + text[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
                + "\n    }\n  ]")
    body = json.dumps(payload, sort_keys=True, separators=(",\n  ", ": "))[1:-1]
    return "{\n  " + body.replace('"rows": "rows"', '"rows": ' + rows, 1) + "\n}\n"


def gterm_csv(analysis: GTermAnalysis) -> str:
    header = ["length_km", "g_per_m", "second_term"]
    text = float_csv(header, [analysis.lengths / 1e3, analysis.g_values,
                              analysis.second_terms])
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
            "t_cp": 1.0,  # the element is lossless (``precompensate_input``)
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

# Rows per chunk of the polyline writer: a 4096-point series is one chunk,
# and a longer one never holds more than one chunk's digit table.
SVG_CHUNK_ROWS = 4096

# "00" to "99" as rows of ASCII codes
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(),
                             dtype=np.uint8).reshape(100, 2)


def _hundredths(a: np.ndarray) -> np.ndarray:
    """Plot-box coordinates a >= 0 rounded to int64 hundredths as "%.2f" rounds them.

    100 a stays far below 2**52, where every half-integer is a float, so
    rint(100 a) is the nearest integer to the exact product unless the
    rounded product hi is a half-integer.  There the exact product is taken
    as hi + lo (Dekker's TwoProduct, Numer. Math. 18 (1971) 224, with the
    2**27 + 1 split; 100 needs none) and the sign of lo decides; lo == 0 is
    an exact tie, which rint rounds to even, as "%.2f" does.
    """
    hi = a * 100.0
    n = np.rint(hi)
    tie = np.abs(hi - n) == 0.5
    if tie.any():
        a, hi = a[tie], hi[tie]
        big = a * 134217729.0
        a_hi = big - (big - a)
        lo = (a_hi * 100.0 - hi) + (a - a_hi) * 100.0
        n[tie] = np.where(lo == 0.0, n[tie], hi + np.copysign(0.5, lo))
    return n.astype(np.int64)


def _exact_points(xy: np.ndarray) -> str:
    """"x,y " per row of an (n, 2) array, each coordinate as "%.2f" writes it.

    The text is a uint8 table with one row per point: per plot-box coordinate
    (non-negative, so unsigned) the integer digits right-aligned in a
    NUL-padded field, the point, two decimals and a separator.  Dropping the
    NULs leaves the text.  Integer digits come from int64 division by a
    scalar, numpy's fast path; an array of divisors ran several times slower.
    """
    cents = _hundredths(xy)
    whole = cents // 100
    width = len(str(int(whole.max())))
    digits = np.empty(xy.shape + (width + 4,), dtype=np.uint8)
    rest = whole // 10
    digits[:, :, width - 1] = whole - 10 * rest + ord("0")   # the ones digit always shows
    for column in range(width - 2, -1, -1):
        # a digit above the leading one is padding
        higher = rest // 10
        digits[:, :, column] = np.where(rest > 0, rest - 10 * higher + ord("0"), 0)
        rest = higher
    digits[:, :, width] = ord(".")
    digits[:, :, width + 1:width + 3] = np.take(_DIGIT_PAIRS, cents - 100 * whole, axis=0)
    digits[:, 0, width + 3] = ord(",")
    digits[:, 1, width + 3] = ord(" ")
    flat = digits.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def _polyline_points(xy: np.ndarray) -> str:
    """The points text "x,y x,y ..." of (n, 2) plot-box coordinates or NaN, "%.2f,%.2f" a row."""
    pieces = []
    for start in range(0, len(xy), SVG_CHUNK_ROWS):
        chunk = xy[start:start + SVG_CHUNK_ROWS]
        if np.isfinite(chunk).all():
            pieces.append(_exact_points(chunk))
        else:
            pieces.append(format_rows("%.2f,%.2f ", chunk.T))
    return "".join(pieces)[:-1]


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

    # Screen coordinates of a float or a float64 array, by the same operations
    # in the same order.  A zero span raises ZeroDivisionError at the first
    # tick label, before any array is scaled.
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
        # v - min rounds to at most max - min: a finite coordinate is in the plot box
        with np.errstate(all="ignore"):  # as Python float arithmetic: no warnings
            xy = np.stack((sx(np.asarray(xs, dtype=float)), sy(np.asarray(ys, dtype=float))),
                          axis=1)
        points = _polyline_points(xy)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{width - margin - 4}" y="{margin + 16 + 14 * idx}" '
                     f'font-size="12" text-anchor="end" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
