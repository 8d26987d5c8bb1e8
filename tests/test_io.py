import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzqkd import io as io_mod
from mzqkd import spelling
from mzqkd.bb84 import default_baseline, detection_table, g_term_analysis
from mzqkd.cli import main
from mzqkd.compensation import plan
from mzqkd.config import RunConfig
from mzqkd.core import LinkParams, MzConfig
from mzqkd.design import build_design_report, sweep_lengths
from mzqkd.spectra import GridSpec, eval_analytic

CAL = LinkParams(fiber_length=50e3, convention="calibrated")
MZ = MzConfig()


# ------------------------------------------- reference formatters (test-only)
# The array formatters as they were before they worked a chunk of rows at a
# time: one Python call per value.  The property tests below hold the array
# formatters to these.

def reference_csv_table(header, rows):
    """The header, then each row with fmt on each value that is not a string."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(io_mod.fmt(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


def reference_float_csv(header, columns):
    """reference_csv_table over the zipped columns."""
    return reference_csv_table(header, zip(*columns))


def reference_polylines(series):
    """The points of each polyline of svg_line_chart, through sx/sy one float at a time."""
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

    return [" ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(xs, ys))
            for _, xs, ys in series]


def reference_curve_json(curve, normalize="absolute", relative_axis=False):
    """curve_json with the arrays as lists of floats through the indent=2 encoder.

    The small part of the payload is read back from curve_json's own output;
    the three arrays come from curve_arrays, one ``float`` per value.
    """
    payload = json.loads(io_mod.curve_json(curve, normalize, relative_axis))
    x, yo, yp = io_mod.curve_arrays(curve, normalize, relative_axis)
    payload.update(x=[float(v) for v in x], intensity_o=[float(v) for v in yo],
                   intensity_p=[float(v) for v in yp])
    return io_mod.to_json(payload)


# Values whose text is easy to get wrong: signed zeros, subnormals, the ends
# of the float range, integral floats, non-finite values.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
           1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0, 12345.0, 2.0**53, 1e12,
           1e15, 0.1, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(),
                   st.integers(-2**60, 2**60).map(float))


def row_counts(n_columns):
    """Row counts of an n_columns table on both sides of each edge of the
    writers: format_rows' chunk, the kernels' size cut and their chunk."""
    cut = -(-io_mod.KERNEL_MIN_VALUES // n_columns)   # the fewest rows through a kernel
    chunk = max(1, io_mod.KERNEL_CHUNK_VALUES // n_columns)
    return [0, 1, 2, cut - 1, cut, io_mod.CHUNK_ROWS - 1, io_mod.CHUNK_ROWS,
            io_mod.CHUNK_ROWS + 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def columns(draw, n_columns, nonempty=False):
    """An (n_columns, rows) float64 table of up to 32 drawn values, placed at random."""
    n = draw(st.sampled_from(row_counts(n_columns)[nonempty:]))
    pool = np.array(draw(st.lists(FLOATS, min_size=1, max_size=32)))
    seed = draw(st.integers(0, 2**32 - 1))
    return pool[np.random.default_rng(seed).integers(0, pool.size, (n_columns, n))]


@PROPERTY
@given(st.integers(1, 5).flatmap(columns))
def test_float_csv_matches_reference(table):
    header = [f"c{i}" for i in range(len(table))]
    assert io_mod.float_csv(header, list(table)) == reference_float_csv(header, list(table))


@PROPERTY
@given(columns(1))
def test_json_array_is_the_indent_2_text(values):
    expected = json.dumps({"k": [float(v) for v in values[0]]}, indent=2)
    assert '{\n  "k": ' + io_mod.json_array(values[0]) + "\n}" == expected


@PROPERTY
@given(columns(3))
def test_curve_csv_and_json_match_references(table):
    curve = dataclasses.replace(eval_analytic(CAL, MZ, GridSpec(n_points=2)),
                                x_relative=table[0], intensity_o=table[1],
                                intensity_p=table[2])
    header = ["x_offset_m", "intensity_o_per_m", "intensity_p_per_m"]
    assert io_mod.curve_csv(curve, relative_axis=True) == reference_float_csv(header, table)
    assert (io_mod.curve_json(curve, relative_axis=True)
            == reference_curve_json(curve, relative_axis=True))


@PROPERTY
@given(st.integers(1, 2).flatmap(
    lambda k: st.lists(columns(2, nonempty=True), min_size=k, max_size=k)))
def test_svg_polylines_match_per_point_reference(tables):
    series = [(f"s{i}", xs, ys) for i, (xs, ys) in enumerate(tables)]
    try:
        expected = reference_polylines(series)
    except ZeroDivisionError:  # a span that adding 1.0 cannot widen
        with pytest.raises(ZeroDivisionError):
            io_mod.svg_line_chart(series, "x", "y")
        return
    text = io_mod.svg_line_chart(series, "x", "y")
    assert re.findall(r'points="([^"]*)"', text) == expected


# --------------------------------------------- the polyline writer's kernel

def reference_points(xy):
    """The points text of an (n, 2) array, "%.2f" on each float."""
    return " ".join("%.2f,%.2f" % (float(a), float(b)) for a, b in xy)


# svg_line_chart's coordinates lie in the plot box [60, 580] x [60, 360] or
# are NaN; the kernel is held to "%.2f" on non-negative values.
HALVES = (np.arange(0, 100_001, 37) + 0.5) / 100   # nearest floats to (k + 0.5)/100
ODD_EIGHTHS = (2.0 * np.arange(0, 4001, 7) + 1.0) / 8  # 100 v ends in exactly .5
# One table per case; each row pairs a value with the reversed table's value.
EXACT_CASES = {
    "neighbours-of-half-hundredths": np.concatenate(
        (np.nextafter(HALVES, -np.inf), HALVES, np.nextafter(HALVES, np.inf))),
    "exact-binary-ties": np.concatenate(
        (ODD_EIGHTHS, 1e10 + ODD_EIGHTHS, np.nextafter(ODD_EIGHTHS, 0.0))),
    "nan": np.array([np.nan, 60.0, 0.125, 580.0, 360.0]),
}


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_polyline_points_exact(monkeypatch, case):
    values = EXACT_CASES[case]
    xy = np.stack((values, values[::-1]), axis=1)
    fallback = []
    monkeypatch.setattr(io_mod, "format_rows",
                        lambda *args: fallback.append(args) or reference_points(args[1].T) + " ")
    assert io_mod._polyline_points(xy) == reference_points(xy)
    # only a chunk with a NaN leaves the tables
    assert len(fallback) == (not np.isfinite(values).all())


@pytest.mark.parametrize("rows", [0, 1, io_mod.SVG_CHUNK_ROWS - 1, io_mod.SVG_CHUNK_ROWS,
                                  io_mod.SVG_CHUNK_ROWS + 1])
@pytest.mark.parametrize("last", [0.125, np.nan], ids=["finite", "nan-in-last-chunk"])
def test_polyline_points_across_chunks(rows, last):
    pool = np.concatenate([table for name, table in EXACT_CASES.items() if name != "nan"])
    xy = np.random.default_rng(rows).choice(pool, (rows, 2))
    if rows:
        xy[-1, 0] = last
    assert io_mod._polyline_points(xy) == reference_points(xy)


# Finite values with spans near the float maximum, and an optional NaN.
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 2.0**53, -2.0**53, 1e300, -1e300,
            8.98846567431158e307, -8.98846567431158e307, 1.7976931348623157e308,
            -1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def finite_series(draw):
    """An (2, rows) table of up to 16 drawn finite values, one entry maybe NaN."""
    n = draw(st.sampled_from([1, 2, 3, 64, io_mod.SVG_CHUNK_ROWS + 1]))
    pool = np.array(draw(st.lists(FINITE, min_size=1, max_size=16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = pool[rng.integers(0, pool.size, (2, n))]
    if draw(st.booleans()):
        table[rng.integers(0, 2), rng.integers(0, n)] = np.nan
    return table


@PROPERTY
@given(st.lists(finite_series(), min_size=1, max_size=2))
def test_svg_coordinates_stay_in_the_plot_box(tables):
    series = [(f"s{i}", xs, ys) for i, (xs, ys) in enumerate(tables)]
    try:
        expected = reference_polylines(series)
    except ZeroDivisionError:  # a span that adding 1.0 cannot widen
        with pytest.raises(ZeroDivisionError):
            io_mod.svg_line_chart(series, "x", "y")
        return
    points = re.findall(r'points="([^"]*)"', io_mod.svg_line_chart(series, "x", "y"))
    assert points == expected
    for text in points:
        for pair in text.split(" "):
            x, y = (float(v) for v in pair.split(","))
            assert math.isnan(x) or 60.0 <= x <= 580.0
            assert math.isnan(y) or 60.0 <= y <= 360.0


def test_sweep_and_gterm_csv_match_reference():
    # sweep has 5 columns and gterm 3: row counts on both sides of the
    # kernels' size cut and chunk edge for each, and the CLI's default sizes
    header = ["length_km", "min_phase_sum_m", "rate_linear_hz", "rate_nonlinear_hz",
              "rate_general_hz"]
    for n in sorted(set(row_counts(5)[1:] + [46])):
        rows = sweep_lengths(CAL, 3.0, np.linspace(0.0, 500e3, n))
        assert io_mod.sweep_csv(rows) == reference_float_csv(
            header, [rows["length_m"] / 1e3, *(rows[name] for name in header[1:])]), n
    for n in sorted(set(row_counts(3)[1:] + [4001])):
        analysis = g_term_analysis(CAL, np.linspace(50.0, 10e3, n), delta_c=0.1)
        body = reference_float_csv(["length_km", "g_per_m", "second_term"],
                                   [analysis.lengths / 1e3, analysis.g_values,
                                    analysis.second_terms])
        assert io_mod.gterm_csv(analysis).startswith(body), n


# ---------------------------------------------------- the array kernels
# float_csv and json_array spell tables of KERNEL_MIN_VALUES values or more
# with numpy kernels; these hold the kernels to Python's own spelling over
# seeded families of values, each of a different way to get a digit wrong.

def _decade_edges():
    """Values of the notation edges and three-digit exponents, and just below
    the powers of ten that 12 and 17 digits round up to."""
    rng = np.random.default_rng(7)
    exponents = np.array([-5, -4, 11, 12, 15, 16, -100, 100, -280, 279, -307, 307])
    uniform = rng.uniform(1.0, 10.0, (exponents.size, 4000)) * 10.0 ** exponents[:, None]
    shy = 1.0 - np.array([1e-16, 4e-16, 5e-16, 6e-16, 4.9e-13, 5e-13, 5.1e-13, 1e-12])
    below = 10.0 ** (exponents[:, None] + 1.0) * shy
    return np.concatenate([uniform.ravel(), below.ravel(), -uniform.ravel()])


def _kernel_families():
    rng = np.random.default_rng(2006)
    n = 100_000
    sign = rng.choice([-1.0, 1.0], n)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return {
        "bit-patterns": rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        "decades": 10.0 ** rng.uniform(-20.0, 20.0, n) * sign,
        "powers-of-ten": np.concatenate([np.nextafter(powers, -np.inf), powers,
                                         np.nextafter(powers, np.inf)]),
        # (2k + 1)/8 is exact: at 1e9 to 1e12 its 13th digit is an exact tie
        "binary-ties": (2.0 * rng.integers(4 * 10**9, 4 * 10**12, n) + 1.0) / 8.0,
        "short-decimals": rng.integers(0, 10**6, n) / 10.0 ** rng.integers(0, 9, n) * sign,
        "powers-of-two": np.ldexp(sign, rng.integers(-1074, 1024, n)),
        "notation-edges": _decade_edges(),
    }


KERNEL_FAMILIES = _kernel_families()


def assert_same_spelling(values, text, expected, separator):
    if text != expected:
        wrong = [(v, a, b) for v, a, b in zip(values.tolist(), text.split(separator),
                                               expected.split(separator)) if a != b]
        pytest.fail(f"{len(wrong)} values spelled differently (value, kernel, Python): "
                    f"{wrong[:5]}")


@pytest.mark.parametrize("family", list(KERNEL_FAMILIES))
def test_csv_kernel_is_percent_12g(family):
    values = KERNEL_FAMILIES[family]
    text = io_mod.float_csv(["v"], [values])
    assert_same_spelling(values, text, reference_float_csv(["v"], [values]), "\n")


@pytest.mark.parametrize("family", list(KERNEL_FAMILIES))
def test_json_kernel_is_float_repr(family):
    values = KERNEL_FAMILIES[family]
    expected = "[\n    " + ",\n    ".join(json.dumps(v) for v in values.tolist()) + "\n  ]"
    assert_same_spelling(values, io_mod.json_array(values), expected, ",\n    ")


def spy_on_kernels(monkeypatch):
    """Counts of the values each kernel was given and of those it left to Python."""
    counts = {"kernel": 0, "python": 0}

    def counted(function, key, size):
        def spy(*args):
            counts[key] += size(args)
            return function(*args)
        return spy

    for name in ("g12_chunk", "repr_chunk"):
        monkeypatch.setattr(spelling, name, counted(getattr(spelling, name), "kernel",
                                                    lambda args: args[0].size))
    for name in ("python_g12", "python_json"):
        monkeypatch.setattr(spelling, name, counted(getattr(spelling, name), "python",
                                                    lambda args: 1))
    return counts


@pytest.mark.parametrize("argv, values", [
    (("spectra", "--n-points", "4096", "--format", "json"), 3 * 4096),
    (("spectra", "--n-points", "4096", "--format", "json", "--normalize", "peak",
      "--relative-axis"), 3 * 4096),
    (("spectra", "--n-points", "4096", "--format", "csv"), 3 * 4096),
    (("gterm", "--steps", "4001"), 3 * 4001),
], ids=["spectra-json", "spectra-json-peak-relative", "spectra-csv", "gterm-csv"])
def test_kernels_spell_nearly_every_value(monkeypatch, argv, values):
    monkeypatch.delenv("MZQKD_CONFIG", raising=False)
    counts = spy_on_kernels(monkeypatch)
    cli_stdout(*argv)
    assert counts["kernel"] == values
    assert counts["python"] <= 0.01 * values


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


# sha256 of the CLI's stdout as the per-value formatters wrote it.  The
# spectra JSON is not pinned this way: its 17-digit floats carry the last bit
# of numpy's float64 exp, which differs between SIMD targets (libm's exp
# changes the JSON's hash); the next test checks its text.  Only the 500 km
# bb84 table carries that bit into 12 digits, so it accepts one hash per loop.
PINNED = {
    ("spectra", "--n-points", "4096", "--format", "csv"):
        "e81e2b279e0c230792f1ce4519e212914b2e6f4f9e41b738e5424ed6966d8995",
    # the analytic terms cut where their envelopes underflow, over 4 blocks
    # of the grid and in one
    ("spectra", "--length-km", "0", "--format", "csv"):
        "50934d7788632d732ea1643cf67a52c1b46d07ece610ff4c93d8615a72017e10",
    ("spectra", "--length-km", "1", "--n-points", "1024", "--format", "csv"):
        "7b900db01287113bfd605137055bb98c3c6073dd858e85c34c1e6a3638f7b7db",
    ("spectra", "--n-points", "4096", "--format", "svg-plot"):
        "1430d000ca514eecfe9fee279478e85257fa0a142534d2b9829e55d65a2e2201",
    ("spectra", "--n-points", "4096", "--format", "svg-plot", "--normalize", "peak",
     "--relative-axis"):
        "85156c737368f1767416a3cf2d1a2ce57699220e5e5c2312c1325a4a219450c0",
    ("gterm", "--steps", "4001"):
        "9a0d099bc78e7b51d1a2f30784f87ea28f8c0dd301706cc97f19f28186dd2e9d",
    ("gterm", "--steps", "4001", "--delta-c-m", "0.1"):
        "db3ccf52f7a1e18eff900ff6ad16a46a197a6b781ff93d73a7d98b364f5b6129",
    ("bb84", "--format", "csv"):
        "60b4334f6e73fdd43a47ffd6c63925b5a03877fbd192bda4f76289184916216a",
    # The 1e-7 shares of the bit-flip rows carry numpy's float64 exp into
    # their 10th digit: its AVX-512 loop and its AVX2 or baseline loop give
    # these two outputs.
    ("bb84", "--length-km", "500", "--convention", "calibrated", "--format", "csv"): (
        "938f9ddf4ebc01493a6a7411ab769e6711884f9104927fd817dc0a9758540bc8",
        "ca3e4d95e07294ca70066dd0f2a180e21b638ba93a40db6ece569423da5828e7"),
}


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_cli_output_is_pinned(monkeypatch, argv):
    monkeypatch.delenv("MZQKD_CONFIG", raising=False)
    pinned = PINNED[argv]
    accepted = (pinned,) if isinstance(pinned, str) else pinned
    assert hashlib.sha256(cli_stdout(*argv).encode()).hexdigest() in accepted


@pytest.mark.parametrize("extra", [(), ("--normalize", "peak", "--relative-axis")],
                         ids=["absolute", "peak-relative"])
def test_cli_spectra_json_matches_reference(monkeypatch, extra):
    monkeypatch.delenv("MZQKD_CONFIG", raising=False)
    text = cli_stdout("spectra", "--n-points", "4096", "--format", "json", *extra)
    config = RunConfig()
    curve = eval_analytic(config.link_params(), config.mz_config(), GridSpec(n_points=4096))
    normalize = "peak" if extra else "absolute"
    assert text == reference_curve_json(curve, normalize, relative_axis=bool(extra))


def test_fmt_is_stable():
    assert io_mod.fmt(0.5) == "0.5"
    assert io_mod.fmt(1) == "1"
    assert io_mod.fmt(np.float64(2.0)) == "2"
    assert io_mod.fmt(1.0 / 3.0) == io_mod.fmt(1.0 / 3.0)


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    io_mod.atomic_write_text(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


def test_atomic_write_keeps_umask_permissions(tmp_path):
    target = tmp_path / "out.txt"
    previous = os.umask(0o022)
    try:
        io_mod.atomic_write_text(str(target), "payload\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


@pytest.mark.parametrize("params, baseline", [
    (CAL, 0.25),
    (LinkParams(fiber_length=0.0), 0.02),
    (LinkParams(fiber_length=500e3, convention="calibrated"), 2.5),
    (LinkParams(fiber_length=1e3, lambda0=1310e-9), 0.05),
], ids=["50km-calibrated", "0km", "500km-calibrated", "1km-1310nm"])
def test_detection_table_csv_matches_reference(params, baseline):
    table = detection_table(params, baseline)
    header = ["alice_basis", "bit", "bob_basis", "phi_d_m", "phi_m_m", "p_o", "p_p"]
    rows = [(r.alice_basis, r.bit, r.bob_basis, r.phi_d, r.phi_m, r.p_o, r.p_p)
            for r in table.rows]
    assert io_mod.detection_table_csv(table) == reference_csv_table(header, rows)


def test_design_report_serializations():
    report = build_design_report(CAL, 3.0, actual_phase_sum=0.5)
    text = io_mod.design_report_text(report)
    assert "min_phase_sum" in text and "gate_window" in text
    payload = json.loads(io_mod.design_report_json(report, CAL))
    assert payload["config_si"]["convention"] == "calibrated"
    assert payload["report"]["min_phase_sum_m"] == pytest.approx(0.423, rel=5e-3)


def test_sweep_csv_units_in_header():
    rows = sweep_lengths(CAL, 3.0, np.linspace(50e3, 100e3, 3))
    text = io_mod.sweep_csv(rows)
    header = text.split("\n", 1)[0]
    assert header == ("length_km,min_phase_sum_m,rate_linear_hz,"
                      "rate_nonlinear_hz,rate_general_hz")


def test_curve_csv_and_json():
    curve = eval_analytic(CAL, MZ, GridSpec(n_points=64))
    text = io_mod.curve_csv(curve)
    assert text.startswith("x_m,intensity_o_per_m,intensity_p_per_m\n")
    assert len(text.strip().split("\n")) == 65
    peak = io_mod.curve_csv(curve, normalize="peak")
    assert "peak_normalized" in peak.split("\n", 1)[0]
    payload = json.loads(io_mod.curve_json(curve))
    assert payload["derived"]["gamma"] > 1.0
    assert len(payload["x"]) == 64
    with pytest.raises(ValueError):
        io_mod.curve_csv(curve, normalize="sideways")


def test_detection_table_csv_has_eight_rows():
    table = detection_table(CAL, baseline=0.25)
    text = io_mod.detection_table_csv(table)
    lines = text.strip().split("\n")
    assert len(lines) == 9
    assert lines[0].startswith("alice_basis,bit,bob_basis")
    payload = json.loads(io_mod.detection_table_json(table, CAL))
    assert len(payload["rows"]) == 8


@pytest.mark.parametrize("length_km", [0.0, 50.0, 500.0])
@pytest.mark.parametrize("convention", ["first_principles", "calibrated"])
@pytest.mark.parametrize("baseline_share", [1.0, 0.7], ids=["default", "warned"])
def test_detection_table_json_is_to_json(length_km, convention, baseline_share):
    params = LinkParams(fiber_length=length_km * 1e3, convention=convention)
    table = detection_table(params, baseline_share * default_baseline(params))
    # 0.7 of the default baseline fails the rho=3 bound on the longer links only
    assert (table.warning is not None) == (baseline_share < 1.0 and length_km > 0.0)
    payload = {
        "baseline_m": table.baseline,
        "link_length_m": table.link_length,
        "warning": table.warning,
        "convention": params.convention,
        "rows": [{"alice_basis": r.alice_basis, "bit": r.bit, "bob_basis": r.bob_basis,
                  "phi_d_m": r.phi_d, "phi_m_m": r.phi_m, "p_o": r.p_o, "p_p": r.p_p}
                 for r in table.rows],
    }
    assert io_mod.detection_table_json(table, params) == io_mod.to_json(payload)
    empty = dataclasses.replace(table, rows=())
    assert io_mod.detection_table_json(empty, params) == io_mod.to_json({**payload, "rows": []})


def test_gterm_csv_carries_summary():
    analysis = g_term_analysis(CAL, np.linspace(100.0, 3000.0, 30))
    text = io_mod.gterm_csv(analysis)
    assert "# argmax_length_m," in text
    assert "# analytic_argmax_m," in text


def test_plan_serializations():
    result = plan(CAL_405 := LinkParams(fiber_length=405e3, convention="calibrated"),
                  2.5e9, 3.0)
    payload = json.loads(io_mod.plan_json(result, CAL_405))
    assert payload["regime"] == "partial_dcf"
    assert payload["dcf_params"]["b_cp_m2"] > 0
    text = io_mod.plan_text(result, CAL_405)
    assert "partial_dcf" in text


def test_svg_chart_structure():
    x = np.linspace(0.0, 1.0, 20)
    text = io_mod.svg_line_chart([("series_a", x, x**2)], "x_m", "y")
    assert text.startswith("<svg ")
    assert "<polyline" in text and text.rstrip().endswith("</svg>")
    assert "series_a" in text
    with pytest.raises(ValueError):
        io_mod.svg_line_chart([], "x", "y")


def test_svg_chart_deterministic():
    x = np.linspace(0.0, 2.0, 50)
    a = io_mod.svg_line_chart([("s", x, np.sin(x))], "x", "y")
    b = io_mod.svg_line_chart([("s", x, np.sin(x))], "x", "y")
    assert a == b
