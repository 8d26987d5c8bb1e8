import json
import os
import stat

import numpy as np
import pytest

from mzqkd import io as io_mod
from mzqkd.bb84 import detection_table, g_term_analysis
from mzqkd.compensation import plan
from mzqkd.core import LinkParams, MzConfig
from mzqkd.design import build_design_report, sweep_lengths
from mzqkd.spectra import GridSpec, eval_analytic

CAL = LinkParams(fiber_length=50e3, convention="calibrated")
MZ = MzConfig()


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


def test_csv_table_header_and_rows():
    text = io_mod.csv_table(["a_m", "b_hz"], [(1.0, 2.0), (3.0, 4.0)])
    lines = text.strip().split("\n")
    assert lines[0] == "a_m,b_hz"
    assert len(lines) == 3


def test_design_report_serializations():
    report = build_design_report(CAL, MZ, 3.0, actual_phase_sum=0.5)
    text = io_mod.design_report_text(report)
    assert "min_phase_sum" in text and "gate_window" in text
    payload = json.loads(io_mod.design_report_json(report, CAL, MZ))
    assert payload["config_si"]["convention"] == "calibrated"
    assert payload["report"]["min_phase_sum_m"] == pytest.approx(0.423, rel=5e-3)


def test_sweep_csv_units_in_header():
    rows = sweep_lengths(CAL, MZ, 3.0, np.linspace(50e3, 100e3, 3))
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
