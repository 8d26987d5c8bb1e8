import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mzqkd
from mzqkd import bb84, core, spectra
from mzqkd.cli import _resolve_config, build_parser, main
from mzqkd.config import RunConfig, load_config_file
from mzqkd.units import C0

CALIBRATED = ["--convention", "calibrated"]
CAL = [*CALIBRATED, "--length-km", "50"]

# The RunConfig fields each subcommand reads, beside --format and --output
# that every command takes.  A flag for any other field exits 2.
DISPERSION = {"lambda0_nm", "delta_lambda_nm", "dispersion_ps_per_km_nm", "leg_length_m",
              "convention"}
SHIFTERS = {"delta_d_m", "delta_m_m", "delta_c_m"}
EDGES = {"t_rising_ns", "t_falling_ns", "detector_profile"}
READS = {
    "design": {"length_km", *DISPERSION, *EDGES, "rho", "safety_factor"},
    "sweep": {*DISPERSION, *EDGES, "rho", "safety_factor"},
    "spectra": {"length_km", *DISPERSION, "group_index", "t_fiber", "t_leg", *SHIFTERS,
                "normalize"},
    # group_index, t_fiber, t_leg and normalize act on --dump-spectra-dir only
    "bb84": {"length_km", *DISPERSION, "rho", "group_index", "t_fiber", "t_leg", "normalize"},
    "gterm": {*DISPERSION, "delta_c_m"},
    "compensate": {"length_km", *DISPERSION, "rho", "mode", *EDGES, "safety_factor"},
    "oracle-check": {*DISPERSION, *SHIFTERS},
}
EVERY_COMMAND = {"out_format", "out_path"}


def flag_of(setting) -> str:
    return setting.metadata["flag"] or "--" + setting.name.replace("_", "-")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesign:
    def test_reference_chain(self, capsys):
        code, out, _ = run(capsys, "design", *CAL, "--rho", "3", "--sum-m", "0.5")
        assert code == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.strip().split("\n")}
        assert values["min_phase_sum"] == pytest.approx(0.423, rel=5e-3)
        assert values["max_rate_linear"] == pytest.approx(710e6, rel=5e-3)
        assert values["max_rate_nonlinear"] == pytest.approx(473e6, rel=5e-3)
        assert values["gate_window"] == pytest.approx(0.962e-9, rel=1e-3)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "design", *CAL, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config_si"]["fiber_length_m"] == 50e3

    def test_invalid_rho_exits_2(self, capsys):
        code, _, err = run(capsys, "design", "--rho", "0")
        assert code == 2
        assert "rho" in err

    def test_infeasible_gate_exits_3(self, capsys):
        code, _, err = run(capsys, "design", "--length-km", "50", "--rho", "3",
                           "--sum-m", "0.01")
        assert code == 3
        assert "infeasible" in err

    def test_unsupported_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--format", "csv"])
        assert exc.value.code == 2
        assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [(), ("--sum-m", "0.5"), ("--format", "json"),
                                      ("--format", "json", "--sum-m", "0.5")],
                             ids=["text", "text-sum", "json", "json-sum"])
    def test_derives_the_pulse_once(self, capsys, monkeypatch, argv):
        # every bound of the report reads one far-end pulse width
        calls = []
        real = core.derive

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # the modules import derive by name, so it is patched wherever it is bound
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mzqkd" and getattr(module, "derive", None) is real:
                monkeypatch.setattr(module, "derive", spy)
        code, _, _ = run(capsys, "design", *CAL, "--t-rising-ns", "1", *argv)
        assert code == 0
        assert len(calls) == 1

    # The bounds use only math and correctly rounded float operations, so the
    # bytes do not depend on the CPU.
    EXACT_TEXT = """\
rho                 3
visibility          0.999977909503
min_phase_sum       0.42284645579 m
max_rate_linear     708986569.227 Hz
max_rate_nonlinear  472657712.818 Hz
max_rate_general    1417973138.45 Hz
safety_factor       1
actual_phase_sum    0.5 m
gate_window         9.62588498825e-10 s
"""
    EXACT_JSON = """\
{
  "config_si": {
    "c0_m_per_s": 299792458.0,
    "convention": "calibrated",
    "delta_lambda_m": 3.1e-10,
    "dispersion_s_per_m2": 1.6999999999999996e-05,
    "fiber_length_m": 50000.0,
    "lambda0_m": 1.5500000000000002e-06,
    "leg_length_m": 1.0,
    "t_falling_s": 0.0,
    "t_rising_s": 0.0
  },
  "report": {
    "actual_phase_sum_m": 0.5,
    "gate_window_s": 9.625884988249023e-10,
    "max_rate_general_hz": 1417973138.4540122,
    "max_rate_linear_hz": 708986569.2270061,
    "max_rate_nonlinear_hz": 472657712.8180041,
    "min_phase_sum_m": 0.4228464557895049,
    "rho": 3.0,
    "safety_factor": 1.0,
    "visibility": 0.9999779095030014
  }
}
"""

    @pytest.mark.parametrize("argv, expected", [
        (("--sum-m", "0.5"), EXACT_TEXT),
        (("--format", "json", "--sum-m", "0.5"), EXACT_JSON),
    ], ids=["text", "json"])
    def test_exact_output(self, capsys, argv, expected):
        code, out, err = run(capsys, "design", *CAL, *argv)
        assert (code, out, err) == (0, expected, "")

    def test_detector_profile(self, capsys):
        code_ideal, out_ideal, _ = run(capsys, "design", *CAL)
        code_slow, out_slow, _ = run(capsys, "design", *CAL,
                                     "--detector-profile", "snspd-5ns")
        assert code_ideal == code_slow == 0
        ideal = float(out_ideal.split("min_phase_sum")[1].split()[0])
        slow = float(out_slow.split("min_phase_sum")[1].split()[0])
        assert slow - ideal == pytest.approx(C0 * 5e-9, rel=1e-9)


class TestSweep:
    def test_rows_match_single_calls(self, capsys, tmp_path):
        # both commands apply the detector edges and the safety factor
        bounds = ["--safety-factor", "2", "--t-rising-ns", "1"]
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", *CALIBRATED, *bounds, "--l-min-km", "50",
                         "--l-max-km", "150", "--steps", "3",
                         "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0].startswith("length_km,")
        assert len(lines) == 4
        for line in lines[1:]:
            length_km, min_sum = line.split(",")[:2]
            code, out, _ = run(capsys, "design", *CALIBRATED, *bounds,
                               "--length-km", length_km, "--rho", "3")
            single = float(out.split("min_phase_sum")[1].split()[0])
            assert float(min_sum) == pytest.approx(single, rel=1e-12)

    def test_rate_times_length_constant(self, capsys):
        code, out, _ = run(capsys, "sweep", *CALIBRATED, "--l-min-km", "50",
                           "--l-max-km", "500", "--steps", "10")
        assert code == 0
        products = []
        for line in out.strip().split("\n")[1:]:
            cols = [float(v) for v in line.split(",")]
            products.append(cols[0] * cols[2])
        assert max(products) / min(products) - 1.0 < 0.01

    def test_svg_output(self, capsys):
        code, out, _ = run(capsys, "sweep", *CALIBRATED, "--l-min-km", "50",
                           "--l-max-km", "100", "--steps", "5",
                           "--format", "svg-plot")
        assert code == 0
        assert out.startswith("<svg ")

    # As the design bounds, the columns and the chart's coordinates come from
    # correctly rounded float operations only.
    EXACT_CSV = """\
length_km,min_phase_sum_m,rate_linear_hz,rate_nonlinear_hz,rate_general_hz
0,0.0104663145461,28643555157.9,19095703438.6,57287110315.9
250,6.7030363484,44724874.2835,29816582.8557,89449748.567
500,13.4060068165,22362547.036,14908364.6907,44725094.072
"""
    EXACT_SVG_SUM = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420">
<rect x="60" y="60" width="520" height="300" fill="none" stroke="#333333" stroke-width="1"/>
<text x="60.0" y="378" font-size="11" text-anchor="middle">0</text>
<text x="54" y="360.0" font-size="11" text-anchor="end" dominant-baseline="middle">0.0104663145461</text>
<text x="190.0" y="378" font-size="11" text-anchor="middle">125</text>
<text x="54" y="285.0" font-size="11" text-anchor="end" dominant-baseline="middle">3.35935144004</text>
<text x="320.0" y="378" font-size="11" text-anchor="middle">250</text>
<text x="54" y="210.0" font-size="11" text-anchor="end" dominant-baseline="middle">6.70823656554</text>
<text x="450.0" y="378" font-size="11" text-anchor="middle">375</text>
<text x="54" y="135.0" font-size="11" text-anchor="end" dominant-baseline="middle">10.057121691</text>
<text x="580.0" y="378" font-size="11" text-anchor="middle">500</text>
<text x="54" y="60.0" font-size="11" text-anchor="end" dominant-baseline="middle">13.4060068165</text>
<text x="320.0" y="408" font-size="13" text-anchor="middle">length_km</text>
<text x="16" y="210.0" font-size="13" text-anchor="middle" transform="rotate(-90 16 210.0)">min_phase_sum_m</text>
<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="60.00,360.00 320.00,210.12 580.00,60.00"/>
<text x="576" y="76" font-size="12" text-anchor="end" fill="#1f77b4">min_phase_sum_m</text>
</svg>
"""
    EXACT_SVG_RATE = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420">
<rect x="60" y="60" width="520" height="300" fill="none" stroke="#333333" stroke-width="1"/>
<text x="60.0" y="378" font-size="11" text-anchor="middle">0</text>
<text x="54" y="360.0" font-size="11" text-anchor="end" dominant-baseline="middle">22362547.036</text>
<text x="190.0" y="378" font-size="11" text-anchor="middle">125</text>
<text x="54" y="285.0" font-size="11" text-anchor="end" dominant-baseline="middle">7177660699.76</text>
<text x="320.0" y="378" font-size="11" text-anchor="middle">250</text>
<text x="54" y="210.0" font-size="11" text-anchor="end" dominant-baseline="middle">14332958852.5</text>
<text x="450.0" y="378" font-size="11" text-anchor="middle">375</text>
<text x="54" y="135.0" font-size="11" text-anchor="end" dominant-baseline="middle">21488257005.2</text>
<text x="580.0" y="378" font-size="11" text-anchor="middle">500</text>
<text x="54" y="60.0" font-size="11" text-anchor="end" dominant-baseline="middle">28643555157.9</text>
<text x="320.0" y="408" font-size="13" text-anchor="middle">length_km</text>
<text x="16" y="210.0" font-size="13" text-anchor="middle" transform="rotate(-90 16 210.0)">rate_hz</text>
<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="60.00,60.00 320.00,359.77 580.00,360.00"/>
<text x="576" y="76" font-size="12" text-anchor="end" fill="#1f77b4">rate_linear_hz</text>
</svg>
"""

    @pytest.mark.parametrize("argv, expected", [
        ((), EXACT_CSV),
        (("--format", "svg-plot"), EXACT_SVG_SUM),
        (("--format", "svg-plot", "--quantity", "rate"), EXACT_SVG_RATE),
    ], ids=["csv", "svg-phase-sum", "svg-rate"])
    def test_exact_output(self, capsys, argv, expected):
        code, out, err = run(capsys, "sweep", "--l-min-km", "0", "--l-max-km", "500",
                             "--steps", "3", *argv)
        assert (code, out, err) == (0, expected, "")

    def test_empty_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--l-min-km", "100", "--l-max-km", "50",
                         "--steps", "5")
        assert code == 2


class TestSpectraCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "spectra", *CAL, "--n-points", "256")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x_m,intensity_o_per_m,intensity_p_per_m"
        assert len(lines) == 257

    def test_relative_axis_and_peak_normalization(self, capsys):
        code, out, _ = run(capsys, "spectra", *CAL, "--n-points", "256",
                           "--relative-axis", "--normalize", "peak")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("x_offset_m,")
        peaks = max(float(line.split(",")[1]) for line in lines[1:])
        assert peaks == pytest.approx(1.0, rel=1e-12)

    def test_svg(self, capsys):
        code, out, _ = run(capsys, "spectra", *CAL, "--n-points", "128",
                           "--format", "svg-plot")
        assert code == 0
        assert "<polyline" in out


class TestBb84Command:
    def test_truth_table_has_eight_rows(self, capsys):
        code, out, _ = run(capsys, "bb84", *CAL, "--baseline-m", "0.25")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 9

    def test_warning_goes_to_stderr(self, capsys):
        code, _, err = run(capsys, "bb84", *CAL, "--baseline-m", "0.16")
        assert code == 0
        assert "separation bound" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bb84", *CAL, "--baseline-m", "0.25",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 8

    def test_spectra_dump(self, capsys, tmp_path):
        dump = tmp_path / "cells"
        code, _, _ = run(capsys, "bb84", *CAL, "--baseline-m", "0.25",
                         "--output", str(tmp_path / "table.csv"),
                         "--dump-spectra-dir", str(dump))
        assert code == 0
        files = sorted(p.name for p in dump.iterdir())
        assert len(files) == 8
        assert "aliceX0_bobX.csv" in files
        # the dump writes gridded curves beside the grid-free table, which it
        # leaves unchanged
        for name in files:
            lines = (dump / name).read_text().strip().split("\n")
            assert len(lines) == 4097
        code, _, _ = run(capsys, "bb84", *CAL, "--baseline-m", "0.25",
                         "--output", str(tmp_path / "plain.csv"))
        assert code == 0
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


    # The table's %.12g bytes.  The JSON's 17 digits follow numpy's exp on
    # each host and are not pinned.
    EXACT_TABLES = {
        ("--length-km", "50", "--baseline-m", "0.25"): """\
alice_basis,bit,bob_basis,phi_d_m,phi_m_m,p_o,p_p
X,0,X,0,0,0.999999999999,5.04830030168e-13
X,0,Z,0,3.875e-07,0.499999999872,0.500000000128
X,1,X,7.75e-07,0,9.60642795608e-08,0.999999903936
X,1,Z,7.75e-07,3.875e-07,0.499999999757,0.500000000243
Z,0,X,3.875e-07,0,0.499999999961,0.500000000039
Z,0,Z,3.875e-07,3.875e-07,0.999999999999,5.04774407735e-13
Z,1,X,1.1625e-06,0,0.499999999882,0.500000000118
Z,1,Z,1.1625e-06,3.875e-07,9.60635319765e-08,0.999999903936
""",
        ("--length-km", "500"): """\
alice_basis,bit,bob_basis,phi_d_m,phi_m_m,p_o,p_p
X,0,X,0,0,0.999999991072,8.92804639939e-09
X,0,Z,0,3.875e-07,0.500000000363,0.499999999637
X,1,X,7.75e-07,0,1.04971196202e-07,0.999999895029
X,1,Z,7.75e-07,3.875e-07,0.50000000035,0.49999999965
Z,0,X,3.875e-07,0,0.500000001071,0.499999998929
Z,0,Z,3.875e-07,3.875e-07,0.999999991072,8.92796755949e-09
Z,1,X,1.1625e-06,0,0.50000000085,0.49999999915
Z,1,Z,1.1625e-06,3.875e-07,1.04983254813e-07,0.999999895017
""",
    }

    @pytest.mark.parametrize("argv", list(EXACT_TABLES), ids=["50km-0.25m", "500km-default"])
    def test_exact_output(self, capsys, argv):
        code, out, err = run(capsys, "bb84", *CALIBRATED, *argv)
        assert code == 0
        assert err == ""
        assert out == self.EXACT_TABLES[argv]

    @pytest.mark.parametrize("losses", [("--t-leg", "1e-300"), ("--t-leg", "1e-160"),
                                        ("--t-fiber", "0.3", "--t-leg", "0.5")],
                             ids=["t-leg-1e-300", "t-leg-1e-160", "lossy"])
    def test_table_reads_no_transmittance(self, capsys, losses):
        # the shares are the lossless link's masses: a tiny t_leg^2 once
        # underflowed them to 0 and divided by their zero sum
        default = run(capsys, "bb84")
        assert default[0] == 0
        assert run(capsys, "bb84", *losses) == default


class TestGtermCommand:
    def test_csv_and_summary(self, capsys):
        code, out, _ = run(capsys, "gterm", "--l-min-km", "0.1",
                           "--l-max-km", "3", "--steps", "30")
        assert code == 0
        assert out.startswith("length_km,g_per_m,second_term")
        assert "# analytic_argmax_m," in out


class TestCompensateCommand:
    def test_partial_plan(self, capsys):
        code, out, _ = run(capsys, "compensate", "--convention", "calibrated",
                           "--length-km", "405", "--clock-ghz", "2.5",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "partial_dcf"
        assert payload["dcf_equivalent_length_m"] == pytest.approx(
            405e3 - payload["active_length_m"], abs=1e-6)

    @pytest.mark.parametrize("clock_ghz, regime", [("2.5", "partial_dcf"),
                                                   ("0.05", "no_dcf")])
    def test_requirement_is_design_bound_at_active_length(self, capsys, clock_ghz, regime):
        # the same detector edges and safety factor enter both bounds
        bounds = [*CALIBRATED, "--t-rising-ns", "4", "--safety-factor", "2"]
        code, out, _ = run(capsys, "compensate", *bounds, "--length-km", "405",
                           "--clock-ghz", clock_ghz, "--format", "json")
        assert code == 0
        plan = json.loads(out)
        assert plan["regime"] == regime
        code, out, _ = run(capsys, "design", *bounds, "--format", "json",
                           "--length-km", repr(plan["active_length_m"] / 1e3))
        assert code == 0
        assert plan["phase_sum_requirement_m"] == pytest.approx(
            json.loads(out)["report"]["min_phase_sum_m"], rel=1e-12)

    def test_json_records_the_inputs_of_the_requirement(self, capsys):
        plans = []
        for factor in ("1", "2"):
            code, out, _ = run(capsys, "compensate", "--length-km", "405", "--clock-ghz", "2.5",
                               "--t-rising-ns", "4", "--safety-factor", factor,
                               "--format", "json")
            assert code == 0
            plans.append(json.loads(out))
        inputs = [(p["rho"], p["mode"], p["safety_factor"], p["t_rising_s"], p["t_falling_s"])
                  for p in plans]
        assert inputs == [(3.0, "linear", 1.0, 4e-9, 0.0), (3.0, "linear", 2.0, 4e-9, 0.0)]
        assert plans[0]["phase_sum_requirement_m"] != plans[1]["phase_sum_requirement_m"]

    # Recorded before the compensating element became the plan's multiplier
    # alone.  The plan uses only math and np.sqrt (correctly rounded), so the
    # bytes do not depend on the CPU.
    PARTIAL_TEXT = """\
regime                  partial_dcf
clock_rate              2500000000 Hz
link_length             405000 m
active_length           14128.515002 m
dcf_equivalent_length   390871.484998 m
phase_sum_requirement   0.1199169832 m
dcf kappa_cp*l_cp       0.000120085847346 m^2
"""
    PARTIAL_JSON = """\
{
  "active_length_m": 14128.515002003373,
  "clock_rate_hz": 2500000000.0,
  "convention": "calibrated",
  "dcf_equivalent_length_m": 390871.48499799665,
  "dcf_params": {
    "b_cp_m2": 0.00012008584734611833,
    "kappa_cp_m": 3.072259091673925e-10,
    "l_cp_m": 390871.48499799665,
    "t_cp": 1.0
  },
  "link_length_m": 405000.0,
  "mode": "linear",
  "phase_sum_requirement_m": 0.11991698320000001,
  "regime": "partial_dcf",
  "rho": 3.0,
  "safety_factor": 1.0,
  "t_falling_s": 0.0,
  "t_rising_s": 0.0
}
"""
    NO_DCF_TEXT = """\
regime                  no_dcf
clock_rate              100000000 Hz
link_length             50000 m
active_length           50000 m
dcf_equivalent_length   0 m
phase_sum_requirement   1.34068938758 m
"""
    NO_DCF_JSON = """\
{
  "active_length_m": 50000.0,
  "clock_rate_hz": 100000000.0,
  "convention": "first_principles",
  "dcf_equivalent_length_m": 0.0,
  "dcf_params": null,
  "link_length_m": 50000.0,
  "mode": "linear",
  "phase_sum_requirement_m": 1.3406893875809611,
  "regime": "no_dcf",
  "rho": 3.0,
  "safety_factor": 1.0,
  "t_falling_s": 0.0,
  "t_rising_s": 0.0
}
"""

    @pytest.mark.parametrize("argv, expected", [
        ((*CALIBRATED, "--length-km", "405", "--clock-ghz", "2.5"), PARTIAL_TEXT),
        ((*CALIBRATED, "--length-km", "405", "--clock-ghz", "2.5", "--format", "json"),
         PARTIAL_JSON),
        (("--length-km", "50", "--clock-ghz", "0.1"), NO_DCF_TEXT),
        (("--length-km", "50", "--clock-ghz", "0.1", "--format", "json"), NO_DCF_JSON),
    ], ids=["partial-text", "partial-json", "no-dcf-text", "no-dcf-json"])
    def test_exact_output(self, capsys, argv, expected):
        code, out, err = run(capsys, "compensate", *argv)
        assert (code, out, err) == (0, expected, "")

    def test_infeasible_clock_exits_3(self, capsys):
        code, _, err = run(capsys, "compensate", "--length-km", "405",
                           "--clock-ghz", "100")
        assert code == 3
        assert "infeasible" in err

    def test_infinite_clock_exits_2(self, capsys):
        code, out, err = run(capsys, "compensate", "--length-km", "405",
                             "--clock-ghz", "inf")
        assert code == 2
        assert out == ""
        assert err.startswith("config error") and "got inf" in err


class TestOracleCheckCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--n-points", "384")
        assert code == 0
        assert "worst=" in out

    def test_tight_threshold_exits_4(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--n-points", "384",
                           "--threshold", "1e-15", "--l-km", "50")
        assert code == 4
        assert "verification failure" in err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_threshold_must_be_positive_and_finite(self, capsys, threshold):
        # a nan threshold would pass any deviation: worst > nan is false
        code, out, err = run(capsys, "oracle-check", "--l-km", "1",
                             "--threshold", threshold)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: threshold") and threshold in err


# a safety factor and an edge time whose product leaves the float range
HUGE_BOUND = ("--safety-factor", "1e308", "--t-rising-ns", "1e10")


class TestExitCodes:
    """Numeric failures are verification failures, not config errors."""

    # the negative case flips the sign of exit o's terms only
    CORRUPTIONS = [
        (lambda amp: amp * np.nan, "non-finite intensity"),
        (lambda amp: amp * np.array([[-1.0], [1.0]]), "negative intensity"),
    ]

    @staticmethod
    def corrupt_terms(monkeypatch, module, corrupt):
        # the one builder behind the spectra and the window masses, patched
        # where the route looks it up (bb84 imports it by name); its
        # amplitudes carry a leading settings axis
        exact = spectra.component_terms

        def corrupted(derived, configs):
            terms = exact(derived, configs)
            return replace(terms, amp=corrupt(terms.amp))

        monkeypatch.setattr(module, "component_terms", corrupted)

    @pytest.mark.parametrize("corrupt, message", CORRUPTIONS)
    def test_numeric_failure_exits_4(self, capsys, monkeypatch, corrupt, message):
        self.corrupt_terms(monkeypatch, spectra, corrupt)
        code, out, err = run(capsys, "spectra", *CAL, "--n-points", "128")
        assert code == 4
        assert out == ""
        assert err.startswith("verification failure") and message in err

    @pytest.mark.parametrize("corrupt, message", [
        (corrupt, message.replace("intensity", "window mass"))
        for corrupt, message in CORRUPTIONS])
    def test_numeric_failure_in_window_masses_exits_4(self, capsys, monkeypatch,
                                                      corrupt, message):
        self.corrupt_terms(monkeypatch, bb84, corrupt)
        code, out, err = run(capsys, "bb84", *CAL, "--baseline-m", "0.25")
        assert code == 4
        assert out == ""
        assert err.startswith("verification failure") and message in err

    @pytest.mark.parametrize("argv, setting", [
        (("compensate", "--length-km", "50", "--clock-ghz", "1"), "detector_profile = bogus"),
        (("gterm", "--steps", "5"), "t_rising_ns = -1"),
        (("bb84", "--length-km", "50"), "detector_profile = bogus"),
    ], ids=["compensate", "gterm", "bb84"])
    def test_bad_interferometer_setting_exits_2(self, capsys, tmp_path, argv, setting):
        # these commands build their own interferometers, and gterm and bb84
        # take no edge flags; a shared config file's settings are still
        # checked as for design
        path = tmp_path / "run.ini"
        path.write_text(f"[interferometer]\n{setting}\n")
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: interferometer")

    @pytest.mark.parametrize("argv, value", [
        (("design", "--sum-m", "nan"), "nan"),
        (("design", "--sum-m", "inf"), "inf"),
        (("design", "--rho", "inf"), "inf"),
        (("design", "--safety-factor", "inf"), "inf"),
        (("spectra", "--n-points", "64", "--pad-sigmas", "inf"), "inf"),
        (("spectra", "--n-points", "64", "--pad-sigmas", "nan"), "nan"),
        (("sweep", "--l-min-km", "0", "--l-max-km", "inf"), "inf"),
        (("sweep", "--l-min-km=-inf", "--l-max-km", "5"), "-inf"),
        (("gterm", "--l-min-km", "0", "--l-max-km", "inf"), "inf"),
        (("gterm", "--l-min-km", "0", "--l-max-km", "1e306"), "1e+306"),
    ], ids=["sum-nan", "sum-inf", "rho-inf", "safety-inf", "pad-inf", "pad-nan",
            "sweep-max-inf", "sweep-min-inf", "gterm-max-inf", "gterm-max-inf-in-metres"])
    def test_non_finite_number_exits_2(self, capsys, argv, value):
        # a RuntimeWarning from numpy would mean the value reached arithmetic
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error") and f"got {value}" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv, message", [
        # every number outside the input domain is refused by one check,
        # which names the field, the domain row in the field's unit and the
        # value as typed
        (("bb84", "--length-km", "1e300"), "link: length_km must lie in [0, 100000], got 1e+300"),
        (("spectra", "--lambda0-nm", "1e-300", "--delta-lambda-nm", "1e-310"),
         "link: lambda0_nm must lie in [200, 20000], got 1e-300"),
        (("design", "--length-km", "1e300"), "link: length_km must lie in [0, 100000], got 1e+300"),
        (("sweep", "--l-min-km", "0", "--l-max-km", "1e300"),
         "l-max-km must lie in [0, 100000], got 1e+300"),
        (("gterm", "--l-min-km", "0", "--l-max-km", "1e300"),
         "l-max-km must lie in [0, 100000], got 1e+300"),
        (("spectra", "--length-km", "1e300"),
         "link: length_km must lie in [0, 100000], got 1e+300"),
        (("oracle-check", "--l-km", "1e300"), "l-km must lie in [0, 100000], got 1e+300"),
        (("design", "--sum-m", "-1"), "must be non-negative and finite, got -1.0"),
        (("design", "--rho", "1e-300"), "design: rho must lie in [0.01, 30], got 1e-300"),
        (("sweep", "--l-min-km", "0", "--l-max-km", "500", "--rho", "1e-300"),
         "design: rho must lie in [0.01, 30], got 1e-300"),
        (("compensate", "--clock-ghz", "1", "--rho", "1e-300"),
         "design: rho must lie in [0.01, 30], got 1e-300"),
        (("design", *HUGE_BOUND), "design: safety_factor must lie in [0.01, 100], got 1e+308"),
        (("sweep", "--l-min-km", "0", "--l-max-km", "10", "--steps", "2", *HUGE_BOUND),
         "design: safety_factor must lie in [0.01, 100], got 1e+308"),
        (("compensate", "--length-km", "100", "--clock-ghz", "1", *HUGE_BOUND),
         "design: safety_factor must lie in [0.01, 100], got 1e+308"),
        (("spectra", "--delta-d-m", "1e200", "--n-points", "8"),
         "interferometer: delta_d_m must lie in [0, 1000], got 1e+200"),
        (("oracle-check", "--delta-d-m", "1e200"),
         "interferometer: delta_d_m must lie in [0, 1000], got 1e+200"),
        (("bb84", "--baseline-m", "1e154"), "baseline-m must lie in [0, 1000], got 1e+154"),
        (("spectra", "--delta-d-m", "1e153", "--n-points", "8"),
         "interferometer: delta_d_m must lie in [0, 1000], got 1e+153"),
        (("bb84", "--baseline-m", "1e153", "--length-km", "0"),
         "baseline-m must lie in [0, 1000], got 1e+153"),
        (("spectra", "--pad-sigmas", "1e200", "--n-points", "8"),
         "pad_sigmas must lie in [5, 1000], got 1e+200"),
        (("spectra", "--group-index", "1e308", "--length-km", "1e10", "--dispersion", "0",
          "--n-points", "4"), "link: length_km must lie in [0, 100000], got 10000000000.0"),
        # an allocation this size fails at once, so no memory is taken
        (("spectra", "--n-points", "100000000000"),
         "n_points 100000000000 asks for 800000000000 bytes"),
        (("spectra", "--n-points", "100000000000000000000"),
         "n_points 100000000000000000000 asks for 800000000000000000000 bytes"),
        # 8e15 bytes exceed any address space; 8e20 exceed numpy's largest array
        (("sweep", "--l-min-km", "0", "--l-max-km", "10", "--steps", "1000000000000000"),
         "sweep steps 1000000000000000 ask for 8000000000000000 bytes"),
        (("gterm", "--steps", "100000000000000000000"),
         "gterm steps 100000000000000000000 ask for 800000000000000000000 bytes"),
        # G vanishes at every length: no maximum to locate
        (("gterm", "--dispersion", "0"), "without dispersion G vanishes at every length"),
        (("spectra", "--delta-lambda-nm", "5e-312", "--n-points", "8"),
         "link: delta_lambda_nm must lie in [0.0001, 100], got 5e-312"),
        (("oracle-check", "--delta-lambda-nm", "5e-312"),
         "link: delta_lambda_nm must lie in [0.0001, 100], got 5e-312"),
        (("gterm", "--delta-lambda-nm", "5e-312"),
         "link: delta_lambda_nm must lie in [0.0001, 100], got 5e-312"),
        (("gterm", "--delta-lambda-nm", "1e-156", "--steps", "3"),
         "link: delta_lambda_nm must lie in [0.0001, 100], got 1e-156"),
        (("gterm", "--delta-lambda-nm", "1e-157", "--dispersion", "1e-200", "--steps", "3"),
         "link: delta_lambda_nm must lie in [0.0001, 100], got 1e-157"),
        (("gterm", "--delta-lambda-nm", "1e-150", "--steps", "3"),
         "link: delta_lambda_nm must lie in [0.0001, 100], got 1e-150"),
        # gamma = 1 + 16 delta_k^4 delta1^2 rounds to 1, so G is 0 at every length
        (("gterm", "--l-min-km", "0", "--l-max-km", "1e-300", "--steps", "2",
          "--leg-length-m", "0"), "G rounds to 0 at every length"),
        # the default baseline grows with the pulse width or rho, and the
        # refusal names them, not shifters that were never set
        (("bb84", "--delta-lambda-nm", "1e-160"),
         "link: delta_lambda_nm must lie in [0.0001, 100], got 1e-160"),
        (("bb84", "--rho", "1e300"), "design: rho must lie in [0.01, 30], got 1e+300"),
        (("bb84", "--rho", "1e307"), "design: rho must lie in [0.01, 30], got 1e+307"),
        (("bb84", "--rho", "1e153"), "design: rho must lie in [0.01, 30], got 1e+153"),
        # the clock rate is refused in one check that names the value
        (("compensate", "--clock-ghz", "nan"), "clock_rate must be positive and finite, got nan"),
        (("compensate", "--clock-ghz=-inf"), "clock_rate must be positive and finite, got -inf"),
        (("compensate", "--clock-ghz", "0"), "clock_rate must be positive and finite, got 0.0"),
    ], ids=["bb84-length", "spectra-lambda0", "design-length", "sweep-length",
            "gterm-length", "spectra-length", "oracle-length", "design-negative-sum",
            "design-tiny-rho", "sweep-tiny-rho", "compensate-tiny-rho",
            "design-huge-bound", "sweep-huge-bound", "compensate-huge-bound",
            "spectra-huge-shifter", "oracle-huge-shifter", "bb84-huge-baseline",
            "spectra-huge-terms", "bb84-huge-terms", "spectra-huge-padding",
            "spectra-huge-means", "spectra-huge-grid", "spectra-beyond-largest-array",
            "sweep-huge-steps", "gterm-huge-steps",
            "gterm-no-dispersion", "spectra-term-exponent-underflow",
            "oracle-term-exponent-underflow", "gterm-term-exponent-underflow",
            "gterm-argmax-overflow", "gterm-argmax-underflow", "gterm-g-rounds-to-0",
            "gterm-g-rounds-to-0-at-short-lengths", "bb84-default-baseline-wide-pulse",
            "bb84-default-baseline-huge-rho", "bb84-default-baseline-beyond-ceil",
            "bb84-default-baseline-huge-terms",
            "compensate-nan-clock", "compensate-minus-inf-clock", "compensate-zero-clock"])
    def test_out_of_range_number_exits_2(self, capsys, argv, message):
        # pytest turns a numpy RuntimeWarning into an error; the values are
        # checked before any array arithmetic
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error") and message in err
        assert err.count("\n") == 1
        # a shifter value is named only where a shifter was typed
        if "--delta-d-m" not in argv:
            assert "delta_d" not in err

    @pytest.mark.parametrize("shifter", ["0", "1e-9"], ids=["all-dark", "1e-9m"])
    def test_dark_exits_pass_the_oracle_check(self, capsys, shifter):
        # a dark exit reads against one leg-pair Gaussian's peak, not against
        # its own rounding noise
        code, out, err = run(capsys, "oracle-check", "--delta-d-m", shifter,
                             "--delta-m-m", shifter)
        assert (code, err) == (0, "")
        assert float(out.split("worst=")[1].split()[0]) < 1e-14

    @pytest.mark.parametrize("command", [("spectra", "--n-points", "256"), ("oracle-check",)],
                             ids=["spectra", "oracle-check"])
    def test_dark_link_exits_0(self, capsys, command):
        # with delta_d = delta_c the first interferometer sends all light to
        # its unused exit: both exits read rounding noise, +-1e-16 against a
        # leg-pair Gaussian peak of 0.316, and the noise is clipped
        code, out, err = run(capsys, *command, "--delta-d-m", "0", "--delta-m-m", "0.3")
        assert (code, err) == (0, "")
        assert out

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(exponent=st.floats(100.0, 300.0),
           length_km=st.sampled_from(["0", "1", "50", "500"]),
           command=st.sampled_from(["spectra", "bb84"]))
    # sums the derived record accepts and the terms overflowed on
    @example(exponent=152.0, length_km="0", command="bb84")
    @example(exponent=153.0, length_km="50", command="spectra")
    def test_huge_shifter_sums_run_or_exit_2(self, exponent, length_km, command):
        # either the command runs with finite output, or it refuses the sums
        # (exit 2) before any array arithmetic overflows
        value = repr(10.0**exponent)
        argv = (("spectra", "--delta-d-m", value, "--n-points", "8") if command == "spectra"
                else ("bb84", "--baseline-m", value))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--length-km", length_km])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 0:
            assert not re.search(r"nan|inf", out.getvalue(), re.IGNORECASE)
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("config error")

    @pytest.mark.parametrize("via_file", [False, True], ids=["flag", "config-file"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, via_file):
        target = str(tmp_path / "missing" / "x.txt")
        if via_file:
            path = tmp_path / "run.ini"
            path.write_text(f"[output]\npath = {target}\n")
            argv = ("--config", str(path))
        else:
            argv = ("--output", target)
        code, out, err = run(capsys, "design", *argv)
        assert (code, out) == (2, "")
        assert err == f"config error: cannot write {target!r}: No such file or directory\n"

    def test_output_onto_a_directory_exits_2_and_leaves_no_file(self, capsys, tmp_path):
        (tmp_path / "adir").mkdir()
        code, out, err = run(capsys, "design", "--output", str(tmp_path / "adir"))
        assert (code, out) == (2, "")
        assert err.startswith("config error: cannot write") and "adir" in err
        assert os.listdir(tmp_path) == ["adir"]

    def test_dump_dir_under_a_file_exits_2(self, capsys, tmp_path):
        (tmp_path / "afile").write_text("")
        directory = str(tmp_path / "afile" / "sub")
        code, out, err = run(capsys, "bb84", *CAL, "--baseline-m", "0.25",
                             "--dump-spectra-dir", directory)
        assert (code, out) == (2, "")
        assert err == f"config error: cannot create {directory!r}: Not a directory\n"
        assert os.listdir(tmp_path) == ["afile"]

    @pytest.mark.parametrize("command", ["sweep", "gterm"])
    @pytest.mark.parametrize("argv, message", [
        (("--l-min-km", "1", "--l-max-km", "2", "--steps", "1"), "needs at least 2 steps"),
        (("--l-min-km", "2", "--l-max-km", "2"), "range is empty"),
        (("--l-min-km", "nan", "--l-max-km", "2"), "range is empty"),
    ], ids=["one-step", "empty", "nan"])
    def test_bad_length_range_exits_2(self, capsys, command, argv, message):
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {command} ") and message in err

    def test_oracle_beyond_memory_budget_exits_4(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--l-km", "50",
                             "--delta-lambda-nm", "10")
        assert code == 4
        assert out == ""
        assert err.startswith("verification failure")
        assert f"above the {spectra.ORACLE_BUDGET_BYTES}-byte budget" in err


class TestConfigFile:
    INI = """
[link]
length_km = 75
convention = calibrated

[design]
rho = 2

[output]
format = json
"""

    def test_file_values_and_cli_override(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(self.INI)
        code, out, _ = run(capsys, "design", "--config", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["config_si"]["fiber_length_m"] == 75e3
        assert payload["report"]["rho"] == 2.0
        code, out, _ = run(capsys, "design", "--config", str(path),
                           "--rho", "3", "--format", "text")
        assert code == 0
        assert "min_phase_sum" in out

    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "run.ini"
        path.write_text(self.INI)
        monkeypatch.setenv("MZQKD_CONFIG", str(path))
        code, out, _ = run(capsys, "design")
        assert code == 0
        assert json.loads(out)["config_si"]["fiber_length_m"] == 75e3

    @pytest.mark.parametrize("argv, unread", [
        (["design", *CAL], "delta_d_m = 0.3"),
        (["spectra", *CAL, "--n-points", "64"], "t_rising_ns = 0.2"),
    ], ids=["design", "spectra"])
    def test_json_records_only_settings_read(self, capsys, tmp_path, argv, unread):
        # config_si embeds the settings the command reads, so a file value of
        # any other setting leaves the output byte-identical
        path = tmp_path / "run.ini"
        path.write_text(f"[interferometer]\n{unread}\n")
        _, plain, _ = run(capsys, *argv, "--format", "json")
        code, with_file, _ = run(capsys, *argv, "--format", "json", "--config", str(path))
        assert code == 0
        assert with_file == plain

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[link]\nwarp_factor = 9\n")
        code, _, err = run(capsys, "design", "--config", str(path))
        assert code == 2
        assert "link.warp_factor" in err

    def test_bad_value_exits_2(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[link]\nlength_km = fifty\n")
        code, _, err = run(capsys, "design", "--config", str(path))
        assert code == 2
        assert "length_km" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "design", "--config", "/nonexistent.ini")
        assert code == 2
        assert "not found" in err

    def test_format_of_another_command_exits_2(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[output]\nformat = json\n")
        code, out, err = run(capsys, "gterm", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "output.format: 'json' not supported" in err

    @pytest.mark.parametrize("section, key", [("output", "normalize"),
                                              ("link", "convention")])
    def test_value_outside_choices_exits_2(self, capsys, tmp_path, section, key):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = bogus\n")
        code, _, err = run(capsys, "design", "--config", str(path))
        assert code == 2
        assert f"{section}.{key}" in err

    # The README's rule: a flag is its file key with dashes, except these.
    RENAMED_FLAGS = {"dispersion_ps_per_km_nm": "--dispersion", "path": "--output"}
    # commands that between them accept every flag, with their required flags
    ACCEPTING = [("spectra", []), ("design", []), ("compensate", ["--clock-ghz", "1"])]

    @pytest.mark.parametrize("setting", fields(RunConfig), ids=lambda f: f.name)
    def test_flag_and_file_key_agree(self, tmp_path, monkeypatch, setting):
        monkeypatch.delenv("MZQKD_CONFIG", raising=False)
        section, key = setting.metadata["section"], setting.metadata["key"] or setting.name
        choices = setting.metadata["argparse"].get("choices")
        value = choices[-1] if choices else {
            "detector_profile": "snspd-5ns", "out_path": "out.csv"}.get(setting.name, "2.5")
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        flag = self.RENAMED_FLAGS.get(key, "--" + key.replace("_", "-"))
        command, required = next((c, r) for c, r in self.ACCEPTING
                                 if setting.name in READS[c] | EVERY_COMMAND)
        parser = build_parser()
        by_flag = _resolve_config(parser.parse_args([command, *required, flag, value]))
        by_file = _resolve_config(parser.parse_args([command, *required,
                                                     "--config", str(path)]))
        assert by_flag == by_file
        assert by_flag != _resolve_config(parser.parse_args([command, *required]))

    def test_readme_example_names_every_file_key_once(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        named, section = [], None
        for line in block.splitlines():
            if line.startswith("["):
                section = line.strip("[]")
            elif "=" in line:
                named.append((section, line.split("=", 1)[0].strip()))
        assert sorted(named) == sorted((f.metadata["section"], f.metadata["key"] or f.name)
                                       for f in fields(RunConfig))
        path = tmp_path / "readme.ini"
        path.write_text(block)
        load_config_file(str(path))


class TestFlagsPerCommand:
    """Each subcommand accepts the flags of the settings it reads, and no others."""

    BASE = {
        "design": ["--sum-m", "200"],
        "sweep": ["--l-min-km", "10", "--l-max-km", "100", "--steps", "3"],
        "spectra": ["--n-points", "64"],
        "bb84": ["--dump-spectra-dir", "DUMP"],
        "gterm": ["--steps", "5"],
        "compensate": ["--clock-ghz", "2.5"],
        "oracle-check": ["--l-km", "1", "--n-points", "128", "--threshold", "1"],
    }
    OTHER = {"length_km": "100", "lambda0_nm": "1310", "delta_lambda_nm": "0.5",
             "dispersion_ps_per_km_nm": "10", "group_index": "1.5", "leg_length_m": "2",
             "t_fiber": "0.5", "t_leg": "0.5", "convention": "calibrated",
             "delta_d_m": "0.3", "delta_m_m": "0.3", "delta_c_m": "0.1",
             "t_rising_ns": "1", "t_falling_ns": "1", "detector_profile": "snspd-5ns",
             "rho": "2", "mode": "nonlinear", "safety_factor": "2", "normalize": "peak"}

    @staticmethod
    def outputs(capsys, directory, argv):
        """Exit code, stdout and the files written into ``directory``, DUMP in argv."""
        code = main([str(directory) if a == "DUMP" else a for a in argv])
        written = {p.name: p.read_bytes() for p in sorted(directory.glob("*"))}
        return code, capsys.readouterr().out, written

    @pytest.mark.parametrize("setting", [f for f in fields(RunConfig)
                                         if f.name not in EVERY_COMMAND],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("command", READS)
    def test_flag_changes_output_or_exits_2(self, capsys, tmp_path, command, setting):
        argv = [command, *self.BASE[command]]
        other = [flag_of(setting), self.OTHER[setting.name]]
        if setting.name not in READS[command]:
            with pytest.raises(SystemExit) as exc:
                self.outputs(capsys, tmp_path, [*argv, *other])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(other)}" in capsys.readouterr().err
            return
        base = self.outputs(capsys, tmp_path / "base", argv)
        changed = self.outputs(capsys, tmp_path / "changed", [*argv, *other])
        assert base[0] == changed[0] == 0
        assert base[1:] != changed[1:]


    FORMATS = {"design": "text,json", "sweep": "csv,svg-plot", "spectra": "csv,json,svg-plot",
               "bb84": "csv,json", "gterm": "csv", "compensate": "text,json",
               "oracle-check": "text"}

    @pytest.mark.parametrize("command", READS)
    def test_help_lists_only_the_command_formats(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"--format \{([^}]*)\}", capsys.readouterr().out)
        assert listed == [self.FORMATS[command]] * 2  # usage line and option list


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run(capsys, "sweep", *CALIBRATED, "--l-min-km", "50",
                             "--l-max-km", "200", "--steps", "7",
                             "--output", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(capsys, "design", *CAL, "--format", "json",
                             "--output", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_shared_parser_keeps_no_values(self, capsys):
        assert build_parser() is build_parser()
        code, with_sum, _ = run(capsys, "design", *CAL, "--sum-m", "0.5")
        assert code == 0
        code, after, _ = run(capsys, "design", *CAL)
        assert code == 0
        build_parser.cache_clear()
        code, fresh, _ = run(capsys, "design", *CAL)
        assert code == 0
        assert after == fresh
        assert with_sum != fresh


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        src = Path(mzqkd.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        probe = ("import mzqkd.cli, sys; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
