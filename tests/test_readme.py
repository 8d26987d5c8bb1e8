"""The README's command-line and library examples run as written."""

import contextlib
import io
import re
import shlex
from decimal import Decimal
from pathlib import Path

import pytest

from mzqkd.cli import main
from mzqkd.core import DOMAIN, check_domain
from mzqkd.units import dispersion_to_si, km_to_m, nm_to_m, ns_to_s

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


COMMANDS = [line for block in fenced_blocks("sh") for line in block.splitlines()
            if line.startswith("mzqkd ")]


def test_readme_has_one_example_per_subcommand():
    assert sorted(shlex.split(line)[1] for line in COMMANDS) == [
        "bb84", "compensate", "design", "gterm", "oracle-check", "spectra", "sweep"]


@pytest.mark.parametrize("line", COMMANDS, ids=[shlex.split(line)[1] for line in COMMANDS])
def test_command_example_exits_0(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def test_library_example_runs():
    [example] = fenced_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    share, shape = out.getvalue().splitlines()
    assert float(share) > 0.999
    assert shape == "(1, 2, 10)"


# The domain table's units: the flags' conversion to SI and the power of ten
# that the unit stands for.
UNITS = {"": (None, 0), "m": (None, 0), "m²": (None, 0), "nm": (nm_to_m, -9),
         "km": (km_to_m, 3), "ps/(km·nm)": (dispersion_to_si, -6), "ns": (ns_to_s, -9)}


def domain_table():
    """README's input-domain table as {row: (domain text, unit)}."""
    [body] = re.findall(r"^\| row \| flags \| domain \| unit \|\n\|[-|]+\|\n((?:\|.*\n)+)",
                        README, flags=re.M)
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in body.splitlines()]
    return {row.strip("`"): (domain, unit) for row, _, domain, unit in cells}


def test_domain_table_states_the_core_domain():
    table = domain_table()
    assert sorted(table) == sorted(DOMAIN)
    for row, (text, unit) in table.items():
        zero, bracket, lo, hi = re.fullmatch(r"(0 or )?([\[(])(\S+), (\S+)\]", text).groups()
        assert (zero is not None) == (row == "dispersion")
        assert (bracket == "(") == (row in ("t_fiber", "t_leg"))
        to_si, exponent = UNITS[unit]
        for end, si_end in zip((lo, hi), DOMAIN[row]):
            exact = float(Decimal(end).scaleb(exponent))
            assert exact == pytest.approx(si_end, rel=1e-15, abs=0.0), row
            if bracket == "(" and end == lo:
                continue
            # the end belongs to the row as the flag's unit converts it and
            # as its correctly rounded SI value
            check_domain(row, float(end), to_si=to_si)
            check_domain(row, exact)
