"""`weakmax constants` output, JSON and CSV, byte for byte against recorded files.

The files under tests/data/constants are recorded CLI output; any change in
a value, witness or formatting shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from weakmax.cli import main

DATA = Path(__file__).parent / "data" / "constants"

# name -> extra CLI flags.  The power fixtures take the exponents -1, -0.5 and
# 1; |x - 0.3|^-0.5 is the only one with a finite A_1 constant, so the only
# one where the ess-sup factor's arithmetic reaches the output.
CASES = {
    "tab_1d_d6": ["--p", "3"],
    "tab_2d_d3": ["--p", "1.5", "--r", "3"],
    "tab_zero_cells": ["--p", "2"],
    "power_inv_x": ["--p", "2", "--depth", "8"],
    "power_sqrt_03": ["--p", "3", "--depth", "8"],
    "power_lin_05": ["--p", "1.5", "--r", "3", "--depth", "8"],
}


def constants_argv(name: str, fmt: str) -> list[str]:
    return ["constants", "--weight", str(DATA / f"{name}.weight.json"),
            *CASES[name], "--format", fmt]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_constants_output_is_byte_identical(name, fmt, capsys):
    assert main(constants_argv(name, fmt)) == 0
    expected = (DATA / f"{name}.{fmt}").read_text()
    assert capsys.readouterr().out == expected
