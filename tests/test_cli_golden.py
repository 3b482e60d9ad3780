"""CLI stdout and exit codes of `maximal`, `cz`, `lemmas`, `verify` and
`necessity`, byte for byte against recorded files.

The files under tests/data/cli were recorded with the weights under
tests/data/constants.  The fractional and weighted `maximal` cases were
recorded when the operator was also named by `--kind fractional`,
`--kind weighted` or `--kind fractional-weighted`; `--alpha` and
`--with-weight` alone now select it, so the argv below leaves `--kind` out.
"""

import json
from pathlib import Path

import pytest

from weakmax.cli import main

DATA = Path(__file__).parent / "data" / "cli"
WEIGHTS = Path(__file__).parent / "data" / "constants"


def w(name: str) -> str:
    return str(WEIGHTS / f"{name}.weight.json")


# name -> (argv, extension of the recorded stdout)
CASES = {
    "maximal_plain": (["maximal", "--weight", w("tab_1d_d6")], "json"),
    "maximal_fractional": (["maximal", "--weight", w("tab_1d_d6"), "--alpha", "0.5"], "json"),
    "maximal_weighted": (["maximal", "--weight", w("tab_2d_d3"),
                          "--with-weight", w("tab_2d_d3")], "json"),
    "maximal_fractional_weighted": (["maximal", "--weight", w("tab_zero_cells"), "--alpha", "0.5",
                                     "--with-weight", w("tab_zero_cells")], "json"),
    "cz_json": (["cz", "--weight", w("tab_2d_d3")], "json"),
    "cz_csv": (["cz", "--weight", w("tab_1d_d6"), "--a", "5", "--format", "csv"], "csv"),
    "cz_fractional": (["cz", "--weight", w("tab_1d_d6"), "--alpha", "0.25"], "json"),
    "lemmas_tabulated": (["lemmas", "--weight", w("tab_1d_d6"), "--p", "3", "--seed", "1"], "json"),
    "lemmas_power": (["lemmas", "--weight", w("power_sqrt_03"), "--p", "2", "--depth", "5"], "json"),
    "verify_json": (["verify", "--weight", w("tab_1d_d6"), "--p", "2", "--seed", "7",
                     "--n-random", "10"], "json"),
    "verify_csv": (["verify", "--weight", w("tab_2d_d3"), "--p", "1.5", "--n-random", "10",
                    "--format", "csv"], "csv"),
    "verify_fractional": (["verify", "--weight", w("tab_1d_d6"), "--p", "2", "--q", "4",
                           "--alpha", "0.25", "--n-random", "10"], "json"),
    "verify_power": (["verify", "--weight", w("power_inv_x"), "--p", "2", "--depth", "5",
                      "--n-random", "10"], "json"),
    "necessity_json": (["necessity", "--weight", w("tab_2d_d3"), "--p", "2"], "json"),
    "necessity_csv": (["necessity", "--weight", w("tab_1d_d6"), "--p", "3", "--format", "csv"], "csv"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, capsys):
    argv, ext = CASES[name]
    codes = json.loads((DATA / "exit_codes.json").read_text())
    assert main(argv) == codes[name]
    assert capsys.readouterr().out == (DATA / f"{name}.{ext}").read_text()
