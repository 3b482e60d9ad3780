import csv
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from weakmax import GridSpec, StepFunction, cli, harness, random_weight, weight_to_dict
from weakmax.cli import main

from conftest import constant, unit_grid


def write_weight(tmp_path, name, w):
    path = tmp_path / name
    path.write_text(json.dumps(weight_to_dict(w)))
    return str(path)


def write_power(tmp_path, name, center, exponent, root):
    path = tmp_path / name
    path.write_text(json.dumps({"mode": "power", "center": center,
                                "exponent": exponent, "root": root}))
    return str(path)


@pytest.fixture
def trivial_weight(tmp_path):
    return write_weight(tmp_path, "one.json", constant(unit_grid(2), 1.0))


@pytest.fixture
def quarters_weight(tmp_path):
    return write_weight(tmp_path, "w.json", StepFunction(unit_grid(2), [2, 2, 1, 1]))


class TestConstants:
    def test_trivial_all_ones(self, trivial_weight, tmp_path, capsys):
        assert main(["constants", "--weight", trivial_weight, "--p", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 9
        for row in rows:
            assert row["value"] == pytest.approx(1.0, abs=1e-12), row["class"]

    def test_csv_format(self, quarters_weight, capsys):
        assert main(["constants", "--weight", quarters_weight, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("class,")
        assert len(lines) == 10

    def test_power_weight_needs_depth(self, tmp_path, capsys):
        path = write_power(tmp_path, "pw.json", 0.0, -1.0, [0.0, 1.0])
        assert main(["constants", "--weight", path]) == 1
        assert main(["constants", "--weight", path, "--depth", "4"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_class = {r["class"]: r["value"] for r in rows}
        assert by_class["ap"] == float("inf")
        assert np.isfinite(by_class["ap_star"])


class TestMaximal:
    def test_plain(self, tmp_path, capsys):
        path = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), [4, 0, 0, 0]))
        assert main(["maximal", "--weight", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == [4.0, 2.0, 1.0, 1.0]

    def test_weighted_needs_weight_file(self, tmp_path, capsys):
        # --with-weight selects the weighted operator; its file must be
        # readable and hold a tabulated weight
        path = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), [4, 0, 0, 0]))
        missing = str(tmp_path / "none.json")
        assert main(["maximal", "--weight", path, "--with-weight", missing]) == 1
        assert "cannot read weight file" in capsys.readouterr().err
        power = write_power(tmp_path, "pw.json", 0.0, -1.0, [0.0, 1.0])
        assert main(["maximal", "--weight", path, "--with-weight", power]) == 1
        assert "--with-weight" in capsys.readouterr().err

    def test_nan_alpha(self, tmp_path, capsys):
        path = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), [4, 0, 0, 0]))
        assert main(["maximal", "--weight", path, "--alpha", "nan"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "alpha must be >= 0, got nan" in err

    def test_weighted(self, tmp_path, capsys):
        f = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), [4, 0, 0, 0]))
        w = write_weight(tmp_path, "w.json", constant(unit_grid(2), 2.0))
        assert main(["maximal", "--weight", f, "--with-weight", w]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == [4.0, 2.0, 1.0, 1.0]


class TestCz:
    def test_worked_example(self, tmp_path, capsys):
        path = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), [4, 0, 0, 0]))
        assert main(["cz", "--weight", path, "--a", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["k_min"] == -1 and out["k_max"] == 1
        ks = {(e["k"], e["Q"]["level"]) for e in out["entries"]}
        assert ks == {(-1, 0), (0, 1)}
        inner = [e for e in out["entries"] if e["k"] == 0][0]
        assert inner["Q"] == {"level": 1, "index": [0]}
        assert inner["E_cells"] == [0, 1]

    def test_below_threshold_base(self, tmp_path):
        path = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), [4, 0, 0, 0]))
        assert main(["cz", "--weight", path, "--a", "3"]) == 1

    def test_nan_base(self, tmp_path, capsys):
        path = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), [4, 0, 0, 0]))
        assert main(["cz", "--weight", path, "--a", "nan"]) == 1
        assert "below the required" in capsys.readouterr().err

    def test_overflowing_base(self, tmp_path, capsys):
        # a^2 overflows while bracketing max M f = 1.7e308
        path = write_weight(tmp_path, "f.json",
                            StepFunction(unit_grid(2), [1.7e308, 0, 0, 0]))
        assert main(["cz", "--weight", path, "--a", "1e308"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert "base a = 1e+308 is too large" in err

    @pytest.mark.parametrize("cells,alpha,message", [
        ([4, 0, 0, 0], "nan", "alpha must be >= 0, got nan"),
        ([0, 0, 0, 0], "nan", "alpha must be >= 0, got nan"),
        ([0, 0, 0, 0], "7", "alpha must lie in [0, n), got 7.0 with n=1"),
        ([0, 0, 0, 0], "-1", "alpha must be >= 0, got -1.0"),
    ], ids=["nan", "nan_zero", "above_n_zero", "negative_zero"])
    def test_alpha_out_of_domain(self, tmp_path, capsys, cells, alpha, message):
        path = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), cells))
        assert main(["cz", "--weight", path, "--alpha", alpha]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_infinite_base(self, tmp_path, capsys):
        path = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), [4, 0, 0, 0]))
        assert main(["cz", "--weight", path, "--a", "inf"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be finite" in err


class TestVerify:
    def test_pass_and_determinism(self, quarters_weight, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["verify", "--weight", quarters_weight, "--p", "2",
                "--seed", "7", "--n-random", "40"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["verdict"] is True
        assert report["sufficiency"]["context"]["seed"] == 7

    def test_fail_exit_code(self, quarters_weight):
        assert main(["verify", "--weight", quarters_weight, "--p", "2",
                     "--n-random", "10", "--c-desk", "1e-9"]) == 2

    def test_csv_row(self, quarters_weight, capsys):
        assert main(["verify", "--weight", quarters_weight, "--p", "2",
                     "--n-random", "10", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "normalized" in lines[0]

    def test_exponent_relation_enforced(self, quarters_weight, capsys):
        assert main(["verify", "--weight", quarters_weight, "--p", "2",
                     "--q", "4", "--alpha", "0.5", "--n-random", "5"]) == 1
        assert "exponent relation violated" in capsys.readouterr().err
        # a zero exponent cannot enter the relation; it exits 1, not with a traceback
        for p, q in (("2", "0"), ("0", "4")):
            assert main(["verify", "--weight", quarters_weight, "--p", p,
                         "--q", q, "--alpha", "0.5"]) == 1
            assert "exponents must be positive" in capsys.readouterr().err
        assert main(["verify", "--weight", quarters_weight, "--p", "2",
                     "--q", "4", "--alpha", "0.25", "--n-random", "5"]) == 0

    @pytest.mark.parametrize("command", ["verify", "necessity"])
    def test_q_without_alpha(self, quarters_weight, capsys, command):
        # a q with the default alpha = 0 enters the relation too, and a
        # negative q is named as q
        assert main([command, "--weight", quarters_weight, "--p", "2", "--q", "4"]) == 1
        assert "exponent relation violated" in capsys.readouterr().err
        assert main([command, "--weight", quarters_weight, "--p", "2", "--q", "-1"]) == 1
        assert "exponents must be positive, got p=2.0, q=-1.0" in capsys.readouterr().err


class TestOutOfRangeSettings:
    """Non-finite exponents and out-of-range suite settings exit 1 with a
    named error and no output, never with an answer or a numpy warning."""

    def test_constants_infinite_exponents(self, quarters_weight, capsys):
        assert main(["constants", "--weight", quarters_weight, "--q", "inf", "--r", "inf"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "fractional class needs p < q < inf" in err

    def test_constants_infinite_r(self, quarters_weight, capsys):
        assert main(["constants", "--weight", quarters_weight, "--r", "inf"]) == 1
        assert "reverse Hoelder needs 1 < r < inf" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--p", "2", "--q", "inf", "--alpha", "0.5"], "fractional class needs p < q < inf"),
        (["--p", "inf"], "conjugate exponent needs 1 < p < inf"),
        (["--n-random", "-1"], "n_random must be >= 0"),
        (["--c-desk", "nan"], "c_desk must be positive and finite"),
        (["--c-desk", "-1"], "c_desk must be positive and finite"),
        (["--seed", "-1"], "seed must be a non-negative integer"),
    ], ids=["q_inf", "p_inf", "n_random", "c_desk_nan", "c_desk_negative", "seed"])
    def test_verify(self, quarters_weight, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--weight", quarters_weight, *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_lemmas_negative_seed(self, quarters_weight, capsys):
        assert main(["lemmas", "--weight", quarters_weight, "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "seed must be a non-negative integer" in err


class TestNecessityCommand:
    def test_csv_per_cube_rows(self, quarters_weight, capsys):
        assert main(["necessity", "--weight", quarters_weight, "--p", "2",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "level,index,ratio"
        assert len(lines) == 8  # 7 cubes at depth 2

    # 1-D depth-1 weights at p = 2 measured 2 and 1 ulps under a bound past
    # 2^23, where an absolute tolerance of 1e-9 is below one ulp
    @pytest.mark.parametrize("root_side,values", [
        (3.0, [0.12771091736986817, 3.9194687037353227e-153]),
        (1.1095150714835783e+101, [3.374648020086949e+190, 1.6216721988050376e+80]),
    ])
    def test_tolerance_is_relative(self, tmp_path, capsys, root_side, values):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_step_spec(root_side=root_side, values=values)))
        assert main(["necessity", "--weight", str(path), "--p", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 2.0 ** 23 < report["measured_ratio"] < report["theoretical_bound"]
        assert report["verdict"] is True and report["tolerance_factor"] == 1e-9

    # sigma = |x - c|^-2 is not locally integrable at the centre, so the star
    # constant and the bound are +inf: the verdict fails, as sufficiency's
    # does, and says why
    @pytest.mark.parametrize("center,root", [(0.0, [0.0, 1.0]),
                                             (0.3, [0.0, 2.6290184562006376e+202])])
    def test_infinite_star_constant_is_named(self, tmp_path, capsys, center, root):
        path = write_power(tmp_path, "pw.json", center, 2.0, root)
        assert main(["necessity", "--weight", path, "--p", "2", "--depth", "4"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["theoretical_bound"] == report["context"]["star_constant"] == math.inf
        assert report["verdict"] is False
        assert report["context"]["diagnostic"] == "star constant is infinite; bound is vacuous"


    # w = |x|^e: the star constant is +inf at every even e >= 2.  At e = 200
    # and depth 6, sigma = |x|^-200 has cell averages up to 201 * 2^1200,
    # past the float range in the unit of the root's length
    @pytest.mark.parametrize("exponent", [2.0, 20.0, 100.0, 200.0])
    def test_steep_power_weight(self, tmp_path, capsys, exponent):
        path = write_power(tmp_path, "pw.json", 0.0, exponent, [0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--weight", path, "--p", "2", "--depth", "6"])
        out, err = capsys.readouterr()
        if exponent < 200.0:
            assert code == 2 and err == ""
            report = json.loads(out)["necessity"]
            assert report["context"]["diagnostic"] == "star constant is infinite; bound is vacuous"
        else:
            assert code == 1 and out == ""
            assert err == ("error: sigma = |x - 0|^-200 has a cell average past the "
                           "float range at depth 6\n")


class TestLemmas:
    def test_pass(self, quarters_weight, capsys):
        assert main(["lemmas", "--weight", quarters_weight, "--p", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is True


class TestUnderflowingWeights:
    """Weights whose dual weight, maximal function or sigma-RH constant leaves
    the float range exit 1 with a message, never with a traceback."""

    @staticmethod
    def _assert_error(capsys, message):
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert message in err

    def test_lemmas_zero_star_constant(self, tmp_path, capsys):
        # sigma = w^-2 = 1e-400 underflows to 0, and the star constant with it
        path = write_weight(tmp_path, "w.json", constant(unit_grid(3), 1e200))
        assert main(["lemmas", "--weight", path, "--p", "1.5"]) == 1
        self._assert_error(capsys, "star constant is 0")

    def test_verify_identity_routes_disagree(self, tmp_path, capsys):
        # sigma^2 = 1e-320 is subnormal on this weight, but the ratio has
        # degree 0 in w, so verify reports what it does on the weight 1
        reports = []
        for value in (1e160, 1.0):
            path = write_weight(tmp_path, f"w{value}.json",
                                constant(unit_grid(3), value))
            assert main(["verify", "--weight", path, "--p", "2"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        for side in ("necessity", "sufficiency"):
            assert reports[0][side]["measured_ratio"] == pytest.approx(
                reports[1][side]["measured_ratio"], rel=1e-12)

    @pytest.fixture
    def spike_weight(self, tmp_path):
        # at p = 1.5, [sigma]_RH = star^2 ~ 1e338 overflows, and sigma = w^-2
        # underflows to 0 on the 1e170 cell
        return write_weight(tmp_path, "w.json", StepFunction(unit_grid(3), [1.0] * 7 + [1e170]))

    def test_lemmas_sigma_rh_overflow(self, spike_weight, capsys):
        assert main(["lemmas", "--weight", spike_weight, "--p", "1.5"]) == 1
        self._assert_error(capsys, "sigma-RH pair (c, [sigma]_RH) = (16, inf) overflows")

    def test_verify_sigma_rh_overflow(self, spike_weight, capsys):
        # the sufficiency bound is vacuous, and the necessity side cannot
        # take the ratio of the cube where sigma vanishes
        assert main(["verify", "--weight", spike_weight, "--p", "1.5"]) == 1
        self._assert_error(capsys, "degenerate input")

    def test_constants_sigma_rh_overflow(self, spike_weight, capsys):
        # the overflow is the reported +inf, not a warning on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["constants", "--weight", spike_weight, "--p", "1.5"]) == 0
        out, err = capsys.readouterr()
        assert caught == []
        assert err == ""
        rows = {row["class"]: row for row in json.loads(out)}
        assert rows["sigma_rh"]["value"] == float("inf")


class TestPowerOverflow:
    """A power weight whose closed-form integrals pass the float range: each
    command reports Infinity or names an error, never a traceback."""

    @pytest.mark.parametrize("command,code", [("constants", 0), ("verify", 2), ("lemmas", 1)])
    def test_sigma_integral_overflows(self, tmp_path, capsys, command, code):
        # sigma = |x + 1e-4|^-100 at p = 1.01: its first cell's integral ~ 1e394
        path = write_power(tmp_path, "pw.json", -0.0001, 1.0, [0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--weight", path, "--p", "1.01", "--depth", "4"]) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert "Infinity" in out or err.startswith("error: ")
        if command == "lemmas":
            assert "star constant must be finite" in err


class TestOverflowToInfinity:
    """Where +inf is the answer, it is taken without a RuntimeWarning on
    stderr."""

    def test_constants_rows_past_the_float_range(self, tmp_path, capsys):
        # a 2-D depth-1 weight with cells from 1e-245 to 1e181: the class
        # rows' products and quotients of averages overflow
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_step_spec(
            n=2, root_corner=[0.0, 0.0], root_side=3.0, values=[
                2.3158702187384846e+181, 1.8763411472326719, 2.784261079321427,
                7.318509770587368e-245])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["constants", "--weight", str(path), "--q", "8"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        values = {d["class"]: d["value"] for d in json.loads(out)}
        assert values["ap"] == values["apq_star"] == math.inf

    def test_power_cell_averages_past_the_float_range(self, tmp_path, capsys):
        # |x - 0.3|^2 on a root of side 2.6e202: w's integral on a far cell
        # overflows, and so does the harmonic average |cell| / int |x - 0.3|^-2
        # that stands in for it; sigma = |x - 0.3|^-2 is not integrable at
        # the centre, so the bound is +inf
        path = write_power(tmp_path, "pw.json", 0.3, 2.0, [0.0, 2.6290184562006376e+202])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(["necessity", "--weight", path, "--depth", "4"])
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["theoretical_bound"] == math.inf

    def test_power_integral_past_the_float_range(self, tmp_path, capsys):
        # |x| on [1e300, 1.00001e300]: far from the centre, a cell's integral
        # d1^a (d1 expm1(b log1p(length / d1)) / b) is about 1e594 and
        # overflows to +inf, so the harness tabulates w and sigma in a
        # power-of-two distance unit, where both sides hold
        path = write_power(tmp_path, "pw.json", 0.0, 1.0, [1e300, 1.00001e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--weight", path, "--depth", "3", "--n-random", "2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["verdict"] is True


class TestFarCentre:
    """|x - c|^(-1/2) on [0, 1) with c far from the root, where the constants
    are 1 + O(1/c): the ends of a cube's distance range round together, and
    A_2 used to read 1.018 at c = 1e12, and ap, a1, apq and rh 0 at c = 1e16
    with an 'invalid value' warning on stderr."""

    @pytest.mark.parametrize("center", [1e12, 1e16, -1e300])
    def test_constants_near_one_and_silent(self, tmp_path, capsys, center):
        path = write_power(tmp_path, "far.json", center, -0.5, [0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["constants", "--weight", path, "--depth", "6"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        values = {d["class"]: d["value"] for d in json.loads(out)}
        for name in ("ap", "a1", "apq", "a1q", "rh"):
            assert values[name] == pytest.approx(1.0, rel=1e-12), name


    @pytest.mark.parametrize("command", ["verify", "necessity"])
    def test_cell_averages_past_the_float_range(self, tmp_path, capsys, command):
        # |x - 1e300|^2.5: every cell average is about 1e750, and sigma's
        # about 1e-750; the ratio has degree 0 in w and in sigma, so the
        # harness tabulates both in a power-of-two distance unit
        path = write_power(tmp_path, "far.json", 1e300, 2.5, [0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--weight", path, "--depth", "4"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        ratio = (report["necessity"] if command == "verify" else report)["measured_ratio"]
        assert ratio == pytest.approx(1.0, rel=1e-9)


class TestFlagsPerCommand:
    # each command takes only the flags it reads
    @pytest.mark.parametrize("command,flag,value", [
        ("constants", "--alpha", "0.5"),
        ("constants", "--seed", "1"),
        ("maximal", "--p", "3"),
        ("maximal", "--kind", "plain"),
        ("maximal", "--format", "json"),
        ("cz", "--q", "4"),
        ("cz", "--depth", "3"),
        ("lemmas", "--alpha", "0.25"),
        ("lemmas", "--format", "json"),
        ("necessity", "--seed", "1"),
    ])
    def test_unread_flag_rejected(self, quarters_weight, capsys, command, flag, value):
        assert main([command, "--weight", quarters_weight, flag, value]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestErrors:
    def test_unknown_flag(self, trivial_weight):
        assert main(["verify", "--weight", trivial_weight, "--bogus"]) == 1

    def test_missing_file(self):
        assert main(["constants", "--weight", "/nonexistent.json"]) == 1

    def test_malformed_json_names_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "tabulated", "step": \n  oops}')
        assert main(["constants", "--weight", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_bad_mode_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "mystery"}')
        assert main(["constants", "--weight", str(path)]) == 1
        assert "mode" in capsys.readouterr().err

    def test_negative_values_rejected(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"mode": "tabulated", "step": {
            "n": 1, "root_corner": [0.0], "root_side": 1.0, "depth": 1,
            "values": [1.0, -2.0]}}))
        assert main(["constants", "--weight", str(path)]) == 1


def _step_spec(**fields):
    step = {"n": 1, "root_corner": [0.0], "root_side": 1.0, "depth": 1, "values": [1.0, 2.0]}
    return {"mode": "tabulated", "step": {**step, **fields}}


def _power_spec(**fields):
    return {"mode": "power", "center": 0.0, "exponent": -0.5, "root": [0.0, 1.0], **fields}


MALFORMED = {
    "wrong_length": _step_spec(values=[1.0, 2.0, 3.0]),
    "nan": _step_spec(values=[1.0, float("nan")]),
    "string_side": _step_spec(root_side="wide"),
    "string_values": _step_spec(values="abc"),
    "string_exponent": _power_spec(exponent="steep"),
    "bad_corner": _step_spec(root_corner=[0.0, 0.0]),
    "scalar_corner": _step_spec(root_corner=0.0),
    "negative_side": _step_spec(root_side=-1.0),
    "empty_root": _power_spec(root=[]),
    "top_level_array": [1, 2],
    "top_level_string": "x",
    "top_level_number": 3,
    # 2^40 cells: the lattice is refused before any array is allocated
    "depth_above_cap": _step_spec(depth=40),
    "missing_step": {"mode": "tabulated"},
    "missing_values": {"mode": "tabulated", "step": {
        "n": 1, "root_corner": [0.0], "root_side": 1.0, "depth": 1}},
    "missing_root": {"mode": "power", "center": 0.0, "exponent": -0.5},
}

# the part of the message that names what is wrong, where a case pins one
MALFORMED_MESSAGES = {
    "depth_above_cap": "exceeds the cell cap",
    "missing_step": "missing field 'step'",
    "missing_values": "missing field 'values'",
    "missing_root": "missing field 'root'",
}


class TestMalformedWeightFiles:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_one_with_message(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(MALFORMED[name]))
        assert main(["verify", "--weight", str(path), "--depth", "3", "--n-random", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert MALFORMED_MESSAGES.get(name, "") in err


    # json reads NaN and Infinity; a lattice or power weight built on them
    # used to print every constant as 0.0
    @pytest.mark.parametrize("spec,field", [
        (_step_spec(root_side=math.nan), "root_side"),
        (_step_spec(root_side=math.inf), "root_side"),
        (_step_spec(root_corner=[-math.inf]), "root_corner"),
        (_power_spec(center=math.nan), "center"),
        (_power_spec(exponent=math.inf), "exponent"),
        (_power_spec(root=[0.0, math.inf]), "root"),
        (_power_spec(root=[math.nan, 1.0]), "root"),
    ])
    def test_non_finite_geometry(self, tmp_path, capsys, spec, field):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(spec))
        assert main(["constants", "--weight", str(path), "--depth", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be " in err
        assert "finite" in err


class TestFloatRangeGeometry:
    """A lattice whose root measure or cell measure is not a normal float
    is refused where the lattice is built, naming root_side: a 2-D root of
    side 1e300 used to end in an OverflowError traceback, and one of side
    1e-300 in 'cell values must be finite' about finite cells or a
    ZeroDivisionError traceback."""

    @pytest.mark.parametrize("side,argv", [
        (1e300, ["constants"]),
        (1e-300, ["verify", "--n-random", "2"]),
        (1e-300, ["cz"]),
        (1e-300, ["constants", "--r", "600"]),
    ], ids=["huge_constants", "tiny_verify", "tiny_cz", "tiny_constants_r600"])
    def test_exits_one_naming_root_side(self, tmp_path, capsys, side, argv):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_step_spec(n=2, root_corner=[0.0, 0.0], root_side=side,
                                              values=[1.0, 2.0, 3.0, 4.0])))
        assert main([argv[0], "--weight", str(path), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "root_side" in err


class TestRatioOverflow:
    """A 1-D depth-1 weight on a root of side 1e300 with cells [1e160, 2e300]:
    the ratio's integrals pass the float range though every cell is finite.
    verify and necessity used to print three RuntimeWarnings and then 'cell
    values must be finite' about finite cells; stderr is now one error line
    that names the overflow."""

    @pytest.mark.parametrize("command", ["verify", "necessity"])
    def test_one_error_line_naming_the_overflow(self, tmp_path, capsys, command):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_step_spec(root_side=1e300, values=[1e160, 2e300])))
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a warning would reach stderr
            assert main([command, "--weight", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: overflow: ")

    @pytest.mark.parametrize("command", ["cz", "maximal"])
    def test_maximal_function_overflow_is_named(self, tmp_path, capsys, command):
        # the root's average passes the float range, and M f with it: one
        # error line naming the overflow, not "cell values must be finite"
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_step_spec(root_side=1e300, values=[1e160, 2e300])))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main([command, "--weight", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: overflow: ")
        assert "maximal function" in err

    def test_constants_past_the_integral_range(self, tmp_path, capsys):
        # the root integral of w passes the float range, but A_p, A_1 and
        # A_p^* are finite; A_{p,q}, A_{1,q} and A_{p,q}^* stay +inf, since
        # w^4 itself leaves the float range
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_step_spec(root_side=1e300, values=[1e160, 2e300])))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["constants", "--weight", str(path), "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        values = {row["class"]: float(row["value"]) for row in csv.DictReader(io.StringIO(out))}
        assert (values["ap"], values["a1"], values["ap_star"]) == (5e139, 1e140, 5e139)
        assert values["apq"] == values["a1q"] == values["apq_star"] == math.inf


class TestJsonDump:
    """_to_json writes a dict key by key, its per_cube rows from one
    template per row and every other value with the stdlib: its text is
    json.dumps(obj, sort_keys=True, indent=2) and a newline, byte for byte."""

    @staticmethod
    def _assert_same(obj):
        assert cli._to_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("n,depth", [(1, 4), (2, 2), (3, 1)])
    def test_reports(self, n, depth):
        w = random_weight(GridSpec(n, (0.0,) * n, 1.0, depth), np.random.default_rng(n))
        self._assert_same(harness.verify_weight(w, 2.0, n_random=4))
        self._assert_same(harness.verify_weight(w, 2.0, n / 4.0, 4.0, n_random=4))
        self._assert_same(harness.necessity_check(w, 1.5).to_dict())

    def test_non_finite_ratios(self):
        report = harness.necessity_check(constant(unit_grid(2), 1.0), 2.0).to_dict()
        for row, ratio in zip(report["per_cube"], [math.inf, -math.inf, math.nan, 0.0, 1e-300]):
            row["ratio"] = ratio
        self._assert_same(report)
        self._assert_same({"outer": report, "per_cube": report["per_cube"][:1]})

    def test_nested_values(self):
        # each value below a key is indented as the stdlib indents it: empty
        # containers, a newline and non-ASCII text inside strings, lists of dicts
        self._assert_same({"b": {"\u00e9\n": ["x\ny", {}], "a": {}, "z": {"per_cube": []}},
                           "a": [{"k": 1.5, "j": None}], "per_cube": [], "": True})
        self._assert_same({})
        self._assert_same([{"b": 1, "a": [2.5, math.inf]}])

    def test_vacuous_sufficiency(self):
        # sigma = w^-2 underflows to 0 on the spike, and the bound overflows
        spike = StepFunction(unit_grid(3), [1.0] * 7 + [1e170])
        report = harness.sufficiency_check(spike, 1.5, n_random=2).to_dict()
        assert "vacuous" in report["context"]["diagnostic"]
        self._assert_same(report)

    @pytest.mark.parametrize("argv", [
        ["constants", "--p", "1.5"], ["cz"], ["lemmas"], ["maximal"],
        ["verify", "--n-random", "4"], ["necessity"], ["necessity", "--alpha", "0.25", "--q", "4"],
    ], ids=lambda argv: "_".join(argv[:1] + argv[2:3]))
    def test_cli_payloads(self, monkeypatch, tmp_path, capsys, argv):
        dumped = []
        real = cli._to_json

        def checked(obj):
            dumped.append(real(obj))
            assert dumped[-1] == json.dumps(obj, sort_keys=True, indent=2) + "\n"
            return dumped[-1]

        monkeypatch.setattr(cli, "_to_json", checked)
        w = random_weight(unit_grid(3), np.random.default_rng(7))
        main([argv[0], "--weight", write_weight(tmp_path, "w.json", w), *argv[1:]])
        assert capsys.readouterr().out == dumped[0]


class TestEntryPoint:
    def test_module_invocation(self, trivial_weight):
        proc = subprocess.run(
            [sys.executable, "-m", "weakmax.cli", "constants",
             "--weight", trivial_weight],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0]["value"] == 1.0


def test_czsparse_loads_on_first_use():
    # importing the CLI leaves czsparse unloaded, and every exported name,
    # czsparse's among them, still resolves
    code = ("import sys, weakmax.cli\n"
            "assert 'weakmax.czsparse' not in sys.modules\n"
            "import weakmax\n"
            "assert all(getattr(weakmax, name) is not None for name in weakmax.__all__)\n"
            "from weakmax import SparsityError, czsparse\n"
            "assert SparsityError is czsparse.SparsityError\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestSparsityExitCode:
    def test_root_edge_case_exits_two(self, tmp_path, capsys):
        f = StepFunction(unit_grid(3), [32, 11, 11, 11, 17, 0, 0, 0])
        path = write_weight(tmp_path, "edge.json", f)
        assert main(["cz", "--weight", path, "--a", "4"]) == 2

    def test_json_only_commands_reject_csv(self, tmp_path):
        path = write_weight(tmp_path, "f.json", StepFunction(unit_grid(2), [4, 0, 0, 0]))
        assert main(["maximal", "--weight", path, "--format", "csv"]) == 1
        assert main(["lemmas", "--weight", path, "--format", "csv"]) == 1
