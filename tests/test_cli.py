import contextlib
import io
import json
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoke
from microdiff import RingLevel, check_unit, cli, diffop
from microdiff.exprs import EvalContext, evaluate, parse
from microdiff.jsonio import OPERATOR_SCHEMA, POLYGON_SCHEMA, VERDICT_SCHEMA, verdict_to_json


def run(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(args)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", smoke.TABLE)
def test_smoke(name):
    # every golden, and the one-line refusals of `python -m microdiff.cli`
    smoke.check(name)


def test_the_goldens_hold_what_they_pin():
    # test_smoke checks that each golden is what the CLI prints
    def golden(name):
        return (smoke.GOLDEN / name).read_text()
    probe = golden("check_finf_probe.txt")
    assert "invertible: false" in probe and "clause: non-finite" in probe
    assert golden("norm_k3_prod7.txt").strip() == "norm = p^3"
    # the 1 of the series and D^-beta used to cap every term at 64 digits
    doc = json.loads(golden("invert_precision.txt"))
    scalars = [t["coeff"] for term in doc["terms"] for t in term["coeff"]["terms"]]
    assert len(scalars) == 10 and all(
        c["prec"] == 100 and c["unit"] == str(2**100 - 1) for c in scalars)
    svg = golden("polygon_quadratic.svg")
    assert "slope 1" in svg and "slope 2" in svg
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


class TestJsonOutputs:
    def test_polygon_schema(self):
        code, out = run(["polygon", "--format", "json", "1 + p*d + p^3*d^2"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, POLYGON_SCHEMA)
        assert doc["slopes"] == ["1", "2"]
        assert doc["vertices"] == [[0, "0"], [1, "1"], [2, "3"]]

    def test_verdict_schema(self):
        code, out = run(["check", "--level", "ek", "--k", "2",
                         "--format", "json", "1 - p*d"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, VERDICT_SCHEMA)
        assert doc["invertible"] is True and doc["witness"]["beta"] == [1]

    def test_operator_schema(self):
        for args in (["catalog", "product_op", "--M", "4", "--format", "json"],
                     ["mul", "--format", "json", "dinv", "x"],
                     ["invert", "--level", "ek", "--k", "2", "--format",
                      "json", "1 - p*d"]):
            code, out = run(args)
            assert code == 0
            jsonschema.validate(json.loads(out), OPERATOR_SCHEMA)

    def test_order_json(self):
        code, out = run(["order", "--k", "2", "--format", "json", "1 - p*d + p^3*d^2"])
        assert code == 0
        assert json.loads(out) == {"mu": "2", "order_lower": 1, "order_upper": 2}

    @pytest.mark.parametrize("text, level, want", [
        ("1 + p^3*dinv + p^4*d", RingLevel.fkr(3, 1),
         {"invertible": True, "level": {"tag": "fkr", "k": 3, "r": 1}, "witness": {"beta": [0]}}),
        ("1 + p*d", RingLevel.finf(),
         {"invertible": True, "level": {"tag": "finf"},
          "witness": {"beta": [1], "delegate": [2, 2]}}),
        ("1 + p*d", RingLevel.fkr(2, 1),
         {"invertible": False, "level": {"tag": "fkr", "k": 2, "r": 1},
          "witness": {"violated": "lower_order_too_large", "alpha": [0]}})])
    def test_verdict_json_at_fkr_and_with_a_delegate(self, text, level, want):
        doc = verdict_to_json(check_unit(evaluate(parse(text), EvalContext()), level))
        jsonschema.validate(doc, VERDICT_SCHEMA)
        assert doc == want

    def test_json_matches_library(self):
        from microdiff import product_op
        from microdiff.jsonio import operator_from_json, operator_to_json
        code, out = run(["catalog", "product_op", "--M", "5", "--format", "json"])
        doc = json.loads(out)
        P = product_op(5)
        assert doc == json.loads(json.dumps(operator_to_json(P)))
        back = operator_from_json(doc)
        assert set(back.terms) == set(P.terms) and back.tail == P.tail


class TestExitCodes:
    def test_usage_error(self):
        assert run(["norm", "1 + d"])[0] == 1          # missing --k
        assert run(["check", "1 + d", "--k", "2"])[0] == 1  # missing --level

    def test_syntax_error(self):
        assert run(["norm", "--k", "1", "1 + ("])[0] == 1

    def test_unknown_symbol(self):
        assert run(["norm", "--k", "1", "1 + q"])[0] == 1

    def test_not_invertible(self):
        assert run(["invert", "--level", "ek", "--k", "1", "1 - p*d"])[0] == 3

    def test_window_overflow_maps_to_2(self):
        code = run(["mul", "--window", "4", "d^4", "d^4"])[0]
        assert code == 2

    def test_success(self):
        assert run(["order", "--k", "2", "1 - p*d"])[0] == 0

    def test_window_overflow_names_the_window_to_rerun_with(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["invert", "--level", "ek", "--k", "2",
                             "--residual", "80", "1 - p*d"])
        assert code == 2 and out == ""
        message = err.getvalue().strip()
        assert "exceeds the window cap 64" in message
        assert "lower bound" not in message
        assert message.endswith("rerun with --window 80 or larger")
        assert run(["invert", "--level", "ek", "--k", "2", "--residual", "80",
                    "--window", "80", "1 - p*d"])[0] == 0

    def test_a_laurent_inverse_with_x_coefficients_answers_at_the_hinted_window(self):
        # the hint used to be the refused product's exponent: 3, then 5, 7
        args = ["invert", "--level", "ek", "--k", "1", "--residual", "10", "1 - p*x*dinv"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run([*args, "--window", "2"])
        assert code == 2
        assert err.getvalue().strip().endswith("rerun with --window 12 or larger")
        assert run([*args, "--window", "12"])[0] == 0

    def test_a_monomial_power_names_the_window_it_reaches(self):
        # d^10 is raised in one step: the hint used to be 5, then 6, ..., 10
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["mul", "--window", "4", "d^10", "1"])
        assert code == 2 and out == ""
        assert err.getvalue().strip().endswith("rerun with --window 10 or larger")
        assert run(["mul", "--window", "10", "d^10", "1"]) == (0, "d^10\n")


    @pytest.mark.parametrize("args", [
        ["norm", "--mu", "1/0", "d"],  # these two ended in a ZeroDivisionError
        ["order", "--mu", "1/0", "d"],
        ["order", "--k", "-1", "d"],  # answered "order N = 1"
        ["norm", "--mu", "-1", "d"]])
    def test_a_bad_weight_is_refused_in_one_line(self, args):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(args)
        assert code == 1 and out == ""
        message = err.getvalue()
        assert message.count("\n") == 1 and "Traceback" not in message
        assert message.startswith("usage error: " if "1/0" in args else "error: ")

    @pytest.mark.parametrize("mu", ["0", "2", "1/3"])
    def test_the_zero_operator_has_norm_0_at_every_weight(self, mu):
        # --mu used to refuse it with "error: zero operator", while --k answered 0
        assert run(["norm", "--mu", mu, "0"]) == run(["norm", "--k", "1", "0"]) == (0, "norm = 0\n")
        code, out = run(["norm", "--mu", mu, "--format", "json", "p - p"])
        assert code == 0 and json.loads(out) == {"zero": True}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["norm", "--mu", "-1", "0"]) == (1, "")
        assert err.getvalue() == "error: weight must be >= 0\n"

    @pytest.mark.parametrize("args, prefix", [
        (["norm", "--k", "1", "--window", "-1", "d"], "usage error: "),  # answered "norm = p^1"
        (["mul", "--window", "-1", "d", "1"], "usage error: "),  # asked for --window 1
        (["check", "--level", "finf", "--k", "-1", "1+p*d"], "error: the probe depth --k")])
    def test_a_negative_window_or_probe_depth_is_refused_in_one_line(self, args, prefix):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(args)
        assert code == 1 and out == ""
        message = err.getvalue()
        assert message.count("\n") == 1 and message.startswith(prefix)

    @pytest.mark.parametrize("args", [  # each printed its text answer and exited 0
        ["norm", "--k", "1", "d"], ["order", "--k", "1", "d"],
        ["check", "--level", "finf", "1 + p*d"], ["invert", "--level", "ek", "--k", "1", "1 + p*d"],
        ["defect", "--k", "1", "d", "x"], ["mul", "d", "x"], ["catalog", "product_op", "--M", "3"]])
    def test_svg_output_is_refused_for_all_but_the_polygon(self, args):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run([*args, "--format", "svg"])
        assert code == 1 and out == ""
        assert err.getvalue() == f"usage error: --format svg is for polygon only, not {args[0]}\n"

    @pytest.mark.parametrize("args, message", [
        (["norm", "--level", "fkr", "--k", "2", "1 + d"], "--level fkr needs --k and --r"),
        (["check", "--level", "fir", "1 + p*d"], "--level fir needs --r"),
        (["check", "--level", "ek", "--k", "1", "--r", "1", "1 - p*d"], "--level ek takes no --r"),
        (["invert", "1 + p*d"], "invert needs --level"),
        (["defect", "d", "x"], "defect needs --k"),
        (["catalog", "truncated_cofactor", "--M", "5"], "truncated_cofactor needs --k"),
        (["norm", "--level", "finf", "d"], "norm needs --level dkq, ek or fkr (or --mu)"),
        (["order", "d"], "order needs --k or --mu")])
    def test_a_missing_option_is_a_usage_error_in_one_line(self, args, message):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(args) == (1, "")
        assert err.getvalue() == f"usage error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        # each answered, exit 0, reading no --r or no level flag
        (["order", "--k", "1", "--r", "5", "1-p*d"], "unrecognized arguments: --r"),
        (["defect", "--k", "1", "--r", "9", "d", "x"], "unrecognized arguments: --r"),
        (["norm", "--mu", "1", "--level", "ek", "--k", "2", "--r", "1", "1-p*d"],
         "--mu takes no --level, --k or --r\n"),
        (["norm", "--mu", "1/2", "--k", "2", "1-p*d"], "--mu takes no --level, --k or --r\n"),
        (["order", "--mu", "1", "--k", "2", "1-p*d"], "--mu takes no --k\n"),
        # each answered, exit 0: the truncation, tail included, and the stored terms
        (["catalog", "truncated_cofactor", "--k", "1", "--M", "3", "--exact"],
         "truncated_cofactor takes no --exact\n"),
        (["catalog", "product_op", "--M", "2", "--k", "5"], "product_op takes no --k\n"),
        (["catalog", "gauss_op", "--M", "2", "--k", "5"], "gauss_op takes no --k\n")])
    def test_a_level_flag_the_command_would_not_read_is_a_usage_error(self, args, message):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(args) == (1, "")
        assert err.getvalue().startswith(f"usage error: {message}")
        assert err.getvalue().count("\n") == 1

    def test_a_weight_alone_still_answers(self):
        assert run(["norm", "--mu", "1/2", "1-p*d"]) == (0, "norm = p^0\n")
        assert run(["order", "--mu", "1", "1-p*d"]) == (0, "order N = 1\norder n = 0\n")
        assert run(["order", "--k", "2", "1-p*d"]) == (0, "order N = 1\norder n = 1\n")
        assert run(["defect", "--k", "1", "d", "x"]) == (0, "defect = p^-1\n")

    def test_an_output_file_that_cannot_be_opened_is_refused(self, tmp_path):
        # used to end in a FileNotFoundError traceback
        target = tmp_path / "missing" / "norm.txt"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["norm", "--k", "1", "--out", str(target), "d"])
        assert (code, out) == (1, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert str(target) in err.getvalue() and not target.parent.exists()

    @pytest.mark.parametrize("prime", ["0", "1", "4", "6", "-3", None])
    def test_a_value_that_is_not_a_prime_is_refused(self, prime, monkeypatch):
        # --prime 0 used to end in a ZeroDivisionError traceback, --prime 1
        # in a loop that never ended; the environment is read the same way
        args = ["mul", "d", "1"] if prime is None else ["mul", "--prime", prime, "d", "1"]
        monkeypatch.setenv("MICRODIFF_PRIME", "9")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(args)
        assert code == 1 and out == ""
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1
        assert "Traceback" not in message

    def test_a_composite_prime_gives_no_verdict(self):
        # at --prime 4, 2 was a "unit" and this printed "invertible: false";
        # the 4-adic completion of Q is Q_2, where the operator is a unit
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["check", "--prime", "4", "--level", "ek", "--k", "1", "1 + 2*x"])
        assert (code, out, err.getvalue()) == (1, "", "error: 4 is not a prime\n")
        code, out = run(["check", "--prime", "2", "--level", "ek", "--k", "1", "1 + 2*x"])
        assert code == 0 and out.startswith("invertible: true")


# The exit-code contract's parts: each subcommand with flags that it takes
# and its number of operands; more flags, with good and bad values; operands
# good and bad; and words that lead the command
_TAKES = {
    "norm": (1, ["--k", "1"], ["--level", "ek", "--k", "2"],
             ["--level", "fkr", "--k", "2", "--r", "1"], ["--mu", "1/2"]),
    "order": (1, ["--k", "2"], ["--mu", "3"]),
    "polygon": (1, []),
    "check": (1, ["--level", "dkq", "--k", "1"], ["--level", "ek", "--k", "1"],
              ["--level", "fkr", "--k", "3", "--r", "1"], ["--level", "fir", "--r", "1"],
              ["--level", "finf"], ["--level", "dinf"]),
    "invert": (1, ["--level", "ek", "--k", "1", "--residual", "4"],
               ["--level", "fkr", "--k", "3", "--r", "1", "--residual", "6"]),
    "defect": (2, ["--k", "1"], ["--k", "2"]),
    "catalog": (1, ["--M", "3"], ["--M", "2", "--exact"], ["--k", "1", "--M", "3"]),
    "mul": (2, []),
}
_FLAGS = {
    "--prime": ("2", "3", "4"), "--dim": ("1", "2", "0"), "--prec": ("8", "30"),
    "--deg-cap": ("6", "-1"), "--window": ("4", "-1"), "--format": ("text", "json", "svg"),
    "--out": ("no-such-dir/out.txt",), "--level": ("dkq", "ek", "fkr", "fir", "finf", "dinf"),
    "--k": ("0", "1", "2", "-1"), "--r": ("1", "2"), "--mu": ("1/2", "3", "3/0", "-1/2"),
    "--residual": ("4", "-1"), "--M": ("2", "3", "-1"), "--exact": (None,)}
_OPERANDS = ("1 - p*d", "1 + p^2*x*d", "d", "p*x^2 + d^2", "3 + p^-1*dinv", "x1*d2 + p*d1",
             "prod(n=1..4, 1 - p^n*d)", "(1 + p*d)^2", "1 + (", "q*d", "x^70*d", "",
             "-1 + p*d", "-3*p^2*d + x", "-p*d", "-h + d", "--k=1 + d")
_NAMES = ("product_op", "gauss_op", "truncated_cofactor")


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_TAKES)))
    arity, *flag_sets = _TAKES[command]
    words = _NAMES if command == "catalog" else _OPERANDS
    n = draw(st.sampled_from((arity, arity, arity, arity - 1, arity + 1)))
    chunks = [[draw(st.sampled_from(words))] for _ in range(n)]
    chunks.append(draw(st.sampled_from(flag_sets)))
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS)), max_size=2)):
        value = draw(st.sampled_from(_FLAGS[flag]))
        chunks.append([flag] if value is None else [flag, value])
    lead = draw(st.sampled_from(([],) * 8 + (["--prime", "3"], ["frob"])))
    return [*lead, command, *(w for chunk in draw(st.permutations(chunks)) for w in chunk)]


@settings(max_examples=800, derandomize=True, deadline=None, database=None)
@given(_argvs())
def test_every_exit_keeps_the_contract(argv):
    # exit 0 to 3 and no exception; a failure says one line on stderr and
    # nothing on stdout; the one-pass read gives what the top-level parser gives
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(argv)
    assert code in (0, 1, 2, 3)
    assert code == 0 or (out == "" and err.getvalue().count("\n") == 1), (code, err.getvalue())
    assert smoke.parse_outcome(cli._parse, argv) == smoke.parse_outcome(
        cli._build_parser().parse_args, argv)


def test_a_well_formed_argv_never_reaches_argparse():
    # every golden's argv is read in one pass over its subcommand's table,
    # into the namespace the top-level parser gives
    argvs = [argv for name, entry in smoke.TABLE.items() if isinstance(entry, list)
             and not name.startswith((smoke.REFUSES, smoke.VALUE)) for argv in entry]
    assert argvs
    want = [vars(cli._build_parser().parse_args(argv)) for argv in argvs]
    with mock.patch("argparse.ArgumentParser.parse_known_args",
                    side_effect=AssertionError("argparse parsed")):
        assert [vars(cli._parse(argv)) for argv in argvs] == want


class TestWorkingRing:
    def test_product_keeps_a_precision_above_the_default(self):
        code, out = run(["mul", "--prec", "100", "--format", "json",
                         "3*d^2", "x^3 + 5"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, OPERATOR_SCHEMA)
        precs = [c["coeff"]["prec"] for t in doc["terms"] for c in t["coeff"]["terms"]]
        assert precs and set(precs) == {100}

    def test_a_monomial_past_the_degree_cap_is_refused_with_a_hint(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["mul", "x^20", "x^20*d"])
        assert code == 2 and out == ""
        message = err.getvalue().strip()
        assert "exceeds the degree cap 32" in message and "lower bound" in message
        assert message.endswith("rerun with --deg-cap 40 or larger")

    def test_a_power_past_the_degree_cap_names_a_cap_that_works(self):
        # x^40 has degree exactly 40: the hint suffices on the first rerun
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["norm", "--k", "1", "x^40*d + 1"])
        assert code == 2 and out == ""
        assert err.getvalue().strip().endswith("rerun with --deg-cap 40 or larger")
        assert run(["norm", "--k", "1", "--deg-cap", "40", "x^40*d + 1"]) == (0, "norm = p^1\n")

    def test_an_inverse_past_the_degree_cap_names_a_cap_that_works(self):
        args = ["invert", "--level", "ek", "--k", "1", "--residual", "20"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(args + ["1 + p*x^2 + p^5*d"])
        assert code == 2 and out == ""
        assert err.getvalue().strip().endswith("rerun with --deg-cap 40 or larger")
        assert run(args + ["--deg-cap", "40", "1 + p*x^2 + p^5*d"])[0] == 0

    @pytest.mark.parametrize("args", [["mul", "d", "3"], ["norm", "--k", "1", "5"],
                                      ["invert", "--level", "ek", "--k", "1", "3"]])
    def test_a_number_operand_converts_no_series(self, args):
        # a number is one row of kernel sums at the context's precision and cap
        with mock.patch.object(diffop, "_series_sums", wraps=diffop._series_sums) as converted:
            code, _ = run(args)
        assert code == 0 and converted.call_count == 0

    def test_a_number_operand_is_refused_past_the_degree_cap_unless_it_is_0(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["norm", "--k", "1", "--deg-cap", "-1", "5"]) == (1, "")
        assert err.getvalue() == "error: monomial (0,) exceeds degree cap -1\n"
        assert run(["norm", "--k", "1", "--deg-cap", "-1", "0"]) == (0, "norm = 0\n")

    def test_degree_cap_above_the_default_reaches_every_literal(self):
        # d and the start of x^20 used to keep the default cap 32
        code, out = run(["mul", "--deg-cap", "50", "x^20", "x^20*d"])
        assert code == 0 and out.strip() == "x^40*d"


class TestBehaviour:
    def test_polygon_text(self):
        assert run(["polygon", "1 + p*d + p^3*d^2"]) == (
            0, "vertices: (0,0) (1,1) (2,3)\nslopes: 1, 2\n")

    def test_order_output(self):
        code, out = run(["order", "--k", "1", "1 - p*d"])
        assert code == 0
        assert out == "order N = 1\norder n = 0\n"

    def test_norm_mu(self):
        code, out = run(["norm", "--mu", "3/2", "1 + p*d + p^3*d^2"])
        assert code == 0
        assert out.strip() == "norm = p^1/2"

    def test_defect(self):
        code, out = run(["defect", "--k", "2", "d", "x"])
        assert code == 0
        assert out.strip() == "defect = p^-2"

    def test_check_levels_text(self):
        code, out = run(["check", "--level", "fkr", "--k", "2", "--r", "1",
                         "1 - p*d"])
        assert code == 0
        assert "invertible: false" in out
        assert "clause: lower_order_too_large" in out

    def test_check_and_invert_at_fir(self):
        assert run(["check", "--level", "fir", "--r", "1", "1 - p*d"]) == (
            0, "invertible: false\nclause: lower_order_too_large\nalpha: [0]\n")
        code, out = run(["check", "--level", "fir", "--r", "2", "--format", "json", "1 - p*d"])
        doc = json.loads(out)
        jsonschema.validate(doc, VERDICT_SCHEMA)
        assert code == 0 and doc["witness"]["delegate"] == [2, 2]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["invert", "--level", "fir", "--r", "1", "1 - p*d"]) == (3, "")
        assert err.getvalue() == (
            "not invertible: not a unit at fir(r=1): lower_order_too_large\n")

    @pytest.mark.parametrize("level", [["--level", "finf"], ["--level", "fir", "--r", "1"]])
    def test_a_non_positive_operator_is_refused_alike_with_and_without_a_probe(self, level):
        # with --k the probe asked order_Nk first, whose refusal named a query
        # the user did not call
        said = []
        for probe in ([], ["--k", "2"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                said.append((run(["check", *level, *probe, "d^-1 + d"]), err.getvalue()))
        assert said[0] == said[1]
        (code, out), message = said[0]
        assert code == 1 and out == "" and message.count("\n") == 1
        assert message.startswith("error: ")
        assert message.endswith(" applies to positive operators\n")

    def test_a_probe_that_passes_leaves_the_verdict_to_finf(self):
        # order N_8 of 1 - p*d is already its finite order 1
        assert run(["check", "--level", "finf", "--k", "8", "1 - p*d"]) == (
            0, "invertible: true\nbeta: [1]\ndelegate: fkr(k=2, r=2)\n")

    def test_finf_without_probe_is_honest(self):
        # the exact finite product has an invertible top coefficient
        code, out = run(["check", "--level", "finf", "prod(n=1..9, 1 - p^n*d)"])
        assert code == 0
        assert "invertible: true" in out

    def test_prime_flag(self):
        code, out = run(["norm", "--prime", "3", "--k", "1", "3*d"])
        assert code == 0
        assert out.strip() == "norm = p^0"

    def test_prime_env(self, monkeypatch):
        monkeypatch.setenv("MICRODIFF_PRIME", "5")
        code, out = run(["norm", "--k", "1", "5*d"])
        assert code == 0
        assert out.strip() == "norm = p^0"

    def test_out_file(self, tmp_path):
        target = tmp_path / "poly.json"
        code, _ = run(["polygon", "--format", "json", "--out", str(target),
                       "1 + p*d"])
        assert code == 0
        jsonschema.validate(json.loads(target.read_text()), POLYGON_SCHEMA)

    def test_cli_matches_library_bit_for_bit(self):
        from fractions import Fraction
        from microdiff import norm_k
        _, out = run(["norm", "--k", "3", "prod(n=1..7, 1 - p^n*d)"])
        from microdiff.catalog import product_op
        lib = norm_k(product_op(7, exact=True), 3)
        assert lib == Fraction(2) ** 3 and out.strip() == "norm = p^3"
