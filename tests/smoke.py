"""Every golden under tests/golden and the CLI's one-line refusals, in one table.

Run ``PYTHONPATH=src python tests/smoke.py`` to check each entry: it prints a
line per entry and exits 1 when any fails, naming it.  The tier-1 suite runs
the same table (``tests/test_cli.py::test_smoke``).  This file imports only the
standard library and ``microdiff``, so it runs where nothing else is installed.

A golden's entry is keyed by its file name and holds the CLI argument lists
whose outputs, each run in process and exiting 0, make the file, or a function
that returns its text.  A refusal's entry holds the arguments of one
``python -m microdiff.cli`` run that must exit 1 with one line on stderr and
nothing on stdout.  A value's entry holds a function that raises
AssertionError when the values it builds do not behave as it states.  Adding a
golden is adding one entry.
"""

import contextlib
import dataclasses
import io
import os
import pathlib
import subprocess
import sys
import traceback
from fractions import Fraction

import microdiff
from microdiff import (MicroOp, RingLevel, UnitVerdict, check_unit, cli, compose, gauss_op,
                       invert, mul, product_op, sector_split, truncated_cofactor)
from microdiff.exprs import EvalContext, evaluate, parse
from microdiff.jsonio import dumps, operator_from_json, operator_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden"
REFUSES = "refuses: "
VALUE = "value: "


def ev(text, **ctx):
    return evaluate(parse(text), EvalContext(**ctx))


def read_back(S, digits=None):
    """S read back from its JSON: every scalar a residue, known to at most
    ``digits`` digits when given."""
    obj = operator_to_json(S)
    for term in obj["terms"] if digits else ():
        for t in term["coeff"]["terms"]:
            t["coeff"]["prec"] = min(t["coeff"]["prec"], digits)
    return operator_from_json(obj)


def as_json(*ops):
    return "".join(dumps(operator_to_json(S)) for S in ops)


def _power_chains():
    # A = A * B, each B the right factor of every step: d = 1 Laurent
    # operators with x coefficients at p = 2 and 3, a d = 2 operator with
    # polynomial coefficients, and one d = 3 product
    laurent = "3 + 5*dinv + p*x*d + (7*p^2*x^2 + p^3)*d^2"
    out = []
    for B in (ev(laurent), ev(laurent, prime=3),
              ev("1 + 3*p*x1*d1 + (5*p*x2 + p^2)*d2 + 7*p^2*x1*x2*d1*d2", dim=2)):
        A = B
        for _ in range(4):
            A = A * B
            out.append(f"{A}\n")
    return "".join(out) + as_json(
        ev("x1*d2 + p*x3^2*d1*d3 - 3", dim=3) * ev("x2*x3*d3^2 + p^2*x1*d1 + 5*d2", dim=3))


def _invert_digits():
    # inverses of operators read back from JSON, and of sums holding them
    one, ek1, fkr31 = MicroOp.identity(), RingLevel.ek(1), RingLevel.fkr(3, 1)
    return as_json(*(invert(P, level) for P, level in (
        (read_back(ev("1 + p^4*x*d")), ek1), (read_back(ev("3 + p^2*x*d")), ek1),
        (read_back(ev("1 + p^3*dinv + p^4*d")), fkr31), (one + read_back(ev("p^4*d")), ek1),
        (one + read_back(ev("p^3*dinv + p^4*d")), fkr31))))


def _invert_units():
    # inverses in text, then in JSON: a dominant coefficient c_beta that is
    # not a constant in d = 1 at p = 2 and 3, in d = 2 and read back from
    # JSON at 20 digits, and units at beta != 0 with x coefficients (c_beta
    # constant at ek(1), not at fkr(3, 1)); then the degree-cap refusal that
    # c_beta's x hits in the series
    ek1 = RingLevel.ek(1)
    inverses = [invert(P, level, residual_exponent=target) for P, level, target in (
        (ev("1 + p^3*x + p^4*d"), ek1, 12), (ev("2 + p*x + p^3*d", prime=3), ek1, 6),
        (ev("1 + p^3*x1 - p^4*x2^2 + p^5*x1*d2 + p^4*d1", dim=2), ek1, 6),
        (read_back(ev("1 + p^3*x + p^5*x*d"), 20), ek1, 12),
        (read_back(ev("3 + p^4*x^2 + p^5*d"), 20), ek1, 12),
        (ev("d + p^2*x + p^3*x*d^2"), ek1, 12),
        (ev("(1 + p^3*x)*d + p^4*x + p^3*dinv"), RingLevel.fkr(3, 1), 10))]
    try:
        invert(ev("1 + p*x + p^30*d", degree_cap=4), ek1)
        refusal = "no refusal\n"
    except microdiff.errors.DegreeCapOverflow as e:
        refusal = f"{type(e).__name__}: {e} (needed {e.needed})\n"
    return "".join(f"{S}\n" for S in inverses) + as_json(*inverses) + refusal


def _sums():
    # catalog generators and defects in text and JSON, then sums of
    # generators and of operators read back from JSON at 20 digits
    argvs = []
    for args in (["product_op", "--M", "9"], ["gauss_op", "--M", "6"],
                 ["truncated_cofactor", "--k", "2", "--M", "10"]):
        argvs += [["catalog", *args], ["catalog", *args, "--format", "json"]]
    for k in ("1", "2"):
        for pair in (["x*d + p*d^2", "x^2 + p*x*d"], ["1 + p*x*d^2", "x + p^2*d"]):
            argvs += [["defect", "--k", k, *pair], ["defect", "--k", k, "--format", "json", *pair]]
    G = product_op(5)
    return cli_output(argvs) + as_json(
        product_op(9) + gauss_op(6), product_op(9) - truncated_cofactor(2, 10),
        G + MicroOp.identity() - G,
        read_back(ev("p^4*d", precision=20)) + read_back(ev("1 + p*x*d", precision=20)))


def _folds():
    # folds, clips, sector parts and constructed operators; read back with
    # every scalar a residue known to at most 20 digits
    L = ev("1 + p*x*d + p^2*dinv + p^3*x*d^2")
    clipped = mul(L, L, window=1)
    return as_json(
        compose(product_op(5), ev("1 + p*x*d + p^2*d^3")), compose(gauss_op(4), gauss_op(3)),
        clipped, mul(product_op(4), ev("x*d + p^2"), window=2),
        *sector_split(ev("x*d^2 + p*dinv + 3 + p^2*x*dinv^3 + p^3*d")), *sector_split(clipped),
        MicroOp.identity() + MicroOp.monomial((1,), Fraction(-3, 4)),
        MicroOp.constant(Fraction(5, 9), 2, 3) + MicroOp.monomial((1, -1), Fraction(9, 7), prime=3),
        gauss_op(6, prime=3), read_back(product_op(5), 20) + ev("1 + p*x*d^7"),
        read_back(clipped, 20) - ev("p*x*dinv^3 + d"))


def _verdict_twins():
    # UnitVerdict's constructor sets its slots through the member descriptors
    # that this Python's dataclass(slots=True) makes: a check_unit verdict must
    # hold its fields, equal, hash and print as its twin, and refuse assignment
    finf, ek1 = RingLevel.finf(), RingLevel.ek(1)
    for P, fields in ((ev("1 - p*d"), (True, finf, (1,), None, None, (2, 2))),
                      (ev("d1 + d2", dim=2),
                       (False, ek1, None, "max_coefficient_not_unique", (1, 0), None))):
        got, twin = check_unit(P, fields[1]), UnitVerdict(*fields)
        if not (tuple(getattr(got, f.name) for f in dataclasses.fields(got)) == fields
                and got == twin and hash(got) == hash(twin) and repr(got) == repr(twin)):
            raise AssertionError(f"{got!r} is not its twin {twin!r}")
        try:
            got.beta = twin.alpha
        except dataclasses.FrozenInstanceError:
            continue
        raise AssertionError(f"{got!r} took an assignment")


_CHAIN_P3 = ("prod(n=1..40, 1 - p^n*d)", "1 - p^41*d")
_CONSTANT_P3 = ("1/2 + 3*d - 9/5*dinv + 2/7*d^2", "5/4 - 3/2*dinv + 27*d - 1/3*dinv^2")
_LITERAL_P = "3*p^2*x^3*d^2 + 5/7*dinv^2 - 9*p*x*d + 2"
_LITERAL_Q = "x^2*d + 7/3*p^3*x*dinv^3 - 1"
_LITERAL_PROD = "prod(n=1..6, 1 - 3*p^n*d + 5/7*p^(2*n)*d^2)"
_FKR_UNIT = ("--level", "fkr", "--k", "3", "--r", "1", "1 + p^3*dinv + p^4*d")

TABLE = {
    # a probed limit-level verdict, a level norm and a Newton polygon in SVG
    "check_finf_probe.txt": [["check", "--level", "finf", "prod(n=1..9, 1 - p^n*d)", "--k", "4"]],
    "norm_k3_prod7.txt": [["norm", "--k", "3", "prod(n=1..7, 1 - p^n*d)"]],
    "polygon_quadratic.svg": [["polygon", "--format", "svg", "1 + p*d + p^3*d^2"]],
    # a d = 1 Laurent times polynomial-coefficient product, and a d = 2 product
    "mul_products.txt": [
        ["mul", "x^2*d + p*dinv + 3", "x*d^2 + p^2*x^3"],
        ["mul", "--dim", "2", "x1*d2 + p*d1^2 + x2^2", "x1^2*d1 + p^2*x2*d2 + 3"]],
    # a 20-factor generator times one more factor, in text and in JSON at
    # --prec 20, and a power of a Laurent operator with x coefficients
    "chain_products.txt": [
        ["mul", "prod(n=1..20, 1 - p^n*d)", "1 - p^21*d"],
        ["mul", "--format", "json", "--prec", "20", "prod(n=1..20, 1 - p^n*d)", "1 - p^21*d"],
        ["mul", "(x*d + p*x^2*dinv + 3)^4", "x + p*dinv"]],
    # the same at p = 3 with 40 factors, and the norm and order of the product
    "chain_products_p3.txt": [
        ["mul", "--prime", "3", *_CHAIN_P3],
        ["mul", "--prime", "3", "--format", "json", "--prec", "20", *_CHAIN_P3],
        ["norm", "--prime", "3", "--k", "2", "{}*({})".format(*_CHAIN_P3)],
        ["order", "--prime", "3", "--k", "2", "{}*({})".format(*_CHAIN_P3)]],
    "power_chains.txt": _power_chains,
    # a p = 3 Laurent product with fractional units, in text and in JSON at
    # --prec 20, a d = 2 product, and an inverse at ek(2)
    "constant_products.txt": [
        ["mul", "--prime", "3", *_CONSTANT_P3],
        ["mul", "--prime", "3", "--format", "json", "--prec", "20", *_CONSTANT_P3],
        ["mul", "--dim", "2", "1 + p*d1 - p^2/3*d1*d2 + 5*d2^2", "3 - p*d2 + 1/5*d1^2 - d1*d2"],
        ["invert", "--level", "ek", "--k", "2", "--residual", "20", "1 - p*d"]],
    # a d = 1 Laurent product with x coefficients in text and in JSON at
    # --prec 20, one at p = 3, one in d = 2, and the norm and order of a
    # comprehension product
    "literal_exprs.txt": [
        ["mul", _LITERAL_P, _LITERAL_Q],
        ["mul", "--format", "json", "--prec", "20", _LITERAL_P, _LITERAL_Q],
        ["mul", "--prime", "3", "2/9*p*x^2*d - 4*dinv^3 + 5/7*p^-1*x*d^2",
         "1 - 3*p^2*x*dinv + 1/2*d^3"],
        ["mul", "--dim", "2", "3*p*x1^2*d2 - 5/9*x2*d1^2 + p^3*dinv",
         "x2*d1 + 2/5*p*x1*x2*d2^2 - 7"],
        ["norm", "--k", "2", _LITERAL_PROD],
        ["order", "--k", "3", _LITERAL_PROD]],
    # inverses by the geometric series: x coefficients at ek(1) to p^-60, a
    # Laurent unit at fkr(3, 1), a d = 2 unit, a p = 3 unit whose inverse has
    # denominators, and the fkr(3, 1) inverse again in JSON at --prec 20
    "invert_series.txt": [
        ["invert", "--level", "ek", "--k", "1", "--residual", "60", "1 + p^4*x*d"],
        ["invert", *_FKR_UNIT],
        ["invert", "--dim", "2", "--level", "ek", "--k", "1", "1 + p^2*x1*d2 - p^3*d1"],
        ["invert", "--prime", "3", "--level", "ek", "--k", "1", "--residual", "30",
         "2 + 9*x*d + 3*dinv"],
        ["invert", "--format", "json", "--prec", "20", *_FKR_UNIT]],
    # an inverse past the default precision: every scalar keeps 100 digits
    "invert_precision.txt": [["invert", "--prec", "100", "--format", "json", "--level", "ek",
                              "--k", "2", "--residual", "10", "1 - p*d"]],
    "invert_digits.txt": _invert_digits,
    "invert_units.txt": _invert_units,
    "sums.txt": _sums,
    "folds.txt": _folds,
    # a bad weight, window or probe depth, an unwritable output, a level
    # field the level does not take, --r where no level is read, --mu beside
    # level flags, a catalog flag the generator does not read, and an
    # expression with a bad character, none at all, an unclosed parenthesis
    # or a rational exponent, each refused by `python -m microdiff.cli` in one line
    **{REFUSES + " ".join(argv): argv for argv in (
        ["norm", "--mu", "1/0", "d"], ["order", "--mu", "1/0", "d"], ["order", "--k", "-1", "d"],
        ["norm", "--k", "1", "--out", "no-such-dir/norm.txt", "d"],
        ["norm", "--k", "1", "--window", "-1", "d"],
        ["check", "--level", "finf", "--k", "-1", "1+p*d"],
        ["check", "--level", "ek", "--k", "1", "--r", "1", "1-p*d"],
        ["order", "--k", "1", "--r", "5", "1-p*d"], ["defect", "--k", "1", "--r", "9", "d", "x"],
        ["norm", "--mu", "1", "--level", "ek", "--k", "2", "--r", "1", "1-p*d"],
        ["catalog", "truncated_cofactor", "--k", "1", "--M", "3", "--exact"],
        ["catalog", "product_op", "--M", "2", "--k", "5"],
        ["catalog", "gauss_op", "--M", "2", "--k", "5"],
        ["norm", "--k", "1", "1 + $"], ["norm", "--k", "1", ""], ["norm", "--k", "1", "(1 + d"],
        ["norm", "--k", "1", "p^(1/2)*d"])},
    # verdicts: values equal to, hashed as and printed as their constructor's
    VALUE + "check_unit verdicts and their twins": _verdict_twins,
}


def cli_output(argvs):
    """What the CLI prints for each argument list in turn, run in process;
    each run must exit 0."""
    out = io.StringIO()
    for argv in argvs:
        with contextlib.redirect_stdout(out):
            code = cli.run(list(argv))
        if code != 0:
            raise AssertionError(f"`microdiff {' '.join(argv)}` exited {code}")
    return out.getvalue()


def _refused(argv):
    src = str(pathlib.Path(microdiff.__file__).parent.parent)  # the package under test
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-m", "microdiff.cli", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    if not (run.returncode == 1 and run.stdout == "" and "Traceback" not in run.stderr
            and len(run.stderr.splitlines()) == 1):
        raise AssertionError(f"exit {run.returncode}, stdout {run.stdout!r}, "
                             f"stderr {run.stderr!r}")


def check(name):
    """Run entry ``name``; raise AssertionError saying what differs."""
    entry = TABLE[name]
    if name.startswith(REFUSES):
        return _refused(entry)
    if name.startswith(VALUE):
        return entry()
    got = entry() if callable(entry) else cli_output(entry)
    want = (GOLDEN / name).read_text()
    if got != want:
        got_lines, want_lines = got.splitlines(True), want.splitlines(True)
        i = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                 min(len(got_lines), len(want_lines)))
        raise AssertionError(f"differs from tests/golden/{name} at line {i + 1}: "
                             f"got {got_lines[i:i + 1]}, want {want_lines[i:i + 1]}")


def main():
    failed = []
    for name in TABLE:
        try:
            check(name)
        except Exception as e:  # any error fails the entry; the others still run
            failed.append(name)
            print(f"FAIL {name}: {type(e).__name__}: {e}")
            if not isinstance(e, AssertionError):
                traceback.print_exc(file=sys.stdout)
        else:
            print(f"ok   {name}")
    if failed:
        print(f"{len(failed)} of {len(TABLE)} entries failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
