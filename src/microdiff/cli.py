"""Command-line driver.

Subcommands map one-to-one onto the kernel: ``norm``, ``order``,
``polygon``, ``check``, ``invert``, ``defect``, ``catalog``, ``mul``.
Output is deterministic; ``--format json`` emits the documented schemas,
``--format svg`` renders polygons.  Exit codes: 0 success, 1 usage or
expression errors, 2 insufficient truncation, 3 not invertible.

For the limit levels (``fir``/``finf``/``dinf``) the optional ``--k`` flag
sets a congruence probe depth: the check then classifies with the structure
visible at levels <= k only, so an operator whose level order is still
growing at the probe depth reports ``non-finite`` even if its expression is
a finite product.  Omit ``--k`` for the honest verdict on the exact data.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache

from . import catalog, diffop, exprs, jsonio, microop, newton, padic, svg, tate, tower
from .errors import (ExprSyntaxError, InsufficientTruncation, MicrodiffError,
                     NotCertifiable, NotInvertible, UndecidableFiniteness,
                     UnknownSymbol, WindowOverflow)
from .tower import RingLevel, UnitVerdict


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def rational(text: str) -> Fraction:
    """A ``--mu`` weight a/b; a zero denominator is a bad value like any other."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; ``--prime`` defaults per call in
    :func:`run`, so ``MICRODIFF_PRIME`` is read at each run."""
    top = _Parser(prog="microdiff", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    common = _Parser(add_help=False)
    common.add_argument("--prime", type=int, default=None)
    common.add_argument("--dim", type=int, default=1)
    common.add_argument("--prec", type=int, default=padic.DEFAULT_PRECISION)
    common.add_argument("--deg-cap", type=int, default=tate.DEFAULT_DEGREE_CAP, dest="deg_cap")
    common.add_argument("--window", type=int, default=diffop.DEFAULT_WINDOW_CAP)
    common.add_argument("--format", choices=("text", "json", "svg"), default="text")
    common.add_argument("--out", type=str, default=None)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    def level_flags(p):
        p.add_argument("--level", choices=tuple(diffop._LEVELS), default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--r", type=int, default=None)

    p = add_parser("norm", help="level norm of an operator")
    p.add_argument("expr")
    level_flags(p)
    p.add_argument("--mu", type=rational, default=None,
                   help="rational weight a/b, in place of --level, --k and --r")

    p = add_parser("order", help="largest/smallest weighted order")
    p.add_argument("expr")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mu", type=rational, default=None, help="rational weight a/b, in place of --k")

    p = add_parser("polygon", help="Newton polygon")
    p.add_argument("expr")

    p = add_parser("check", help="unit verdict at a ring level")
    p.add_argument("expr")
    level_flags(p)

    p = add_parser("invert", help="explicit inverse with residual target")
    p.add_argument("expr")
    level_flags(p)
    p.add_argument("--residual", type=int, default=20,
                   help="target exponent e: ||P*S - 1|| <= p^-e")

    p = add_parser("defect", help="quasi-abelian defect of a pair")
    p.add_argument("exprP")
    p.add_argument("exprQ")
    p.add_argument("--k", type=int, default=None)

    p = add_parser("catalog", help="named generator operators")
    p.add_argument("name", choices=("product_op", "gauss_op", "truncated_cofactor"))
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--exact", action="store_true")

    p = add_parser("mul", help="product of two operators")
    p.add_argument("exprP")
    p.add_argument("exprQ")
    return top


def _context(args) -> exprs.EvalContext:
    return exprs.EvalContext(prime=args.prime, dim=args.dim,
                             precision=args.prec, degree_cap=args.deg_cap,
                             window_cap=args.window)


def _eval_operator(text: str, ctx: exprs.EvalContext):
    value = exprs.evaluate(exprs.parse(text), ctx)
    return exprs._as_op(value, ctx)


def _ring_level(args) -> RingLevel:
    tag = args.level or ("fkr" if args.r is not None else "dkq")
    flags = [f for f, least in zip("kr", diffop._LEVELS[tag]) if least is not None]
    if args.r is not None and "r" not in flags:  # --k stays: at a limit level it is a probe depth
        raise UsageError(f"--level {tag} takes no --r")
    if any(getattr(args, f) is None for f in flags):
        raise UsageError(f"--level {tag} needs " + " and ".join(f"--{f}" for f in flags))
    return RingLevel(tag, **{f: getattr(args, f) for f in flags})


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _power_report(args, name: str, exponent) -> str:
    """``name = p^e`` for an exponent e; None stands for the value 0."""
    if exponent is None:
        return jsonio.dumps({"zero": True}) if args.format == "json" else f"{name} = 0\n"
    if args.format == "json":
        return jsonio.dumps({"prime": args.prime,
                             "exponent": jsonio.fraction_to_json(exponent)})
    return f"{name} = p^{exponent}\n"


def _cmd_norm(args, ctx) -> int:
    if args.mu is not None and (args.level, args.k, args.r) != (None, None, None):
        raise UsageError("--mu takes no --level, --k or --r")
    P = _eval_operator(args.expr, ctx)
    if args.mu is not None:
        e = None if P.is_zero and args.mu >= 0 else diffop.norm_mu(P, args.mu)
    else:
        level = _ring_level(args)
        if level.k is None:
            raise UsageError("norm needs --level dkq, ek or fkr (or --mu)")
        e = level.norm_exponent(P)
    _emit(args, _power_report(args, "norm", e))
    return 0


def _cmd_order(args, ctx) -> int:
    if args.mu is None and args.k is None:
        raise UsageError("order needs --k or --mu")
    if args.mu is not None and args.k is not None:
        raise UsageError("--mu takes no --k")
    P = _eval_operator(args.expr, ctx)
    mu = args.mu if args.mu is not None else Fraction(args.k)
    upper = diffop.order_Nmu(P, mu)
    lower = diffop.order_nmu(P, mu)
    if args.format == "json":
        _emit(args, jsonio.dumps({"mu": jsonio.fraction_to_json(mu),
                                  "order_upper": upper, "order_lower": lower}))
    else:
        _emit(args, f"order N = {upper}\norder n = {lower}\n")
    return 0


def _cmd_polygon(args, ctx) -> int:
    P = _eval_operator(args.expr, ctx)
    poly = newton.polygon(P)
    if args.format == "svg":
        _emit(args, svg.render_polygon(poly, title=args.expr))
    elif args.format == "json":
        _emit(args, jsonio.dumps(jsonio.polygon_to_json(poly)))
    else:
        vertices = " ".join(f"({n},{v})" for n, v in poly.vertices)
        slopes = ", ".join(str(s) for s in poly.slopes)
        _emit(args, f"vertices: {vertices}\nslopes: {slopes}\n")
    return 0


def _probed_check(P, level: RingLevel, probe_k: int | None) -> UnitVerdict:
    """Limit-level verdict through a congruence probe depth.

    With a probe, an operator whose level order is still growing at depth k
    is classified with the infinite operators: the levels <= k cannot
    distinguish it from one.
    """
    if probe_k is None or level.tag not in ("fir", "finf", "dinf"):
        return tower.check_unit(P, level)
    if probe_k < 0:
        raise ValueError("the probe depth --k must be >= 0")
    cls = tower.classify_surconvergent(P)  # check_unit refuses a non-positive P
    if P.positive and cls.kind == "finite" and cls.order is not None and cls.order > 0:
        if diffop.order_Nk(P, probe_k) < cls.order:
            return UnitVerdict(False, level, violated="non-finite")
    return tower.check_unit(P, level)


def _verdict_text(verdict: UnitVerdict) -> str:
    lines = [f"invertible: {'true' if verdict.invertible else 'false'}"]
    if verdict.invertible:
        lines.append(f"beta: {list(verdict.beta)}")
        if verdict.delegate:
            lines.append(f"delegate: fkr(k={verdict.delegate[0]}, r={verdict.delegate[1]})")
    else:
        lines.append(f"clause: {verdict.violated}")
        if verdict.alpha is not None:
            lines.append(f"alpha: {list(verdict.alpha)}")
    return "\n".join(lines) + "\n"


def _cmd_check(args, ctx) -> int:
    P = _eval_operator(args.expr, ctx)
    if args.level is None:
        raise UsageError("check needs --level")
    level = _ring_level(args)
    verdict = _probed_check(P, level, args.k)
    if args.format == "json":
        _emit(args, jsonio.dumps(jsonio.verdict_to_json(verdict)))
    else:
        _emit(args, _verdict_text(verdict))
    return 0


def _operator_report(args, P) -> str:
    if args.format == "json":
        return jsonio.dumps(jsonio.operator_to_json(P))
    return f"{P}\n"


def _cmd_invert(args, ctx) -> int:
    P = _eval_operator(args.expr, ctx)
    if args.level is None:
        raise UsageError("invert needs --level")
    level = _ring_level(args)
    inverse = tower.invert(P, level, window_cap=args.window,
                           residual_exponent=args.residual)
    _emit(args, _operator_report(args, inverse))
    return 0


def _cmd_defect(args, ctx) -> int:
    if args.k is None:
        raise UsageError("defect needs --k")
    P = _eval_operator(args.exprP, ctx)
    Q = _eval_operator(args.exprQ, ctx)
    _emit(args, _power_report(args, "defect", diffop._defect_exponent(P, Q, args.k)))
    return 0


def _cmd_catalog(args, ctx) -> int:
    if args.name == "truncated_cofactor":
        if args.k is None or args.exact:
            raise UsageError(f"truncated_cofactor {'takes no --exact' if args.exact else 'needs --k'}")
        P = catalog.truncated_cofactor(args.k, args.M, args.prime)
    elif args.k is not None:
        raise UsageError(f"{args.name} takes no --k")
    else:
        P = getattr(catalog, args.name)(args.M, args.prime, exact=args.exact)
    _emit(args, _operator_report(args, P))
    return 0


def _cmd_mul(args, ctx) -> int:
    P = _eval_operator(args.exprP, ctx)
    Q = _eval_operator(args.exprQ, ctx)
    _emit(args, _operator_report(args, microop.mul(P, Q, window_cap=args.window)))
    return 0


_COMMANDS = {
    "norm": _cmd_norm,
    "order": _cmd_order,
    "polygon": _cmd_polygon,
    "check": _cmd_check,
    "invert": _cmd_invert,
    "defect": _cmd_defect,
    "catalog": _cmd_catalog,
    "mul": _cmd_mul,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.window < 0:  # it would refuse every product
            raise UsageError(f"--window must be >= 0, got {args.window}")
        if args.format == "svg" and args.command != "polygon":  # only a polygon renders
            raise UsageError(f"--format svg is for polygon only, not {args.command}")
        if args.prime is None:
            args.prime = int(os.environ.get("MICRODIFF_PRIME", padic.DEFAULT_PRIME))
        ctx = _context(args)  # refuses a --prime that is not a prime
        return _COMMANDS[args.command](args, ctx)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ExprSyntaxError, UnknownSymbol, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InsufficientTruncation, NotCertifiable, UndecidableFiniteness,
            WindowOverflow) as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return 2
    except NotInvertible as exc:
        print(f"not invertible: {exc}", file=sys.stderr)
        return 3
    except MicrodiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
