"""JSON encodings of the kernel's value types, plus their schemas.

Scalars serialize their unit part as decimal digits of the residue modulo
p**prec; deserialized scalars therefore live in digit mode.  Fractions
(tail offsets/slopes, polygon slopes) serialize as ``"a/b"`` strings so the
encoding stays exact.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .diffop import _LEVELS, MicroOp, TailCertificate
from .newton import NewtonPolygon
from .padic import DEFAULT_PRECISION, PadicScalar
from .tate import TateSeries
from .tower import UnitVerdict


def fraction_to_json(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def fraction_from_json(s: str) -> Fraction:
    return Fraction(s)


def scalar_to_json(c: PadicScalar) -> dict:
    if c.is_zero:
        return {"val": None, "unit": "0", "prec": c.precision}
    return {"val": c.valuation, "unit": str(c.residue()), "prec": c.precision}


def scalar_from_json(obj: dict, prime: int) -> PadicScalar:
    if obj["val"] is None:
        return PadicScalar.zero(prime, obj.get("prec", DEFAULT_PRECISION))
    return PadicScalar.from_residue(obj["val"], int(obj["unit"]), prime,
                                    obj.get("prec", DEFAULT_PRECISION))


def series_to_json(f: TateSeries) -> dict:
    terms = [{"exp": list(m), "coeff": scalar_to_json(c)}
             for m, c in sorted(f.coeffs.items())]
    return {"dim": f.dim, "cap": f.degree_cap, "exact": f.exact, "terms": terms}


def series_from_json(obj: dict, prime: int) -> TateSeries:
    coeffs = {tuple(t["exp"]): scalar_from_json(t["coeff"], prime)
              for t in obj["terms"]}
    return TateSeries(obj["dim"], prime, coeffs, obj["cap"], obj["exact"])


def tail_to_json(t: TailCertificate | None) -> dict | None:
    if t is None:
        return None
    out = {"start": t.start, "t0": fraction_to_json(t.t0),
           "t1": fraction_to_json(t.t1)}
    if t.infinite:
        out["infinite"] = True
    return out


def tail_from_json(obj: dict | None) -> TailCertificate | None:
    if obj is None:
        return None
    return TailCertificate(obj["start"], fraction_from_json(obj["t0"]),
                           fraction_from_json(obj["t1"]),
                           obj.get("infinite", False))


def operator_to_json(P: MicroOp) -> dict:
    terms = [{"alpha": list(a), "coeff": series_to_json(c)}
             for a, c in sorted(P.terms.items())]
    out = {"dim": P.dim, "prime": P.prime, "terms": terms,
           "tail": tail_to_json(P.tail)}
    if P.neg_tail is not None:
        out["neg_tail"] = tail_to_json(P.neg_tail)
    return out


def operator_from_json(obj: dict) -> MicroOp:
    prime = obj["prime"]
    terms = {tuple(t["alpha"]): series_from_json(t["coeff"], prime)
             for t in obj["terms"]}
    return MicroOp(obj["dim"], prime, terms, tail_from_json(obj.get("tail")),
                   tail_from_json(obj.get("neg_tail")))


def polygon_to_json(poly: NewtonPolygon) -> dict:
    out = {
        "points": [[n, fraction_to_json(v)] for n, v in poly.points],
        "vertices": [[n, fraction_to_json(v)] for n, v in poly.vertices],
        "slopes": [fraction_to_json(s) for s in poly.slopes],
        "truncated": poly.truncated,
    }
    if poly.certified_below is not None:
        out["certified_below"] = fraction_to_json(poly.certified_below)
    return out


def verdict_to_json(v: UnitVerdict) -> dict:
    level = {name: x for name, x in vars(v.level).items() if x is not None}  # tag and its levels
    out: dict = {"invertible": v.invertible, "level": level}
    if v.invertible:
        out["witness"] = {"beta": list(v.beta)}
        if v.delegate is not None:
            out["witness"]["delegate"] = list(v.delegate)
    else:
        witness: dict = {"violated": v.violated}
        if v.alpha is not None:
            witness["alpha"] = list(v.alpha)
        out["witness"] = witness
    return out


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- schemas -------------------------------------------------------------------

FRACTION_PATTERN = r"^-?[0-9]+(/[0-9]+)?$"

SCALAR_SCHEMA = {
    "type": "object",
    "properties": {
        "val": {"type": ["integer", "null"]},
        "unit": {"type": "string", "pattern": "^[0-9]+$"},
        "prec": {"type": "integer", "minimum": 1},
    },
    "required": ["val", "unit", "prec"],
    "additionalProperties": False,
}

SERIES_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "cap": {"type": "integer", "minimum": 0},
        "exact": {"type": "boolean"},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "exp": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "coeff": SCALAR_SCHEMA,
                },
                "required": ["exp", "coeff"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["dim", "cap", "exact", "terms"],
    "additionalProperties": False,
}

TAIL_SCHEMA = {
    "type": ["object", "null"],
    "properties": {
        "start": {"type": "integer", "minimum": 0},
        "t0": {"type": "string", "pattern": FRACTION_PATTERN},
        "t1": {"type": "string", "pattern": FRACTION_PATTERN},
        "infinite": {"type": "boolean"},
    },
    "required": ["start", "t0", "t1"],
    "additionalProperties": False,
}

OPERATOR_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "prime": {"type": "integer", "minimum": 2},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "alpha": {"type": "array", "items": {"type": "integer"}},
                    "coeff": SERIES_SCHEMA,
                },
                "required": ["alpha", "coeff"],
                "additionalProperties": False,
            },
        },
        "tail": TAIL_SCHEMA,
        "neg_tail": TAIL_SCHEMA,
    },
    "required": ["dim", "prime", "terms", "tail"],
    "additionalProperties": False,
}

POLYGON_SCHEMA = {
    "type": "object",
    "properties": {
        "points": {"type": "array", "items": {
            "type": "array", "prefixItems": [
                {"type": "integer"}, {"type": "string", "pattern": FRACTION_PATTERN}],
            "minItems": 2, "maxItems": 2}},
        "vertices": {"type": "array", "items": {
            "type": "array", "prefixItems": [
                {"type": "integer"}, {"type": "string", "pattern": FRACTION_PATTERN}],
            "minItems": 2, "maxItems": 2}},
        "slopes": {"type": "array",
                   "items": {"type": "string", "pattern": FRACTION_PATTERN}},
        "truncated": {"type": "boolean"},
        "certified_below": {"type": "string", "pattern": FRACTION_PATTERN},
    },
    "required": ["points", "vertices", "slopes", "truncated"],
    "additionalProperties": False,
}

VERDICT_SCHEMA = {
    "type": "object",
    "properties": {
        "invertible": {"type": "boolean"},
        "level": {
            "type": "object",
            "properties": {
                "tag": {"enum": list(_LEVELS)},
                "k": {"type": "integer"},
                "r": {"type": "integer"},
            },
            "required": ["tag"],
            "additionalProperties": False,
        },
        "witness": {
            "type": "object",
            "properties": {
                "beta": {"type": "array", "items": {"type": "integer"}},
                "delegate": {"type": "array", "items": {"type": "integer"}},
                "violated": {"type": "string"},
                "alpha": {"type": "array", "items": {"type": "integer"}},
            },
            "additionalProperties": False,
        },
    },
    "required": ["invertible", "level", "witness"],
    "additionalProperties": False,
}
