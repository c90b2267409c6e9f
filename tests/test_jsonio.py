import json
from fractions import Fraction

import jsonschema
import pytest

from microdiff import MicroOp, NotCertifiable, TailCertificate, product_op
from microdiff.jsonio import (OPERATOR_SCHEMA, POLYGON_SCHEMA, SCALAR_SCHEMA,
                              SERIES_SCHEMA, VERDICT_SCHEMA, dumps,
                              operator_from_json, operator_to_json,
                              polygon_to_json, verdict_to_json)

F = Fraction


def test_operator_round_trip_with_tail():
    P = product_op(5)
    doc = operator_to_json(P)
    jsonschema.validate(doc, OPERATOR_SCHEMA)
    back = operator_from_json(doc)
    assert back.dim == P.dim and back.prime == P.prime
    assert back.tail == P.tail
    assert set(back.terms) == set(P.terms)
    for a in P.terms:
        for m, c in P.terms[a].coeffs.items():
            b = back.terms[a].coeffs[m]
            n = min(b.precision, c.precision)
            assert b.valuation == c.valuation and b.residue(n) == c.residue(n)


def test_laurent_operator_round_trip():
    S = MicroOp.monomial((-2,), F(3, 4)) + MicroOp.monomial((1,), F(8))
    back = operator_from_json(operator_to_json(S))
    assert set(back.terms) == {(-2,), (1,)}
    # valuations, hence all norms, survive the round trip exactly
    for a in S.terms:
        assert (min(s.valuation for s in back.terms[a].coeffs.values())
                == min(s.valuation for s in S.terms[a].coeffs.values()))


def test_neg_tail_field():
    S = MicroOp(1, 2, {(-1,): product_op(1, exact=True).terms[(0,)]},
                neg_tail=TailCertificate(2, F(1, 2), F(3)))
    doc = operator_to_json(S)
    jsonschema.validate(doc, OPERATOR_SCHEMA)
    assert operator_from_json(doc).neg_tail == S.neg_tail


def test_polygon_and_verdict_schemas():
    from microdiff import check_unit, polygon
    from microdiff.tower import RingLevel
    P = product_op(6)
    jsonschema.validate(polygon_to_json(polygon(P)), POLYGON_SCHEMA)
    v = check_unit(P, RingLevel.ek(2))
    doc = verdict_to_json(v)
    jsonschema.validate(doc, VERDICT_SCHEMA)
    assert doc["witness"]["violated"] == "max_coefficient_not_unique"


def test_dumps_deterministic():
    doc = operator_to_json(product_op(3))
    assert dumps(doc) == dumps(json.loads(dumps(doc)))


def test_nested_schemas_are_valid_json_schema():
    for schema in (SCALAR_SCHEMA, SERIES_SCHEMA, OPERATOR_SCHEMA,
                   POLYGON_SCHEMA, VERDICT_SCHEMA):
        jsonschema.Draft202012Validator.check_schema(schema)


def test_a_truncated_coefficient_series_is_refused_on_reading():
    doc = operator_to_json(MicroOp.monomial((1,), F(3)))
    doc["terms"][0]["coeff"]["exact"] = False
    jsonschema.validate(doc, OPERATOR_SCHEMA)
    with pytest.raises(NotCertifiable):
        operator_from_json(doc)
