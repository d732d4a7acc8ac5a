"""JSON codecs round-trip bit-exactly."""

import json
from fractions import Fraction

import pytest

from modcycles.fields import ReducibleExtensionPolynomial, UniPoly, WrongField, make_field
from modcycles.polyring import RatFunc, VarSet, parse_poly
from modcycles.cycles import (
    ClosedPoint,
    CoordModel,
    HypersurfaceCycle,
    ModulusDatum,
    ParamCurve,
    ZeroCycle,
)
from modcycles.milnor import FunctionField, MilnorElement, MilnorSymbol, Valuation
from modcycles import serialize as ser

F7 = make_field(7)
F9 = make_field(3, [1, 0, 1])
Q = make_field(0)


def through_json(data):
    return json.loads(json.dumps(data))


class TestSpecs:
    def test_fields(self):
        for spec in (F7, F9, Q, make_field(0, [Fraction(-2), 0, 1])):
            assert ser.spec_from_json(through_json(ser.spec_to_json(spec))) == spec

    def test_elements(self):
        for spec, val in ((F7, 3), (Q, Fraction(-5, 3)), (F9, [1, 2])):
            e = spec.element(val)
            assert ser.element_from_json(through_json(ser.element_to_json(e)), spec) == e


class TestCycles:
    def test_hypersurface_with_modulus(self):
        Z = HypersurfaceCycle.from_poly(
            parse_poly("1 - t1*t2*(3*y1 + 2)", F7, VarSet(2, 1)), CoordModel.PSI)
        D = ModulusDatum.monomial(F7, [1, 1])
        blob = through_json(ser.cycle_to_json(Z, D))
        Z2, D2 = ser.cycle_from_json(blob)
        assert Z2 == Z and D2 == D

    def test_schema_shape(self):
        Z = HypersurfaceCycle.from_poly(
            parse_poly("1 - t1*t2*(3*y1 + 2)", F7, VarSet(2, 1)), CoordModel.PSI)
        D = ModulusDatum.monomial(F7, [1, 1])
        data = ser.cycle_to_json(Z, D)
        assert list(data) == ["field", "model", "r", "n", "modulus", "terms"]
        assert data["modulus"] == {"exponents": [1, 1]}
        assert data["terms"][0]["poly"] == "4*t1*t2*y1 + 5*t1*t2 + 1"

    def test_zero_cycle_with_extension_point(self):
        pt = ClosedPoint(F9, [F9.element([1, 1])], [F9.element(2)])
        Z = ZeroCycle(F7, CoordModel.ORIGINAL, 1, 1, ())
        Z9 = ZeroCycle(F9, CoordModel.ORIGINAL, 1, 1, [(2, pt)])
        blob = through_json(ser.zerocycle_to_json(Z9))
        Z2, _ = ser.zerocycle_from_json(blob)
        assert Z2 == Z9

    def test_mixed_residue_points(self):
        ext = ClosedPoint(F9, [F9.element([0, 1])], [])
        rat = ClosedPoint(make_field(3), [make_field(3).element(2)], [])
        Z = ZeroCycle(make_field(3), CoordModel.ORIGINAL, 1, 0, [(1, ext), (3, rat)])
        Z2, _ = ser.zerocycle_from_json(through_json(ser.zerocycle_to_json(Z)))
        assert Z2 == Z

    def test_cycle_codec_picks_the_decoder_by_key(self):
        Z = HypersurfaceCycle.from_poly(parse_poly("1 - t1*y1", F7, VarSet(1, 1)), CoordModel.PSI)
        P = ZeroCycle(F7, CoordModel.ORIGINAL, 1, 0, [(1, ClosedPoint(F7, [F7.element(2)], []))])
        for cycle, encode in ((Z, ser.cycle_to_json), (P, ser.zerocycle_to_json)):
            blob = through_json(encode(cycle))
            assert ser.cycle_codec(blob)(blob) == (cycle, None)
        with pytest.raises(ser.SerializationError, match="'terms' or 'points'"):
            ser.cycle_codec({"field": {"char": 7}})


class TestCurves:
    def test_curve_roundtrip(self):
        t = RatFunc.param(F7)
        C = ParamCurve(F7, CoordModel.ORIGINAL,
                       [t, (RatFunc.const(F7, 3) - t) / (RatFunc.const(F7, 1) - t)],
                       base_t_coords=[F7.element(2)])
        C2 = ser.curve_from_json(through_json(ser.curve_to_json(C)))
        assert C2.components == C.components
        assert C2.base_t_coords == C.base_t_coords

    def test_graph_flag(self):
        t = RatFunc.param(F7)
        C = ParamCurve(F7, CoordModel.ORIGINAL, [t - RatFunc.const(F7, 2)],
                       graph_over_base=True)
        C2 = ser.curve_from_json(through_json(ser.curve_to_json(C)))
        assert C2.graph_over_base


class TestSymbols:
    def test_field_symbol(self):
        e = MilnorElement(F7, [(2, MilnorSymbol(F7, [F7.element(2), F7.element(3)]))])
        e2 = ser.milnor_element_from_json(through_json(ser.milnor_element_to_json(e)))
        assert e2 == e

    def test_function_field_symbol(self):
        ff = FunctionField(F7)
        t = RatFunc.param(F7)
        e = MilnorElement(ff, [(1, MilnorSymbol(ff, [t, t - RatFunc.const(F7, 1)]))])
        e2 = ser.milnor_element_from_json(through_json(ser.milnor_element_to_json(e)))
        assert e2 == e

    def test_places(self):
        ff = FunctionField(F7)
        fin = Valuation(ff, UniPoly(F7, [1, 0, 1]))
        assert ser.place_to_json(fin) == {"pi": "t^2 + 1"}
        assert ser.place_from_json({"pi": "t^2 + 1"}, ff) == fin
        inf = Valuation(ff, None)
        assert ser.place_from_json(ser.place_to_json(inf), ff) == inf


class TestErrors:
    def test_bad_cycle(self):
        with pytest.raises(ser.SerializationError):
            ser.cycle_from_json({"field": {"char": 7}})

    def test_bad_spec(self):
        with pytest.raises(ser.SerializationError):
            ser.spec_from_json({})

    def test_extension_coefficients_are_read_as_elements(self):
        # over F3, 3/2 = 0, so this mu is u^2, and 1/3 has no value at all
        with pytest.raises(ReducibleExtensionPolynomial):
            ser.spec_from_json({"char": 3, "ext": ["3/2", "0", "1"]})
        with pytest.raises(WrongField, match="^denominator 3 not invertible mod 3$"):
            ser.spec_from_json({"char": 3, "ext": ["1/3", "0", "1"]})
        # 1.9 = 19/10 is 1 in F3; the canonical spelling gives the interned spec
        assert ser.spec_from_json({"char": 3, "ext": ["1.9", "0", "1"]}) is F9
        assert ser.spec_from_json({"char": 3, "ext": ["1", "0", "1"]}) is F9
        assert ser.spec_from_json(ser.spec_to_json(F9)) is F9
