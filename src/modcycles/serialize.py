"""JSON codecs for fields, polynomials, cycles, curves, symbols, and places.

Key order is fixed by construction order so serialized output is
byte-deterministic; all values are strings, lists, or small ints.  Field
elements serialize as decimal/fraction text over base fields and as
low-degree-first coefficient lists over extensions.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import FieldElement, FieldSpec, ModcyclesError, make_field
from .polyring import RatFunc, VarSet, parse_poly, parse_ratfunc, parse_unipoly
from .cycles import (
    ClosedPoint,
    CoordModel,
    HypersurfaceCycle,
    ModulusDatum,
    ParamCurve,
    ZeroCycle,
)
from .milnor import FunctionField, MilnorElement, MilnorSymbol, Valuation


class SerializationError(ModcyclesError):
    pass


# -- field specs -------------------------------------------------------------


def spec_to_json(spec: FieldSpec) -> dict:
    out = {"char": spec.char}
    if spec.is_extension:
        out["ext"] = [str(c) for c in spec.ext]
    return out


def spec_from_json(data: dict) -> FieldSpec:
    try:
        char = int(data["char"])
    except (KeyError, TypeError, ValueError):
        raise SerializationError("field spec needs an integer 'char'") from None
    ext = data.get("ext")
    if ext is None:
        return make_field(char)
    # each coefficient is the element it denotes, as in element_from_json
    return make_field(char, _fractions(ext))


# -- field elements ----------------------------------------------------------


def element_to_json(e: FieldElement):
    if isinstance(e.value, tuple):
        return [str(c) for c in e.value]
    return str(e.value)


def _fractions(texts) -> list[Fraction]:
    try:
        return [Fraction(c) for c in texts]
    except (ValueError, ZeroDivisionError):
        raise SerializationError(f"cannot read {texts!r} as numbers") from None


def element_from_json(data, spec: FieldSpec) -> FieldElement:
    if isinstance(data, list):
        return spec.element(_fractions(data))
    return spec.element(_fractions([data])[0])


# -- polynomials and rational functions --------------------------------------


def ratfunc_to_json(f: RatFunc, var: str = "t") -> str:
    return f.to_text(var)


# -- modulus -----------------------------------------------------------------


def modulus_to_json(D: ModulusDatum) -> dict:
    if D.is_monomial:
        return {"exponents": list(D.monomial_exponents)}
    return {"r": D.r, "poly": D.divisor_poly.to_text()}


def modulus_from_json(data: dict, spec: FieldSpec) -> ModulusDatum:
    if "exponents" in data:
        return ModulusDatum.monomial(spec, [int(m) for m in data["exponents"]])
    try:
        r = int(data["r"])
        poly = parse_poly(data["poly"], spec, VarSet(r, 0))
    except KeyError:
        raise SerializationError("modulus needs 'exponents' or 'r'+'poly'") from None
    return ModulusDatum(poly)


# -- cycles ------------------------------------------------------------------


def cycle_to_json(Z: HypersurfaceCycle, D: ModulusDatum | None = None) -> dict:
    out = {
        "field": spec_to_json(Z.spec),
        "model": Z.model.value,
        "r": Z.vars.r,
        "n": Z.vars.n,
    }
    if D is not None:
        out["modulus"] = modulus_to_json(D)
    out["terms"] = [{"mult": m, "poly": p.to_text()} for m, p in Z.components()]
    return out


def cycle_from_json(data: dict) -> tuple[HypersurfaceCycle, ModulusDatum | None]:
    try:
        spec = spec_from_json(data["field"])
        model = CoordModel(data["model"])
        vars = VarSet(int(data["r"]), int(data["n"]))
        terms = [
            (int(t.get("mult", 1)), parse_poly(t["poly"], spec, vars))
            for t in data["terms"]
        ]
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"bad cycle JSON: {exc}") from None
    Z = HypersurfaceCycle(spec, vars, model, terms)
    D = modulus_from_json(data["modulus"], spec) if "modulus" in data else None
    return Z, D


def point_to_json(pt: ClosedPoint, ambient: FieldSpec) -> dict:
    out = {}
    if pt.residue_spec != ambient:
        out["residue"] = spec_to_json(pt.residue_spec)
    out["t"] = [element_to_json(c) for c in pt.t_coords]
    out["y"] = [element_to_json(c) for c in pt.y_coords]
    return out


def point_from_json(data: dict, ambient: FieldSpec) -> ClosedPoint:
    spec = spec_from_json(data["residue"]) if "residue" in data else ambient
    return ClosedPoint(
        spec,
        [element_from_json(c, spec) for c in data.get("t", [])],
        [element_from_json(c, spec) for c in data.get("y", [])],
    )


def zerocycle_to_json(Z: ZeroCycle, D: ModulusDatum | None = None) -> dict:
    out = {
        "field": spec_to_json(Z.spec),
        "model": Z.model.value,
        "r": Z.r,
        "n": Z.n,
    }
    if D is not None:
        out["modulus"] = modulus_to_json(D)
    out["points"] = [
        dict(mult=m, **point_to_json(p, Z.spec)) for p, m in Z.items()
    ]
    return out


def zerocycle_from_json(data: dict) -> tuple[ZeroCycle, ModulusDatum | None]:
    try:
        spec = spec_from_json(data["field"])
        model = CoordModel(data["model"])
        r, n = int(data["r"]), int(data["n"])
        pts = [
            (int(p.get("mult", 1)), point_from_json(p, spec))
            for p in data["points"]
        ]
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"bad zero-cycle JSON: {exc}") from None
    Z = ZeroCycle(spec, model, r, n, pts)
    D = modulus_from_json(data["modulus"], spec) if "modulus" in data else None
    return Z, D


def cycle_codec(data: dict):
    """The decoder for cycle JSON of either kind: cycle_from_json for a
    hypersurface cycle ("terms"), zerocycle_from_json for a 0-cycle
    ("points")."""
    if "terms" in data:
        return cycle_from_json
    if "points" in data:
        return zerocycle_from_json
    raise SerializationError("cycle data needs 'terms' or 'points'")


# -- curves ------------------------------------------------------------------


def curve_to_json(C: ParamCurve) -> dict:
    out = {
        "field": spec_to_json(C.spec),
        "model": C.model.value,
    }
    if C.graph_over_base:
        out["graph_over_base"] = True
    else:
        out["base_t"] = [element_to_json(c) for c in C.base_t_coords]
    out["components"] = [c.to_text() for c in C.components]
    return out


def curve_from_json(data: dict) -> ParamCurve:
    try:
        spec = spec_from_json(data["field"])
        model = CoordModel(data["model"])
        comps = [parse_ratfunc(c, spec) for c in data["components"]]
        graph = bool(data.get("graph_over_base", False))
        base = [element_from_json(c, spec) for c in data.get("base_t", [])]
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"bad curve JSON: {exc}") from None
    return ParamCurve(spec, model, comps, base, graph)


def embedding_to_json(embedding) -> list[str]:
    return [e.to_text(var="s") for e in embedding]


def embedding_from_json(data, spec: FieldSpec):
    return tuple(parse_ratfunc(e, spec, var="s") for e in data)


# -- symbols and places --------------------------------------------------------


def _entry_to_json(e):
    if isinstance(e, FieldElement):
        return element_to_json(e)
    return ratfunc_to_json(e)


def element_field_from_json(data: dict):
    spec = spec_from_json(data["field"])
    if data.get("function_field"):
        return FunctionField(spec)
    return spec


def milnor_element_to_json(e: MilnorElement) -> dict:
    field = e.field
    if isinstance(field, FunctionField):
        out = {"field": spec_to_json(field.base), "function_field": True}
    else:
        out = {"field": spec_to_json(field)}
    out["symbols"] = [
        {"mult": m, "entries": [_entry_to_json(x) for x in s.entries]}
        for s, m in e.items()
    ]
    return out


def milnor_element_from_json(data: dict) -> MilnorElement:
    field = element_field_from_json(data)
    terms = []
    for row in data["symbols"]:
        if isinstance(field, FunctionField):
            entries = [parse_ratfunc(x, field.base) for x in row["entries"]]
        else:
            entries = [element_from_json(x, field) for x in row["entries"]]
        terms.append((int(row.get("mult", 1)), MilnorSymbol(field, entries)))
    return MilnorElement(field, terms)


def place_to_json(v: Valuation) -> dict:
    if v.is_infinite:
        return {"infinity": True}
    return {"pi": v.pi.to_text()}


def place_from_json(data: dict, field: FunctionField) -> Valuation:
    if data.get("infinity"):
        return Valuation(field, None)
    return Valuation(field, parse_unipoly(data["pi"], field.base))
