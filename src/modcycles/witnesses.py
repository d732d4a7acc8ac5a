"""Constructive vanishing and non-vanishing results as re-verifiable certificates.

A :class:`WitnessCertificate` is a self-contained JSON-shaped record: a
structured claim, serialized witness data, and a transcript of named checks
with the inputs and expected outcomes embedded.  :func:`verify_certificate`
re-executes every transcript entry from the stored data alone, so a third
party can re-verify without the generator.

The residue invariant ``rho`` of a level-1 cycle V(f) with f = 1 - t1...tr*g
reads off the linear coefficient of g(0, ..., 0, y1): the convention
res_{y1=inf}(a*y1 + b) = a is fixed so that rho(V(1 - t1...tr*a*y1)) = a.
That coefficient is a coefficient of f itself, which gives the scan identity
rho(V(f)) = -[t1...tr*y1]f: one pass over the terms of f reads it, with no
division by t1...tr and no substitution.
The opposite sign convention negates rho; nothing downstream depends on the
choice.
"""

from __future__ import annotations

import json
from typing import Sequence

from .fields import FieldElement, FieldSpec
from .polyring import InexactDivision, MultiPoly, RatFunc, VarSet
from .cycles import (
    ClosedPoint,
    CoordModel,
    HypersurfaceCycle,
    ModulusDatum,
    ModulusVerdict,
    ParamCurve,
    ZeroCycle,
    boundary,
    check_face_condition,
    check_modulus_codim1,
    check_modulus_zerocycle,
    curve_avoids_divisor,
    curve_boundary,
    prune_degenerate,
    psi_convert,
    pushforward_closed_immersion,
)
from . import serialize as ser


class WitnessError(Exception):
    pass


class WrongLevel(WitnessError):
    pass


class NotNormalized(WitnessError):
    pass


class DegreeTooHigh(WitnessError):
    pass


class UnsupportedModulus(WitnessError):
    pass


class NotPresentable(WitnessError):
    pass


class PointOnModulus(WitnessError):
    pass


class MalformedCertificate(WitnessError):
    pass


class TooManyParameters(WitnessError):
    pass


# ---------------------------------------------------------------------------
# The rho invariant
# ---------------------------------------------------------------------------


def _component_rho(p: MultiPoly) -> FieldElement:
    """rho of one component V(f): the scan identity rho(V(f)) = -[t1...tr*y1]f.

    f must have constant term 1 and every other term divisible by t1...tr,
    which is exactly when t1...tr divides f - 1; the terms of g = (1 - f) /
    (t1...tr) at t = 0 are the terms of f whose t-part is (1, ..., 1), negated,
    and they must have y1-degree at most 1.  One pass over the terms checks
    both and reads the coefficient, without dividing or substituting.
    """
    vars = p.vars
    r = vars.r
    if not p.constant_term_is_one:
        raise NotNormalized(f"component {p.to_text()} is not normalized to constant term 1")
    ones = (1,) * r
    too_high = False
    for e in p.monomials():
        t = e[:r]
        if 0 in t:
            if any(e):
                raise NotNormalized(
                    f"t1...tr does not divide f - 1 for component {p.to_text()}"
                )
        elif e[r] > 1 and t == ones:
            too_high = True
    # after the scan, so that an unnormalized component reports that first
    if too_high:
        raise DegreeTooHigh("the evaluated first-order part has y1-degree above 1")
    return -p.coeff(ones + (1,) + (0,) * (vars.n - 1))


def rho(Z: HypersurfaceCycle, D: ModulusDatum) -> FieldElement:
    """The residue invariant of a level-1 cycle with modulus (1, ..., 1).

    Z-linear over components: rho(V(1 - t1...tr*g + higher order)) is the
    coefficient of y1 in g evaluated at t = 0; higher-order t-terms never
    contribute.
    """
    if Z.model is not CoordModel.PSI:
        from .cycles import WrongModel

        raise WrongModel("rho is computed in the PSI model")
    if Z.vars.n != 1:
        raise WrongLevel(f"rho needs a level-1 cycle, got n={Z.vars.n}")
    if D.monomial_exponents != tuple(1 for _ in range(Z.vars.r)):
        raise UnsupportedModulus("rho is defined for the modulus with all exponents 1")
    total = Z.spec.zero
    for mult, p in Z.components():
        total = total + _component_rho(p) * Z.spec.element(mult)
    return total


def rho_of_boundary(W: HypersurfaceCycle, D: ModulusDatum) -> FieldElement:
    return rho(boundary(W), D)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class WitnessCertificate:
    """claim + witnesses + transcript; Valid iff every transcript check passed."""

    __slots__ = ("claim", "witnesses", "transcript", "convention")

    def __init__(self, claim: dict, witnesses: list, transcript: list, convention: dict):
        self.claim = claim
        self.witnesses = witnesses
        self.transcript = transcript
        self.convention = convention

    @property
    def valid(self) -> bool:
        return all(entry.get("status") == "pass" for entry in self.transcript)

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "witnesses": self.witnesses,
            "transcript": self.transcript,
            "convention": self.convention,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WitnessCertificate":
        try:
            return cls(data["claim"], data["witnesses"], data["transcript"], data["convention"])
        except (KeyError, TypeError):
            raise MalformedCertificate("certificate needs claim/witnesses/transcript/convention") from None

    def __repr__(self):
        return f"WitnessCertificate(valid={self.valid}, checks={len(self.transcript)})"


def _entry(check: str, data: dict, expected, passed: bool) -> dict:
    return {
        "check": check,
        "data": data,
        "expected": expected,
        "status": "pass" if passed else "fail",
    }


def _convention(model: CoordModel, level0_flag: bool) -> dict:
    return {"model": model.value, "level0_degeneracy": bool(level0_flag)}


# -- check implementations (shared by generation and re-verification) ---------


def _decoded(memo: dict, codec: str, data, *args):
    """``ser.<codec>(data, *args)``, decoded once per certificate: ``memo``
    maps the codec, the canonical JSON of ``data`` and ``args`` (the field of
    an embedding) to the decoded object."""
    key = (codec, json.dumps(data, sort_keys=True), *args)
    out = memo.get(key)
    if out is None:
        out = memo[key] = getattr(ser, codec)(data, *args)
    return out


def _boundary_of(memo: dict, data) -> HypersurfaceCycle:
    """The boundary of the cycle ``data`` encodes, computed once per
    certificate and kept in ``memo`` beside the decoded cycle."""
    key = ("boundary", json.dumps(data, sort_keys=True))
    out = memo.get(key)
    if out is None:
        out = memo[key] = boundary(_decoded(memo, "cycle_from_json", data)[0])
    return out


def _run_check(check: str, data: dict, memo: dict):
    """Recompute a transcript check from its serialized inputs.

    Returns the value that is compared against the entry's ``expected``.
    ``memo`` belongs to one certificate; its entries share decoded objects.
    """
    if check == "face_condition":
        obj = _load_cycle_like(data["cycle"], memo)
        return check_face_condition(obj).passed
    if check == "modulus_codim1":
        Z, D = _decoded(memo, "cycle_from_json", data["cycle"])
        if D is None:
            raise MalformedCertificate("modulus check without modulus")
        return check_modulus_codim1(Z, D).verdict.value
    if check == "modulus_zerocycle":
        Z, D = _decoded(memo, "zerocycle_from_json", data["cycle"])
        if D is None:
            raise MalformedCertificate("modulus check without modulus")
        return check_modulus_zerocycle(Z, D)
    if check == "boundary_equals":
        W, _ = _decoded(memo, "cycle_from_json", data["surface"])
        Z, _ = _decoded(memo, "cycle_from_json", data["target"])
        flag = bool(data.get("level0_degeneracy", True))
        got = boundary(W, level0_flag=flag)
        want = prune_degenerate(Z, level0_flag=flag)
        return ser.cycle_to_json(got) == ser.cycle_to_json(want)
    if check == "boundary_zero":
        W, _ = _decoded(memo, "cycle_from_json", data["cycle"])
        flag = bool(data.get("level0_degeneracy", True))
        return not boundary(W, level0_flag=flag)
    if check == "rho_equals":
        Z, D = _decoded(memo, "cycle_from_json", data["cycle"])
        return ser.element_to_json(rho(Z, D))
    if check == "rho_of_boundary_zero":
        _, D = _decoded(memo, "cycle_from_json", data["cycle"])
        return not rho(_boundary_of(memo, data["cycle"]), D)
    if check == "curve_boundary_equals":
        C = _decoded(memo, "curve_from_json", data["curve"])
        emb = _decoded(memo, "embedding_from_json", data["embedding"], C.spec) \
            if "embedding" in data else None
        Z, _ = _decoded(memo, "zerocycle_from_json", data["target"])
        got = curve_boundary(C) if emb is None else pushforward_closed_immersion(C, emb).boundary()
        return ser.zerocycle_to_json(got) == ser.zerocycle_to_json(Z)
    if check == "point_on_curve":
        spec = ser.spec_from_json(data["field"])
        emb = _decoded(memo, "embedding_from_json", data["embedding"], spec)
        s0 = ser.element_from_json(data["parameter"], spec)
        want = [ser.element_from_json(c, spec) for c in data["point_t"]]
        vals = [e.eval(s0) for e in emb]
        return all(v == w for v, w in zip(vals, want)) and len(vals) == len(want)
    if check == "curve_avoids_divisor":
        spec = ser.spec_from_json(data["field"])
        emb = _decoded(memo, "embedding_from_json", data["embedding"], spec)
        D = ser.modulus_from_json(data["modulus"], spec)
        return curve_avoids_divisor(emb, D)
    raise MalformedCertificate(f"unknown check kind {check!r}")


def _load_cycle_like(data: dict, memo: dict):
    if "terms" in data:
        return _decoded(memo, "cycle_from_json", data)[0]
    if "points" in data:
        return _decoded(memo, "zerocycle_from_json", data)[0]
    raise MalformedCertificate("cycle data needs 'terms' or 'points'")


def _checked(check: str, data: dict, expected, memo: dict) -> dict:
    got = _run_check(check, data, memo)
    return _entry(check, data, expected, got == expected)


def verify_certificate(cert: WitnessCertificate | dict) -> bool:
    """Re-run every transcript entry from the certificate's own data.

    A check whose recomputation hits a domain error (inadmissible witness,
    unnormalized component, ...) fails the certificate rather than raising;
    structurally broken certificates raise MalformedCertificate.
    """
    from .fields import FieldError
    from .polyring import PolyError
    from .cycles import CycleError
    from .milnor import MilnorError

    if isinstance(cert, dict):
        cert = WitnessCertificate.from_json(cert)
    if not isinstance(cert.transcript, list):
        raise MalformedCertificate("transcript must be a list")
    if not cert.transcript:
        raise MalformedCertificate("transcript is empty")
    memo = {}
    for entry in cert.transcript:
        if not isinstance(entry, dict) or "check" not in entry or "data" not in entry:
            raise MalformedCertificate(f"malformed transcript entry: {entry!r}")
        if entry.get("status") != "pass":
            return False
        try:
            got = _run_check(entry["check"], entry["data"], memo)
        except MalformedCertificate:
            raise
        except (KeyError, TypeError, AttributeError) as exc:
            raise MalformedCertificate(
                f"unreadable data in {entry['check']!r} entry: {type(exc).__name__}: {exc}"
            ) from exc
        except (FieldError, PolyError, CycleError, MilnorError, WitnessError,
                ser.SerializationError, ValueError):
            return False
        if got != entry.get("expected"):
            return False
    return True


# ---------------------------------------------------------------------------
# rho reciprocity
# ---------------------------------------------------------------------------


def verify_rho_reciprocity(W: HypersurfaceCycle, D: ModulusDatum) -> WitnessCertificate:
    """Certificate that rho kills the boundary of an admissible level-2 cycle."""
    if W.vars.n != 2:
        raise WrongLevel("reciprocity concerns level-2 cycles")
    cycle_json = ser.cycle_to_json(W, D)
    memo = {}
    transcript = [
        _checked("face_condition", {"cycle": cycle_json}, True, memo),
        _checked("modulus_codim1", {"cycle": cycle_json}, ModulusVerdict.CERTIFIED.value, memo),
    ]
    if not all(entry["status"] == "pass" for entry in transcript):
        raise WitnessError("the input cycle is not certified admissible")
    transcript.append(_checked("rho_of_boundary_zero", {"cycle": cycle_json}, True, memo))
    faces = [
        {"poly": p.to_text(), "mult": m, "rho": ser.element_to_json(_component_rho(p))}
        for m, p in _boundary_of(memo, cycle_json).components()
    ]
    claim = {
        "identity": "rho(boundary(W)) == 0",
        "cycle": cycle_json,
        "boundary_faces": faces,
    }
    return WitnessCertificate(claim, [cycle_json], transcript, _convention(W.model, True))


# ---------------------------------------------------------------------------
# Bounding surfaces at level 0
# ---------------------------------------------------------------------------


def bounding_surface(Z: HypersurfaceCycle, D: ModulusDatum,
                     level0_flag: bool = True) -> WitnessCertificate:
    """Witness that a level-0 cycle with modulus bounds: for each component
    f = 1 - d(t)*g the surface 1 - d(t)*g*y1 has boundary recovering it."""
    if Z.vars.n != 0:
        raise WrongLevel("bounding surfaces are built for level-0 cycles")
    spec, vars = Z.spec, Z.vars
    lifted_vars = VarSet(vars.r, 1)
    one = MultiPoly.const(spec, vars, 1)
    d_poly = D.divisor_poly.lift(vars)
    d_lift = D.divisor_poly.lift(lifted_vars)
    one_lift = MultiPoly.const(spec, lifted_vars, 1)
    surface_terms = []
    for mult, p in Z.components():
        if not p.constant_term_is_one:
            raise NotPresentable(f"component {p.to_text()} has constant term 0")
        try:
            g = (one - p).exact_div(d_poly)
        except InexactDivision:
            raise NotPresentable(
                f"the divisor polynomial does not divide f - 1 for {p.to_text()}"
            ) from None
        y1 = MultiPoly.variable(spec, lifted_vars, "y1")
        surface_terms.append((mult, one_lift - d_lift * g.lift(lifted_vars) * y1))
    W = HypersurfaceCycle(spec, lifted_vars, Z.model, surface_terms)
    w_json = ser.cycle_to_json(W, D)
    z_json = ser.cycle_to_json(Z, D)
    memo = {}
    transcript = [
        _checked("face_condition", {"cycle": w_json}, True, memo),
        _checked("modulus_codim1", {"cycle": w_json}, ModulusVerdict.CERTIFIED.value, memo),
        _checked(
            "boundary_equals",
            {"surface": w_json, "target": z_json, "level0_degeneracy": level0_flag},
            True, memo,
        ),
    ]
    claim = {
        "vanishing": "the level-0 cycle bounds",
        "cycle": z_json,
        "modulus": ser.modulus_to_json(D),
    }
    return WitnessCertificate(claim, [w_json], transcript, _convention(Z.model, level0_flag))


# ---------------------------------------------------------------------------
# Generator cycles
# ---------------------------------------------------------------------------

# Largest number r of t-variables of a generator cycle.  The certificate's
# cost grows faster than linearly in r: on a 2-core x86 box the CLI command
# takes about 0.2 s at r = 1024 and 4.5 s at r = 8192.
GENERATOR_MAX_R = 1024


def generator_cycle(a: FieldElement, r: int,
                    level0_flag: bool = True) -> tuple[HypersurfaceCycle, WitnessCertificate]:
    """The cycle V(1 - a*t1...tr*y1) with its admissibility and rho = a record.

    ``r`` is at most GENERATOR_MAX_R."""
    if r > GENERATOR_MAX_R:
        raise TooManyParameters(f"r is capped at GENERATOR_MAX_R = {GENERATOR_MAX_R}, got {r}")
    spec = a.spec
    vars = VarSet(r, 1)
    D = ModulusDatum.monomial(spec, [1] * r)
    exp = tuple([1] * r + [1])
    poly = MultiPoly.const(spec, vars, 1) - MultiPoly(spec, vars, {exp: a})
    Z = HypersurfaceCycle(spec, vars, CoordModel.PSI, [(1, poly)])  # empty at a = 0
    z_json = ser.cycle_to_json(Z, D)
    memo = {}
    transcript = [
        _checked("face_condition", {"cycle": z_json}, True, memo),
        _checked("modulus_codim1", {"cycle": z_json}, ModulusVerdict.CERTIFIED.value, memo),
        _checked("boundary_zero", {"cycle": z_json, "level0_degeneracy": level0_flag},
                 True, memo),
        _checked("rho_equals", {"cycle": z_json}, ser.element_to_json(a), memo),
    ]
    claim = {
        "generator": "rho surjectivity witness",
        "value": ser.element_to_json(a),
        "cycle": z_json,
    }
    cert = WitnessCertificate(claim, [z_json], transcript, _convention(CoordModel.PSI, level0_flag))
    return Z, cert


# ---------------------------------------------------------------------------
# 0-cycle vanishing witnesses
# ---------------------------------------------------------------------------


def _hyperbola_embedding(spec: FieldSpec, coords: Sequence[FieldElement],
                         variant: str) -> tuple:
    """Coordinate functions of the witness curve through the point.

    plain: hyperbola in (t1, t2), remaining coordinates constant.
    product_base: leading coordinates constant, hyperbola in the last two.
    Returns (embedding, parameter value of the point)."""
    r = len(coords)
    s = RatFunc.param(spec)
    if variant == "plain":
        c1, c2 = coords[0], coords[1]
        emb = [s, RatFunc.const(spec, c1 * c2) / s] + [RatFunc.const(spec, c) for c in coords[2:]]
        return tuple(emb), c1
    if variant == "product_base":
        c1, c2 = coords[r - 2], coords[r - 1]
        emb = [RatFunc.const(spec, c) for c in coords[: r - 2]] + [s, RatFunc.const(spec, c1 * c2) / s]
        return tuple(emb), c1
    raise ValueError(f"unknown variant {variant!r}")


def zero_cycle_vanishing_witness(z: ClosedPoint, D: ModulusDatum, n: int = 0,
                                 model: CoordModel = CoordModel.ORIGINAL,
                                 variant: str = "plain") -> WitnessCertificate:
    """Certificate that a 0-cycle off a monomial modulus bounds, at any level n.

    The witness curve is a hyperbola through the point, disjoint from the
    divisor.  Over it sits the graph curve with components (s - c1, y_1, ...,
    y_n), the y_i taken as constants in the ORIGINAL model: constants that are
    not 0, 1 or infinity meet no face, so the boundary of the curve, pushed
    forward along the closed immersion, is exactly the point.  Over an
    extension field the construction runs over the residue field, which the
    claim's point records.
    """
    spec = z.residue_spec
    r = len(z.t_coords)
    if r < 2:
        raise WitnessError("the hyperbola construction needs r >= 2")
    if len(z.y_coords) != n:
        raise WrongLevel("point has the wrong number of cube coordinates")
    if not D.is_monomial:
        raise UnsupportedModulus("witnesses are constructed for monomial moduli")
    memo = {}
    ambient_D = ModulusDatum.monomial(spec, D.monomial_exponents)
    zc = ZeroCycle(spec, model, r, n, [(1, z)])
    zc_json = ser.zerocycle_to_json(zc, ambient_D)
    modulus = _checked("modulus_zerocycle", {"cycle": zc_json}, True, memo)
    face = _checked("face_condition", {"cycle": zc_json}, True, memo)
    if modulus["status"] != "pass":
        raise PointOnModulus(f"{z!r} lies on the divisor")
    if face["status"] != "pass":
        violations = check_face_condition(zc).violations
        raise WitnessError(f"point violates the face condition: {violations}")

    emb, s0 = _hyperbola_embedding(spec, z.t_coords, variant)
    emb_json = ser.embedding_to_json(emb)
    field_json = ser.spec_to_json(spec)
    y = z.y_coords if model is CoordModel.ORIGINAL else \
        psi_convert(z, CoordModel.ORIGINAL).y_coords
    comps = [RatFunc.param(spec) - RatFunc.const(spec, s0)] + [RatFunc.const(spec, c) for c in y]
    curve = ParamCurve(spec, CoordModel.ORIGINAL, comps, graph_over_base=True)
    curve_json = ser.curve_to_json(curve)
    target = ZeroCycle(spec, CoordModel.ORIGINAL, r, n, [(1, ClosedPoint(spec, z.t_coords, y))])
    transcript = [
        modulus,
        face,
        _checked(
            "point_on_curve",
            {"field": field_json, "embedding": emb_json,
             "parameter": ser.element_to_json(s0),
             "point_t": [ser.element_to_json(c) for c in z.t_coords]},
            True, memo,
        ),
        _checked(
            "curve_avoids_divisor",
            {"field": field_json, "embedding": emb_json,
             "modulus": ser.modulus_to_json(ambient_D)},
            True, memo,
        ),
        _checked(
            "curve_boundary_equals",
            {"curve": curve_json, "embedding": emb_json,
             "target": ser.zerocycle_to_json(target)},
            True, memo,
        ),
    ]
    claim = {
        "vanishing": "the point bounds on a divisor-avoiding rational curve",
        "point": zc_json,
        "variant": variant,
    }
    witnesses = [{"embedding": emb_json, "field": field_json}, curve_json]
    return WitnessCertificate(claim, witnesses, transcript, _convention(model, True))
