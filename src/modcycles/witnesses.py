"""Constructive vanishing and non-vanishing results as re-verifiable certificates.

A :class:`WitnessCertificate` is a self-contained JSON-shaped record: a
structured claim, serialized witness data, and a transcript of named checks
with the inputs and expected outcomes embedded.  One table says what a
certificate must contain: CHECKS gives each check kind's inputs, codecs and
accepted value, and CLAIMS gives each claim kind's check kinds and the
certificate object each input must equal.  The generators build their
transcripts from it, and :func:`verify_certificate` re-executes every entry
from the stored data alone and holds the certificate to the table, so a
third party can re-verify without the generator.

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

import itertools
from typing import Callable, NamedTuple, Sequence

from .fields import FieldElement, FieldSpec, ModcyclesError
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
)
from . import serialize as ser


class WitnessError(ModcyclesError):
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
    """claim + witnesses + transcript; ``valid`` iff every check passed when
    the certificate was made (verify_certificate decides anew)."""

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


def _convention(model: CoordModel, level0_flag: bool) -> dict:
    return {"model": model.value, "level0_degeneracy": bool(level0_flag)}


# -- decoding: each certificate object once per certificate -------------------


def _decoded(memo: dict, codec, data, *args):
    """``codec(data, *args)``, decoded once per certificate: ``memo`` maps
    the codec, the repr of ``data`` and ``args`` (the field of an embedding
    or an element) to the decoded object.  Equal reprs mean equal JSON; a
    copy with its keys in another order only decodes once more.  A
    generator records each object it rendered under the same key (see
    :func:`_rendered`), so its transcript checks the objects it built and
    decodes nothing; :func:`verify_certificate` starts from an empty memo
    and decodes every object once."""
    key = (codec, repr(data), *args)
    out = memo.get(key)
    if out is None:
        out = memo[key] = codec(data, *args)
    return out


def _rendered(memo: dict, codec, obj, data, *args):
    """``data``, the JSON that ``obj`` was rendered to, recorded in ``memo``
    as what ``codec(data, *args)`` decodes to."""
    memo[(codec, repr(data), *args)] = obj
    return data


def _rendered_cycle(memo: dict, Z: HypersurfaceCycle, D: ModulusDatum) -> dict:
    return _rendered(memo, ser.cycle_from_json, (Z, D), ser.cycle_to_json(Z, D))


# Codecs: each reads one input of a check from its JSON, given the memo and
# the inputs of the same entry decoded before it.  A cycle comes with its
# modulus, None if its JSON has none.


def _cycle(memo, data, _):
    return _decoded(memo, ser.cycle_from_json, data)


def _zerocycle(memo, data, _):
    return _decoded(memo, ser.zerocycle_from_json, data)


def _boundary(memo, data, _):
    """The boundary of a hypersurface cycle, with the cycle's modulus; the
    boundary is computed once per certificate and kept in ``memo``."""
    Z, D = _decoded(memo, ser.cycle_from_json, data)
    key = ("boundary", repr(data))
    if key not in memo:
        memo[key] = boundary(Z)
    return memo[key], D


def _any_cycle(memo, data, _):
    """A hypersurface cycle or a 0-cycle, by the key its JSON carries."""
    try:
        codec = ser.cycle_codec(data)
    except ser.SerializationError as exc:
        raise MalformedCertificate(str(exc)) from None
    return _decoded(memo, codec, data)[0]


def _field(memo, data, _):
    return _decoded(memo, ser.spec_from_json, data)


def _curve(memo, data, _):
    return _decoded(memo, ser.curve_from_json, data)


def _embedding(memo, data, inputs):
    """Coordinate functions over the entry's field, or over its curve's."""
    spec = inputs["field"] if "field" in inputs else inputs["curve"].spec
    return _decoded(memo, ser.embedding_from_json, data, spec)


def _element(memo, data, inputs):
    return _decoded(memo, ser.element_from_json, data, inputs["field"])


def _elements(memo, data, inputs):
    return [_decoded(memo, ser.element_from_json, c, inputs["field"]) for c in data]


def _modulus(memo, data, inputs):
    return _decoded(memo, ser.modulus_from_json, data, inputs["field"])


# -- recomputations that need more than one line --------------------------------


def _with_modulus(cycle: tuple) -> tuple:
    if cycle[1] is None:
        raise MalformedCertificate("modulus check without modulus")
    return cycle


def _boundary_equals(surface, target, level0_flag) -> bool:
    flag = bool(level0_flag)
    got = boundary(surface[0], level0_flag=flag)
    want = prune_degenerate(target[0], level0_flag=flag)
    return ser.cycle_to_json(got) == ser.cycle_to_json(want)


def _curve_bounds(curve, embedding, target) -> bool:
    got = curve_boundary(curve, embedding=embedding)
    return ser.zerocycle_to_json(got) == ser.zerocycle_to_json(target[0])


def _point_on_curve(field, embedding, parameter, point_t) -> bool:
    values = [e.eval(parameter) for e in embedding]
    return len(values) == len(point_t) and all(v == w for v, w in zip(values, point_t))


def _boundary_faces(B: HypersurfaceCycle) -> list:
    """The ``boundary_faces`` of an identity claim: each component of the
    boundary B in text order, with its multiplicity and rho."""
    return [{"poly": p.to_text(), "mult": m, "rho": ser.element_to_json(_component_rho(p))}
            for m, p in B.components()]


def _rendered_boundary(memo, cycle) -> list:
    """The ``boundary_faces`` of ``cycle``'s JSON.  Its boundary is the one
    the rho check kept in ``memo`` (see :func:`_boundary`) whenever the two
    JSONs have the same repr, and is computed again when only their key
    order differs.  It never raises: anything unreadable reads as missing."""
    try:
        return _boundary_faces(_boundary(memo, cycle, None)[0])
    except (ModcyclesError, ValueError, KeyError, TypeError, AttributeError):
        return _MISSING


def _in_original_model(memo, point: dict) -> dict:
    """A 0-cycle's JSON in the ORIGINAL model, without its modulus: the
    target that the witness curve of a point claim bounds."""
    if point["model"] == CoordModel.PSI.value:
        Z = _decoded(memo, ser.zerocycle_from_json, point)[0]
        return ser.zerocycle_to_json(psi_convert(Z, CoordModel.ORIGINAL))
    return {k: v for k, v in point.items() if k != "modulus"}


# -- the check table: what every certificate must contain -----------------------


def _source(text) -> tuple:
    """(convert, path) for a path such as "claim.point.points.0.t", whose
    object convert(memo, object) turns into the one it stands for, or
    (None, path) for the object itself; ``text`` is the path or the pair."""
    convert, text = text if isinstance(text, tuple) else (None, text)
    return convert, tuple(int(k) if k.isdigit() else k for k in text.split("."))


class _Check(NamedTuple):
    run: Callable    # recomputes the check from its decoded inputs, in order
    inputs: tuple    # (name, codec) pairs, in the order an entry's data holds
                     # them; codec None: plain JSON, which may be absent
    accepts: object  # the one value a valid certificate records, or, as a
                     # source (see _source), the certificate object holding it


CHECKS = {
    "face_condition": _Check(
        lambda cycle: check_face_condition(cycle).passed, (("cycle", _any_cycle),), True),
    "modulus_codim1": _Check(
        lambda cycle: check_modulus_codim1(*_with_modulus(cycle)).verdict.value,
        (("cycle", _cycle),), ModulusVerdict.CERTIFIED.value),
    "modulus_zerocycle": _Check(
        lambda cycle: check_modulus_zerocycle(*_with_modulus(cycle)), (("cycle", _zerocycle),),
        True),
    "boundary_equals": _Check(
        _boundary_equals,
        (("surface", _cycle), ("target", _cycle), ("level0_degeneracy", None)), True),
    "boundary_zero": _Check(
        lambda cycle, level0_flag: not boundary(cycle[0], level0_flag=bool(level0_flag)),
        (("cycle", _cycle), ("level0_degeneracy", None)), True),
    "rho_equals": _Check(
        lambda cycle: ser.element_to_json(rho(*cycle)), (("cycle", _cycle),),
        _source("claim.value")),
    "rho_of_boundary_zero": _Check(
        lambda cycle: not rho(*cycle), (("cycle", _boundary),), True),
    "curve_boundary_equals": _Check(
        _curve_bounds, (("curve", _curve), ("embedding", _embedding), ("target", _zerocycle)), True),
    "point_on_curve": _Check(
        _point_on_curve,
        (("field", _field), ("embedding", _embedding), ("parameter", _element),
         ("point_t", _elements)), True),
    "curve_avoids_divisor": _Check(
        lambda field, embedding, modulus: curve_avoids_divisor(embedding, modulus),
        (("field", _field), ("embedding", _embedding), ("modulus", _modulus)), True),
}


class _Claim(NamedTuple):
    key: str         # the claim field that names the kind ...
    statement: str   # ... and its value
    inputs: dict     # check kind -> {input: the certificate object it equals},
                     # one entry per kind, in transcript order
    agree: tuple     # further pairs of certificate objects that must be equal


def _claim(key: str, statement: str, inputs: dict, *agree) -> _Claim:
    return _Claim(key, statement,
                  {check: {name: _source(s) for name, s in sources.items()}
                   for check, sources in inputs.items()},
                  tuple((_source(a), _source(b)) for a, b in agree))


CLAIMS = {
    "generator": _claim("generator", "rho surjectivity witness", {
        "face_condition": {"cycle": "claim.cycle"},
        "modulus_codim1": {"cycle": "claim.cycle"},
        "boundary_zero": {"cycle": "claim.cycle",
                          "level0_degeneracy": "convention.level0_degeneracy"},
        "rho_equals": {"cycle": "claim.cycle"},
    }, ("witnesses.0", "claim.cycle"), ("convention.model", "claim.cycle.model")),
    "identity": _claim("identity", "rho(boundary(W)) == 0", {
        "face_condition": {"cycle": "claim.cycle"},
        "modulus_codim1": {"cycle": "claim.cycle"},
        "rho_of_boundary_zero": {"cycle": "claim.cycle"},
    }, ("witnesses.0", "claim.cycle"), ("convention.model", "claim.cycle.model"),
        ((_rendered_boundary, "claim.cycle"), "claim.boundary_faces")),
    "bounding": _claim("vanishing", "the level-0 cycle bounds", {
        "face_condition": {"cycle": "witnesses.0"},
        "modulus_codim1": {"cycle": "witnesses.0"},
        "boundary_equals": {"surface": "witnesses.0", "target": "claim.cycle",
                            "level0_degeneracy": "convention.level0_degeneracy"},
    }, ("witnesses.0.modulus", "claim.modulus"), ("claim.cycle.modulus", "claim.modulus"),
        ("convention.model", "claim.cycle.model")),
    "point": _claim("vanishing", "the point bounds on a divisor-avoiding rational curve", {
        "modulus_zerocycle": {"cycle": "claim.point"},
        "face_condition": {"cycle": "claim.point"},
        "point_on_curve": {"field": "witnesses.0.field", "embedding": "witnesses.0.embedding",
                           "point_t": "claim.point.points.0.t"},
        "curve_avoids_divisor": {"field": "witnesses.0.field",
                                 "embedding": "witnesses.0.embedding",
                                 "modulus": "claim.point.modulus"},
        "curve_boundary_equals": {"curve": "witnesses.1", "embedding": "witnesses.0.embedding",
                                  "target": (_in_original_model, "claim.point")},
    }, ("witnesses.0.field", "claim.point.field"), ("convention.model", "claim.point.model")),
}


class _Missing:
    """What a path that does not resolve reads: equal to nothing, itself
    included."""

    def __eq__(self, other):
        return False

    __hash__ = None


_MISSING = _Missing()


def _roots(cert: WitnessCertificate) -> dict:
    return {"claim": cert.claim, "witnesses": cert.witnesses, "convention": cert.convention}


def _read(roots: dict, source: tuple, memo: dict):
    """The certificate object at ``source`` (see :func:`_source`)."""
    convert, path = source
    node = roots
    for key in path:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return _MISSING
    return node if convert is None else convert(memo, node)


def _accepted(check: str, roots: dict, memo: dict):
    accepts = CHECKS[check].accepts
    return _read(roots, accepts, memo) if isinstance(accepts, tuple) else accepts


def _run_check(check: str, data: dict, memo: dict):
    """Recompute a transcript check from its serialized inputs.

    Returns the value that is compared against the check's accepted value.
    ``memo`` belongs to one certificate; its entries share decoded objects.
    """
    kind = CHECKS.get(check)
    if kind is None:
        raise MalformedCertificate(f"unknown check kind {check!r}")
    inputs = {}
    for name, codec in kind.inputs:
        inputs[name] = data.get(name) if codec is None else codec(memo, data[name], inputs)
    return kind.run(*inputs.values())


def _new_claim(kind: str, **fields) -> dict:
    claim = CLAIMS[kind]
    return {claim.key: claim.statement, **fields}


def _transcript(cert: WitnessCertificate, kind: str, memo: dict, **given):
    """The transcript entries of a claim of ``kind``, made lazily in the
    table's order.  Each input is read off ``cert`` where the table binds
    it, and taken from ``given`` where it does not; each entry expects the
    value its check accepts."""
    roots = _roots(cert)
    for check, sources in CLAIMS[kind].inputs.items():
        data = {name: _read(roots, sources[name], memo) if name in sources else given[name]
                for name, _ in CHECKS[check].inputs}
        expected = _accepted(check, roots, memo)
        passed = _run_check(check, data, memo) == expected
        yield {"check": check, "data": data, "expected": expected,
               "status": "pass" if passed else "fail"}


def _claim_kind(claim) -> _Claim:
    if isinstance(claim, dict):
        for kind in CLAIMS.values():
            if claim.get(kind.key) == kind.statement:
                return kind
    raise MalformedCertificate(f"unknown claim kind: {repr(claim)[:120]}")


def _bound(kind: _Claim, roots: dict, entries: dict, memo: dict) -> bool:
    """Every input equals the certificate object its claim kind binds it to,
    and the further pairs agree."""
    for check, sources in kind.inputs.items():
        data = entries[check]
        for name, source in sources.items():
            if data.get(name, _MISSING) != _read(roots, source, memo):
                return False
    return all(_read(roots, a, memo) == _read(roots, b, memo) for a, b in kind.agree)


def verify_certificate(cert: WitnessCertificate | dict) -> bool:
    """Re-run every transcript entry from the certificate's own data, and
    hold the certificate to the table.

    True exactly when the claim's kind is in CLAIMS, the transcript has one
    entry of each check kind that kind lists and no other, every entry
    recomputes to the value CHECKS accepts and records that value as
    expected, and every input equals the certificate object the claim kind
    binds it to.  The certificate supplies no verdict of its own.  A check
    whose recomputation hits a domain error (inadmissible witness,
    unnormalized component, ...) fails the certificate rather than raising;
    structurally broken certificates and unknown claim or check kinds raise
    MalformedCertificate.
    """
    if isinstance(cert, dict):
        cert = WitnessCertificate.from_json(cert)
    if not isinstance(cert.transcript, list):
        raise MalformedCertificate("transcript must be a list")
    if not cert.transcript:
        raise MalformedCertificate("transcript is empty")
    kind = _claim_kind(cert.claim)
    roots = _roots(cert)
    memo, entries = {}, {}
    for entry in cert.transcript:
        if not isinstance(entry, dict) or "check" not in entry or "data" not in entry:
            raise MalformedCertificate(f"malformed transcript entry: {entry!r}")
        if entry.get("status") != "pass":
            return False
        check, data = entry["check"], entry["data"]
        try:
            got = _run_check(check, data, memo)
        except MalformedCertificate:
            raise
        except (KeyError, TypeError, AttributeError) as exc:
            raise MalformedCertificate(
                f"unreadable data in {check!r} entry: {type(exc).__name__}: {exc}"
            ) from exc
        except (ModcyclesError, ValueError):
            return False
        want = _accepted(check, roots, memo)
        if got != want or entry.get("expected") != want or check in entries:
            return False
        entries[check] = data
    return entries.keys() == kind.inputs.keys() and _bound(kind, roots, entries, memo)


# ---------------------------------------------------------------------------
# rho reciprocity
# ---------------------------------------------------------------------------


def verify_rho_reciprocity(W: HypersurfaceCycle, D: ModulusDatum) -> WitnessCertificate:
    """Certificate that rho kills the boundary of an admissible level-2 cycle."""
    if W.vars.n != 2:
        raise WrongLevel("reciprocity concerns level-2 cycles")
    memo = {}
    cycle_json = _rendered_cycle(memo, W, D)
    cert = WitnessCertificate(_new_claim("identity", cycle=cycle_json), [cycle_json], [],
                              _convention(W.model, True))
    entries = _transcript(cert, "identity", memo)
    # rho is defined on certified-admissible cycles only: the table lists the
    # face and modulus checks first, and the rho check runs only if both pass
    cert.transcript = list(itertools.islice(entries, 2))
    if not cert.valid:
        raise WitnessError("the input cycle is not certified admissible")
    cert.transcript.extend(entries)
    cert.claim["boundary_faces"] = _boundary_faces(_boundary(memo, cycle_json, {})[0])
    return cert


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
    memo = {}
    claim = _new_claim("bounding", cycle=_rendered_cycle(memo, Z, D),
                       modulus=ser.modulus_to_json(D))
    cert = WitnessCertificate(claim, [_rendered_cycle(memo, W, D)], [],
                              _convention(Z.model, level0_flag))
    cert.transcript = list(_transcript(cert, "bounding", memo))
    return cert


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
    memo = {}
    z_json = _rendered_cycle(memo, Z, D)
    claim = _new_claim("generator", value=ser.element_to_json(a), cycle=z_json)
    cert = WitnessCertificate(claim, [z_json], [], _convention(CoordModel.PSI, level0_flag))
    cert.transcript = list(_transcript(cert, "generator", memo))
    return Z, cert


# ---------------------------------------------------------------------------
# 0-cycle vanishing witnesses
# ---------------------------------------------------------------------------


def _hyperbola_start(r: int, variant: str) -> int:
    """The index i of the coordinates (t_{i+1}, t_{i+2}) that the witness
    curve runs along as a hyperbola: plain: t1, t2; product_base: the last
    two."""
    if variant == "plain":
        return 0
    if variant == "product_base":
        return r - 2
    raise ValueError(f"unknown variant {variant!r}")


def _hyperbola_embedding(spec: FieldSpec, coords: Sequence[FieldElement], i: int) -> tuple:
    """Coordinate functions of the witness curve through the point: (s,
    c_{i+1}*c_{i+2}/s) at the indices i, i + 1 and the point's coordinates
    elsewhere, so the point sits at s = c_{i+1}."""
    s = RatFunc.param(spec)
    emb = [RatFunc.const(spec, c) for c in coords]
    emb[i:i + 2] = [s, RatFunc.const(spec, coords[i] * coords[i + 1]) / s]
    return tuple(emb)


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
    i = _hyperbola_start(r, variant)
    s0 = z.t_coords[i]
    ambient_D = ModulusDatum.monomial(spec, D.monomial_exponents)
    zc = ZeroCycle(spec, model, r, n, [(1, z)])
    memo = {}
    field = _rendered(memo, ser.spec_from_json, spec, ser.spec_to_json(spec))
    point = _rendered(memo, ser.zerocycle_from_json, (zc, ambient_D),
                      ser.zerocycle_to_json(zc, ambient_D))
    _rendered(memo, ser.modulus_from_json, ambient_D, point["modulus"], spec)
    for c, c_json in zip(z.t_coords, point["points"][0]["t"]):
        _rendered(memo, ser.element_from_json, c, c_json, spec)
    claim = _new_claim("point", point=point, variant=variant)
    cert = WitnessCertificate(claim, [], [], _convention(model, True))
    entries = _transcript(cert, "point", memo, parameter=ser.element_to_json(s0))
    # the table lists the modulus and face checks first: the curve is built
    # only for a point that passes both
    cert.transcript = list(itertools.islice(entries, 2))
    on_modulus, face = cert.transcript
    if on_modulus["status"] != "pass":
        raise PointOnModulus(f"{z!r} lies on the divisor")
    if face["status"] != "pass":
        violations = check_face_condition(zc).violations
        raise WitnessError(f"point violates the face condition: {violations}")

    emb = _hyperbola_embedding(spec, z.t_coords, i)
    target = zc if model is CoordModel.ORIGINAL else psi_convert(zc, CoordModel.ORIGINAL)
    (z0, _), = target.items()
    comps = [RatFunc.param(spec) - RatFunc.const(spec, s0)] + \
        [RatFunc.const(spec, c) for c in z0.y_coords]
    curve = ParamCurve(spec, CoordModel.ORIGINAL, comps, graph_over_base=True)
    cert.witnesses += [
        {"embedding": _rendered(memo, ser.embedding_from_json, emb, ser.embedding_to_json(emb), spec),
         "field": field},
        _rendered(memo, ser.curve_from_json, curve, ser.curve_to_json(curve))]
    _rendered(memo, ser.zerocycle_from_json, (target, None), ser.zerocycle_to_json(target))
    cert.transcript.extend(entries)
    return cert
