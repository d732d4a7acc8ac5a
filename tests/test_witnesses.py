"""The residue invariant and the certificate-producing witness generators."""

import hashlib
import importlib.util
import itertools
import json
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from modcycles.fields import make_field
from modcycles.polyring import InexactDivision, MultiPoly, VarSet, parse_poly
from modcycles.cycles import (
    ClosedPoint,
    ConstantTermZero,
    CoordModel,
    HypersurfaceCycle,
    ModulusDatum,
    boundary,
    psi_convert,
)
from modcycles import serialize as ser
from modcycles import witnesses
from modcycles.witnesses import (
    DegreeTooHigh,
    MalformedCertificate,
    NotNormalized,
    NotPresentable,
    PointOnModulus,
    UnsupportedModulus,
    WitnessCertificate,
    WitnessError,
    WrongLevel,
    bounding_surface,
    generator_cycle,
    rho,
    verify_certificate,
    verify_rho_reciprocity,
    zero_cycle_vanishing_witness,
)

F5 = make_field(5)
F7 = make_field(7)
F11 = make_field(11)
Q = make_field(0)


def cyc(text, spec=F7, r=2, n=1):
    return HypersurfaceCycle.from_poly(parse_poly(text, spec, VarSet(r, n)), CoordModel.PSI)


D11_F7 = ModulusDatum.monomial(F7, [1, 1])


ZERO_CYCLE_KINDS = ["modulus_zerocycle", "face_condition", "point_on_curve",
                    "curve_avoids_divisor", "curve_boundary_equals"]

F9 = make_field(3, [1, 0, 1])
QI = make_field(0, [1, 0, 1])
# field -> (spec, t-coordinates, three y-coordinates off 0 and 1)
LEVEL_POINTS = {
    "F5": (F5, [F5.element(2), F5.element(3)], [F5.element(c) for c in (4, 2, 3)]),
    "F7": (F7, [F7.element(2), F7.element(3)], [F7.element(c) for c in (4, 6, 2)]),
    "Q": (Q, [Q.element(2), Q.element(Fraction(-1, 3))],
          [Q.element(c) for c in (5, Fraction(1, 2), -1)]),
    "F9": (F9, [F9.element([1, 1]), F9.element(2)],
           [F9.element(c) for c in ([0, 1], [2, 1], 2)]),
    "Q(i)": (QI, [QI.element([1, 1]), QI.element(3)],
             [QI.element(c) for c in ([0, 1], [2, -1], 3)]),
}

# check kinds of earlier releases: they proved nothing and are gone
REMOVED_KINDS = [
    ("obstruction_reported", {"symbol": ["4", "2"], "at": ["2", "3"]}),
    ("finite_field_symbol_vanishing", {"field": {"char": 5}, "length": 2}),
    ("k2_trivial", {"q": 5}),
]

F7_POINT_CERT_TEXT = (
    '{"claim": {"vanishing": "the point bounds on a divisor-avoiding rational curve", '
    '"point": {"field": {"char": 7}, "model": "ORIGINAL", "r": 2, "n": 0, "modulus": '
    '{"exponents": [1, 1]}, "points": [{"mult": 1, "t": ["2", "3"], "y": []}]}, "variant": '
    '"plain"}, "witnesses": [{"embedding": ["s", "(6)/(s)"], "field": {"char": 7}}, '
    '{"field": {"char": 7}, "model": "ORIGINAL", "graph_over_base": true, "components": ["t'
    ' + 5"]}], "transcript": [{"check": "modulus_zerocycle", "data": {"cycle": {"field": '
    '{"char": 7}, "model": "ORIGINAL", "r": 2, "n": 0, "modulus": {"exponents": [1, 1]}, '
    '"points": [{"mult": 1, "t": ["2", "3"], "y": []}]}}, "expected": true, "status": '
    '"pass"}, {"check": "face_condition", "data": {"cycle": {"field": {"char": 7}, "model":'
    ' "ORIGINAL", "r": 2, "n": 0, "modulus": {"exponents": [1, 1]}, "points": [{"mult": 1, '
    '"t": ["2", "3"], "y": []}]}}, "expected": true, "status": "pass"}, {"check": '
    '"point_on_curve", "data": {"field": {"char": 7}, "embedding": ["s", "(6)/(s)"], '
    '"parameter": "2", "point_t": ["2", "3"]}, "expected": true, "status": "pass"}, '
    '{"check": "curve_avoids_divisor", "data": {"field": {"char": 7}, "embedding": ["s", '
    '"(6)/(s)"], "modulus": {"exponents": [1, 1]}}, "expected": true, "status": "pass"}, '
    '{"check": "curve_boundary_equals", "data": {"curve": {"field": {"char": 7}, "model": '
    '"ORIGINAL", "graph_over_base": true, "components": ["t + 5"]}, "embedding": ["s", '
    '"(6)/(s)"], "target": {"field": {"char": 7}, "model": "ORIGINAL", "r": 2, "n": 0, '
    '"points": [{"mult": 1, "t": ["2", "3"], "y": []}]}}, "expected": true, "status": '
    '"pass"}], "convention": {"model": "ORIGINAL", "level0_degeneracy": true}}'
)


def as_json(cert):
    return json.loads(json.dumps(cert.to_json()))


def forged_certificates():
    """Certificates whose transcript does not prove their claim, by name.
    A verifier that compared each entry with its own ``expected`` and bound
    no entry to the claim accepted every one of them."""
    forged = {}
    gen = as_json(generator_cycle(F7.element(3), 2)[1])
    gen["claim"]["value"] = "4"
    forged["generator-value"] = gen
    forged["generator-value-without-rho"] = dict(
        gen, transcript=[e for e in gen["transcript"] if e["check"] != "rho_equals"])
    forged["generator-value-face-only"] = dict(
        gen, transcript=[e for e in gen["transcript"] if e["check"] == "face_condition"])
    # flag off, D = t1^2: the point t1 = 2 claimed to bound, by a witness
    # whose modulus verdict Unknown the certificate declares acceptable
    D = ModulusDatum.monomial(F7, [2])
    bounding = as_json(bounding_surface(cyc("1 - t1^2", r=1, n=0), D, level0_flag=False))
    point = ser.cycle_to_json(cyc("1 + 3*t1", r=1, n=0), D)
    surface = ser.cycle_to_json(cyc("1 + 3*t1*y1", r=1, n=1), D)
    bounding["claim"]["cycle"] = bounding["transcript"][2]["data"]["target"] = point
    bounding["witnesses"] = [surface]
    bounding["transcript"][0]["data"]["cycle"] = bounding["transcript"][1]["data"]["cycle"] = \
        bounding["transcript"][2]["data"]["surface"] = surface
    bounding["transcript"][1]["expected"] = "Unknown"
    forged["bounding-modulus-unknown"] = bounding
    # the claim and admissibility of (2, 3), the curve entries of (5, 1)
    a, b = (as_json(zero_cycle_vanishing_witness(
        ClosedPoint(F7, [F7.element(x), F7.element(y)], []), D11_F7)) for x, y in ((2, 3), (5, 1)))
    a["transcript"][2:] = b["transcript"][2:]
    forged["zero-cycle-splice"] = a
    # reciprocity faces whose rho values still sum to 0 mod 7, with the first
    # face's rho 5 read as 6 and the last face (rho 6) dropped
    identity = as_json(verify_rho_reciprocity(
        cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2), D11_F7))
    faces = identity["claim"]["boundary_faces"]
    faces[0]["rho"] = "6"
    del faces[-1]
    forged["identity-boundary-faces"] = identity
    return forged


class TestRho:
    def test_generator_value(self):
        assert rho(cyc("1 - t1*t2*3*y1"), D11_F7) == F7.element(3)

    def test_affine_part_reads_linear_coefficient(self):
        assert rho(cyc("1 - t1*t2*(4*y1 + 5)"), D11_F7) == F7.element(4)

    def test_higher_order_terms_do_not_contribute(self):
        rng = random.Random(2)
        for _ in range(50):
            a = F7.element(rng.randrange(7))
            base = f"1 - t1*t2*({a.value}*y1 + {rng.randrange(7)})"
            noisy = base + f" + t1^2*t2^2*({rng.randrange(7)}*y1^3 + {rng.randrange(7)})"
            assert rho(cyc(noisy), D11_F7) == a

    def test_z_linear(self):
        Z = cyc("1 - t1*t2*3*y1") + cyc("1 - t1*t2*2*y1").scale(4)
        assert rho(Z, D11_F7) == F7.element(3 + 4 * 2)

    def test_wrong_level(self):
        with pytest.raises(WrongLevel):
            rho(cyc("1 - t1*t2*y1*y2", n=2), D11_F7)

    def test_requires_all_ones_modulus(self):
        with pytest.raises(UnsupportedModulus):
            rho(cyc("1 - t1*t2*y1"), ModulusDatum.monomial(F7, [2, 1]))

    def test_not_presented_raises(self):
        with pytest.raises(NotNormalized):
            rho(cyc("1 - t1*y1"), D11_F7)

    def test_degree_guard(self):
        with pytest.raises(DegreeTooHigh):
            rho(cyc("1 - t1*t2*y1^2"), D11_F7)

    def test_vanishes_on_degenerate_faces_and_boundaries(self):
        rng = random.Random(8)
        from modcycles.suites import _rand_admissible_cycle

        for k in range(50):
            spec = [F5, F7, Q][k % 3]
            W = _rand_admissible_cycle(rng, spec, 2, 2)
            D = ModulusDatum.monomial(spec, [1, 1])
            assert not rho(boundary(W), D)


def reference_component_rho(p):
    """rho of one component by exact division by t1...tr and substitution of
    t = 0, the computation the one-scan kernel replaces."""
    spec, vars = p.spec, p.vars
    if p.constant_term != spec.one:
        raise NotNormalized(f"component {p.to_text()} is not normalized to constant term 1")
    t_product = MultiPoly(spec, vars, {tuple([1] * vars.r + [0] * vars.n): spec.one})
    one = MultiPoly.const(spec, vars, 1)
    try:
        q = (one - p).exact_div(t_product)
    except InexactDivision:
        raise NotNormalized(
            f"t1...tr does not divide f - 1 for component {p.to_text()}"
        ) from None
    at_origin = q.substitute({f"t{i+1}": spec.zero for i in range(vars.r)})
    if at_origin and at_origin.degree_in("y1") > 1:
        raise DegreeTooHigh("the evaluated first-order part has y1-degree above 1")
    return at_origin.coefficient_of("y1", 1).constant_term


def rand_rho_input(rng, spec, r, n):
    """1 - t1...tr*g + terms of higher t-order, sometimes with a constant term
    other than 1, a term missing some t, or y1^2 at t-part (1, ..., 1)."""
    def scalar():
        if spec.is_extension:
            return spec.element([rng.randrange(spec.char) for _ in range(2)])
        if spec.char:
            return spec.element(rng.randrange(spec.char))
        return spec.element(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    terms = {(0,) * (r + n): spec.one if rng.random() < 0.8 else scalar()}
    for _ in range(rng.randrange(6)):
        t = tuple(rng.choice((1, 1, 1, 2)) for _ in range(r))
        if rng.random() < 0.1:
            j = rng.randrange(r)
            t = t[:j] + (0,) + t[j + 1:]
        y = tuple(rng.choice((0, 1, 1, 2)) if i == 0 else rng.randrange(2) for i in range(n))
        if rng.random() < 0.05:
            y = (2,) + y[1:]
        terms[t + y] = scalar()
    return MultiPoly(spec, VarSet(r, n), terms)


def rho_outcome(fn, p):
    try:
        return ("value", fn(p))
    except (NotNormalized, DegreeTooHigh) as exc:
        return (type(exc).__name__, str(exc))


class TestRhoKernel:
    @pytest.mark.parametrize("field", ["F5", "F7", "Q", "F9"])
    def test_matches_the_reference_on_values_and_errors(self, field):
        spec = {"F5": F5, "F7": F7, "Q": Q, "F9": F9}[field]
        rng = random.Random(f"rho-kernel:{field}")
        kinds = set()
        for r in (1, 2, 3):
            for n in (1, 2):
                for _ in range(100):
                    p = rand_rho_input(rng, spec, r, n)
                    want = rho_outcome(reference_component_rho, p)
                    assert rho_outcome(witnesses._component_rho, p) == want, p.to_text()
                    kinds.add(want[0] if want[0] != "NotNormalized"
                              else want[1].split()[0])
        # values, both NotNormalized messages and DegreeTooHigh all occur
        assert kinds == {"value", "component", "t1...tr", "DegreeTooHigh"}

    def test_unnormalized_takes_priority_over_degree(self):
        # y1^2 at t-part (1, 1) and a term without t2: the scan reports the latter
        p = parse_poly("1 - t1*t2*y1^2 + t1*y1", F7, VarSet(2, 1))
        for fn in (reference_component_rho, witnesses._component_rho):
            with pytest.raises(NotNormalized, match="does not divide"):
                fn(p)


class TestRhoReciprocity:
    def test_multilinear_faces_recorded(self):
        W = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2)
        cert = verify_rho_reciprocity(W, D11_F7)
        assert cert.valid
        assert verify_certificate(cert)
        assert len(cert.claim["boundary_faces"]) == 4

    def test_boundary_is_computed_once(self, monkeypatch):
        # the claim's faces are read from the boundary the transcript check built
        import modcycles.witnesses as witnesses

        calls = []
        real = witnesses.boundary
        monkeypatch.setattr(witnesses, "boundary", lambda *a, **k: calls.append(a) or real(*a, **k))
        W = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2)
        cert = verify_rho_reciprocity(W, D11_F7)
        assert cert.valid
        assert len(calls) == 1
        # verifying checks boundary_faces against the boundary the rho entry built
        assert verify_certificate(as_json(cert))
        assert len(calls) == 2

    def test_boundary_faces_check_ignores_key_order(self):
        # objects are compared as parsed JSON: the claim's cycle with its keys
        # reversed is still the rho entry's cycle
        W = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2)
        cert = as_json(verify_rho_reciprocity(W, D11_F7))
        cycle = cert["claim"]["cycle"]
        cert["claim"]["cycle"] = dict(reversed(list(cycle.items())))
        assert json.dumps(cert["claim"]["cycle"]) != json.dumps(cycle)
        assert verify_certificate(cert)

    def test_with_higher_order_terms(self):
        W = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5) + t1^3*t2*(y1*y2 + 2)", n=2)
        cert = verify_rho_reciprocity(W, D11_F7)
        assert cert.valid and verify_certificate(cert)

    def test_inadmissible_rejected(self):
        W = cyc("1 - t1*t2*y1^2*y2", n=2)
        with pytest.raises(WitnessError, match="^the input cycle is not certified admissible$"):
            verify_rho_reciprocity(W, D11_F7)

    @pytest.mark.parametrize("text, n, error, message", [
        ("1 - y1*y2", 2, WitnessError, "the input cycle is not certified admissible"),
        ("t1*t2*y1*y2 + t1 + y1", 2, ConstantTermZero,
         "component t1*t2*y1*y2 + t1 + y1 has constant term 0; it meets the t-axes"),
        ("1 - t1*t2*y1", 1, WrongLevel, "reciprocity concerns level-2 cycles"),
    ])
    def test_rejections_keep_their_type_and_message(self, text, n, error, message):
        with pytest.raises(error) as info:
            verify_rho_reciprocity(cyc(text, n=n), D11_F7)
        assert type(info.value) is error and str(info.value) == message


class TestBoundingSurface:
    def test_spec_instance(self):
        Z = cyc("1 - t1*t2*(t1 + 3)", n=0)
        cert = bounding_surface(Z, D11_F7)
        assert cert.valid and verify_certificate(cert)

    def test_empty_cycle(self):
        Z = HypersurfaceCycle.empty(F7, VarSet(2, 0), CoordModel.PSI)
        cert = bounding_surface(Z, D11_F7)
        assert cert.valid and verify_certificate(cert)

    def test_not_presentable(self):
        Z = cyc("1 - t1*(t1 + 3)", n=0)
        with pytest.raises(NotPresentable):
            bounding_surface(Z, D11_F7)

    def test_higher_monomial_modulus(self):
        D = ModulusDatum.monomial(F7, [2, 1])
        Z = cyc("1 - t1^2*t2*(t2 + 1)", n=0)
        cert = bounding_surface(Z, D)
        assert cert.valid and verify_certificate(cert)


class TestGeneratorCycle:
    def test_all_of_f5(self):
        D = ModulusDatum.monomial(F5, [1, 1])
        image = set()
        for a in F5.elements():
            Z, cert = generator_cycle(a, 2)
            assert cert.valid and verify_certificate(cert)
            image.add(rho(Z, D).value)
        assert image == set(range(5))

    def test_rational_value(self):
        a = Q.element(Fraction(1, 2))
        Z, cert = generator_cycle(a, 3)
        assert cert.valid
        assert rho(Z, ModulusDatum.monomial(Q, [1, 1, 1])) == a

    def test_zero_gives_empty_cycle(self):
        Z, cert = generator_cycle(F7.zero, 2)
        assert not Z and cert.valid
        assert rho(Z, D11_F7) == F7.zero


class TestZeroCycleWitness:
    def test_f7_plain(self):
        z = ClosedPoint(F7, [F7.element(2), F7.element(3)], [])
        cert = zero_cycle_vanishing_witness(z, D11_F7)
        assert cert.valid and verify_certificate(cert)

    def test_q_with_higher_exponents(self):
        z = ClosedPoint(Q, [Q.one, Q.one, Q.element(4)], [])
        cert = zero_cycle_vanishing_witness(z, ModulusDatum.monomial(Q, [2, 1, 5]))
        assert cert.valid and verify_certificate(cert)

    def test_product_base_variant(self):
        z = ClosedPoint(Q, [Q.element(7), Q.element(2), Q.element(3)], [])
        cert = zero_cycle_vanishing_witness(
            z, ModulusDatum.monomial(Q, [1, 1, 1]), variant="product_base")
        assert cert.valid and verify_certificate(cert)

    def test_point_on_modulus_rejected(self):
        z = ClosedPoint(F7, [F7.zero, F7.element(3)], [])
        with pytest.raises(PointOnModulus):
            zero_cycle_vanishing_witness(z, D11_F7)

    @pytest.mark.parametrize("y", [0, 1])
    def test_point_on_a_face_rejected(self, y):
        z = ClosedPoint(F5, [F5.element(2), F5.element(3)], [F5.element(y)])
        with pytest.raises(WitnessError, match="point violates the face condition: .*y1") as info:
            zero_cycle_vanishing_witness(z, ModulusDatum.monomial(F5, [1, 1]), n=1)
        assert not isinstance(info.value, PointOnModulus)

    def test_n1_proves_vanishing_on_the_graph_curve(self):
        z = ClosedPoint(F5, [F5.element(2), F5.element(3)], [F5.element(4)])
        cert = zero_cycle_vanishing_witness(z, ModulusDatum.monomial(F5, [1, 1]), n=1)
        assert cert.valid and verify_certificate(cert)
        assert set(cert.claim) == {"vanishing", "point", "variant"}
        entry = cert.transcript[-1]
        assert entry["check"] == "curve_boundary_equals"
        # s - 2 and the constant coordinate 4; the boundary is the point itself
        assert entry["data"]["curve"]["components"] == ["t + 3", "4"]
        assert entry["data"]["target"]["points"] == [{"mult": 1, "t": ["2", "3"], "y": ["4"]}]
        assert cert.witnesses[1] == entry["data"]["curve"]

    def test_n2_finite_proves_vanishing_without_the_oracle(self):
        z = ClosedPoint(F5, [F5.element(2), F5.element(3)],
                        [F5.element(4), F5.element(2)])
        cert = zero_cycle_vanishing_witness(z, ModulusDatum.monomial(F5, [1, 1]), n=2)
        assert cert.valid and verify_certificate(cert)
        assert "vanishing" in cert.claim
        assert [e["check"] for e in cert.transcript] == ZERO_CYCLE_KINDS

    def test_extension_point_records_its_residue_field_in_the_claim(self):
        z = ClosedPoint(F9, [F9.element([1, 1]), F9.element(2)], [])
        cert = zero_cycle_vanishing_witness(z, ModulusDatum.monomial(F9, [1, 1]))
        assert cert.valid and verify_certificate(cert)
        assert cert.claim["point"]["field"] == ser.spec_to_json(F9)
        assert [e["check"] for e in cert.transcript] == ZERO_CYCLE_KINDS

    def test_psi_point_carries_its_original_coordinates_on_the_curve(self):
        z = ClosedPoint(F7, [F7.element(2), F7.element(3)], [F7.element(4)])
        cert = zero_cycle_vanishing_witness(z, D11_F7, n=1, model=CoordModel.PSI)
        assert cert.valid and verify_certificate(cert)
        assert cert.claim["point"]["model"] == "PSI"
        data = cert.transcript[-1]["data"]
        # the PSI coordinate 4 is (4 - 1)/4 = 6 in the ORIGINAL model
        assert data["curve"]["components"] == ["t + 5", "6"]
        assert data["target"]["model"] == "ORIGINAL"
        assert data["target"]["points"][0]["y"] == ["6"]

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("field", sorted(LEVEL_POINTS))
    def test_every_level_field_model_and_variant(self, field, n):
        spec, t, y = LEVEL_POINTS[field]
        D = ModulusDatum.monomial(spec, [1, 2])
        for model in CoordModel:
            for variant in ("plain", "product_base"):
                z = ClosedPoint(spec, t, y[:n])
                cert = zero_cycle_vanishing_witness(z, D, n=n, model=model, variant=variant)
                assert cert.valid
                assert verify_certificate(json.loads(json.dumps(cert.to_json())))
                assert [e["check"] for e in cert.transcript] == ZERO_CYCLE_KINDS
                assert set(cert.claim) == {"vanishing", "point", "variant"}
                # the curve bounds the claimed point, read in the ORIGINAL model
                point, _ = ser.zerocycle_from_json(cert.claim["point"])
                if model is CoordModel.PSI:
                    point = psi_convert(point, CoordModel.ORIGINAL)
                target, _ = ser.zerocycle_from_json(cert.transcript[-1]["data"]["target"])
                assert target == point and point.n == n

    def test_n0_certificate_text_is_pinned(self):
        z = ClosedPoint(F7, [F7.element(2), F7.element(3)], [])
        cert = zero_cycle_vanishing_witness(z, D11_F7)
        assert json.dumps(cert.to_json()) == F7_POINT_CERT_TEXT

    @pytest.mark.parametrize("kind, data", REMOVED_KINDS)
    def test_removed_check_kinds_are_malformed(self, kind, data):
        z = ClosedPoint(F5, [F5.element(2), F5.element(3)], [F5.element(4), F5.element(2)])
        cert = zero_cycle_vanishing_witness(z, ModulusDatum.monomial(F5, [1, 1]), n=2)
        cert.transcript.append({"check": kind, "data": data, "expected": True, "status": "pass"})
        with pytest.raises(MalformedCertificate, match=kind):
            verify_certificate(cert)


class TestVerifyCertificate:
    def test_roundtrip_through_json(self):
        Z = cyc("1 - t1*t2*(t1 + 3)", n=0)
        cert = bounding_surface(Z, D11_F7)
        blob = json.dumps(cert.to_json())
        assert verify_certificate(WitnessCertificate.from_json(json.loads(blob)))

    def test_tampered_witness_fails(self):
        W = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2)
        cert = verify_rho_reciprocity(W, D11_F7)
        data = json.loads(json.dumps(cert.to_json()))
        # swap the admissibility entry's cycle for a degree-2 one: the stored
        # "Certified" verdict no longer recomputes
        data["transcript"][1]["data"]["cycle"]["terms"][0]["poly"] = \
            "1 - t1*t2*y1^2*y2"
        assert not verify_certificate(data)

    def test_tampered_residue_input_fails(self):
        Z, cert = generator_cycle(F7.element(3), 2)
        data = json.loads(json.dumps(cert.to_json()))
        # the rho entry now sees a different generator: value 4, expected 3
        for entry in data["transcript"]:
            if entry["check"] == "rho_equals":
                entry["data"]["cycle"]["terms"][0]["poly"] = "1 - 4*t1*t2*y1"
        assert not verify_certificate(data)

    def test_tampered_expected_fails(self):
        Z, cert = generator_cycle(F7.element(3), 2)
        data = json.loads(json.dumps(cert.to_json()))
        data["transcript"][-1]["expected"] = "4"
        assert not verify_certificate(data)

    def test_inadmissible_witness_fails(self):
        Z = cyc("1 - t1*t2*(t1 + 3)", n=0)
        cert = bounding_surface(Z, D11_F7)
        data = json.loads(json.dumps(cert.to_json()))
        # replace the stored surface with a degree-2 one: modulus check fails
        data["transcript"][1]["data"]["cycle"]["terms"][0]["poly"] = \
            "1 - t1*t2*(t1 + 3)*y1^2"
        assert not verify_certificate(data)

    def test_malformed_rejected(self):
        with pytest.raises(MalformedCertificate):
            WitnessCertificate.from_json({"claim": {}})
        bad = WitnessCertificate({}, [], [{"check": "no-such-check", "data": {},
                                           "expected": True, "status": "pass"}], {})
        with pytest.raises(MalformedCertificate):
            verify_certificate(bad)

    def test_unreadable_entry_data_is_malformed(self):
        Z, cert = generator_cycle(F7.element(3), 2)
        for data in ([], {}, {"cycle": 7}):
            blob = json.loads(json.dumps(cert.to_json()))
            blob["transcript"][0]["data"] = data
            with pytest.raises(MalformedCertificate):
                verify_certificate(blob)

    def test_empty_transcript_is_malformed(self):
        Z, cert = generator_cycle(F7.element(3), 2)
        blob = json.loads(json.dumps(cert.to_json()))
        blob["transcript"] = []
        with pytest.raises(MalformedCertificate):
            verify_certificate(blob)

    def test_deterministic(self):
        z = ClosedPoint(F7, [F7.element(2), F7.element(3)], [])
        a = zero_cycle_vanishing_witness(z, D11_F7)
        b = zero_cycle_vanishing_witness(z, D11_F7)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())


class TestCheckTable:
    """verify_certificate holds every certificate to CHECKS and CLAIMS: the
    certificate supplies no verdict of its own."""

    @pytest.mark.parametrize("name", sorted(forged_certificates()))
    def test_forged_certificate_fails(self, name):
        assert verify_certificate(forged_certificates()[name]) is False

    def test_generated_transcripts_follow_the_table(self):
        certs = {
            "generator": generator_cycle(F7.element(3), 2)[1],
            "identity": verify_rho_reciprocity(cyc("1 - t1*t2*(2*y1*y2 + 3*y1)", n=2), D11_F7),
            "bounding": bounding_surface(cyc("1 - t1*t2*(t1 + 3)", n=0), D11_F7),
            "point": zero_cycle_vanishing_witness(
                ClosedPoint(F7, [F7.element(2), F7.element(3)], []), D11_F7),
        }
        for kind, cert in certs.items():
            checks = [e["check"] for e in cert.transcript]
            assert checks == list(witnesses.CLAIMS[kind].inputs), kind
            assert all(e["expected"] == witnesses._accepted(e["check"], witnesses._roots(cert), {})
                       for e in cert.transcript)
            assert verify_certificate(as_json(cert))

    @pytest.mark.parametrize("index", range(5))
    def test_every_entry_of_the_pinned_certificate_is_needed_once(self, index):
        cert = json.loads(F7_POINT_CERT_TEXT)
        assert verify_certificate(cert)
        entries = cert["transcript"]
        assert verify_certificate(dict(cert, transcript=entries[:index] + entries[index + 1:])) is False
        assert verify_certificate(dict(cert, transcript=entries + [entries[index]])) is False

    @pytest.mark.parametrize("level0", [True, False])
    def test_one_level0_convention_per_certificate(self, level0):
        for cert in (generator_cycle(F7.element(3), 2, level0)[1],
                     bounding_surface(cyc("1 - t1*t2*(t1 + 3)", n=0), D11_F7, level0)):
            blob = as_json(cert)
            entry = next(e for e in blob["transcript"] if "level0_degeneracy" in e["data"])
            assert verify_certificate(blob) is cert.valid
            # the flag missing, the entry's flag flipped, the block's flipped
            del entry["data"]["level0_degeneracy"]
            assert verify_certificate(blob) is False
            entry["data"]["level0_degeneracy"] = not level0
            assert verify_certificate(blob) is False
            entry["data"]["level0_degeneracy"] = level0
            blob["convention"]["level0_degeneracy"] = not level0
            assert verify_certificate(blob) is False

    @pytest.mark.parametrize("path, value", [
        (["claim", "value"], None), (["claim", "cycle"], 5), (["claim", "cycle", "model"], "ORIGINAL"),
        (["witnesses"], []), (["witnesses", 0], {}), (["convention", "model"], "ORIGINAL"),
        (["convention"], []), (["transcript", 3, "expected"], "4"),
    ])
    def test_claim_objects_that_differ_from_their_inputs_fail(self, path, value):
        blob = as_json(generator_cycle(F7.element(3), 2)[1])
        node = blob
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert verify_certificate(blob) is False
        if len(path) > 1:  # without a top-level object the certificate is malformed
            del node[path[-1]]
            assert verify_certificate(blob) is False

    def test_psi_point_must_be_bounded_in_the_original_model(self):
        z = ClosedPoint(F7, [F7.element(2), F7.element(3)], [F7.element(4)])
        blob = as_json(zero_cycle_vanishing_witness(z, D11_F7, n=1, model=CoordModel.PSI))
        assert verify_certificate(blob)
        point = {k: v for k, v in blob["claim"]["point"].items() if k != "modulus"}
        blob["transcript"][-1]["data"]["target"] = point
        assert verify_certificate(blob) is False

    @pytest.mark.parametrize("claim", [
        {}, [], {"generator": "rho surjectivity"}, {"theorem": "rho surjectivity witness"},
    ])
    def test_unknown_claim_kind_is_malformed(self, claim):
        blob = as_json(generator_cycle(F7.element(3), 2)[1])
        blob["claim"] = claim
        with pytest.raises(MalformedCertificate, match="unknown claim kind"):
            verify_certificate(blob)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: with the level-0 flag on, "
                       "boundary_equals prunes 1 - c*t^e whatever the modulus")
    def test_flag_on_level0_pruning_forgery_fails(self):
        # V(1 + 3*t1), the point t1 = 2, does not bound with D = t1^2
        D = ModulusDatum.monomial(F7, [2])
        blob = as_json(bounding_surface(cyc("1 - t1^2", r=1, n=0), D))
        assert blob["witnesses"][0]["terms"][0]["poly"] == "6*t1^2*y1 + 1"  # 1 - t1^2*y1
        point = ser.cycle_to_json(cyc("1 + 3*t1", r=1, n=0), D)
        blob["claim"]["cycle"] = blob["transcript"][2]["data"]["target"] = point
        assert verify_certificate(blob) is False


def load_workloads():
    """The benchmark's workload module, for its certificate mutators."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verdict(cert):
    try:
        return verify_certificate(cert)
    except MalformedCertificate as exc:
        return f"MalformedCertificate: {exc}"


class TestDecodeOnce:
    @staticmethod
    def count_decodes(monkeypatch):
        calls = []
        decode = ser.cycle_from_json

        def counted(data):
            calls.append(json.dumps(data, sort_keys=True))
            return decode(data)

        monkeypatch.setattr(ser, "cycle_from_json", counted)
        return calls

    def test_repeated_cycle_is_decoded_once_per_certificate(self, monkeypatch):
        Z, cert = generator_cycle(F7.element(3), 2)
        blob = json.loads(json.dumps(cert.to_json()))
        cycles = {json.dumps(e["data"]["cycle"], sort_keys=True) for e in blob["transcript"]}
        assert len(blob["transcript"]) == 4 and len(cycles) == 1
        calls = self.count_decodes(monkeypatch)
        assert verify_certificate(blob)
        assert len(calls) == 1
        # a second certificate, even an identical one, decodes again
        assert verify_certificate(json.loads(json.dumps(blob)))
        assert len(calls) == 2
        # the generator checks the cycle it built: it decodes nothing
        generator_cycle(F7.element(3), 2)
        assert len(calls) == 2

    def test_certificates_verified_in_turn_keep_their_verdicts(self, monkeypatch):
        W = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2)
        a = json.loads(json.dumps(verify_rho_reciprocity(W, D11_F7).to_json()))
        b = json.loads(json.dumps(a))
        # b's modulus entry sees a degree-2 cycle; its other entries share a's
        b["transcript"][1]["data"]["cycle"]["terms"][0]["poly"] = "1 - t1*t2*y1^2*y2"
        alone = [verdict(a), verdict(b)]
        assert alone == [True, False]
        calls = self.count_decodes(monkeypatch)
        assert [verdict(a), verdict(b), verdict(a)] == alone + [True]
        # one cycle for a's three entries; the shared and the mutated cycle for
        # b; a's cycle again for the second a
        assert len(calls) == 1 + 2 + 1

    def test_benchmark_mutants_keep_their_verdicts_without_the_memo(self, monkeypatch, tmp_path):
        wl = load_workloads()
        m = types.SimpleNamespace(**{name: importlib.import_module(f"modcycles.{name}")
                                     for name in ("fields", "polyring", "cycles", "witnesses")})
        bench = wl.CertRoundtrip(m, 42, str(tmp_path))
        certs = []
        for i, mode in bench.mutants:
            cert = json.loads(json.dumps(bench._build(*bench.specs[i]).to_json()))
            (wl.mutate_transcript_data if mode == "data" else wl.mutate_claim)(cert)
            certs.append(cert)
        assert len(certs) == 120
        with_memo = [verdict(c) for c in certs]
        run_check = witnesses._run_check
        monkeypatch.setattr(witnesses, "_run_check",
                            lambda check, data, memo: run_check(check, data, {}))
        assert [verdict(c) for c in certs] == with_memo
        assert all(v is False for v, (_, mode) in zip(with_memo, bench.mutants) if mode == "data")
        assert all(v is False for v in with_memo)


# sha256 of _certificate_corpus(), computed before the a = 0 generator and the
# rho-reciprocity admissibility checks ran through the transcript alone
CERTIFICATE_CORPUS_SHA256 = "97264c9769c59ab3b0549c769314ed3672344938e512a1535d4c5e7f777b8073"


def _certificate_corpus():
    """JSON lines of seeded bounding-surface and rho-reciprocity certificates
    over F5, F7 and Q, and of generator certificates over F2, F3, F5, F7 and Q
    (a = 0 included) for r = 1..3; level-0 degeneracy both on and off.  With
    it off, V(1 - a*t1...tr*y1) for a != 0 has the boundary V(1 - a*t1...tr),
    so those generator certificates record a failed boundary_zero check."""
    from modcycles.suites import _rand_admissible_cycle

    rng = random.Random(1412)
    certs = []
    for spec in (F5, F7, Q):
        D = ModulusDatum.monomial(spec, [1, 1])
        for level0 in (True, False):
            for _ in range(4):
                Z = _rand_admissible_cycle(rng, spec, 2, 0) + _rand_admissible_cycle(rng, spec, 2, 0)
                certs.append(bounding_surface(Z, D, level0_flag=level0))
        for _ in range(10):
            certs.append(verify_rho_reciprocity(_rand_admissible_cycle(rng, spec, 2, 2), D))
    for spec in (make_field(2), make_field(3), F5, F7, Q):
        values = list(spec.elements()) if spec.char else \
            [Q.zero, Q.one, Q.element(Fraction(-3, 2))]
        for r in (1, 2, 3):
            for level0 in (True, False):
                certs.extend(generator_cycle(a, r, level0)[1] for a in values)
    return "\n".join(json.dumps(cert.to_json(), sort_keys=True) for cert in certs)


class TestCertificateCorpus:
    def test_matches_the_pinned_corpus(self):
        text = _certificate_corpus()
        assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_CORPUS_SHA256

    def test_zero_generator_runs_its_boundary_check(self, monkeypatch):
        ran = []
        run_check = witnesses._run_check

        def recording(check, data, memo):
            ran.append(check)
            return run_check(check, data, memo)

        monkeypatch.setattr(witnesses, "_run_check", recording)
        _, cert = generator_cycle(F7.zero, 2)
        assert ran == [e["check"] for e in cert.transcript]


def test_demo_script_runs():
    demo = Path(__file__).resolve().parent.parent / "scripts" / "demo_witnesses.py"
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def seeded_generator_runs():
    """(claim kind, a call that runs one generator) over seeded inputs: the
    three cycle generators over F5, F7 and Q, and points with n = 0..2 in
    both models and both variants over every field of LEVEL_POINTS, F9
    among them."""
    from modcycles.suites import _rand_admissible_cycle

    rng = random.Random("generator-memo")
    runs = []
    for spec in (F5, F7, Q):
        def scalar():
            if spec.char:
                return spec.element(rng.randrange(spec.char))
            return spec.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

        for r in (1, 2, 3):
            a, flag = scalar(), rng.random() < 0.5
            runs.append(("generator", lambda a=a, r=r, flag=flag: generator_cycle(a, r, flag)[1]))
        moduli = [ModulusDatum.monomial(spec, e) for e in ([1, 1], [2, 1], [1, 2, 1])]
        moduli.append(ModulusDatum(parse_poly("t1*t2 + t1^2", spec, VarSet(2, 0))))
        for D in moduli:
            vars = VarSet(D.r, 0)
            terms = []
            for mult in rng.sample((1, 2, -1), rng.randint(1, 2)):
                g = MultiPoly.zero(spec, vars)
                while not g:
                    for _ in range(rng.randint(1, 3)):
                        exps = tuple(rng.randrange(3) for _ in range(D.r))
                        g = g + MultiPoly(spec, vars, {exps: scalar()})
                terms.append((mult, MultiPoly.const(spec, vars, 1) - D.divisor_poly * g))
            Z = HypersurfaceCycle(spec, vars, CoordModel.PSI, terms)
            flag = rng.random() < 0.5
            runs.append(("bounding", lambda Z=Z, D=D, flag=flag: bounding_surface(Z, D, flag)))
        for _ in range(3):
            W, D = _rand_admissible_cycle(rng, spec, 2, 2), ModulusDatum.monomial(spec, [1, 1])
            runs.append(("identity", lambda W=W, D=D: verify_rho_reciprocity(W, D)))
    for spec, t, y in LEVEL_POINTS.values():
        D = ModulusDatum.monomial(spec, [1, 2])
        for n, model, variant in itertools.product(range(3), CoordModel, ("plain", "product_base")):
            z = ClosedPoint(spec, t, y[:n])
            runs.append(("point", lambda z=z, D=D, n=n, model=model, variant=variant:
                         zero_cycle_vanishing_witness(z, D, n=n, model=model, variant=variant)))
    return runs


def given_inputs(kind, cert):
    """The transcript inputs that no certificate object binds: the point's
    parameter on its curve."""
    if kind != "point":
        return {}
    entry = next(e for e in cert.transcript if e["check"] == "point_on_curve")
    return {"parameter": entry["data"]["parameter"]}


def count_every_decode(monkeypatch):
    """Record the name of each ``ser.*_from_json`` call from now on."""
    calls = []
    for name in [name for name in dir(ser) if name.endswith("_from_json")]:
        def counted(*args, _decode=getattr(ser, name), _name=name):
            calls.append(_name)
            return _decode(*args)

        monkeypatch.setattr(ser, name, counted)
    return calls


KINDS = ("generator", "bounding", "identity", "point")


class TestGeneratorsCheckWhatTheyBuilt:
    @pytest.mark.parametrize("kind", KINDS)
    def test_generation_decodes_nothing(self, monkeypatch, kind):
        runs = [run for k, run in seeded_generator_runs() if k == kind]
        calls = count_every_decode(monkeypatch)
        certs = [run() for run in runs]
        assert calls == []
        # the counter sees decoding: verification decodes every object again
        assert [verify_certificate(json.loads(json.dumps(c.to_json()))) for c in certs] \
            == [c.valid for c in certs]
        assert calls

    @pytest.mark.parametrize("kind", KINDS)
    def test_transcript_equals_one_decoded_from_scratch(self, kind):
        runs = [run for k, run in seeded_generator_runs() if k == kind]
        valid = 0
        for run in runs:
            cert = run()
            fresh = list(witnesses._transcript(cert, kind, {}, **given_inputs(kind, cert)))
            assert json.dumps(cert.transcript) == json.dumps(fresh)
            if kind == "identity":
                faces = witnesses._rendered_boundary({}, cert.claim["cycle"])
                assert cert.claim["boundary_faces"] == faces
            valid += cert.valid
        # most seeded inputs make valid certificates, whose every entry passes
        assert valid >= len(runs) // 2

    def test_unknown_variant_is_a_value_error(self):
        z = ClosedPoint(F7, [F7.element(2), F7.element(3)], [])
        with pytest.raises(ValueError, match="unknown variant 'diagonal'"):
            zero_cycle_vanishing_witness(z, D11_F7, variant="diagonal")
