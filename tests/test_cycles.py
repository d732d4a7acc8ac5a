"""The cubical complex: faces, boundary, degeneracy, admissibility, conversion,
push-forward, and parametric curve boundaries."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcycles import serialize as ser
from modcycles.fields import FieldError, UniPoly, make_field, poly_gcd, standard_extension
from modcycles.milnor import FunctionField, MilnorElement, MilnorError, MilnorSymbol, total_delta
from modcycles.polyring import INFINITY, MultiPoly, RatFunc, VarSet, parse_poly, parse_ratfunc
from modcycles.cycles import (
    ClosedPoint,
    CoordModel,
    CycleError,
    DegenerateCurve,
    HypersurfaceCycle,
    ImproperBoundary,
    ImproperFaceIntersection,
    ModulusDatum,
    ModulusVerdict,
    ParamCurve,
    UndefinedAtPole,
    ZeroCycle,
    _convert_poly,
    _strip_excluded_factors,
    boundary,
    check_face_condition,
    check_modulus_codim1,
    check_modulus_zerocycle,
    curve_avoids_divisor,
    curve_boundary,
    face_restrict,
    is_degenerate,
    is_level0_dropped,
    prune_degenerate,
    pushforward_closed_immersion,
    psi_convert,
)
from modcycles.suites import _rand_admissible_cycle
from modcycles.witnesses import zero_cycle_vanishing_witness

F5 = make_field(5)
F7 = make_field(7)
Q = make_field(0)
F9 = make_field(3, [1, 0, 1])
F8 = make_field(2, [1, 1, 0, 1])
QI = make_field(0, [1, 0, 1])


def cyc(text, spec=F7, r=2, n=1, model=CoordModel.PSI):
    return HypersurfaceCycle.from_poly(parse_poly(text, spec, VarSet(r, n)), model)


def random_face_cycle(rng, spec, model, n):
    """Products of sparse factors, some of them y_i minus a face value, so
    that faces and corners at infinity are often improper."""
    vars = VarSet(1, n)
    scalars = [spec.element(c) for c in (-2, -1, 1, 2, 3)]
    if spec.is_extension:
        scalars.append(spec.gen_u)
    terms = []
    for _ in range(rng.randrange(1, 4)):
        p = MultiPoly.const(spec, vars, 1)
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.3:
                y = MultiPoly.variable(spec, vars, f"y{rng.randrange(1, n + 1)}")
                p = p * (y - rng.choice([0, 1]))
                continue
            f = MultiPoly(spec, vars, {
                tuple(rng.randrange(3) for _ in range(vars.count)): rng.choice(scalars)
                for _ in range(rng.randrange(1, 4))
            })
            p = p * f
        if not p.is_constant:
            terms.append((rng.choice((-2, -1, 1, 2)), p))
    return HypersurfaceCycle(spec, vars, model, terms)


def reference_face_report(Z):
    violations = []
    n = Z.vars.n
    for _, p in Z.components():
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                for values in itertools.product(Z.model.faces, repeat=size):
                    face = [(f"y{i}", v) for i, v in zip(subset, values)]
                    g = p.substitute({y: p.spec.element(v) for y, v in face if v is not INFINITY})
                    if g:
                        degs = [(y, p.degree_in(y)) for y, v in face if v is INFINITY]
                        for y, d in degs:
                            g = g.coefficient_of(y, d)
                    if not g:
                        violations.append({
                            "component": p.to_text(),
                            "face": {y: "inf" if v is INFINITY else str(v) for y, v in face},
                            "kind": "improper",
                        })
    return {"passed": not violations, "violations": violations}


def reference_face_restrict(Z, i, face):
    """face_restrict rebuilt through the validating constructor from the
    substitute / coefficient_of restriction of each component."""
    name = f"y{i}"
    out, improper = [], []
    for mult, p in Z.components():
        if face is INFINITY:
            g = p.coefficient_of(name, p.degree_in(name)).drop_var(name)
        else:
            g = p.substitute({name: p.spec.element(face)}, drop=True)
        if not g:
            improper.append(p)
        out.append((mult, g))
    if improper:
        return f"V({improper[0].to_text()}) contains the face {name}={'inf' if face is INFINITY else face}"
    return HypersurfaceCycle(Z.spec, VarSet(Z.vars.r, Z.vars.n - 1), Z.model, out)


def reference_boundary(Z, level0_flag=True):
    """The cubical boundary as a sum of cycles: for each i the difference of
    the two face restrictions (rebuilt by reference_face_restrict), scaled
    by (-1)^i and added to a running total, then prune_degenerate."""
    n = Z.vars.n
    pos, neg = Z.model.boundary_pair
    total = HypersurfaceCycle.empty(Z.spec, VarSet(Z.vars.r, n - 1), Z.model)
    for i in range(1, n + 1):
        faces = []
        for face in (pos, neg):
            got = reference_face_restrict(Z, i, face)
            if isinstance(got, str):
                raise ImproperFaceIntersection(got)
            faces.append(got)
        total = total + (faces[0] - faces[1]).scale((-1) ** i)
    return prune_degenerate(total, level0_flag=level0_flag)


def reference_psi_convert(Z, to_model):
    """psi_convert of a hypersurface cycle through the validating
    constructor, which strips and normalizes every image."""
    out = []
    for p, m in Z.terms.items():
        q = _convert_poly(p, to_model)
        if q and not q.is_constant:
            out.append((m, q))
    return HypersurfaceCycle(Z.spec, Z.vars, to_model, out)


def error_of(fn, *args):
    """The type of the CycleError that fn(*args) raises, or None."""
    try:
        fn(*args)
    except CycleError as exc:
        return type(exc)
    return None


def outcome_of(fn, *args, **kwargs):
    """The result, or the type and message of the CycleError raised."""
    try:
        return fn(*args, **kwargs)
    except CycleError as exc:
        return type(exc).__name__, str(exc)


ONE_PASS_SPECS = (make_field(2), F5, Q, F9, QI)


def one_pass_cycles(seed):
    """Seeded cycles for the one-pass boundary and conversion: for each
    field, model and n = 1..4, one cycle from random_face_cycle (improper
    faces and corners are common) and, in the PSI model, one certified
    admissible cycle (at n = 1 its boundary has level-0 components
    1 - c*t^e), plus its ORIGINAL image."""
    rng = random.Random(seed)
    for spec in ONE_PASS_SPECS:
        for n in (1, 2, 3, 4):
            for model in CoordModel:
                yield random_face_cycle(rng, spec, model, n)
            Z = _rand_admissible_cycle(rng, spec, rng.randrange(1, 3), n)
            yield Z
            yield reference_psi_convert(Z, CoordModel.ORIGINAL)


class TestFaceRestrict:
    def test_face_to_unit_is_empty(self):
        Z = cyc("1 - t1*t2*3*y1")
        assert not face_restrict(Z, 1, 0)

    def test_face_to_level0(self):
        Z = cyc("1 - t1*t2*3*y1")
        got = face_restrict(Z, 1, 1)
        assert got == cyc("1 - 3*t1*t2", n=0)

    def test_reciprocity_face(self):
        W = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2)
        got = face_restrict(W, 2, 0)
        # h|_{y2=0} = 1 - t1 t2 (3 y1 + 5), reindexed
        assert got == cyc("1 - t1*t2*(3*y1 + 5)")

    def test_improper_raises(self):
        Z = cyc("y1 - y2", n=2)
        inner = face_restrict(Z, 1, 0)  # V(-y2) -> V(y1) after reindexing
        with pytest.raises(ImproperFaceIntersection):
            face_restrict(inner, 1, 0)

    def test_infinity_face_is_leading_coefficient(self):
        Z = cyc("1 - t1*y1^2 - t2*y1", model=CoordModel.ORIGINAL)
        got = face_restrict(Z, 1, INFINITY)
        assert got == cyc("t1", n=0, model=CoordModel.ORIGINAL)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30))
    def test_equals_a_validating_rebuild(self, seed):
        rng = random.Random(seed)
        spec = (F5, F9, Q)[seed % 3]
        model = (CoordModel.ORIGINAL, CoordModel.PSI)[seed // 3 % 2]
        n = 1 + seed // 6 % 4
        Z = random_face_cycle(rng, spec, model, n)
        for i in range(1, n + 1):
            for face in model.faces:
                want = reference_face_restrict(Z, i, face)
                if isinstance(want, str):
                    with pytest.raises(ImproperFaceIntersection) as exc:
                        face_restrict(Z, i, face)
                    assert str(exc.value) == want
                else:
                    assert face_restrict(Z, i, face) == want

    def test_original_restriction_strips_a_gained_puncture_factor(self):
        # at y1 = 0 the component becomes 1 - y2, supported on the puncture
        Z = cyc("1 - y2 + y1*y2", n=2, model=CoordModel.ORIGINAL)
        assert not face_restrict(Z, 1, 0)
        assert face_restrict(Z, 1, 0) == reference_face_restrict(Z, 1, 0)
        W = cyc("(1 - y2)*(1 + t1*y2) + y1*y2", n=2, model=CoordModel.ORIGINAL)
        assert face_restrict(W, 1, 0) == cyc("1 + t1*y1", model=CoordModel.ORIGINAL)

    def test_psi_components_with_one_restriction_merge(self):
        vars = VarSet(2, 2)
        p, q = (parse_poly(text, F7, vars) for text in ("1 + t1*y2 + y1", "2 + 2*t1*y2 + 3*y1"))
        Z = HypersurfaceCycle(F7, vars, CoordModel.PSI, [(2, p), (3, q)])
        assert len(Z.terms) == 2
        assert face_restrict(Z, 1, 0) == cyc("1 + t1*y1").scale(5)
        Z = HypersurfaceCycle(F7, vars, CoordModel.PSI, [(2, p), (-2, q)])
        assert not face_restrict(Z, 1, 0).terms

    def test_improper_message_names_the_first_component_in_text_order(self):
        vars = VarSet(2, 2)
        comps = [parse_poly(text, F7, vars) for text in ("t2*y1 + y1*y2", "t1*y1 + y1*y2")]
        Z = HypersurfaceCycle(F7, vars, CoordModel.PSI, [(1, comps[0]), (1, comps[1])])
        with pytest.raises(ImproperFaceIntersection) as exc:
            face_restrict(Z, 1, 0)
        assert str(exc.value) == "V(t1*y1 + y1*y2) contains the face y1=0"


class TestDegeneracy:
    def test_level1_t_only_component(self):
        p = parse_poly("1 - t1*t2", F7, VarSet(2, 1))
        assert is_degenerate(p)

    def test_level1_honest_component(self):
        p = parse_poly("1 - t1*t2*y1", F7, VarSet(2, 1))
        assert not is_degenerate(p)

    def test_level2_missing_y1(self):
        p = parse_poly("1 - t1*t2*y2", F7, VarSet(2, 2))
        assert is_degenerate(p)

    def test_level0_flag_classifies_two_term_monomials(self):
        assert is_level0_dropped(parse_poly("1 - 3*t1*t2", F7, VarSet(2, 0)))
        assert not is_level0_dropped(parse_poly("1 - t1*t2*(t1 + 3)", F7, VarSet(2, 0)))

    def test_level0_flag_counts_monomials_over_an_extension(self):
        # 1 - (u + 2)*t1*t2 has two monomials, but its coefficient (u + 2) is
        # two stored terms over F3; three monomials are not dropped
        vars = VarSet(2, 0)
        p = parse_poly("1 - (u + 2)*t1*t2", F9, vars)
        assert len(p.monomials()) == 2
        assert is_level0_dropped(p)
        assert is_level0_dropped(parse_poly("1 + u*t1^2*t2", F9, vars))
        assert not is_level0_dropped(parse_poly("1 - (u + 2)*t1*t2 + u*t2", F9, vars))
        assert not is_level0_dropped(parse_poly("u - (u + 2)*t1*t2", F9, vars))
        # the level-1 generator with that coefficient bounds to it, and the
        # flag drops it
        Z = cyc("1 - (u + 2)*t1*t2*y1", spec=F9)
        assert boundary(Z, level0_flag=False) == cyc("1 - (u + 2)*t1*t2", spec=F9, n=0)
        assert not boundary(Z)


class TestBoundary:
    def test_bounding_identity(self):
        # the surface over f = 1 - t1 t2 g recovers V(f) at the 1-face
        W = cyc("1 - t1*t2*(t1 + 3)*y1")
        assert boundary(W) == cyc("1 - t1*t2*(t1 + 3)", n=0)

    def test_generator_boundary_vanishes_under_flag(self):
        Za = cyc("1 - 3*t1*t2*y1")
        assert not boundary(Za)
        assert boundary(Za, level0_flag=False) == cyc("1 - 3*t1*t2", n=0)

    def test_reciprocity_faces(self):
        W = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2)
        b = boundary(W)
        # four faces, signed: -(d_1^0 - d_1^1) + (d_2^0 - d_2^1)
        expected = (
            cyc("1 - t1*t2*(4*y1 + 5)").scale(-1)
            + cyc("1 - t1*t2*(6*y1 + 1)")
            + cyc("1 - t1*t2*(3*y1 + 5)")
            + cyc("1 - t1*t2*(5*y1 + 2)").scale(-1)
        )
        assert b == expected

    def test_double_boundary_vanishes(self):
        rng = random.Random(3)
        from modcycles.suites import _rand_admissible_cycle

        for k in range(50):
            spec = [F5, F7, Q][k % 3]
            Z = _rand_admissible_cycle(rng, spec, 2, 2)
            b = boundary(Z, level0_flag=False)
            if b.vars.n >= 1:
                assert not boundary(b, level0_flag=False)


class TestOnePassBoundary:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_reference(self, seed):
        proper = improper = 0
        for Z in one_pass_cycles(seed):
            for flag in (True, False):
                want = outcome_of(reference_boundary, Z, level0_flag=flag)
                assert outcome_of(boundary, Z, level0_flag=flag) == want
                if isinstance(want, HypersurfaceCycle):
                    proper += bool(want)
                else:
                    improper += 1
        assert proper >= 20 and improper >= 10

    def test_level0_flag_drops_only_at_level0(self):
        # two of the three faces of Z are two-term components 1 - c*t1*y1
        # at level 1, which the flag keeps; the boundary of W is the flag's
        # two-term component 1 - 3*t1 at level 0
        Z = cyc("1 - 3*t1*y1*y2 - t1*y1", r=1, n=2)
        assert boundary(Z) == boundary(Z, level0_flag=False) == reference_boundary(Z)
        assert len(boundary(Z).terms) == 3
        W = cyc("1 - 3*t1*y1", r=1)
        assert not boundary(W)
        assert boundary(W, level0_flag=False) == reference_boundary(W, level0_flag=False)

    def test_improper_face_raises_at_the_same_face(self):
        # both faces of y1 are proper; at y2 = 0 two components are not, and
        # the message names the first in text order
        vars = VarSet(1, 2)
        comps = [parse_poly(text, F7, vars)
                 for text in ("1 + y1 + t1*y2", "y2*(2 + y1)", "y2*(1 + t1*y1)")]
        Z = HypersurfaceCycle(F7, vars, CoordModel.PSI, [(1, p) for p in comps])
        with pytest.raises(ImproperFaceIntersection) as exc:
            reference_boundary(Z)
        assert str(exc.value) == "V(t1*y1*y2 + y2) contains the face y2=0"
        assert outcome_of(boundary, Z) == ("ImproperFaceIntersection", str(exc.value))

    def test_original_face_that_strips_to_a_unit(self):
        # at y1 = 0 the component becomes 1 - y2, supported on the puncture
        Z = cyc("1 - y2 + y1*y2 + t1*y1", r=1, n=2, model=CoordModel.ORIGINAL)
        assert not face_restrict(Z, 1, 0)
        for flag in (True, False):
            assert boundary(Z, level0_flag=flag) == reference_boundary(Z, level0_flag=flag)

    def test_builds_no_cycle_through_the_validating_constructor(self, monkeypatch):
        Z = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2)
        Zo = psi_convert(Z, CoordModel.ORIGINAL)
        want = (boundary(Z), face_restrict(Z, 2, 0), boundary(Zo), Zo, psi_convert(Zo, CoordModel.PSI))

        def refuse(self, *args, **kwargs):
            raise AssertionError("HypersurfaceCycle.__init__ called")

        monkeypatch.setattr(HypersurfaceCycle, "__init__", refuse)
        got = (boundary(Z), face_restrict(Z, 2, 0), boundary(Zo),
               psi_convert(Z, CoordModel.ORIGINAL), psi_convert(Zo, CoordModel.PSI))
        assert got == want


class TestFaceCondition:
    def test_admissible_passes(self):
        Z = cyc("1 - t1*t2*(y1 + y2)", n=2)
        assert check_face_condition(Z).passed

    def test_corner_violation_found_and_named(self):
        Z = cyc("y1 - y2", n=2)
        report = check_face_condition(Z)
        assert not report.passed
        first = report.violations[0]
        assert first.face == (("y1", "0"), ("y2", "0"))

    def test_point_on_face_fails(self):
        z = ZeroCycle(F7, CoordModel.PSI, 1, 1, [(1, ClosedPoint(F7, [F7.one], [F7.zero]))])
        assert not check_face_condition(z).passed

    def test_corner_at_infinity_checked(self):
        # V(t1*y1^2*y2 + t2*y1*y2^2 + 1): the (2,1)-(1,2) staircase has no
        # joint corner, so the double face at infinity is improper
        Z = cyc("t1*y1^2*y2 + t2*y1*y2^2 + 1", n=2, model=CoordModel.ORIGINAL)
        report = check_face_condition(Z)
        assert not report.passed
        assert any(all(e == "inf" for _, e in v.face) and len(v.face) == 2
                   for v in report.violations)

    def test_joint_corner_at_n4_equals_restriction_from_scratch(self):
        # the staircase y1^2*y2 / y1*y2^2 (times y3*y4) has no joint corner
        # at y1 = y2 = inf, although extracting y1 and then y2 leaves t1
        for model in CoordModel:
            Z = cyc("t1*y1^2*y2*y3*y4 + t2*y1*y2^2*y3*y4 + 1", n=4, model=model)
            report = check_face_condition(Z)
            assert report.to_json() == reference_face_report(Z)
            if model is CoordModel.ORIGINAL:
                assert any(v.face == (("y1", "inf"), ("y2", "inf")) for v in report.violations)
                assert not any(v.face == (("y1", "inf"),) for v in report.violations)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30))
    def test_report_equals_restriction_from_scratch(self, seed):
        # check_face_condition restricts each face from a memoized prefix;
        # the reference substitutes every finite face value from scratch
        rng = random.Random(seed)
        spec = (F5, F9, Q)[seed % 3]
        model = (CoordModel.ORIGINAL, CoordModel.PSI)[seed // 3 % 2]
        Z = random_face_cycle(rng, spec, model, 1 + seed // 6 % 4)
        assert check_face_condition(Z).to_json() == reference_face_report(Z)

    def test_closure_contains_a_mixed_face_in_original(self):
        # y2 = 0 leaves 1, of degree 0 in y1, but the component has degree 1
        # in y1: its closure z1*z2 + z1*y2 + y1*y2 contains y1 = inf, y2 = 0
        Z = cyc("1 + y2 + y1*y2", r=1, n=2, model=CoordModel.ORIGINAL)
        report = check_face_condition(Z)
        assert [v.face for v in report.violations] == [(("y1", "inf"), ("y2", "0"))]

    def test_faces_agree_across_the_conversion(self):
        # ORIGINAL inf and 0 are PSI 0 and 1, so V(p) and its PSI image must
        # fail at the same faces
        relabel = {"inf": "0", "0": "1"}

        def faces(Z):
            return {v.face for v in check_face_condition(Z).violations}

        for seed in range(120):
            rng = random.Random(seed)
            spec, n = (F5, F9, Q)[seed % 3], 1 + seed // 3 % 4
            for _, p in random_face_cycle(rng, spec, CoordModel.ORIGINAL, n).components():
                image = HypersurfaceCycle.from_poly(_convert_poly(p, CoordModel.PSI), CoordModel.PSI)
                got = faces(HypersurfaceCycle.from_poly(p, CoordModel.ORIGINAL))
                assert {tuple((y, relabel[e]) for y, e in f) for f in got} == faces(image), p

    @pytest.mark.parametrize("n, calls", [(1, 2), (2, 6), (3, 14), (4, 30)])
    def test_passing_component_costs_only_its_vertices(self, monkeypatch, n, calls):
        # 2 + 4 + ... + 2^n prefix restrictions reach the 2^n vertices; a
        # failing component still lists every improper face
        count = 0
        restrict = MultiPoly._restrict_face

        def counted(self, i, face, *top):
            nonlocal count
            count += 1
            return restrict(self, i, face, *top)

        monkeypatch.setattr(MultiPoly, "_restrict_face", counted)
        ys = " + ".join(f"{i}*y{i}" for i in range(1, n + 1))
        assert check_face_condition(cyc(f"1 - t1*t2*({ys} + 1)", n=n)).passed
        assert count == calls
        Z = cyc(f"y1 - y{n}" if n > 1 else "y1", n=n)
        report = check_face_condition(Z)
        assert report.violations and report.to_json() == reference_face_report(Z)


class TestModulusCodim1:
    D11 = ModulusDatum.monomial(F7, [1, 1])

    def test_reciprocity_cycle_certified(self):
        W = cyc("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", n=2)
        assert check_modulus_codim1(W, self.D11).verdict is ModulusVerdict.CERTIFIED

    def test_degree_two_violates(self):
        W = cyc("1 - t1*t2*y1^2")
        assert check_modulus_codim1(W, self.D11).verdict is ModulusVerdict.VIOLATES

    def test_radical_failure_violates_for_ones(self):
        W = cyc("1 - t1*y1")
        assert check_modulus_codim1(W, self.D11).verdict is ModulusVerdict.VIOLATES

    def test_unknown_for_higher_exponents(self):
        W = cyc("1 - t1*t2*y1")
        D21 = ModulusDatum.monomial(F7, [2, 1])
        assert check_modulus_codim1(W, D21).verdict is ModulusVerdict.UNKNOWN

    def test_level0_monomial_dichotomy(self):
        D215 = ModulusDatum.monomial(Q, [2, 1, 5])
        good = cyc("1 - t1*t2*t3*(t1 + 1)", spec=Q, r=3, n=0)
        assert check_modulus_codim1(good, D215).verdict is ModulusVerdict.CERTIFIED
        bad = cyc("1 - t1*t2", spec=Q, r=3, n=0)
        assert check_modulus_codim1(bad, D215).verdict is ModulusVerdict.VIOLATES

    def test_components_reported_in_text_order(self):
        vars = VarSet(2, 1)
        texts = ("1 - t1*t2*y1^2", "1 + t2*y1", "1 - t1*t2*(y1 + 3)")
        Z = HypersurfaceCycle(F7, vars, CoordModel.PSI,
                              [(k + 1, parse_poly(t, F7, vars)) for k, t in enumerate(texts)])
        report = check_modulus_codim1(Z, self.D11)
        rows = [(t, v.value) for t, v, _ in report.per_component]
        assert rows == [
            ("6*t1*t2*y1 + 4*t1*t2 + 1", "Certified"),
            ("6*t1*t2*y1^2 + 1", "ViolatesNecessary"),
            ("t2*y1 + 1", "ViolatesNecessary"),
        ]
        assert report.verdict is ModulusVerdict.VIOLATES
        assert [c["poly"] for c in report.to_json()["components"]] == [t for t, _ in rows]
        empty = check_modulus_codim1(HypersurfaceCycle.empty(F7, vars, CoordModel.PSI), self.D11)
        assert empty.to_json() == {"verdict": "Certified", "components": [
            {"poly": "0", "verdict": "Certified", "reason": "empty cycle"}]}

    def test_constant_term_zero_names_the_first_offender_in_text_order(self):
        from modcycles.cycles import ConstantTermZero

        vars = VarSet(2, 1)
        texts = ("1 + t1*y1", "y1 + t2", "t1 + y1")
        Z = HypersurfaceCycle(F7, vars, CoordModel.PSI, [(1, parse_poly(t, F7, vars)) for t in texts])
        with pytest.raises(ConstantTermZero) as exc:
            check_modulus_codim1(Z, self.D11)
        assert str(exc.value) == "component t1 + y1 has constant term 0; it meets the t-axes"

    def test_a_monomial_divisor_does_not_depend_on_its_spelling(self):
        built = ModulusDatum.monomial(F7, [2, 1])
        parsed = ModulusDatum(parse_poly("t1^2*t2", F7, VarSet(2, 0)))
        assert parsed == built and parsed.monomial_exponents == built.monomial_exponents == (2, 1)
        for text, verdict in (("1 + t1*t2", ModulusVerdict.CERTIFIED),
                              ("1 + 3*t1", ModulusVerdict.VIOLATES)):
            Z = cyc(text, n=0)
            assert check_modulus_codim1(Z, built).verdict is verdict
            assert check_modulus_codim1(Z, parsed).verdict is verdict
        # a modulus given as a polynomial serializes as its exponents
        assert ser.modulus_to_json(parsed) == {"exponents": [2, 1]}
        pt = ClosedPoint(F7, [F7.element(2), F7.element(3)], [])
        assert (zero_cycle_vanishing_witness(pt, parsed, n=0).to_json()
                == zero_cycle_vanishing_witness(pt, built, n=0).to_json())

    def test_a_divisor_that_is_not_monomial(self):
        A2 = VarSet(2, 0)
        for spec, text in ((F7, "t2"), (F7, "3*t1*t2"), (F7, "t1*t2 + t1"), (QI, "u*t1*t2")):
            D = ModulusDatum(parse_poly(text, spec, A2))
            assert not D.is_monomial and D.monomial_exponents is None
            assert ser.modulus_to_json(D) == {"r": 2, "poly": text}
        with pytest.raises(ValueError, match="monomial exponents must be >= 1"):
            ModulusDatum.monomial(F7, [0, 1])

    def test_wrong_model_rejected(self):
        from modcycles.cycles import WrongModel

        Z = cyc("1 - t1*t2*y1", model=CoordModel.ORIGINAL)
        with pytest.raises(WrongModel):
            check_modulus_codim1(Z, self.D11)


class TestModulusZeroCycle:
    def test_examples(self):
        D = ModulusDatum.monomial(Q, [1, 1])
        on = ZeroCycle(Q, CoordModel.PSI, 2, 0,
                       [(1, ClosedPoint(Q, [Q.one, Q.one], []))])
        assert check_modulus_zerocycle(on, D)
        off = ZeroCycle(Q, CoordModel.PSI, 2, 0,
                        [(1, ClosedPoint(Q, [Q.zero, Q.element(5)], []))])
        assert not check_modulus_zerocycle(off, D)
        # non-monomial divisor t1 t2 - 1 at (2, 3) over F7: 6 - 1 = 5 != 0
        D2 = ModulusDatum(parse_poly("t1*t2 - 1", F7, VarSet(2, 0)))
        pt = ZeroCycle(F7, CoordModel.PSI, 2, 0,
                       [(1, ClosedPoint(F7, [F7.element(2), F7.element(3)], []))])
        assert check_modulus_zerocycle(pt, D2)


def reference_curve_avoids_divisor(embedding, D):
    """The earlier loop over the monomials of D, kept as the reference: D at
    the coordinate functions built term by term in RatFunc arithmetic."""
    spec = embedding[0].spec
    acc = RatFunc.const(spec, 0)
    for e in D.divisor_poly.monomials():
        term = RatFunc.const(spec, D.divisor_poly.coeff(e))
        for coord, k in zip(embedding, e):
            if k:
                term = term * coord**k
        acc = acc + term
    if not acc.num:
        return False
    h = acc.num
    pole_prod = UniPoly.const(spec, 1)
    for e in embedding:
        pole_prod = pole_prod * e.den
    while h.degree > 0:
        g = poly_gcd(h, pole_prod)
        if g.degree == 0:
            return False
        h = h // g
    return True


class TestCurveAvoidsDivisor:
    @pytest.mark.parametrize("spec", (F5, Q, F9), ids=lambda s: s.to_text())
    def test_equals_the_monomial_loop_reference(self, spec):
        # coordinates c*g^k, k = +-1 or +-2, have the poles of g when some k
        # is negative, so the curve often avoids a monomial divisor
        rng = random.Random(f"avoids:{spec.to_text()}")
        seen = set()
        for _ in range(80):
            r = rng.randrange(1, 4)
            g = _corpus_ratfunc(rng, spec)
            emb = tuple(RatFunc.const(spec, _corpus_scalar(rng, spec) or spec.one)
                        * g ** rng.choice((-2, -1, 1, 2))
                        if rng.random() < 0.7 else _corpus_ratfunc(rng, spec) for _ in range(r))
            if rng.random() < 0.5:
                D = ModulusDatum.monomial(spec, [rng.randint(1, 3) for _ in range(r)])
            else:
                p = MultiPoly(spec, VarSet(r, 0), {
                    tuple(rng.randrange(3) for _ in range(r)): _corpus_scalar(rng, spec)
                    for _ in range(rng.randint(1, 3))})
                if not p or p.is_constant:
                    continue
                D = ModulusDatum(p)
            want = reference_curve_avoids_divisor(emb, D)
            assert curve_avoids_divisor(emb, D) is want, (emb, D)
            seen.add((D.is_monomial, want))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_an_embedding_over_an_extension_of_the_divisor_field(self):
        F49 = make_field(7, [1, 0, 1])
        s, u = RatFunc.param(F49), RatFunc.const(F49, F49.gen_u)
        for D in (ModulusDatum.monomial(F7, [1, 2]),
                  ModulusDatum(parse_poly("t1*t2 - 1", F7, VarSet(2, 0)))):
            for emb in ((s, u / s), (s + u, s), (u * s, RatFunc.const(F49, 1) / (s * s + u))):
                assert curve_avoids_divisor(emb, D) is reference_curve_avoids_divisor(emb, D)

    def test_one_coordinate_per_t_variable(self):
        s = RatFunc.param(F7)
        D = ModulusDatum.monomial(F7, [1, 1])
        for emb in ((), (s,), (s, RatFunc.const(F7, 6) / s, s)):
            with pytest.raises(ValueError, match="need one value per variable"):
                curve_avoids_divisor(emb, D)


def reference_convert_poly(p, to_model):
    """Substitute psi one variable at a time, as products of MultiPoly powers."""
    spec, vars = p.spec, p.vars
    out = p
    one = MultiPoly.const(spec, vars, 1)
    for i in range(vars.n):
        name = f"y{i+1}"
        yv = MultiPoly.variable(spec, vars, name)
        d = out.degree_in(name) if out else 0
        if to_model is CoordModel.PSI:
            num, den = yv - one, yv  # y = (w - 1)/w
        else:
            num, den = one, one - yv  # w = 1/(1 - y)
        acc = MultiPoly.zero(spec, vars)
        for e in range(d + 1):
            acc = acc + out.coefficient_of(name, e) * num**e * den ** (d - e)
        out = acc
    return out


def rand_exponent(rng, vars):
    """t-degrees up to 2, y-degrees up to 3."""
    return (tuple(rng.randrange(3) for _ in range(vars.r))
            + tuple(rng.randrange(4) for _ in range(vars.n)))


def rand_scalar(rng, spec):
    if spec.is_extension:
        digits = [rng.randint(-2, 2) for _ in range(spec.degree)]
        return spec.element(digits if spec.char else [Fraction(c) for c in digits])
    return spec.element(rng.randint(-3, 3))


class TestConvertKernel:
    SPECS = (F5, Q, F9, F8, QI)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**30))
    def test_equals_the_per_variable_substitution(self, seed):
        rng = random.Random(seed)
        spec = self.SPECS[seed % len(self.SPECS)]
        vars = VarSet(rng.randrange(3), rng.randrange(1, 5))
        terms = {}
        for _ in range(rng.randrange(7)):
            terms[rand_exponent(rng, vars)] = rand_scalar(rng, spec)
        p = MultiPoly(spec, vars, terms)
        for model in CoordModel:
            q = _convert_poly(p, model)
            assert q.terms == reference_convert_poly(p, model).terms
            assert all(q.terms.values()), "zero coefficient stored"
            assert q.spec is p.spec and q.vars == p.vars

    def test_binomial_coefficients_beyond_one(self):
        # (w - 1)^2 = w^2 - 2w + 1 and (1 - y)^3 = 1 - 3y + 3y^2 - y^3
        vars = VarSet(0, 1)
        assert _convert_poly(parse_poly("y1^2", Q, vars), CoordModel.PSI) == \
            parse_poly("y1^2 - 2*y1 + 1", Q, vars)
        assert _convert_poly(parse_poly("1", Q, vars), CoordModel.ORIGINAL) == \
            parse_poly("1", Q, vars)
        assert _convert_poly(parse_poly("y1^3 + 2", Q, vars), CoordModel.ORIGINAL) == \
            parse_poly("1 + 2*(1 - y1)^3", Q, vars)
        # over F3, 1 + 2*(1 - y)^3 = 3 - 6y + 6y^2 - 2y^3 = y^3: the
        # coefficient 3 vanishes and the constants 1 + 2 cancel
        F3 = make_field(3)
        q = _convert_poly(parse_poly("y1^3 + 2", F3, vars), CoordModel.ORIGINAL)
        assert q == parse_poly("y1^3", F3, vars)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30))
    def test_cycles_round_trip(self, seed):
        # components with constant term 1 carry no factor y_i, which the
        # round trip through the ORIGINAL model would drop
        rng = random.Random(seed)
        spec = self.SPECS[seed % len(self.SPECS)]
        vars = VarSet(rng.randrange(3), rng.randrange(1, 5))
        comps = []
        for _ in range(rng.randrange(1, 4)):
            terms = {(0,) * vars.count: spec.one}
            for _ in range(rng.randrange(1, 5)):
                e = rand_exponent(rng, vars)
                if any(e):
                    terms[e] = rand_scalar(rng, spec)
            p = MultiPoly(spec, vars, terms)
            if not p.is_constant:
                comps.append((rng.choice((-2, -1, 1, 3)), p))
        Z = HypersurfaceCycle(spec, vars, CoordModel.PSI, comps)
        Zo = psi_convert(Z, CoordModel.ORIGINAL)
        assert Zo.model is CoordModel.ORIGINAL
        assert psi_convert(Zo, CoordModel.PSI) == Z


class TestPsiConvert:
    def test_point_value(self):
        pt = ClosedPoint(Q, (), (Q.element(2),))
        assert psi_convert(pt, CoordModel.PSI).y_coords[0] == Q.element(-1)

    def test_pole_raises(self):
        pt = ClosedPoint(Q, (), (Q.one,))
        with pytest.raises(UndefinedAtPole):
            psi_convert(pt, CoordModel.PSI)

    def test_roundtrip_100_points(self):
        rng = random.Random(11)
        for _ in range(100):
            vals = []
            for _ in range(2):
                v = F7.element(rng.randrange(2, 7))
                vals.append(v)
            pt = ClosedPoint(F7, (F7.one,), vals)
            assert psi_convert(psi_convert(pt, CoordModel.PSI), CoordModel.ORIGINAL) == pt

    def test_boundary_commutes(self):
        rng = random.Random(13)
        from modcycles.suites import _rand_admissible_cycle

        for k in range(30):
            Z = _rand_admissible_cycle(rng, [F5, F7, Q][k % 3], 2, 2)
            Zo = psi_convert(Z, CoordModel.ORIGINAL)
            if not check_face_condition(Zo).passed:
                continue
            lhs = psi_convert(boundary(Z, level0_flag=False), CoordModel.ORIGINAL)
            rhs = boundary(Zo, level0_flag=False)
            assert lhs == rhs


class TestTrustedConvert:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_reference(self, seed):
        images = 0
        for Z in one_pass_cycles(seed):
            target = Z.model.other
            assert psi_convert(Z, target) == reference_psi_convert(Z, target)
            for p in Z.terms:
                q = _convert_poly(p, target)
                if q and not q.is_constant:
                    assert _strip_excluded_factors(q, target) is q
                    images += 1
        assert images >= 50

    def test_equal_images_merge(self):
        # over F7 both components map to V(3*y1 + 1)
        vars = VarSet(1, 1)
        p, q = (parse_poly(text, F7, vars) for text in ("1 + y1", "y1 + y1^2"))
        image = cyc("3*y1 + 1", r=1, model=CoordModel.ORIGINAL)
        for mults, want in (((1, -1), image.scale(0)), ((1, 1), image.scale(2)), ((2, 1), image.scale(3))):
            Z = HypersurfaceCycle(F7, vars, CoordModel.PSI, list(zip(mults, (p, q))))
            assert len(Z.terms) == 2
            got = psi_convert(Z, CoordModel.ORIGINAL)
            assert got == want == reference_psi_convert(Z, CoordModel.ORIGINAL)


class TestPushforward:
    def test_point_inclusion(self):
        s = RatFunc.param(F7)
        emb = (s, RatFunc.const(F7, F7.element(6)) / s)
        src = ZeroCycle(F7, CoordModel.ORIGINAL, 1, 0,
                        [(1, ClosedPoint(F7, [F7.element(2)], []))])
        out = pushforward_closed_immersion(src, emb)
        assert out.items()[0][0] == ClosedPoint(F7, [F7.element(2), F7.element(3)], [])

    def test_functoriality_50_points(self):
        rng = random.Random(17)
        s = RatFunc.param(F7)
        inner = s + RatFunc.const(F7, 2)          # C -> C' parameter map
        outer = (s**2, s - RatFunc.const(F7, 1))  # C' -> A^2
        composite = tuple(e.compose(inner) for e in outer)
        for _ in range(50):
            v = F7.element(rng.randrange(7))
            src = ZeroCycle(F7, CoordModel.ORIGINAL, 1, 0, [(1, ClosedPoint(F7, [v], []))])
            step = pushforward_closed_immersion(src, (inner,))
            two = pushforward_closed_immersion(step, outer)
            one = pushforward_closed_immersion(src, composite)
            assert two == one

    def test_boundary_commutes_with_pushforward(self):
        s = RatFunc.param(F7)
        emb = (s, RatFunc.const(F7, F7.element(6)) / s)
        comp = s - RatFunc.const(F7, 2)
        curve = ParamCurve(F7, CoordModel.ORIGINAL, [comp], graph_over_base=True)
        pushed = curve_boundary(curve, embedding=emb)
        assert pushed == ZeroCycle(F7, CoordModel.ORIGINAL, 2, 0,
                                   [(1, ClosedPoint(F7, [F7.element(2), F7.element(3)], []))])


class TestCurveBoundary:
    def test_single_linear_zero(self):
        s = RatFunc.param(F7)
        curve = ParamCurve(F7, CoordModel.ORIGINAL, [s - RatFunc.const(F7, 3)],
                           graph_over_base=True)
        b = curve_boundary(curve)
        assert b == ZeroCycle(F7, CoordModel.ORIGINAL, 1, 0,
                              [(1, ClosedPoint(F7, [F7.element(3)], []))])

    def test_double_zero_multiplicity(self):
        s = RatFunc.param(F7)
        comp = (s - RatFunc.const(F7, 3)) ** 2
        curve = ParamCurve(F7, CoordModel.ORIGINAL, [comp], graph_over_base=True)
        b = curve_boundary(curve)
        assert b.terms[ClosedPoint(F7, [F7.element(3)], [])] == 2

    def test_extension_place_point(self):
        # component with an irreducible quadratic zero over F5
        s = RatFunc.param(F5)
        comp = RatFunc.from_poly(UniPoly(F5, [2, 0, 1]))  # s^2 + 2, no roots in F5
        curve = ParamCurve(F5, CoordModel.ORIGINAL, [comp, RatFunc.const(F5, 3)],
                           graph_over_base=True)
        b = curve_boundary(curve)
        ext_points = [p for p, _ in b.items() if p.residue_spec.is_extension]
        assert ext_points and all(len(p.t_coords) == 1 for p in ext_points)

    def test_hyperbola_witness_over_q(self):
        s = RatFunc.param(Q)
        c = Q.element(Fraction(3, 2))
        emb = (s, RatFunc.const(Q, c) / s, RatFunc.const(Q, 4))
        comp = s - RatFunc.const(Q, Fraction(1, 2))
        curve = ParamCurve(Q, CoordModel.ORIGINAL, [comp], graph_over_base=True)
        b = curve_boundary(curve, embedding=emb)
        target = ClosedPoint(Q, [Q.element(Fraction(1, 2)), Q.element(3), Q.element(4)], [])
        assert b == ZeroCycle(Q, CoordModel.ORIGINAL, 3, 0, [(1, target)])
        assert curve_avoids_divisor(emb, ModulusDatum.monomial(Q, [1, 2, 3]))


ORIGINAL, PSI = CoordModel.ORIGINAL, CoordModel.PSI


class TestCube:
    """Where a coordinate value lies on the cube, in both models, over F7.

    Per (model, value): whether a constant curve component there raises
    DegenerateCurve, the 0-cycle face verdict, what happens to a curve
    boundary point whose remaining coordinate is there, and whether
    psi_convert of a point or a constant curve component there hits the
    pole.  Infinity is no field element, so only the curve boundary sees it.
    """

    TABLE = [
        # model, value, constant component raises, 0-cycle kind, the boundary
        # point at s = 0 (its multiplicity, the sign of y1 = 0), pole
        (ORIGINAL, 0, True, "improper", "raises", False),
        (ORIGINAL, 1, True, "excluded", "dropped", True),
        (ORIGINAL, INFINITY, None, None, "raises", None),
        (ORIGINAL, 3, False, None, 1, False),
        (PSI, 0, True, "improper", "raises", True),
        (PSI, 1, True, "improper", "raises", False),
        (PSI, INFINITY, None, None, "dropped", None),
        (PSI, 3, False, None, -1, False),
    ]

    @staticmethod
    def curve_through(model, value):
        """The graph curve (s, g) with g(0) = value: its first component meets
        the face 0 at s = 0, and every other point where a component meets a
        face has its remaining coordinate inside the cube."""
        s = RatFunc.param(F7)
        g = (1 + 2 * s) / s if value is INFINITY else RatFunc.const(F7, value) + 2 * s
        return ParamCurve(F7, model, [s, g], graph_over_base=True)

    @staticmethod
    def unchecked_curve(model, value):
        """A curve with the constant component ``value``, built without the
        constructor, which rejects a component on a face or the puncture."""
        curve = object.__new__(ParamCurve)
        curve.spec, curve.model, curve.base_t_coords = F7, model, ()
        curve.components, curve.graph_over_base = (RatFunc.const(F7, value),), True
        return curve

    @pytest.mark.parametrize("model, value, degenerate, kind, point, pole", TABLE)
    def test_where_a_value_lies(self, model, value, degenerate, kind, point, pole):
        if value is not INFINITY:
            constant = [RatFunc.const(F7, value)]
            assert error_of(ParamCurve, F7, model, constant) is \
                (DegenerateCurve if degenerate else None)

            pt = ClosedPoint(F7, [F7.one], [F7.element(value)])
            report = check_face_condition(ZeroCycle(F7, model, 1, 1, [(1, pt)]))
            assert [v.kind for v in report.violations] == ([kind] if kind else [])

            assert error_of(psi_convert, pt, model.other) is (UndefinedAtPole if pole else None)
            # off the pole, a constant component on a face or the puncture
            # converts to one there, which the curve constructor rejects
            curve = self.unchecked_curve(model, value)
            assert error_of(psi_convert, curve, model.other) is \
                (UndefinedAtPole if pole else DegenerateCurve if degenerate else None)

        curve = self.curve_through(model, value)
        if point == "raises":
            with pytest.raises(ImproperBoundary):
                curve_boundary(curve)
            return
        b = curve_boundary(curve)
        at_zero = [m for p, m in b.items() if not p.t_coords[0]]
        assert at_zero == ([] if point == "dropped" else [point])
        # a kept or dropped point stays so in the other model
        assert psi_convert(b, model.other) == curve_boundary(psi_convert(curve, model.other))


# sha256 of _curve_boundary_corpus(), computed before embedded boundaries were
# routed through the push-forward; the two paths must give the same records
CURVE_BOUNDARY_CORPUS_SHA256 = "5d397fd2de36dfb0da7d92b8748d775168af784d60add1b6a0524237ca965383"


def _corpus_scalar(rng, spec):
    if spec.is_extension:
        return spec.element([rng.randint(-2, 2) for _ in range(spec.degree)])
    if spec.char == 0:
        return spec.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return spec.element(rng.randrange(spec.char))


def _corpus_ratfunc(rng, spec):
    while True:
        num = UniPoly(spec, [_corpus_scalar(rng, spec) for _ in range(rng.randint(1, 4))])
        den = UniPoly(spec, [_corpus_scalar(rng, spec) for _ in range(rng.randint(1, 3))])
        if num and den:
            return RatFunc(num, den)


def _corpus_embedding(rng, spec):
    s = RatFunc.param(spec)
    c = spec.one + spec.one
    kind = rng.randrange(3)
    if kind == 0:  # the hyperbola of the 0-cycle witness
        return (s, RatFunc.const(spec, c) / s)
    if kind == 1:
        return (s, RatFunc.const(spec, c) / s, RatFunc.const(spec, _corpus_scalar(rng, spec)))
    return (s, _corpus_ratfunc(rng, spec))


def _outcome(fn):
    try:
        return fn()
    except (FieldError, CycleError, MilnorError, ValueError) as exc:
        return {"error": type(exc).__name__}


def _curve_boundary_corpus():
    """JSON lines for seeded curves over F5, F7, Q, F9 and Q(i): the boundary
    and its negative (the opposite sign convention), the same two pushed
    forward along an embedding of the parameter line, and the total residue
    of the curve's symbol."""
    rng = random.Random(2024)
    lines = []
    for spec in (F5, F7, Q, standard_extension(3, 2), make_field(0, [1, 0, 1])):
        ff = FunctionField(spec)
        for _ in range(40):
            model = rng.choice([CoordModel.ORIGINAL, CoordModel.PSI])
            comps = [_corpus_ratfunc(rng, spec) for _ in range(rng.randint(1, 3))]
            graph = rng.random() < 0.5
            base = [] if graph else [_corpus_scalar(rng, spec) for _ in range(rng.randint(0, 2))]
            emb = _corpus_embedding(rng, spec)
            curve = _outcome(lambda: ParamCurve(spec, model, comps, base, graph))
            if isinstance(curve, dict):
                lines.append(curve)
                continue
            record = {"curve": ser.curve_to_json(curve), "embedding": ser.embedding_to_json(emb)}
            for flip, sign in ((0, 1), (1, -1)):
                record[f"boundary{flip}"] = _outcome(
                    lambda: ser.zerocycle_to_json(curve_boundary(curve).scale(sign)))
                record[f"pushed{flip}"] = _outcome(
                    lambda: ser.zerocycle_to_json(
                        curve_boundary(curve, embedding=emb).scale(sign)))
            sym = MilnorElement(ff, [(1, MilnorSymbol(ff, curve.components))])
            record["delta"] = _outcome(lambda: [
                [ser.place_to_json(v), ser.milnor_element_to_json(e)]
                for v, e in total_delta(sym).items()
            ])
            lines.append(record)
    return "\n".join(json.dumps(line, sort_keys=True) for line in lines)


class TestCurveBoundaryCorpus:
    def test_matches_the_pinned_corpus(self):
        text = _curve_boundary_corpus()
        assert hashlib.sha256(text.encode()).hexdigest() == CURVE_BOUNDARY_CORPUS_SHA256
