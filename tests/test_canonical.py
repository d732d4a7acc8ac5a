"""Results built by the trusted constructors equal a validating rebuild.

Arithmetic in ``MultiPoly`` and the re-weighting operations of
``HypersurfaceCycle`` skip validation because their results are canonical by
construction; these tests rebuild each result through the public
constructors and compare.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from modcycles.cycles import (
    CoordModel,
    HypersurfaceCycle,
    boundary,
    check_face_condition,
    normalize_component,
    prune_degenerate,
    psi_convert,
)
from modcycles.fields import make_field
from modcycles.polyring import InexactDivision, MultiPoly, VarSet, parse_poly

F5 = make_field(5)
Q = make_field(0)
F9 = make_field(3, [1, 0, 1])
SPECS = (F5, Q, F9)


def rand_elem(rng, spec):
    if spec.is_extension:
        return spec.element([rng.randrange(spec.char) for _ in range(spec.degree)])
    if spec.char:
        return spec.element(rng.randrange(spec.char))
    return spec.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_poly(rng, spec, vars, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exp = tuple(rng.randrange(0, max_exp) for _ in range(vars.count))
        terms[exp] = rand_elem(rng, spec)
    return MultiPoly(spec, vars, terms)


def rand_cycle(rng, spec, n):
    """Sum of components 1 - t1*t2*g with g multilinear in y (PSI model)."""
    vars = VarSet(2, n)
    one = MultiPoly.const(spec, vars, 1)
    tprod = MultiPoly(spec, vars, {(1, 1) + (0,) * n: spec.one})
    Z = HypersurfaceCycle.empty(spec, vars, CoordModel.PSI)
    for _ in range(rng.randrange(1, 4)):
        g = MultiPoly(spec, vars, {
            (0, 0) + tuple(rng.randrange(2) for _ in range(n)): rand_elem(rng, spec)
            for _ in range(3)
        })
        if not g:
            g = one
        Z = Z + HypersurfaceCycle.from_poly(one - tprod * g, CoordModel.PSI, rng.randint(-2, 2))
    return Z


def assert_canonical_poly(r):
    assert all(len(e) == r.vars.count for e in r.terms)
    assert all(c for c in r.terms.values()), "zero coefficient stored"
    assert all(c.spec == r.spec for c in r.terms.values())
    assert MultiPoly(r.spec, r.vars, r.terms) == r


def assert_canonical_cycle(Z):
    assert all(Z.terms.values()), "zero multiplicity stored"
    for p in Z.terms:
        assert_canonical_poly(p)
    assert HypersurfaceCycle(Z.spec, Z.vars, Z.model, Z.terms) == Z


class TestTrustedPolynomials:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30))
    def test_arithmetic_results_are_canonical(self, seed):
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        vars = VarSet(1, 2)
        a, b = rand_poly(rng, spec, vars), rand_poly(rng, spec, vars)
        c = rand_elem(rng, spec)
        results = [a + b, a - b, a - a, -a, a * b, a * c, a * 0, b.scale(c), a ** 2,
                   a.coefficient_of("y1", rng.randrange(3)),
                   a.substitute({"y1": c}),
                   a.substitute({"y2": spec.one, "t1": c}),
                   a.substitute({"y2": spec.zero}, drop=True),
                   MultiPoly.const(spec, vars, c),
                   MultiPoly.variable(spec, vars, "y2")]
        if b:
            results.append((a * b).exact_div(b))
            try:
                results.append(a.exact_div(b))
            except InexactDivision:
                pass
        for r in results:
            assert_canonical_poly(r)
        if b:
            assert (a * b).exact_div(b) == a


class TestTrustedCycles:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_cycle_operations_are_canonical(self, seed):
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        n = 2 + seed % 2
        Z, W = rand_cycle(rng, spec, n), rand_cycle(rng, spec, n)
        results = [Z + W, Z - W, Z - Z, -Z, Z.scale(rng.randint(-3, 3)), Z.scale(0),
                   prune_degenerate(Z + W), boundary(Z), boundary(Z, flip_inner=True),
                   boundary(boundary(Z, level0_flag=False), level0_flag=False)]
        Zo = psi_convert(Z, CoordModel.ORIGINAL)
        results.append(Zo)
        if check_face_condition(Zo).passed:
            results.append(boundary(Zo, level0_flag=False))
        for R in results:
            assert_canonical_cycle(R)
        assert not (Z - Z)

    def test_original_model_strips_factors_on_the_puncture(self):
        for spec in SPECS:
            vars = VarSet(1, 2)
            base = parse_poly("1 + t1*y1 + y2", spec, vars)
            junk = parse_poly("(1 - y1)^2*(1 + y2)", spec, vars)
            Z = HypersurfaceCycle(spec, vars, CoordModel.ORIGINAL, [(3, junk * base)])
            kept = normalize_component(parse_poly("(1 + y2)*(1 + t1*y1 + y2)", spec, vars))
            assert Z.terms == {kept: 3}
            assert_canonical_cycle(Z)
            # the re-weighting operations keep the stripped key
            assert (Z + Z).terms == {kept: 6}
            assert (-Z).terms == {kept: -3}
            # a component supported on the puncture cuts out nothing
            on_puncture = parse_poly("(1 - y1)^2", spec, vars)
            assert not HypersurfaceCycle(spec, vars, CoordModel.ORIGINAL, [(1, on_puncture)])
            alone = HypersurfaceCycle(spec, vars, CoordModel.ORIGINAL, [(1, junk)])
            assert alone.terms == {normalize_component(parse_poly("1 + y2", spec, vars)): 1}
            # PSI components keep the factor
            P = HypersurfaceCycle(spec, vars, CoordModel.PSI, [(1, junk * base)])
            assert list(P.terms) == [normalize_component(junk * base)]
