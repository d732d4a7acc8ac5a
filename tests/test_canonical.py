"""Results built by the trusted constructors equal a validating rebuild.

Arithmetic in ``UniPoly`` and ``MultiPoly`` and the re-weighting operations
of the formal sums (``HypersurfaceCycle``, ``ZeroCycle``, ``MilnorElement``)
skip validation because their results are canonical by construction; these
tests rebuild each result through the public constructors and compare.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcycles.cycles import (
    ClosedPoint,
    CoordModel,
    CycleError,
    HypersurfaceCycle,
    ParamCurve,
    WrongModel,
    ZeroCycle,
    boundary,
    check_face_condition,
    curve_boundary,
    normalize_component,
    prune_degenerate,
    psi_convert,
)
from modcycles.fields import UniPoly, WrongField, make_field, poly_gcd
from modcycles.milnor import FunctionField, MilnorElement, MilnorSymbol, Valuation, tame_symbol
from modcycles.polyring import INFINITY, InexactDivision, MultiPoly, RatFunc, VarSet, parse_poly

F5 = make_field(5)
Q = make_field(0)
F9 = make_field(3, [1, 0, 1])
SPECS = (F5, Q, F9)
# UniPoly arithmetic over a prime field runs on int residues
UNI_SPECS = SPECS + (make_field(2), make_field(7), make_field(65521))


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
    # raw coefficients of the base field: reduced int residues in
    # characteristic p, over the denominator 1; in characteristic 0, int
    # numerators over a positive denominator prime to them all.  Over an
    # extension of degree d each exponent vector has one more slot, last,
    # the power of u, which is below d.
    ext = r.spec.is_extension
    assert all(len(e) == r.vars.count + ext for e in r.terms)
    if ext:
        assert all(0 <= e[-1] < r.spec.degree for e in r.terms)
    assert all(c for c in r.terms.values()), "zero coefficient stored"
    assert type(r.den) is int
    if r.spec.char:
        assert all(type(c) is int and 0 < c < r.spec.char for c in r.terms.values())
        assert r.den == 1
    else:
        assert all(type(c) is int for c in r.terms.values())
        assert r.den > 0 and math.gcd(r.den, *r.terms.values()) == 1
    assert MultiPoly(r.spec, r.vars, {e: r.coeff(e) for e in r.monomials()}) == r


def generic_product(a, b):
    """Term-by-term convolution of the field-element coefficients, merging
    equal exponents and dropping zeros."""
    out = {}
    for e1 in a.monomials():
        for e2 in b.monomials():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, a.spec.zero) + a.coeff(e1) * b.coeff(e2)
    return {e: c for e, c in out.items() if c}


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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_hash_ignores_term_order(self, seed):
        # the hash is of the term set, so equal polynomials built in another
        # order hash alike
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        vars = VarSet(1, 2)
        a = rand_poly(rng, spec, vars)
        items = [(e, a.coeff(e)) for e in a.monomials()]
        rng.shuffle(items)
        b = MultiPoly(spec, vars, dict(reversed(items)))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert hash(a) == hash(MultiPoly(spec, vars, dict(items)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_one_rational_polynomial_built_four_ways(self, seed):
        # over Q the raw form is numerators over one denominator: the
        # validating constructor, the parser, arithmetic whose denominators
        # cancel and a face restriction that clears a prime from the
        # denominator must all give it
        rng = random.Random(seed)
        vars, wider = VarSet(2, 1), VarSet(2, 2)
        a = rand_poly(rng, Q, vars)
        k = rng.choice((2, 3, 6, 7))
        shares_a_prime = MultiPoly(Q, wider, {(0, 0, 0, 1): Fraction(1, 7 * k)})
        ways = [
            a,
            parse_poly(a.to_text(), Q, vars),
            a * Fraction(1, k) * k,
            (a.lift(wider) + shares_a_prime).restrict_face("y2", 0),
        ]
        for w in ways:
            assert_canonical_poly(w)
            assert w == a and hash(w) == hash(a) and w.to_text() == a.to_text()
        # the exact-division shift and a coefficient extraction hand the
        # trusted constructor numerators that share a factor with their
        # denominator; their results are checked as built, in the wider
        # ring, since a further drop_var would reduce them again
        lifted = a.lift(wider)
        for w in ((lifted * shares_a_prime).exact_div(shares_a_prime),
                  (lifted + shares_a_prime).coefficient_of("y2", 0)):
            assert_canonical_poly(w)
            assert w == lifted and w.to_text() == lifted.to_text()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**30))
    def test_face_kernel_equals_the_reference_restriction(self, seed):
        # restrict_face is one pass; the reference substitutes and drops the
        # variable, or extracts the top coefficient and drops it
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        vars = VarSet(1, 3)
        name = f"y{rng.randrange(1, 4)}"
        a = rand_poly(rng, spec, vars)
        # a multiple of y - 1 vanishes at the face 1 only after cancellation
        y = MultiPoly.variable(spec, vars, name)
        for p in (a, a * (y - 1), a * (y - 1) + rand_poly(rng, spec, vars, max_terms=2)):
            for face in (0, 1, INFINITY):
                got = p.restrict_face(name, face)
                if face is INFINITY:
                    want = p.coefficient_of(name, p.degree_in(name) if p else 0).drop_var(name)
                else:
                    want = p.substitute({name: spec.element(face)}, drop=True)
                assert got == want
                assert got.vars == vars.drop(name)
                assert_canonical_poly(got)
        assert not (a * (y - 1)).restrict_face(name, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30))
    def test_monomial_product_equals_the_generic_product(self, seed):
        # a one-term factor on either side takes the shift-and-scale path
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        vars = VarSet(rng.randrange(3), rng.randrange(1, 3))
        exp = tuple(rng.randrange(3) for _ in range(vars.count))
        mono = MultiPoly(spec, vars, {exp: rand_elem(rng, spec) or spec.one})
        zero = MultiPoly.zero(spec, vars)
        for a in (rand_poly(rng, spec, vars), mono, zero):
            for x, y in ((mono, a), (a, mono), (zero, a), (a, zero)):
                r = x * y
                assert_canonical_poly(r)
                assert {e: r.coeff(e) for e in r.monomials()} == generic_product(x, y)


def rand_unipoly(rng, spec, max_deg=6):
    return UniPoly(spec, [rand_elem(rng, spec) for _ in range(rng.randrange(0, max_deg + 2))])


def assert_canonical_unipoly(r):
    assert not r.coeffs or r.coeffs[-1], "trailing zero stored"
    assert all(c.spec is r.spec for c in r.coeffs)
    # the coercing constructor passes elements through, so check values too
    assert all(r.spec.element(c.value).value == c.value for c in r.coeffs)
    assert UniPoly(r.spec, list(r.coeffs)) == r


class TestTrustedUnivariate:
    @settings(max_examples=160, deadline=None)
    @given(st.integers(0, 2**30))
    def test_arithmetic_results_are_canonical(self, seed):
        rng = random.Random(seed)
        spec = UNI_SPECS[seed % len(UNI_SPECS)]
        a, b = rand_unipoly(rng, spec), rand_unipoly(rng, spec)
        c = rand_elem(rng, spec)
        near = a + rand_unipoly(rng, spec, max_deg=1)  # shares a's top terms
        results = [a + b, a - b, a - a, near - a, a + (-a), -a, a * b, a * c, a * 0,
                   a + c, a - c, a.derivative(), poly_gcd(a, b),
                   UniPoly.const(spec, c), UniPoly.const(spec, 0), UniPoly.x(spec)]
        if a:
            results.append(a.monic())
        if b:
            q, r = divmod(a, b)
            results += [q, r, (a * b) // b]
            assert a == q * b + r and r.degree < b.degree
            assert (a * b) // b == a and not (a * b) % b
        if b.degree >= 1:
            results.append(a.powmod(rng.randrange(12), b))
            if a:
                k, g = (a * b * b).split_at(b)
                results.append(g)
                assert k >= 2 and g * b**k == a * b * b and g % b
        for r in results:
            assert_canonical_unipoly(r)
        assert near - a == near + (-a) and not (a - a)
        # the builders outside the kernel, over every field whatever the draw
        for other in UNI_SPECS:
            f = rand_unipoly(rng, other)
            for r in (-f, f.derivative(), UniPoly.const(other, rand_elem(rng, other)),
                      UniPoly.const(other, 0), UniPoly.x(other)):
                assert_canonical_unipoly(r)
            assert -f + f == UniPoly.zero(other)
            assert UniPoly.x(other).derivative() == UniPoly.const(other, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_rational_function_constants_are_canonical(self, seed):
        # const, param and from_poly skip the gcd of the validating constructor
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        one = UniPoly.const(spec, 1)
        p = rand_unipoly(rng, spec)
        c = rand_elem(rng, spec)
        for f, num in ((RatFunc.const(spec, c), UniPoly.const(spec, c)),
                       (RatFunc.const(spec, 0), UniPoly.zero(spec)),
                       (RatFunc.param(spec), UniPoly.x(spec)),
                       (RatFunc.from_poly(p), p)):
            assert f == RatFunc(num, one)
            assert f.den == one and f.num == num

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30))
    def test_rational_negation_and_inverse_are_canonical(self, seed):
        # both skip the gcd of the validating constructor
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        f = rand_ratfunc(rng, spec)
        if rng.random() < 0.5:
            f = f / rand_ratfunc(rng, spec)
        for g in (f, RatFunc.const(spec, 0)):
            neg = -g
            assert neg == RatFunc(-g.num, g.den)
            assert neg.num == -g.num and neg.den == g.den
        inv = f.inverse()
        assert inv == RatFunc(f.den, f.num)
        assert inv.den.leading == spec.one
        assert inv.inverse() == f and f * inv == RatFunc.const(spec, 1)
        with pytest.raises(ZeroDivisionError):
            RatFunc.const(spec, 0).inverse()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30))
    def test_rational_power_is_canonical(self, seed):
        # a power of a reduced fraction is reduced: __pow__ skips the gcd
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        f = rand_ratfunc(rng, spec)
        if rng.random() < 0.5:
            f = f / rand_ratfunc(rng, spec)
        for g in (f, RatFunc.const(spec, 0), RatFunc.param(spec) - 1):
            for k in range(4):
                got = g**k
                want = RatFunc(g.num**k, g.den**k)
                assert got == want
                assert got.num == want.num and got.den == want.den
                assert got.den.leading == spec.one
            if g:
                assert g**-2 == RatFunc(g.den**2, g.num**2)

    def test_mixed_fields_raise(self):
        # a trusted result never mixes coefficients of two fields
        for a, b in ((UniPoly.zero(F5), UniPoly.x(F9)), (UniPoly.x(Q), UniPoly.x(F5))):
            for op in (lambda: a + b, lambda: b - a, lambda: a * b, lambda: divmod(b, a + 1)):
                with pytest.raises(WrongField):
                    op()


class TestTrustedCycles:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_cycle_operations_are_canonical(self, seed):
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        n = 2 + seed % 2
        Z, W = rand_cycle(rng, spec, n), rand_cycle(rng, spec, n)
        results = [Z + W, Z - W, Z - Z, -Z, Z.scale(rng.randint(-3, 3)), Z.scale(0),
                   prune_degenerate(Z + W), boundary(Z),
                   boundary(boundary(Z, level0_flag=False), level0_flag=False)]
        Zo = psi_convert(Z, CoordModel.ORIGINAL)
        results.append(Zo)
        if check_face_condition(Zo).passed:
            results.append(boundary(Zo, level0_flag=False))
        for R in results:
            assert_canonical_cycle(R)
        assert not (Z - Z) and Z - W == Z + (-W)

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


def rand_unit(rng, spec):
    return rand_elem(rng, spec) or spec.one


def rand_ratfunc(rng, spec):
    """A unit times a few linear factors (t - a)^e with e in {-1, 1, 2}."""
    t = RatFunc.param(spec)
    f = RatFunc.const(spec, rand_unit(rng, spec))
    for _ in range(rng.randrange(3)):
        f = f * (t - RatFunc.const(spec, rand_elem(rng, spec))) ** rng.choice((-1, 1, 2))
    return f


def rand_zero_cycle(rng, spec, r, n):
    """Draws from three points, so repeated points merge and may cancel."""
    pool = [ClosedPoint(spec, [rand_elem(rng, spec) for _ in range(r)],
                        [rand_elem(rng, spec) for _ in range(n)]) for _ in range(3)]
    return ZeroCycle(spec, CoordModel.ORIGINAL, r, n,
                     [(rng.randint(-2, 2), rng.choice(pool)) for _ in range(rng.randrange(6))])


def rand_milnor(rng, field, entry):
    """Draws from three symbols of length 1 or 2 over ``field``."""
    pool = [MilnorSymbol(field, [entry() for _ in range(rng.randrange(1, 3))]) for _ in range(3)]
    return MilnorElement(field, [(rng.randint(-2, 2), rng.choice(pool))
                                 for _ in range(rng.randrange(6))])


def assert_canonical_zero_cycle(Z):
    assert all(Z.terms.values()), "zero multiplicity stored"
    assert ZeroCycle(Z.spec, Z.model, Z.r, Z.n, Z.terms) == Z


def assert_canonical_milnor(e):
    assert all(e.terms.values()), "zero multiplicity stored"
    assert not any(s.has_one_entry for s in e.terms), "vanishing symbol stored"
    assert MilnorElement(e.field, e.terms) == e


class TestTrustedFormalSums:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_zero_cycle_operations_are_canonical(self, seed):
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        r, n = rng.randrange(3), rng.randrange(3)
        Z, W = rand_zero_cycle(rng, spec, r, n), rand_zero_cycle(rng, spec, r, n)
        for R in (Z + W, Z - W, Z - Z, -Z, Z.scale(rng.randint(-3, 3)), Z.scale(0)):
            assert_canonical_zero_cycle(R)
        assert not (Z - Z) and not Z.scale(0)
        assert (Z + W) - W == Z and Z - W == Z + (-W)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_curve_boundary_is_canonical(self, seed):
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        comps = [rand_ratfunc(rng, spec) for _ in range(1 + seed % 2)]
        try:
            curve = ParamCurve(spec, CoordModel.ORIGINAL, comps, graph_over_base=True)
            b = curve_boundary(curve)
        except CycleError:
            return  # a constant face value or an improper boundary point
        assert_canonical_zero_cycle(b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_milnor_operations_are_canonical(self, seed):
        rng = random.Random(seed)
        spec = SPECS[seed % 3]
        ff = FunctionField(spec)
        for field, entry in ((spec, lambda: rand_unit(rng, spec)),
                             (ff, lambda: rand_ratfunc(rng, spec))):
            a, b = rand_milnor(rng, field, entry), rand_milnor(rng, field, entry)
            for R in (a + b, a - b, a - a, -a, a.scale(rng.randint(-3, 3)), a.scale(0)):
                assert_canonical_milnor(R)
            assert not (a - a) and (a + b) - b == a and a - b == a + (-b)
        s = rand_milnor(rng, ff, lambda: rand_ratfunc(rng, spec))
        pi = UniPoly(spec, [-rand_elem(rng, spec), spec.one])
        for v in (Valuation(ff, pi), Valuation(ff, None)):
            res = tame_symbol(v, s)
            assert_canonical_milnor(res)
            assert tame_symbol(v, s.scale(2) - s) == res

    def test_mismatched_ambients_raise(self):
        F7 = make_field(7)
        pt = ClosedPoint(F5, [F5.one], [F5.element(2)])
        Z = ZeroCycle(F5, CoordModel.ORIGINAL, 1, 1, [(1, pt)])
        for other in (ZeroCycle(F5, CoordModel.PSI, 1, 1, [(1, pt)]),
                      ZeroCycle.empty(F5, CoordModel.ORIGINAL, 1, 2),
                      ZeroCycle.empty(F7, CoordModel.ORIGINAL, 1, 1)):
            with pytest.raises(WrongModel):
                Z + other
            with pytest.raises(WrongModel):
                Z - other
        vars = VarSet(1, 1)
        V = HypersurfaceCycle.from_poly(parse_poly("1 + t1*y1", F5, vars), CoordModel.PSI)
        with pytest.raises(WrongModel):
            V + HypersurfaceCycle.empty(F5, vars, CoordModel.ORIGINAL)
        with pytest.raises(WrongModel):
            V + HypersurfaceCycle.empty(F5, VarSet(1, 2), CoordModel.PSI)
        e = MilnorElement.of(F5, F5.element(2))
        for other in (MilnorElement.of(F7, F7.element(2)), MilnorElement.zero(FunctionField(F5))):
            with pytest.raises(WrongField):
                e + other
            with pytest.raises(WrongField):
                e - other
