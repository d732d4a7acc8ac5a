"""Sparse multivariate polynomials: parsing, arithmetic, division, rational functions."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcycles.fields import make_field
from modcycles.polyring import (
    INFINITY,
    InexactDivision,
    MultiPoly,
    ParseError,
    RatFunc,
    UnknownVariable,
    VarSet,
    ZeroDivisor,
    parse_poly,
    parse_ratfunc,
    parse_unipoly,
)
from modcycles.fields import FieldElement, UniPoly, WrongField, ZeroPolynomial, poly_gcd

F2 = make_field(2)
F5 = make_field(5)
F7 = make_field(7)
Q = make_field(0)
F9 = make_field(3, [1, 0, 1])


def rand_poly(rng, spec, vars, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exp = tuple(rng.randrange(0, max_exp) for _ in range(vars.count))
        if spec.char:
            c = rng.randrange(spec.char)
        else:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        terms[exp] = spec.element(c)
    return MultiPoly(spec, vars, {e: c for e, c in terms.items() if c})


class TestParse:
    def test_expansion_example(self):
        vs = VarSet(2, 1)
        p = parse_poly("1 - t1*t2*(3*y1 + 2)", F7, vs)
        expected = MultiPoly(F7, vs, {
            (0, 0, 0): F7.one,
            (1, 1, 1): F7.element(-3),
            (1, 1, 0): F7.element(-2),
        })
        assert p == expected

    def test_fraction_literal(self):
        vs = VarSet(2, 0)
        p = parse_poly("t1^2*t2 - 1/2", Q, vs)
        assert p.constant_term == Q.element(Fraction(-1, 2))
        assert p.degree_in("t1") == 2

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_poly("1 - t1*t2*y3", F7, VarSet(2, 2))

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2t1", F7, VarSet(1, 0))

    def test_extension_generator(self):
        p = parse_poly("(u + 1)*t1 + 2", F9, VarSet(1, 0))
        assert p.coefficient_of("t1", 1).constant_term == F9.element([1, 1])
        with pytest.raises(UnknownVariable):
            parse_poly("u*t1", F7, VarSet(1, 0))

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_poly("1 + * 2", F7, VarSet(1, 0))
        assert err.value.position == 4


class TestVarSet:
    def test_every_name_maps_to_its_exponent_position(self):
        for r, n in ((0, 1), (2, 3), (3, 0), (12, 4)):
            vars = VarSet(r, n)
            assert [vars.index(name) for name in vars.names()] == list(range(r + n))
            if r:
                assert vars.index(f"t0{r}") == r - 1  # another spelling of t{r}

    def test_unknown_names_raise(self):
        for r, n in ((0, 1), (2, 3), (3, 0)):
            vars = VarSet(r, n)
            for name in ("t0", "y0", f"t{r+1}", f"y{n+1}", "u", "x1", "", "t", "y-1", "t1 "):
                with pytest.raises(UnknownVariable, match=f"^{re.escape(name)} is not a variable of "):
                    vars.index(name)
        with pytest.raises(UnknownVariable):
            VarSet(2, 1).drop("y2")

    def test_drop_and_equality_are_unchanged(self):
        assert VarSet(2, 3).drop("t1") == VarSet(1, 3)
        assert VarSet(2, 3).drop("y3") == VarSet(2, 2)
        assert VarSet(2, 3) == VarSet(2, 3) and hash(VarSet(2, 3)) == hash(VarSet(2, 3))
        assert not hasattr(VarSet(1, 1), "__dict__")


class TestRoundTrip:
    def test_deterministic_text(self):
        vs = VarSet(2, 1)
        p = parse_poly("1 - t1*t2*(3*y1 + 2)", F7, vs)
        assert p.to_text() == "4*t1*t2*y1 + 5*t1*t2 + 1"

    def test_roundtrip_500_random(self):
        rng = random.Random(777)
        for k in range(500):
            spec = [F7, Q, F9][k % 3]
            vars = VarSet(1 + k % 3, k % 2)
            p = rand_poly(rng, spec, vars)
            assert parse_poly(p.to_text(), spec, vars) == p


class TestRingLaws:
    @settings(max_examples=50)
    @given(st.integers(0, 2**30))
    def test_ring_axioms(self, seed):
        rng = random.Random(seed)
        spec = [F7, Q][seed % 2]
        vars = VarSet(2, 1)
        a, b, c = (rand_poly(rng, spec, vars) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=50)
    @given(st.integers(0, 2**30))
    def test_exact_div_inverts_mul(self, seed):
        rng = random.Random(seed)
        vars = VarSet(2, 1)
        f = rand_poly(rng, F7, vars)
        g = rand_poly(rng, F7, vars)
        if not g:
            g = MultiPoly.const(F7, vars, 3)
        assert (f * g).exact_div(g) == f


class TestOps:
    def test_substitute_face_values(self):
        vs = VarSet(2, 2)
        h = parse_poly("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", F7, vs)
        h0 = h.substitute({"y1": F7.zero}, drop=True)
        assert h0 == parse_poly("1 - t1*t2*(4*y1 + 5)", F7, VarSet(2, 1))
        h1 = h.substitute({"y1": F7.one}, drop=True)
        # coefficients add: (2+4) y + (3+5)
        assert h1 == parse_poly("1 - t1*t2*(6*y1 + 1)", F7, VarSet(2, 1))

    def test_substitute_empty_is_identity(self):
        vs = VarSet(1, 1)
        p = parse_poly("t1*y1 + 2", F7, vs)
        assert p.substitute({}) == p

    def test_substitute_commutes(self):
        rng = random.Random(5)
        vs = VarSet(1, 2)
        for _ in range(50):
            p = rand_poly(rng, F7, vs)
            a, b = F7.element(rng.randrange(7)), F7.element(rng.randrange(7))
            one_way = p.substitute({"y1": a}).substitute({"y2": b})
            other = p.substitute({"y2": b}).substitute({"y1": a})
            assert one_way == other

    def test_exact_div_examples(self):
        vs = VarSet(2, 1)
        f = parse_poly("1 - t1*t2*(3*y1+2)", F7, vs)
        one = MultiPoly.const(F7, vs, 1)
        q = (one - f).exact_div(parse_poly("t1*t2", F7, vs))
        assert q == parse_poly("3*y1 + 2", F7, vs)
        assert (one - f).exact_div(parse_poly("3*t1*t2", F7, vs)) == parse_poly("y1 + 3", F7, vs)
        assert f.exact_div(one) == f
        with pytest.raises(InexactDivision, match=r"^t1\*t2 does not divide t1\*y1$"):
            parse_poly("t1*y1", F7, vs).exact_div(parse_poly("t1*t2", F7, vs))
        for other in (parse_poly("t1*t2", F5, vs), parse_poly("t1*t2", F7, VarSet(2, 2))):
            with pytest.raises(WrongField, match="^polynomials live in different rings$"):
                f.exact_div(other)
        with pytest.raises(ZeroDivisor):
            f.exact_div(MultiPoly.zero(F7, vs))

    def test_negative_power_is_refused(self):
        p = parse_poly("t1 + y1", F7, VarSet(1, 1))
        assert p**0 == MultiPoly.const(F7, p.vars, 1) and p**1 == p
        with pytest.raises(ValueError, match="^negative exponent -1 for a polynomial$"):
            p**-1

    def test_degree_in(self):
        vs = VarSet(2, 2)
        p = parse_poly("1 - t1*t2*(2*y1*y2 + 5)", F7, vs)
        assert p.degree_in("y1") == 1
        assert parse_poly("1 - t1*t2*y1^2", F7, vs).degree_in("y1") == 2
        assert parse_poly("1 - t1*y1", F7, vs).degree_in("t2") == 0
        with pytest.raises(ZeroPolynomial):
            MultiPoly.zero(F7, vs).degree_in("y1")

    def test_coefficient_of(self):
        vs = VarSet(0, 1)
        p = parse_poly("3*y1 + 2", F7, vs)
        assert p.coefficient_of("y1", 1) == MultiPoly.const(F7, vs, 3)
        assert p.coefficient_of("y1", 2) == MultiPoly.zero(F7, vs)

    def test_coefficient_reconstruction(self):
        rng = random.Random(9)
        vs = VarSet(2, 2)
        for _ in range(100):
            p = rand_poly(rng, F7, vs)
            if not p:
                continue
            for var in ("t1", "y2"):
                y = MultiPoly.variable(F7, vs, var)
                total = MultiPoly.zero(F7, vs)
                for e in range(p.degree_in(var) + 1):
                    total = total + p.coefficient_of(var, e) * y**e
                assert total == p


def reference_exact_div(f, g):
    """The division loop on the lex-leading term, for any nonzero divisor,
    on field-element coefficients."""
    rem, out = {e: f.coeff(e) for e in f.monomials()}, {}
    eg, cg = g.leading_term()
    cg_inv = cg.inverse()
    while rem:
        ef = max(rem)
        eq = tuple(a - b for a, b in zip(ef, eg))
        if any(k < 0 for k in eq):
            raise InexactDivision(f"{g.to_text()} does not divide {f.to_text()}")
        cq = rem[ef] * cg_inv
        out[eq] = cq
        for e2 in g.monomials():
            e = tuple(a + b for a, b in zip(eq, e2))
            s = rem.get(e, f.spec.zero) - cq * g.coeff(e2)
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return MultiPoly(f.spec, f.vars, out)


def division_outcome(f, g, divide):
    try:
        q = divide(f, g)
    except InexactDivision as exc:
        return type(exc), str(exc)
    return {e: q.coeff(e) for e in q.monomials()}


def rand_coeff(rng, spec):
    if spec.is_extension:
        return spec.element([rng.randrange(spec.char) for _ in range(spec.degree)])
    if spec.char:
        return spec.element(rng.randrange(spec.char))
    return spec.element(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))


class TestMonomialExactDiv:
    @pytest.mark.parametrize("spec", [F5, F7, Q, F9], ids=lambda s: s.to_text())
    def test_monomial_divisors_match_the_division_loop(self, spec):
        rng = random.Random(spec.char + spec.degree)
        seen = {"exact": 0, "inexact": 0}
        for _ in range(150):
            vars = VarSet(rng.randrange(1, 4), rng.randrange(0, 3))
            exp = tuple(rng.randrange(3) for _ in range(vars.count))
            c = spec.one if rng.random() < 0.4 else rand_coeff(rng, spec) or spec.element(2)
            mono = MultiPoly(spec, vars, {exp: c})
            const = MultiPoly.const(spec, vars, c)
            f = MultiPoly(spec, vars, {
                tuple(rng.randrange(3) for _ in range(vars.count)): rand_coeff(rng, spec)
                for _ in range(rng.randrange(1, 6))})
            stray = MultiPoly(spec, vars, {(0,) * vars.count: spec.one})
            for dividend in (f, f * mono, f * mono + stray, MultiPoly.zero(spec, vars)):
                for divisor in (mono, const):
                    got = division_outcome(dividend, divisor, MultiPoly.exact_div)
                    want = division_outcome(dividend, divisor, reference_exact_div)
                    assert got == want, (dividend, divisor)
                    seen["exact" if isinstance(got, dict) else "inexact"] += 1
        assert seen["exact"] > 600 and seen["inexact"] > 100, seen

    def test_monic_monomial_division_multiplies_nothing(self, monkeypatch):
        Qi = make_field(0, [1, 0, 1])
        vs = VarSet(2, 2)
        cases = []
        for spec, text in ((F7, "2*y1*y2 + 3*y1 + 5*y2 + 6"),
                           (Qi, "(2*u + 1)*y1*y2 + (u - 3)*y1 + 5*y2 + 1/2*u")):
            d = parse_poly("t1*t2", spec, vs)
            g = parse_poly(text, spec, vs) * parse_poly("t1^2 + t2 + 1", spec, vs)
            cases.append((g * d, d, g))
        assert len(cases[1][0].monomials()) == 12

        def refuse(*args):
            raise AssertionError("FieldElement product in a monic monomial division")

        monkeypatch.setattr(FieldElement, "__mul__", refuse)
        monkeypatch.setattr(FieldElement, "__rmul__", refuse)
        for f, d, g in cases:
            assert f.exact_div(d) == g


class TestRatFunc:
    def test_reduction_and_monic_denominator(self):
        f = parse_ratfunc("(3 - t)/(1 - t)", F7)
        assert f.den.leading == F7.one
        assert f.eval(F7.element(3)) == F7.zero
        assert f.eval(F7.one) is INFINITY
        assert f.value_at_infinity() == F7.one

    def test_arithmetic_cancellation(self):
        t = RatFunc.param(Q)
        g = (t**2 - RatFunc.const(Q, 1)) / (t - RatFunc.const(Q, 1))
        assert g == t + RatFunc.const(Q, 1)

    def test_compose(self):
        t = RatFunc.param(Q)
        f = (t + RatFunc.const(Q, 1)) / t
        g = RatFunc.const(Q, 1) / (RatFunc.const(Q, 1) - t)
        h = f.compose(g)
        x = Q.element(Fraction(5, 3))
        assert h.eval(x) == f.eval(g.eval(x))

    def test_polynomial_eval_at_rational_functions(self, monkeypatch):
        # each term is built from the value side and the constant term comes
        # last, so no FieldElement operator is handed a RatFunc
        met = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            def spy(self, other, op=getattr(FieldElement, name)):
                out = op(self, other)
                met.append(out)
                return out
            monkeypatch.setattr(FieldElement, name, spy)
        t = RatFunc.param(F7)
        p = parse_poly("3 + t1^2*t2 + 2*t2", F7, VarSet(2, 0))
        got = p.eval([t, RatFunc.const(F7, 1) / t])
        assert not any(x is NotImplemented for x in met)
        monkeypatch.undo()
        assert got == RatFunc.const(F7, 3) + t + RatFunc.const(F7, 2) / t

    def test_orders(self):
        t = RatFunc.param(F7)
        pi = UniPoly(F7, [6, 1])  # t - 1
        f = (t - RatFunc.const(F7, 1)) ** 2 / t
        assert f.ord_at(pi) == 2
        assert f.ord_at(UniPoly(F7, [0, 1])) == -1
        assert f.ord_at_infinity() == -1

    def test_parse_unipoly_rejects_proper_fractions(self):
        with pytest.raises(ParseError):
            parse_unipoly("1/(1-t)", F7)


def rand_scalar(rng, spec):
    if spec.is_extension:
        return spec.element([rng.randrange(spec.char) for _ in range(2)])
    if spec.char:
        return spec.element(rng.randrange(spec.char))
    return spec.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_ratfunc(rng, spec, pool):
    """A reduced fraction whose numerator and denominator are products of
    factors drawn from a small shared pool, so that two of them often share
    factors in their denominators or across numerator and denominator."""
    num = UniPoly.const(spec, rand_scalar(rng, spec))
    den = UniPoly.const(spec, rand_scalar(rng, spec) or spec.one)
    for _ in range(rng.randrange(4)):
        num = num * rng.choice(pool)
    for _ in range(rng.randrange(4)):
        den = den * rng.choice(pool)
    return RatFunc(num, den)


def factor_pool(rng, spec):
    x = UniPoly.x(spec)
    pool = [x - rand_scalar(rng, spec) for _ in range(3)]
    return pool + [x * x + rand_scalar(rng, spec) * x + rand_scalar(rng, spec)]


class TestRatFuncArithmetic:
    """Sums and products cancel only what can cancel; each result must equal
    the validating reduction of the unreduced cross-products."""

    @staticmethod
    def assert_reduced(f):
        assert f.den.leading == f.spec.one
        if f.num:
            assert poly_gcd(f.num, f.den).degree == 0
        else:
            assert f.den == UniPoly.const(f.spec, 1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**30))
    def test_results_equal_the_reduced_cross_products(self, seed):
        rng = random.Random(seed)
        spec = [F2, F7, Q, F9][seed % 4]
        pool = factor_pool(rng, spec)
        f, g = rand_ratfunc(rng, spec, pool), rand_ratfunc(rng, spec, pool)
        a, b, c, d = f.num, f.den, g.num, g.den
        want = {
            "+": RatFunc(a * d + c * b, b * d),
            "-": RatFunc(a * d - c * b, b * d),
            "*": RatFunc(a * c, b * d),
        }
        got = {"+": f + g, "-": f - g, "*": f * g}
        if g:
            want["/"] = RatFunc(a * d, b * c)
            got["/"] = f / g
        for op, h in got.items():
            assert (h.num, h.den) == (want[op].num, want[op].den), op
            self.assert_reduced(h)

    def test_named_cancellations(self):
        t = RatFunc.param(Q)
        one = RatFunc.const(Q, 1)
        zero = one / (t - one) - one / (t - one)
        assert not zero and zero.den == UniPoly.const(Q, 1)
        # the denominators agree, and the sum t + 1 cancels against them
        h = t / (t**2 - one) + one / (t**2 - one)
        assert h == one / (t - one)
        self.assert_reduced(h)
        p = t**2 / (t + one) * ((t + one) ** 3 / t**3)
        assert p == (t + one) ** 2 / t
        assert p.num == UniPoly(Q, [1, 2, 1]) and p.den == UniPoly.x(Q)

    def test_mixed_fields_raise(self):
        f, g = RatFunc.param(F7), RatFunc.param(Q)
        for op in (lambda: f + g, lambda: f - g, lambda: f * g, lambda: f / g,
                   lambda: RatFunc.const(F7, 0) * g):
            with pytest.raises(WrongField):
                op()

    def test_arithmetic_never_uses_the_validating_constructor(self, monkeypatch):
        rng = random.Random(11)
        corpus = []
        for k in range(120):
            spec = [F2, F7, Q, F9][k % 4]
            pool = factor_pool(rng, spec)
            corpus.append((rand_ratfunc(rng, spec, pool), rand_ratfunc(rng, spec, pool)))

        def refuse(self, num, den):
            raise AssertionError("arithmetic went through RatFunc.__init__")

        monkeypatch.setattr(RatFunc, "__init__", refuse)
        for f, g in corpus:
            results = [f + g, f - g, f * g, 3 * f, f + 1]
            if g:
                results += [f / g, f.compose(g)]



def reference_compose(f, inner):
    """The earlier Horner loops of ``RatFunc.compose``, kept as the reference."""
    acc_n = RatFunc.const(f.spec, 0)
    for c in reversed(f.num.coeffs):
        acc_n = acc_n * inner + RatFunc.const(f.spec, c)
    acc_d = RatFunc.const(f.spec, 0)
    for c in reversed(f.den.coeffs):
        acc_d = acc_d * inner + RatFunc.const(f.spec, c)
    return acc_n / acc_d


class TestCompose:
    @pytest.mark.parametrize("spec", (Q, F7, F9), ids=lambda s: s.to_text())
    def test_equals_the_horner_reference(self, spec):
        # outer functions cycle through zero, a nonzero constant and a
        # fraction of pool factors; a constant inner can hit a pole
        rng = random.Random(f"compose:{spec.to_text()}")
        pool = factor_pool(rng, spec)
        poles = 0
        for k in range(60):
            inner = rand_ratfunc(rng, spec, pool)
            outer = (RatFunc.const(spec, 0), RatFunc.const(spec, rand_scalar(rng, spec) or spec.one),
                     rand_ratfunc(rng, spec, pool))[k % 3]
            try:
                want = reference_compose(outer, inner)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    outer.compose(inner)
                poles += 1
                continue
            got = outer.compose(inner)
            assert isinstance(got, RatFunc) and got == want, (outer, inner)
            TestRatFuncArithmetic.assert_reduced(got)
        assert poles < 20

    @pytest.mark.parametrize("spec", (Q, F7, F9), ids=lambda s: s.to_text())
    def test_zero_and_constant_numerators(self, spec):
        s = RatFunc.param(spec)
        inner = (s + 1) / (s * s + 2)
        c = spec.element(3) if spec.char != 3 else spec.gen_u
        zero = RatFunc.const(spec, 0).compose(inner)
        assert isinstance(zero, RatFunc) and not zero and zero.den == UniPoly.const(spec, 1)
        assert RatFunc.const(spec, c).compose(inner) == RatFunc.const(spec, c)
        # a constant numerator over a denominator that inner moves
        f = RatFunc.const(spec, c) / (s - 1)
        assert f.compose(inner) == RatFunc.const(spec, c) * (s * s + 2) / (s + 1 - (s * s + 2))
