"""Milnor symbols, tame residues, the K_2 oracle, and the cycle-symbol bridge."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcycles.cli import main
from modcycles.fields import UniPoly, factor_univariate, make_field, norm_k1_finite
from modcycles.polyring import RatFunc
from modcycles.cycles import ClosedPoint, CoordModel, ParamCurve, ZeroCycle, curve_boundary
from modcycles.milnor import (
    FunctionField,
    IndistinctEntries,
    MilnorElement,
    MilnorSymbol,
    NotPrimePower,
    OracleTooLarge,
    SteinbergPrecondition,
    Valuation,
    _prime_power,
    k1_value,
    k2_presentation_oracle,
    k2_table,
    phi_map,
    psi_map,
    symbol_reduce,
    tame_symbol,
    theta_map,
    total_delta,
    totaro_mult_curve,
    totaro_steinberg_curve,
    verify_graph_square,
    verify_mult_curve,
    verify_steinberg_curve,
    verify_xi_curve,
    xi_curve,
)

F5 = make_field(5)
F7 = make_field(7)
Q = make_field(0)
FF5 = FunctionField(F5)
FF7 = FunctionField(F7)


def sym5(*entries):
    return MilnorElement(FF5, [(1, MilnorSymbol(FF5, list(entries)))])


class TestSymbolReduce:
    def test_entry_one_vanishes(self):
        e = MilnorElement(Q, [(1, MilnorSymbol(Q, [Q.element(5), Q.one]))])
        assert not e  # dropped at construction
        assert not symbol_reduce(e).result

    def test_finite_field_length_two_theorem_backed(self):
        e = MilnorElement(F7, [(1, MilnorSymbol(F7, [F7.element(2), F7.element(3)]))])
        red = symbol_reduce(e)
        assert not red.result
        assert red.theorem_backed

    def test_certificate_mode_runs_oracle(self):
        e = MilnorElement(F7, [(1, MilnorSymbol(F7, [F7.element(2), F7.element(3)]))])
        red = symbol_reduce(e, certificate_mode=True)
        assert not red.result
        assert red.oracle is not None and red.oracle.trivial

    def test_anticommutativity_cancels_over_q(self):
        a, b = Q.element(2), Q.element(3)
        e = MilnorElement(Q, [
            (1, MilnorSymbol(Q, [b, a])),
            (1, MilnorSymbol(Q, [a, b])),
        ])
        assert not symbol_reduce(e).result

    def test_k1_collapse(self):
        e = MilnorElement(Q, [(2, MilnorSymbol(Q, [Q.element(2)])),
                              (1, MilnorSymbol(Q, [Q.element(3)]))])
        red = symbol_reduce(e).result
        assert red == MilnorElement.of(Q, Q.element(12))


class TestTameSymbol:
    def test_uniformizer_last_rule(self):
        # d_{t}{f1, ..., fn, u t^r} = r {fbar} for units at t
        t = RatFunc.param(F5)
        v = Valuation(FF5, UniPoly(F5, [0, 1]))
        f1 = t - RatFunc.const(F5, 2)
        last = RatFunc.const(F5, 3) * t**2
        got = tame_symbol(v, sym5(f1, last))
        assert got == MilnorElement(F5, [(2, MilnorSymbol(F5, [F5.element(-2)]))])

    def test_uniformizer_first_picks_up_the_sign(self):
        t = RatFunc.param(F5)
        v = Valuation(FF5, UniPoly(F5, [0, 1]))
        got = tame_symbol(v, sym5(t, RatFunc.const(F5, 3)))
        assert got == MilnorElement(F5, [(-1, MilnorSymbol(F5, [F5.element(3)]))])

    def test_degenerate_residue_drops(self):
        t = RatFunc.param(F5)
        v = Valuation(FF5, UniPoly(F5, [4, 1]))  # t - 1; t has residue 1 there
        assert not tame_symbol(v, sym5(t, t))

    def test_double_uniformizer_gives_minus_one(self):
        t = RatFunc.param(F5)
        v = Valuation(FF5, UniPoly(F5, [0, 1]))
        got = tame_symbol(v, sym5(t, t))
        assert got == MilnorElement.of(F5, F5.element(-1))

    def test_unit_symbols_die(self):
        t = RatFunc.param(F5)
        v = Valuation(FF5, UniPoly(F5, [0, 1]))
        u1 = t - RatFunc.const(F5, 1)
        u2 = t - RatFunc.const(F5, 2)
        assert not tame_symbol(v, sym5(u1, u2))

    def test_z_linear(self):
        t = RatFunc.param(F5)
        v = Valuation(FF5, UniPoly(F5, [0, 1]))
        a = sym5(t, RatFunc.const(F5, 2))
        b = sym5(t, RatFunc.const(F5, 3))
        assert tame_symbol(v, a + b.scale(2)) == tame_symbol(v, a) + tame_symbol(v, b).scale(2)


def reference_order_and_residue(v, f):
    """ord_v(f) by repeated division, and the residue after dividing by
    pi^|ord| at once."""
    if v.pi is None:
        return f.den.degree - f.num.degree, f.num.leading / f.den.leading

    def mult(g):
        k = 0
        while not g % v.pi:
            g, k = g // v.pi, k + 1
        return k

    m = mult(f.num) - mult(f.den)
    num, den = f.num, f.den
    if m > 0:
        num = num // v.pi**m
    elif m < 0:
        den = den // v.pi ** (-m)
    x = v.parameter_class()
    return m, num.eval(x) / den.eval(x)


# places of degree 1 and 2 (t^2 - 2, t^2 + 1 irreducible) and infinity
SPLIT_PLACES = [
    (spec, pi)
    for spec, quadratic in ((F5, [-2, 0, 1]), (F7, [1, 0, 1]), (Q, [1, 0, 1]))
    for pi in ([-1, 1], [3, 1], quadratic, None)
]


class TestOrderAndResidue:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SPLIT_PLACES), st.integers(-3, 3), st.data())
    def test_matches_reference(self, place, m, data):
        spec, pi = place
        v = Valuation(FunctionField(spec), None if pi is None else UniPoly(spec, pi))
        unit = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any)
        g = UniPoly(spec, data.draw(unit))
        h = UniPoly(spec, data.draw(unit))
        if not g or not h:  # a nonzero integer list can vanish mod p
            return
        if pi is None:  # 1/t is the uniformizer at infinity
            t_pow = UniPoly.x(spec) ** abs(m)
            num, den = (g, h * t_pow) if m >= 0 else (g * t_pow, h)
        else:
            t_pow = v.pi ** abs(m)
            num, den = (g * t_pow, h) if m >= 0 else (g, h * t_pow)
        f = RatFunc(num, den)
        assert v.order_and_residue(f) == reference_order_and_residue(v, f)


def random_place(rng, spec, degree):
    """A monic irreducible polynomial of the given degree."""
    while True:
        pi = UniPoly(spec, [rng.randrange(spec.char) for _ in range(degree)] + [1])
        parts = factor_univariate(pi).parts
        if len(parts) == 1 and parts[0].multiplicity == 1 and parts[0].poly == pi:
            return pi


class TestResidueByRemainder:
    """The residue of a unit is its remainder mod pi, read in F[u]/(pi);
    the reference evaluates the cofactors at the parameter class."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_equals_evaluation_at_places_of_degree_1_to_5(self, p):
        rng = random.Random(p)
        spec = make_field(p)
        ff = FunctionField(spec)
        for degree in range(1, 6):
            for _ in range(3):
                v = Valuation(ff, random_place(rng, spec, degree))
                for _ in range(4):
                    g, h = (UniPoly(spec, [rng.randrange(p) for _ in range(rng.randrange(1, 9))])
                            for _ in range(2))
                    if not g or not h:
                        continue
                    m = rng.randrange(-2, 3)
                    t_pow = v.pi ** abs(m)
                    f = RatFunc(g * t_pow, h) if m >= 0 else RatFunc(g, h * t_pow)
                    got = v.order_and_residue(f)
                    assert got == reference_order_and_residue(v, f)
                    assert got[1].spec == v.residue_spec()

    def test_equals_evaluation_over_q(self):
        rng = random.Random(0)
        ff = FunctionField(Q)
        for _ in range(40):
            v = Valuation(ff, UniPoly(Q, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)), 1]))
            g, h = (UniPoly(Q, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(rng.randrange(1, 6))]) for _ in range(2))
            if not g or not h:
                continue
            f = RatFunc(g * v.pi, h)
            assert v.order_and_residue(f) == reference_order_and_residue(v, f)


class TestTotalDelta:
    def test_support_of_t_and_t_minus_1(self):
        # residues vanish at t - 1 (the other entry has residue 1 there):
        # the support is exactly {t, infinity} and the two values cancel
        t = RatFunc.param(F5)
        d = total_delta(sym5(t, t - RatFunc.const(F5, 1)))
        places = {repr(v) for v in d}
        assert places == {"Valuation(t)", "Valuation(infinity)"}
        vals = list(d.values())
        assert k1_value(vals[0]) * k1_value(vals[1]) == F5.one

    def test_constant_symbol_everywhere_zero(self):
        assert total_delta(sym5(RatFunc.const(F5, 3))) == {}

    def test_weil_reciprocity_100(self):
        rng = random.Random(99)
        for k in range(100):
            spec = F5 if k % 2 else F7
            ff = FunctionField(spec)
            p = spec.char
            f = UniPoly(spec, [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
                        + [rng.randrange(1, p)])
            g = UniPoly(spec, [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
                        + [rng.randrange(1, p)])
            e = MilnorElement(ff, [(1, MilnorSymbol(ff, [RatFunc.from_poly(f),
                                                         RatFunc.from_poly(g)]))])
            total = spec.one
            for v, val in total_delta(e).items():
                unit = k1_value(val)
                if unit.spec != spec:
                    unit = norm_k1_finite(unit)
                total = total * unit
            assert total == spec.one

    def test_unfactorable_over_q(self):
        from modcycles.cycles import UnfactorableEntry

        ffq = FunctionField(Q)
        t = RatFunc.param(Q)
        quartic = RatFunc.from_poly(UniPoly(Q, [1, 0, 0, 0, 1]))
        e = MilnorElement(ffq, [(1, MilnorSymbol(ffq, [t, quartic]))])
        with pytest.raises(UnfactorableEntry):
            total_delta(e)


class TestK2Oracle:
    def test_trivial_through_16(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            assert k2_presentation_oracle(q).trivial

    def test_q5_relations(self):
        # dlogs to generator 2: a=2 -> 1*2, a=3 -> 3*3, a=4 -> 2*1
        pres = k2_presentation_oracle(5)
        assert pres.relation_count == 3 and pres.trivial

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            k2_presentation_oracle(6)

    def test_too_large(self):
        with pytest.raises(OracleTooLarge):
            k2_presentation_oracle(81)

    def test_prime_power_by_square_root_trial_division(self):
        for q in range(200):
            want = [(p, d) for p in range(2, q + 1) for d in range(1, 8)
                    if p ** d == q and all(p % k for k in range(2, p))]
            if want:
                assert _prime_power(q) == want[0]
            else:
                with pytest.raises(NotPrimePower):
                    _prime_power(q)

    def test_table_through_64_is_pinned(self):
        # the relations are one integer column, so the only elementary
        # divisor is the gcd of q - 1 and the dlog products
        prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                        37, 41, 43, 47, 49, 53, 59, 61, 64]
        assert [pres.q for pres in k2_table(64)] == prime_powers
        for q in prime_powers:
            assert k2_presentation_oracle(q).to_json() == {
                "q": q, "relations": q - 2, "elementary_divisors": [1], "trivial": True}
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["ktheory", "k2-table", "--max-q", "64"]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16] == "97ae319f48786c1e"

    def test_table_cap(self):
        assert [pres.q for pres in k2_table(9)] == [2, 3, 4, 5, 7, 8, 9]
        with pytest.raises(OracleTooLarge):
            k2_table(65)


class TestPhiPsi:
    def test_phi_rational_point(self):
        z = ZeroCycle(F7, CoordModel.ORIGINAL, 1, 2,
                      [(1, ClosedPoint(F7, [F7.element(4)], [F7.element(2), F7.element(3)]))])
        out = phi_map(z)
        key = ClosedPoint(F7, [F7.element(4)], [])
        assert out[key] == MilnorElement.of(F7, F7.element(2), F7.element(3))

    def test_phi_kills_entry_one(self):
        z = ZeroCycle(F7, CoordModel.ORIGINAL, 1, 2,
                      [(1, ClosedPoint(F7, [F7.element(4)], [F7.one, F7.element(3)]))])
        assert phi_map(z) == {}

    def test_phi_norms_down_k1(self):
        F9 = make_field(3, [1, 0, 1])
        F3 = make_field(3)
        z = ZeroCycle(F9, CoordModel.ORIGINAL, 1, 1,
                      [(1, ClosedPoint(F9, [F9.element(2)], [F9.element([1, 1])]))])
        out = phi_map(z)
        key = ClosedPoint(F3, [F3.element(2)], [])
        assert out[key] == MilnorElement.of(F3, F3.element(2))

    def test_psi_graph_point(self):
        s = MilnorSymbol(F7, [F7.element(2), F7.element(3)])
        z = psi_map(s, [F7.element(4)])
        assert z.items()[0][0] == ClosedPoint(F7, [F7.element(4)], [F7.element(2), F7.element(3)])

    def test_psi_empty_on_entry_one(self):
        s = MilnorSymbol(F7, [F7.element(2), F7.one])
        assert not psi_map(s, [F7.element(4)])

    def test_phi_psi_roundtrip_100(self):
        rng = random.Random(21)
        for _ in range(100):
            entries = [F7.element(rng.randrange(2, 7)) for _ in range(2)]
            s = MilnorSymbol(F7, entries)
            z = psi_map(s, [F7.element(3)])
            out = phi_map(z)
            assert out == {ClosedPoint(F7, [F7.element(3)], []): MilnorElement(F7, [(1, s)])}


class TestTheta:
    def test_graph_symbol(self):
        t = RatFunc.param(F5)
        C = ParamCurve(F5, CoordModel.ORIGINAL, [t, RatFunc.const(F5, 1) - t],
                       graph_over_base=True)
        out = theta_map(C)
        assert out == MilnorElement(FF5, [(1, MilnorSymbol(FF5, [t, RatFunc.const(F5, 1) - t]))])

    def test_constant_base_gives_zero(self):
        C = totaro_mult_curve(F7.element(2), F7.element(3))
        assert not theta_map(C)

    def test_commuting_square_30(self):
        rng = random.Random(23)
        for k in range(30):
            spec = F5 if k % 2 else F7
            t = RatFunc.param(spec)
            n = rng.randrange(2, 4)
            used, comps = set(), []
            for _ in range(n):
                b = rng.randrange(spec.char)
                while b in used:
                    b = rng.randrange(spec.char)
                used.add(b)
                comps.append(t - RatFunc.const(spec, b))
            C = ParamCurve(spec, CoordModel.ORIGINAL, comps, graph_over_base=True)
            ok, sign = verify_graph_square(C)
            assert ok and sign == (-1) ** (n - 1)


class TestWitnessCurves:
    def test_steinberg_curve_spec_instance(self):
        f1 = F7.element(3)
        curve = totaro_steinberg_curve(f1)
        out = verify_steinberg_curve(curve, f1)
        assert out.ok
        pt = out.actual.items()[0][0]
        assert pt.y_coords == (F7.element(3), F7.element(5))

    def test_steinberg_precondition(self):
        with pytest.raises(SteinbergPrecondition):
            totaro_steinberg_curve(F7.one)

    def test_mult_curve_spec_instance(self):
        f, g = F7.element(2), F7.element(3)
        out = verify_mult_curve(totaro_mult_curve(f, g), f, g)
        assert out.ok and out.sign == -1
        mults = {p.y_coords[0].value: m for p, m in out.actual.items()}
        assert mults == {2: -1, 3: -1, 6: 1}

    def test_mult_curve_inverse_pair_over_q(self):
        f = Q.element(2)
        g = Q.element(Fraction(1, 2))
        out = verify_mult_curve(totaro_mult_curve(f, g), f, g)
        assert out.ok
        mults = {p.y_coords[0].value: m for p, m in out.actual.items()}
        assert mults == {Fraction(2): -1, Fraction(1, 2): -1}

    def test_xi_identity_50(self):
        rng = random.Random(31)
        count = 0
        while count < 50:
            spec = [F5, F7, Q][count % 3]
            t = RatFunc.param(spec)
            if spec.char:
                a = spec.element(rng.randrange(spec.char))
            else:
                a = spec.element(rng.randint(-4, 4))
            pi = UniPoly(spec, [(-a).value, 1])
            r = rng.choice([-2, -1, 1, 2])
            n = rng.randrange(1, 3)
            used, fs = {a.value}, []
            for _ in range(n):
                b = spec.element(rng.randrange(spec.char)) if spec.char else \
                    spec.element(rng.randint(-4, 4))
                while b.value in used:
                    b = spec.element(rng.randrange(spec.char)) if spec.char else \
                        spec.element(rng.randint(-4, 4))
                used.add(b.value)
                fs.append(t - RatFunc.const(spec, b))
            u = RatFunc.const(spec, spec.element(rng.randrange(1, 5)))
            curve = xi_curve(fs, u, pi, r)
            out = verify_xi_curve(curve)
            assert out.ok and out.sign == (-1) ** n
            count += 1

    def test_xi_factors_each_entry_once(self, monkeypatch):
        # curve_boundary and total_delta share one memo of places per call
        import modcycles.cycles as cycles

        factored = []
        real = cycles.factor_univariate
        monkeypatch.setattr(cycles, "factor_univariate",
                            lambda f: factored.append(f.monic()) or real(f))
        t = RatFunc.param(Q)
        fs = [t - RatFunc.const(Q, 2)]
        u, pi = RatFunc.const(Q, 3), UniPoly(Q, [Fraction(-1, 2), 1])
        curve = xi_curve(fs, u, pi, 4)
        assert verify_xi_curve(curve).ok
        assert verify_graph_square(curve)[0]
        assert factored and len(factored) == 2 * len(set(factored))

    def test_xi_distinctness(self):
        t = RatFunc.param(F5)
        pi = UniPoly(F5, [4, 1])
        f = t - RatFunc.const(F5, 2)
        with pytest.raises(IndistinctEntries):
            xi_curve([f, f], RatFunc.const(F5, 1), pi, 1)
