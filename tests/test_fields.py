"""Exact field arithmetic, factorization, and the finite K_1 norm."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcycles import fields
from modcycles.fields import (
    EXTENSION_MODULI,
    FINITE_FIELD_MAX_ORDER,
    ExtensionNotSupported,
    FactorPart,
    Factorization,
    FieldElement,
    FieldTooLarge,
    NonPrimeCharacteristic,
    NotAPlace,
    NotFiniteExtension,
    ReducibleExtensionPolynomial,
    UniPoly,
    WrongField,
    ZeroElement,
    ZeroPolynomial,
    factor_univariate,
    is_irreducible,
    is_prime,
    make_field,
    norm_k1_finite,
    poly_gcd,
    standard_extension,
)

F2 = make_field(2)
F5 = make_field(5)
F7 = make_field(7)
F65521 = make_field(65521)
F9 = make_field(3, [1, 0, 1])
Q = make_field(0)


def elements_of(spec):
    if spec.char:
        return st.sampled_from(list(spec.elements()))
    return st.fractions(min_value=-50, max_value=50, max_denominator=12).map(spec.element)


class TestConstruction:
    def test_f5_generator(self):
        # exhaustive order check: 2 is the first element of full order
        spec = make_field(5)
        assert spec.generator == spec.element(2)
        powers = {(spec.generator ** k).value for k in range(4)}
        assert powers == {1, 2, 3, 4}

    def test_f9_modulus_has_no_roots(self):
        for a in range(3):
            assert (a * a + 1) % 3 != 0
        spec = make_field(3, [1, 0, 1])
        assert spec.order == 9

    def test_rationals(self):
        q = make_field(0)
        assert q.element(Fraction(2, 4)).value == Fraction(1, 2)

    def test_nonprime_rejected(self):
        with pytest.raises(NonPrimeCharacteristic):
            make_field(6)

    def test_reducible_rejected(self):
        # u^2 - 1 = (u-1)(u+1) over F5
        with pytest.raises(ReducibleExtensionPolynomial):
            make_field(5, [-1, 0, 1])
        with pytest.raises(ReducibleExtensionPolynomial):
            make_field(0, [Fraction(-1), 0, 1])

    def test_high_degree_over_q_not_certified(self):
        with pytest.raises(ExtensionNotSupported):
            make_field(0, [1, 0, 0, 0, 1])

    def test_extension_table_all_validate(self):
        for (p, d), _ in EXTENSION_MODULI.items():
            spec = standard_extension(p, d)
            assert spec.order == p**d
            # generator really generates
            g = spec.generator
            seen = set()
            acc = spec.one
            for _ in range(spec.order - 1):
                seen.add(acc.value)
                acc = acc * g
            assert len(seen) == spec.order - 1


class TestFieldAxioms:
    @settings(max_examples=60)
    @given(st.data())
    def test_axioms_f5(self, data):
        self._axioms(data, F5)

    @settings(max_examples=60)
    @given(st.data())
    def test_axioms_f9(self, data):
        self._axioms(data, F9)

    @settings(max_examples=60)
    @given(st.data())
    def test_axioms_q(self, data):
        self._axioms(data, Q)

    @staticmethod
    def _axioms(data, spec):
        a = data.draw(elements_of(spec))
        b = data.draw(elements_of(spec))
        c = data.draw(elements_of(spec))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == spec.zero
        if a:
            assert a * a.inverse() == spec.one


def reference_frobenius_kernel(f):
    """Berlekamp's subalgebra: the null space of Q - I, Q the matrix of h -> h^q mod f."""
    spec, n = f.spec, f.degree
    xq = UniPoly.x(spec).powmod(spec.order, f)
    rows = [UniPoly.const(spec, 1)]
    for _ in range(1, n):
        rows.append((rows[-1] * xq) % f)
    m = [[rows[i].coeff(j) - (spec.one if i == j else spec.zero) for i in range(n)]
         for j in range(n)]
    pivots, row = [], 0
    for col in range(n):
        sel = next((r for r in range(row, n) if m[r][col]), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = m[row][col].inverse()
        m[row] = [x * inv for x in m[row]]
        for r in range(n):
            if r != row and m[r][col]:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [spec.zero] * n
        vec[fc] = spec.one
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(UniPoly(spec, vec))
    return basis


def reference_berlekamp_factor(f):
    """Berlekamp: split a monic squarefree f by gcd(g, h - c) for each kernel
    element h and every field element c."""
    if f.degree <= 1:
        return [f]
    kernel = reference_frobenius_kernel(f)
    factors, elems = [f], list(f.spec.elements())
    for h in kernel:
        if len(factors) == len(kernel):
            break
        if h.degree < 1:
            continue
        split = []
        for g in factors:
            pieces = [d for d in (poly_gcd(g, h - UniPoly.const(f.spec, c)) for c in elems)
                      if d.degree > 0] if g.degree > 1 else [g]
            split.extend(pieces if len(pieces) > 1 else [g])
        factors = split
    return factors


def reference_is_irreducible(f):
    """Over a finite field: squarefree with a one-dimensional Berlekamp subalgebra."""
    if f.degree <= 1:
        return f.degree == 1
    sq = fields._squarefree_parts(f.monic())
    return sq == [(f.monic(), 1)] and len(reference_frobenius_kernel(f.monic())) == 1


def general_factorization(f):
    """The factorization path a polynomial of degree >= 2 takes over a base
    field, with Berlekamp splitting over finite fields."""
    if f.spec.char == 0:
        return fields._rational_factor(f)
    return Factorization(f.leading, [
        FactorPart(irr.monic(), m, True)
        for g, m in fields._squarefree_parts(f.monic()) for irr in reference_berlekamp_factor(g)
    ])


def seeded_irreducibles(spec, rng, degree, count):
    """Up to count distinct random monic irreducibles of degree 1, 2 or 3,
    certified by the Berlekamp subalgebra."""
    q = spec.order
    count = min(count, {1: q, 2: (q * q - q) // 2, 3: (q**3 - q) // 3}[degree])
    out = []
    while len(out) < count:
        low = [[rng.randrange(spec.char) for _ in range(spec.degree)] if spec.ext
               else rng.randrange(spec.char) for _ in range(degree)]
        g = UniPoly(spec, low + [1])
        if g not in out and reference_is_irreducible(g):
            out.append(g)
    return out


def seeded_product(spec, rng):
    """(f, its factorization): distinct irreducibles, several of each degree,
    some of them repeated."""
    parts = []
    for degree, count in ((1, rng.randrange(1, 5)), (2, rng.randrange(0, 4)),
                          (3, rng.randrange(0, 3))):
        for g in seeded_irreducibles(spec, rng, degree, count):
            parts.append(FactorPart(g, rng.choice((1, 1, 2, 3)), True))
    fac = Factorization(spec.element(rng.randrange(1, spec.char)), parts)
    return fac.expand(), fac


class TestFactorization:
    def test_spec_example_f5(self):
        f = UniPoly(F5, [1, 0, 1])
        fac = factor_univariate(f)
        texts = sorted(p.poly.to_text("u") for p in fac.parts)
        assert texts == ["u + 2", "u + 3"]
        assert fac.expand() == f

    def test_linear_over_q(self):
        f = UniPoly(Q, [-7, 1])
        fac = factor_univariate(f)
        assert len(fac.parts) == 1 and fac.parts[0].irreducible

    def test_rootless_quadratic_over_q(self):
        f = UniPoly(Q, [-2, 0, 1])
        fac = factor_univariate(f)
        assert len(fac.parts) == 1
        assert fac.parts[0].poly == f
        # degree <= 3 rootless cofactors are certified irreducible
        assert fac.parts[0].irreducible

    def test_quartic_cofactor_marked_unfactored(self):
        # x^4 + 1 has no rational roots and exceeds the certification bound
        f = UniPoly(Q, [1, 0, 0, 0, 1])
        fac = factor_univariate(f)
        assert len(fac.parts) == 1 and not fac.parts[0].irreducible

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_univariate(UniPoly.zero(F5))

    def test_roundtrip_500_random(self):
        rng = random.Random(12345)
        primes = [2, 3, 5, 7, 13]
        for k in range(500):
            p = primes[k % 5]
            spec = make_field(p)
            deg = rng.randrange(1, 9)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = UniPoly(spec, coeffs)
            fac = factor_univariate(f)
            assert fac.expand() == f
            assert fac.fully_factored
            for part in fac.parts:
                assert is_irreducible(part.poly)

    def test_rational_roots_with_multiplicity(self):
        # (x - 1/2)^2 (x + 3) over Q
        half = UniPoly(Q, [Fraction(-1, 2), 1])
        f = half * half * UniPoly(Q, [3, 1]) * UniPoly.const(Q, 4)
        fac = factor_univariate(f)
        assert fac.expand() == f
        mults = {p.poly.to_text(): p.multiplicity for p in fac.parts}
        assert mults == {"t - 1/2": 2, "t + 3": 1}

    def test_linear_is_its_own_factorization_over_every_field(self):
        # runs before the refusal of extensions of Q; over a base field the
        # result equals the general path's
        rng = random.Random(8)
        for spec in [F5, make_field(7), Q] + [EXTENSIONS[k] for k in sorted(EXTENSIONS)]:
            for _ in range(12):
                a = spec.element([rng.randrange(-5, 6) for _ in range(spec.degree)]
                                 if spec.is_extension else rng.randrange(-5, 6))
                lead = spec.element(rng.choice([1, 2, 3, -1, 4])) or spec.one
                f = UniPoly(spec, [a * lead, lead])
                fac = factor_univariate(f)
                assert fac.unit == lead and fac.expand() == f
                assert fac.parts == (FactorPart(f.monic(), 1, True),)
                if not spec.is_extension:
                    assert fac.parts == general_factorization(f).parts
        with pytest.raises(ExtensionNotSupported):
            factor_univariate(UniPoly(EXTENSIONS["Q(i)"], [1, 0, 1]))

    def test_repeated_irreducible_factor_over_q(self):
        # each squarefree part is factored on its own, so (t^2 + 2)^2 is
        # certified although t^4 + 4t^2 + 4 is past the degree-3 bound
        quad = UniPoly(Q, [2, 0, 1])
        half = UniPoly(Q, [Fraction(-1, 2), 1])
        f = quad * quad * half**60
        fac = factor_univariate(f)
        assert fac.expand() == f
        assert fac.parts == (FactorPart(half, 60, True), FactorPart(quad, 2, True))

    def test_berlekamp_degree_bound(self):
        # the bound on the degree of a squarefree part that gets split
        F7 = make_field(7)
        cap = fields.SQUAREFREE_SPLIT_MAX_DEGREE
        at_cap = UniPoly(F7, [3, 1] + [0] * (cap - 2) + [1])
        assert factor_univariate(at_cap).fully_factored
        past = UniPoly(F7, [3, 1] + [0] * (cap - 1) + [1])
        assert factor_univariate(past).parts == (FactorPart(past, 1, False),)

    def test_is_irreducible_refuses_an_extension_of_q(self):
        qi = EXTENSIONS["Q(i)"]
        assert is_irreducible(UniPoly(qi, [qi.gen_u, 1]))
        with pytest.raises(ExtensionNotSupported):
            is_irreducible(UniPoly(qi, [1, 0, 1]))

    def test_rational_root_integer_bound(self):
        cap = fields.RATIONAL_ROOT_MAX_INT
        at_cap = UniPoly(Q, [cap, 0, 1])
        assert factor_univariate(at_cap).parts == (FactorPart(at_cap, 1, True),)
        past = UniPoly(Q, [cap + 1, 0, 1])
        assert factor_univariate(past).parts == (FactorPart(past, 1, False),)

    def test_rational_root_tries_bound(self):
        # a rootless quadratic tries 2 * d(a0) * d(lead) candidate roots
        assert fields.RATIONAL_ROOT_MAX_TRIES == 2 * 32 * 16 == 1024
        at_cap = UniPoly(Q, [2**31, 0, 3**15])  # 2 * 32 * 16 candidates
        assert factor_univariate(at_cap).fully_factored
        past = UniPoly(Q, [2**26, 0, 3**18])  # 2 * 27 * 19 = 1026 candidates
        assert not factor_univariate(past).fully_factored
        with pytest.raises(ExtensionNotSupported):
            make_field(0, [Fraction(2**26, 3**18), 0, 1])

    def test_gcd(self):
        f = UniPoly(F5, [1, 1]) * UniPoly(F5, [2, 1])
        g = UniPoly(F5, [1, 1]) * UniPoly(F5, [3, 1])
        assert poly_gcd(f, g) == UniPoly(F5, [1, 1])

    def test_ord_at_rejects_a_unit(self):
        # a unit divides everything, so the multiplicity would never end
        f = UniPoly(F5, [1, 1]) ** 2
        assert f.ord_at(UniPoly(F5, [1, 1])) == 2
        for pi in (UniPoly.const(F5, 1), UniPoly.const(F5, 3)):
            with pytest.raises(NotAPlace):
                f.ord_at(pi)


class TestGcdSplitting:
    """Distinct-degree and equal-degree splitting against Berlekamp."""

    @pytest.mark.parametrize("spec, degrees", [
        (F2, (2, 3, 4)), (make_field(3), (2, 3, 4)), (standard_extension(2, 2), (2, 3, 4)),
        (standard_extension(2, 3), (2, 3)), (F5, (2, 3)), (F7, (2, 3)), (F9, (2, 3)),
    ], ids=["F2", "F3", "F4", "F8", "F5", "F7", "F9"])
    def test_every_small_monic_polynomial(self, spec, degrees):
        elems = list(spec.elements())
        for degree in degrees:
            for low in itertools.product(elems, repeat=degree):
                f = UniPoly(spec, list(low) + [1])
                assert factor_univariate(f).parts == general_factorization(f).parts, f
                assert is_irreducible(f) == reference_is_irreducible(f), f

    @pytest.mark.parametrize("spec", [standard_extension(2, 4), standard_extension(5, 2),
                                      standard_extension(7, 2), F65521],
                             ids=["F16", "F25", "F49", "F65521"])
    def test_seeded_products_with_repeated_and_equal_degree_factors(self, spec):
        rng = random.Random(spec.order)
        for _ in range(6):
            f, expected = seeded_product(spec, rng)
            fac = factor_univariate(f)
            assert fac.unit == expected.unit and fac.parts == expected.parts
            if spec.order < 100:  # Berlekamp scans every element
                assert fac.parts == general_factorization(f).parts
            for part in fac.parts:
                assert is_irreducible(part.poly)
                assert not is_irreducible(part.poly * part.poly)


class TestNorm:
    def test_spec_example(self):
        # independent oracle: alpha * Frobenius(alpha), Frobenius by cubing
        alpha = F9.element([1, 1])
        conj = alpha * alpha * alpha
        assert (alpha * conj).to_base() == make_field(3).element(2)
        assert norm_k1_finite(alpha) == make_field(3).element(2)

    def test_norm_of_one(self):
        assert norm_k1_finite(F9.one) == make_field(3).one

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            norm_k1_finite(F9.zero)

    def test_not_extension_rejected(self):
        with pytest.raises(NotFiniteExtension):
            norm_k1_finite(F5.one)
        with pytest.raises(NotFiniteExtension):
            norm_k1_finite(Q.one)

    def test_surjective_homomorphism_exhaustive(self):
        # every stored extension with at most 81 elements
        for (p, d), _ in EXTENSION_MODULI.items():
            if p**d > 81:
                continue
            spec = standard_extension(p, d)
            base = make_field(p)
            values = set()
            units = [e for e in spec.elements() if e]
            for a in units:
                na = norm_k1_finite(a)
                values.add(na.value)
                for b in units[:7]:
                    assert norm_k1_finite(a * b) == na * norm_k1_finite(b)
            assert values == {e.value for e in base.elements() if e}


class TestElementText:
    def test_canonical_forms(self):
        assert Q.element(Fraction(-3, 6)).to_text() == "-1/2"
        assert F5.element(9).to_text() == "4"
        assert F9.element([1, 2]).to_text() == "2*u + 1"
        assert F9.element([0, 1]).to_text() == "u"

    def test_extension_text_over_q(self):
        cbrt2, i = make_field(0, [-2, 0, 0, 1]), make_field(0, [1, 0, 1])
        assert cbrt2.element([Fraction(-1, 2), 0, -1]).to_text() == "-u^2 - 1/2"
        assert cbrt2.element([0, Fraction(3, 4), 1]).to_text() == "u^2 + 3/4*u"
        assert i.element([0, Fraction(-5, 3)]).to_text() == "-5/3*u"


class TestMixedOperands:
    """A field element hands operands it does not know to their reflected
    methods, so scalars combine with polynomials from either side."""

    def test_scalar_with_polynomials(self):
        from modcycles.polyring import MultiPoly, RatFunc, VarSet, parse_poly

        for spec in (F5, Q, F9):
            c = spec.element(3)
            others = [
                parse_poly("1 + 2*t1*y1 + y1^2", spec, VarSet(1, 1)),
                RatFunc.param(spec) / (RatFunc.param(spec) - RatFunc.const(spec, 1)),
                UniPoly.x(spec),
            ]
            for p in others:
                assert c * p == p * c
                assert c + p == p + c
            assert isinstance(c * others[0], MultiPoly)

    def test_rational_outside_the_field_is_unequal(self):
        # no element of F_p equals a rational whose denominator p divides
        seventh = Fraction(1, 7)
        for spec in (F7, make_field(7, [1, 0, 1])):
            for e in (spec.zero, spec.one, spec.element(3)):
                assert not e == seventh and e != seventh
                assert not seventh == e and seventh != e
                assert e not in [seventh, Fraction(3, 14)] and seventh not in [e]
        assert F7.element(4) == Fraction(1, 2) and not F7.element(4) != Fraction(1, 2)
        with pytest.raises(WrongField):
            F7.element(seventh)

    def test_unknown_operand_is_a_type_error(self):
        c = F5.element(2)
        for op in (lambda: c + "1", lambda: c * None, lambda: c - [1], lambda: c / object()):
            with pytest.raises(TypeError):
                op()


# Degree >= 3 moduli reduce a product through more than one row.
EXTENSIONS = {
    "F9": F9,
    "F8": standard_extension(2, 3),
    "F16": standard_extension(2, 4),
    "F64": standard_extension(2, 6),
    "F81": standard_extension(3, 4),
    "Q(i)": make_field(0, [1, 0, 1]),
    "Q(sqrt2)": make_field(0, [-2, 0, 1]),
    "Q(cbrt2)": make_field(0, [-2, 0, 0, 1]),
}


def extension_elements(spec):
    coeff = (st.integers(0, spec.char - 1) if spec.char
             else st.fractions(min_value=-9, max_value=9, max_denominator=5))
    return st.lists(coeff, min_size=spec.degree, max_size=spec.degree).map(spec.element)


class TestExtensionArithmetic:
    """Extension ``+``, ``-`` and ``*`` work on padded tuples and precomputed
    reduction rows; each result equals the validating rebuild through
    ``spec.element``, which reduces by polynomial division."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(EXTENSIONS)), st.data())
    def test_ops_equal_validating_rebuild(self, name, data):
        spec = EXTENSIONS[name]
        a = data.draw(extension_elements(spec))
        b = data.draw(extension_elements(spec))
        schoolbook = [0] * (2 * spec.degree - 1)
        for i, x in enumerate(a.value):
            for j, y in enumerate(b.value):
                schoolbook[i + j] += x * y
        assert a * b == spec.element(schoolbook)
        assert a + b == spec.element([x + y for x, y in zip(a.value, b.value)])
        assert a - b == spec.element([x - y for x, y in zip(a.value, b.value)])
        assert -a == spec.element([-x for x in a.value])
        for r in (a * b, a + b, a - b, -a):
            assert r.spec is spec and len(r.value) == spec.degree
            assert all(isinstance(c, int if spec.char else Fraction) for c in r.value)

    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_inverse(self, name, data):
        spec = EXTENSIONS[name]
        a = data.draw(extension_elements(spec))
        for x in (a, spec.gen_u, spec.element(3 if spec.char != 3 else 2)):
            if x:
                assert x * x.inverse() == spec.one

    def test_long_sequences_reduce_mod_mu(self):
        # u^2 = -1 in F9, and u^6 = u^3 + u^2 in F2[u]/(u^4 + u + 1)
        assert F9.element([0, 0, 1]) == F9.element([-1]) == F9.gen_u * F9.gen_u
        F16 = EXTENSIONS["F16"]
        assert F16.element([0] * 6 + [1]) == F16.element([0, 0, 1, 1]) == F16.gen_u**6

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(EXTENSIONS)), st.data())
    def test_rational_operands_coerce(self, name, data):
        spec = EXTENSIONS[name]
        a = data.draw(extension_elements(spec))
        half = Fraction(1, 2) if spec.char != 2 else Fraction(1, 3)
        assert a + 1 == 1 + a == a + spec.one
        assert a - 1 == a - spec.one and 1 - a == spec.one - a
        assert 3 * a == a * 3 == a * spec.element(3)
        assert a * half == half * a == a * spec.element(half)

    def test_mixed_specs_raise(self):
        F8, Qi = EXTENSIONS["F8"], EXTENSIONS["Q(i)"]
        pairs = [(F9.gen_u, F8.gen_u), (F9.gen_u, make_field(3).one),
                 (Qi.gen_u, EXTENSIONS["Q(sqrt2)"].gen_u), (Qi.gen_u, Q.one)]
        for a, b in pairs:
            for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
                with pytest.raises(WrongField):
                    op()


class TestFieldCache:
    def test_equal_moduli_give_one_spec(self):
        assert make_field(3, [1, 0, 1]) is make_field(3, [1, 0, 1])
        assert make_field(3, UniPoly(make_field(3), [4, 3, 1])) is F9
        assert make_field(5) is F5

    def test_invalid_input_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ReducibleExtensionPolynomial):
                make_field(5, [-1, 0, 1])
            with pytest.raises(NonPrimeCharacteristic):
                make_field(6)
            # a modulus over another prime field is not read as residues mod 7
            with pytest.raises(WrongField):
                make_field(7, UniPoly(F5, [2, 0, 1]))

    def test_order_cap(self):
        assert FINITE_FIELD_MAX_ORDER == 2**16
        with pytest.raises(ExtensionNotSupported):
            make_field(2, [1, 0, 0, 1] + [0] * 13 + [1])  # u^17 + u^3 + 1
        with pytest.raises(ExtensionNotSupported):
            make_field(257, [3, 0, 1])

    def test_prime_cap(self, monkeypatch):
        # 65537 is the first prime above the cap, 65521 the last one below it
        assert make_field(65521).order == 65521

        def no_primality_test(n):
            raise AssertionError(f"is_prime({n}) ran")

        # refused before the primality test, whose trial division of the
        # 19-digit prime would not finish
        monkeypatch.setattr(fields, "is_prime", no_primality_test)
        for p in (65537, 1000000000000000003):
            with pytest.raises(FieldTooLarge):
                make_field(p)
        with pytest.raises(FieldTooLarge):
            make_field(65537, [3, 0, 1])


def walked_generator(spec):
    """The first nonzero element whose order, found by walking its powers,
    is q - 1."""
    for e in spec.elements():
        if not e:
            continue
        power, k = e, 1
        while power != spec.one:
            power, k = power * e, k + 1
        if k == spec.order - 1:
            return e


def monic_irreducibles(p, d):
    base = make_field(p)
    for low in itertools.product(range(p), repeat=d):
        mu = list(low) + [1]
        if is_irreducible(UniPoly(base, mu)):
            yield mu


class TestGenerator:
    def test_matches_the_walked_order(self):
        specs = [make_field(p) for p in range(2, 400) if is_prime(p)]
        specs += [make_field(p, mu) for (p, _), mu in EXTENSION_MODULI.items()]
        specs += [make_field(p, mu) for p in (2, 3, 5) for d in (2, 3)
                  for mu in monic_irreducibles(p, d)]
        assert len(specs) == 78 + 10 + (1 + 2) + (3 + 8) + (10 + 40)
        for spec in specs:
            assert spec.generator == walked_generator(spec), spec

    @pytest.mark.parametrize("char, mu, value", [
        (65521, None, 17),
        (7, [3, 0, 0, 0, 1, 1], (3, 1, 0, 0, 0)),  # u^5 + u^4 + 3: u + 3
        (2, [1, 0, 1, 1, 0, 1] + [0] * 10 + [1], (0, 1) + (0,) * 14),  # u^16+u^5+u^3+u^2+1: u
    ])
    def test_pinned_generators(self, char, mu, value):
        assert make_field(char, mu).generator.value == value

    def test_square_and_multiply_skips_the_last_square(self):
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return a * b

        for n in range(70):
            calls.clear()
            assert fields.square_and_multiply(3, n, 1, mul) == 3**n
            # one square per bit below the top one, one product per set bit
            assert len(calls) == max(n.bit_length() - 1, 0) + bin(n).count("1")

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([F5, F9, make_field(2, [1, 1, 0, 1]), Q]), st.data())
    def test_pow_matches_repeated_products(self, spec, data):
        e = data.draw(elements_of(spec) if spec.ext is None else extension_elements(spec))
        n = data.draw(st.integers(0, 40))
        expected = spec.one
        for _ in range(n):
            expected = expected * e
        assert e**n == expected

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([F2, F5, F7, F65521]), st.data())
    def test_powmod_matches_pow_then_mod(self, spec, data):
        coeffs = st.integers(0, spec.char - 1)
        f = UniPoly(spec, data.draw(st.lists(coeffs, max_size=5)))
        modulus = UniPoly(spec, data.draw(st.lists(coeffs, min_size=2, max_size=5)))
        if modulus.degree < 1:
            modulus = UniPoly(spec, [1, 1])
        n = data.draw(st.integers(0, 20))
        assert f.powmod(n, modulus) == (f**n) % modulus
        assert f.powmod(n, modulus) == reference_powmod(f, n, modulus)


# ---------------------------------------------------------------------------
# The coefficient-list kernel against the FieldElement loops it replaces
# ---------------------------------------------------------------------------


def reference_sum(a, b, sign=1):
    spec = a.spec
    n = max(len(a.coeffs), len(b.coeffs))
    return UniPoly(spec, [a.coeff(i) + b.coeff(i) * sign for i in range(n)])


def reference_mul(a, b):
    spec = a.spec
    out = [spec.zero] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs, i):
            out[j] = out[j] + x * y
    return UniPoly(spec, out)


def reference_divmod(a, b):
    spec = a.spec
    *low, lead = b.coeffs
    d, inv_lead = len(low), lead.inverse()
    rem = list(a.coeffs)
    q = [spec.zero] * max(len(rem) - d, 0)
    while len(rem) > d:
        c = rem.pop() * inv_lead
        k = len(rem) - d
        q[k] = c
        for i, y in enumerate(low, k):
            rem[i] = rem[i] - y * c
        while rem and not rem[-1]:
            rem.pop()
    return UniPoly(spec, q), UniPoly(spec, rem)


def reference_monic(a):
    inv = a.leading.inverse()
    return UniPoly(a.spec, [c * inv for c in a.coeffs])


def reference_gcd(a, b):
    while b:
        a, b = b, reference_divmod(a, b)[1]
    return reference_monic(a) if a else a


def reference_powmod(f, n, modulus):
    acc = reference_divmod(UniPoly.const(f.spec, 1), modulus)[1]
    base = reference_divmod(f, modulus)[1]
    for _ in range(n):
        acc = reference_divmod(reference_mul(acc, base), modulus)[1]
    return acc


def reference_split_at(f, pi):
    k = 0
    while True:
        q, r = reference_divmod(f, pi)
        if r:
            return k, f
        k, f = k + 1, q


def reference_inverse(x):
    """Extended Euclid against mu on UniPoly values over the base field."""
    spec = x.spec
    base = spec.base
    r0, r1 = spec._mu, UniPoly(base, [FieldElement(base, v) for v in x.value])
    s0, s1 = UniPoly.zero(base), UniPoly.const(base, 1)
    while r1:
        q, rem = reference_divmod(r0, r1)
        r0, r1, s0, s1 = r1, rem, s1, s0 - reference_mul(q, s1)
    scale = r0.coeffs[0].inverse()
    return FieldElement(spec, spec._pad([(e * scale).value for e in s0.coeffs]))


def rand_poly(rng, spec, max_deg=7):
    """Residues drawn directly over a prime field, rand_value coefficients
    over Q and extension fields."""
    n = rng.randrange(max_deg + 2)
    if spec.char and not spec.ext:
        return UniPoly(spec, [rng.randrange(spec.char) for _ in range(n)])
    return UniPoly(spec, [rand_value(rng, spec) for _ in range(n)])


def kernel_cases(spec, seed, count=40):
    """Seeded (a, b, pi) over spec: b nonzero, pi of degree >= 1, a often a
    multiple of a power of pi."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        a, b = rand_poly(rng, spec), rand_poly(rng, spec)
        while not b:
            b = rand_poly(rng, spec)
        pi = rand_poly(rng, spec, max_deg=3)
        while pi.degree < 1:
            pi = rand_poly(rng, spec, max_deg=3)
        if rng.random() < 0.5:
            a = reference_mul(a, reference_mul(pi, pi) if rng.random() < 0.5 else pi)
        cases.append((a, b, pi, rng.randrange(30)))
    return cases


PRIME_FIELDS = (F2, F5, F7, F65521)
# one kernel serves every field kind: residues, rationals, extension elements
KERNEL_FIELDS = PRIME_FIELDS + (Q, EXTENSIONS["F8"], F9, EXTENSIONS["Q(i)"])


def assert_canonical(f):
    """Coefficients of f's field, in the value type of its zero, nonzero on top."""
    kind = type(f.spec.zero.value)
    assert all(c.spec is f.spec and type(c.value) is kind for c in f.coeffs)
    assert not f.coeffs or f.coeffs[-1]
    if f.spec.char and not f.spec.ext:
        assert all(0 <= c.value < f.spec.char for c in f.coeffs)


class TestPrimeFieldKernels:
    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=lambda s: s.to_text())
    def test_results_equal_the_field_element_loops(self, spec):
        seed = spec.char if spec in PRIME_FIELDS else spec.to_text()
        for a, b, pi, n in kernel_cases(spec, seed):
            results = [a + b, a - b, a * b, *divmod(a, b), poly_gcd(a, b), b.monic(),
                       a.powmod(n, pi)]
            for f in results + ([a.split_at(pi)[1]] if a else []):
                assert_canonical(f)
            assert a + b == reference_sum(a, b) and a - b == reference_sum(a, b, -1)
            assert a - a == reference_sum(a, a, -1)
            assert a * b == reference_mul(a, b)
            assert b * a == reference_mul(b, a)
            assert divmod(a, b) == reference_divmod(a, b)
            assert a // b == reference_divmod(a, b)[0] and a % b == reference_divmod(a, b)[1]
            assert poly_gcd(a, b) == reference_gcd(a, b)
            assert poly_gcd(b, a) == reference_gcd(b, a)
            assert b.monic() == reference_monic(b)
            assert a.powmod(n, pi) == reference_powmod(a, n, pi)
            if a:
                assert a.split_at(pi) == reference_split_at(a, pi)
        zero, unit = UniPoly.zero(spec), UniPoly.const(spec, 1)
        assert poly_gcd(zero, zero) == zero
        assert divmod(zero, pi) == (zero, zero)
        # modulo a unit everything is 0, the empty product included
        assert pi.powmod(0, unit) == zero == reference_powmod(pi, 0, unit)

    def test_inverse_matches_the_unipoly_euclid_on_every_element(self):
        for (p, _), mu in EXTENSION_MODULI.items():
            spec = make_field(p, mu)
            for x in spec.elements():
                if x:
                    inv = x.inverse()
                    assert inv == reference_inverse(x), (spec, x)
                    assert type(inv.value) is tuple and len(inv.value) == spec.degree
                    assert all(0 <= v < p for v in inv.value)
        rng = random.Random(3)
        for spec in (make_field(0, [1, 0, 1]), make_field(0, [-2, 0, 0, 1])):
            for _ in range(40):
                x = spec.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(spec.degree)])
                if x:
                    assert x.inverse() == reference_inverse(x) and x * x.inverse() == spec.one

    def test_no_field_element_arithmetic_on_the_int_paths(self, monkeypatch):
        rng = random.Random(11)
        polys = []
        for spec, seed in [(s, 100 + s.char) for s in PRIME_FIELDS] + [(Q, "int-paths:Q")]:
            for a, b, pi, n in kernel_cases(spec, seed, count=8):
                polys.append((a, b, pi, n, (reference_sum(a, b), reference_sum(a, b, -1),
                                            reference_mul(a, b), reference_divmod(a, b),
                                            reference_monic(b), reference_powmod(a, n, pi),
                                            reference_split_at(a, pi) if a else None,
                                            reference_gcd(a, b))))
        ext = [x for spec in (F9, make_field(2, EXTENSION_MODULI[(2, 6)]), make_field(7, [1, 0, 1]))
               for x in rng.sample([e for e in spec.elements() if e], 8)]
        # over a number field the extended Euclid runs on Fractions
        ext += [x for spec in (EXTENSIONS["Q(i)"], EXTENSIONS["Q(cbrt2)"])
                for x in (rand_value(rng, spec) for _ in range(8)) if x]
        inverses = [reference_inverse(x) for x in ext]
        inverse = FieldElement.inverse
        splits = []
        for spec in PRIME_FIELDS:
            _, fac = seeded_product(spec, random.Random(200 + spec.char))
            g = UniPoly.const(spec, 1)
            for part in fac.parts:
                g = g * part.poly
            splits.append((g, list(fields._distinct_degree_parts(g)),
                           {part.poly for part in fac.parts}))

        def refuse(*args):
            raise AssertionError("FieldElement arithmetic on an int path")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse"):
            monkeypatch.setattr(FieldElement, name, refuse)
        for a, b, pi, n, (total, diff, prod, qr, monic, power, split, gcd) in polys:
            assert a + b == total and a - b == diff
            assert a * b == prod
            assert divmod(a, b) == qr
            assert b.monic() == monic
            assert a.powmod(n, pi) == power
            if a:
                assert a.split_at(pi) == split
            assert poly_gcd(a, b) == gcd
        assert [inverse(x) for x in ext] == inverses
        for g, parts, irreducibles in splits:
            assert list(fields._distinct_degree_parts(g)) == parts
            factors = [irr for h, d in parts for irr in fields._equal_degree_factors(h, d)]
            assert len(factors) == len(irreducibles) and set(factors) == irreducibles

    def test_error_messages_are_unchanged(self):
        a, zero = UniPoly(F7, [1, 2, 3]), UniPoly.zero(F7)
        for op in (lambda: divmod(a, zero), lambda: a // zero, lambda: a % 0,
                   lambda: a.powmod(3, zero)):
            with pytest.raises(ZeroDivisionError, match="^division by zero polynomial$"):
                op()
        with pytest.raises(ZeroPolynomial, match="^cannot make the zero polynomial monic$"):
            zero.monic()
        with pytest.raises(ZeroPolynomial, match="^order of zero polynomial$"):
            zero.split_at(a)
        with pytest.raises(NotAPlace, match="^3 has degree < 1, so it is not a place$"):
            a.split_at(UniPoly.const(F7, 3))
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            F9.zero.inverse()
        other = UniPoly(F5, [1, 1])
        for op in (lambda: a * other, lambda: divmod(a, other), lambda: a.powmod(2, other),
                   lambda: a.split_at(other), lambda: poly_gcd(a, other)):
            with pytest.raises(WrongField, match="^mixed fields F7 and F5$"):
                op()

    @pytest.mark.parametrize("spec", (F7, F9, Q), ids=lambda s: s.to_text())
    def test_negative_exponent_is_refused(self, spec):
        # a halving loop never ends on a negative n: -1 >> 1 == -1
        a = UniPoly(spec, [1, 2, 1])
        for op in (lambda: a.powmod(-1, UniPoly(spec, [1, 0, 1])), lambda: a**-2):
            with pytest.raises(ValueError, match="^negative exponent -[12] for a polynomial$"):
                op()


def reference_eval(f, x):
    """Horner's loop on field elements, each coefficient embedded into x's field."""
    target = x.spec
    acc = target.zero
    for c in reversed(f.coeffs):
        acc = acc * x + (c if c.spec == target else target.embed(c))
    return acc


def rand_value(rng, spec):
    if spec.char:
        return rng.choice(list(spec.elements()))
    digits = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(spec.degree)]
    return spec.element(digits if spec.ext else digits[0])


class TestUniPolyEval:
    QI = make_field(0, [1, 0, 1])
    F49 = make_field(7, [1, 0, 1])

    @pytest.mark.parametrize("spec", (F7, Q, F9, QI), ids=lambda s: s.to_text())
    def test_equals_the_field_element_horner_loop(self, spec, monkeypatch):
        rng = random.Random(f"eval:{spec.to_text()}")
        cases = []
        for _ in range(60):
            f = UniPoly(spec, [rand_value(rng, spec) for _ in range(rng.randrange(7))])
            x = rand_value(rng, spec)
            cases.append((f, x, reference_eval(f, x)))
        if not spec.ext:
            # at a point of its own base field the loop runs on raw values
            def refuse(*args):
                raise AssertionError("FieldElement arithmetic in UniPoly.eval")

            for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
                monkeypatch.setattr(FieldElement, name, refuse)
        for f, x, want in cases:
            got = f.eval(x)
            assert got == want and got.spec is spec
            assert type(got.value) is type(want.value)

    def test_prime_field_polynomial_at_extension_points(self):
        rng = random.Random(49)
        points = list(self.F49.elements())
        for _ in range(60):
            f = UniPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(7))])
            x = rng.choice(points)
            got = f.eval(x)
            assert got == reference_eval(f, x) and got.spec is self.F49
