"""Milnor K-theory over explicit fields and its bridge to 0-cycles.

Symbols are formal: no canonicalization is applied beyond rewrites that are
valid in every Milnor K-group (dropping an entry equal to 1, sign-tracked
sorting by anticommutativity, and the K_1 product rule).  Over finite fields,
symbols of length >= 2 vanish; callers may take that on the theorem or ask
the K_2 presentation oracle for a constructive confirmation.

The tame symbol at a place pi follows the standard convention: for units u_i,
d{u_1, ..., u_{n-1}, pi} = {ubar_1, ..., ubar_{n-1}} and d kills unit symbols.
The place at infinity uses 1/t as uniformizer, so residues of units are
leading-coefficient ratios.

Conventions interact with the cubical boundary through a dimension-dependent
sign: with the ORIGINAL-model boundary, a graph curve C over the parameter
line satisfies  phi(dC) = (-1)^n * delta(theta(C))  componentwise at finite
places, and the bounded realization of residues satisfies the matching
d(xi) = (-1)^n * psi(delta([f])), psi extended Z-linearly.  The verifiers
compute (-1)^n from the curve's level and report it with their verdict.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .fields import (
    FieldElement,
    FieldSpec,
    ModcyclesError,
    NotAPlace,
    UniPoly,
    WrongField,
    ZeroElement,
    ZeroPolynomial,
    _prime_divisors,
    make_field,
    norm_k1_finite,
    standard_extension,
)
from .polyring import RatFunc
from .cycles import (
    ClosedPoint,
    CoordModel,
    DegenerateCurve,
    FormalSum,
    ParamCurve,
    ZeroCycle,
    _place_field,
    _places,
    curve_boundary,
)

class MilnorError(ModcyclesError):
    pass


class NotPrimePower(MilnorError):
    pass


class OracleTooLarge(MilnorError):
    pass


class NormNotImplemented(MilnorError):
    pass


class SteinbergPrecondition(MilnorError):
    pass


class IndistinctEntries(MilnorError):
    pass


class PowerTooLarge(MilnorError):
    pass


class FunctionField:
    """The rational function field k(t) over an exact base field."""

    __slots__ = ("base",)

    def __init__(self, base: FieldSpec):
        self.base = base

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.base == other.base

    def __hash__(self):
        return hash(("funfield", self.base))

    def __repr__(self):
        return f"FunctionField({self.to_text()})"

    def to_text(self):
        return f"{self.base.to_text()}(t)"


def _entry_is_one(e) -> bool:
    if isinstance(e, FieldElement):
        return e == e.spec.one
    return e.num.degree == 0 and e.den.degree == 0 and e.num.coeff(0) == e.spec.one


class MilnorSymbol:
    """{f_1, ..., f_n} with nonzero entries over a field or function field."""

    __slots__ = ("field", "entries")

    def __init__(self, field, entries: Sequence):
        self.field = field
        es = []
        for e in entries:
            if isinstance(field, FunctionField):
                if not isinstance(e, RatFunc) or e.spec != field.base:
                    raise WrongField("entry is not a rational function over the base")
                if not e.num:
                    raise ZeroElement("symbol entries must be nonzero")
            else:
                e = field.element(e)
                if not e:
                    raise ZeroElement("symbol entries must be nonzero")
            es.append(e)
        self.entries = tuple(es)

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def has_one_entry(self) -> bool:
        return any(_entry_is_one(e) for e in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, MilnorSymbol)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return "{" + ", ".join(e.to_text() for e in self.entries) + "}"


class MilnorElement(FormalSum):
    """Formal Z-combination of symbols; symbols containing an entry 1 vanish."""

    __slots__ = ("field",)
    _AMBIENT = ("field",)
    _MISMATCH = WrongField

    def __init__(self, field, terms: Iterable[tuple[int, MilnorSymbol]] | Mapping[MilnorSymbol, int] = ()):
        self.field = field

        def canonical_key(sym):
            if sym.field != field:
                raise WrongField("symbol over the wrong field")
            return None if sym.has_one_entry else sym

        self._collect(terms, canonical_key)

    @classmethod
    def zero(cls, field):
        return cls._trusted((field,), {})

    @classmethod
    def of(cls, field, *entries, mult: int = 1):
        return cls(field, [(mult, MilnorSymbol(field, entries))])

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: repr(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "MilnorElement(0)"
        return "MilnorElement(" + " + ".join(f"{m}*{s!r}" for s, m in self.items()) + ")"


def k1_value(e: MilnorElement) -> FieldElement:
    """Collapse a K_1 element to the field unit it represents."""
    spec = e.field if isinstance(e.field, FieldSpec) else None
    if spec is None:
        raise MilnorError("K_1 collapse is for symbols over a field")
    acc = spec.one
    for sym, m in e.terms.items():
        if sym.length != 1:
            raise MilnorError("not a K_1 element")
        acc = acc * sym.entries[0] ** m
    return acc


# ---------------------------------------------------------------------------
# Safe symbol reduction
# ---------------------------------------------------------------------------


class SymbolReduction:
    __slots__ = ("result", "theorem_backed", "oracle")

    def __init__(self, result: MilnorElement, theorem_backed: bool = False, oracle=None):
        self.result = result
        self.theorem_backed = theorem_backed
        self.oracle = oracle

    def __repr__(self):
        tag = ", theorem-backed (Steinberg)" if self.theorem_backed else ""
        return f"SymbolReduction({self.result!r}{tag})"


def _sorted_with_sign(entries: tuple) -> tuple[tuple, int]:
    keyed = [(e.to_text(), i, e) for i, e in enumerate(entries)]
    ordered = sorted(keyed, key=lambda t: (t[0], t[1]))
    perm = [t[1] for t in ordered]
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return tuple(t[2] for t in ordered), (-1) ** inversions


def symbol_reduce(e: MilnorElement, certificate_mode: bool = False) -> SymbolReduction:
    """Apply only universally valid rewrites.

    Entries equal to 1 vanish (construction already drops them); entries are
    sorted with anticommutativity signs so opposite orderings cancel; K_1
    sums collapse to the product.  Over a finite field, symbols of length
    >= 2 are zero: theorem-backed by default, confirmed by the K_2 oracle in
    certificate mode (K_n for n > 2 is spanned by products through K_2).
    """
    field = e.field
    base = isinstance(field, FieldSpec)
    finite = base and field.is_finite
    terms = []
    oracle_result = None
    steinberg = finite and any(s.length >= 2 for s in e.terms)
    if steinberg and certificate_mode:
        oracle_result = k2_presentation_oracle(field.order)
        if not oracle_result.trivial:
            raise MilnorError("oracle found a nontrivial K_2; field table is corrupt")
    k1_acc = field.one if base else None
    for sym, m in e.items():
        if finite and sym.length >= 2:
            continue  # vanishes (Steinberg)
        if sym.length == 1 and base:
            k1_acc = k1_acc * sym.entries[0] ** m
            continue
        sorted_entries, sign = _sorted_with_sign(sym.entries)
        terms.append((sign * m, MilnorSymbol(field, sorted_entries)))
    if base and k1_acc != field.one:
        terms.append((1, MilnorSymbol(field, [k1_acc])))
    return SymbolReduction(MilnorElement(field, terms),
                           theorem_backed=steinberg and not certificate_mode,
                           oracle=oracle_result)


# ---------------------------------------------------------------------------
# Valuations, tame symbols, total residue
# ---------------------------------------------------------------------------


class Valuation:
    """A place of k(t): a monic irreducible pi in k[t], or infinity (pi=None).

    At a finite place the residue field, the class of t in it and pi as a
    kernel list are found once, on first use (see :meth:`_place`), so a
    place whose residue field cannot be built still constructs and raises
    only when a residue is asked for."""

    __slots__ = ("field", "pi", "_at")

    def __init__(self, field: FunctionField, pi: UniPoly | None):
        self.field = field
        if pi is not None:
            if pi.spec != field.base:
                raise WrongField("place over the wrong base field")
            if pi.degree < 1 or pi.leading != field.base.one:
                raise ValueError("place must be monic of positive degree")
        self.pi = pi
        self._at = None

    @property
    def is_infinite(self) -> bool:
        return self.pi is None

    @property
    def degree(self) -> int:
        return 1 if self.pi is None else self.pi.degree

    def __eq__(self, other):
        return isinstance(other, Valuation) and self.field == other.field and self.pi == other.pi

    def __hash__(self):
        return hash((self.field, self.pi))

    def __repr__(self):
        return "Valuation(infinity)" if self.pi is None else f"Valuation({self.pi.to_text()})"

    def _place(self) -> tuple:
        """(residue field, class of t, pi unwrapped by the base field's kernel)
        at a finite place, computed on the first call."""
        if self._at is None:
            ell, t_class = _place_field(self.field.base, self.pi)
            k = self.field.base._lists
            self._at = ell, t_class, k.unwrap(self.pi)
        return self._at

    def residue_spec(self) -> FieldSpec:
        if self.pi is None:
            return self.field.base
        return self._place()[0]

    def parameter_class(self) -> FieldElement:
        """The image of t in the residue field."""
        if self.pi is None:
            raise MilnorError("the infinite place has no finite parameter class")
        return self._place()[1]

    def order_and_residue(self, f: RatFunc) -> tuple[int, FieldElement]:
        """ord_v(f), and the residue of the unit part f * uniformizer^(-ord f).

        At a finite place, one division loop each takes pi out of the
        numerator and of a nonconstant denominator (``_Lists.split``) and
        leaves the cofactor's remainder mod pi.  The residue field is
        F[u]/(pi) with u the class of t (see ``_place_field``), so a
        remainder's coefficients are its coordinates in the basis 1, u, ...,
        u^(deg pi - 1); when deg pi = 1 the residue field is the base field
        and the remainder is a constant.
        """
        if self.pi is None:
            return f.ord_at_infinity(), f.num.leading / f.den.leading
        if not f:
            raise ZeroPolynomial("order of zero polynomial")
        ell, _, pi = self._place()
        k = self.field.base._lists

        def residue_class(rem):
            if ell is not k.spec:  # deg pi >= 2: coordinates in F[u]/(pi)
                return FieldElement(ell, ell._pad(rem))
            return FieldElement(ell, rem[0]) if k.raw else rem[0]

        a, _, r = k.split(k.unwrap(f.num), pi)
        den = k.unwrap(f.den)
        if len(den) == 1:  # RatFunc denominators are monic, so this one is 1
            return a, residue_class(r)
        b, _, s = k.split(den, pi)
        return a - b, residue_class(r) / residue_class(s)

    def base_point(self) -> ClosedPoint:
        """The closed point of the affine parameter line at this place."""
        return ClosedPoint(self.residue_spec(), (self.parameter_class(),), ())


def tame_symbol(v: Valuation, s: MilnorElement) -> MilnorElement:
    """The tame residue at v, Z-linearly extended.

    Each entry splits as unit * pi^m; multilinear expansion leaves terms with
    pi in a set S of slots.  All pi's but the last rewrite to -1 (from
    {pi, pi} = {-1, pi}), the surviving pi anticommutes to the last slot, and
    the residue map applies, giving the closed formula
    sum over nonempty S of (prod_{i in S} m_i) * (-1)^(n - max S) *
    {residues with -1 in S minus its maximum, slot max S omitted}.
    """
    field = s.field
    if not isinstance(field, FunctionField):
        raise WrongField("tame symbols act on function-field elements")
    ell = v.residue_spec()
    terms = []
    for sym, mult in s.terms.items():
        n = sym.length
        split = [v.order_and_residue(f) for f in sym.entries]
        orders = [m for m, _ in split]
        residues = [r for _, r in split]
        hot = [i for i in range(n) if orders[i]]
        minus_one = -ell.one
        for size in range(1, len(hot) + 1):
            for S in combinations(hot, size):
                coeff = 1
                for i in S:
                    coeff *= orders[i]
                last = S[-1]
                sign = (-1) ** (n - 1 - last)  # slots 0-indexed; move pi to the end
                entries = []
                for i in range(n):
                    if i == last:
                        continue
                    entries.append(minus_one if i in S else residues[i])
                terms.append((mult * coeff * sign, MilnorSymbol(ell, entries)))
    return MilnorElement(ell, terms)


def total_delta(s: MilnorElement, include_infinity: bool = True, *,
                places: dict | None = None) -> dict[Valuation, MilnorElement]:
    """Tame symbol at every place supporting some entry (plus infinity).

    Places not in the returned map carry residue 0.  Raises UnfactorableEntry
    over Q when an entry has an uncertified high-degree factor.  ``places``
    is a memo of factorizations shared with :func:`cycles.curve_boundary`.
    """
    field = s.field
    if not isinstance(field, FunctionField):
        raise WrongField("total residue acts on function-field elements")
    seen: dict[tuple, UniPoly] = {}
    for sym in s.terms:
        for f in sym.entries:
            for poly in (f.num, f.den):
                for pi, _ in _places(poly, places):
                    seen[(pi.degree, pi.to_text())] = pi
    out: dict[Valuation, MilnorElement] = {}
    for key in sorted(seen):
        v = Valuation(field, seen[key])
        val = tame_symbol(v, s)
        if val:
            out[v] = val
    if include_infinity:
        v = Valuation(field, None)
        val = tame_symbol(v, s)
        if val:
            out[v] = val
    return out


# ---------------------------------------------------------------------------
# K_2 presentation oracle: one relation column, so one gcd
# ---------------------------------------------------------------------------


# The oracle enumerates the units of F_q; larger fields are refused.
K2_ORACLE_MAX_Q = 64


def _prime_power(q: int) -> tuple[int, int]:
    """(p, d) with q = p**d, from the one prime that divides q."""
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise NotPrimePower("not a prime power")
    p, d = primes[0], 0
    while q > 1:
        q //= p
        d += 1
    return p, d


class K2Presentation:
    __slots__ = ("q", "relation_count", "elementary_divisors")

    def __init__(self, q: int, relation_count: int, elementary_divisors: list[int]):
        self.q = q
        self.relation_count = relation_count
        self.elementary_divisors = elementary_divisors

    @property
    def trivial(self) -> bool:
        return all(d == 1 for d in self.elementary_divisors)

    def __repr__(self):
        return f"K2Presentation(q={self.q}, divisors={self.elementary_divisors}, trivial={self.trivial})"

    def to_json(self):
        return {
            "q": self.q,
            "relations": self.relation_count,
            "elementary_divisors": self.elementary_divisors,
            "trivial": self.trivial,
        }


def k2_presentation_oracle(q: int) -> K2Presentation:
    """Brute-force presentation of K_2 of the field with q elements.

    With discrete logs to the stored generator g, bilinearity identifies the
    symbol group with Z/(q-1) generated by {g, g}, and each a outside {0, 1}
    contributes the relation dlog(a) * dlog(1-a).  The relations form one
    integer column, so the quotient is Z/d with d the gcd of the column: its
    only elementary divisor.
    """
    if q < 2:
        raise NotPrimePower("q must be at least 2")
    p, d = _prime_power(q)
    if q > K2_ORACLE_MAX_Q:
        raise OracleTooLarge(f"the oracle enumerates units; q is capped at {K2_ORACLE_MAX_Q}")
    spec = make_field(p) if d == 1 else standard_extension(p, d)
    one = spec.one
    relations = [spec.dlog(a) * spec.dlog(one - a) for a in spec.elements() if a and a != one]
    # q - 1, the order of the cyclic carrier, is at least 1, so the gcd is too
    return K2Presentation(q, len(relations), [math.gcd(q - 1, *relations)])


def k2_table(max_q: int) -> list[K2Presentation]:
    """The oracle's presentation for every prime power q in 2..max_q."""
    if max_q < 2:
        raise NotPrimePower(f"the K_2 table starts at q = 2, got max_q = {max_q}")
    if max_q > K2_ORACLE_MAX_Q:
        raise OracleTooLarge(f"the K_2 table is capped at max_q = {K2_ORACLE_MAX_Q}, got {max_q}")
    table = []
    for q in range(2, max_q + 1):
        try:
            _prime_power(q)
        except NotPrimePower:
            continue
        table.append(k2_presentation_oracle(q))
    return table


# ---------------------------------------------------------------------------
# The maps between 0-cycles and symbols
# ---------------------------------------------------------------------------


def phi_map(z: ZeroCycle) -> dict[ClosedPoint, MilnorElement]:
    """Send each point to the symbol of its cube coordinates at its base point.

    Points whose coordinates generate an extension of the field of the base
    point are normed down: by the K_1 norm for length 1 over finite fields,
    by the vanishing theorem for longer symbols over finite fields; anything
    else is a typed error.
    """
    out: dict[ClosedPoint, MilnorElement] = {}
    for pt, mult in z.items():
        ell = pt.residue_spec
        coords_in_base = ell.is_extension and all(c.in_base for c in pt.t_coords)
        if coords_in_base:
            base = ell.base
            base_pt = ClosedPoint(base, [c.to_base() for c in pt.t_coords], ())
            if any(not c for c in pt.y_coords):
                raise ZeroElement("cube coordinate 0 cannot enter a symbol")
            sym = MilnorSymbol(ell, pt.y_coords)
            if sym.has_one_entry:
                contrib = MilnorElement.zero(base)
            elif z.n == 0:
                contrib = MilnorElement(base, [(mult * ell.degree, MilnorSymbol(base, ()))])
                out[base_pt] = out.get(base_pt, MilnorElement.zero(base)) + contrib
                continue
            elif z.n == 1:
                contrib = MilnorElement.of(base, norm_k1_finite(pt.y_coords[0]), mult=mult)
            elif ell.is_finite:
                contrib = MilnorElement.zero(base)  # length >= 2 over a finite field
            else:
                raise NormNotImplemented(
                    "norms of symbols of length >= 2 over infinite bases are not implemented"
                )
            out[base_pt] = out.get(base_pt, MilnorElement.zero(base)) + contrib
        else:
            base_pt = pt.base_point()
            contrib = MilnorElement(ell, [(mult, MilnorSymbol(ell, pt.y_coords))])
            out[base_pt] = out.get(base_pt, MilnorElement.zero(ell)) + contrib
    return {k: v for k, v in out.items() if v}


def psi_map(sym: MilnorSymbol, t_coords: Sequence[FieldElement] = (),
            model: CoordModel = CoordModel.ORIGINAL) -> ZeroCycle:
    """The graph point (x; f_1, ..., f_n), or the empty cycle when some f_i = 1."""
    if isinstance(sym.field, FunctionField):
        raise WrongField("psi places field symbols, not function-field ones")
    ell = sym.field
    coords = [ell.embed(c) if c.spec != ell else c for c in t_coords]
    terms = [] if sym.has_one_entry else [(1, ClosedPoint(ell, coords, sym.entries))]
    return ZeroCycle(ell, model, len(coords), sym.length, terms)


def theta_map(C: ParamCurve) -> MilnorElement:
    """The symbol of the component functions of a graph over the parameter
    line; curves over a fixed base point map to 0."""
    ff = FunctionField(C.spec)
    if not C.graph_over_base:
        return MilnorElement.zero(ff)
    return MilnorElement(ff, [(1, MilnorSymbol(ff, C.components))])


# ---------------------------------------------------------------------------
# Witness curves
# ---------------------------------------------------------------------------


def totaro_steinberg_curve(f1: FieldElement, extra: Sequence[FieldElement] = ()) -> ParamCurve:
    """The rational curve whose boundary is the single point
    (f1, 1 - f1, f_3, ..., f_n), realizing the Steinberg relation.

    Components: (t, 1 - t, (f1 - t)/(1 - t), f_3, ..., f_n) in the ORIGINAL
    model.  The third component has its only zero at t = f1, value 1 at
    infinity, and its pole at the puncture t = 1, so every other candidate
    boundary point lands outside the cube.
    """
    spec = f1.spec
    if not f1:
        raise SteinbergPrecondition("f1 must be a unit")
    if f1 == spec.one:
        raise SteinbergPrecondition("f1 = 1 is excluded by the Steinberg relation")
    for c in extra:
        if not c:
            raise ZeroElement("extra entries must be units")
    t = RatFunc.param(spec)
    one = RatFunc.const(spec, 1)
    third = (RatFunc.const(spec, f1) - t) / (one - t)
    comps = [t, one - t, third] + [RatFunc.const(spec, c) for c in extra]
    return ParamCurve(spec, CoordModel.ORIGINAL, comps)


def totaro_mult_curve(f: FieldElement, g: FieldElement) -> ParamCurve:
    """The rational curve whose boundary realizes psi(f) + psi(g) - psi(fg).

    Components: (t, f(t - g)/(t - fg)) in the ORIGINAL model.  Requires
    f != 1 (the second component would be constant)."""
    spec = f.spec
    if not f or not g:
        raise ZeroElement("f and g must be units")
    if f == spec.one:
        raise DegenerateCurve("f = 1 makes the second component constant")
    t = RatFunc.param(spec)
    h = (RatFunc.const(spec, f) * t - RatFunc.const(spec, f * g)) / (t - RatFunc.const(spec, f * g))
    return ParamCurve(spec, CoordModel.ORIGINAL, [t, h])


# Largest |r| that xi_curve accepts.  The last entry u * pi^r has degree
# |r| * deg(pi), and the cost grows faster than linearly in r: on a 2-core
# x86 box `curves xi` with a linear pi takes about 0.3 s at r = 256 and
# 3 s at r = 1024.
XI_MAX_POWER = 256


def xi_curve(fs: Sequence[RatFunc], u: RatFunc, pi: UniPoly, r: int) -> ParamCurve:
    """The graph curve of (f_1, ..., f_n, u * pi^r) over the parameter line.

    Entries must be pairwise distinct rational functions and the f_i and u
    units at pi; its boundary realizes the total residue of the symbol."""
    if abs(r) > XI_MAX_POWER:
        raise PowerTooLarge(f"|r| is capped at XI_MAX_POWER = {XI_MAX_POWER}, got r = {r}")
    if not fs and r == 0:
        raise ValueError("nothing to bound")
    spec = pi.spec
    if pi.degree < 1 or pi.leading != spec.one:
        raise NotAPlace(f"pi = {pi.to_text()} must be monic of positive degree")
    for f in fs:
        if f.ord_at(pi):
            raise SteinbergPrecondition("f entries must be units at pi")
    if u.ord_at(pi):
        raise SteinbergPrecondition("u must be a unit at pi")
    last = u * RatFunc.from_poly(pi) ** r
    comps = list(fs) + [last]
    texts = [c.to_text() for c in comps]
    if len(set(texts)) != len(texts):
        raise IndistinctEntries("the defining rational functions must be distinct")
    return ParamCurve(spec, CoordModel.ORIGINAL, comps, graph_over_base=True)


# ---------------------------------------------------------------------------
# Verifiers for the curve identities
# ---------------------------------------------------------------------------


class CurveIdentity:
    """Outcome of checking a curve boundary against its predicted 0-cycle."""

    __slots__ = ("ok", "actual", "expected", "sign")

    def __init__(self, ok: bool, actual: ZeroCycle, expected: ZeroCycle, sign: int):
        self.ok = ok
        self.actual = actual
        self.expected = expected
        self.sign = sign

    def __repr__(self):
        return f"CurveIdentity(ok={self.ok}, sign={self.sign})"


def verify_steinberg_curve(curve: ParamCurve, f1: FieldElement,
                           extra: Sequence[FieldElement] = ()) -> CurveIdentity:
    """Boundary supported on the single point (f1, 1 - f1, extra...), with
    multiplicity +1 in the ORIGINAL convention."""
    spec = f1.spec
    b = curve_boundary(curve)
    pt = ClosedPoint(spec, curve.base_t_coords, [f1, spec.one - f1, *extra])
    expected = ZeroCycle(spec, curve.model, len(curve.base_t_coords), curve.n - 1, [(1, pt)])
    return CurveIdentity(b == expected, b, expected, 1)


def verify_mult_curve(curve: ParamCurve, f: FieldElement, g: FieldElement) -> CurveIdentity:
    """Boundary realizes -(psi(f) + psi(g) - psi(fg)) pointwise."""
    spec = f.spec
    b = curve_boundary(curve)
    base = curve.base_t_coords
    expected = ZeroCycle(spec, curve.model, len(base), 1, [
        (mult, pt) for val, mult in ((f, -1), (g, -1), (f * g, 1))
        for pt in psi_map(MilnorSymbol(spec, [val]), base, curve.model).terms
    ])
    return CurveIdentity(b == expected, b, expected, -1)


def verify_xi_curve(curve: ParamCurve) -> CurveIdentity:
    """d(xi) = (-1)^n psi(delta(theta(xi))) over the finite places, psi
    extended Z-linearly; theta(xi) is the symbol {f_1, ..., f_n, u*pi^r} of
    the curve's components."""
    n = curve.n - 1
    sign = (-1) ** n
    places: dict = {}  # each entry is factored once, for both sides
    b = curve_boundary(curve, places=places)
    spec = curve.spec
    terms = []
    for v, res in total_delta(theta_map(curve), include_infinity=False, places=places).items():
        base = v.base_point()
        for sym, m in res.items():
            terms.append((sign * m, ClosedPoint(base.residue_spec, base.t_coords, sym.entries)))
    expected = ZeroCycle(spec, curve.model, 1, n, terms)
    return CurveIdentity(b == expected, b, expected, sign)


def verify_graph_square(curve: ParamCurve) -> tuple[bool, int]:
    """The commuting square for a graph curve: phi(dC) against delta(theta C)
    at the finite places, equal up to the documented sign (-1)^n."""
    n = curve.n - 1
    sign = (-1) ** n
    places: dict = {}  # each entry is factored once, for both sides
    b = curve_boundary(curve, places=places)
    lhs = phi_map(b)
    rhs: dict[ClosedPoint, MilnorElement] = {}
    for v, res in total_delta(theta_map(curve), include_infinity=False, places=places).items():
        if res:
            rhs[v.base_point()] = res.scale(sign)
    ok = set(lhs) == set(rhs) and all(lhs[k] == rhs[k] for k in lhs)
    return ok, sign

