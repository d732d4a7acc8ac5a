"""Sparse multivariate polynomials in t1..tr, y1..yn over an exact field,
plus univariate rational functions for curve parametrizations.

Terms are stored as a map from exponent vectors (t-block then y-block) to
nonzero raw coefficients of the base field: int residues over F_p and int
numerators over one common denominator over Q.  A polynomial over an
extension k[u]/(mu) is stored as one over k with u as one more exponent
slot, last, of degree below deg(mu) (see :class:`MultiPoly`).  The display
order is descending lexicographic on the exponent vector in t and y, which
together with canonical coefficient text makes
``to_text`` a bijection onto its image: ``parse_poly`` inverts it
bit-exactly.  ``parse_poly`` first reads base-field text in that canonical
form in one pass, straight into raw terms, and keeps the result only when
it renders back to the same text; every other spelling, and all text over
an extension field, goes to the general parser.

Grammar (whitespace insignificant, implicit multiplication rejected)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := literal | var | '(' expr ')'
    var    := 't'uint | 'y'uint | 'u'
    literal:= uint | uint '/' uint

A ``uint`` is a run of the ASCII digits 0-9; other Unicode digits are
rejected.  ``u`` denotes the extension generator when the coefficient field
has one.  Rational-function parsing (:func:`parse_ratfunc`) additionally
allows '/' between arbitrary factors and a single free variable name.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, ge, sub
from typing import Mapping, Sequence

from .fields import (
    FieldElement,
    FieldSpec,
    ModcyclesError,
    Scalar,
    UniPoly,
    WrongField,
    ZeroPolynomial,
    poly_gcd,
    square_and_multiply,
)


class PolyError(ModcyclesError):
    pass


class ParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(PolyError):
    pass


class InexactDivision(PolyError):
    pass


class ZeroDivisor(PolyError):
    pass


def _is_uint(s: str) -> bool:
    """Whether ``s`` is a nonempty run of ASCII digits."""
    return s.isascii() and s.isdigit()


def _uint(s: str) -> int | None:
    """The value of a run of ASCII digits, or None for any other string and
    for a run too long for ``int`` (``sys.get_int_max_str_digits``)."""
    if not _is_uint(s):
        return None
    try:
        return int(s)
    except ValueError:
        return None


class VarSet:
    """Ambient variables: r parameters t1..tr and n cube coordinates y1..yn."""

    __slots__ = ("r", "n")

    def __init__(self, r: int, n: int):
        if r < 0 or n < 0:
            raise ValueError("variable counts must be nonnegative")
        self.r = r
        self.n = n

    def __eq__(self, other):
        return isinstance(other, VarSet) and (self.r, self.n) == (other.r, other.n)

    def __hash__(self):
        return hash((self.r, self.n))

    def __repr__(self):
        return f"VarSet(r={self.r}, n={self.n})"

    @property
    def count(self) -> int:
        return self.r + self.n

    def names(self) -> list[str]:
        return [f"t{i+1}" for i in range(self.r)] + [f"y{i+1}" for i in range(self.n)]

    def index(self, name: str) -> int:
        i = _name_index(self.r, self.n).get(name)
        if i is not None:
            return i
        # other spellings of a valid name, such as t01, and unknown names
        if len(name) >= 2 and name[0] in "ty" and _is_uint(name[1:]):
            k = int(name[1:])
            if name[0] == "t" and 1 <= k <= self.r:
                return k - 1
            if name[0] == "y" and 1 <= k <= self.n:
                return self.r + k - 1
        raise UnknownVariable(f"{name} is not a variable of {self!r}")

    def drop(self, name: str) -> "VarSet":
        return self._without(self.index(name))

    def _without(self, i: int) -> "VarSet":
        """This ring without the variable at position ``i``."""
        return VarSet(self.r - 1, self.n) if i < self.r else VarSet(self.r, self.n - 1)


@lru_cache(maxsize=64)
def _name_index(r: int, n: int) -> dict[str, int]:
    """Variable name -> position in the exponent vector of ``VarSet(r, n)``."""
    return {name: i for i, name in enumerate(VarSet(r, n).names())}


# ---------------------------------------------------------------------------
# Raw coefficients (see MultiPoly)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _powers_of_u(d: int) -> tuple:
    return tuple((j,) for j in range(d))


def _slots(spec: FieldSpec) -> tuple:
    """The exponent-vector suffixes that one coefficient of ``spec`` is
    spread over: (j,) for each power u^j, j < deg(mu), of an extension
    field, and only the empty suffix over a base field."""
    return ((),) if spec.ext is None else _powers_of_u(len(spec.ext) - 1)


def _scalar(spec: FieldSpec, x) -> tuple:
    """``x`` coerced into ``spec`` (validating), as raw numerators over a
    positive denominator, which is 1 in characteristic p: one numerator
    per suffix of :func:`_slots`."""
    v = spec.element(x).value
    if spec.ext is None:
        # an int residue in characteristic p, whose denominator is 1
        return (v.numerator,), v.denominator
    if spec.char:
        return v, 1
    den = lcm(*[c.denominator for c in v])
    return tuple([c.numerator * (den // c.denominator) for c in v]), den


def _rational(c, den: int):
    """The raw numerator ``c`` over ``den`` as one value that division can
    act on: a Fraction when ``den`` is not 1, else ``c`` itself."""
    return c if den == 1 else Fraction(c, den)


def _numerators(spec: FieldSpec, values: Mapping[tuple, object]) -> tuple[dict, int]:
    """Nonzero values as (raw terms, den).  In characteristic 0 the values
    are ints or Fractions, and the terms are their numerators over the
    least common denominator, so gcd(den, *numerators) = 1; in
    characteristic p they are stored as they are, over 1."""
    if spec.char:
        return values, 1
    den = lcm(*[c.denominator for c in values.values()])
    return {e: c.numerator * (den // c.denominator) for e, c in values.items()}, den


def _inverse(spec: FieldSpec, c, den: int) -> tuple:
    """The inverse of the nonzero raw numerator ``c`` over ``den``, an
    element of the base field, as a raw numerator over a positive
    denominator."""
    if spec.char:
        return pow(c, -1, spec.char), 1
    return (den, c) if c > 0 else (-den, -c)


def _fold(spec: FieldSpec, terms: dict, den: int) -> tuple[dict, int]:
    """(terms, den) for the raw ``terms`` over ``den`` of a product over an
    extension field, with each power u^k, d <= k <= 2d - 2 for d = deg(mu),
    in the last slot rewritten through the reduction rows that
    FieldElement products use.  ``terms`` is changed in place.  Over
    Q(alpha) with rows that are not integral the numerators are scaled to
    the rows' common denominator, and ``den`` with them.  When no power is
    that high, both come back as they are."""
    d = len(spec.ext) - 1
    high = [(e, c) for e, c in terms.items() if e[-1] >= d]
    if not high:
        return terms, den
    for e, _ in high:
        del terms[e]
    scale, rows = spec._int_rows
    if scale != 1:
        terms = {e: c * scale for e, c in terms.items()}
        den *= scale
    p = spec.char
    for e, h in high:
        head = e[:-1]
        for i, r in rows[e[-1] - d]:
            key = head + (i,)
            s = terms.get(key, 0) + h * r
            if p:
                s %= p
            if s:
                terms[key] = s
            else:
                del terms[key]
    return terms, den


class _TailsWithU(dict):
    """The images of :meth:`MultiPoly._integer_image` for tails that end in
    the slot of u: the image of the tail without it, with that slot
    appended to each exponent vector, built once per tail."""

    def __init__(self, images: Mapping[tuple, Sequence[tuple]]):
        super().__init__()
        self.images = images

    def __missing__(self, tail: tuple) -> list:
        u = tail[-1:]
        image = self[tail] = [(f + u, m) for f, m in self.images[tail[:-1]]]
        return image


class MultiPoly:
    """Immutable sparse polynomial over a :class:`FieldSpec` in a :class:`VarSet`.

    Invariant: ``terms`` maps exponent tuples to nonzero raw coefficients
    of the base field of ``spec``, which are read over the common
    denominator ``den``: in characteristic p int residues 0 < c < p over
    ``den`` = 1, in characteristic 0 int numerators over a positive ``den``
    with gcd(den, *numerators) = 1.  Over a base field the tuples have
    length ``vars.count``.  Over an extension K = k[u]/(mu) of degree d the
    polynomial is stored as one in k[t, y, u] of degree below d in u
    (K[t, y] = k[t, y, u]/(mu)): each tuple has one more slot, the last,
    holding the power j of u, 0 <= j < d, so one coefficient in K spreads
    over up to d terms.  With reduced coefficients a_i/b_i that makes
    ``den`` = lcm(b_i), so the form is unique and equality and the hash
    compare it structurally.  The raw form is private to this module;
    readers outside it use :meth:`monomials`, :meth:`coeff`, :attr:`constant_term`,
    :attr:`constant_term_is_one`, :meth:`leading_term` and :meth:`eval`,
    which speak of monomials in t and y and of field elements.

    One validating and one trusted constructor: the public constructor
    validates and coerces untrusted terms; arithmetic results are canonical
    by construction and go through the trusted :meth:`_raw` instead, so no
    result is normalized twice.  :meth:`_raw` divides out a factor that the
    numerators share with ``den`` in characteristic 0, which costs nothing
    when ``den`` is 1.  Every field runs the same loops on the raw ints: a
    product adds the powers of u as it adds any other exponent, and
    :func:`_fold` then rewrites the powers of degree d and more.  Arithmetic, face
    restriction, the model-conversion image and the hash build no
    FieldElement and no Fraction; a sum that cancels is dropped at the
    merge that cancels it; substitution is Horner's rule on it.  Division
    forms quotients, so in characteristic 0 it reads each term once as a
    Fraction.  Field elements are built at the boundary only: by the
    validating constructor, :meth:`coeff`, :attr:`constant_term`,
    :meth:`leading_term`, :meth:`eval` and ``to_text`` over an extension
    field, and as the one inverse of a divisor's leading coefficient with a
    power of u.
    """

    __slots__ = ("spec", "vars", "terms", "den", "_hash", "_text")

    def __init__(self, spec: FieldSpec, vars: VarSet, terms: Mapping[tuple, Scalar]):
        self.spec = spec
        self.vars = vars
        slots = _slots(spec)
        clean = {}
        for exp, c in terms.items():
            if len(exp) != vars.count:
                raise ValueError("exponent vector length mismatch")
            c = spec.element(c).value
            if spec.ext is None:
                if c:
                    clean[tuple(exp)] = c
                continue
            # the coefficient's power-of-u vector, spread over the u slot
            exp = tuple(exp)
            for s, v in zip(slots, c):
                if v:
                    clean[exp + s] = v
        self.terms, self.den = _numerators(spec, clean)
        self._hash = self._text = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def _raw(cls, spec: FieldSpec, vars: VarSet, terms: dict, den: int = 1) -> "MultiPoly":
        """Trusted constructor: ``terms`` must have the right exponent
        length and nonzero raw coefficients of ``spec``, over a positive
        ``den`` (1 in characteristic p).  A factor the numerators share with
        ``den`` is divided out, so the result is reduced by construction;
        otherwise ``terms`` is stored as is, without copying."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {e: c // g for e, c in terms.items()}
        self = object.__new__(cls)
        self.spec = spec
        self.vars = vars
        self.terms = terms
        self.den = den
        self._hash = self._text = None
        return self

    @classmethod
    def zero(cls, spec, vars):
        return cls._raw(spec, vars, {})

    @classmethod
    def const(cls, spec, vars, c):
        cs, den = _scalar(spec, c)
        zero = (0,) * vars.count
        if spec.ext is None:
            return cls._raw(spec, vars, {zero: cs[0]} if cs[0] else {}, den)
        return cls._raw(spec, vars, {zero + s: c for s, c in zip(_slots(spec), cs) if c}, den)

    @classmethod
    def variable(cls, spec, vars, name):
        exp = [0] * vars.count
        exp[vars.index(name)] = 1
        return cls._raw(spec, vars, {tuple(exp) + _slots(spec)[0]: 1})

    def lift(self, vars: VarSet) -> "MultiPoly":
        """This polynomial in ``vars``, a ring with the same t-variables and
        at least as many y-variables; the added ones come last."""
        if vars.r != self.vars.r or vars.n < self.vars.n:
            raise ValueError("exponent vector length mismatch")
        k = self.vars.count
        pad = (0,) * (vars.n - self.vars.n)
        # the new y-slots go before the slot of u, if there is one
        return MultiPoly._raw(self.spec, vars,
                              {e[:k] + pad + e[k:]: c for e, c in self.terms.items()}, self.den)

    def _values(self) -> dict:
        """The coefficients as values that division acts on (see
        :func:`_rational`): the raw terms themselves unless ``den`` > 1."""
        den = self.den
        if den == 1:
            return self.terms
        return {e: Fraction(c, den) for e, c in self.terms.items()}

    # -- canonical identity ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.spec == other.spec
            and self.vars == other.vars
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spec, self.vars, self.den, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.spec != other.spec or self.vars != other.vars:
            raise WrongField("polynomials live in different rings")

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        return MultiPoly.const(self.spec, self.vars, other)

    def __add__(self, other):
        other = self._coerce(other)
        p = self.spec.char
        mine, theirs, den = self.terms, other.terms, self.den
        if other.den != den:
            # in characteristic 0: both numerator sets over the lcm of the
            # denominators
            den = lcm(den, other.den)
            k1, k2 = den // self.den, den // other.den
            mine = {e: c * k1 for e, c in mine.items()} if k1 != 1 else mine
            theirs = {e: c * k2 for e, c in theirs.items()} if k2 != 1 else theirs
        out = dict(mine)
        for e, c in theirs.items():
            s = out.get(e, 0) + c
            if p:
                s %= p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly._raw(self.spec, self.vars, out, den)

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.char
        return MultiPoly._raw(self.spec, self.vars, {
            e: p - c if p else -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        spec = self.spec
        p = spec.char
        if isinstance(other, (int, FieldElement)):
            cs, d = _scalar(spec, other)
            if spec.ext is None or not any(cs[1:]):  # a base-field scalar scales each term
                return self._times(cs[0], d) if cs[0] else MultiPoly._raw(spec, self.vars, {})
            other = MultiPoly.const(spec, self.vars, other)
        else:
            other = self._coerce(other)
        den = self.den * other.den
        # a monomial factor with no power of u shifts exponents injectively
        # and multiplies by a nonzero scalar, so nothing merges, cancels or
        # folds
        poly, mono = (self, other) if len(other.terms) == 1 else (other, self)
        if len(mono.terms) == 1:
            ((e2, c2),) = mono.terms.items()
            if spec.ext is None or not e2[-1]:
                return MultiPoly._raw(spec, self.vars, {
                    tuple(map(add, e1, e2)): c1 * c2 % p if p else c1 * c2
                    for e1, c1 in poly.terms.items()}, den)
        out: dict[tuple, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if p:
                    s %= p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        if spec.ext is not None:
            out, den = _fold(spec, out, den)
        return MultiPoly._raw(spec, self.vars, out, den)

    __rmul__ = __mul__

    def _times(self, c, d: int) -> "MultiPoly":
        """This polynomial times the nonzero raw base-field numerator ``c``
        over ``d``."""
        p = self.spec.char
        return MultiPoly._raw(self.spec, self.vars, {
            e: v * c % p if p else v * c for e, v in self.terms.items()}, self.den * d)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative exponent {k} for a polynomial")
        return square_and_multiply(self, k, MultiPoly.const(self.spec, self.vars, 1))

    def scale(self, c: FieldElement) -> "MultiPoly":
        return self * c

    def _integer_image(self, split: int, images: Mapping[tuple, Sequence[tuple]]) -> "MultiPoly":
        """The image of this polynomial under a map that is the identity on
        the first ``split`` variables and sends the monomial of each tail
        exponent vector e2 to the integer combination ``images[e2]`` of
        (tail exponent vector, integer) pairs: a term c*x^(e1 + e2) becomes
        the sum of m*c*x^(e1 + f) over (f, m) in ``images[e2]``.  A factor
        m of +-1 adds or subtracts c; other integers are coerced into the
        field once per call.  In characteristic 0 the numerators combine
        over the same denominator, and over an extension field the power of
        u rides along at the end of the tail (see :class:`_TailsWithU`)."""
        spec = self.spec
        p = spec.char
        if spec.ext is not None:
            images = _TailsWithU(images)
        scalars: dict[int, object] = {}
        out: dict[tuple, object] = {}
        for e, c in self.terms.items():
            head = e[:split]
            for f, m in images[e[split:]]:
                key = head + f
                s = out.get(key)
                if m == 1:
                    s = c if s is None else s + c
                elif m == -1:
                    s = -c if s is None else s - c
                else:
                    k = scalars.get(m)
                    if k is None:
                        k = scalars[m] = _scalar(spec, m)[0][0]
                    if not k:
                        continue
                    s = c * k if s is None else s + c * k
                if p:
                    s %= p
                if s:
                    out[key] = s
                else:
                    del out[key]
        return MultiPoly._raw(spec, self.vars, out, self.den)

    # -- structure ---------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        # at most one term per power of u, and none with t or y
        terms, count = self.terms, self.vars.count
        return len(terms) <= len(_slots(self.spec)) and all(not any(e[:count]) for e in terms)

    def monomials(self):
        """The exponent vectors (t-block then y-block) of the monomials with
        a nonzero coefficient, each once, as a sized view."""
        if self.spec.ext is None:
            return self.terms.keys()
        count = self.vars.count
        return dict.fromkeys([e[:count] for e in self.terms]).keys()

    def coeff(self, exp: tuple) -> FieldElement:
        """The coefficient of the monomial with exponent vector ``exp``."""
        spec, terms, den = self.spec, self.terms, self.den
        if spec.ext is None:
            c = terms.get(exp)
            if c is None:
                return spec.zero
            return FieldElement(spec, c if spec.char else Fraction(c, den))
        # the slots of the powers of u, read as one element
        cs = [terms.get(exp + s, 0) for s in _slots(spec)]
        if not any(cs):
            return spec.zero
        return FieldElement(spec, tuple(cs) if spec.char else tuple([Fraction(c, den) for c in cs]))

    @property
    def constant_term(self) -> FieldElement:
        return self.coeff((0,) * self.vars.count)

    @property
    def constant_term_is_one(self) -> bool:
        """Whether the constant term is 1, read from the raw terms: a
        numerator equal to ``den`` in the slot u^0 and none in the others."""
        zero, terms = (0,) * self.vars.count, self.terms
        first, *rest = _slots(self.spec)
        return terms.get(zero + first) == self.den and not any(zero + s in terms for s in rest)

    def leading_term(self) -> tuple[tuple, FieldElement]:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        e = max(self.terms)[:self.vars.count]
        return e, self.coeff(e)

    def degree_in(self, var: str) -> int:
        """Maximal exponent of var; errors on the zero polynomial."""
        if not self.terms:
            raise ZeroPolynomial("degree of the zero polynomial")
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coefficient_of(self, var: str, exponent: int) -> "MultiPoly":
        """The coefficient of var**exponent, as a polynomial with var absent."""
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == exponent:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return MultiPoly._raw(self.spec, self.vars, out, self.den)

    def substitute(self, assignments: Mapping[str, Scalar], drop: bool = False) -> "MultiPoly":
        """Evaluate some variables exactly; optionally remove them from the ring.

        Each value is put in by Horner's rule in its variable, on the
        polynomials that are the coefficients of its powers; over an
        extension field the products by a value with a power of u fold."""
        spec, vars, result = self.spec, self.vars, self
        for name, v in assignments.items():
            i = vars.index(name)
            value = MultiPoly.const(spec, vars, v)
            acc = MultiPoly.zero(spec, vars)
            for k in range(max((e[i] for e in result.terms), default=0), -1, -1):
                acc = acc * value + result.coefficient_of(name, k)
            result = acc
        if drop:
            for name in sorted(assignments, reverse=True):
                result = result.drop_var(name)
        return result

    def restrict_face(self, name: str, face) -> "MultiPoly":
        """Restriction to the face ``name`` = ``face`` of the cube, with
        ``name`` removed from the ring, in one pass over the terms.

        ``face`` is 0, 1 or INFINITY; the face at infinity keeps the terms of
        top degree in ``name`` (leading-coefficient extraction)."""
        return self._restrict_face(self.vars.index(name), face)

    def _restrict_face(self, i: int, face, top: int | None = None) -> "MultiPoly":
        """:meth:`restrict_face` for the variable at position ``i`` of the
        exponent vector.  At INFINITY it keeps the terms of degree ``top`` in
        that variable, by default the top degree present, so a ``top`` above
        it gives zero."""
        terms = self.terms
        if face is INFINITY:
            if top is None:
                top = max((e[i] for e in terms), default=0)
            out = {e[:i] + e[i + 1:]: c for e, c in terms.items() if e[i] == top}
        elif face == 0:
            out = {e[:i] + e[i + 1:]: c for e, c in terms.items() if not e[i]}
        elif face == 1:
            p = self.spec.char
            out = {}
            for e, c in terms.items():
                key = e[:i] + e[i + 1:]
                s = out.get(key)
                if s is None:
                    out[key] = c
                else:
                    s = s + c
                    if p:
                        s %= p
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        else:
            raise ValueError(f"{face!r} is not a face value (0, 1 or INFINITY)")
        return MultiPoly._raw(self.spec, self.vars._without(i), out, self.den)

    def drop_var(self, name: str) -> "MultiPoly":
        """Remove a variable not occurring in any term, reindexing the rest."""
        i = self.vars.index(name)
        if any(e[i] for e in self.terms):
            raise PolyError(f"{name} still occurs; substitute it first")
        out = {e[:i] + e[i + 1 :]: c for e, c in self.terms.items()}
        return MultiPoly._raw(self.spec, self.vars.drop(name), out, self.den)

    def eval(self, values: Sequence[FieldElement]) -> FieldElement:
        """Full evaluation at one value per variable (ValueError otherwise);
        values may live in an extension of the coefficient field, or be
        RatFuncs.  Each term is built from the value side and the sum starts
        from the first term, with the constant term last, so a value's own
        operators always take the coefficients."""
        if len(values) != self.vars.count:
            raise ValueError("need one value per variable")
        target = values[0].spec if values else self.spec
        acc = None
        for e in sorted(self.monomials(), reverse=True):
            c = self.coeff(e)
            c = c if c.spec == target else target.embed(c)
            term = None
            for v, k in zip(values, e):
                if k:
                    term = v**k if term is None else term * v**k
            term = c if term is None else term * c
            acc = term if acc is None else acc + term
        return target.zero if acc is None else acc

    def exact_div(self, g: "MultiPoly") -> "MultiPoly":
        """Return q with self == q*g, or raise InexactDivision.

        Over an extension field a divisor whose leading coefficient has a
        power of u is first scaled, with the dividend, by that
        coefficient's inverse, so the lex-leading term of the divisor is a
        base-field term with no u.  A one-term divisor c*x^e then shifts
        every exponent by -e, and scales every coefficient by 1/c unless
        c = 1; it divides exactly when no exponent goes negative.  Longer
        divisors run the division loop on the lex-leading term, in
        characteristic 0 on the coefficients as Fractions unless both
        denominators are 1 and the leading coefficient is +-1; over an
        extension field each step's product folds.
        """
        g = self._coerce(g)
        if not g:
            raise ZeroDivisor("division by the zero polynomial")
        spec = self.spec
        p = spec.char
        f, h = self, g
        if spec.ext is not None and max(g.terms)[-1]:
            c = g.leading_term()[1].inverse()
            f, h = self * c, g * c
        if len(h.terms) == 1:
            ((eg, cg),) = h.terms.items()
            out = {}
            for e, c in f.terms.items():
                if not all(map(ge, e, eg)):
                    raise InexactDivision(f"{g.to_text()} does not divide {self.to_text()}")
                out[tuple(map(sub, e, eg))] = c
            q = MultiPoly._raw(spec, self.vars, out, f.den)
            if cg == 1 and h.den == 1:
                return q
            return q._times(*_inverse(spec, cg, h.den))
        rem = dict(f._values())
        out: dict[tuple, object] = {}
        eg = max(h.terms)
        cg_inv = _rational(*_inverse(spec, h.terms[eg], h.den))
        divisor = h._values()
        # a divisor with powers of u makes steps whose products fold
        fold = spec.ext is not None and any(e[-1] for e in divisor)
        while rem:
            ef = max(rem)
            eq = tuple(a - b for a, b in zip(ef, eg))
            if any(k < 0 for k in eq):
                raise InexactDivision(f"{g.to_text()} does not divide {self.to_text()}")
            cq = rem[ef] * cg_inv
            if p:
                cq %= p
            out[eq] = cq
            neg_cq = p - cq if p else -cq
            # rem -= cq * x^eq * h, in place
            for e2, c2 in divisor.items():
                e = tuple(map(add, eq, e2))
                s = rem.get(e, 0) + neg_cq * c2
                if p:
                    s %= p
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
            if fold:
                rem, k = _fold(spec, rem, 1)
                if k != 1:  # rows over Q that are not integral: back to values
                    rem = {e: Fraction(c, k) for e, c in rem.items()}
        return MultiPoly._raw(spec, self.vars, *_numerators(spec, out))

    # -- text ----------------------------------------------------------------

    def to_text(self) -> str:
        if self._text is None:
            self._text = self._render_text()
        return self._text

    def _render_text(self) -> str:
        if not self.terms:
            return "0"
        names = self.vars.names()
        # a raw residue, or a numerator over den, prints as its field
        # element does; over an extension field each monomial's slots are
        # read as one element
        den = self.den
        items = self.terms.items()
        if self.spec.ext is not None:
            items = [(e, self.coeff(e)) for e in self.monomials()]
            text_of = FieldElement.to_text
        elif den == 1:
            text_of = str
        else:
            def text_of(c):
                g = gcd(c, den)
                return str(c // g) if g == den else f"{c // g}/{den // g}"
        parts = []
        for e, c in sorted(items, key=lambda kv: kv[0], reverse=True):
            mono = "*".join(
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(e)
                if k
            )
            ct = text_of(c)
            # a sum of powers of u whose leading coefficient is negative
            # keeps its sign outside the parentheses on a monomial, and
            # moves it to the separator as the constant term
            neg = ct.startswith("-") and (" " not in ct or not mono)
            if neg:
                ct = ct[1:]
            composite = ("+" in ct) or (" - " in ct)
            if composite and mono:
                ct = f"({ct})"
            if mono:
                body = mono if ct == "1" else f"{ct}*{mono}"
            else:
                body = ct
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.i = 0

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if "0" <= ch <= "9":
                j = i
                while j < n and "0" <= t[j] <= "9":
                    j += 1
                self.tokens.append(("num", t[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and (t[j].isalnum()):
                    j += 1
                self.tokens.append(("name", t[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


class _Parser:
    """Recursive-descent parser shared by polynomial and rational-function modes.

    atoms: callbacks building semantic values (const, var); allow_div: '/'
    as a general binary operator (rational mode) versus fraction literals only.
    """

    def __init__(self, text, make_const, make_var, allow_div):
        self.toks = _Tokenizer(text)
        self.make_const = make_const
        self.make_var = make_var
        self.allow_div = allow_div

    def parse(self):
        v = self.expr()
        kind, text, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return v

    def expr(self):
        kind, _, _ = self.toks.peek()
        negate = False
        if kind in "+-":
            self.toks.next()
            negate = kind == "-"
        v = self.term()
        if negate:
            v = -v
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "+":
                self.toks.next()
                v = v + self.term()
            elif kind == "-":
                self.toks.next()
                v = v - self.term()
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            kind, _, pos = self.toks.peek()
            if kind == "*":
                self.toks.next()
                v = v * self.factor()
            elif kind == "/" and self.allow_div:
                self.toks.next()
                d = self.factor()
                if not d:
                    raise ParseError("division by zero", pos)
                v = v / d
            elif kind == "/":
                raise ParseError("division is only allowed in numeric literals", pos)
            else:
                return v

    def factor(self):
        v = self.base()
        kind, _, pos = self.toks.peek()
        if kind == "^":
            self.toks.next()
            k2, text, p2 = self.toks.next()
            if k2 != "num":
                raise ParseError("exponent must be a nonnegative integer", p2)
            v = v ** int(text)
        return v

    def base(self):
        kind, text, pos = self.toks.next()
        if kind == "num":
            # fraction literal: uint '/' uint (polynomial mode only)
            k2, t2, _ = self.toks.peek()
            if k2 == "/" and not self.allow_div:
                self.toks.next()
                k3, t3, p3 = self.toks.next()
                if k3 != "num":
                    raise ParseError("expected denominator digits", p3)
                return self.make_const(int(text), int(t3), pos)
            return self.make_const(int(text), 1, pos)
        if kind == "name":
            return self.make_var(text, pos)
        if kind == "(":
            v = self.expr()
            k2, _, p2 = self.toks.next()
            if k2 != ")":
                raise ParseError("expected ')'", p2)
            return v
        raise ParseError(f"unexpected {text!r}", pos)


def _read_canonical(text: str, spec: FieldSpec, vars: VarSet) -> MultiPoly | None:
    """The polynomial over a prime field or Q whose ``to_text`` is ``text``,
    read in one pass straight into raw terms; None for anything else.

    Terms are split at the separators " + " and " - "; a term is an
    optional ASCII coefficient ``a`` or ``a/b`` followed by ``*``-joined
    variables with optional ``^k``.  The result is kept only when it renders
    back to ``text``, so every spelling that is not canonical (reordered or
    repeated factors, ``1*t1``, ``t1^1``, unreduced coefficients, ``t01``,
    extra spaces) comes back None, as do extension fields and input the
    general parser rejects.  Never raises."""
    if spec.ext is not None or not isinstance(text, str):
        return None
    if text == "0":
        return MultiPoly._raw(spec, vars, {})
    p = spec.char
    index = _name_index(vars.r, vars.n)
    count = vars.count
    tokens = text.split(" ")
    if not len(tokens) % 2:
        return None
    terms, common = {}, 1
    for j in range(0, len(tokens), 2):
        tok = tokens[j]
        if j:
            sep = tokens[j - 1]
            if sep != "+" and sep != "-":
                return None
            negative = sep == "-"
        else:
            negative = tok.startswith("-")
            if negative:
                tok = tok[1:]
        factors = tok.split("*")
        num = den = 1
        if factors[0][:1].isdigit():
            head, slash, tail = factors.pop(0).partition("/")
            num, den = _uint(head), _uint(tail) if slash else 1
            if num is None or den is None:
                return None
        exp = [0] * count
        for f in factors:
            name, caret, power = f.partition("^")
            i = index.get(name)
            d = _uint(power) if caret else 1
            if i is None or d is None:
                return None
            exp[i] = d
        if negative:
            num = -num
        if p:
            if not den % p:
                return None
            c = num * pow(den, -1, p) % p
        elif den:
            # over Q the terms are numerators over the lcm of the
            # denominators read so far
            if common % den:
                k = den // gcd(common, den)
                common *= k
                terms = {e: v * k for e, v in terms.items()}
            c = num * (common // den)
        else:
            return None
        if not c:
            return None
        terms[tuple(exp)] = c
    poly = MultiPoly._raw(spec, vars, terms, common)
    return poly if poly.to_text() == text else None


def parse_poly(text: str, spec: FieldSpec, vars: VarSet) -> MultiPoly:
    """Parse polynomial text over ``spec`` in ``vars``; inverse of ``to_text``.

    Canonical base-field text is read in one pass (:func:`_read_canonical`);
    any other text goes to the general parser, which gives the same
    polynomial for canonical text."""
    poly = _read_canonical(text, spec, vars)
    if poly is not None:
        return poly

    def const(num, den, pos):
        if den == 1:
            return MultiPoly.const(spec, vars, num)
        try:
            return MultiPoly.const(spec, vars, Fraction(num, den))
        except ZeroDivisionError:
            raise ParseError("zero denominator", pos) from None

    def var(name, pos):
        if name == "u":
            if not spec.is_extension:
                raise UnknownVariable("u requires an extension coefficient field")
            return MultiPoly.const(spec, vars, spec.gen_u)
        try:
            return MultiPoly.variable(spec, vars, name)
        except UnknownVariable:
            raise UnknownVariable(f"{name} is not among {vars.names()}") from None

    return _Parser(text, const, var, allow_div=False).parse()


class RatFunc:
    """A reduced rational function num/den in one parameter: monic denominator,
    gcd(num, den) = 1, and denominator 1 for zero.

    The public constructor validates and reduces untrusted input.  Arithmetic
    is canonical by construction: a product cancels only across the two
    fractions (gcd(a, d) and gcd(c, b) for a/b * c/d), a sum cancels only by
    the common part of the denominators (Henrici), and both return through
    the trusted :meth:`_raw`, so no result is reduced by a gcd of the full
    products.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num.spec != den.spec:
            raise WrongField("numerator and denominator over different fields")
        if not num:
            den = UniPoly.const(num.spec, 1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead_inv = den.leading.inverse()
            if den.leading != den.spec.one:
                num = num * lead_inv
                den = den * lead_inv
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: UniPoly, den: UniPoly) -> "RatFunc":
        """Trusted constructor: ``num/den`` must already be reduced, with
        ``den`` monic over the same field (1 when ``num`` is zero)."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def const(cls, spec: FieldSpec, c) -> "RatFunc":
        return cls._raw(UniPoly.const(spec, c), UniPoly.const(spec, 1))

    @classmethod
    def param(cls, spec: FieldSpec) -> "RatFunc":
        return cls._raw(UniPoly.x(spec), UniPoly.const(spec, 1))

    @classmethod
    def from_poly(cls, p: UniPoly) -> "RatFunc":
        return cls._raw(p, UniPoly.const(p.spec, 1))

    @property
    def spec(self) -> FieldSpec:
        return self.num.spec

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> FieldElement:
        if not self.is_constant:
            raise PolyError("not a constant")
        return self.num.coeff(0)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.to_text()})"

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            if other.spec is not self.spec and other.spec != self.spec:
                raise WrongField("rational functions over different fields")
            return other
        if isinstance(other, UniPoly):
            return RatFunc.from_poly(other)
        return RatFunc.const(self.spec, other)

    def __add__(self, other):
        o = self._coerce(other)
        a, b, c, d = self.num, self.den, o.num, o.den
        if not b.degree and not d.degree:
            num, den = a + c, b
        elif not b.degree:
            num, den = a * d + c, d  # gcd(a*d + c, d) = gcd(c, d) = 1
        elif not d.degree:
            num, den = a + c * b, b
        else:
            g = _common(b, d)
            if g is None:
                num, den = a * d + c * b, b * d
            else:
                # Henrici: a*d' + c*b' is prime to b' = b/g and to d' = d/g,
                # so over lcm(b, d) = b'*d it can share only factors of g
                b1 = b // g
                num = a * (d // g) + c * b1
                g2 = _common(num, g)
                if g2 is not None:
                    num, d = num // g2, d // g2
                den = b1 * d
        if not num:
            return RatFunc.const(self.spec, 0)
        return RatFunc._raw(num, den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        a, b, c, d = self.num, self.den, o.num, o.den
        if not a or not c:
            return RatFunc.const(self.spec, 0)
        # a/b and c/d are reduced, so only a with d and c with b can cancel
        g = _common(a, d)
        if g is not None:
            a, d = a // g, d // g
        g = _common(c, b)
        if g is not None:
            c, b = c // g, b // g
        return RatFunc._raw(a * c, b * d)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        # den/num is reduced too; only its denominator needs making monic
        lead = self.num.leading
        if lead == self.spec.one:
            return RatFunc._raw(self.den, self.num)
        lead_inv = lead.inverse()
        return RatFunc._raw(self.den * lead_inv, self.num * lead_inv)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        # a power of a reduced fraction with a monic denominator is reduced
        return RatFunc._raw(self.num**k, self.den**k)

    def compose(self, inner: "RatFunc") -> "RatFunc":
        """self(inner(s)) by :meth:`UniPoly.eval` at ``inner``, in RatFunc
        arithmetic; a field element over a RatFunc is a RatFunc too."""
        return self.num.eval(inner) / self.den.eval(inner)

    # -- values and orders ----------------------------------------------------

    def eval(self, x: FieldElement):
        """Value at x, or INFINITY at a pole (gcd 1 rules out 0/0)."""
        d = self.den.eval(x)
        if not d:
            return INFINITY
        return self.num.eval(x) / d

    def value_at_infinity(self):
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            return INFINITY
        if dn < dd:
            return self.spec.zero
        return self.num.leading / self.den.leading

    def ord_at(self, pi: UniPoly) -> int:
        if not self.num:
            raise ZeroPolynomial("order of the zero function")
        return self.num.ord_at(pi) - self.den.ord_at(pi)

    def ord_at_infinity(self) -> int:
        if not self.num:
            raise ZeroPolynomial("order of the zero function")
        return self.den.degree - self.num.degree

    def to_text(self, var: str = "t") -> str:
        if self.den.degree == 0 and self.den.coeff(0) == self.spec.one:
            return self.num.to_text(var)
        return f"({self.num.to_text(var)})/({self.den.to_text(var)})"


def _common(f: UniPoly, g: UniPoly):
    """The monic gcd of f and g when both have positive degree and it is
    not 1; None otherwise, when there is nothing to cancel."""
    if f.degree < 1 or g.degree < 1:
        return None
    h = poly_gcd(f, g)
    return h if h.degree else None


INFINITY = type("_Infinity", (), {
    "__repr__": lambda self: "INFINITY",
    "__bool__": lambda self: True,
})()


def parse_ratfunc(text: str, spec: FieldSpec, var: str = "t") -> RatFunc:
    """Parse a rational expression in one variable with full field operations."""
    def const(num, den, pos):
        return RatFunc.const(spec, num)  # '/' is division here, so den is always 1

    def mkvar(name, pos):
        if name == var:
            return RatFunc.param(spec)
        if name == "u" and spec.is_extension:
            return RatFunc.const(spec, spec.gen_u)
        raise UnknownVariable(f"{name} is not the parameter {var!r}")

    return _Parser(text, const, mkvar, allow_div=True).parse()


def parse_unipoly(text: str, spec: FieldSpec, var: str = "t") -> UniPoly:
    """Parse polynomial text in a single variable."""
    f = parse_ratfunc(text, spec, var)
    if f.den.degree != 0 or f.den.coeff(0) != spec.one:
        raise ParseError("expected a polynomial, got a proper rational function", 0)
    return f.num
