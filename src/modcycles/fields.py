"""Exact field arithmetic: Q, prime fields F_p, and simple extensions k[u]/(mu).

Canonical element forms are unique: reduced Fraction over Q, least nonnegative
residue over F_p, coefficient tuple of degree < deg(mu) over extensions.  All
values are immutable and hashable, and arithmetic never leaves canonical form,
so equality of representations is equality of field elements.

Finite fields store a generator of the multiplicative group: the first
element of order q - 1 in the canonical element enumeration (0, 1, ...,
p-1 for prime fields; coefficient tuples read as base-p numerals with the
constant coefficient least significant for extensions), found by testing
its powers at the prime divisors of q - 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Sequence, Union

Scalar = Union[int, Fraction, "FieldElement"]


class ModcyclesError(Exception):
    """The root of every typed modcycles error: each layer's base class
    (FieldError, PolyError, CycleError, MilnorError, WitnessError,
    SerializationError, the CLI's InputError) derives from it."""


class FieldError(ModcyclesError):
    """Base class for exact-arithmetic errors."""


class NonPrimeCharacteristic(FieldError):
    pass


class ReducibleExtensionPolynomial(FieldError):
    pass


class ExtensionNotSupported(FieldError):
    """Extension whose irreducibility cannot be certified at desk scale."""


class FieldTooLarge(FieldError):
    """A prime field with more than FINITE_FIELD_MAX_ORDER elements."""


class ZeroElement(FieldError):
    pass


class NotFiniteExtension(FieldError):
    pass


class ZeroPolynomial(FieldError):
    pass


class WrongField(FieldError):
    pass


class NotAPlace(FieldError):
    """A place of k(t) is a polynomial of positive degree; a unit divides everything."""


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_divisors(n) == [n]


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Field specifications and elements
# ---------------------------------------------------------------------------


def _reduction_rows(char, ext):
    # the reduction map of a schoolbook product modulo the monic mu of degree
    # d: for k = d .. 2d-2, the pair (k, the (i, c) pairs of the nonzero
    # coefficients c u^i of u^k mod mu)
    d = len(ext) - 1
    first = [-c % char if char else -c for c in ext[:d]]  # u^d = -(mu - u^d)
    row, rows = first, []
    for k in range(d, 2 * d - 1):
        rows.append((k, tuple((i, c) for i, c in enumerate(row) if c)))
        # u * row, with its u^d term folded back in through ``first``
        top, shifted = row[-1], [0 if char else Fraction(0)] + row[:-1]
        row = [lo + top * c for lo, c in zip(shifted, first)]
        if char:
            row = [x % char for x in row]
    return tuple(rows)


class FieldSpec:
    """A field: Q (char 0), F_p, or k[u]/(mu) for monic irreducible mu.

    ``ext`` stores the coefficients of mu low-degree-first including the
    leading 1; ``None`` means the base field itself.
    """

    __slots__ = ("char", "ext", "_zero_coeff", "_rows", "_hash", "__dict__")

    def __init__(self, char: int, ext: tuple | None):
        self.char = char
        self.ext = ext
        self._zero_coeff = 0 if char else Fraction(0)
        self._rows = _reduction_rows(char, ext) if ext else None
        # kept, so that hashing a polynomial over Q(alpha) hashes no Fraction
        self._hash = hash((char, ext))

    def __repr__(self):
        return f"FieldSpec({self.to_text()})"

    def __eq__(self, other):
        if self is other:  # specs are interned by make_field's cache
            return True
        return (
            isinstance(other, FieldSpec)
            and self.char == other.char
            and self.ext == other.ext
        )

    def __hash__(self):
        return self._hash

    # -- structure ---------------------------------------------------------

    @property
    def is_extension(self) -> bool:
        return self.ext is not None

    @property
    def is_finite(self) -> bool:
        return self.char != 0

    @property
    def degree(self) -> int:
        return len(self.ext) - 1 if self.ext else 1

    @cached_property
    def order(self) -> int | None:
        return self.char ** self.degree if self.char else None

    @cached_property
    def base(self) -> "FieldSpec":
        return make_field(self.char) if self.ext else self

    def to_text(self) -> str:
        if self.char == 0 and not self.ext:
            return "Q"
        if not self.ext:
            return f"F{self.char}"
        return f"{self.base.to_text()}[u]/({self._mu.to_text('u')})"

    @cached_property
    def _lists(self) -> "_Lists":
        """The kernel UniPoly arithmetic over this field runs on."""
        return _Lists(self)

    @cached_property
    def _int_rows(self) -> tuple:
        """(L, rows): the pairs of ``_rows`` for k = d .. 2d-2, indexed by
        k - d, with each coefficient an integer numerator over their least
        common denominator L, which is 1 over F_p and for an integral mu."""
        rows = [row for _, row in self._rows]
        den = math.lcm(*[Fraction(c).denominator for row in rows for _, c in row])
        return den, tuple(tuple((i, int(c * den)) for i, c in row) for row in rows)

    @cached_property
    def _mu(self) -> "UniPoly":
        """The modulus mu as a polynomial over the base field."""
        return UniPoly(self.base, self.ext)

    # -- element construction ----------------------------------------------

    def _base_value(self, x):
        if isinstance(x, FieldElement):
            if x.spec != self.base:
                raise WrongField(f"element of {x.spec.to_text()} used in {self.to_text()}")
            return x.value
        if self.char == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise WrongField(f"denominator {x.denominator} not invertible mod {self.char}")
            return (x.numerator * pow(x.denominator, -1, self.char)) % self.char
        return x % self.char

    def element(self, x: Scalar | Sequence) -> "FieldElement":
        """Coerce an int, Fraction, coefficient sequence, or element into this field."""
        cls = x.__class__
        if cls is FieldElement and (x.spec is self or x.spec == self):
            return x
        if self.ext is None:
            if cls is int and self.char:
                return FieldElement(self, x % self.char)
            return FieldElement(self, self._base_value(x))
        if isinstance(x, (list, tuple)):
            if len(x) > self.degree:
                x = (UniPoly(self.base, x) % self._mu).coeffs
            return FieldElement(self, self._pad([self.base._base_value(c) for c in x]))
        # base scalar embedded as a constant
        v = self.base._base_value(x)
        return FieldElement(self, self._pad([v] if v else []))

    def _pad(self, vec) -> tuple:
        d = self.degree
        return tuple(list(vec) + [self._zero_coeff] * (d - len(vec)))

    @cached_property
    def zero(self) -> "FieldElement":
        return self.element(0)

    @cached_property
    def one(self) -> "FieldElement":
        return self.element(1)

    @cached_property
    def gen_u(self) -> "FieldElement":
        """The class of u in an extension field."""
        if not self.ext:
            raise NotFiniteExtension("base field has no extension generator")
        return self.element([0, 1])

    def embed(self, e: "FieldElement") -> "FieldElement":
        """Embed a base-field element into this (extension) field."""
        if e.spec == self:
            return e
        if e.spec != self.base:
            raise WrongField(f"cannot embed {e.spec.to_text()} into {self.to_text()}")
        return self.element(e.value)

    # -- finite-field enumeration ------------------------------------------

    def elements(self) -> Iterator["FieldElement"]:
        if not self.is_finite:
            raise NotFiniteExtension("cannot enumerate an infinite field")
        p, d = self.char, self.degree
        for idx in range(p**d):
            digits = [(idx // p**i) % p for i in range(d)]
            if self.ext:
                yield FieldElement(self, tuple(digits))
            else:
                yield FieldElement(self, digits[0])

    @cached_property
    def generator(self) -> "FieldElement":
        """A multiplicative generator, the first in enumeration order.

        A nonzero e has order q - 1 exactly when e^((q - 1)/l) != 1 for
        every prime l dividing q - 1.
        """
        if not self.is_finite:
            raise NotFiniteExtension("generator requires a finite field")
        n = self.order - 1
        cofactors = [n // l for l in _prime_divisors(n)]
        for e in self.elements():
            if e and all(e**k != self.one for k in cofactors):
                return e
        raise FieldError("no generator found")  # unreachable for valid specs

    @cached_property
    def _dlog_table(self) -> dict:
        table, acc = {}, self.one
        for k in range(self.order - 1):
            table[acc.value] = k
            acc = acc * self.generator
        return table

    def dlog(self, e: "FieldElement") -> int:
        """Discrete log to the stored generator (finite fields only)."""
        if not e:
            raise ZeroElement("dlog of zero")
        return self._dlog_table[e.value]


class FieldElement:
    """A field element in canonical form, immutable and hashable."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        self.spec = spec
        self.value = value

    def __repr__(self):
        return f"<{self.to_text()} in {self.spec.to_text()}>"

    def __bool__(self):
        if self.spec.ext is None:
            return self.value != 0
        return any(self.value)

    def __eq__(self, other):
        if other.__class__ is FieldElement:
            return self.value == other.value and (self.spec is other.spec or self.spec == other.spec)
        if isinstance(other, (int, Fraction)):
            try:
                return self.value == self.spec.element(other).value
            except WrongField:  # a rational whose denominator the characteristic divides
                return False
        return NotImplemented

    def __hash__(self):
        # equal elements have equal values; the spec would only be hashed again
        return hash(self.value)

    def _coerce(self, other) -> "FieldElement | None":
        """``other`` as an element of this field, or None when it is not a
        field element or a rational scalar, so the operators can return
        NotImplemented and let the other operand's reflected method run."""
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise WrongField(
                    f"mixed fields {self.spec.to_text()} and {other.spec.to_text()}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.element(other)
        return None

    # ``+``, ``-`` and ``*`` take an element of the same interned spec
    # directly and send every other operand through _coerce.  Extension
    # values are padded tuples, so sums are pairwise and a product is a
    # schoolbook product reduced by the spec's precomputed rows.

    def __add__(self, other):
        s = self.spec
        if other.__class__ is not FieldElement or other.spec is not s:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c = self.value, other.value, s.char
        if s.ext is None:
            return FieldElement(s, (a + b) % c if c else a + b)
        if c:
            return FieldElement(s, tuple([(x + y) % c for x, y in zip(a, b)]))
        return FieldElement(s, tuple([x + y for x, y in zip(a, b)]))

    __radd__ = __add__

    def __neg__(self):
        s, a, c = self.spec, self.value, self.spec.char
        if s.ext is None:
            return FieldElement(s, -a % c if c else -a)
        if c:
            return FieldElement(s, tuple([-x % c for x in a]))
        return FieldElement(s, tuple([-x for x in a]))

    def __sub__(self, other):
        s = self.spec
        if other.__class__ is not FieldElement or other.spec is not s:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c = self.value, other.value, s.char
        if s.ext is None:
            return FieldElement(s, (a - b) % c if c else a - b)
        if c:
            return FieldElement(s, tuple([(x - y) % c for x, y in zip(a, b)]))
        return FieldElement(s, tuple([x - y for x, y in zip(a, b)]))

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        s = self.spec
        if other.__class__ is not FieldElement or other.spec is not s:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c = self.value, other.value, s.char
        if s.ext is None:
            return FieldElement(s, a * b % c if c else a * b)
        d = len(a)
        prod = [s._zero_coeff] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        for k, row in s._rows:
            h = prod[k]
            if h:
                for i, r in row:
                    prod[i] += h * r
        del prod[d:]
        return FieldElement(s, tuple([x % c for x in prod]) if c else tuple(prod))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        spec = self.spec
        if spec.ext is None:
            return FieldElement(spec, spec._lists.inverse(self.value))
        # extended Euclid over the base: s0 * self = r0 (mod mu) throughout,
        # ending at the gcd r0, a nonzero constant because mu is irreducible
        k = spec.base._lists
        r0, r1 = k.unwrap(spec._mu), _strip(list(self.value))
        s0, s1 = [], k.one
        while r1:
            q, rem = k.divmod(r0, r1)
            r0, r1, s0, s1 = r1, rem, s1, k.sub(s0, k.mul(q, s1))
        return FieldElement(spec, spec._pad(k.divmod(s0, r0)[0]))

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return square_and_multiply(self, n, self.spec.one)

    @property
    def in_base(self) -> bool:
        """True when an extension element lies in the base subfield."""
        if not isinstance(self.value, tuple):
            return True
        return not any(self.value[1:])

    def to_base(self) -> "FieldElement":
        if not isinstance(self.value, tuple):
            return self
        if not self.in_base:
            raise WrongField("element does not lie in the base field")
        v = self.value[0] if self.value else self.spec._zero_coeff
        return FieldElement(self.spec.base, v)

    def to_text(self) -> str:
        """Canonical text: decimal integers, 'a/b' fractions, u-polynomials."""
        if self.spec.ext is None:
            return str(self.value)
        return UniPoly(self.spec.base, self.value).to_text("u")


# ---------------------------------------------------------------------------
# The coefficient-list kernel
# ---------------------------------------------------------------------------
#
# UniPoly arithmetic runs on plain lists of raw coefficients, low-degree-first,
# with no trailing zeros (the zero polynomial is []): int residues mod p over
# a prime field, Fractions over Q and FieldElements over an extension field.
# Over a base field no FieldElement is built until a result is wrapped.  One
# loop per operation serves all three: sums and products are formed with the
# native operators and, over F_p, reduced mod p once per coefficient.
# ``powmod``, ``split_at``, ``poly_gcd`` and ``FieldElement.inverse`` are
# written on top of it.


def _strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def square_and_multiply(x, n: int, one, mul=operator.mul):
    """x**n for n >= 0 by square-and-multiply, starting from ``one``."""
    acc = one
    while n:
        if n & 1:
            acc = mul(acc, x)
        n >>= 1
        if n:  # the square after the top bit would go unused
            x = mul(x, x)
    return acc


class _Lists:
    """Polynomials over ``spec`` as lists of raw coefficients.

    ``raw`` is true over a base field, whose coefficients are unwrapped to
    their values.  ``p`` is the prime over F_p, where every result is
    reduced mod p, and 0 over Q and extension fields, whose operators keep
    values canonical.
    """

    __slots__ = ("spec", "p", "raw", "zero", "one")

    def __init__(self, spec: FieldSpec):
        self.spec, self.raw = spec, spec.ext is None
        self.p = spec.char if self.raw else 0
        self.zero = spec._zero_coeff if self.raw else spec.zero
        self.one = [spec.one.value if self.raw else spec.one]

    def unwrap(self, f: "UniPoly") -> Sequence:
        # the operations below never change their arguments in place
        return [c.value for c in f.coeffs] if self.raw else f.coeffs

    def wrap(self, a: list) -> "UniPoly":
        spec = self.spec
        f = object.__new__(UniPoly)
        f.spec = spec
        f.coeffs = tuple([FieldElement(spec, v) for v in a] if self.raw else a)
        return f

    def inverse(self, c):
        if self.p:
            return pow(c, -1, self.p)
        return 1 / c if self.raw else c.inverse()

    def add(self, a, b) -> list:
        p = self.p
        out = [(x + y) % p for x, y in zip(a, b)] if p else [x + y for x, y in zip(a, b)]
        out += a[len(b):] or b[len(a):]
        return _strip(out)

    def sub(self, a, b) -> list:
        p = self.p
        out = [(x - y) % p for x, y in zip(a, b)] if p else [x - y for x, y in zip(a, b)]
        out += a[len(b):] or [-y % p if p else -y for y in b[len(a):]]
        return _strip(out)

    def mul(self, a, b) -> list:
        # the leading coefficients are nonzero, so is their product
        if not a or not b:
            return []
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = self.p
        return [x % p for x in out] if p else out

    def divmod(self, a, b) -> tuple[list, list]:
        """(q, r) with a = q*b + r and deg r < deg b, for a nonzero b."""
        p, d = self.p, len(b) - 1
        rem = list(a)
        if len(rem) <= d:
            return [], rem
        inv = pow(b[-1], -1, p) if p else self.inverse(b[-1])
        low = [(i, y) for i, y in enumerate(b[:d]) if y]
        q = [self.zero] * (len(rem) - d)
        while len(rem) > d:
            # the top term cancels exactly, so it is popped, not subtracted;
            # over F_p the rest of the remainder is reduced once, at the end
            c = rem.pop() * inv
            if p:
                c %= p
            if c:
                k = len(rem) - d
                q[k] = c
                for i, y in low:
                    rem[k + i] -= y * c
        if p:
            for i, x in enumerate(rem):
                rem[i] = x % p
        return q, _strip(rem)

    def monic(self, a) -> list:
        p = self.p
        inv = pow(a[-1], -1, p) if p else self.inverse(a[-1])
        if inv == self.one[0]:
            return a
        return [x * inv % p for x in a] if p else [x * inv for x in a]


# ---------------------------------------------------------------------------
# Univariate polynomials over a FieldSpec
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial, coefficients low-degree-first, no trailing zeros.

    One validating and one trusted constructor: the public constructor
    validates untrusted input, coercing every coefficient into ``spec`` and
    dropping trailing zeros, and builders such as :meth:`const`, :meth:`x`
    and :meth:`derivative` go through it.  Arithmetic results are canonical
    by construction and go through the kernel's trusted ``_Lists.wrap``.

    Sums, differences, negation, products, division with remainder, ``monic``,
    ``powmod``, ``split_at`` and :func:`poly_gcd` run on the one
    coefficient-list kernel (``spec._lists``) and wrap the result once.
    Its lists hold int residues over F_p and Fractions over Q, so over a
    base field they make no FieldElement arithmetic; over an extension
    field they hold its FieldElements.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Sequence[Scalar]):
        self.spec = spec
        self.coeffs = tuple(_strip([spec.element(c) for c in coeffs]))

    @classmethod
    def zero(cls, spec):
        return cls(spec, ())

    @classmethod
    def const(cls, spec, c):
        return cls(spec, (c,))

    @classmethod
    def x(cls, spec):
        return cls(spec, (spec.zero, spec.one))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        return f"UniPoly({self.to_text()})"

    def coeff(self, i: int) -> FieldElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.spec.zero

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        k, other = self.spec._lists, self._coerce(other)
        return k.wrap(k.add(k.unwrap(self), k.unwrap(other)))

    __radd__ = __add__

    def __neg__(self):
        k = self.spec._lists
        return k.wrap(k.sub([], k.unwrap(self)))

    def __sub__(self, other):
        k, other = self.spec._lists, self._coerce(other)
        return k.wrap(k.sub(k.unwrap(self), k.unwrap(other)))

    def _coerce(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            if other.spec is not self.spec and other.spec != self.spec:
                raise WrongField(
                    f"mixed fields {self.spec.to_text()} and {other.spec.to_text()}"
                )
            return other
        return UniPoly.const(self.spec, other)

    def __mul__(self, other):
        k, other = self.spec._lists, self._coerce(other)
        return k.wrap(k.mul(k.unwrap(self), k.unwrap(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n} for a polynomial")
        return square_and_multiply(self, n, UniPoly.const(self.spec, 1))

    def __divmod__(self, other):
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        k = self.spec._lists
        q, r = k.divmod(k.unwrap(self), k.unwrap(other))
        return k.wrap(q), k.wrap(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if not self:
            raise ZeroPolynomial("cannot make the zero polynomial monic")
        k = self.spec._lists
        return k.wrap(k.monic(k.unwrap(self)))

    def derivative(self) -> "UniPoly":
        return UniPoly(self.spec, [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def eval(self, x: FieldElement) -> FieldElement:
        """Evaluate at x; coefficients embed into x's field when it extends ours.

        At a field element of its own prime field or Q, Horner's loop runs
        on raw residues mod p or Fractions and wraps the value once; other
        points, rational functions too, take the loop on their own operators."""
        spec, target = self.spec, x.spec
        if spec.ext is None and isinstance(x, FieldElement) and (target is spec or target == spec):
            p, v, acc = spec.char, x.value, spec._zero_coeff
            for c in reversed(self.coeffs):
                acc = acc * v + c.value
                if p:
                    acc %= p
            return FieldElement(spec, acc)
        acc = target.zero
        for c in reversed(self.coeffs):
            cc = c if c.spec == target else target.embed(c)
            acc = acc * x + cc
        return acc

    def powmod(self, n: int, modulus: "UniPoly") -> "UniPoly":
        if n < 0:
            raise ValueError(f"negative exponent {n} for a polynomial")
        modulus = self._coerce(modulus)
        if not modulus:
            raise ZeroDivisionError("division by zero polynomial")
        k = self.spec._lists
        m = k.unwrap(modulus)
        acc = square_and_multiply(k.divmod(k.unwrap(self), m)[1], n, k.divmod(k.one, m)[1],
                                  lambda a, b: k.divmod(k.mul(a, b), m)[1])
        return k.wrap(acc)

    def ord_at(self, pi: "UniPoly") -> int:
        """Multiplicity of the monic irreducible pi in self (self nonzero)."""
        return self.split_at(pi)[0]

    def split_at(self, pi: "UniPoly") -> tuple[int, "UniPoly"]:
        """(k, g) with self = pi^k * g and pi not dividing g (self nonzero)."""
        if not self:
            raise ZeroPolynomial("order of zero polynomial")
        if pi.degree < 1:
            raise NotAPlace(f"{pi.to_text()} has degree < 1, so it is not a place")
        k = self.spec._lists
        b, f, n = k.unwrap(self._coerce(pi)), k.unwrap(self), 0
        while True:
            q, r = k.divmod(f, b)
            if r:
                return n, k.wrap(f) if n else self
            f, n = q, n + 1

    def to_text(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            mono = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
            ct = c.to_text()
            neg = ct.startswith("-") and "+" not in ct and " - " not in ct[1:]
            if neg:
                ct = ct[1:]
            composite = ("+" in ct) or (" - " in ct)
            if composite:
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


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd."""
    k = a.spec._lists
    x, y = k.unwrap(a), k.unwrap(a._coerce(b))
    while y:
        x, y = y, k.divmod(x, y)[1]
    return k.wrap(k.monic(x) if x else [])


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------


def _freeze_mu(char: int, mu) -> tuple:
    coeffs = mu.coeffs if isinstance(mu, UniPoly) else mu
    return tuple(c.value for c in UniPoly(make_field(char), coeffs).coeffs)


# Largest finite field make_field builds, prime or extension.  It bounds
# every cost that grows with the order q: is_prime's trial division of the
# characteristic and the factorization of q - 1 (up to sqrt(q) divisions
# each), and the discrete-log table (q - 1 products).  The generator test
# needs only a few powers per candidate, and factorization only powers with
# exponents of about log q bits.
FINITE_FIELD_MAX_ORDER = 2**16


def make_field(characteristic: int, mu=None) -> FieldSpec:
    """Build a validated field: Q, F_p, or an extension by monic irreducible mu.

    mu may be a UniPoly over the base or a low-degree-first coefficient
    sequence.  Irreducibility is checked by trial factorization over finite
    fields and by rational-root extraction (degree <= 3, within the bounds
    of factor_univariate) over Q.  A prime characteristic above
    FINITE_FIELD_MAX_ORDER raises FieldTooLarge before any primality test,
    and a finite extension of more than FINITE_FIELD_MAX_ORDER elements
    raises ExtensionNotSupported.  Equal inputs return the same interned
    spec.
    """
    ext = None if mu is None else _freeze_mu(characteristic, mu)
    return _validated_field(characteristic, ext)


@lru_cache(maxsize=None)
def _validated_field(char: int, ext: tuple | None) -> FieldSpec:
    # lru_cache stores only returned specs, so invalid input raises on every call
    if ext is None:
        if char > FINITE_FIELD_MAX_ORDER:
            raise FieldTooLarge(
                f"F_{char} has more than FINITE_FIELD_MAX_ORDER = "
                f"{FINITE_FIELD_MAX_ORDER} elements"
            )
        if char != 0 and not is_prime(char):
            raise NonPrimeCharacteristic(f"{char} is not 0 or prime")
        return FieldSpec(char, None)
    base = make_field(char)
    if len(ext) < 3:
        raise ReducibleExtensionPolynomial("extension degree must be at least 2")
    if ext[-1] != (1 if char else Fraction(1)):
        raise ReducibleExtensionPolynomial("extension polynomial must be monic")
    poly = UniPoly(base, list(ext))
    if char and char**poly.degree > FINITE_FIELD_MAX_ORDER:
        raise ExtensionNotSupported(
            f"F_{char}^{poly.degree} has more than FINITE_FIELD_MAX_ORDER = "
            f"{FINITE_FIELD_MAX_ORDER} elements"
        )
    if char == 0 and poly.degree > 3:
        raise ExtensionNotSupported(
            "irreducibility over Q is certified only up to degree 3"
        )
    if char == 0 and not _rational_factor(poly).fully_factored:
        raise ExtensionNotSupported(
            f"irreducibility of {poly.to_text('u')} over Q is past the rational-root bounds"
        )
    if not is_irreducible(poly):
        raise ReducibleExtensionPolynomial(f"{poly.to_text('u')} factors over {base.to_text()}")
    spec = FieldSpec(char, ext)
    if spec.is_finite:
        _ = spec.generator  # found and cached at construction
    return spec


# Fixed moduli for the usual small extensions, so canonical forms are
# reproducible across runs.  Each entry is validated by make_field.
EXTENSION_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}


def standard_extension(p: int, d: int) -> FieldSpec:
    """F_{p^d} with the documented default modulus."""
    if d == 1:
        return make_field(p)
    try:
        mu = EXTENSION_MODULI[(p, d)]
    except KeyError:
        raise ExtensionNotSupported(f"no stored modulus for F_{p}^{d}") from None
    return make_field(p, mu)


# ---------------------------------------------------------------------------
# Univariate factorization
# ---------------------------------------------------------------------------


class FactorPart:
    """One factor of a factorization: monic polynomial, multiplicity, and
    whether irreducibility is certified (over Q high-degree cofactors are not)."""

    __slots__ = ("poly", "multiplicity", "irreducible")

    def __init__(self, poly: UniPoly, multiplicity: int, irreducible: bool):
        self.poly = poly
        self.multiplicity = multiplicity
        self.irreducible = irreducible

    def __repr__(self):
        tag = "" if self.irreducible else ", unfactored"
        return f"({self.poly.to_text()})^{self.multiplicity}{tag}"

    def __eq__(self, other):
        return (
            isinstance(other, FactorPart)
            and self.poly == other.poly
            and self.multiplicity == other.multiplicity
            and self.irreducible == other.irreducible
        )


class Factorization:
    __slots__ = ("unit", "parts")

    def __init__(self, unit: FieldElement, parts: Sequence[FactorPart]):
        self.unit = unit
        self.parts = tuple(
            sorted(parts, key=lambda p: (p.poly.degree, p.poly.to_text()))
        )

    def expand(self) -> UniPoly:
        acc = UniPoly.const(self.unit.spec, self.unit)
        for part in self.parts:
            acc = acc * part.poly**part.multiplicity
        return acc

    @property
    def fully_factored(self) -> bool:
        return all(p.irreducible for p in self.parts)

    def __repr__(self):
        return f"Factorization({self.unit.to_text()}; {list(self.parts)})"


def _pth_root(f: UniPoly) -> UniPoly:
    # f = g(x^p); over F_{p^d} the coefficients need the inverse Frobenius
    p = f.spec.char
    d = f.spec.degree
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(f.coeffs[i] ** (p ** (d - 1)))
    return UniPoly(f.spec, out)


def _squarefree_parts(f: UniPoly) -> list[tuple[UniPoly, int]]:
    # monic f -> [(g_i, m_i)] with f = prod g_i^{m_i}; the p-th root branches
    # are reached only in characteristic p
    if f.degree <= 0:
        return []
    p = f.spec.char
    df = f.derivative()
    if not df:
        return [(g, m * p) for g, m in _squarefree_parts(_pth_root(f))]
    out = []
    c = poly_gcd(f, df)
    w = (f // c).monic()
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = (w // y).monic()
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        out.extend((g, m * p) for g, m in _squarefree_parts(_pth_root(c)))
    return out


def _distinct_degree_parts(f: UniPoly) -> Iterator[tuple[UniPoly, int]]:
    # monic squarefree f -> (g, d) in increasing d, g the product of f's
    # irreducible factors of degree d: gcd(f, t^(q^d) - t) for d = 1, 2, ...
    # while deg f >= 2d, and what is left is irreducible
    q, t = f.spec.order, UniPoly.x(f.spec)
    frob, d = t, 1
    while f.degree >= 2 * d:
        frob = frob.powmod(q, f)
        g = poly_gcd(f, frob - t)
        if g.degree > 0:
            yield g, d
            f = f // g
        d += 1
    if f.degree > 0:
        yield f, f.degree


def _monic_splitters(spec: FieldSpec, n: int) -> Iterator[UniPoly]:
    # the monic polynomials of degree 1 .. n - 1, by degree; the field's
    # elements are listed only once degree 2 is reached
    one = spec.one
    for c in spec.elements():
        yield UniPoly(spec, (c, one))
    for deg in range(2, n):
        for low in itertools.product(spec.elements(), repeat=deg):
            yield UniPoly(spec, low + (one,))


def _trace_splitters(spec: FieldSpec, n: int) -> Iterator[UniPoly]:
    # b * t^j for b in the F_2-basis 1, u, ..., u^(k-1) of F_q and 1 <= j < n
    basis = [spec.element([0] * i + [1]) for i in range(spec.degree)] if spec.ext else [spec.one]
    for j in range(1, n):
        for b in basis:
            yield UniPoly(spec, (spec.zero,) * j + (b,))


def _splitting_poly(h: UniPoly, g: UniPoly, d: int) -> UniPoly:
    # gcd(g, result) is the product of the degree-d factors of g at which h is
    # a nonzero square (odd q: h^((q^d - 1)/2) - 1) or has absolute trace 0
    # (q = 2^k: h + h^2 + ... + h^(2^(kd - 1)))
    spec = g.spec
    if spec.char != 2:
        return h.powmod((spec.order**d - 1) // 2, g) - 1
    h = h % g
    trace = h
    for _ in range(spec.degree * d - 1):
        h = h * h % g
        trace = trace + h
    return trace


def _equal_degree_factors(g: UniPoly, d: int) -> list[UniPoly]:
    """The irreducible factors of a monic squarefree g whose factors all have degree d.

    Every splitter is tried on every piece that is still reducible.  The
    splitters separate any two factors, so the split is complete.  Odd q:
    some h of degree < deg g is a square at one factor and not at the
    other, by the Chinese remainder theorem; scaling h by c multiplies each
    factor's character by the same chi(c), so monic h suffice.  q = 2^k:
    Tr_{q^d/2}(b * a^j) = Tr_{q/2}(b * Tr_{q^d/q}(a^j)) at a root a; roots
    of two distinct factors differ in some Tr_{q^d/q}(a^j) with j < 2d (each
    trace sequence satisfies the linear recurrence of its factor, so two that
    agree for j < 2d agree for all j), and the trace form over F_2 is
    nondegenerate.
    """
    spec, count = g.spec, g.degree // d
    splitters = (_trace_splitters if spec.char == 2 else _monic_splitters)(spec, g.degree)
    factors = [g]
    for h in splitters:
        if len(factors) == count:
            break
        pieces = []
        for p in factors:
            s = poly_gcd(p, _splitting_poly(h, p, d)) if p.degree > d else p
            pieces += [s, p // s] if 0 < s.degree < p.degree else [p]
        factors = pieces
    return factors


# Bounds that keep factorization finite on untrusted input.  A squarefree
# part past a bound is returned unfactored, so place enumeration raises
# UnfactorableEntry.  Worst cases measured at the bounds on one core of a
# 2-core x86 box, Python 3.11: splitting a degree-64 part into 64 linear
# factors over F_65521 takes 0.08 s, into 32 quadratics over F_9 0.08 s.
# A random degree-64 part, whose distinct-degree pass runs to d = 32, takes
# 0.03 s over F_7 and 1.0 s over F_65521, but 33 s over F_{2^16} and 53 s
# over F_{3^10}: each pass step is about log2(q) products mod the part, and
# a coefficient product in a large extension is slow.  Over Q the divisor
# scan of an end coefficient near 10^10 takes 0.02 s, and 1024 candidate
# roots of a degree-64 part take 0.5 s.
SQUAREFREE_SPLIT_MAX_DEGREE = 64
RATIONAL_ROOT_MAX_INT = 10**10
RATIONAL_ROOT_MAX_TRIES = 1024


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_parts(g: UniPoly, m: int) -> list[FactorPart]:
    # monic squarefree g over Q with g(0) != 0, a factor of multiplicity m:
    # peel off its rational roots by the rational root theorem; a rootless
    # cofactor of degree 2 or 3 is irreducible
    spec = g.spec
    parts = []
    tries = 0
    while g.degree > 1:
        lcm = math.lcm(*(c.value.denominator for c in g.coeffs))
        a0 = int(g.coeffs[0].value * lcm)  # the integerized g has leading coefficient lcm
        if max(abs(a0), lcm) > RATIONAL_ROOT_MAX_INT:
            return parts + [FactorPart(g, m, False)]
        root = None
        for num, den, sign in itertools.product(_divisors(a0), _divisors(lcm), (1, -1)):
            tries += 1
            if tries > RATIONAL_ROOT_MAX_TRIES:
                return parts + [FactorPart(g, m, False)]
            cand = Fraction(sign * num, den)
            if not g.eval(spec.element(cand)):
                root = cand
                break
        if root is None:
            break
        lin = UniPoly(spec, [-root, 1])
        parts.append(FactorPart(lin, m, True))
        g = g // lin
    return parts + [FactorPart(g, m, g.degree <= 3)]


def _rational_factor(f: UniPoly) -> Factorization:
    spec = f.spec
    g = f.monic()
    parts: list[FactorPart] = []
    # strip roots at zero
    k = 0
    while g.degree > 0 and not g.coeff(0):
        g = g // UniPoly.x(spec)
        k += 1
    if k:
        parts.append(FactorPart(UniPoly.x(spec), k, True))
    for h, m in _squarefree_parts(g):
        parts.extend(_rational_parts(h, m))
    return Factorization(f.leading, parts)


def factor_univariate(f: UniPoly) -> Factorization:
    """Factor a nonzero univariate polynomial.

    Over finite fields: squarefree decomposition, then each squarefree part
    of degree at most SQUAREFREE_SPLIT_MAX_DEGREE is split by gcds alone
    (Cantor-Zassenhaus): distinct-degree parts gcd(g, t^(q^d) - t), then a
    deterministic equal-degree split of each.  Over Q: squarefree
    decomposition, then the rational roots of each part, found among at most
    RATIONAL_ROOT_MAX_TRIES candidates while its integerized end
    coefficients are at most RATIONAL_ROOT_MAX_INT; a rootless cofactor of
    degree 2 or 3 is certified irreducible.  Parts past a bound, and larger
    rootless cofactors, are returned unfactored.  A polynomial of degree 1
    is its own factorization over every field; otherwise extensions of Q
    raise ExtensionNotSupported.
    """
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree == 1:
        # irreducible over every field, extensions of Q included
        return Factorization(f.leading, [FactorPart(f.monic(), 1, True)])
    if f.spec.char == 0:
        if f.spec.is_extension:
            raise ExtensionNotSupported("factorization over extensions of Q is not supported")
        return _rational_factor(f)
    parts = []
    for g, m in _squarefree_parts(f.monic()):
        if g.degree > SQUAREFREE_SPLIT_MAX_DEGREE:
            parts.append(FactorPart(g, m, False))
            continue
        for h, d in _distinct_degree_parts(g):
            parts.extend(FactorPart(irr, m, True) for irr in _equal_degree_factors(h, d))
    return Factorization(f.leading, parts)


def is_irreducible(f: UniPoly) -> bool:
    """Irreducibility test; over Q certified only up to degree 3.

    Over a finite field, one distinct-degree pass that stops at its first
    part: a reducible f has an irreducible factor of degree at most
    deg f / 2, squarefree or not, so only an irreducible f comes first.  Past
    degree 1, extensions of Q raise ExtensionNotSupported.
    """
    if f.degree <= 0:
        return False
    if f.degree == 1:
        return True
    if f.spec.char == 0:
        if f.spec.is_extension:
            raise ExtensionNotSupported("irreducibility over extensions of Q is not supported")
        parts = _rational_factor(f).parts
        return len(parts) == 1 and parts[0].multiplicity == 1 and parts[0].irreducible
    g = f.monic()
    return next(_distinct_degree_parts(g)) == (g, g.degree)


# ---------------------------------------------------------------------------
# The K_1 norm for finite extensions
# ---------------------------------------------------------------------------


def norm_k1_finite(alpha: FieldElement) -> FieldElement:
    """Norm F_{q^d} -> F_q of a nonzero element: alpha^((q^d-1)/(q-1))."""
    spec = alpha.spec
    if not spec.is_finite or not spec.is_extension:
        raise NotFiniteExtension(f"{spec.to_text()} is not a finite extension")
    if not alpha:
        raise ZeroElement("norm of zero")
    q = spec.base.order
    e = (spec.order - 1) // (q - 1)
    result = alpha**e
    return result.to_base()
