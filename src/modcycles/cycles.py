"""The cubical cycle complex with modulus at desk scale.

Two coordinate models of the cube are supported and never mixed:

* ``ORIGINAL``  --  the cube is P^1 minus {1}; faces sit at 0 and infinity,
  the modulus locus is y = 1, and the boundary is
  sum_i (-1)^i (d_i^inf - d_i^0).
* ``PSI``       --  the cube is the affine line; faces sit at 0 and 1, the
  modulus locus is y = infinity, and the boundary is
  sum_i (-1)^i (d_i^0 - d_i^1).

The models correspond under y -> 1/(1-y), which sends 0 -> 1, inf -> 0 and
1 -> inf; :func:`psi_convert` applies that substitution and the induced face
relabeling, so boundaries commute with conversion.  :class:`CoordModel` is
the one place that knows the faces, the puncture and the signs.

Hypersurface cycles are formal Z-combinations of polynomial components, each
taken up to scalar: components are normalized to constant term 1 when the
constant term is nonzero, else to leading coefficient 1.  Restriction to a
face y_i = inf keeps the terms of the component's own degree in y_i: it
restricts the closure in (P^1)^n, so restrictions to composite faces commute
and are taken one variable at a time.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from math import comb
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .fields import (
    ExtensionNotSupported,
    FieldElement,
    FieldSpec,
    ModcyclesError,
    UniPoly,
    WrongField,
    factor_univariate,
    make_field,
    poly_gcd,
)
from .polyring import INFINITY, MultiPoly, RatFunc, VarSet


class CycleError(ModcyclesError):
    pass


class ImproperFaceIntersection(CycleError):
    pass


class ConstantTermZero(CycleError):
    pass


class WrongModel(CycleError):
    pass


class UndefinedAtPole(CycleError):
    pass


class UnfactorableEntry(CycleError):
    pass


class IndeterminateCoordinate(CycleError):
    pass


class ImproperBoundary(CycleError):
    pass


class DegenerateCurve(CycleError):
    pass


class CubeTooLarge(CycleError):
    pass


class CoordModel(Enum):
    """A model of the cube: where a coordinate value lies on it, the sign of
    each face in the boundary, and the change of model of a coordinate."""

    ORIGINAL = "ORIGINAL"
    PSI = "PSI"

    @property
    def faces(self):
        """Face values; INFINITY stands for the face at infinity."""
        return (0, INFINITY) if self is CoordModel.ORIGINAL else (0, 1)

    @property
    def boundary_pair(self):
        """(positive face, negative face) in the boundary convention."""
        return (INFINITY, 0) if self is CoordModel.ORIGINAL else (0, 1)

    @property
    def other(self):
        return CoordModel.PSI if self is CoordModel.ORIGINAL else CoordModel.ORIGINAL

    def locate(self, v) -> str | None:
        """Where the coordinate value ``v``, an element of any field or
        INFINITY, lies: "improper" on a face, "excluded" on the puncture (1
        in ORIGINAL, infinity in PSI), None inside the cube."""
        original = self is CoordModel.ORIGINAL
        if v is INFINITY:
            return "improper" if original else "excluded"
        if not v:
            return "improper"
        if v == v.spec.one:
            return "excluded" if original else "improper"
        return None

    def face_sign(self, i: int, face) -> int:
        """The sign of the face y_i = face in the boundary
        sum_i (-1)^i (d_i^pos - d_i^neg)."""
        return (-1) ** i if face == self.boundary_pair[0] else -((-1) ** i)

    def convert(self, y):
        """The coordinate ``y`` of the other model, a field element or a
        RatFunc, in this one: y -> 1/(1 - y) into PSI, y -> (y - 1)/y into
        ORIGINAL.  The pole, y = 1 or y = 0, raises UndefinedAtPole."""
        one = y.spec.one if isinstance(y, FieldElement) else RatFunc.const(y.spec, 1)
        if self is CoordModel.PSI:
            h = one - y
            if not h:
                raise UndefinedAtPole("y = 1 maps to infinity in the PSI model")
            return h.inverse()
        if not y:
            raise UndefinedAtPole("y = 0 maps to infinity in the ORIGINAL model")
        return (y - one) / y


def _face_text(face) -> str:
    return "inf" if face is INFINITY else str(face)


class ModulusDatum:
    """A principal effective divisor on A^r cut out by a polynomial in the
    t-variables; when it is t1^m1 ... tr^mr with every m_i >= 1, however
    spelled, it is monomial and carries its exponents (else None)."""

    __slots__ = ("r", "divisor_poly", "monomial_exponents")

    def __init__(self, divisor_poly: MultiPoly):
        if divisor_poly.vars.n != 0:
            raise ValueError("modulus divisor must involve only t-variables")
        if not divisor_poly or divisor_poly.is_constant:
            raise ValueError("modulus divisor must be a nonzero nonunit")
        self.r = divisor_poly.vars.r
        self.divisor_poly = divisor_poly
        self.monomial_exponents = None
        monomials = divisor_poly.monomials()
        if len(monomials) == 1:
            (e,) = monomials
            if all(m >= 1 for m in e) and divisor_poly.coeff(e) == divisor_poly.spec.one:
                self.monomial_exponents = e

    @classmethod
    def monomial(cls, spec: FieldSpec, exponents: Sequence[int]) -> "ModulusDatum":
        exps = tuple(int(m) for m in exponents)
        D = cls(MultiPoly(spec, VarSet(len(exps), 0), {exps: spec.one}))
        if not D.is_monomial:
            raise ValueError("monomial exponents must be >= 1")
        return D

    @property
    def spec(self) -> FieldSpec:
        return self.divisor_poly.spec

    @property
    def is_monomial(self) -> bool:
        return self.monomial_exponents is not None

    def radical_poly(self) -> MultiPoly:
        """t1...tr, the radical of a monomial divisor."""
        return MultiPoly(self.spec, self.divisor_poly.vars, {(1,) * self.r: self.spec.one})

    def __eq__(self, other):
        return isinstance(other, ModulusDatum) and self.divisor_poly == other.divisor_poly

    def __repr__(self):
        return f"ModulusDatum({self.divisor_poly.to_text()})"


def normalize_component(p: MultiPoly) -> MultiPoly:
    """Scale so the constant term is 1 when nonzero, else the leading coefficient."""
    if not p:
        raise ValueError("zero polynomial is not a hypersurface component")
    if p.constant_term_is_one:
        return p
    c = p.constant_term or p.leading_term()[1]
    if c == p.spec.one:
        return p
    return p * c.inverse()


def _strip_excluded_factors(p: MultiPoly, model: CoordModel) -> MultiPoly:
    """Remove factors supported on the cube's puncture.

    In the ORIGINAL model an irreducible polynomial whose zero set lies in
    {y_j = 1} is y_j - 1 up to scalar, so dividing out 1 - y_j powers makes
    the component an honest cycle representative; face restrictions would
    otherwise accumulate such empty factors.  PSI components are polynomials,
    which never vanish only at infinity.

    1 - y_j is monic in y_j up to sign, so it divides p exactly when p
    vanishes at y_j = 1; that cheap test decides each division."""
    if model is not CoordModel.ORIGINAL or p.vars.n == 0 or p.is_constant:
        return p
    for j in range(1, p.vars.n + 1):
        name = f"y{j}"
        factor = None
        while not p.is_constant and not p.restrict_face(name, 1):
            if factor is None:
                factor = MultiPoly.const(p.spec, p.vars, 1) - MultiPoly.variable(p.spec, p.vars, name)
            p = p.exact_div(factor)
    return p


class FormalSum:
    """Formal Z-combination of canonical keys over a fixed ambient.

    Invariant: ``terms`` maps canonical keys to nonzero multiplicities.  A
    subclass names its ambient attributes in ``_AMBIENT`` and the error
    raised when adding summands of different ambients in ``_MISMATCH``; its
    public ``__init__`` validates untrusted keys through :meth:`_collect`.
    Sums, negatives and scalings only re-weight keys that are already
    canonical, so they build their result through the trusted
    :meth:`_trusted`.
    """

    __slots__ = ("terms",)
    _AMBIENT: tuple[str, ...] = ()
    _MISMATCH: type[Exception] = Exception

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._AMBIENT)
        # the property ``_ambient`` is the tuple of the _AMBIENT values
        # (attrgetter of a single name returns its value bare)
        cls._ambient = property(get if len(cls._AMBIENT) > 1 else lambda self: (get(self),))

    def _collect(self, terms, canonical_key) -> None:
        """Merge untrusted ``terms``, given as (mult, key) pairs or as a
        key -> mult mapping; ``canonical_key`` validates a key and returns
        its canonical form, or None for a key that cuts out nothing."""
        acc = {}
        items = terms.items() if isinstance(terms, Mapping) else ((k, m) for m, k in terms)
        for key, mult in items:
            key = canonical_key(key)
            if key is not None:
                acc[key] = acc.get(key, 0) + mult
        self.terms = {k: m for k, m in acc.items() if m}

    @classmethod
    def _trusted(cls, ambient: tuple, terms: Mapping):
        """Trusted constructor: ``ambient`` holds the values of ``_AMBIENT``
        and every key of ``terms`` must already be canonical for it; zero
        multiplicities are dropped."""
        self = object.__new__(cls)
        for name, value in zip(cls._AMBIENT, ambient):
            setattr(self, name, value)
        self.terms = {k: m for k, m in terms.items() if m}
        return self

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._ambient == other._ambient
            and self.terms == other.terms
        )

    def _merge(self, other, sign: int):
        """self + sign * other in one pass over other's terms."""
        if type(other) is not type(self):
            return NotImplemented
        ambient = self._ambient
        if ambient != other._ambient:
            raise self._MISMATCH(f"{type(self).__name__} summands live in different ambients")
        out = dict(self.terms)
        for k, m in other.terms.items():
            out[k] = out.get(k, 0) + sign * m
        return self._trusted(ambient, out)

    def __add__(self, other):
        return self._merge(other, 1)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def scale(self, c: int):
        return self._trusted(self._ambient, {k: c * m for k, m in self.terms.items()})


class HypersurfaceCycle(FormalSum):
    """Formal Z-combination of codimension-1 components on A^r x cube^n.

    Keys are nonconstant components, stripped of factors on the puncture and
    normalized by :func:`normalize_component`; the public constructor
    establishes that for untrusted components.
    """

    __slots__ = ("spec", "vars", "model")
    _AMBIENT = ("spec", "vars", "model")
    _MISMATCH = WrongModel

    def __init__(self, spec: FieldSpec, vars: VarSet, model: CoordModel,
                 terms: Iterable[tuple[int, MultiPoly]] | Mapping[MultiPoly, int] = ()):
        self.spec = spec
        self.vars = vars
        self.model = model

        def canonical_key(poly):
            if poly.spec != spec or poly.vars != vars:
                raise WrongField("component in the wrong ring")
            if not poly:
                raise ValueError("zero polynomial is not a component")
            if poly.is_constant:
                return None  # a unit cuts out the empty cycle
            poly = _strip_excluded_factors(poly, model)
            if poly.is_constant:
                return None  # the component was supported on the puncture
            return normalize_component(poly)

        self._collect(terms, canonical_key)

    @classmethod
    def from_poly(cls, poly: MultiPoly, model: CoordModel, mult: int = 1) -> "HypersurfaceCycle":
        return cls(poly.spec, poly.vars, model, [(mult, poly)])

    @classmethod
    def empty(cls, spec, vars, model) -> "HypersurfaceCycle":
        return cls._trusted((spec, vars, model), {})

    def components(self) -> list[tuple[int, MultiPoly]]:
        return sorted(((m, p) for p, m in self.terms.items()), key=lambda t: t[1].to_text())

    def __repr__(self):
        if not self.terms:
            return "HypersurfaceCycle(0)"
        body = " + ".join(f"{m}*V({p.to_text()})" for m, p in self.components())
        return f"HypersurfaceCycle({body})"


class ClosedPoint:
    """A closed point of A^r x cube^n: residue field plus exact coordinates."""

    __slots__ = ("residue_spec", "t_coords", "y_coords")

    def __init__(self, residue_spec: FieldSpec, t_coords: Sequence[FieldElement],
                 y_coords: Sequence[FieldElement]):
        self.residue_spec = residue_spec
        self.t_coords = tuple(residue_spec.element(c) for c in t_coords)
        self.y_coords = tuple(residue_spec.element(c) for c in y_coords)

    def __eq__(self, other):
        return (
            isinstance(other, ClosedPoint)
            and self.residue_spec == other.residue_spec
            and self.t_coords == other.t_coords
            and self.y_coords == other.y_coords
        )

    def __hash__(self):
        return hash((self.residue_spec, self.t_coords, self.y_coords))

    def __repr__(self):
        t = ",".join(c.to_text() for c in self.t_coords)
        y = ",".join(c.to_text() for c in self.y_coords)
        return f"Pt[{self.residue_spec.to_text()}]({t}; {y})"

    def base_point(self) -> "ClosedPoint":
        """The image under projection to A^r."""
        return ClosedPoint(self.residue_spec, self.t_coords, ())


class ZeroCycle(FormalSum):
    """Formal Z-combination of closed points of A^r x cube^n."""

    __slots__ = ("spec", "model", "r", "n")
    _AMBIENT = ("spec", "model", "r", "n")
    _MISMATCH = WrongModel

    def __init__(self, spec: FieldSpec, model: CoordModel, r: int, n: int,
                 terms: Iterable[tuple[int, ClosedPoint]] | Mapping[ClosedPoint, int] = ()):
        self.spec = spec
        self.model = model
        self.r = r
        self.n = n

        def canonical_key(pt):
            if len(pt.t_coords) != r or len(pt.y_coords) != n:
                raise ValueError("point dimensions do not match the cycle")
            return pt

        self._collect(terms, canonical_key)

    @classmethod
    def empty(cls, spec, model, r, n):
        return cls._trusted((spec, model, r, n), {})

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: repr(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "ZeroCycle(0)"
        return "ZeroCycle(" + " + ".join(f"{m}*{p!r}" for p, m in self.items()) + ")"


class ParamCurve:
    """A rational parametric curve in (base) x cube^n.

    The base is either a fixed point of A^r (``base_t_coords``) or, when
    ``graph_over_base`` is set, the parameter line itself, so the curve is the
    graph of its component functions over A^1.
    """

    __slots__ = ("spec", "model", "base_t_coords", "components", "graph_over_base")

    def __init__(self, spec: FieldSpec, model: CoordModel,
                 components: Sequence[RatFunc],
                 base_t_coords: Sequence[FieldElement] = (),
                 graph_over_base: bool = False):
        if graph_over_base and base_t_coords:
            raise ValueError("a graph over the base carries no fixed base point")
        self.spec = spec
        self.model = model
        self.base_t_coords = tuple(spec.element(c) for c in base_t_coords)
        self.graph_over_base = graph_over_base
        self.components = tuple(components)
        for g in self.components:
            if g.spec != spec:
                raise WrongField("component over the wrong field")
            kind = g.is_constant and model.locate(g.constant_value())
            if kind:
                raise DegenerateCurve(f"component identically {g.to_text()}: {kind} on the cube")

    @property
    def n(self) -> int:
        return len(self.components)

    def __repr__(self):
        base = "graph" if self.graph_over_base else \
            "(" + ",".join(c.to_text() for c in self.base_t_coords) + ")"
        comps = ", ".join(c.to_text() for c in self.components)
        return f"ParamCurve[{self.model.value}]{base} x ({comps})"


# ---------------------------------------------------------------------------
# Faces, degeneracy, boundary
# ---------------------------------------------------------------------------


def _add_face(Z: HypersurfaceCycle, i: int, face, sign: int, out: dict) -> None:
    """Add sign times the restriction of Z to the face y_i = face into
    ``out``, a map from canonical components one level down to
    multiplicities: each component is restricted, stripped of factors on
    the puncture and normalized, and one that restricts to a nonzero
    constant adds nothing.  An identically zero restriction is an improper
    intersection and raises, naming the first such component in text order.
    """
    pos = Z.vars.r + i - 1
    model = Z.model
    improper = []
    for p, mult in Z.terms.items():
        g = p._restrict_face(pos, face)
        if not g:
            improper.append(p)
            continue
        g = _strip_excluded_factors(g, model)
        if g.is_constant:
            continue
        g = normalize_component(g)
        out[g] = out.get(g, 0) + sign * mult
    if improper:
        p = min(improper, key=MultiPoly.to_text)
        raise ImproperFaceIntersection(
            f"V({p.to_text()}) contains the face y{i}={_face_text(face)}"
        )


def face_restrict(Z: HypersurfaceCycle, i: int, face) -> HypersurfaceCycle:
    """Restrict to the face y_i = face value, reindexing the remaining y's.

    Components restricting to a nonzero constant disappear; an identically
    zero restriction is an improper intersection and raises, naming the
    first such component in text order.
    """
    n = Z.vars.n
    if not 1 <= i <= n:
        raise ValueError(f"face index {i} out of range 1..{n}")
    if face not in Z.model.faces:
        raise ValueError(f"{_face_text(face)} is not a face value of {Z.model.value}")
    out: dict[MultiPoly, int] = {}
    _add_face(Z, i, face, 1, out)
    return HypersurfaceCycle._trusted((Z.spec, VarSet(Z.vars.r, n - 1), Z.model), out)


def is_degenerate(p: MultiPoly) -> bool:
    """True when the component is pulled back from a coordinate projection,
    i.e. some y-variable does not occur.  Requires n >= 1."""
    n = p.vars.n
    if n < 1:
        raise ValueError("degeneracy is defined for n >= 1")
    if not p:
        raise ValueError("zero polynomial is not a component")
    return any(p.degree_in(f"y{i+1}") == 0 for i in range(n))


def is_level0_dropped(p: MultiPoly) -> bool:
    """Level-0 convention: a two-term component 1 - c*t^e is treated as
    degenerate when the configuration flag is on (see :func:`boundary`)."""
    return p.vars.n == 0 and len(p.monomials()) == 2 and p.constant_term_is_one


def _is_pruned(p: MultiPoly, level0_flag: bool) -> bool:
    """Whether the nondegenerate quotient kills the component p at its own
    level: a degenerate component at level >= 1, a level-0 component
    1 - c*t^e at level 0 when ``level0_flag`` is on."""
    if p.vars.n >= 1:
        return is_degenerate(p)
    return level0_flag and is_level0_dropped(p)


def prune_degenerate(Z: HypersurfaceCycle, level0_flag: bool = True) -> HypersurfaceCycle:
    """Drop components the nondegenerate quotient kills at this level."""
    out = {p: m for p, m in Z.terms.items() if not _is_pruned(p, level0_flag)}
    return HypersurfaceCycle._trusted(Z._ambient, out)


def boundary(Z: HypersurfaceCycle, *, level0_flag: bool = True) -> HypersurfaceCycle:
    """The cubical boundary sum_i (-1)^i (d_i^pos - d_i^neg), with the face
    pair of the model.  The opposite inner sign convention is its negative.
    ``level0_flag`` applies the level-0 degeneracy convention to the output.

    One accumulation: the 2n face restrictions add their signed
    multiplicities into one map of canonical components (see
    :func:`_add_face`), faces in the order (1, pos), (1, neg), (2, pos), ...,
    so the first improper face raises as face_restrict would there.  Keys
    whose multiplicities cancel and keys the nondegenerate quotient kills
    (:func:`prune_degenerate`'s rule) are then dropped, and the result is
    built once, trusted.
    """
    n = Z.vars.n
    if n < 1:
        raise ValueError("boundary requires n >= 1")
    acc: dict[MultiPoly, int] = {}
    for i in range(1, n + 1):
        for face in Z.model.boundary_pair:
            _add_face(Z, i, face, Z.model.face_sign(i, face), acc)
    out = {p: m for p, m in acc.items() if m and not _is_pruned(p, level0_flag)}
    return HypersurfaceCycle._trusted((Z.spec, VarSet(Z.vars.r, n - 1), Z.model), out)


# ---------------------------------------------------------------------------
# Admissibility checks
# ---------------------------------------------------------------------------


class FaceViolation:
    __slots__ = ("component", "face", "kind")

    def __init__(self, component: str, face: tuple, kind: str):
        self.component = component
        self.face = face  # tuple of (var name, face text)
        self.kind = kind  # "improper" or "excluded"

    def __repr__(self):
        f = ", ".join(f"{v}={e}" for v, e in self.face)
        return f"FaceViolation({self.component} at {{{f}}}: {self.kind})"

    def to_json(self):
        return {
            "component": self.component,
            "face": {v: e for v, e in self.face},
            "kind": self.kind,
        }


class FaceReport:
    __slots__ = ("passed", "violations")

    def __init__(self, violations: Sequence[FaceViolation]):
        self.violations = tuple(violations)
        self.passed = not self.violations

    def __bool__(self):
        return self.passed

    def __repr__(self):
        return f"FaceReport(passed={self.passed}, violations={list(self.violations)})"

    def to_json(self):
        return {
            "passed": self.passed,
            "violations": [v.to_json() for v in self.violations],
        }


def _restrict(face: tuple, memo: dict, tops: Sequence[int]) -> MultiPoly:
    """Restriction of the closure of p in (P^1)^n to the composite face
    ``face``, a tuple of (index, value) pairs in ascending index order, with
    the restricted variables dropped.  At infinity it keeps the terms of
    degree ``tops[i - 1]`` = deg_{y_i} p in y_i, the terms the multihomogenized
    p keeps at z_i = 0, so restrictions commute; a prefix of lower degree in
    y_i restricts to zero there.  ``memo`` holds it per face, starting from
    ``{(): p}``, so each new face is one kernel restriction of its prefix.
    The k pairs before (i, v) all have smaller indices, so y_i is y_(i-k) in
    the ring of the prefix."""
    g = memo.get(face)
    if g is None:
        i, v = face[-1]
        prefix = _restrict(face[:-1], memo, tops)
        g = memo[face] = prefix._restrict_face(prefix.vars.r + i - len(face), v, tops[i - 1])
    return g


def _face_assignments(n: int, faces) -> Iterable[tuple]:
    """All nonempty composite faces as (index, value) pairs, in a fixed
    deterministic order: by subset size, then variable indices, then
    face-value pattern."""
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            for values in itertools.product(faces, repeat=size):
                yield tuple(zip(subset, values))


# Largest cube dimension n that check_face_condition takes for a hypersurface
# cycle: a component that passes costs 2^(n+1) - 2 restrictions, one that
# fails up to 3^n - 1, so each step in n costs two to three times the one before.
FACE_CHECK_MAX_N = 8


def check_face_condition(Z) -> FaceReport:
    """Proper intersection with every composite face.

    Hypersurfaces: no face restriction of the closure in (P^1)^n is
    identically zero; a cycle on a cube of dimension above FACE_CHECK_MAX_N
    raises CubeTooLarge.  Restrictions commute, so a face is improper only if
    one of its vertices is: each component is restricted to the 2^n vertices
    first (2^(n+1) - 2 memoized restrictions), and its 3^n - 1 faces are
    enumerated only when a vertex fails.  Zero-cycles: no y-coordinate sits
    on a face value or on the puncture (see :meth:`CoordModel.locate`).
    """
    violations = []
    if isinstance(Z, HypersurfaceCycle):
        n, faces = Z.vars.n, Z.model.faces
        if n > FACE_CHECK_MAX_N:
            raise CubeTooLarge(
                f"n = {n} is above FACE_CHECK_MAX_N = {FACE_CHECK_MAX_N}: "
                f"{3 ** n - 1} composite faces"
            )
        vertices = [tuple(enumerate(values, 1)) for values in itertools.product(faces, repeat=n)]
        # components in text order, faces in enumeration order
        bad = []
        for p in Z.terms:
            memo = {(): p}
            tops = [max(e[col] for e in p.terms) for col in range(p.vars.r, p.vars.r + n)]
            if all(_restrict(v, memo, tops) for v in vertices):
                continue
            improper = [a for a in _face_assignments(n, faces) if not _restrict(a, memo, tops)]
            bad.append((p.to_text(), improper))
        for text, improper in sorted(bad, key=lambda b: b[0]):
            violations.extend(
                FaceViolation(text, tuple((f"y{i}", _face_text(v)) for i, v in a), "improper")
                for a in improper
            )
        return FaceReport(violations)
    if isinstance(Z, ZeroCycle):
        for pt, _ in Z.items():
            for j, y in enumerate(pt.y_coords):
                kind = Z.model.locate(y)
                if kind:
                    violations.append(FaceViolation(repr(pt), ((f"y{j+1}", y.to_text()),), kind))
        return FaceReport(violations)
    raise TypeError(f"cannot face-check {type(Z).__name__}")


class ModulusVerdict(Enum):
    CERTIFIED = "Certified"
    VIOLATES = "ViolatesNecessary"
    UNKNOWN = "Unknown"


class ModulusReport:
    """The verdict of :func:`check_modulus_codim1` with one (component,
    verdict, reason) entry per component.  Components are kept as
    polynomials, and rendered and sorted by text only when the entries are
    read (``per_component``, ``to_json``)."""

    __slots__ = ("verdict", "_entries")

    def __init__(self, entries: Sequence[tuple[MultiPoly, ModulusVerdict, str]]):
        self._entries = tuple(entries)
        verdicts = [v for _, v, _ in self._entries]
        if any(v is ModulusVerdict.VIOLATES for v in verdicts):
            self.verdict = ModulusVerdict.VIOLATES
        elif all(v is ModulusVerdict.CERTIFIED for v in verdicts):
            self.verdict = ModulusVerdict.CERTIFIED
        else:
            self.verdict = ModulusVerdict.UNKNOWN

    @property
    def per_component(self) -> tuple[tuple[str, ModulusVerdict, str], ...]:
        """(component text, verdict, reason) in text order."""
        return tuple(sorted(((p.to_text(), v, r) for p, v, r in self._entries),
                            key=lambda e: e[0]))

    def __repr__(self):
        return f"ModulusReport({self.verdict.value})"

    def to_json(self):
        return {
            "verdict": self.verdict.value,
            "components": [
                {"poly": t, "verdict": v.value, "reason": r}
                for t, v, r in self.per_component
            ],
        }


def _divides(d: MultiPoly, f: MultiPoly) -> bool:
    from .polyring import InexactDivision

    try:
        f.exact_div(d)
        return True
    except InexactDivision:
        return False


def check_modulus_codim1(Z: HypersurfaceCycle, D: ModulusDatum) -> ModulusReport:
    """Three-valued modulus certificate for hypersurface cycles (PSI model).

    Certified: the divisor polynomial divides f - 1 and every y-degree is at
    most 1, which yields the homogenized closure identity bounding the divisor
    pullback by the faces at infinity.  ViolatesNecessary: some y-degree is 2
    or more (monomial data), or the exponents are all 1 and the radical does
    not divide f - 1.  At level 0 the monomial case is an exact dichotomy
    (disjointness from the support).  Everything else is Unknown.
    """
    if Z.model is not CoordModel.PSI:
        raise WrongModel("modulus certificates are computed in the PSI model")
    if D.r != Z.vars.r:
        raise ValueError("modulus datum has the wrong number of t-variables")
    results = []
    n = Z.vars.n
    lifted = D.divisor_poly.lift(Z.vars)  # the divisor in the full t,y ring
    ones = D.monomial_exponents == (1,) * D.r
    if n == 0 and D.is_monomial and not ones:
        rad = D.radical_poly().lift(Z.vars)
    else:
        rad = lifted
    one = MultiPoly.const(Z.spec, Z.vars, 1)
    meets_axes = [p for p in Z.terms if not p.constant_term_is_one]
    if meets_axes:
        text = min(meets_axes, key=MultiPoly.to_text).to_text()
        raise ConstantTermZero(f"component {text} has constant term 0; it meets the t-axes")
    for p in Z.terms:
        f1 = p - one
        if n == 0:
            if D.is_monomial:
                if _divides(rad, f1):
                    results.append((p, ModulusVerdict.CERTIFIED,
                                    "support disjointness: radical divides f - 1"))
                else:
                    results.append((p, ModulusVerdict.VIOLATES,
                                    "component meets the divisor support"))
            else:
                if _divides(lifted, f1):
                    results.append((p, ModulusVerdict.CERTIFIED,
                                    "divisor polynomial divides f - 1"))
                else:
                    results.append((p, ModulusVerdict.UNKNOWN,
                                    "no certificate for a non-monomial divisor"))
            continue
        degs = [p.degree_in(f"y{i+1}") for i in range(n)]
        if D.is_monomial and any(d >= 2 for d in degs):
            results.append((p, ModulusVerdict.VIOLATES,
                            f"y-degrees {degs} exceed 1"))
            continue
        divides = _divides(lifted, f1)
        if divides and all(d <= 1 for d in degs):
            results.append((p, ModulusVerdict.CERTIFIED,
                            "divisor divides f - 1 and y-degrees are at most 1"))
            continue
        if ones and not divides:
            results.append((p, ModulusVerdict.VIOLATES,
                            "t1...tr does not divide f - 1"))
            continue
        results.append((p, ModulusVerdict.UNKNOWN, "no applicable criterion"))
    if not results:
        # the zero polynomial renders as "0"
        results.append((MultiPoly.zero(Z.spec, Z.vars), ModulusVerdict.CERTIFIED, "empty cycle"))
    return ModulusReport(results)


def check_modulus_zerocycle(Z: ZeroCycle, D: ModulusDatum) -> bool:
    """A 0-cycle has modulus D exactly when it avoids the divisor."""
    for pt, _ in Z.items():
        vals = list(pt.t_coords)
        if D.divisor_poly.eval(vals) == pt.residue_spec.zero:
            return False
    return True


# ---------------------------------------------------------------------------
# Model conversion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _binomial_row(to_psi: bool, d: int, b: int) -> tuple:
    """The exponents and integer coefficients of the image of y^b, in one
    variable of degree d: (w - 1)^b * w^(d - b) going to PSI, (1 - y)^(d - b)
    going to ORIGINAL."""
    if to_psi:
        return tuple((d - b + k, (-1) ** (b - k) * comb(b, k)) for k in range(b + 1))
    return tuple((k, (-1) ** k * comb(d - b, k)) for k in range(d - b + 1))


def _convert_poly(p: MultiPoly, to_model: CoordModel) -> MultiPoly:
    """Substitute y -> psi(y) per variable and clear denominators, in one pass.

    Substituting y_i leaves the degree in every other y_j unchanged, so each
    d_i = deg_{y_i} p is read off p up front.  A term then contributes its
    coefficient times the product of one binomial row per y_i (see
    :func:`_binomial_row`), an integer combination of y-monomials that
    :meth:`MultiPoly._integer_image` sums in one pass."""
    r, n = p.vars.r, p.vars.n
    if not p:
        return p
    to_psi = to_model is CoordModel.PSI
    monomials = p.monomials()
    degs = [max(e[r + i] for e in monomials) for i in range(n)]
    expansions: dict[tuple, list] = {}  # y-exponents -> [(y-exponents, integer)]
    for e in monomials:
        ey = e[r:]
        if ey not in expansions:
            expansion = [((), 1)]
            for d, b in zip(degs, ey):
                row = _binomial_row(to_psi, d, b)
                expansion = [(x + (k,), m * a) for x, m in expansion for k, a in row]
            expansions[ey] = expansion
    return p._integer_image(r, expansions)


def psi_convert(obj, to_model: CoordModel):
    """Convert a cycle, point, 0-cycle, or curve to the other coordinate model.

    ORIGINAL faces {0, inf} map to PSI faces {1, 0}; boundaries commute with
    the conversion.  Points landing on the target's puncture raise.

    A hypersurface cycle converts in one pass: each image that is not
    constant is normalized, equal images merge in one map, cancelling
    multiplicities are dropped, and the result is built trusted.  No image
    has a factor on the target's puncture, so none is stripped.  A PSI
    target strips nothing by definition.  Going to ORIGINAL, a term c*y^e
    maps to c times the product of (1 - y_i)^(d_i - e_i), with d_i the degree
    of the component in y_i; at y_j = 1 only the terms with e_j = d_j
    survive, and they form the image of the nonzero y_j^(d_j) coefficient
    under the same injective substitution in the other y's.  So the image
    does not vanish on y_j = 1, and 1 - y_j does not divide it.
    """
    if isinstance(obj, HypersurfaceCycle):
        if obj.model is to_model:
            raise WrongModel("cycle already lives in the target model")
        out: dict[MultiPoly, int] = {}
        for p, m in obj.terms.items():
            q = _convert_poly(p, to_model)
            if not q or q.is_constant:
                continue
            q = normalize_component(q)
            out[q] = out.get(q, 0) + m
        return HypersurfaceCycle._trusted((obj.spec, obj.vars, to_model), out)
    if isinstance(obj, ClosedPoint):
        return ClosedPoint(obj.residue_spec, obj.t_coords, map(to_model.convert, obj.y_coords))
    if isinstance(obj, ZeroCycle):
        if obj.model is to_model:
            raise WrongModel("cycle already lives in the target model")
        pts = [(m, psi_convert(p, to_model)) for p, m in obj.items()]
        return ZeroCycle(obj.spec, to_model, obj.r, obj.n, pts)
    if isinstance(obj, ParamCurve):
        if obj.model is to_model:
            raise WrongModel("curve already lives in the target model")
        comps = [to_model.convert(g) for g in obj.components]
        return ParamCurve(obj.spec, to_model, comps, obj.base_t_coords, obj.graph_over_base)
    raise TypeError(f"cannot convert {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Parametric curve boundary and push-forward along closed immersions
# ---------------------------------------------------------------------------


def _place_field(spec: FieldSpec, pi: UniPoly) -> tuple[FieldSpec, FieldElement]:
    """Residue field of a monic irreducible place and the class of the parameter."""
    if pi.degree == 1:
        return spec, -pi.coeff(0)
    if spec.is_extension:
        raise UnfactorableEntry(
            "places of degree >= 2 over an extension base are not supported"
        )
    try:
        ell = make_field(spec.char, [c.value for c in pi.coeffs])
    except ExtensionNotSupported as exc:
        raise UnfactorableEntry(str(exc)) from None
    return ell, ell.gen_u


def _places(poly: UniPoly, memo: dict | None = None) -> list[tuple[UniPoly, int]]:
    """The finite places where poly vanishes: its monic irreducible factors
    with multiplicities.  Raises UnfactorableEntry when a factor is not
    certified irreducible (see factor_univariate for the bounds).

    ``memo``, owned by the caller, keeps the places of each polynomial
    (keyed by its monic associate, which has the same places) so that one
    computation factors each polynomial once."""
    if poly.degree < 1:
        return []
    key = None
    if memo is not None:
        key = poly.monic()
        out = memo.get(key)
        if out is not None:
            return out
    out = []
    for part in factor_univariate(poly).parts:
        if not part.irreducible:
            raise UnfactorableEntry(
                f"cannot enumerate places of {poly.to_text()}: "
                f"unfactored cofactor {part.poly.to_text()}"
            )
        out.append((part.poly, part.multiplicity))
    if key is not None:
        memo[key] = out
    return out


def curve_boundary(curve: ParamCurve, *, embedding: Sequence[RatFunc] | None = None,
                   places: dict | None = None) -> ZeroCycle:
    """Cubical boundary of a parametric curve as a 0-cycle one level down.

    Candidate points are the parameter values where some component g meets a
    face, with multiplicity the order of vanishing of h = 1/g at the face at
    infinity and of h = g - c at a finite face c: the closed points of the
    parameter line where h vanishes, plus the point at infinity for
    constant-base curves.  Points whose remaining coordinates hit the
    model's puncture are outside the cube and are discarded; hitting another
    face is an improper boundary.  A graph curve's boundary lies over the
    parameter line.  With ``embedding``, coordinate functions of a closed
    immersion of that line into A^r, it is pushed forward to the image
    (:func:`pushforward_closed_immersion`); places at the embedding's poles
    lie outside the source curve and are skipped, and a curve that is not a
    graph raises ValueError.  ``places`` is a memo of factorizations that a
    caller shares with :func:`milnor.total_delta` on the same entries (see
    :func:`_places`).
    """
    graph = curve.graph_over_base
    if embedding is not None and not graph:
        raise ValueError("only curves over the parameter line can be pushed forward")
    poles = [e.den for e in embedding or () if e.den.degree > 0]
    spec, model = curve.spec, curve.model
    terms = []

    # gather candidates: (place | None for infinity, component index, face, mult)
    candidates: list[tuple] = []
    for idx, g in enumerate(curve.components):
        for face in model.faces:
            h = g.inverse() if face is INFINITY else g - RatFunc.const(spec, face)
            candidates.extend((pi, idx, face, m) for pi, m in _places(h.num, places))
            if not graph:
                o = h.ord_at_infinity()
                if o > 0:
                    candidates.append((None, idx, face, o))

    for place, idx, face, mult in candidates:
        if place is None:
            ell, root = spec, None
        elif any(not (dp % place) for dp in poles):
            continue
        else:
            ell, root = _place_field(spec, place)

        # remaining cube coordinates: a coordinate on the puncture means the
        # point is outside the cube entirely, which takes precedence over any
        # face hit, so locate everything before classifying
        y_vals = [
            g.value_at_infinity() if place is None else g.eval(root)
            for j, g in enumerate(curve.components)
            if j != idx
        ]
        kinds = {model.locate(v) for v in y_vals}
        if "excluded" in kinds:
            continue
        if "improper" in kinds:
            raise ImproperBoundary(
                f"a remaining component hits a face on the boundary point at "
                f"{'infinity' if place is None else place.to_text()}"
            )

        if graph:
            t_vals = [root]
        else:
            t_vals = [ell.embed(c) if ell != spec else c for c in curve.base_t_coords]
        # components are 1-indexed in the convention
        terms.append((model.face_sign(idx + 1, face) * mult, ClosedPoint(ell, t_vals, y_vals)))
    r_out = 1 if graph else len(curve.base_t_coords)
    out = ZeroCycle(spec, model, r_out, curve.n - 1, terms)
    return out if embedding is None else pushforward_closed_immersion(out, embedding)


def pushforward_closed_immersion(obj: ZeroCycle, embedding: Sequence[RatFunc]) -> ZeroCycle:
    """Push a 0-cycle on a parametrized curve forward along a closed
    immersion given by coordinate functions of the parameter.

    Points map by coordinate composition with multiplicity 1.  A curve's
    boundary is pushed forward by :func:`curve_boundary` with its embedding.
    """
    if not isinstance(obj, ZeroCycle):
        raise TypeError(f"cannot push forward {type(obj).__name__}")
    if obj.r != 1:
        raise ValueError("source points must carry a single parameter coordinate")
    out = []
    for pt, m in obj.items():
        s0 = pt.t_coords[0]
        t_vals = []
        for e in embedding:
            v = e.eval(s0)
            if v is INFINITY:
                raise IndeterminateCoordinate(
                    f"embedding has a pole at parameter {s0.to_text()}"
                )
            t_vals.append(v)
        out.append((m, ClosedPoint(pt.residue_spec, t_vals, pt.y_coords)))
    return ZeroCycle(obj.spec, obj.model, len(embedding), obj.n, out)


def curve_avoids_divisor(embedding: Sequence[RatFunc], D: ModulusDatum) -> bool:
    """Whether the image of the parametrized curve is disjoint from the divisor.

    The embedding gives one coordinate function e_i per t-variable
    (ValueError otherwise).  A monomial D = t1^m1...tr^mr needs no
    evaluation: every m_i >= 1, so off the poles of the embedding f = prod
    e_i^m_i is regular and vanishes exactly where some e_i does, and h is
    the product of the numerators of the e_i, taken over the embedding's
    field.  Any other D is evaluated at the embedding, and h is the
    numerator of the value.  The image avoids the divisor exactly when every
    zero of h is a pole of the embedding.
    """
    if len(embedding) != D.r:
        raise ValueError("need one value per variable")
    if D.is_monomial:
        spec = embedding[0].spec
        spec.embed(D.spec.one)  # WrongField, as evaluation would raise
        h = UniPoly.const(spec, 1)
        for e in embedding:
            h = h * e.num
    else:
        h = D.divisor_poly.eval(embedding).num
    if not h:
        return False  # identically zero on the curve
    pole_prod = UniPoly.const(h.spec, 1)
    for e in embedding:
        pole_prod = pole_prod * e.den
    while h.degree > 0:
        g = poly_gcd(h, pole_prod)
        if g.degree == 0:
            return False
        h = h // g
    return True
