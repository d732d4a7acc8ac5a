"""Seeded property-suite corpora.

Every suite draws from a single random.Random seeded by the caller, so a
(seed, sizes, version) triple determines the report byte-for-byte.  The same
corpora back the command-line ``suite`` subcommand and the acceptance tests.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from . import __version__
from .fields import FieldElement, FieldSpec, UniPoly, make_field, norm_k1_finite
from .polyring import MultiPoly, RatFunc, VarSet
from .cycles import (
    ClosedPoint,
    CoordModel,
    HypersurfaceCycle,
    ModulusDatum,
    ModulusVerdict,
    boundary,
    check_face_condition,
    check_modulus_codim1,
    face_restrict,
    psi_convert,
)
from .milnor import (
    FunctionField,
    MilnorElement,
    MilnorSymbol,
    Valuation,
    k1_value,
    k2_table,
    tame_symbol,
    total_delta,
    totaro_mult_curve,
    totaro_steinberg_curve,
    verify_mult_curve,
    verify_steinberg_curve,
    verify_xi_curve,
    xi_curve,
)
from .witnesses import (
    bounding_surface,
    generator_cycle,
    rho,
    rho_of_boundary,
    verify_certificate,
    zero_cycle_vanishing_witness,
)

F5 = make_field(5)
F7 = make_field(7)
F11 = make_field(11)
Q = make_field(0)
FIELDS = (F5, F7, Q)


def _rand_elem(rng: random.Random, spec: FieldSpec, nonzero=False, not_one=False) -> FieldElement:
    while True:
        if spec.char:
            e = spec.element(rng.randrange(spec.char))
        else:
            e = spec.element(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        if nonzero and not e:
            continue
        if not_one and e == spec.one:
            continue
        return e


def _rand_multilinear(rng, spec, vars, y_names) -> MultiPoly:
    """Random polynomial multilinear in the given y's, constant in t."""
    import itertools

    terms = {}
    for subset in itertools.product((0, 1), repeat=len(y_names)):
        c = _rand_elem(rng, spec)
        exp = [0] * vars.count
        for name, bit in zip(y_names, subset):
            exp[vars.index(name)] = bit
        terms[tuple(exp)] = c  # distinct subsets give distinct monomials
    return MultiPoly(spec, vars, terms)


def _t_monomial(spec, vars, exps) -> MultiPoly:
    exp = tuple(list(exps) + [0] * vars.n)
    return MultiPoly(spec, vars, {exp: spec.one})


def _rand_admissible_cycle(rng, spec, r, n) -> HypersurfaceCycle:
    """f = 1 - t1...tr*g + higher t-order terms, multilinear in y: certified
    admissible in the PSI model by construction."""
    vars = VarSet(r, n)
    y_names = [f"y{i+1}" for i in range(n)]
    one = MultiPoly.const(spec, vars, 1)
    g = _rand_multilinear(rng, spec, vars, y_names)
    while not g:
        g = _rand_multilinear(rng, spec, vars, y_names)
    f = one - _t_monomial(spec, vars, [1] * r) * g
    for _ in range(rng.randrange(0, 3)):
        exps = [rng.randint(1, 3) for _ in range(r)]
        if all(e == 1 for e in exps):
            exps[rng.randrange(r)] += 1
        h = _rand_multilinear(rng, spec, vars, y_names)
        f = f + _t_monomial(spec, vars, exps) * h
    return HypersurfaceCycle.from_poly(f, CoordModel.PSI)


class UnknownSuite(ValueError):
    """A suite name that is empty or not in SUITES."""


class SuiteResult:
    __slots__ = ("name", "cases", "passes", "failures")

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.passes = 0
        self.failures: list[str] = []

    def record(self, ok: bool, label: str):
        self.cases += 1
        if ok:
            self.passes += 1
        else:
            self.failures.append(label)

    @property
    def passed(self) -> bool:
        return self.cases == self.passes

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "cases": self.cases,
            "passes": self.passes,
            "failures": self.failures,
        }


SUITES: dict = {}  # suite name -> its runner, filled by @_suite
_SMALL_COUNTS: dict[str, int] = {}  # case counts of sizes="small"; absent: the full count


def _suite(name: str, small: int | None = None):
    """Register a suite under ``name``, with ``small`` cases at sizes="small".

    The decorated generator draws each case's inputs from ``rng`` and yields
    ``(label, check)``; ``check()`` says whether the case passed.  The
    registered runner keeps the generator's name and signature (its default
    count is the full size), makes the SuiteResult and runs every case in its
    own call: each ``check()`` runs before the generator draws the next case,
    so a check may read its case's variables.  A check that raises fails its
    case, with ``: Type: message`` appended to the label.  Before yielding, a
    suite only draws inputs and builds what its label shows, and an exception
    there is not caught; k2-table alone computes there, building its table
    before its first case, since its labels carry the computed divisors."""

    def register(gen):
        @functools.wraps(gen)
        def run(*args, **kwargs) -> SuiteResult:
            res = SuiteResult(name)
            for label, check in gen(*args, **kwargs):
                try:
                    ok = check()
                except Exception as exc:  # noqa: BLE001 - failures are recorded, not raised
                    ok, label = False, f"{label}: {type(exc).__name__}: {exc}"
                res.record(ok, label)
            return res

        SUITES[name] = run
        if small is not None:
            _SMALL_COUNTS[name] = small
        return run

    return register


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@_suite("rho-reciprocity", small=30)
def suite_rho_reciprocity(rng, count=300):
    """rho annihilates boundaries of admissible level-2 cycles; rho is
    Z-linear, so it also kills -d, the boundary in the opposite sign
    convention."""
    for k in range(count):
        spec = FIELDS[k % 3]
        W = _rand_admissible_cycle(rng, spec, 2, 2)

        def check():
            D = ModulusDatum.monomial(spec, [1, 1])
            ok = (check_modulus_codim1(W, D).verdict is ModulusVerdict.CERTIFIED
                  and check_face_condition(W).passed)
            v = rho_of_boundary(W, D)  # even when ok is False, so that its errors surface
            return ok and not v
        yield f"case {k}: {W!r}", check


@_suite("rho-surjectivity", small=10)
def suite_rho_surjectivity(rng, q_count=50):
    """rho(generator(a, r)) = a for all a over small prime fields and random
    rationals, with Valid certificates."""
    for spec in (F5, F7, F11):
        for r in (2, 3):
            seen = set()
            for a in spec.elements():
                def check():
                    Z, cert = generator_cycle(a, r)
                    val = rho(Z, ModulusDatum.monomial(spec, [1] * r))
                    ok = val == a and cert.valid and verify_certificate(cert)
                    seen.add(val.value)
                    return ok
                yield f"F{spec.char} a={a.to_text()} r={r}", check
            yield f"F{spec.char} r={r} image covers the field", lambda: len(seen) == spec.char
    for k in range(q_count):
        a = _rand_elem(rng, Q)
        r = 2 + (k % 2)

        def check():
            Z, cert = generator_cycle(a, r)
            return rho(Z, ModulusDatum.monomial(Q, [1] * r)) == a and cert.valid
        yield f"Q a={a.to_text()} r={r}", check


@_suite("bounding-surfaces", small=30)
def suite_bounding_surfaces(rng, count=200):
    """Every admissible level-0 cycle bounds, with re-verified certificates."""
    for k in range(count):
        spec = FIELDS[k % 3]
        r = 2 + (k % 2)
        vars = VarSet(r, 0)
        g = MultiPoly.zero(spec, vars)
        for _ in range(rng.randrange(1, 4)):
            exps = tuple(rng.randrange(0, 3) for _ in range(r))
            c = _rand_elem(rng, spec)
            g = g + MultiPoly(spec, vars, {exps: c} if c else {})
        if not g:
            g = MultiPoly.const(spec, vars, 1)
        f = MultiPoly.const(spec, vars, 1) - _t_monomial(spec, vars, [1] * r) * g

        def check():
            Z = HypersurfaceCycle.from_poly(f, CoordModel.PSI)
            cert = bounding_surface(Z, ModulusDatum.monomial(spec, [1] * r))
            return cert.valid and verify_certificate(cert)
        yield f"case {k}: {f.to_text()}", check


@_suite("degree-bound", small=20)
def suite_degree_bound(rng, count=100):
    """y-degree 2 components are rejected; their multilinear counterparts are
    certified."""
    for k in range(count):
        spec = FIELDS[k % 3]
        n = 1 + (k % 2)
        vars = VarSet(2, n)
        y_names = [f"y{i+1}" for i in range(n)]
        g = _rand_multilinear(rng, spec, vars, y_names)
        while not g:
            g = _rand_multilinear(rng, spec, vars, y_names)
        bad_var = f"y{rng.randrange(1, n + 1)}"
        c = _rand_elem(rng, spec, nonzero=True)

        def check():
            tprod = _t_monomial(spec, vars, [1, 1])
            one = MultiPoly.const(spec, vars, 1)
            good = HypersurfaceCycle.from_poly(one - tprod * g, CoordModel.PSI)
            y2 = MultiPoly.variable(spec, vars, bad_var) ** 2
            bad = HypersurfaceCycle.from_poly(one - tprod * (g + y2 * c), CoordModel.PSI)
            D = ModulusDatum.monomial(spec, [1, 1])
            return (check_modulus_codim1(good, D).verdict is ModulusVerdict.CERTIFIED
                    and check_modulus_codim1(bad, D).verdict is ModulusVerdict.VIOLATES)
        yield f"case {k}", check


@_suite("zero-cycle-witnesses", small=30)
def suite_zero_cycle_witnesses(rng, count=200):
    """Rational points off monomial moduli bound, n = 0, r in {2, 3}."""
    for k in range(count):
        spec = FIELDS[k % 3]
        r = 2 + (k % 2)
        coords = [_rand_elem(rng, spec, nonzero=True) for _ in range(r)]
        m = [rng.randint(1, 3) for _ in range(r)]
        z = ClosedPoint(spec, coords, [])
        variant = "plain" if k % 4 else "product_base"

        def check():
            D = ModulusDatum.monomial(spec, m)
            cert = zero_cycle_vanishing_witness(z, D, n=0, variant=variant)
            return cert.valid and verify_certificate(cert)
        yield f"case {k}: {z!r} m={m} {variant}", check


@_suite("k2-table")
def suite_k2_table(rng, max_q=16):
    """K_2 of every prime-power field through max_q is trivial."""
    for pres in k2_table(max_q):
        yield f"q={pres.q}: divisors {pres.elementary_divisors}", lambda: pres.trivial


@_suite("tame-formula", small=20)
def suite_tame_formula(rng, count=100):
    """d_pi{f_1, ..., f_n, u*pi^r} = r*{residues} for units at pi."""
    for k in range(count):
        spec = F5 if k % 2 else F7
        t = RatFunc.param(spec)
        a = spec.element(rng.randrange(spec.char))
        pi = UniPoly(spec, [(-a).value, 1])
        r = rng.choice([-3, -2, -1, 1, 2, 3])
        fs = []
        for _ in range(rng.randrange(1, 3)):
            b = _rand_elem(rng, spec)
            while b == a:
                b = _rand_elem(rng, spec)
            fs.append(t - RatFunc.const(spec, b))
        u = RatFunc.const(spec, _rand_elem(rng, spec, nonzero=True))

        def check():
            ff = FunctionField(spec)
            sym = MilnorElement(ff, [(1, MilnorSymbol(ff, fs + [u * RatFunc.from_poly(pi) ** r]))])
            got = tame_symbol(Valuation(ff, pi), sym)
            return got == MilnorElement(spec, [(r, MilnorSymbol(spec, [f.eval(a) for f in fs]))])
        yield f"case {k}", check


@_suite("weil-reciprocity", small=20)
def suite_weil_reciprocity(rng, count=100):
    """The product over all places of the normed tame symbols of {f, g} is 1."""
    for k in range(count):
        spec = F5 if k % 2 else F7
        p = spec.char
        f = UniPoly(spec, [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [rng.randrange(1, p)])
        g = UniPoly(spec, [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [rng.randrange(1, p)])

        def check():
            ff = FunctionField(spec)
            sym = MilnorElement(ff, [(1, MilnorSymbol(ff, [RatFunc.from_poly(f), RatFunc.from_poly(g)]))])
            total = spec.one
            for v, e in total_delta(sym).items():
                val = k1_value(e)
                if val.spec != spec:
                    val = norm_k1_finite(val)
                total = total * val
            return total == spec.one
        yield f"case {k}: f={f.to_text()}, g={g.to_text()}", check


@_suite("steinberg-curves", small=12)
def suite_steinberg_curves(rng, count=50):
    """The Steinberg witness curve has boundary the single predicted point."""
    for k in range(count):
        spec = FIELDS[k % 3]
        f1 = _rand_elem(rng, spec, nonzero=True, not_one=True)
        extra = [_rand_elem(rng, spec, nonzero=True, not_one=True)
                 for _ in range(rng.randrange(0, 2))]
        yield (f"case {k}: f1={f1.to_text()}",
               lambda: verify_steinberg_curve(totaro_steinberg_curve(f1, extra), f1, extra).ok)


@_suite("mult-curves", small=12)
def suite_mult_curves(rng, count=50):
    """The multiplicativity curve realizes psi(f) + psi(g) - psi(fg)."""
    for k in range(count):
        spec = FIELDS[k % 3]
        f = _rand_elem(rng, spec, nonzero=True, not_one=True)
        g = _rand_elem(rng, spec, nonzero=True)
        if k % 5 == 0:
            g = f.inverse()  # exercise fg = 1
        yield (f"case {k}: f={f.to_text()} g={g.to_text()}",
               lambda: verify_mult_curve(totaro_mult_curve(f, g), f, g).ok)


@_suite("xi-curves", small=12)
def suite_xi_curves(rng, count=50):
    """The graph of (f_1, ..., f_n, u*pi^r) bounds the total residue."""
    for k in range(count):
        spec = FIELDS[k % 3]
        t = RatFunc.param(spec)
        a = _rand_elem(rng, spec)
        pi = UniPoly(spec, [(-a).value, 1])
        r = rng.choice([-2, -1, 1, 2])
        used = {a.value}
        fs = []
        for _ in range(rng.randrange(1, 3)):
            b = _rand_elem(rng, spec)
            while b.value in used:
                b = _rand_elem(rng, spec)
            used.add(b.value)
            fs.append(t - RatFunc.const(spec, b))
        u = RatFunc.const(spec, _rand_elem(rng, spec, nonzero=True))
        yield f"case {k}", lambda: verify_xi_curve(xi_curve(fs, u, pi, r)).ok


@_suite("boundary-square", small=20)
def suite_boundary_square(rng, count=200):
    """d(d Z) = 0 for admissible cycles, n in {2, 3}, both models; degeneracy
    pruning disabled so cancellation is exact.  The opposite sign convention
    is -d, and (-d)(-d) = dd."""
    for k in range(count):
        spec = FIELDS[k % 3]
        n = 2 + (k % 2)
        Z = _rand_admissible_cycle(rng, spec, 2, n)

        def check():
            bP = boundary(Z, level0_flag=False)
            ok = not boundary(bP, level0_flag=False)
            Zo = psi_convert(Z, CoordModel.ORIGINAL)
            if check_face_condition(Zo).passed:
                b1 = boundary(Zo, level0_flag=False)
                # conversion conjugates the boundary
                ok = (ok and not boundary(b1, level0_flag=False)
                      and psi_convert(bP, CoordModel.ORIGINAL) == b1)
            return ok
        yield f"case {k}: n={n}", check


@_suite("face-containment", small=20)
def suite_face_containment(rng, count=200):
    """Faces of certified-admissible cycles are certified admissible."""
    for k in range(count):
        spec = FIELDS[k % 3]
        n = 2 + (k % 2)
        Z = _rand_admissible_cycle(rng, spec, 2, n)

        def check():
            D = ModulusDatum.monomial(spec, [1, 1])
            ok = (check_modulus_codim1(Z, D).verdict is ModulusVerdict.CERTIFIED
                  and check_face_condition(Z).passed)
            for i in range(1, n + 1):
                for face in CoordModel.PSI.faces:
                    F = face_restrict(Z, i, face)
                    ok = ok and check_face_condition(F).passed
                    verdict = check_modulus_codim1(F, D).verdict
                    ok = ok and verdict is ModulusVerdict.CERTIFIED
            return ok
        yield f"case {k}: n={n}", check


def run_suites(seed: int, sizes: str = "full", only: list[str] | None = None) -> dict:
    """Run the property suites with a fixed seed; the report is deterministic.

    ``only`` names the suites to run, all of them when it is empty; an empty
    or unknown name raises UnknownSuite."""
    names = sorted(only) if only else sorted(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise UnknownSuite(f"unknown suite names {unknown}; the suites are "
                           f"{', '.join(sorted(SUITES))}")
    results = []
    all_passed = True
    for name in names:
        rng = random.Random((seed, name).__repr__())
        small = (_SMALL_COUNTS[name],) if sizes == "small" and name in _SMALL_COUNTS else ()
        out = SUITES[name](rng, *small)
        results.append(out.to_json())
        all_passed = all_passed and out.passed
    return {
        "version": __version__,
        "seed": seed,
        "sizes": sizes,
        "suites": results,
        "all_passed": all_passed,
    }
