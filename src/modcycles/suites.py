"""Seeded property-suite corpora.

Every suite draws from a single random.Random seeded by the caller, so a
(seed, sizes, version) triple determines the report byte-for-byte.  The same
corpora back the command-line ``suite`` subcommand and the acceptance tests.
"""

from __future__ import annotations

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
    ZeroCycle,
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


def _failed_by(label: str, error: Exception | None) -> str:
    """A case's label, followed by the type and message of the exception
    that failed it, if one did."""
    return label if error is None else f"{label}: {type(error).__name__}: {error}"


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


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_rho_reciprocity(rng, count=300) -> SuiteResult:
    """rho annihilates boundaries of admissible level-2 cycles; rho is
    Z-linear, so it also kills -d, the boundary in the opposite sign
    convention."""
    res = SuiteResult("rho-reciprocity")
    fields = [F5, F7, Q]
    for k in range(count):
        spec = fields[k % 3]
        W = _rand_admissible_cycle(rng, spec, 2, 2)
        D = ModulusDatum.monomial(spec, [1, 1])
        ok = (check_modulus_codim1(W, D).verdict is ModulusVerdict.CERTIFIED
              and check_face_condition(W).passed)
        v = rho_of_boundary(W, D)  # even when ok is False, so that its errors surface
        res.record(ok and not v, f"case {k}: {W!r}")
    return res


def suite_rho_surjectivity(rng, q_count=50) -> SuiteResult:
    """rho(generator(a, r)) = a for all a over small prime fields and random
    rationals, with Valid certificates."""
    res = SuiteResult("rho-surjectivity")
    for spec in (F5, F7, F11):
        for r in (2, 3):
            seen = set()
            for a in spec.elements():
                Z, cert = generator_cycle(a, r)
                D = ModulusDatum.monomial(spec, [1] * r)
                val = rho(Z, D)
                ok = val == a and cert.valid and verify_certificate(cert)
                seen.add(val.value)
                res.record(ok, f"F{spec.char} a={a.to_text()} r={r}")
            res.record(len(seen) == spec.char, f"F{spec.char} r={r} image covers the field")
    for k in range(q_count):
        a = _rand_elem(rng, Q)
        r = 2 + (k % 2)
        Z, cert = generator_cycle(a, r)
        ok = rho(Z, ModulusDatum.monomial(Q, [1] * r)) == a and cert.valid
        res.record(ok, f"Q a={a.to_text()} r={r}")
    return res


def suite_bounding_surfaces(rng, count=200) -> SuiteResult:
    """Every admissible level-0 cycle bounds, with re-verified certificates."""
    res = SuiteResult("bounding-surfaces")
    fields = [F5, F7, Q]
    for k in range(count):
        spec = fields[k % 3]
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
        Z = HypersurfaceCycle.from_poly(f, CoordModel.PSI)
        D = ModulusDatum.monomial(spec, [1] * r)
        error = None
        try:
            cert = bounding_surface(Z, D)
            ok = cert.valid and verify_certificate(cert)
        except Exception as exc:  # noqa: BLE001 - failures are recorded, not raised
            ok, error = False, exc
        res.record(ok, _failed_by(f"case {k}: {f.to_text()}", error))
    return res


def suite_degree_bound(rng, count=100) -> SuiteResult:
    """y-degree 2 components are rejected; their multilinear counterparts are
    certified."""
    res = SuiteResult("degree-bound")
    fields = [F5, F7, Q]
    for k in range(count):
        spec = fields[k % 3]
        n = 1 + (k % 2)
        vars = VarSet(2, n)
        y_names = [f"y{i+1}" for i in range(n)]
        g = _rand_multilinear(rng, spec, vars, y_names)
        while not g:
            g = _rand_multilinear(rng, spec, vars, y_names)
        tprod = _t_monomial(spec, vars, [1, 1])
        one = MultiPoly.const(spec, vars, 1)
        good = HypersurfaceCycle.from_poly(one - tprod * g, CoordModel.PSI)
        bad_var = f"y{rng.randrange(1, n + 1)}"
        y2 = MultiPoly.variable(spec, vars, bad_var) ** 2
        c = _rand_elem(rng, spec, nonzero=True)
        bad = HypersurfaceCycle.from_poly(one - tprod * (g + y2 * c), CoordModel.PSI)
        D = ModulusDatum.monomial(spec, [1, 1])
        ok = (check_modulus_codim1(good, D).verdict is ModulusVerdict.CERTIFIED
              and check_modulus_codim1(bad, D).verdict is ModulusVerdict.VIOLATES)
        res.record(ok, f"case {k}")
    return res


def suite_zero_cycle_witnesses(rng, count=200) -> SuiteResult:
    """Rational points off monomial moduli bound, n = 0, r in {2, 3}."""
    res = SuiteResult("zero-cycle-witnesses")
    fields = [F5, F7, Q]
    for k in range(count):
        spec = fields[k % 3]
        r = 2 + (k % 2)
        coords = [_rand_elem(rng, spec, nonzero=True) for _ in range(r)]
        m = [rng.randint(1, 3) for _ in range(r)]
        z = ClosedPoint(spec, coords, [])
        D = ModulusDatum.monomial(spec, m)
        variant = "plain" if k % 4 else "product_base"
        error = None
        try:
            cert = zero_cycle_vanishing_witness(z, D, n=0, variant=variant)
            ok = cert.valid and verify_certificate(cert)
        except Exception as exc:
            ok, error = False, exc
        res.record(ok, _failed_by(f"case {k}: {z!r} m={m} {variant}", error))
    return res


def suite_k2_table(rng, max_q=16) -> SuiteResult:
    """K_2 of every prime-power field through max_q is trivial."""
    res = SuiteResult("k2-table")
    for pres in k2_table(max_q):
        res.record(pres.trivial, f"q={pres.q}: divisors {pres.elementary_divisors}")
    return res


def suite_tame_formula(rng, count=100) -> SuiteResult:
    """d_pi{f_1, ..., f_n, u*pi^r} = r*{residues} for units at pi."""
    res = SuiteResult("tame-formula")
    for k in range(count):
        spec = F5 if k % 2 else F7
        ff = FunctionField(spec)
        t = RatFunc.param(spec)
        p = spec.char
        a = spec.element(rng.randrange(p))
        pi = UniPoly(spec, [(-a).value, 1])
        r = rng.choice([-3, -2, -1, 1, 2, 3])
        n = rng.randrange(1, 3)
        fs = []
        for _ in range(n):
            b = _rand_elem(rng, spec)
            while b == a:
                b = _rand_elem(rng, spec)
            fs.append(t - RatFunc.const(spec, b))
        u = RatFunc.const(spec, _rand_elem(rng, spec, nonzero=True))
        sym = MilnorElement(ff, [(1, MilnorSymbol(ff, fs + [u * RatFunc.from_poly(pi) ** r]))])
        got = tame_symbol(Valuation(ff, pi), sym)
        expected = MilnorElement(spec, [(r, MilnorSymbol(spec, [f.eval(a) for f in fs]))])
        res.record(got == expected, f"case {k}")
    return res


def suite_weil_reciprocity(rng, count=100) -> SuiteResult:
    """The product over all places of the normed tame symbols of {f, g} is 1."""
    res = SuiteResult("weil-reciprocity")
    for k in range(count):
        spec = F5 if k % 2 else F7
        ff = FunctionField(spec)
        p = spec.char
        f = UniPoly(spec, [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [rng.randrange(1, p)])
        g = UniPoly(spec, [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [rng.randrange(1, p)])
        sym = MilnorElement(ff, [(1, MilnorSymbol(ff, [RatFunc.from_poly(f), RatFunc.from_poly(g)]))])
        total = spec.one
        error = None
        try:
            for v, e in total_delta(sym).items():
                val = k1_value(e)
                if val.spec != spec:
                    val = norm_k1_finite(val)
                total = total * val
            ok = total == spec.one
        except Exception as exc:
            ok, error = False, exc
        res.record(ok, _failed_by(f"case {k}: f={f.to_text()}, g={g.to_text()}", error))
    return res


def suite_steinberg_curves(rng, count=50) -> SuiteResult:
    """The Steinberg witness curve has boundary the single predicted point."""
    res = SuiteResult("steinberg-curves")
    fields = [F5, F7, Q]
    for k in range(count):
        spec = fields[k % 3]
        f1 = _rand_elem(rng, spec, nonzero=True, not_one=True)
        extra = []
        for _ in range(rng.randrange(0, 2)):
            extra.append(_rand_elem(rng, spec, nonzero=True, not_one=True))
        curve = totaro_steinberg_curve(f1, extra)
        out = verify_steinberg_curve(curve, f1, extra)
        res.record(out.ok, f"case {k}: f1={f1.to_text()}")
    return res


def suite_mult_curves(rng, count=50) -> SuiteResult:
    """The multiplicativity curve realizes psi(f) + psi(g) - psi(fg)."""
    res = SuiteResult("mult-curves")
    fields = [F5, F7, Q]
    for k in range(count):
        spec = fields[k % 3]
        f = _rand_elem(rng, spec, nonzero=True, not_one=True)
        g = _rand_elem(rng, spec, nonzero=True)
        if k % 5 == 0:
            g = f.inverse()  # exercise fg = 1
        curve = totaro_mult_curve(f, g)
        out = verify_mult_curve(curve, f, g)
        res.record(out.ok, f"case {k}: f={f.to_text()} g={g.to_text()}")
    return res


def suite_xi_curves(rng, count=50) -> SuiteResult:
    """The graph of (f_1, ..., f_n, u*pi^r) bounds the total residue."""
    res = SuiteResult("xi-curves")
    fields = [F5, F7, Q]
    for k in range(count):
        spec = fields[k % 3]
        ff = FunctionField(spec)
        t = RatFunc.param(spec)
        a = _rand_elem(rng, spec)
        pi = UniPoly(spec, [(-a).value, 1])
        r = rng.choice([-2, -1, 1, 2])
        n = rng.randrange(1, 3)
        used = {a.value}
        fs = []
        for _ in range(n):
            b = _rand_elem(rng, spec)
            while b.value in used:
                b = _rand_elem(rng, spec)
            used.add(b.value)
            fs.append(t - RatFunc.const(spec, b))
        u = RatFunc.const(spec, _rand_elem(rng, spec, nonzero=True))
        error = None
        try:
            curve = xi_curve(fs, u, pi, r)
            sym = MilnorElement(ff, [(1, MilnorSymbol(ff, fs + [u * RatFunc.from_poly(pi) ** r]))])
            out = verify_xi_curve(curve, sym)
            ok = out.ok
        except Exception as exc:
            ok, error = False, exc
        res.record(ok, _failed_by(f"case {k}", error))
    return res


def suite_boundary_square(rng, count=200) -> SuiteResult:
    """d(d Z) = 0 for admissible cycles, n in {2, 3}, both models; degeneracy
    pruning disabled so cancellation is exact.  The opposite sign convention
    is -d, and (-d)(-d) = dd."""
    res = SuiteResult("boundary-square")
    fields = [F5, F7, Q]
    for k in range(count):
        spec = fields[k % 3]
        n = 2 + (k % 2)
        Z = _rand_admissible_cycle(rng, spec, 2, n)
        bP = boundary(Z, level0_flag=False)
        ok = not boundary(bP, level0_flag=False)
        Zo = psi_convert(Z, CoordModel.ORIGINAL)
        error = None
        if check_face_condition(Zo).passed:
            b1 = boundary(Zo, level0_flag=False)
            ok = ok and not boundary(b1, level0_flag=False)
            # conversion conjugates the boundary
            try:
                ok = ok and psi_convert(bP, CoordModel.ORIGINAL) == b1
            except Exception as exc:
                ok, error = False, exc
        res.record(ok, _failed_by(f"case {k}: n={n}", error))
    return res


def suite_face_containment(rng, count=200) -> SuiteResult:
    """Faces of certified-admissible cycles are certified admissible."""
    res = SuiteResult("face-containment")
    fields = [F5, F7, Q]
    for k in range(count):
        spec = fields[k % 3]
        n = 2 + (k % 2)
        Z = _rand_admissible_cycle(rng, spec, 2, n)
        D = ModulusDatum.monomial(spec, [1, 1])
        ok = (check_modulus_codim1(Z, D).verdict is ModulusVerdict.CERTIFIED
              and check_face_condition(Z).passed)
        for i in range(1, n + 1):
            for face in CoordModel.PSI.faces:
                F = face_restrict(Z, i, face)
                ok = ok and check_face_condition(F).passed
                verdict = check_modulus_codim1(F, D).verdict
                ok = ok and verdict is ModulusVerdict.CERTIFIED
        res.record(ok, f"case {k}: n={n}")
    return res


SUITES = {
    "rho-reciprocity": suite_rho_reciprocity,
    "rho-surjectivity": suite_rho_surjectivity,
    "bounding-surfaces": suite_bounding_surfaces,
    "degree-bound": suite_degree_bound,
    "zero-cycle-witnesses": suite_zero_cycle_witnesses,
    "k2-table": suite_k2_table,
    "tame-formula": suite_tame_formula,
    "weil-reciprocity": suite_weil_reciprocity,
    "steinberg-curves": suite_steinberg_curves,
    "mult-curves": suite_mult_curves,
    "xi-curves": suite_xi_curves,
    "boundary-square": suite_boundary_square,
    "face-containment": suite_face_containment,
}

_SMALL_COUNTS = {
    "rho-reciprocity": 30,
    "rho-surjectivity": 10,
    "bounding-surfaces": 30,
    "degree-bound": 20,
    "zero-cycle-witnesses": 30,
    "tame-formula": 20,
    "weil-reciprocity": 20,
    "steinberg-curves": 12,
    "mult-curves": 12,
    "xi-curves": 12,
    "boundary-square": 20,
    "face-containment": 20,
}


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
        fn = SUITES[name]
        rng = random.Random((seed, name).__repr__())
        if sizes == "small" and name in _SMALL_COUNTS:
            out = fn(rng, _SMALL_COUNTS[name])
        else:
            out = fn(rng)
        results.append(out.to_json())
        all_passed = all_passed and out.passed
    return {
        "version": __version__,
        "seed": seed,
        "sizes": sizes,
        "suites": results,
        "all_passed": all_passed,
    }
