"""The three benchmark workloads.

Each workload is set up from a seed (inputs generated here, persistent caches
warmed) and then runs rounds: one round is a fixed pass over the seeded
corpus, so every round does the same work.  ``ROUNDS`` is how many rounds a
run measures, sized so that they take about 30 s on one core of a shared
2-core machine.  Items run one after another in one process (a closed loop
with a single client).  Each item records its latency and whether its output
was correct into a :class:`Recorder`.

The library only ever receives the generated inputs; nothing here reaches
into modcycles internals except ``SuiteResult.record``, which ``suite-full``
wraps to timestamp the end of each suite case.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from fractions import Fraction
from time import perf_counter

# Report sha256 prefix of run_suites(42, "full") at the seed commit.
SUITE_REPORT_PREFIX_SEED42 = "55c81db9647141d4"

CERT_KINDS = (
    "bounding_surface",
    "generator_cycle",
    "verify_rho_reciprocity",
    "zero_cycle_vanishing_witness",
)


def reference_loop() -> None:
    """A fixed piece of pure-Python work, Fraction arithmetic and dict
    updates like the package's own, that takes about 0.17 ms on an idle
    core.  Timed next to each item, it shows how fast the core ran then."""
    x, d = Fraction(1, 3), {}
    for i in range(30):
        x = (x * 7 + Fraction(i % 5, 3)) % 11
        d[i % 97] = d.get(i % 97, 0) + i


class Recorder:
    """Item latencies, kept per round, plus attempted/failed counts.

    With ``reference`` set, :meth:`begin` times :func:`reference_loop`
    before each item, and :meth:`end_round` once after the last one, so a
    round of n items has n + 1 reference times: entries i and i + 1 bracket
    item i.  The loop runs outside the items' timed spans.

    ``known_defect`` counts claim-only certificate mutants that verify as
    Valid (ROADMAP item 3); they are failures and are also counted in
    ``failed``."""

    def __init__(self, tracer=None, reference: bool = False):
        self.tracer = tracer
        self.reference = reference
        self.rounds: list[list[tuple[str, float]]] = [[]]
        self.references: list[list[float]] = [[]]
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.failures: list[str] = []

    def _time_reference(self) -> None:
        if self.reference:
            t0 = perf_counter()
            reference_loop()
            self.references[-1].append(perf_counter() - t0)

    def begin(self, item: int) -> None:
        """Time the reference loop, then tag the spans recorded from now on
        with this item id."""
        self._time_reference()
        if self.tracer is not None:
            self.tracer.item = item

    def item(self, kind: str, seconds: float, ok: bool, label: str = "", known_defect: bool = False):
        self.rounds[-1].append((kind, seconds))
        self.attempted += 1
        if not ok:
            self.failed += 1
            if known_defect:
                self.known_defect += 1
            elif len(self.failures) < 20:
                self.failures.append(f"{kind}: {label}")

    def end_round(self) -> None:
        if len(self.references[-1]) == len(self.rounds[-1]):
            self._time_reference()  # after the last item
        self.rounds.append([])
        self.references.append([])


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Seeded input helpers
# ---------------------------------------------------------------------------


def rand_elem(rng: random.Random, spec, nonzero: bool = False):
    while True:
        if spec.is_extension:
            if spec.char:
                e = spec.element([rng.randrange(spec.char) for _ in range(spec.degree)])
            else:
                e = spec.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(spec.degree)])
        elif spec.char:
            e = spec.element(rng.randrange(spec.char))
        else:
            e = spec.element(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        if e or not nonzero:
            return e


def _multilinear(m, rng, spec, vars, count: int):
    """Exactly ``count`` distinct monomials multilinear in the y's, t-free,
    with nonzero coefficients."""
    n = vars.n
    patterns = list(itertools.product((0, 1), repeat=n))
    terms = {
        tuple([0] * vars.r + list(bits)): rand_elem(rng, spec, nonzero=True)
        for bits in rng.sample(patterns, min(count, len(patterns)))
    }
    return m.polyring.MultiPoly(spec, vars, terms)


def admissible_cycle(m, rng, spec, r: int, n: int):
    """V(1 - t1...tr*g + t^e*h) with g, h multilinear in y: certified
    admissible in the PSI model by construction.  Term counts are fixed per
    n so items of one (field, n) cost about the same."""
    MultiPoly, VarSet = m.polyring.MultiPoly, m.polyring.VarSet
    vars = VarSet(r, n)
    tprod = MultiPoly(spec, vars, {tuple([1] * r + [0] * n): spec.one})
    f = MultiPoly.const(spec, vars, 1) - tprod * _multilinear(m, rng, spec, vars, max(1, 2 ** n // 2))
    exps = [rng.randint(1, 2) for _ in range(r)]
    if all(e == 1 for e in exps):
        exps[rng.randrange(r)] += 1
    higher = MultiPoly(spec, vars, {tuple(exps + [0] * n): spec.one})
    f = f + higher * _multilinear(m, rng, spec, vars, max(1, 2 ** n // 4))
    return m.cycles.HypersurfaceCycle.from_poly(f, m.cycles.CoordModel.PSI)


# ---------------------------------------------------------------------------
# suite-full
# ---------------------------------------------------------------------------


class SuiteFull:
    """One ``run_suites(seed, "full")`` call per round; items are suite cases."""

    name = "suite-full"
    ROUNDS = 2  # a round takes 10 to 16 s

    def __init__(self, m, seed: int, workdir: str):
        self.m, self.seed = m, seed
        self.report_sha256 = None
        self.rounds = 0
        # The residue fields of Weil-reciprocity places and the K_2 table's
        # fields (with dlog tables) persist in make_field's cache; those two
        # suites are the only ones that add to it, so running them once at
        # this seed warms exactly what a full round will find cached.
        for spec in (m.suites.F5, m.suites.F7, m.suites.F11):
            spec._dlog_table
        m.suites.run_suites(seed, "full", only=["k2-table", "weil-reciprocity"])
        # A case runs from starts[k] to ends[k]; between the two stamps
        # the recorder may time its reference loop.
        self.starts: list[float] = []
        self.ends: list[tuple[float, bool]] = []
        self.rec = Recorder()
        starts, ends = self.starts, self.ends
        record = m.suites.SuiteResult.record

        def timed_record(result, ok, label):
            record(result, ok, label)
            ends.append((perf_counter(), ok))
            self.rec.begin(len(ends))
            starts.append(perf_counter())

        m.suites.SuiteResult.record = timed_record

    def _run(self, rec: Recorder, only=None) -> float:
        """One run_suites call; each case becomes an item of ``rec``, and an
        exception from the call becomes one more, failed, item."""
        self.ends.clear()
        self.rec = rec
        rec.begin(0)
        t0 = perf_counter()
        self.starts[:] = [t0]
        error = None
        try:
            report = self.m.suites.run_suites(self.seed, "full", only=only)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            error = _describe(exc)
        wall = perf_counter() - t0
        name = only or f"round {self.rounds + 1}"
        if error is not None:
            report_ok, digest = True, "none"  # the error item below fails instead
        else:
            digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
            report_ok = report["all_passed"]
            if only is None:
                self.report_sha256 = self.report_sha256 or digest
                report_ok = (
                    report_ok
                    and digest == self.report_sha256
                    and (self.seed != 42 or digest.startswith(SUITE_REPORT_PREFIX_SEED42))
                )
        if only is None:
            self.rounds += 1
        for k, (t, ok) in enumerate(self.ends):
            rec.item("case", t - self.starts[k], ok and report_ok, f"{name} case {k} report {digest[:16]}")
        if error is not None:
            rec.item("case", t0 + wall - self.starts[-1], False,
                     f"{name} after case {len(self.ends)}: {error}")
        return wall

    def run_round(self, rec: Recorder) -> None:
        self._run(rec)

    def untraced_suite_seconds(self, rec: Recorder) -> dict[str, float]:
        """Each suite alone, via run_suites(seed, "full", only=[name])."""
        return {name: self._run(rec, [name]) for name in sorted(self.m.suites.SUITES)}

    def summary(self) -> dict:
        return {"report_sha256": self.report_sha256}


# ---------------------------------------------------------------------------
# cert-roundtrip
# ---------------------------------------------------------------------------


class CertRoundtrip:
    """Write certificates to files, then re-verify every file.

    A round writes CERTS certificates (the four kinds in turn, over F5, F7
    and Q), writes MUTANTS/2 transcript-data mutants and MUTANTS/2 claim-only
    mutants of some of them, and reads all CERTS + MUTANTS files back in a
    seeded order; every CLI_EVERY-th read goes through ``cli.main verify``
    in-process, the rest through ``verify_certificate(json.load(...))``."""

    name = "cert-roundtrip"
    ROUNDS = 4  # a round takes 6 to 9 s
    # 1000 writes and 1008 direct reads give gen and verify p99 ten samples
    # beyond them.
    CERTS = 1000
    MUTANTS = 120
    CLI_EVERY = 10

    def __init__(self, m, seed: int, workdir: str):
        self.m = m
        self.workdir = workdir
        self.bytes_written = 0
        rng = random.Random(f"{seed}:{self.name}")
        fields = (m.fields.make_field(5), m.fields.make_field(7), m.fields.make_field(0))
        for spec in fields[:2]:
            spec._dlog_table
        self.specs = [self._make_input(rng, i, fields[i % 3]) for i in range(self.CERTS)]
        chosen = rng.sample(range(self.CERTS), self.MUTANTS)
        half = self.MUTANTS // 2
        self.mutants = [(i, "data") for i in chosen[:half]] + [(i, "claim") for i in chosen[half:]]
        reads = [(self._path(i), i, None) for i in range(self.CERTS)]
        reads += [(self._path(i, mode), i, mode) for i, mode in self.mutants]
        rng.shuffle(reads)
        self.reads = [(path, i, mode, k % self.CLI_EVERY == self.CLI_EVERY - 1)
                      for k, (path, i, mode) in enumerate(reads)]

    def _path(self, i: int, mutant: str | None = None) -> str:
        return os.path.join(self.workdir, f"cert-{i:04d}{'-' + mutant if mutant else ''}.json")

    def _make_input(self, rng, i: int, spec):
        m = self.m
        cyc, MultiPoly, VarSet = m.cycles, m.polyring.MultiPoly, m.polyring.VarSet
        kind = CERT_KINDS[i % 4]
        r = 2 + (i // 4) % 2
        if kind == "bounding_surface":
            vars = VarSet(r, 0)
            g = MultiPoly.zero(spec, vars)
            while not g:
                for _ in range(rng.randrange(1, 4)):
                    exps = tuple(rng.randrange(0, 3) for _ in range(r))
                    g = g + MultiPoly(spec, vars, {exps: rand_elem(rng, spec, nonzero=True)})
            tprod = MultiPoly(spec, vars, {(1,) * r: spec.one})
            Z = cyc.HypersurfaceCycle.from_poly(MultiPoly.const(spec, vars, 1) - tprod * g,
                                                cyc.CoordModel.PSI)
            return kind, (Z, cyc.ModulusDatum.monomial(spec, [1] * r))
        if kind == "generator_cycle":
            return kind, (rand_elem(rng, spec, nonzero=True), r)
        if kind == "verify_rho_reciprocity":
            W = admissible_cycle(m, rng, spec, 2, 2)
            return kind, (W, cyc.ModulusDatum.monomial(spec, [1, 1]))
        coords = [rand_elem(rng, spec, nonzero=True) for _ in range(r)]
        D = cyc.ModulusDatum.monomial(spec, [rng.randint(1, 3) for _ in range(r)])
        variant = "plain" if (i // 4) % 2 else "product_base"
        return kind, (cyc.ClosedPoint(spec, coords, []), D, variant)

    def _build(self, kind: str, args):
        w = self.m.witnesses
        if kind == "bounding_surface":
            return w.bounding_surface(*args)
        if kind == "generator_cycle":
            return w.generator_cycle(*args)[1]
        if kind == "verify_rho_reciprocity":
            return w.verify_rho_reciprocity(*args)
        z, D, variant = args
        return w.zero_cycle_vanishing_witness(z, D, n=0, variant=variant)

    def run_round(self, rec: Recorder) -> None:
        written = {}
        self.bytes_written = 0
        for i, (kind, args) in enumerate(self.specs):
            rec.begin(i)
            t0 = perf_counter()
            try:
                cert = self._build(kind, args)
                text = json.dumps(cert.to_json())
                with open(self._path(i), "w") as fh:
                    fh.write(text)
                ok = cert.valid
                written[i] = text
                self.bytes_written += len(text)
                label = f"{kind} #{i}"
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                ok, label = False, f"{kind} #{i}: {_describe(exc)}"
            rec.item("gen", perf_counter() - t0, ok, label)
        for i, mode in self.mutants:
            # Without its file, the mutant's read raises and counts as a failure.
            if i not in written:
                continue
            try:
                data = json.loads(written[i])
                (mutate_transcript_data if mode == "data" else mutate_claim)(data)
            except Exception:  # noqa: BLE001
                continue
            with open(self._path(i, mode), "w") as fh:
                fh.write(json.dumps(data))
        verify, cli = self.m.witnesses.verify_certificate, self.m.cli
        for k, (path, i, mode, via_cli) in enumerate(self.reads):
            rec.begin(len(self.specs) + k)
            want_valid = mode is None
            raised = False
            t0 = perf_counter()
            try:
                if via_cli:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(["verify", "--file", path])
                    valid = json.loads(out.getvalue()).get("valid")
                    ok = code == (0 if want_valid else 1) and valid is want_valid
                else:
                    with open(path) as fh:
                        ok = verify(json.load(fh)) is want_valid
                label = f"{path} ({mode or 'genuine'})"
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                ok, raised, label = False, True, f"{path}: {_describe(exc)}"
            rec.item("cli_verify" if via_cli else "verify", perf_counter() - t0, ok, label,
                     known_defect=mode == "claim" and not raised)
        # Rewriting an existing file waits on the filesystem far more
        # unevenly than creating one, so every round starts with none.
        for path, *_ in self.reads:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)

    def summary(self) -> dict:
        return {
            "certificate_bytes_per_round": self.bytes_written,
            "certificates_per_round": self.CERTS,
            "mutants_per_round": {"data": self.MUTANTS // 2, "claim": self.MUTANTS // 2},
            "cli_share_of_reads": 1 / self.CLI_EVERY,
        }


def mutate_transcript_data(cert: dict) -> None:
    """Alter the data of the modulus entry so its recomputed verdict must
    change: a y1^2 term on a hypersurface (degree 2 violates the monomial
    modulus), or a zero t-coordinate on a point (it lands on the divisor)."""
    for entry in cert["transcript"]:
        if entry["check"] == "modulus_codim1":
            cycle = entry["data"]["cycle"]
            tprod = "*".join(f"t{j + 1}" for j in range(cycle["r"]))
            cycle["terms"][0]["poly"] += f" + {tprod}*y1^2"
            return
        if entry["check"] == "modulus_zerocycle":
            entry["data"]["cycle"]["points"][0]["t"][0] = "0"
            return
    raise ValueError("certificate has no modulus entry to mutate")


def _other_value(text: str, char: int) -> str:
    if char:
        v = int(text)
        return str((v + 1) % char or (v + 2) % char)
    v = Fraction(text) + 1
    return str(v if v else v + 1)


def mutate_claim(cert: dict) -> None:
    """Alter only the claim: the claimed value, cycle or point no longer
    matches what the transcript proves."""
    claim = cert["claim"]
    if "value" in claim:
        claim["value"] = _other_value(claim["value"], claim["cycle"]["field"]["char"])
    elif "cycle" in claim:
        claim["cycle"]["terms"][0]["poly"] += " + t1^5"
    else:
        point = claim["point"]
        coords = point["points"][0]["t"]
        coords[0] = _other_value(coords[0], point["field"]["char"])


# ---------------------------------------------------------------------------
# ext-deep
# ---------------------------------------------------------------------------


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, d) with q = p**d, or None."""
    p = next(k for k in range(2, q + 1) if q % k == 0)
    d = 0
    while q % p == 0:
        q //= p
        d += 1
    return (p, d) if q == 1 else None


class ExtDeep:
    """Extension-field cycles up to n = 4, Weil reciprocity with places of
    degree >= 2, and the K_2 oracle, in one seeded shuffled round of 1008
    items, so that p99 has ten samples beyond it."""

    name = "ext-deep"
    ROUNDS = 2  # a round takes 10 to 16 s
    # Cycles per field.  The 18 n = 4 cycles over Q(i) are the slowest
    # items, so p99 (the 11th slowest) falls inside their cluster and not at
    # its edge, where it would move with which inputs a seed draws.
    CYCLES_PER_N = {1: 36, 2: 24, 3: 12, 4: 18}
    # (deg f, deg g) pairs per prime, each drawn WEIL_PER_PAIR times.  Over
    # F7 degrees stop at 4: each degree-5 place there needs a residue field
    # of 16807 elements, whose generator search in make_field costs up to a
    # second of set-up, and how many such places a seed draws varied set-up
    # time threefold.
    WEIL_DEGREES = {p: tuple(itertools.product(range(2, 5 if p == 7 else 6), repeat=2))
                    for p in (2, 3, 5, 7)}
    WEIL_PER_PAIR = 6
    K2_QS = tuple(q for q in range(2, 65) if _prime_power(q))
    K2_REPEATS = 8

    def __init__(self, m, seed: int, workdir: str):
        self.m = m
        f = m.fields
        rng = random.Random(f"{seed}:{self.name}")
        fields = [f.standard_extension(3, 2), f.standard_extension(2, 3), f.standard_extension(5, 2),
                  f.standard_extension(7, 2), f.make_field(0, [1, 0, 1])]
        items = []
        for spec in fields:
            D = m.cycles.ModulusDatum.monomial(spec, [1, 1])
            for n, count in self.CYCLES_PER_N.items():
                for _ in range(count):
                    items.append(("cycle_n%d" % n, (admissible_cycle(m, rng, spec, 2, n), D)))
        for p, pairs in self.WEIL_DEGREES.items():
            spec = f.make_field(p)
            ff = m.milnor.FunctionField(spec)
            for degrees in pairs * self.WEIL_PER_PAIR:
                polys = [f.UniPoly(spec, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
                         for d in degrees]
                for poly in polys:  # residue fields of the places persist in make_field's cache
                    for part in f.factor_univariate(poly).parts:
                        if part.poly.degree >= 2:
                            f.make_field(p, [c.value for c in part.poly.coeffs])
                sym = m.milnor.MilnorSymbol(ff, [m.polyring.RatFunc.from_poly(g) for g in polys])
                items.append(("weil", (spec, m.milnor.MilnorElement(ff, [(1, sym)]))))
        for q in self.K2_QS:
            p, d = _prime_power(q)
            (f.make_field(p) if d == 1 else f.standard_extension(p, d))._dlog_table
            items += [("k2", q)] * self.K2_REPEATS
        rng.shuffle(items)
        self.items = items

    def _cycle(self, Z, D) -> bool:
        c = self.m.cycles
        n = Z.vars.n
        face_ok = c.check_face_condition(Z).passed
        certified = c.check_modulus_codim1(Z, D).verdict is c.ModulusVerdict.CERTIFIED
        b1 = c.boundary(Z, level0_flag=False)
        square_zero = n < 2 or not c.boundary(b1, level0_flag=False)
        Zo = c.psi_convert(Z, c.CoordModel.ORIGINAL)
        round_trip = c.psi_convert(Zo, c.CoordModel.PSI) == Z
        return face_ok and certified and square_zero and round_trip

    def _weil(self, spec, sym) -> bool:
        mil, fields = self.m.milnor, self.m.fields
        total = spec.one
        for _, e in mil.total_delta(sym).items():
            val = mil.k1_value(e)
            if val.spec != spec:
                val = fields.norm_k1_finite(val)
            total = total * val
        return total == spec.one

    def run_round(self, rec: Recorder) -> None:
        for k, (kind, args) in enumerate(self.items):
            rec.begin(k)
            t0 = perf_counter()
            try:
                if kind == "k2":
                    ok = self.m.milnor.k2_presentation_oracle(args).trivial
                elif kind == "weil":
                    ok = self._weil(*args)
                else:
                    ok = self._cycle(*args)
                label = f"item {k}"
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                ok, label = False, f"item {k}: {_describe(exc)}"
            rec.item(kind, perf_counter() - t0, ok, label)

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for kind, _ in self.items:
            counts[kind] = counts.get(kind, 0) + 1
        return {"items_per_round": counts}


WORKLOADS = {cls.name: cls for cls in (SuiteFull, CertRoundtrip, ExtDeep)}
