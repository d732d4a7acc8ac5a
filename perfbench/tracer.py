"""Runtime tracing of the modcycles layers, installed from outside the package.

The tracer rebinds public functions and methods of a freshly imported
modcycles to timing wrappers.  Names copied by ``from ... import`` are found
by identity in every modcycles module (and in ``suites.SUITES``) and rebound
too, so ``modcycles.suites.boundary`` is traced as well as
``modcycles.cycles.boundary``.

Two kinds of wrapper exist:

* counters (``fields``, ``polyring``): call count, returned-normally count
  and accumulated inclusive time per site; millions of calls happen per run,
  so nothing is stored per call;
* spans (``cycles``, ``milnor``, ``witnesses``, ``serialize``, ``suites``,
  ``cli``): the same counters plus one span per call,
  ``(site, start, end, parent index, item id)``.

Every wrapper also keeps a stack of child time, so each layer's self time is
its wrapped calls' duration minus the wrapped calls nested directly in them.
Everything stays in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import CERT_KINDS

LAYERS = ("fields", "polyring", "cycles", "milnor", "witnesses", "serialize", "suites", "cli")


class Tracer:
    def __init__(self):
        self.sites: dict[str, list] = {}  # site -> [calls, returned, inclusive s]
        self.layer_self = {layer: [0.0] for layer in LAYERS}
        self.spans: list = []
        self.item = None
        self._child = [0.0]  # child time of each open wrapped call
        self._open = [(-1, None)]  # (span index, site) of each open span

    def site(self, name: str) -> list:
        return self.sites.setdefault(name, [0, 0, 0.0])

    @property
    def parent_site(self):
        return self._open[-1][1]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: str, pick, span: bool):
        child, opened, spans = self._child, self._open, self.spans
        self_acc = self.layer_self[layer]
        perf = time.perf_counter
        tracer = self

        if not span:
            def counted(*args, **kwargs):
                rec = pick(args)
                child.append(0.0)
                t0 = perf()
                ok = False
                try:
                    out = fn(*args, **kwargs)
                    ok = True
                    return out
                finally:
                    dt = perf() - t0
                    inner = child.pop()
                    child[-1] += dt
                    self_acc[0] += dt - inner
                    rec[0] += 1
                    rec[1] += ok
                    rec[2] += dt
            wrapper = counted
        else:
            def spanned(*args, **kwargs):
                name = pick(args)
                rec = tracer.site(name)
                idx = len(spans)
                spans.append(None)
                parent = opened[-1][0]
                opened.append((idx, name))
                child.append(0.0)
                t0 = perf()
                ok = False
                try:
                    out = fn(*args, **kwargs)
                    ok = True
                    return out
                finally:
                    t1 = perf()
                    dt = t1 - t0
                    inner = child.pop()
                    opened.pop()
                    child[-1] += dt
                    self_acc[0] += dt - inner
                    rec[0] += 1
                    rec[1] += ok
                    rec[2] += dt
                    spans[idx] = (name, t0, t1, parent, tracer.item)
            wrapper = spanned
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def patch_function(self, module, name: str, layer: str, site, span: bool = False):
        """Wrap ``module.name`` and rebind every modcycles alias of it.

        ``site`` is a site name or a function of the call's positional
        arguments that returns one."""
        orig = getattr(module, name)
        pick = self._picker(site, span)
        wrapper = self._wrap(orig, layer, pick, span)
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "modcycles"]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
        suites = sys.modules.get("modcycles.suites")
        if suites is not None:
            for key, val in list(suites.SUITES.items()):
                if val is orig:
                    suites.SUITES[key] = wrapper

    def patch_method(self, cls, name: str, layer: str, site, span: bool = False):
        """Wrap ``cls.name`` and every alias of it in the class (``__rmul__``)."""
        orig = cls.__dict__[name]
        wrapper = self._wrap(orig, layer, self._picker(site, span), span)
        for attr, val in list(cls.__dict__.items()):
            if val is orig:
                setattr(cls, attr, wrapper)

    def _picker(self, site, span: bool):
        if callable(site):
            if span:
                return site
            return lambda args: self.site(site(args))
        if span:
            return lambda args: site
        rec = self.site(site)
        return lambda args: rec

    # -- output --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.sites.get(name, [0, 0, 0.0])[0]

    def returned(self, name: str) -> int:
        return self.sites.get(name, [0, 0, 0.0])[1]

    def seconds(self, name: str) -> float:
        return self.sites.get(name, [0, 0, 0.0])[2]

    def outermost_seconds(self, prefix: str) -> float:
        """Summed duration of spans whose site starts with ``prefix`` and
        whose parent span does not: the time a re-entrant layer was entered."""
        spans = self.spans
        total = 0.0
        for name, t0, t1, parent, _ in spans:
            if name.startswith(prefix) and (parent < 0 or not spans[parent][0].startswith(prefix)):
                total += t1 - t0
        return total

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, item) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, round(t0, 7), round(t1, 7), parent, item]) + "\n")


# ---------------------------------------------------------------------------
# What is traced in modcycles
# ---------------------------------------------------------------------------


def _mul_site(args):
    return "fields.mul.ext" if isinstance(args[0].value, tuple) else "fields.mul.base"


def instrument(tracer: Tracer, m) -> None:
    """Install the wrappers on a freshly imported modcycles namespace ``m``."""
    f, p, c, mil, w, ser, s, cli = (m.fields, m.polyring, m.cycles, m.milnor, m.witnesses,
                                    m.serialize, m.suites, m.cli)

    E = f.FieldElement
    tracer.patch_method(E, "__mul__", "fields", _mul_site)
    tracer.patch_method(E, "__add__", "fields", "fields.add")
    for name in ("__sub__", "__rsub__", "__neg__", "inverse", "__truediv__", "__rtruediv__", "__pow__"):
        tracer.patch_method(E, name, "fields", "fields.other")
    tracer.patch_method(f.FieldSpec, "element", "fields", "fields.element")
    for name in ("__add__", "__sub__", "__mul__", "__divmod__", "eval", "powmod"):
        tracer.patch_method(f.UniPoly, name, "fields", "fields.unipoly")
    tracer.patch_function(f, "factor_univariate", "fields", "fields.factor")
    tracer.patch_function(f, "norm_k1_finite", "fields", "fields.norm")
    tracer.patch_function(f, "make_field", "fields", "fields.make_field")

    P = p.MultiPoly
    tracer.patch_method(P, "__init__", "polyring", "polyring.construct")
    tracer.patch_method(P, "__mul__", "polyring", "polyring.mul")
    tracer.patch_method(P, "substitute", "polyring", "polyring.substitute")
    tracer.patch_method(P, "exact_div", "polyring", "polyring.exact_div")
    tracer.patch_method(P, "to_text", "polyring", "polyring.to_text")
    for name in ("__add__", "__sub__", "__rsub__", "__neg__", "__pow__", "coefficient_of",
                 "drop_var", "eval"):
        tracer.patch_method(P, name, "polyring", "polyring.other")
    for name in ("parse_poly", "parse_ratfunc", "parse_unipoly"):
        tracer.patch_function(p, name, "polyring", "polyring.parse")
    for name in ("__init__", "__add__", "__sub__", "__mul__", "__truediv__", "eval"):
        tracer.patch_method(p.RatFunc, name, "polyring", "polyring.ratfunc")

    tracer.patch_method(c.HypersurfaceCycle, "__init__", "cycles", "cycles.construct")
    tracer.patch_function(c, "boundary", "cycles", lambda a: f"cycles.boundary.n{a[0].vars.n}", span=True)
    faces = tracer.site("cycles.faces_enumerated")

    def face_check_site(args):
        Z = args[0]
        if not isinstance(Z, c.HypersurfaceCycle):
            return "cycles.face_check.zero_cycle"
        faces[0] += len(Z.terms) * (3 ** Z.vars.n - 1)
        return f"cycles.face_check.n{Z.vars.n}"

    tracer.patch_function(c, "check_face_condition", "cycles", face_check_site, span=True)
    for name in ("check_modulus_codim1", "check_modulus_zerocycle"):
        tracer.patch_function(c, name, "cycles", "cycles.modulus", span=True)
    tracer.patch_function(c, "psi_convert", "cycles", "cycles.convert", span=True)
    tracer.patch_function(c, "curve_boundary", "cycles", "cycles.curve_boundary", span=True)
    for name in ("face_restrict", "prune_degenerate", "curve_avoids_divisor",
                 "pushforward_closed_immersion"):
        tracer.patch_function(c, name, "cycles", f"cycles.{name}", span=True)

    tracer.patch_function(mil, "total_delta", "milnor", "milnor.total_delta", span=True)
    tracer.patch_function(mil, "tame_symbol", "milnor", "milnor.tame_symbol", span=True)
    tracer.patch_function(mil, "k2_presentation_oracle", "milnor", "milnor.k2_oracle", span=True)
    for name in ("verify_steinberg_curve", "verify_mult_curve", "verify_xi_curve"):
        tracer.patch_function(mil, name, "milnor", "milnor.curve_verify", span=True)
    for name in ("k1_value", "symbol_reduce", "totaro_steinberg_curve", "totaro_mult_curve",
                 "xi_curve", "phi_map"):
        tracer.patch_function(mil, name, "milnor", f"milnor.{name}", span=True)

    for name in CERT_KINDS:
        tracer.patch_function(w, name, "witnesses", f"witnesses.generate.{name}", span=True)
    tracer.patch_function(w, "verify_certificate", "witnesses", "witnesses.verify", span=True)
    tracer.patch_function(
        w, "_run_check", "witnesses",
        lambda a: "witnesses.recheck" if tracer.parent_site == "witnesses.verify" else "witnesses.check",
        span=True)
    for name in ("rho", "rho_of_boundary"):
        tracer.patch_function(w, name, "witnesses", f"witnesses.{name}", span=True)

    for name in sorted(vars(ser)):
        obj = getattr(ser, name)
        if callable(obj) and getattr(obj, "__module__", None) == ser.__name__ and not isinstance(obj, type):
            if name.endswith("_to_json"):
                tracer.patch_function(ser, name, "serialize", "serialize.encode", span=True)
            elif name.endswith("_from_json"):
                tracer.patch_function(ser, name, "serialize", "serialize.decode", span=True)

    tracer.patch_function(s, "run_suites", "suites", "suites.run_suites", span=True)
    for key, fn in list(s.SUITES.items()):
        tracer.patch_function(s, fn.__name__, "suites", f"suites.{key}", span=True)

    tracer.patch_function(cli, "main", "cli", "cli.main", span=True)
    tracer.patch_function(cli, "cmd_verify", "cli", "cli.cmd_verify", span=True)
