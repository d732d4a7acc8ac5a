"""Command-line front end.

Reads cycle/symbol JSON or inline polynomial text, runs the checkers and
witness generators, and emits deterministic JSON reports.  Exit codes:
0 success/Valid, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .fields import ModcyclesError, make_field
from .polyring import VarSet, parse_poly, parse_ratfunc, parse_unipoly
from .cycles import (
    FACE_CHECK_MAX_N,
    CoordModel,
    HypersurfaceCycle,
    ModulusDatum,
    ModulusVerdict,
    boundary,
    check_face_condition,
    check_modulus_codim1,
    check_modulus_zerocycle,
    curve_boundary,
    psi_convert,
)
from .milnor import (
    FunctionField,
    K2_ORACLE_MAX_Q,
    XI_MAX_POWER,
    Valuation,
    k2_table,
    symbol_reduce,
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
    GENERATOR_MAX_R,
    bounding_surface,
    generator_cycle,
    rho,
    verify_certificate,
    zero_cycle_vanishing_witness,
    WitnessCertificate,
)
from . import serialize as ser
from .suites import run_suites


class InputError(ModcyclesError):
    pass


# Most entries `curves totaro` and `curves xi` take in --entries.  Each
# entry adds a coordinate to the curve, and the cost of `curves xi` grows
# faster than linearly in their number: on a 2-core x86 box `curves xi
# --field Q` with linear entries takes about 0.07 s at 32 entries and 0.35 s
# at 64; `curves totaro` takes a few milliseconds at 64.
CURVES_MAX_ENTRIES = 64


def _parse_field(text: str):
    if text in ("Q", "q"):
        return make_field(0)
    parts = text.split(":")
    if parts[0] in ("Fp", "fp") and len(parts) == 2:
        return make_field(int(parts[1]))
    if parts[0] in ("Fq", "fq") and len(parts) == 3:
        p = int(parts[1])
        mu = parse_unipoly(parts[2], make_field(p), var="u")
        return make_field(p, mu)
    raise InputError(f"cannot parse field {text!r}; use Q, Fp:p, or Fq:p:mu")


def _parse_model(text: str) -> CoordModel:
    try:
        return CoordModel(text.upper())
    except ValueError:
        raise InputError(f"model must be 'original' or 'psi', got {text!r}") from None


def _parse_scalar(text: str, spec):
    """A field element from decimal or fraction text such as 3, -2 or 1/2."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot read {text!r} as a field element") from None
    return spec.element(value)


def _parse_modulus(text: str, spec) -> ModulusDatum:
    exps = [int(x) for x in text.split(",") if x.strip()]
    return ModulusDatum.monomial(spec, exps)


def _load_json(path: str | None) -> dict:
    if path is None:
        raise InputError("no input file given; pass --file")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _decode_file(path: str | None, decode):
    """``decode`` of the JSON document at ``path``; a document of the wrong
    shape, which makes the decoder index a wrong type, is an InputError."""
    data = _load_json(path)
    try:
        return decode(data)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise InputError(f"{path} has the wrong shape: {type(exc).__name__}: {exc}") from None


def _curve_from_json(data):
    """The curve and, if the document has one, its embedding."""
    C = ser.curve_from_json(data)
    emb = ser.embedding_from_json(data["embedding"], C.spec) if "embedding" in data else None
    return C, emb


def _load_cycle(args):
    """Cycle plus modulus from --file or --inline plus flags."""
    if args.file:
        Z, D = _decode_file(args.file, lambda data: ser.cycle_codec(data)(data))
        if D is None and args.modulus:
            D = _parse_modulus(args.modulus, Z.spec)
        return Z, D
    if args.inline:
        if not args.field:
            raise InputError("--inline needs --field")
        spec = _parse_field(args.field)
        if not args.modulus:
            raise InputError("--inline needs --modulus to fix the t-variable count")
        D = _parse_modulus(args.modulus, spec)
        model = _parse_model(args.model)
        vars = VarSet(D.r, args.n)
        poly = parse_poly(args.inline, spec, vars)
        return HypersurfaceCycle.from_poly(poly, model), D
    raise InputError("provide --file or --inline")


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -------------------------------------------------------


def cmd_check_cycle(args) -> int:
    Z, D = _load_cycle(args)
    report = {}
    face = check_face_condition(Z)
    report["face"] = "pass" if face.passed else "fail"
    if face.violations:
        report["violations"] = [v.to_json() for v in face.violations]
    ok = face.passed
    if isinstance(Z, HypersurfaceCycle):
        if D is not None:
            mod = check_modulus_codim1(Z, D)
            report["modulus"] = mod.verdict.value
            ok = ok and mod.verdict is ModulusVerdict.CERTIFIED
    else:
        if D is not None:
            good = check_modulus_zerocycle(Z, D)
            report["modulus"] = bool(good)
            ok = ok and good
    _emit(report, args)
    return 0 if ok else 1


def cmd_boundary(args) -> int:
    if args.curve:
        C, emb = _decode_file(args.curve, _curve_from_json)
        out = curve_boundary(C, embedding=emb)
        _emit(ser.zerocycle_to_json(-out if args.flip_sign else out), args)
        return 0
    Z, D = _load_cycle(args)
    if not isinstance(Z, HypersurfaceCycle):
        raise InputError("0-cycles have no boundary; use --curve for curves")
    out = boundary(Z, level0_flag=args.level0_degeneracy == "on")
    _emit(ser.cycle_to_json(-out if args.flip_sign else out, D), args)
    return 0


def cmd_rho(args) -> int:
    Z, D = _load_cycle(args)
    value = rho(Z, D)
    _emit({"rho": ser.element_to_json(value)}, args)
    return 0


def cmd_witness_bounding(args) -> int:
    Z, D = _load_cycle(args)
    if D is None:
        raise InputError("a modulus is required")
    cert = bounding_surface(Z, D, level0_flag=args.level0_degeneracy == "on")
    _emit(cert.to_json(), args)
    return 0 if cert.valid else 1


def cmd_witness_zero_cycle(args) -> int:
    Z, D = _load_cycle(args)
    if D is None:
        raise InputError("a modulus is required")
    pts = Z.items()
    if len(pts) != 1 or pts[0][1] != 1:
        raise InputError("the witness generator takes a single point with multiplicity 1")
    cert = zero_cycle_vanishing_witness(
        pts[0][0], D, n=Z.n, model=Z.model,
        variant=args.variant.replace("-", "_"),
    )
    _emit(cert.to_json(), args)
    return 0 if cert.valid else 1


def cmd_generator(args) -> int:
    spec = _parse_field(args.field)
    a = _parse_scalar(args.a, spec)
    Z, cert = generator_cycle(a, args.r, level0_flag=args.level0_degeneracy == "on")
    D = ModulusDatum.monomial(spec, [1] * args.r)
    report = {
        "cycle": ser.cycle_to_json(Z, D),
        "rho": ser.element_to_json(rho(Z, D)),
        "certificate": cert.to_json(),
    }
    _emit(report, args)
    return 0 if cert.valid else 1


def cmd_ktheory(args) -> int:
    if args.kaction == "k2-table":
        table = k2_table(args.max_q)
        _emit({"k2": [pres.to_json() for pres in table]}, args)
        return 0 if all(pres.trivial for pres in table) else 1
    elem = _decode_file(args.file, ser.milnor_element_from_json)
    if args.kaction == "reduce":
        red = symbol_reduce(elem, certificate_mode=args.certificate)
        report = {"result": ser.milnor_element_to_json(red.result)}
        if red.theorem_backed:
            report["theorem_backed"] = "Steinberg"
        if red.oracle is not None:
            report["oracle"] = red.oracle.to_json()
        _emit(report, args)
        return 0
    if args.kaction == "tame":
        ff = elem.field
        if not isinstance(ff, FunctionField):
            raise InputError("tame symbols need a function-field element")
        if args.infinity:
            v = Valuation(ff, None)
        elif args.pi:
            v = Valuation(ff, parse_unipoly(args.pi, ff.base).monic())
        else:
            raise InputError("give --pi or --infinity")
        out = tame_symbol(v, elem)
        _emit({"place": ser.place_to_json(v),
               "residue": ser.milnor_element_to_json(out)}, args)
        return 0
    if args.kaction == "delta":
        out = total_delta(elem)
        _emit({"residues": [
            {"place": ser.place_to_json(v), "value": ser.milnor_element_to_json(e)}
            for v, e in out.items()
        ]}, args)
        return 0
    raise InputError(f"unknown ktheory action {args.kaction!r}")


def cmd_curves(args) -> int:
    needed = ["entries"] + (["unit", "pi"] if args.curve_kind == "xi" else [])
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise InputError(f"curves {args.curve_kind} needs {', '.join(missing)}")
    parts = args.entries.split("," if args.curve_kind == "totaro" else ";")
    if len(parts) > CURVES_MAX_ENTRIES:
        raise InputError(f"--entries has {len(parts)} entries, above "
                         f"CURVES_MAX_ENTRIES = {CURVES_MAX_ENTRIES}")
    spec = _parse_field(args.field)
    if args.curve_kind == "totaro":
        entries = [_parse_scalar(x, spec) for x in parts]
        if args.relation == "steinberg":
            f1, extra = entries[0], entries[1:]
            curve = totaro_steinberg_curve(f1, extra)
            out = verify_steinberg_curve(curve, f1, extra)
        else:
            if len(entries) != 2:
                raise InputError("the multiplicativity curve takes exactly f,g")
            curve = totaro_mult_curve(entries[0], entries[1])
            out = verify_mult_curve(curve, entries[0], entries[1])
    else:
        fs = [parse_ratfunc(x, spec) for x in parts]
        u = parse_ratfunc(args.unit, spec)
        pi = parse_unipoly(args.pi, spec).monic()
        curve = xi_curve(fs, u, pi, args.power)
        out = verify_xi_curve(curve)
    report = {
        "curve": ser.curve_to_json(curve),
        "boundary": ser.zerocycle_to_json(out.actual),
        "identity": bool(out.ok),
        "sign": out.sign,
    }
    _emit(report, args)
    return 0 if out.ok else 1


def cmd_convert_model(args) -> int:
    Z, D = _load_cycle(args)
    target = _parse_model(args.to)
    out = psi_convert(Z, target)
    if isinstance(out, HypersurfaceCycle):
        _emit(ser.cycle_to_json(out, D), args)
    else:
        _emit(ser.zerocycle_to_json(out, D), args)
    return 0


def cmd_suite(args) -> int:
    only = args.only.split(",") if args.only else None
    report = run_suites(args.seed, sizes=args.sizes, only=only)
    _emit(report, args)
    return 0 if report["all_passed"] else 1


def cmd_verify(args) -> int:
    data = _load_json(args.file)
    cert = WitnessCertificate.from_json(data)
    ok = verify_certificate(cert)
    _emit({"valid": bool(ok)}, args)
    return 0 if ok else 1


# -- argument wiring -----------------------------------------------------------


def _add_io(p, inline=True):
    p.add_argument("--file", help="input JSON path")
    if inline:
        p.add_argument("--inline", help="inline polynomial text")
        p.add_argument("--field", help="Q | Fp:p | Fq:p:mu")
        p.add_argument("--model", default="psi", help="original | psi")
        p.add_argument("--n", type=int, default=1,
                       help="number of cube variables; face checks take at most "
                            f"FACE_CHECK_MAX_N = {FACE_CHECK_MAX_N}")
    p.add_argument("--modulus", help="comma-separated monomial exponents")
    p.add_argument("--out", help="write the report here instead of stdout")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in the parser, each call gets a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="modcycles",
        description="exact cycle calculus with modulus: checkers, boundaries, "
                    "residues, K-theory, and re-verifiable witnesses",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-cycle", help="face and modulus admissibility report")
    _add_io(p)
    p.set_defaults(fn=cmd_check_cycle)

    p = sub.add_parser("boundary", help="cubical boundary of a cycle or curve")
    _add_io(p)
    p.add_argument("--curve", help="curve JSON path (instead of a cycle)")
    p.add_argument("--flip-sign", action="store_true",
                   help="print -d, the boundary in the opposite inner sign convention")
    p.add_argument("--level0-degeneracy", choices=("on", "off"), default="on")
    p.set_defaults(fn=cmd_boundary)

    p = sub.add_parser("rho", help="the residue invariant of a level-1 cycle")
    _add_io(p)
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("witness-bounding", help="bounding-surface certificate at level 0")
    _add_io(p)
    p.add_argument("--level0-degeneracy", choices=("on", "off"), default="on")
    p.set_defaults(fn=cmd_witness_bounding)

    p = sub.add_parser("witness-zero-cycle", help="0-cycle vanishing witness")
    _add_io(p, inline=False)
    p.add_argument("--variant", choices=("plain", "product-base"), default="plain")
    p.set_defaults(fn=cmd_witness_zero_cycle)

    p = sub.add_parser("generator", help="generator cycle with rho = a")
    p.add_argument("--a", required=True, help="the target residue value")
    p.add_argument("--r", type=int, default=2,
                   help=f"number of t-variables, at most GENERATOR_MAX_R = {GENERATOR_MAX_R}")
    p.add_argument("--field", required=True)
    p.add_argument("--level0-degeneracy", choices=("on", "off"), default="on")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generator)

    p = sub.add_parser("ktheory", help="symbol reduction, tame symbols, residues, K2 table")
    p.add_argument("kaction", choices=("reduce", "tame", "delta", "k2-table"))
    p.add_argument("--file", help="symbol/element JSON path")
    p.add_argument("--pi", help="monic irreducible place")
    p.add_argument("--infinity", action="store_true", help="the place at infinity")
    p.add_argument("--certificate", action="store_true", help="oracle-backed reduction")
    p.add_argument("--max-q", type=int, default=16,
                   help=f"k2-table: largest field size, from 2 to {K2_ORACLE_MAX_Q}")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ktheory)

    p = sub.add_parser("curves", help="witness curves and their boundary identities")
    p.add_argument("curve_kind", choices=("totaro", "xi"))
    p.add_argument("--relation", choices=("steinberg", "mult"), default="steinberg")
    p.add_argument("--field", default="Q")
    p.add_argument("--entries",
                   help="comma-separated field entries, or ';'-separated rational functions "
                        f"for xi; at most CURVES_MAX_ENTRIES = {CURVES_MAX_ENTRIES} of them")
    p.add_argument("--unit", help="the unit u for xi")
    p.add_argument("--pi", help="the uniformizer for xi")
    p.add_argument("--power", type=int, default=1,
                   help=f"the exponent r for xi, |r| at most XI_MAX_POWER = {XI_MAX_POWER}")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_curves)

    p = sub.add_parser("convert-model", help="move a cycle between coordinate models")
    _add_io(p)
    p.add_argument("--to", required=True, help="original | psi")
    p.set_defaults(fn=cmd_convert_model)

    p = sub.add_parser("suite", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sizes", choices=("small", "full"), default="full")
    p.add_argument("--only", help="comma-separated suite names")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("verify", help="re-verify a witness certificate")
    p.add_argument("--file", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ModcyclesError, ValueError) as exc:
        sys.stdout.write(json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            indent=2) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
