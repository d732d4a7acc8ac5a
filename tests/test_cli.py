"""Command-line surface: exit codes, schemas, determinism."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest

from modcycles.cli import CURVES_MAX_ENTRIES, build_parser, main
from modcycles.cycles import FACE_CHECK_MAX_N, ClosedPoint, ModulusDatum
from modcycles.fields import (
    RATIONAL_ROOT_MAX_INT,
    SQUAREFREE_SPLIT_MAX_DEGREE,
    UniPoly,
    is_irreducible,
    make_field,
)
from modcycles.milnor import XI_MAX_POWER
from modcycles.witnesses import GENERATOR_MAX_R, zero_cycle_vanishing_witness
from test_witnesses import forged_certificates


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run(argv)
    return code, json.loads(out)


class TestCheckCycle:
    def test_generator_cycle_inline(self, tmp_path):
        code, rep = run_json([
            "check-cycle", "--inline", "1 - 3*t1*t2*y1",
            "--field", "Fp:7", "--modulus", "1,1",
        ])
        assert code == 0
        assert rep == {"face": "pass", "modulus": "Certified"}

    def test_degree_violation_exits_1(self):
        code, rep = run_json([
            "check-cycle", "--inline", "1 - t1*t2*y1^2",
            "--field", "Fp:7", "--modulus", "1,1",
        ])
        assert code == 1 and rep["modulus"] == "ViolatesNecessary"

    def test_file_input(self, tmp_path):
        blob = {
            "field": {"char": 7}, "model": "PSI", "r": 2, "n": 1,
            "modulus": {"exponents": [1, 1]},
            "terms": [{"mult": 1, "poly": "1 - t1*t2*(3*y1 + 2)"}],
        }
        path = tmp_path / "z.json"
        path.write_text(json.dumps(blob))
        code, rep = run_json(["check-cycle", "--file", str(path)])
        assert code == 0 and rep["modulus"] == "Certified"

    def test_closure_on_a_mixed_face_fails(self, tmp_path):
        # ORIGINAL V(1 + y2 + y1*y2) has degree 1 in y1, so its closure
        # contains the face y1 = inf, y2 = 0
        blob = {
            "field": {"char": 7}, "model": "ORIGINAL", "r": 1, "n": 2,
            "terms": [{"mult": 1, "poly": "1 + y2 + y1*y2"}],
        }
        path = tmp_path / "z.json"
        path.write_text(json.dumps(blob))
        code, rep = run_json(["check-cycle", "--file", str(path)])
        assert code == 1 and rep["face"] == "fail"
        assert rep["violations"] == [{"component": "y1*y2 + y2 + 1",
                                      "face": {"y1": "inf", "y2": "0"}, "kind": "improper"}]


class TestRho:
    def test_spec_example(self):
        code, rep = run_json([
            "rho", "--inline", "1 - t1*t2*(3*y1+2)",
            "--field", "Fp:7", "--modulus", "1,1",
        ])
        assert code == 0 and rep == {"rho": "3"}

    def test_rational(self):
        code, rep = run_json([
            "rho", "--inline", "1 - t1*t2*(1/2*y1)",
            "--field", "Q", "--modulus", "1,1",
        ])
        assert code == 0 and rep == {"rho": "1/2"}


class TestBoundary:
    def test_boundary_flag(self):
        code, rep = run_json([
            "boundary", "--inline", "1 - 3*t1*t2*y1",
            "--field", "Fp:7", "--modulus", "1,1",
        ])
        assert code == 0 and rep["terms"] == []
        code, rep = run_json([
            "boundary", "--inline", "1 - 3*t1*t2*y1",
            "--field", "Fp:7", "--modulus", "1,1", "--level0-degeneracy", "off",
        ])
        assert rep["terms"] == [{"mult": 1, "poly": "4*t1*t2 + 1"}]

    @pytest.mark.parametrize("model", ["psi", "original"])
    @pytest.mark.parametrize("level0", ["on", "off"])
    @pytest.mark.parametrize("text, n", [
        ("1 - t1*t2*(2*y1 + 3) + t1^2*t2*y1", 1),
        ("1 - t1*t2*(2*y1*y2 + 3*y1 + 4*y2 + 5)", 2),
    ])
    def test_flip_sign_prints_the_negated_boundary(self, model, level0, text, n):
        argv = ["boundary", "--inline", text, "--field", "Fp:7", "--modulus", "1,1",
                "--n", str(n), "--model", model, "--level0-degeneracy", level0]
        code, rep = run_json(argv)
        assert code == 0 and rep["terms"]
        code, flipped = run_json(argv + ["--flip-sign"])
        assert code == 0
        assert flipped == dict(rep, terms=[dict(t, mult=-t["mult"]) for t in rep["terms"]])


class TestWitnesses:
    def test_bounding(self):
        code, rep = run_json([
            "witness-bounding", "--inline", "1 - t1*t2*(t1 + 3)",
            "--field", "Fp:7", "--modulus", "1,1", "--n", "0",
        ])
        assert code == 0
        assert all(e["status"] == "pass" for e in rep["transcript"])

    def test_zero_cycle_and_verify(self, tmp_path):
        blob = {
            "field": {"char": 7}, "model": "ORIGINAL", "r": 2, "n": 0,
            "modulus": {"exponents": [1, 1]},
            "points": [{"mult": 1, "t": ["2", "3"], "y": []}],
        }
        src = tmp_path / "z0.json"
        src.write_text(json.dumps(blob))
        out = tmp_path / "cert.json"
        code, _ = run(["witness-zero-cycle", "--file", str(src), "--out", str(out)])
        assert code == 0
        code, rep = run_json(["verify", "--file", str(out)])
        assert code == 0 and rep == {"valid": True}

    def test_zero_cycle_level1_and_verify(self, tmp_path):
        blob = {
            "field": {"char": 7}, "model": "ORIGINAL", "r": 2, "n": 1,
            "modulus": {"exponents": [1, 1]},
            "points": [{"mult": 1, "t": ["2", "3"], "y": ["4"]}],
        }
        src = tmp_path / "z1.json"
        src.write_text(json.dumps(blob))
        out = tmp_path / "cert.json"
        code, _ = run(["witness-zero-cycle", "--file", str(src), "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert "vanishing" in cert["claim"]
        assert cert["transcript"][-1]["check"] == "curve_boundary_equals"
        code, rep = run_json(["verify", "--file", str(out)])
        assert code == 0 and rep == {"valid": True}

    def test_generator(self):
        code, rep = run_json(["generator", "--a", "3", "--r", "2", "--field", "Fp:7"])
        assert code == 0 and rep["rho"] == "3"


class TestKTheory:
    def test_k2_table(self):
        code, rep = run_json(["ktheory", "k2-table", "--max-q", "9"])
        assert code == 0
        assert [row["q"] for row in rep["k2"]] == [2, 3, 4, 5, 7, 8, 9]
        assert all(row["trivial"] for row in rep["k2"])

    def test_k2_table_max_q_is_capped(self):
        code, rep = run_json(["ktheory", "k2-table", "--max-q", "64"])
        assert code == 0 and rep["k2"][-1]["q"] == 64
        for max_q in ("65", "200", "100000"):
            code, rep = run_json(["ktheory", "k2-table", "--max-q", max_q])
            assert code == 2 and rep["error"]["type"] == "OracleTooLarge"

    def test_tame(self, tmp_path):
        blob = {
            "field": {"char": 5}, "function_field": True,
            "symbols": [{"mult": 1, "entries": ["t - 2", "3*t^2"]}],
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(blob))
        code, rep = run_json(["ktheory", "tame", "--file", str(path), "--pi", "t"])
        assert code == 0
        assert rep["residue"]["symbols"] == [{"mult": 2, "entries": ["3"]}]

    def test_tame_at_a_place_past_the_field_cap(self, tmp_path):
        # the residue field F_{2^17} is refused as it is by boundary --curve
        blob = {
            "field": {"char": 2}, "function_field": True,
            "symbols": [{"mult": 1, "entries": ["t + 1", "t^17 + t^3 + 1"]}],
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(blob))
        code, rep = run_json(["ktheory", "tame", "--file", str(path),
                              "--pi", "t^17 + t^3 + 1"])
        assert code == 2 and rep["error"]["type"] == "UnfactorableEntry"

    def test_reduce_theorem_backed(self, tmp_path):
        blob = {
            "field": {"char": 7},
            "symbols": [{"mult": 1, "entries": ["2", "3"]}],
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(blob))
        code, rep = run_json(["ktheory", "reduce", "--file", str(path)])
        assert code == 0 and rep["result"]["symbols"] == []
        assert rep["theorem_backed"] == "Steinberg"
        code, rep = run_json(["ktheory", "reduce", "--file", str(path), "--certificate"])
        assert rep["oracle"]["trivial"] is True

    def test_delta(self, tmp_path):
        blob = {
            "field": {"char": 5}, "function_field": True,
            "symbols": [{"mult": 1, "entries": ["t", "t - 1"]}],
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(blob))
        code, rep = run_json(["ktheory", "delta", "--file", str(path)])
        assert code == 0
        places = [row["place"] for row in rep["residues"]]
        assert places == [{"pi": "t"}, {"infinity": True}]


class TestCurves:
    def test_totaro_steinberg(self):
        code, rep = run_json([
            "curves", "totaro", "--relation", "steinberg",
            "--field", "Fp:7", "--entries", "3",
        ])
        assert code == 0 and rep["identity"] is True
        assert rep["boundary"]["points"] == [{"mult": 1, "t": [], "y": ["3", "5"]}]

    def test_totaro_mult(self):
        code, rep = run_json([
            "curves", "totaro", "--relation", "mult",
            "--field", "Fp:7", "--entries", "2,3",
        ])
        assert code == 0 and rep["identity"] is True and rep["sign"] == -1

    def test_boundary_curve_replays_the_totaro_report(self, tmp_path):
        code, report = run_json([
            "curves", "totaro", "--relation", "steinberg",
            "--field", "Fp:7", "--entries", "3,2",
        ])
        assert code == 0
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(report["curve"]))
        code, rep = run_json(["boundary", "--curve", str(path)])
        assert code == 0 and rep["points"] == report["boundary"]["points"]
        assert rep["points"] == [{"mult": 1, "t": [], "y": ["3", "5", "2"]}]

    GRAPH_CURVE = {"field": {"char": 7}, "model": "ORIGINAL", "graph_over_base": True,
                   "components": ["t - 2", "3"], "embedding": ["s", "6/s"]}

    def test_boundary_curve_with_an_embedding_pushes_forward(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(self.GRAPH_CURVE))
        code, out = run(["boundary", "--curve", str(path)])
        assert code == 0
        assert json.loads(out) == {
            "field": {"char": 7}, "model": "ORIGINAL", "r": 2, "n": 1,
            "points": [{"mult": 1, "t": ["2", "3"], "y": ["3"]}],
        }
        code, rep = run_json(["boundary", "--curve", str(path), "--flip-sign"])
        assert code == 0 and rep["points"] == [{"mult": -1, "t": ["2", "3"], "y": ["3"]}]

    @pytest.mark.parametrize("embedded", [False, True])
    def test_boundary_curve_flip_sign_prints_the_negated_boundary(self, tmp_path, embedded):
        data = dict(self.GRAPH_CURVE, components=["t - 2", "(t + 3)/(t - 1)"])
        if not embedded:
            del data["embedding"]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(data))
        code, rep = run_json(["boundary", "--curve", str(path)])
        assert code == 0 and len(rep["points"]) == 3
        code, flipped = run_json(["boundary", "--curve", str(path), "--flip-sign"])
        assert code == 0
        assert flipped == dict(rep, points=[dict(p, mult=-p["mult"]) for p in rep["points"]])

    def test_boundary_curve_embedding_needs_a_graph_curve(self, tmp_path):
        data = dict(self.GRAPH_CURVE, base_t=["5"])
        del data["graph_over_base"]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(data))
        code, rep = run_json(["boundary", "--curve", str(path)])
        assert code == 2 and rep["error"]["type"] == "ValueError"

    def test_xi(self):
        code, rep = run_json([
            "curves", "xi", "--field", "Fp:5", "--entries", "t - 2",
            "--unit", "3", "--pi", "t - 1", "--power", "2",
        ])
        assert code == 0 and rep["identity"] is True


class TestConvert:
    def test_psi_to_original_and_back(self, tmp_path):
        blob = {
            "field": {"char": 7}, "model": "PSI", "r": 2, "n": 1,
            "terms": [{"mult": 1, "poly": "1 - t1*t2*(3*y1 + 2)"}],
        }
        path = tmp_path / "z.json"
        path.write_text(json.dumps(blob))
        code, rep = run_json(["convert-model", "--file", str(path), "--to", "original"])
        assert code == 0 and rep["model"] == "ORIGINAL"
        path.write_text(json.dumps(rep))
        code, rep2 = run_json(["convert-model", "--file", str(path), "--to", "psi"])
        assert rep2["terms"] == [{"mult": 1, "poly": "4*t1*t2*y1 + 5*t1*t2 + 1"}]


class TestSuiteCommand:
    def test_seed_determinism(self):
        args = ["suite", "--seed", "42", "--sizes", "small",
                "--only", "k2-table,degree-bound,tame-formula"]
        _, first = run(args)
        _, second = run(args)
        assert first == second

    def test_exit_code(self):
        code, rep = run_json(["suite", "--seed", "7", "--sizes", "small",
                              "--only", "k2-table"])
        assert code == 0 and rep["all_passed"] is True


class TestErrorPaths:
    def test_every_layer_error_is_a_modcycles_error(self):
        from modcycles import cli, cycles, fields, milnor, polyring, serialize, witnesses

        roots = [fields.FieldError, polyring.PolyError, cycles.CycleError, milnor.MilnorError,
                 witnesses.WitnessError, serialize.SerializationError, cli.InputError]
        assert all(issubclass(cls, fields.ModcyclesError) for cls in roots)

    def test_input_error_exits_2(self):
        code, rep = run_json(["rho", "--inline", "1 - t9", "--field", "Fp:7",
                              "--modulus", "1,1"])
        assert code == 2 and rep["error"]["type"] == "UnknownVariable"

    # only the ASCII digits 0-9 are digits in polynomial text
    @pytest.mark.parametrize("text, error", [
        ("t1^²", "ParseError"), ("٣*t1", "ParseError"),
        ("y¹", "UnknownVariable"), ("1 - t٣*t2*y1", "UnknownVariable"),
    ])
    def test_non_ascii_digits_in_a_cycle(self, text, error):
        code, rep = run_json(["check-cycle", "--field", "Fp:7", "--inline", text,
                              "--n", "1", "--modulus", "1,1"])
        assert code == 2 and rep["error"]["type"] == error

    @pytest.mark.parametrize("text, error", [
        ("t^²", "ParseError"), ("٣*t", "ParseError"), ("t¹", "UnknownVariable"),
    ])
    def test_non_ascii_digits_in_a_rational_function(self, text, error):
        code, rep = run_json(["curves", "xi", "--field", "Fp:7", "--entries", text,
                              "--unit", "3", "--pi", "t - 1", "--power", "1"])
        assert code == 2 and rep["error"]["type"] == error

    def test_missing_file_exits_2(self):
        code, rep = run_json(["verify", "--file", "/nonexistent.json"])
        assert code == 2

    def test_unreadable_certificate_data_exits_2(self, tmp_path):
        code, rep = run_json(["generator", "--a", "3", "--r", "2", "--field", "Fp:7"])
        cert = rep["certificate"]
        cert["transcript"][0]["data"] = []
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, rep = run_json(["verify", "--file", str(path)])
        assert code == 2 and rep["error"]["type"] == "MalformedCertificate"

    @pytest.mark.parametrize("kind, data", [
        ("obstruction_reported", {"symbol": ["4"], "at": ["2", "3"]}),
        ("finite_field_symbol_vanishing", {"field": {"char": 7}, "length": 2}),
        ("k2_trivial", {"q": 7}),
    ])
    def test_removed_check_kind_exits_2(self, tmp_path, kind, data):
        # certificates written before these kinds were removed no longer verify
        code, rep = run_json(["generator", "--a", "3", "--r", "2", "--field", "Fp:7"])
        cert = rep["certificate"]
        cert["transcript"].append({"check": kind, "data": data, "expected": True,
                                   "status": "pass"})
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, rep = run_json(["verify", "--file", str(path)])
        assert code == 2 and rep["error"]["type"] == "MalformedCertificate"
        assert kind in rep["error"]["message"]

    @pytest.mark.parametrize("argv, error", [
        (["ktheory", "reduce"], "InputError"),
        (["ktheory", "tame", "--pi", "t"], "InputError"),
        (["ktheory", "delta"], "InputError"),
        (["ktheory", "k2-table", "--max-q", "0"], "NotPrimePower"),
        (["ktheory", "k2-table", "--max-q", "-5"], "NotPrimePower"),
        (["curves", "totaro", "--field", "Fp:7"], "InputError"),
        (["curves", "xi", "--field", "Fp:5", "--entries", "t - 2", "--pi", "t - 1"],
         "InputError"),
        (["curves", "xi", "--field", "Fp:5", "--entries", "t - 2", "--unit", "3"],
         "InputError"),
        (["curves", "xi", "--field", "Fp:5", "--unit", "3", "--pi", "t - 1"], "InputError"),
    ])
    def test_missing_input_exits_2(self, argv, error):
        code, rep = run_json(argv)
        assert code == 2 and rep["error"]["type"] == error

    def test_field_order_cap_exits_2(self):
        # F_{2^17} is past FINITE_FIELD_MAX_ORDER; refused before any search
        code, rep = run_json(["check-cycle", "--inline", "1 - t1*y1", "--modulus", "1",
                              "--field", "Fq:2:u^17+u^3+1"])
        assert code == 2 and rep["error"]["type"] == "ExtensionNotSupported"

    @pytest.mark.parametrize("field", ["Fp:65537", "Fp:1000000000000000003",
                                       "Fq:65537:u^2+3"])
    def test_prime_field_cap_exits_2(self, field):
        # 65537 is the first prime above FINITE_FIELD_MAX_ORDER; refused before
        # the primality test, so the 19-digit prime does not hang
        code, rep = run_json(["generator", "--a", "3", "--r", "2", "--field", field])
        assert code == 2 and rep["error"]["type"] == "FieldTooLarge"

    def test_xi_constant_pi_exits_2(self):
        # a nonzero constant pi is the unit 1 after monic(), not a place
        code, rep = run_json(["curves", "xi", "--field", "Fp:5", "--entries", "t - 2",
                              "--unit", "3", "--pi", "3"])
        assert code == 2 and rep["error"]["type"] == "NotAPlace"

    def test_face_check_cube_cap_exits_2(self):
        code, rep = run_json(["check-cycle", "--inline", "1 - t1*t2*y1", "--field", "Fp:7",
                              "--modulus", "1,1", "--n", str(FACE_CHECK_MAX_N + 1)])
        assert code == 2 and rep["error"]["type"] == "CubeTooLarge"

    def test_generator_r_cap_exits_2(self):
        code, rep = run_json(["generator", "--a", "3", "--r", str(GENERATOR_MAX_R + 1),
                              "--field", "Fp:7"])
        assert code == 2 and rep["error"]["type"] == "TooManyParameters"

    def test_xi_power_cap_exits_2(self):
        code, rep = run_json(["curves", "xi", "--field", "Fp:5", "--entries", "t - 2",
                              "--unit", "3", "--pi", "t - 1", "--power", str(XI_MAX_POWER + 1)])
        assert code == 2 and rep["error"]["type"] == "PowerTooLarge"

    def test_totaro_entries_cap_exits_2(self):
        entries = ",".join(str(2 + i % 4) for i in range(CURVES_MAX_ENTRIES + 1))
        code, rep = run_json(["curves", "totaro", "--field", "Fp:7", "--entries", entries])
        assert code == 2 and rep["error"]["type"] == "InputError"
        assert "CURVES_MAX_ENTRIES" in rep["error"]["message"]

    def test_xi_entries_cap_exits_2(self):
        entries = ";".join(f"t - {2 + i}" for i in range(CURVES_MAX_ENTRIES + 1))
        code, rep = run_json(["curves", "xi", "--field", "Q", "--entries", entries,
                              "--unit", "3", "--pi", "t - 1"])
        assert code == 2 and rep["error"]["type"] == "InputError"
        assert "CURVES_MAX_ENTRIES" in rep["error"]["message"]

    def test_verify_face_check_above_the_cap_is_invalid(self, tmp_path):
        code, rep = run_json(["generator", "--a", "3", "--r", "2", "--field", "Fp:7"])
        cert = rep["certificate"]
        entry = next(e for e in cert["transcript"] if e["check"] == "face_condition")
        entry["data"]["cycle"]["n"] = FACE_CHECK_MAX_N + 1
        cert["transcript"] = [entry]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, rep = run_json(["verify", "--file", str(path)])
        assert code == 1 and rep == {"valid": False}


class TestParser:
    VERIFY = ["verify", "--file"]
    CHECK = ["check-cycle", "--inline", "1 - 3*t1*t2*y1", "--field", "Fp:7", "--modulus", "1,1"]

    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_namespaces_do_not_leak_between_calls(self, tmp_path):
        ap = build_parser()
        verify = self.VERIFY + [str(tmp_path / "cert.json")]
        a = ap.parse_args(verify)
        b = ap.parse_args(self.CHECK)
        assert a is not b and b.file is None and not hasattr(a, "inline")
        fresh = build_parser.__wrapped__()
        assert vars(a) == vars(fresh.parse_args(verify))
        assert vars(b) == vars(fresh.parse_args(self.CHECK))

    def test_outputs_match_a_fresh_parser(self, tmp_path):
        _, rep = run_json(["generator", "--a", "3", "--r", "2", "--field", "Fp:7"])
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(rep["certificate"]))
        verify = self.VERIFY + [str(cert)]
        cached = [run(verify), run(self.CHECK), run(verify)]
        build_parser.cache_clear()
        fresh = [run(verify)]
        build_parser.cache_clear()
        fresh += [run(self.CHECK)]
        build_parser.cache_clear()
        fresh += [run(verify)]
        assert cached == fresh
        assert cached[0] == (0, json.dumps({"valid": True}, indent=2) + "\n")

    def test_argparse_error_exits_2_with_usage(self, capsys):
        run(self.CHECK)
        for argv in (["check-cycle", "--bogus"], ["no-such-command"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: modcycles" in capsys.readouterr().err
        assert run(self.CHECK)[0] == 0


def _tampered_certificate(entry_index, keys, value):
    """The zero-cycle certificate of the F7 point (2, 3), cut down to one
    transcript entry whose data has ``value`` at the path ``keys``."""
    F7 = make_field(7)
    pt = ClosedPoint(F7, [F7.element(2), F7.element(3)], [])
    cert = zero_cycle_vanishing_witness(pt, ModulusDatum.monomial(F7, [1, 1]), n=0).to_json()
    entry = cert["transcript"][entry_index]
    cert["transcript"] = [entry]
    node = entry["data"]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return cert


XI_Q = ["curves", "xi", "--field", "Q", "--unit", "3", "--pi", "t - 1", "--entries"]


def _squarefree_f7_text(degree):
    """A product of distinct monic irreducibles over F7 of degree at most 3,
    none of them t - 1: every place it has fits a residue field."""
    F7 = make_field(7)
    f = UniPoly.const(F7, 1)
    for d in (1, 3, 2):
        for coeffs in itertools.product(range(7), repeat=d):
            g = UniPoly(F7, list(coeffs) + [1])
            if f.degree + d <= degree and g.eval(F7.one) and is_irreducible(g):
                f = f * g
    assert f.degree == degree
    return f.to_text()


# name -> (argv, certificate passed as --file or None, exit code, error type
# or None)
UNTRUSTED_CASES = {
    "generator-a-over-0": (["generator", "--a", "1/0", "--field", "Q"], None, 2, "InputError"),
    "totaro-entry-over-0": (["curves", "totaro", "--field", "Q", "--entries", "1/0"],
                            None, 2, "InputError"),
    "xi-entry-over-0": (["curves", "xi", "--field", "Q", "--entries", "t - 2/0", "--unit", "3",
                         "--pi", "t - 1"], None, 2, "ParseError"),
    "verify-point-over-0": (
        ["verify"], _tampered_certificate(0, ["cycle", "points", 0, "t", 0], "1/0"), 1, None),
    "verify-field-over-0": (
        ["verify"], _tampered_certificate(0, ["cycle", "field", "ext"], ["1/0", "0", "1"]),
        1, None),
    "verify-embedding-over-0": (
        ["verify"], _tampered_certificate(-1, ["embedding", 0], "s/0"), 1, None),
    # curve_avoids_divisor with no coordinates, or three for r = 2
    "verify-avoids-empty-list": (["verify"], _tampered_certificate(3, ["embedding"], []), 1, None),
    "verify-avoids-empty-object": (
        ["verify"], _tampered_certificate(3, ["embedding"], {}), 1, None),
    "verify-avoids-empty-string": (
        ["verify"], _tampered_certificate(3, ["embedding"], ""), 1, None),
    "verify-avoids-three-coordinates": (
        ["verify"], _tampered_certificate(3, ["embedding"], ["s", "(6)/(s)", "s"]), 1, None),
    # an embedding needs a graph curve
    "verify-embedding-on-constant-base": (["verify"], _tampered_certificate(-1, ["curve"], {
        "field": {"char": 7}, "model": "ORIGINAL", "base_t": ["5"], "components": ["t + 5"],
    }), 1, None),
    # the factorization bounds, each at bound + 1
    "split-degree": (["curves", "xi", "--field", "Fp:7", "--unit", "3", "--pi", "t - 1",
                      "--entries", _squarefree_f7_text(SQUAREFREE_SPLIT_MAX_DEGREE + 1)],
                     None, 2, "UnfactorableEntry"),
    "rational-root-integer": (XI_Q + [f"t^2 + {RATIONAL_ROOT_MAX_INT + 1}"],
                              None, 2, "UnfactorableEntry"),
    # end coefficients with 19 and 27 divisors: 2 * 19 * 27 candidate roots
    "rational-root-tries": (XI_Q + [f"{3**18}*t^2 + {2**26}"], None, 2, "UnfactorableEntry"),
    # a power that XI_MAX_POWER admits finishes, over Q too
    "xi-max-power-over-q": (["curves", "xi", "--field", "Q", "--entries", "t - 2", "--unit", "3",
                             "--pi", "t - 1/2", "--power", str(XI_MAX_POWER)], None, 0, None),
}


class TestUntrustedInputInASubprocess:
    """Malformed or oversized input ends in a JSON report and an exit code,
    never a traceback or a hang."""

    # one process runs every subcommand in a list; an exception that escapes
    # main ends the process with a traceback on stderr
    RUN_EACH = (
        "import contextlib, io, json, sys\n"
        "from modcycles.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    print(json.dumps([argv, code, json.loads(out.getvalue()), err.getvalue()]))\n"
    )

    @classmethod
    def run_each(cls, argvs):
        """The RUN_EACH process over ``argvs``, and its [argv, exit code,
        report, stderr] line for each argv."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-c", cls.RUN_EACH, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=60, env=env)
        return proc, [json.loads(line) for line in proc.stdout.splitlines()]

    @pytest.fixture(scope="class")
    def untrusted_runs(self, tmp_path_factory):
        """The process that ran every case of UNTRUSTED_CASES, and each case's
        (argv, exit code, report, stderr) by name."""
        tmp = tmp_path_factory.mktemp("untrusted")
        argvs = []
        for name, (argv, cert, _, _) in UNTRUSTED_CASES.items():
            if cert is not None:
                path = tmp / f"{name}.json"
                path.write_text(json.dumps(cert))
                argv = argv + ["--file", str(path)]
            argvs.append(argv)
        proc, results = self.run_each(argvs)
        return proc, dict(zip(UNTRUSTED_CASES, results))

    @pytest.mark.parametrize("name", list(UNTRUSTED_CASES))
    def test_exit_code_and_json_report(self, untrusted_runs, name):
        argv, _, exit_code, error = UNTRUSTED_CASES[name]
        proc, results = untrusted_runs
        assert proc.stderr == ""
        got_argv, code, report, stderr = results[name]
        assert got_argv[:len(argv)] == argv
        assert stderr == ""
        assert code == exit_code
        if error is not None:
            assert report["error"]["type"] == error
        elif argv[0] == "verify":
            assert report == {"valid": False}
        else:
            assert report["identity"] is True

    # JSON documents of the wrong shape: each makes a decoder index a value
    # of the wrong type, which raised a bare KeyError, TypeError or
    # AttributeError before the CLI mapped them to InputError
    WRONG_SHAPES = {
        "list-for-object": [1, 2],
        "poly-not-text": {"field": {"char": 7}, "model": "PSI", "r": 1, "n": 1,
                          "terms": [{"mult": 1, "poly": 5}]},
        "ext-not-list": {"field": {"char": 7, "ext": 5}, "model": "PSI", "r": 1, "n": 1,
                         "terms": []},
        "point-not-object": {"field": {"char": 7}, "model": "PSI", "r": 1, "n": 0,
                             "points": [5]},
        "symbols-not-list": {"field": {"char": 7}, "symbols": 5},
        "component-not-text": {"field": {"char": 7}, "model": "PSI", "components": [3]},
    }
    # every subcommand that reads a JSON file, with the option naming it
    FILE_READERS = [
        (["check-cycle"], "--file"), (["boundary"], "--file"), (["boundary"], "--curve"),
        (["rho"], "--file"), (["witness-bounding"], "--file"),
        (["witness-zero-cycle"], "--file"), (["convert-model", "--to", "psi"], "--file"),
        (["ktheory", "reduce"], "--file"), (["ktheory", "tame", "--infinity"], "--file"),
        (["ktheory", "delta"], "--file"), (["verify"], "--file"),
    ]

    def test_forged_certificates_exit_1_and_unknown_claims_exit_2(self, tmp_path):
        certs = forged_certificates()
        unknown = json.loads(json.dumps(certs["generator-value"]))
        unknown["claim"] = {"theorem": "rho surjectivity witness"}
        certs["unknown-claim-kind"] = unknown
        argvs = []
        for name, cert in sorted(certs.items()):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cert))
            argvs.append(["verify", "--file", str(path)])
        proc, results = self.run_each(argvs)
        assert proc.stderr == "" and proc.returncode == 0
        assert [argv for argv, *_ in results] == argvs
        for argv, code, report, stderr in results:
            assert stderr == "", argv
            if argv[-1].endswith("unknown-claim-kind.json"):
                assert code == 2 and report["error"]["type"] == "MalformedCertificate"
            else:
                assert code == 1 and report == {"valid": False}, argv

    @pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
    def test_wrong_shape_exits_2_under_every_file_reader(self, tmp_path, shape):
        path = tmp_path / f"{shape}.json"
        path.write_text(json.dumps(self.WRONG_SHAPES[shape]))
        argvs = [argv + [flag, str(path)] for argv, flag in self.FILE_READERS]
        proc, results = self.run_each(argvs)
        assert proc.stderr == ""
        assert proc.returncode == 0
        assert [argv for argv, *_ in results] == argvs
        for argv, code, report, stderr in results:
            assert stderr == "", argv
            assert code == 2, argv
            assert report["error"]["type"] in (
                "InputError", "SerializationError", "MalformedCertificate"), argv
