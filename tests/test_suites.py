"""The suite runner: typed errors for suite names, and failure causes."""

import random

import pytest

from modcycles import suites
from modcycles.suites import SUITES, UnknownSuite, run_suites
from test_cli import run_json


class TestSuiteNames:
    @pytest.mark.parametrize("only", [["nope"], ["k2-table", ""], [""]])
    def test_unknown_or_empty_name_raises(self, only):
        with pytest.raises(UnknownSuite) as info:
            run_suites(42, "small", only=only)
        assert ", ".join(sorted(SUITES)) in str(info.value)

    @pytest.mark.parametrize("only", ["nope", "k2-table,"])
    def test_cli_exits_2_with_the_known_suites(self, only):
        code, rep = run_json(["suite", "--sizes", "small", "--only", only])
        assert code == 2 and rep["error"]["type"] == "UnknownSuite"
        assert all(name in rep["error"]["message"] for name in SUITES)


def boom(*args, **kwargs):
    raise ValueError("boom")


class TestFailureCauses:
    """A case whose check raises fails, and its failure label ends with the
    type and message of the exception; the suite runs on to its last case."""

    @pytest.mark.parametrize("name, target", [
        ("bounding-surfaces", "bounding_surface"),
        ("zero-cycle-witnesses", "zero_cycle_vanishing_witness"),
        ("weil-reciprocity", "total_delta"),
        ("xi-curves", "xi_curve"),
        ("boundary-square", "psi_convert"),
        ("rho-reciprocity", "rho_of_boundary"),
        ("rho-surjectivity", "generator_cycle"),
        ("degree-bound", "check_modulus_codim1"),
        ("tame-formula", "tame_symbol"),
        ("steinberg-curves", "verify_steinberg_curve"),
        ("mult-curves", "totaro_mult_curve"),
        ("face-containment", "face_restrict"),
        ("boundary-square", "boundary"),
    ])
    def test_label_names_the_exception(self, monkeypatch, name, target):
        monkeypatch.setattr(suites, target, boom)
        out = SUITES[name](random.Random(0), 6)
        # rho-surjectivity labels its cases by field, and a field's coverage
        # case fails without raising when none of its generators ran
        prefix = ("F", "Q ") if name == "rho-surjectivity" else ("case ",)
        raised = [label for label in out.failures if not label.endswith(" image covers the field")]
        assert raised and all(label.startswith(prefix) and label.endswith(": ValueError: boom")
                              for label in raised)
        monkeypatch.undo()
        assert out.cases == SUITES[name](random.Random(0), 6).cases

    def test_cli_reports_a_raising_case_with_exit_1(self, monkeypatch):
        def type_error(*args, **kwargs):
            raise TypeError("boom")

        monkeypatch.setattr(suites, "check_modulus_codim1", type_error)
        code, rep = run_json(["suite", "--sizes", "small", "--only", "degree-bound"])
        assert code == 1 and not rep["all_passed"]
        (res,) = rep["suites"]
        assert res["suite"] == "degree-bound" and res["cases"] == 20 and res["passes"] == 0
        assert res["failures"] == [f"case {k}: TypeError: boom" for k in range(20)]
