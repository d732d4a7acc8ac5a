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


psi_convert = suites.psi_convert


def psi_convert_failing_one_level_down(obj, to_model):
    # boundary-square converts its level-2 or 3 cycle outside the handler,
    # and the level-1 boundary of a level-2 cycle inside it
    if obj.vars.n == 1:
        boom()
    return psi_convert(obj, to_model)


class TestFailureCauses:
    """Each suite that catches exceptions records the type and message of
    the one that failed a case in the case's failure label."""

    @pytest.mark.parametrize("name, target, replacement", [
        ("bounding-surfaces", "bounding_surface", boom),
        ("zero-cycle-witnesses", "zero_cycle_vanishing_witness", boom),
        ("weil-reciprocity", "total_delta", boom),
        ("xi-curves", "xi_curve", boom),
        ("boundary-square", "psi_convert", psi_convert_failing_one_level_down),
    ])
    def test_label_names_the_exception(self, monkeypatch, name, target, replacement):
        monkeypatch.setattr(suites, target, replacement)
        out = SUITES[name](random.Random(0), 6)
        assert out.failures
        assert all(label.startswith("case ") and label.endswith(": ValueError: boom")
                   for label in out.failures)
