"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line; run with `pytest -s` (or -v) to see
them.  Criteria with stated runtime budgets assert them with monotonic clocks.
"""

import hashlib
import json
import time
import random

import pytest

from modcycles.suites import (
    SUITES,
    run_suites,
    suite_bounding_surfaces,
    suite_boundary_square,
    suite_degree_bound,
    suite_face_containment,
    suite_k2_table,
    suite_mult_curves,
    suite_rho_reciprocity,
    suite_rho_surjectivity,
    suite_steinberg_curves,
    suite_tame_formula,
    suite_weil_reciprocity,
    suite_xi_curves,
    suite_zero_cycle_witnesses,
)

SEED = 42


def _rng(tag):
    return random.Random((SEED, tag).__repr__())


def _report(num, label, result, elapsed=None):
    status = "PASS" if result.passed else "FAIL"
    extra = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {num:2d} {status}: {label} "
          f"({result.passes}/{result.cases}){extra}")
    if not result.passed:
        print("  first failures:", result.failures[:3])
    assert result.passed, f"criterion {num}: {result.failures[:3]}"


def test_criterion_01_rho_reciprocity():
    t0 = time.monotonic()
    out = suite_rho_reciprocity(_rng("rho-reciprocity"), 300)
    elapsed = time.monotonic() - t0
    _report(1, "rho kills boundaries of 300 admissible level-2 cycles "
               "(and so -d, the opposite sign convention), over F5/F7/Q", out, elapsed)
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_02_rho_surjectivity():
    out = suite_rho_surjectivity(_rng("rho-surjectivity"), 50)
    _report(2, "generator cycles realize every residue value exactly, "
               "with Valid certificates", out)


def test_criterion_03_level0_bounding():
    out = suite_bounding_surfaces(_rng("bounding-surfaces"), 200)
    _report(3, "200 admissible level-0 cycles bound; certificates re-verify", out)


def test_criterion_04_degree_bound():
    out = suite_degree_bound(_rng("degree-bound"), 100)
    _report(4, "100 degree-2 components rejected, multilinear counterparts "
               "certified", out)


def test_criterion_05_zero_cycle_vanishing():
    out = suite_zero_cycle_witnesses(_rng("zero-cycle-witnesses"), 200)
    _report(5, "200 rational points off monomial moduli bound on hyperbola "
               "witnesses (r in {2,3}, exponents <= 3)", out)


def test_criterion_06_steinberg_desk_scale():
    t0 = time.monotonic()
    out = suite_k2_table(_rng("k2-table"), 16)
    elapsed = time.monotonic() - t0
    _report(6, "K2 of every prime-power field through 16 is trivial", out, elapsed)
    assert elapsed < 5.0, f"criterion 6 runtime {elapsed:.1f}s exceeds 5s"


def test_criterion_07_tame_calculus():
    out1 = suite_tame_formula(_rng("tame-formula"), 100)
    out2 = suite_weil_reciprocity(_rng("weil-reciprocity"), 100)
    out1.cases += out2.cases
    out1.passes += out2.passes
    out1.failures += out2.failures
    _report(7, "tame residue formula on 100 unit tuples and Weil "
               "reciprocity on 100 pairs", out1)


def test_criterion_08_witness_curves():
    s = suite_steinberg_curves(_rng("steinberg-curves"), 50)
    m = suite_mult_curves(_rng("mult-curves"), 50)
    x = suite_xi_curves(_rng("xi-curves"), 50)
    s.cases += m.cases + x.cases
    s.passes += m.passes + x.passes
    s.failures += m.failures + x.failures
    _report(8, "Steinberg/multiplicativity/residue witness curves bound "
               "their predicted 0-cycles (50 each, documented sign)", s)


def test_criterion_09_complex_identities():
    a = suite_boundary_square(_rng("boundary-square"), 200)
    b = suite_face_containment(_rng("face-containment"), 200)
    a.cases += b.cases
    a.passes += b.passes
    a.failures += b.failures
    _report(9, "double boundaries vanish (200 cycles, both models) and "
               "faces of admissible cycles stay admissible", a)


def test_criterion_10_determinism():
    first = json.dumps(run_suites(SEED, sizes="full"), indent=2)
    second = json.dumps(run_suites(SEED, sizes="full"), indent=2)
    ok = first == second
    print(f"criterion 10 {'PASS' if ok else 'FAIL'}: the full suite under seed "
          f"{SEED} is byte-identical across two runs ({len(first)} bytes)")
    assert ok
    # the report of the seed release, byte for byte
    assert hashlib.sha256(first.encode()).hexdigest().startswith("55c81db9647141d4")
