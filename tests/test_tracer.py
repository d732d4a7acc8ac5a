"""The benchmark's runtime tracer still finds every method it patches, and
sees every suite case inside its suite's span."""

import json
import os
import subprocess
import sys

from modcycles.suites import SUITES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTRUMENT = """
import importlib, sys, types
sys.path[:0] = sys.argv[1:]
from tracer import LAYERS, Tracer, instrument
m = types.SimpleNamespace(**{n: importlib.import_module("modcycles." + n) for n in LAYERS})
tracer = Tracer()
instrument(tracer, m)
"""

# Prints each span of a traced run_suites(42, "small") as [site, parent index].
SUITE_SPANS = INSTRUMENT + """
import json
m.suites.run_suites(42, "small")
print(json.dumps([[name, parent] for name, _, _, parent, _ in tracer.spans]))
"""


def test_tracer_instruments_a_fresh_import():
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    proc = subprocess.run([sys.executable, "-B", "-c", INSTRUMENT, *paths],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_suite_case_runs_inside_its_suite_span():
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    proc = subprocess.run([sys.executable, "-B", "-c", SUITE_SPANS, *paths],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.splitlines()[-1])
    suite_sites = {f"suites.{name}" for name in SUITES}
    assert sorted(site for site, _ in spans if site in suite_sites) == sorted(suite_sites)
    for site, parent in spans:
        if site == "suites.run_suites" or site in suite_sites:
            continue
        while parent >= 0 and spans[parent][0] not in suite_sites:
            parent = spans[parent][1]
        assert parent >= 0, f"{site} ran outside every suite span"
