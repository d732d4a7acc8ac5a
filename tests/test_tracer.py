"""The benchmark's runtime tracer still finds every method it patches."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTRUMENT = """
import importlib, sys, types
sys.path[:0] = sys.argv[1:]
from tracer import LAYERS, Tracer, instrument
m = types.SimpleNamespace(**{n: importlib.import_module("modcycles." + n) for n in LAYERS})
instrument(Tracer(), m)
"""


def test_tracer_instruments_a_fresh_import():
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    proc = subprocess.run([sys.executable, "-B", "-c", INSTRUMENT, *paths],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
