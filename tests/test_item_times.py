"""scripts/item_times.py: the table on fixed times, and a tiny ext-deep run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from modcycles.fields import make_field

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("item_times", ROOT / "scripts" / "item_times.py")
item_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(item_times)


def test_table_groups_by_kind_and_field():
    best = [("weil", "F2", 0.002), ("k2", "F4", 0.001), ("weil", "F2", 0.004), ("weil", "F3", 0.003)]
    lines = item_times.table(best).splitlines()
    assert lines[1].split() == ["k2", "F4", "1", "1.000", "1.000", "1.0"]
    assert lines[2].split() == ["weil", "F2", "2", "3.000", "4.000", "6.0"]
    assert lines[3].split() == ["weil", "F3", "1", "3.000", "3.000", "3.0"]
    assert lines[4].split() == ["all", "4", "10.0"]


def test_field_of_an_item():
    F9 = make_field(3, [1, 0, 1])
    assert item_times.field_of((F9, "symbol")) == "F3[u]/(u^2 + 1)"
    assert item_times.field_of((F9.one, None)) == "F3[u]/(u^2 + 1)"
    assert item_times.field_of(16) == "F16"
    assert item_times.field_of(("text",)) == "-"


def test_a_tiny_ext_deep_run_with_a_profile():
    cmd = [sys.executable, "-B", os.path.join("scripts", "item_times.py"), "--workload", "ext-deep",
           "--seed", "42", "--repeat", "2", "--limit", "30", "--profile", "weil"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0] == "ext-deep seed 42: best of 2 in-process rounds, 0 failed items per round"
    rows = out[2:out.index(next(line for line in out if line.startswith("all")))]
    assert rows and all(row.split()[0] in ("cycle_n1", "cycle_n2", "cycle_n3", "cycle_n4", "k2", "weil")
                        for row in rows)
    assert sum(int(row.split()[-4]) for row in rows) == 30
    assert any("function calls" in line for line in out)


def test_counts_lists_every_traced_site_by_name():
    cmd = [sys.executable, "-B", os.path.join("scripts", "item_times.py"), "--workload", "ext-deep",
           "--seed", "42", "--repeat", "1", "--limit", "12", "--counts"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    rows = [line.split() for line in out[out.index("call counts of one traced round:") + 1:]]
    assert rows and all(len(row) == 2 and row[1].isdigit() for row in rows)
    names = [name for name, _ in rows]
    assert names == sorted(names) and len(set(names)) == len(names)
    counts = dict(rows)
    # sites with a fixed name are listed whether or not anything calls them
    assert "polyring.substitute" in counts and "polyring.exact_div" in counts
    assert int(counts["cycles.faces_enumerated"]) > 0 and int(counts["fields.element"]) > 0
