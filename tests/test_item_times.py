"""scripts/item_times.py: the table on fixed times, and tiny ext-deep and suite-full runs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from modcycles.fields import make_field
from modcycles.suites import SUITES

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("item_times", ROOT / "scripts" / "item_times.py")
item_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(item_times)


def test_table_groups_by_kind_and_field():
    best = [("weil", "F2", 0.002), ("k2", "F4", 0.001), ("weil", "F2", 0.004), ("weil", "F3", 0.003)]
    lines = item_times.table(best).splitlines()
    assert lines[1].split() == ["k2", "F4", "1", "1.000", "1.000", "1.0", "0"]
    assert lines[2].split() == ["weil", "F2", "2", "3.000", "4.000", "6.0", "1"]
    assert lines[3].split() == ["weil", "F3", "1", "3.000", "3.000", "3.0", "0"]
    assert lines[4].split() == ["all", "4", "10.0", "p50", "2.000", "p99", "4.000"]


def test_nearest_rank_percentiles():
    values = [k / 1000 for k in range(200, 0, -1)]
    assert item_times.nearest_rank(values, 50) == 0.1
    assert item_times.nearest_rank(values, 99) == 0.198
    assert item_times.nearest_rank([0.5], 99) == 0.5
    # 0.198, 0.199 and 0.200 are at or above the p99
    best = [("case", "a" if k % 2 else "b", t) for k, t in enumerate(values)]
    rows = [line.split() for line in item_times.table(best).splitlines()[1:3]]
    assert [(row[1], row[-1]) for row in rows] == [("a", "1"), ("b", "2")]


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
    assert sum(int(row.split()[-5]) for row in rows) == 30
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
    # the first 12 items hold two Weil items: their factorizations and tame
    # residues run on the coefficient-list kernel, through no UniPoly operator
    assert int(counts["milnor.total_delta"]) == 2 and int(counts["fields.unipoly"]) == 0


def test_suite_full_names_the_suite_of_each_case():
    cmd = [sys.executable, "-B", os.path.join("scripts", "item_times.py"), "--workload", "suite-full",
           "--seed", "42", "--repeat", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0] == "suite-full seed 42: best of 1 in-process rounds, 0 failed items per round"
    rows = [line.split() for line in out[2:-1]]
    assert sorted(row[1] for row in rows) == sorted(SUITES)
    assert all(row[0] == "case" for row in rows)
    # 1,662 cases at seed 42: the 17 slowest, and any that tie with them, are
    # at or above the nearest-rank p99
    assert sum(int(row[2]) for row in rows) == 1662
    assert sum(int(row[-1]) for row in rows) >= 17
    last = out[-1].split()
    assert last[:2] == ["all", "1662"] and last[3::2] == ["p50", "p99"]
    assert 0 < float(last[4]) <= float(last[6])
