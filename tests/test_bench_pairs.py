"""The summary of scripts/bench_pairs.py on fixed runs (perfbench is not run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "items_per_s", "better": "higher"}]


def _run(wall, rate, correct=True, failed=0, attempted=100):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall}, "items_per_s": {"value": rate}}}


def _pairs():
    walls = [(1.0, 0.9), (1.2, 1.0), (1.1, 1.1), (1.4, 1.0)]
    pairs = [{"workload": "ext-deep", "seed": 800 + k, "parent": _run(p, 1 / p),
              "change": _run(c, 1 / c)} for k, (p, c) in enumerate(walls)]
    pairs.append({"workload": "suite-full", "seed": 800, "parent": _run(2.0, 5.0),
                  "change": _run(2.5, 4.0, correct=False, failed=3)})
    return pairs


def test_rows_hold_quartiles_wins_and_the_parent_iqr():
    rows, _ = bench_pairs.summarize(_pairs(), METRICS)
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("ext-deep", "wall_s"), ("ext-deep", "items_per_s"),
        ("suite-full", "wall_s"), ("suite-full", "items_per_s")]
    wall = rows[0]
    assert wall["pairs"] == 4 and wall["wins"] == 3  # the tie counts for neither side
    assert wall["parent"] == pytest.approx((1.075, 1.15, 1.25))
    assert wall["change"] == pytest.approx((0.975, 1.0, 1.025))
    assert wall["parent_iqr"] == pytest.approx(0.175)
    assert wall["gap"] == pytest.approx(-0.15)
    assert rows[1]["wins"] == 3  # higher is better
    single = rows[2]
    assert single["pairs"] == 1 and single["wins"] == 0
    assert single["parent"] == (2.0, 2.0, 2.0) and single["parent_iqr"] == 0


def test_flags_incorrect_runs_and_differing_failed_shares():
    _, flags = bench_pairs.summarize(_pairs(), METRICS)
    assert flags == [
        "suite-full seed 800: change run not correct",
        "suite-full seed 800: failed share 0.0000 (parent) vs 0.0300 (change)",
    ]


def test_table_has_one_line_per_row():
    rows, _ = bench_pairs.summarize(_pairs(), METRICS)
    lines = bench_pairs.format_rows(rows).splitlines()
    assert len(lines) == 1 + len(rows)
    assert lines[1].split()[:2] == ["ext-deep", "wall_s"]
    assert lines[1].rstrip().endswith("3/4")


def test_parse_seeds():
    assert bench_pairs.parse_seeds("801-803,900") == [801, 802, 803, 900]


FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed in {fail}:
    print("Traceback (most recent call last):", file=sys.stderr)
    print("SystemExit: set-up failed at seed " + str(seed), file=sys.stderr)
    sys.exit(2)
print("table")
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0, "metrics": {{
    "wall_s": {{"value": {wall} + seed / 1000}}, "items_per_s": {{"value": 1.0}}}}}}))
"""


def _fake_tree(root, name, wall, fail=()):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN.format(fail=set(fail) or "set()", wall=wall))
    (tree / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    return str(tree)


def test_a_failed_run_is_flagged_and_its_pair_skipped(tmp_path, capsys):
    parent = _fake_tree(tmp_path, "parent", 2.0)
    change = _fake_tree(tmp_path, "change", 1.0, fail=(802,))
    assert bench_pairs.main(["--parent", parent, "--change", change,
                             "--workloads", "suite-full", "--seeds", "801-803"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == ("FLAG suite-full seed 802: change run failed, exit code 2: "
                         "SystemExit: set-up failed at seed 802")
    wall = lines[1].split()
    assert wall[:2] == ["suite-full", "wall_s"] and wall[-1] == "2/2"
