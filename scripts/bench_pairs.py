#!/usr/bin/env python3
"""Compare two source trees on perfbench in interleaved pairs of runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads ext-deep,suite-full --seeds 801-810

Each pair runs ``perfbench/run.py --trace 0`` from both trees at one seed,
a fresh seed per pair; the parent runs first in even pairs and the change
first in odd ones.  Each tree runs its own perfbench/run.py, unchanged.  The
end-to-end metrics, their directions and the run length come from
the change tree's BENCHMARK.json.  For each workload and metric the summary
prints both sides' median and quartiles, the change's wins over the pairs
(ties count for neither side), and the parent's interquartile range.  A
pair is flagged when a run reports ``correct`` false or when the two sides'
shares of failed items differ.  A run that exits non-zero (run.py exits 2
on a set-up error) is flagged with its exit code and last stderr line, and
its pair is left out of the summary.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """"801-803,900" -> [801, 802, 803, 900]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """(the parsed last stdout line of one perfbench run in ``tree``, "");
    (None, its exit code and last stderr line) when the run exits non-zero."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        last = done.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"exit code {done.returncode}: {last[0]}"
    return json.loads(done.stdout.splitlines()[-1]), ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> tuple[list[dict], list[str]]:
    """(one row per workload and metric, flags).

    ``pairs`` holds {"workload", "seed", "parent", "change"}, each side the
    parsed last line of a perfbench run; ``metrics`` holds BENCHMARK.json
    ``end_to_end`` entries ({"name", "better"})."""
    rows, flags = [], []
    for pair in pairs:
        label = f"{pair['workload']} seed {pair['seed']}"
        shares = {}
        for side in SIDES:
            run = pair[side]
            if not run["correct"]:
                flags.append(f"{label}: {side} run not correct")
            shares[side] = run["failed"] / run["attempted"] if run["attempted"] else 0.0
        if shares["parent"] != shares["change"]:
            flags.append(f"{label}: failed share {shares['parent']:.4f} (parent) "
                         f"vs {shares['change']:.4f} (change)")
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in runs] for side in SIDES}
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            row = {"workload": workload, "metric": name, "pairs": len(runs), "wins": wins}
            for side in SIDES:
                row[side] = quartiles(values[side])
            row["parent_iqr"] = row["parent"][2] - row["parent"][0]
            row["gap"] = row["change"][1] - row["parent"][1]
            rows.append(row)
    return rows, flags


def format_rows(rows: list[dict]) -> str:
    head = (f"{'workload':<15}{'metric':<13}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
            f"{'gap':>10}{'gap %':>8}{'par IQR':>9}{'wins':>7}")
    lines = [head]
    for r in rows:
        cells = ["/".join(f"{v:.4g}" for v in r[side]) for side in SIDES]
        base = r["parent"][1]
        pct = f"{100 * r['gap'] / base:+.1f}" if base else "-"
        lines.append(f"{r['workload']:<15}{r['metric']:<13}{cells[0]:>30}{cells[1]:>30}"
                     f"{r['gap']:>+10.4g}{pct:>8}{r['parent_iqr']:>9.4g}"
                     f"{r['wins']:>4}/{r['pairs']:<2}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="source tree of the parent commit")
    ap.add_argument("--change", required=True, help="source tree of the change")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="one seed per pair, e.g. 801-810")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    pairs, failed = [], []
    for workload in args.workloads.split(","):
        for k, seed in enumerate(parse_seeds(args.seeds)):
            pair = {"workload": workload, "seed": seed}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                pair[side], error = run_once(trees[side], workload, seed, seconds)
                if error:
                    failed.append(f"{workload} seed {seed}: {side} run failed, {error}")
                    break
            else:
                pairs.append(pair)
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    rows, flags = summarize(pairs, bench["end_to_end"])
    print(format_rows(rows))
    for flag in failed + flags:
        print(f"FLAG {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
