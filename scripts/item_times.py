#!/usr/bin/env python3
"""In-process item times of one perfbench workload, by item kind and field.

    python3 scripts/item_times.py --workload ext-deep --seed 42 --repeat 12
    python3 scripts/item_times.py --workload ext-deep --seed 42 --profile cycle_n4:Q
    python3 scripts/item_times.py --workload suite-full --seed 42 --repeat 1 --counts

Run from the root of a source checkout.  The workload is set up once from
the tree's own ``src/`` and ``perfbench/workloads.py``, then ``--repeat``
rounds run in this process and each item keeps its best time over the
rounds.  The table gives, per (item kind, field), the number of items and
the mean, largest and summed best times in ms, and the last line the sum
over all items.  The field is read from the items of a workload that lists
them (ext-deep); elsewhere it is "-".  Best-of-k in one process resolves
differences of a few percent that perfbench's end-to-end metrics do not, but
it leaves out perfbench's reference-loop scaling: compare two trees by
running it on each, alternately, not by its absolute numbers.

``--profile KIND[:FIELD]`` then runs one more pass over the items of that
group (a field whose text starts with FIELD), or over a whole round for a
workload that does not list its items, under cProfile and prints the 25
largest own times.  ``--counts`` then runs one more round with
perfbench/tracer.py's ``instrument`` installed and prints every site the
tracer records with its call count, sorted by name: a change's traffic
without a full perfbench run.  It runs last, since the wrappers stay
installed.  ``--limit N`` keeps only the first N listed items.  Standard
library only.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import io
import os
import pstats
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(root: str = ROOT):
    """(the modcycles namespace, the perfbench workloads module) of ``root``."""
    for path in (os.path.join(root, "perfbench"), os.path.join(root, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    workloads = importlib.import_module("workloads")
    layers = importlib.import_module("tracer").LAYERS
    m = types.SimpleNamespace(**{name: importlib.import_module(f"modcycles.{name}") for name in layers})
    return m, workloads


def field_of(args) -> str:
    """The field an item runs over: the spec of its first argument that has
    one, a finite field named by its order, or "-"."""
    for a in args if isinstance(args, tuple) else (args,):
        spec = a if hasattr(a, "ext") else getattr(a, "spec", None)
        if spec is not None:
            return spec.to_text()
        if isinstance(a, int):
            return f"F{a}"
    return "-"


def measure(m, workloads, name: str, seed: int, repeat: int, workdir: str,
            limit: int | None = None, freeze: bool = False):
    """(the workload, its items' best times as [(kind, field, seconds)]
    in round order, failed items per round).  With ``freeze``, as in
    perfbench/run.py, the set-up objects are frozen out of the cyclic
    collector's scans."""
    wl = workloads.WORKLOADS[name](m, seed, workdir)
    listed = getattr(wl, "items", None)
    if limit is not None and listed is not None:
        del listed[limit:]
    if freeze:
        gc.collect()
        gc.freeze()

    class Times(workloads.Recorder):
        """Each item with the index its ``begin`` call gave."""

        def __init__(self):
            super().__init__()
            self.index = None
            self.seen = []

        def begin(self, item: int) -> None:
            super().begin(item)
            self.index = item

        def item(self, kind, seconds, ok, label="", known_defect=False):
            super().item(kind, seconds, ok, label, known_defect)
            self.seen.append((self.index, kind, seconds))

    best, failed = None, 0
    for _ in range(repeat):
        rec = Times()
        wl.run_round(rec)
        failed = max(failed, rec.failed)
        if best is None:
            best = [(kind, field_of(listed[k][1]) if listed is not None else "-", t)
                    for k, kind, t in rec.seen]
        else:
            best = [(kind, field, min(t, seen[2])) for (kind, field, t), seen in zip(best, rec.seen)]
    return wl, best, failed


def table(best: list[tuple[str, str, float]]) -> str:
    groups: dict[tuple[str, str], list[float]] = {}
    for kind, field, t in best:
        groups.setdefault((kind, field), []).append(t * 1e3)
    lines = [f"{'kind':<14}{'field':<26}{'items':>6}{'mean ms':>10}{'max ms':>10}{'total ms':>11}"]
    for (kind, field), ts in sorted(groups.items()):
        lines.append(f"{kind:<14}{field:<26}{len(ts):>6}{sum(ts) / len(ts):>10.3f}"
                     f"{max(ts):>10.3f}{sum(ts):>11.1f}")
    lines.append(f"{'all':<40}{len(best):>6}{'':>20}{sum(t for *_, t in best) * 1e3:>11.1f}")
    return "\n".join(lines)


def profile(wl, workloads, group: str, top: int = 25) -> str:
    """cProfile of one pass over the items of ``group`` (KIND[:FIELD]), or
    of one round of a workload that does not list its items."""
    kind, _, field = group.partition(":")
    listed = getattr(wl, "items", None)
    saved = None
    if listed is not None:
        saved = list(listed)
        listed[:] = [it for it in saved if it[0] == kind and field_of(it[1]).startswith(field)]
        if not listed:
            listed[:] = saved
            raise SystemExit(f"no items in the group {group!r}")
    prof = cProfile.Profile()
    try:
        prof.runcall(wl.run_round, workloads.Recorder())
    finally:
        if saved is not None:
            listed[:] = saved
    out = io.StringIO()
    pstats.Stats(prof, stream=out).sort_stats("tottime").print_stats(top)
    return out.getvalue()


def counts(m, workloads, wl) -> str:
    """Call counts per tracer site over one round of ``wl`` with the
    tracer's wrappers installed on ``m``, one site per line, by name."""
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    tracer.instrument(tr, m)
    wl.run_round(workloads.Recorder(tracer=tr))
    width = max(map(len, tr.sites), default=0)
    return "\n".join(f"{name:<{width}}{calls:>12}" for name, (calls, _, _) in sorted(tr.sites.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeat", type=int, default=5, help="rounds; each item keeps its best")
    ap.add_argument("--limit", type=int, default=None, help="keep the first N listed items")
    ap.add_argument("--profile", default=None, metavar="KIND[:FIELD]")
    ap.add_argument("--counts", action="store_true", help="call counts of one traced round")
    args = ap.parse_args(argv)
    m, workloads = load()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory() as workdir:
        wl, best, failed = measure(m, workloads, args.workload, args.seed, max(1, args.repeat),
                                   workdir, args.limit, freeze=True)
        print(f"{args.workload} seed {args.seed}: best of {max(1, args.repeat)} in-process rounds,"
              f" {failed} failed items per round")
        print(table(best))
        if args.profile:
            print(profile(wl, workloads, args.profile))
        if args.counts:
            print("call counts of one traced round:")
            print(counts(m, workloads, wl))
    return 0


if __name__ == "__main__":
    sys.exit(main())
