"""One workload in a fresh interpreter: python3 perfbench/worker.py
WORKLOAD SEED SECONDS TRACE OUTDIR, from the root of a checkout.

Imports large_atlas from the checkout's src/, runs passes of the workload
until the next pass would end after SECONDS, checks every output, and
prints one JSON object on its last line.  With TRACE 1 it alternates
untraced and traced passes (at most TRACED_PASSES traced ones): the traced
ones give the per-layer numbers and the pair gives the tracing overhead.
"""

import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import measure
import spans
import workloads

MODULES = ("arith", "orders", "oracle", "bounds", "largeness", "catalog",
           "sweep", "cli")
TRACED_PASSES = 3


class Package:
    """The large_atlas modules, by short name."""

    def __init__(self, root):
        self.src = os.path.join(root, "src")
        sys.path.insert(0, self.src)

    def load(self):
        """Import large_atlas afresh, so no state the program keeps in its
        modules (caches, loaded tables) carries over from an earlier pass."""
        for name in [m for m in sys.modules if m.split(".")[0] == "large_atlas"]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("large_atlas." + name))
        where = os.path.realpath(self.cli.__file__)
        if not where.startswith(os.path.realpath(self.src) + os.sep):
            raise SystemExit(f"large_atlas imported from {where}, not from {self.src}")


class Tally:
    """Counts of attempted and failed operations.  A failure matching a
    documented defect is counted under that defect, not as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = Counter()
        self.examples = []
        self.exits = Counter()
        self.output_bytes = 0
        self.traced_known = 0

    def add(self, argv, exit_, nbytes, verdict, traced):
        self.attempted += 1
        if verdict and verdict[0] == "known":
            self.known[verdict[1]] += 1
            self.traced_known += traced
        elif verdict:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append([argv, verdict[1]])
        if traced and exit_ is not None:
            self.exits[str(exit_)] += 1
            self.output_bytes += nbytes


def run(name, seed, seconds, trace, outdir):
    la = Package(os.getcwd())
    wl = workloads.make(name, seed, outdir)
    tracer = spans.Tracer() if trace else None
    walls = {False: [], True: []}
    untraced_lat, best_pieces = [], []
    tally = Tally()
    start = time.perf_counter()
    k = 0
    while True:
        # a traced pass of host-queries holds about 80,000 spans
        traced = bool(trace) and k % 2 == 1 and len(walls[True]) < TRACED_PASSES
        la.load()
        if traced:
            spans.install(tracer, la)
        wall, lat, checked, pieces = wl.run_pass(la, tracer if traced else None)
        walls[traced].append(wall)
        if not traced:
            untraced_lat.append(lat)
            best_pieces = measure.fold_best(best_pieces, pieces)
        for record in checked:
            tally.add(*record, traced)
        k += 1
        nxt = bool(trace) and k % 2 == 1 and len(walls[True]) < TRACED_PASSES
        predicted = walls[nxt][-1] if walls[nxt] else 0.0
        if k >= (2 if trace else 1) and time.perf_counter() - start + predicted > seconds:
            break
    result = {
        "walls": walls[False],
        "wall_best": sum(best_pieces) if best_pieces else None,
        "pieces": len(best_pieces or ()),
        "lat": untraced_lat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known": dict(tally.known),
        "examples": tally.examples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["layers"] = per_layer(tracer, tally, walls)
        result["traced_passes"] = len(walls[True])
        tracer.write(os.path.join(outdir, f"spans-{name}.jsonl"))
    return result


def per_layer(tracer, tally, walls):
    """The per-layer metrics, per traced pass (ratios as they are)."""
    n = len(walls[True])
    layers = spans.layer_metrics(tracer, sorted(workloads.ref.GOLDEN_MEMBERS))
    layers = {key: v if key.endswith("_ratio") else v / n for key, v in layers.items()}
    for code in ("0", "1", "2", "3", "4", "5", "traceback"):
        layers["cli.exit." + code] = tally.exits[code] / n
    layers["cli.output_bytes"] = tally.output_bytes / n
    layers["cli.known_defects"] = tally.traced_known / n
    layers["trace.overhead_frac"] = (statistics.median(walls[True])
                                     / statistics.median(walls[False]) - 1)
    return layers


if __name__ == "__main__":
    name, seed, seconds, trace, outdir = sys.argv[1:6]
    out = run(name, int(seed), float(seconds), int(trace), outdir)
    print(json.dumps(out))
