"""The large-atlas benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh
worker process (perfbench/worker.py), one at a time, so at most two
processes are alive: this one and one child.  Load is a closed loop with
one client: the worker issues one operation after another.

With --trace 0 it prints the end-to-end metrics of each workload with
their units and sample counts, then, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 1 the worker
also runs traced passes and the metrics are the per-layer ones, including
the tracing overhead.  `--workload all` runs every workload in turn and
its last line maps each workload to its result.

`failed` counts operations whose failure is not one of the documented
defects in workloads.KNOWN_DEFECTS; those are reported on their own line
and in failed_frac.  See perfbench/RATIONALE.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import measure
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 12  # before the worker, and as many again after it
SETUP_CODE = "import sys; from large_atlas.cli import main; sys.exit(main())"
SETUP_ARGV = ["out", "PSL(2,7)"]
SETUP_OUTPUT = "2\n"  # |Out(PSL(2,7))|
LIMIT_S = 175


def environment(root):
    """Python version, usable cores, git commit (if the checkout is a git
    repository) and a digest of src/ (always)."""
    head = "none"
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                ref = fh.read().strip()
        head = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git": head, "src_sha256": digest.hexdigest()[:16]}


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def setup_times(root, warm):
    """Wall time of fresh interpreters running `large-atlas out "PSL(2,7)"`,
    one spawn at a time; with `warm`, a first spawn that only warms the
    bytecode cache goes untimed."""
    cmd = [sys.executable, "-c", SETUP_CODE] + SETUP_ARGV
    env = _child_env(root)
    times = []
    for i in range(SETUP_SPAWNS + warm):
        t0 = time.perf_counter()
        p = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                           timeout=60)
        dt = time.perf_counter() - t0
        if p.returncode != 0 or p.stdout != SETUP_OUTPUT:
            raise RuntimeError(f"set-up command failed: exit {p.returncode}, "
                               f"stdout {p.stdout!r}, stderr {p.stderr[-300:]!r}")
        if i >= warm:
            times.append(dt)
    return times


def run_worker(root, name, seed, seconds, trace, outdir, limit):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed),
           str(seconds), str(trace), outdir]
    p = subprocess.run(cmd, cwd=root, env=_child_env(root), capture_output=True,
                       text=True, timeout=limit)
    if p.returncode != 0:
        raise RuntimeError(f"worker for {name} exited {p.returncode}: {p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def wall_s(w):
    """The sum of each timeline piece's best over the passes, or, when the
    passes were not cut into the same pieces, the best pass."""
    if w["wall_best"] is not None:
        return w["wall_best"]
    return min(w["walls"])


def end_to_end(w, setup):
    # Every pass runs the same operations.  Each piece of a pass and each
    # operation's latency count at their best over the passes (min-of-k):
    # the machines this runs on slow down by up to 2x for seconds to
    # minutes at a time, and the best of k samples of short pieces varies
    # far less from run to run than their median does
    # (perfbench/RATIONALE.md).
    lat_ms = [min(per_op) * 1000 for per_op in zip(*w["lat"])]
    tail = measure.tail(lat_ms) or (max(lat_ms), 100.0, len(lat_ms))
    return {
        "wall_s": {"value": wall_s(w), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_tail_ms": {"value": tail[0], "unit": "ms"},
        "peak_rss_mb": {"value": w["peak_rss_kb"] / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }, tail


def report(name, w, metrics, tail, setup):
    """Human-readable lines for one workload."""
    failures = w["failed"] + sum(w["known"].values())
    rows = []
    if tail is not None:
        m = metrics
        rows += [
            ("wall_s", f"{m['wall_s']['value']:.4f} s",
             f"sum of the best of {len(w['walls'])} passes for each of {w['pieces']} pieces"
             if w["wall_best"] is not None else
             f"best of {len(w['walls'])} passes (passes cut into unequal pieces)"),
            ("op_p50_ms", f"{m['op_p50_ms']['value']:.4f} ms",
             f"n={tail[2]} ops, best of {len(w['lat'])} passes"),
            ("op_tail_ms", f"{m['op_tail_ms']['value']:.4f} ms",
             f"p{tail[1]:.2f}, n={tail[2]} ops"),
            ("peak_rss_mb", f"{m['peak_rss_mb']['value']:.2f} MB", "worker process"),
            ("setup_s", f"{m['setup_s']['value']:.4f} s", f"median of {len(setup)} spawns"),
        ]
    rows.append(("failed_frac", f"{failures / w['attempted']:.4f}",
                 f"{failures} of {w['attempted']} ops; {w['failed']} not attributed"))
    for defect, count in sorted(w["known"].items()):
        rows.append(("known_defect", f"{count}", f"{defect}: "
                     f"{workloads.KNOWN_DEFECTS[defect]}"))
    for argv, reason in w["examples"]:
        rows.append(("FAILED", " ".join(argv), reason))
    rows.append(("correct", "true" if w["failed"] == 0 else "false", ""))
    for key, value, note in rows:
        print(f"{name:<18} {key:<13} {value:<16} {note}".rstrip())


def run_one(root, name, seed, seconds, trace, outdir, deadline):
    # The spawns are split between before and after the worker, so that
    # their median samples the machine at both ends of the run rather than
    # in one short spell.
    setup = [] if trace else setup_times(root, warm=1)
    w = run_worker(root, name, seed, seconds, trace, outdir,
                   max(deadline - time.monotonic() - 10, 1))
    if not trace:
        setup += setup_times(root, warm=0)
    result = {"correct": w["failed"] == 0, "attempted": w["attempted"],
              "failed": w["failed"]}
    if trace:
        result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                             for k, v in sorted(w["layers"].items())}
        report(name, w, None, None, setup)
        for k, v in sorted(w["layers"].items()):
            print(f"{name:<18} {k:<40} {v:.6g} {unit_of(k)}")
        print(f"{name:<18} traced passes {w['traced_passes']}, "
              f"tracing overhead {w['layers']['trace.overhead_frac']:+.3f}")
    else:
        metrics, tail = end_to_end(w, setup)
        result["metrics"] = metrics
        report(name, w, metrics, tail, setup)
    return result


def unit_of(key):
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("_ratio") or key.endswith("_frac"):
        return "ratio"
    if key.endswith("_bits"):
        return "bit"
    if key.endswith("_bytes"):
        return "B"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "large_atlas", "cli.py")):
        print("run.py: no src/large_atlas here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    env = environment(root)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + (LIMIT_S if len(names) == 1 else LIMIT_S * len(names))
    results = {}
    try:
        for name in names:
            limit = min(deadline, time.monotonic() + LIMIT_S)
            results[name] = run_one(root, name, args.seed, args.seconds, args.trace,
                                    outdir, limit)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(dict(results, env=env)))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
