"""Do two sets of runs of the same code agree within the benchmark's bounds?

    python3 perfbench/agree.py [--runs 10] [--workload NAME ...] [--out PATH]

Run from the root of a checkout.  For every workload it runs
perfbench/run.py --runs times in each of two sets, each run with its own
seed (set s, run i uses seed 100*s + i), alternating between the sets so
that drift in the machine hits both alike.  For each end-to-end metric it
reports each set's median and quartile spread, and it checks what
BENCHMARK.json promises:

- every spread is within the metric's bound, that of setup_s too;
- the second set's median is not worse than the first's by more than the
  bound, for every metric.

It prints one line per workload and metric, writes everything with the
Python version, nproc and git commit to --out, and exits 0 only when every
check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import measure
import run as bench

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=bench.LIMIT_S + 30)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stdout}{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": measure.spread(values), "values": values}


def main(argv=None):
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default=os.path.join(".perfbench", "agree.json"))
    args = ap.parse_args(argv)
    metrics = spec["end_to_end"]
    out = {"env": bench.environment(root), "runs": args.runs, "seconds": args.seconds,
           "workloads": {}}
    ok = True
    for name in args.workload or names:
        values = [{m["name"]: [] for m in metrics} for _ in range(2)]
        for i in range(args.runs):
            for s in range(2):
                res = one_run(name, 100 * (s + 1) + i, args.seconds)
                if not res["correct"] or res["failed"]:
                    raise RuntimeError(f"{name}: incorrect run: {res}")
                for m in metrics:
                    values[s][m["name"]].append(res["metrics"][m["name"]]["value"])
        rows = {}
        for m in metrics:
            key, bound = m["name"], m["bound"]
            sets = [summarize(v[key]) for v in values]
            row = {"bound": bound, "sets": sets, "checks": []}
            for s, st in enumerate(sets):
                if st["spread"] > bound:
                    row["checks"].append(f"set {s + 1} spread {st['spread']:.3f} > {bound}")
            worse = measure.worse_by(sets[0]["median"], sets[1]["median"], m["better"])
            row["second_worse_by"] = worse
            if worse > bound:
                row["checks"].append(f"second median worse by {worse:.3f} > {bound}")
            ok = ok and not row["checks"]
            rows[key] = row
            spreads = " ".join(f"{st['median']:.5g}{m['unit']}±{st['spread']:.3f}"
                               for st in sets)
            verdict = "; ".join(row["checks"]) or "ok"
            print(f"{name:<18} {key:<12} bound {bound:<5} {spreads}  {verdict}", flush=True)
        out["workloads"][name] = rows
    out["agree"] = ok
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
