#!/usr/bin/env python3
"""Compare benchmark result files of two versions of the program.

    python3 perfbench/compare.py --base perfbench/out-base/*.json --new perfbench/out/*.json

Each file is a result written by `run.py` (`perfbench/out/<workload>-seed<n>-trace<t>.json`).
Files are grouped by workload, and within a workload by seed. The comparison
refuses (exit 2) when the two sides ran different workloads, workload
parameters, run lengths or trace modes, or different sets of seeds, or when
runs of one seed simulated different things (their fingerprints differ):
such runs measure different work and their timings say nothing about speed.
Otherwise it takes each metric's median per seed on each side, then the
median of those over the seeds, prints both and the change in the metric's
worse direction, and exits 1 when a metric got worse by more than its bound
in BENCHMARK.json.

With identical fingerprints the simulated metrics (`hit_ratio`, `mean_hops`,
...) are equal on both sides by construction, so only the wall-clock metrics
can move. A change that alters the simulation on purpose is judged with
`--sim-changed`: fingerprints may then differ between the sides, the
simulated metrics are held to their bounds, and the wall-clock metrics are
listed but not judged, because the two sides did different work.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    """{workload: {seed: [result, ...]}}"""
    groups = {}
    for path in paths:
        with open(path) as f:
            r = json.load(f)
        prov = r["provenance"]
        groups.setdefault(prov["workload"], {}).setdefault(prov["seed"], []).append(r)
    return groups


def refuse(msg):
    print(f"compare: refused: {msg}", file=sys.stderr)
    sys.exit(2)


def runs(side):
    return [r for rs in side.values() for r in rs]


def same(side_a, side_b, key, workload):
    values = {json.dumps(r["provenance"][key], sort_keys=True) for r in runs(side_a) + runs(side_b)}
    if len(values) > 1:
        refuse(f"{workload}: runs differ in {key}: {sorted(values)}")


def fingerprint(side, seed, workload, label):
    hashes = {r["fingerprint_hash"] for r in side[seed]}
    if len(hashes) > 1:
        refuse(f"{workload} seed {seed}: the {label} runs disagree on the fingerprint {sorted(hashes)}")
    return hashes.pop()


def value(side, name):
    """Median over seeds of the per-seed medians, or None when unmeasured."""
    per_seed = []
    for rs in side.values():
        vs = [r["metrics"][name] for r in rs if name in r["metrics"]]
        if vs:
            per_seed.append(statistics.median(vs))
    return statistics.median(per_seed) if per_seed else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--sim-changed", action="store_true",
                    help="the change alters the simulation: judge only the simulated metrics")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)
    if set(base) != set(new):
        refuse(f"the sides ran different workloads: {sorted(base)} vs {sorted(new)}")

    regressions = 0
    for workload in sorted(base):
        b, n = base[workload], new[workload]
        for key in ("plan", "seconds", "trace"):
            same(b, n, key, workload)
        if set(b) != set(n):
            refuse(f"{workload}: the sides ran different seeds: {sorted(b)} vs {sorted(n)}")
        changed = []
        for seed in sorted(b):
            fb, fn = fingerprint(b, seed, workload, "base"), fingerprint(n, seed, workload, "new")
            if fb != fn:
                changed.append(seed)
        if changed and not args.sim_changed:
            refuse(f"{workload} seeds {changed}: fingerprints differ; the simulation changed "
                   f"(use --sim-changed to judge the simulated metrics)")
        print(f"{workload}: seeds {sorted(b)}, {len(runs(b))} base runs, {len(runs(n))} new runs, "
              f"simulation changed on {len(changed)} seeds")
        sim = set().union(*(r.get("sim_metrics", []) for r in runs(b) + runs(n)))
        metrics = spec["end_to_end"] if runs(b)[0]["provenance"]["trace"] == 0 else spec["per_layer"]
        for m in metrics:
            name = m["name"]
            mb, mn = value(b, name), value(n, name)
            if mb is None or mn is None:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mn - mb) / abs(mb) if mb else 0.0
            bound = m.get("bound")
            verdict = ""
            if args.sim_changed and name not in sim:
                verdict = "not judged (different work)"
            elif bound is not None:
                verdict = "REGRESSION" if worse > bound else "ok"
                regressions += worse > bound
            print(f"  {name:36s} {mb:14.6g} -> {mn:14.6g} {m['unit']:16s} "
                  f"worse by {100 * worse:+7.2f}%  {verdict}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
