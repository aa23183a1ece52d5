#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload vitis-gossip --seed 1 --seconds 20 --trace 0

Run from the root of the repository. The script builds the workload runner
(`perfbench/src/main.rs`) offline, runs it for `--seconds`, checks its
outputs, prints every metric by name with its unit, writes a result file with
provenance under `perfbench/out/`, and prints as its last line one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
reports the per-layer metrics: it spends half the budget on an untraced run
and half on a run built with `--features perf-alloc` that records spans,
checks that both simulated exactly the same thing, and writes the span file.

Exit codes: 0 on a correct run, 1 when a correctness check fails (the result
line then says `"correct": false`), 2 when the runner cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# The seed the benchmark is tuned and reported on, and one kept aside so a
# claimed gain can be rechecked on inputs it was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# vitis-publish is runnable by hand but not in BENCHMARK.json: see README.md.
WORKLOADS = ("vitis-gossip", "vitis-publish", "rvr-churn-repair")

# Untraced runs make at least this many passes; the end-to-end timings take
# each step's fastest pass, so more passes filter more host contention.
MIN_PASSES = 3
# The round tail is the highest percentile that leaves at least this many
# measured rounds beyond it.
TAIL_BEYOND = 10


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir(variant):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-" + variant)


def build(variant):
    """Build the runner (no-op when fresh) and return the binary's path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir(variant),
    ]
    if variant == "traced":
        cmd += ["--features", "perf-alloc"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail(f"building the {variant} runner failed")
    return os.path.join(target_dir(variant), "release", "perfbench")


def run_runner(binary, workload, seed, seconds, min_passes, toy, spans=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--min-passes", str(min_passes)]
    if toy:
        cmd.append("--toy")
    if spans:
        cmd += ["--spans", spans]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(p.stderr)
    records = []
    for line in p.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            fail(f"runner printed a line that is not JSON: {line[:120]!r}")
    plan = next((r for r in records if r["type"] == "plan"), None)
    passes = [r for r in records if r["type"] == "pass"]
    process = next((r for r in records if r["type"] == "process"), None)
    return p.returncode, plan, passes, process


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(1, -(-p * len(s) // 100)) - 1]


def tail_percentile(n):
    """The highest whole percentile with at least TAIL_BEYOND of n samples
    beyond its nearest rank."""
    return max(1, 100 * (n - TAIL_BEYOND) // n)


def fastest_steps(good, key):
    """Each step's fastest time over the passes. Every pass of one seed
    simulates exactly the same steps, so a step's spread over passes is host
    noise, which only ever adds time."""
    return [min(step) for step in zip(*(p[key] for p in good))]


def summarize(passes, problems, label):
    """Wall figures over the converged passes and the simulated figures,
    which every converged pass must reproduce exactly.

    The end-to-end timings are built from each step's fastest pass: the
    round percentiles are taken over the measured rounds' fastest times,
    the throughputs divide one pass's work by the sum of its steps' fastest
    times, and `setup_s` sums the fastest time of each setup step. The other
    wall figures are medians over passes."""
    good = [p for p in passes if p["converged"]]
    if not good:
        problems.append(f"{label}: no pass converged")
        return None, {}, {}
    for p in good[1:]:
        if p["fingerprint_hash"] != good[0]["fingerprint_hash"] or p["sim"] != good[0]["sim"]:
            problems.append(f"{label}: pass {p['pass']} simulated something else than pass 0")
        for key in ("round_ms", "setup_ms", "deliver_ms"):
            if len(p[key]) != len(good[0][key]):
                problems.append(f"{label}: pass {p['pass']} timed other steps than pass 0")
    wall = {k: statistics.median(p["wall"][k] for p in good) for k in good[0]["wall"]}
    sim = dict(good[0]["sim"])
    rounds = fastest_steps(good, "round_ms")
    wall["setup_s"] = sum(fastest_steps(good, "setup_ms")) / 1e3
    wall["node_rounds_per_s"] = sim["node_rounds"] / (sum(rounds) / 1e3)
    wall["deliveries_per_s"] = sim["delivered"] / (sum(fastest_steps(good, "deliver_ms")) / 1e3)
    wall["round_ms_p50"] = statistics.median(rounds)
    wall["round_ms_tail"] = percentile(rounds, tail_percentile(len(rounds)))
    return good[0], wall, sim


def source_digest():
    """A digest of the sources the runner is built from; stands in for the
    commit where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target"))
            for f in sorted(files):
                if f.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """The commit of the checkout, when it is a git repository of its own."""
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy-size plans (self-test)")
    args = ap.parse_args()
    seed = args.seed

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    plain = build("plain")
    traced = build("traced") if args.trace else None
    os.makedirs(OUT, exist_ok=True)
    started = time.time()
    problems = []

    budget = args.seconds / 2 if args.trace else args.seconds
    code, plan, passes, process = run_runner(
        plain, args.workload, seed, budget, 1 if args.trace else MIN_PASSES, args.toy)
    if code not in (0, 3) or plan is None:
        fail(f"runner exited with code {code}")
    if code == 3:
        problems.append("runner: an output invariant failed (see stderr)")
    ref, wall, sim = summarize(passes, problems, "untraced")
    metrics = dict(wall)
    metrics.update(sim)
    if process:
        metrics["peak_rss_mb"] = process["vm_hwm_kb"] / 1024.0
    all_passes = passes
    spans = None

    if args.trace:
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{seed}.jsonl")
        tcode, tplan, tpasses, tprocess = run_runner(
            traced, args.workload, seed, budget, 1, args.toy, spans=spans)
        if tcode not in (0, 3) or tplan is None:
            fail(f"traced runner exited with code {tcode}")
        if tcode == 3:
            problems.append("traced runner: an output invariant failed (see stderr)")
        tref, twall, tsim = summarize(tpasses, problems, "traced")
        if ref and tref and (tref["fingerprint_hash"] != ref["fingerprint_hash"] or tsim != sim):
            problems.append("tracing perturbed the simulation: fingerprints differ")
        # Per-layer figures come from the traced run; its overhead is
        # measured against the untraced passes of the same seed.
        metrics = dict(twall)
        metrics.update(tsim)
        if wall and twall:
            metrics["trace.overhead_pct"] = 100.0 * (twall["pass_s"] / wall["pass_s"] - 1.0)
        all_passes = passes + tpasses

    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            problems.append(f"metric {m['name']} was not measured")
            continue
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    attempted = sum(p["api_calls"] for p in all_passes)
    failed = sum(p["failed_calls"] for p in all_passes)
    correct = not problems and ref is not None

    result = {
        "provenance": {
            "commit": git_commit(),
            "source_digest": source_digest(),
            "workload": args.workload,
            "seed": seed,
            "default_seed": DEFAULT_SEED,
            "heldout_seed": HELDOUT_SEED,
            "plan": plan["plan"],
            "features": ["perf-alloc"] if args.trace else [],
            "sim_threads": plan["threads"],
            "nproc": os.cpu_count(),
            "trace": args.trace,
            "seconds": args.seconds,
            "started_unix": started,
        },
        "passes": len(all_passes),
        "converged_passes": sum(p["converged"] for p in all_passes),
        "round_samples": len(ref["round_ms"]) if ref else 0,
        "tail_percentile": tail_percentile(len(ref["round_ms"])) if ref else None,
        "convergence": ref["convergence"] if ref else None,
        "fingerprint_hash": ref["fingerprint_hash"] if ref else None,
        "fingerprint": ref["fingerprint"] if ref else None,
        "pairs": {k: sim.get(k) for k in ("published", "expected", "delivered")},
        "metrics": metrics,
        "sim_metrics": sorted(sim),
        "problems": problems,
        "spans": os.path.relpath(spans, ROOT) if spans else None,
    }
    result_path = os.path.join(OUT, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"workload {args.workload} seed {seed}: {len(all_passes)} passes, "
          f"{result['round_samples']} measured rounds, "
          f"tail = p{result['tail_percentile']}, fingerprint {result['fingerprint_hash']}")
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"result file: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
