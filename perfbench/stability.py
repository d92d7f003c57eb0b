#!/usr/bin/env python3
"""Run-to-run checks of the benchmark. Run from the root of a checkout.

  python3 perfbench/stability.py spread --workload dj-query --seeds 1-10
      Runs the untraced benchmark once per seed. For each end-to-end metric
      it prints the median, the quartiles (statistics.quantiles, n=4) and
      the quartile spread as a share of the median, beside a third of the
      metric's bound and the bound from BENCHMARK.json.

  python3 perfbench/stability.py repeat --workload dj-query --seed 1 --other-seed 2
      Runs the traced benchmark twice with one seed and once with another.
      The counts below do not depend on timing: they must be equal in the
      two same-seed runs, and the other seed must change the inputs.

Exits 1 when a spread exceeds its bound, a count does not repeat, or a run
fails its correctness checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench", "results")
REPEATED = ["embed.alloc_kb_per_query", "text.tokens_per_query", "embed.mmac_per_query",
            "ann.layer0_degree_mean", "ann.levels", "train.pairs",
            "recall_at_k", "precision_at_10"]


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        sys.exit(f"run failed: {' '.join(cmd)}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")) as f:
        full = json.load(f)
    print(f"  seed {seed} trace {trace}: {wall:.1f} s wall, correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result, full, wall


def seeds_arg(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    b = bench()
    values = {m["name"]: [] for m in b["end_to_end"]}
    ok = True
    walls = []
    for seed in args.seeds:
        result, _, wall = run(args.workload, seed, 0, args.seconds or b["run_seconds"])
        walls.append(wall)
        ok &= result["correct"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    print(f"{args.workload}: {len(args.seeds)} seeds, wall median {statistics.median(walls):.1f} s")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8} {'bound':>6}")
    for m in b["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        rel = (q3 - q1) / statistics.median(v)
        bound = m["bound"]
        flag = "" if rel <= bound / 3 else (" over bound/3" if rel <= bound else " OVER BOUND")
        if m["name"] != "setup_s" and rel > bound:
            ok = False
        print(f"{m['name']:<18} {statistics.median(v):>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{rel:>8.4f} {bound / 3:>8.4f} {bound:>6.3f}{flag}")
    return ok


def repeat(args):
    seconds = args.seconds or bench()["run_seconds"]
    runs = [run(args.workload, s, 1, seconds)[1]["all_measured"]
            for s in (args.seed, args.seed, args.other_seed)]
    ok = True
    print(f"{'count':<26} {'seed ' + str(args.seed):>16} {'again':>16} {'seed ' + str(args.other_seed):>16}")
    for name in REPEATED:
        a, b, c = (r.get(name) for r in runs)
        if a is None:
            continue
        same = a == b
        ok &= same
        print(f"{name:<26} {a!s:>16} {b!s:>16} {c!s:>16}  {'repeats' if same else 'DIFFERS'}"
              f"{'' if a != c else ' (same on the other seed)'}")
    changed = any(runs[0].get(n) != runs[2].get(n) for n in REPEATED if n in runs[0])
    print("the other seed changes the inputs" if changed else "THE OTHER SEED CHANGES NOTHING")
    return ok and changed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    sp.add_argument("--seconds", type=float)
    rp = sub.add_parser("repeat")
    rp.add_argument("--workload", required=True)
    rp.add_argument("--seed", type=int, default=1)
    rp.add_argument("--other-seed", type=int, default=2)
    rp.add_argument("--seconds", type=float)
    args = ap.parse_args()
    ok = spread(args) if args.mode == "spread" else repeat(args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
