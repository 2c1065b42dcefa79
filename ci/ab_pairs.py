#!/usr/bin/env python3
"""Alternate two built benchmark executables and judge the difference.

    cargo build --release --offline --manifest-path benchmark/Cargo.toml   # once per commit,
    #   each into its own CARGO_TARGET_DIR; the executable is <dir>/release/benchmark
    python3 ci/ab_pairs.py PARENT_EXE CHANGE_EXE --workload churn-local \\
        --seed 2000 --seed 7011974 --pairs 10 --out pairs.json

For every workload and seed it runs `--pairs` pairs of (parent, change),
alternating which side goes first, with the run length BENCHMARK.json
fixes, and prints for every metric each side's median [q1, q3] and
minimum, the pairs the change won, and a verdict by the rule of the
choosing-metrics guide, section 8 (the minimum is for the reader: on a
shared host the median of a timing's repetitions swings with the
neighbours while its fastest run settles; no verdict uses it):

  gain        the change won at least nine tenths of the pairs (ties for
              neither side) and the medians differ by more than the
              distance between the parent's quartiles; with fewer than
              the ten pairs the rule asks for it reads `better (<10)`
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  neither, and the parent's own spread is wider than the bound
  same        neither, and the spread is within the bound
  identical   every run of both sides printed the same value (what an
              exact metric — virtual units, ratios, counts — must do)
  MOVED       an exact metric that is not identical

A change that is meant to alter behaviour passes `--allow-moved`: an
exact metric whose two sides each repeat but differ from one another is
then judged by direction and by its BENCHMARK.json bound — `improved
(exact)`, `worsened (exact, within bound)` (`no bound` for a per-layer
metric, which declares none), or REGRESSION — and only the last fails
the run. A side that does not repeat its own value is MOVED either way.
A side of an exact metric that does repeat prints that value's digits
in place of median, quartiles and minimum.

`--out` keeps every run made (both sides' full metric sets, in order).
Exits non-zero on a REGRESSION, a MOVED, a failed operation or
`correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_UNITS = {"vunits", "ratio", "count", "bytes"}


def run(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{' '.join(cmd)}: exit code {done.returncode}, no output\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def judge(parent, change, better, bound, exact, allow_moved=False):
    """(pairs won by the change, ties, verdict) for one metric."""
    sign = -1.0 if better == "lower" else 1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    if len(set(parent + change)) == 1:
        return won, ties, "identical"
    if exact:
        if not allow_moved or len(set(parent)) > 1 or len(set(change)) > 1:
            return won, ties, "MOVED"
        gain = sign * (change[0] - parent[0])
        if gain > 0:
            return won, ties, "improved (exact)"
        if bound is None:
            return won, ties, "worsened (exact, no bound)"
        if parent[0] != 0 and -gain / abs(parent[0]) <= bound:
            return won, ties, "worsened (exact, within bound)"
        return won, ties, "REGRESSION"
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if bound is not None and pm != 0 and -gain / abs(pm) > bound:
        return won, ties, "REGRESSION"
    if 10 * won >= 9 * len(parent) and gain > p3 - p1:
        return won, ties, "gain" if len(parent) >= 10 else "better (<10)"
    if bound is not None and pm != 0 and (p3 - p1) / abs(pm) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return won, ties, "same" if all_better else "unresolved"
    return won, ties, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="benchmark executable built from the parent commit")
    ap.add_argument("change", help="benchmark executable built from the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, action="append", help="default 2000; repeatable")
    ap.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1], help="1 compares the per-layer ledger")
    ap.add_argument("--allow-moved", action="store_true",
                    help="judge an exact metric that differs by direction and bound instead of failing it")
    ap.add_argument("--out", metavar="FILE", help="write every run made as JSON")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    exes = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    record = {"nproc": os.cpu_count(), "run_seconds": seconds, "pairs": args.pairs,
              "trace": args.trace, "runs": []}
    bad = []

    for workload in workloads:
        for seed in args.seed or [2000]:
            sides = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run(exes[side], workload, seed, seconds, args.trace)
                    sides[side].append(r)
                    record["runs"].append({"workload": workload, "seed": seed, "pair": i,
                                           "side": side, "first": side == order[0], **r})
                    if r["exit_code"] != 0 or not r["correct"] or r["failed"]:
                        bad.append(f"{workload} seed {seed} pair {i} {side}: exit {r['exit_code']} "
                                   f"correct {r['correct']} failed {r['failed']}")
                if args.out:
                    with open(args.out, "w") as f:
                        json.dump(record, f)
            print(f"\n## {workload}, seed {seed}: {args.pairs} alternating pairs of {seconds} s"
                  f"{', traced' if args.trace else ''}")
            print(f"{'metric':44} {'parent median [q1, q3]':>34} {'min':>9} "
                  f"{'change median [q1, q3]':>34} {'min':>9} {'change/parent':>13} {'won':>7}  verdict")
            for name in sides["parent"][0]["metrics"]:
                spec_m = declared.get(name, {})
                unit = sides["parent"][0]["metrics"][name]["unit"]
                cols = {}
                for side, runs in sides.items():
                    cols[side] = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                if len(cols["parent"]) != args.pairs or len(cols["change"]) != args.pairs:
                    continue
                won, ties, verdict = judge(cols["parent"], cols["change"],
                                           spec_m.get("better", "lower"), spec_m.get("bound"),
                                           unit in EXACT_UNITS, args.allow_moved)
                if verdict in ("REGRESSION", "MOVED"):
                    bad.append(f"{workload} seed {seed}: {name} {verdict}")
                if verdict == "identical":
                    print(f"{name:44} {cols['parent'][0]!r:>34} {'':>9} {'=':>34} {'':>9} "
                          f"{'':>13} {'':>7}  {verdict}")
                    continue
                cells = []
                for side in ("parent", "change"):
                    if unit in EXACT_UNITS and len(set(cols[side])) == 1:
                        # An exact cell that repeats: its digits, no spread.
                        cells.append(f"{cols[side][0]!r:>34} {'':>9}")
                        continue
                    q1, med, q3 = quartiles(cols[side])
                    spread = f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
                    cells.append(f"{spread:>34} {min(cols[side]):>9.6g}")
                pm = statistics.median(cols["parent"])
                ratio = f"{statistics.median(cols['change']) / pm:.3f}" if pm else "-"
                tally = f"{won}/{args.pairs}" + (f" ={ties}" if ties else "")
                print(f"{name:44} {cells[0]} {cells[1]} {ratio:>13} {tally:>7}  {verdict}")

    for line in bad:
        print("FAIL:", line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
