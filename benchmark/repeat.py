#!/usr/bin/env python3
"""Run the benchmark several times and compare the runs.

    python3 benchmark/repeat.py                  # the full set twice, same seed
    python3 benchmark/repeat.py --runs 10 --vary-seed
    python3 benchmark/repeat.py --runs 1 --write benchmark/results/BENCH_11.json

With one seed, every exact metric (virtual units, ratios, counts, bytes)
must read the same in every run and every host-time metric must stay
within its bound. With --vary-seed the spread of each end-to-end metric
is the distance between the first and third quartile of its values as a
share of their median, which must stay within the metric's bound; the
target is a third of it. Exits non-zero when a requirement fails. If a
host metric misses its bound, raise the repetitions or their length in
src/endtoend.rs; do not widen the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_UNITS = {"vunits", "ratio", "count", "bytes"}


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        sys.exit(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    result["notes"] = [l[6:] for l in lines if l.startswith("note: ")]
    result["elapsed_s"] = time.monotonic() - started
    return result


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=2)
    ap.add_argument("--vary-seed", action="store_true", help="run i uses seed + i")
    ap.add_argument("--seed", type=int, default=2000)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workload", action="append", help="only these workloads")
    ap.add_argument("--no-traced", action="store_true", help="skip the traced runs")
    ap.add_argument("--write", metavar="FILE", help="write the first run of each workload as a result file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    traces = [0] if args.no_traced else [0, 1]
    failures = []
    record = {
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seed": args.seed,
        "command": spec["command"],
        "workloads": {},
    }

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for trace in traces:
            runs = []
            for i in range(args.runs):
                seed = args.seed + i if args.vary_seed else args.seed
                runs.append(run_once(spec, workload, seed, seconds, trace))
                r = runs[-1]
                if not r["correct"] or r["failed"]:
                    failures.append(f"{workload} trace {trace} run {i}: correct={r['correct']} failed={r['failed']}")
            kind = "end_to_end" if trace == 0 else "per_layer"
            entry = record["workloads"].setdefault(workload, {})
            entry[kind] = runs[0]["metrics"]
            entry[kind + "_notes"] = runs[0]["notes"]
            entry[kind + "_attempted"] = runs[0]["attempted"]
            entry[kind + "_failed"] = runs[0]["failed"]

            slowest = max(r["elapsed_s"] for r in runs)
            print(f"\n{workload}  {kind}  runs={args.runs}  {'seeds vary' if args.vary_seed else 'one seed'}  slowest run {slowest:.1f} s")
            for m in declared[trace]:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                med = statistics.median(values)
                exact = m["unit"] in EXACT_UNITS
                if args.vary_seed or not exact:
                    s = spread(values) if args.runs > 2 else (max(values) - min(values)) / abs(med) if med else 0.0
                    bound = m.get("bound")
                    verdict = ""
                    if bound is not None and not (args.vary_seed and m["name"] == "setup_s"):
                        if s > bound:
                            verdict = "OVER BOUND"
                            failures.append(f"{workload} {m['name']}: spread {s:.4f} over bound {bound}")
                        elif s > bound / 3:
                            verdict = "over a third of the bound"
                    print(f"  {m['name']:<46} median {med:>16.6g} {m['unit']:<7} spread {100 * s:6.2f}%  {verdict}")
                else:
                    same = len(set(values)) == 1
                    if not same:
                        failures.append(f"{workload} {m['name']}: exact metric differs between runs: {values}")
                    print(f"  {m['name']:<46} value  {med:>16.6g} {m['unit']:<7} {'identical' if same else 'DIFFERS ' + str(values)}")

    if args.write:
        with open(os.path.join(ROOT, args.write), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"\nwrote {args.write}")
    for failure in failures:
        print("FAILED:", failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
