"""Steadiness check: run every workload over several seeds and report the spread.

    python3 bench/steady.py [--seeds 1-10]

Run from the root of a checkout.  For each workload of BENCHMARK.json it
runs the command there once per seed, one run at a time, for
``run_seconds`` and untraced, and prints for every end-to-end metric the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread,
the distance between the quartiles as a share of the median.  A spread
above the metric's bound is flagged, and so is one above a third of it,
the margin the bounds are set with.  It also checks that the share of
failed operations is the same in every run.  The results go to
``.bench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str) -> list[int]:
    if "-" in text[1:]:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]

    report = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    flagged = 0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["run_s"] = time.perf_counter() - start
            runs.append(res)
            print(f"{workload} seed {seed}: {res['run_s']:.1f} s, attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}", file=sys.stderr)
        shares = {f"{r['failed']}/{r['attempted']}" for r in runs}
        same_share = len({r["failed"] / r["attempted"] for r in runs}) == 1
        print(f"\n{workload}: {len(runs)} runs, longest {max(r['run_s'] for r in runs):.1f} s, "
              f"all correct {all(r['correct'] for r in runs)}, failed shares {sorted(shares)}"
              f"{'' if same_share else '  <-- FAILED SHARE DIFFERS'}")
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values):
                print(f"  {name:<36} missing in some runs")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "  <-- ABOVE BOUND"
                    flagged += 1
                elif spread > bound / 3:
                    flag = "  <-- above a third of the bound"
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
            print(f"  {name:<36} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
        report["workloads"][workload] = {"same_failed_share": same_share, "metrics": stats}
        flagged += not same_share
    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwritten {path}; {flagged} flagged")
    return 0 if flagged == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
