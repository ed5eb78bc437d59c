"""Run one workload of the monosphere benchmark and print its metrics.

    python3 bench/run.py --workload pipeline-mixed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  Workloads: pipeline-mixed, large-charge, cli-oneshot and
charge2-field (see bench/README.md).  Each is a closed loop with a
single caller in a single process.

Set-up is timed SETUP_RUNS times, each in a fresh worker process from
its start until it reports ready (import, inputs, warm-up), and the
median is ``setup_s``.  The last of those workers then measures.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero, without that line, when the checkout holds no package
or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

SETUP_RUNS = 5
DEADLINE_S = 170.0
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("pipeline-mixed", "large-charge", "cli-oneshot", "charge2-field")
P90_MIN_OPS = 100


class BenchError(Exception):
    pass


def start_worker(argv: list[str], deadline: float, procs: list):
    """Start a worker; return (process, seconds from start to READY)."""
    # Bytecode caching on, as for an installed package: every process
    # after the first imports from __pycache__ instead of compiling.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    procs.append(proc)
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - start
        if time.perf_counter() > deadline:
            break
    raise BenchError(f"worker did not become ready: {' '.join(argv[1:])}")


def finish_worker(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def stop(procs: list) -> None:
    """Kill every worker still running and wait for it to end."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def environment(root: str, args) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "monosphere")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def quantile_ms(times: list[float], q: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "monosphere", "__init__.py")):
        print(f"no monosphere package under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + DEADLINE_S
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    base = [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed)]
    procs: list = []
    try:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            proc, seconds = start_worker(base + ["--setup-only"], deadline, procs)
            finish_worker(proc, deadline)
            setups.append(seconds)
        proc, seconds = start_worker(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline, procs,
        )
        setups.append(seconds)
        res = json.loads(finish_worker(proc, deadline).strip().splitlines()[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        stop(procs)

    plain = res["plain"]
    times = plain["op_times_s"]
    if not times:
        print(f"benchmark failed: no operation completed ({plain['unexpected'] or plain['faults']})", file=sys.stderr)
        return 1
    env = dict(environment(root, args), **res["versions"])
    # An operation that fails other than by a known fault is as wrong as
    # a wrong output: failing fast must not pass for a speed-up.
    correct = not plain["bad"] and not plain["unexpected"] and not res["warmup_bad"]
    end_to_end = {
        "ops_per_s": {"value": len(times) / plain["wall_s"], "unit": "op/s"},
        "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    attempted, failed = plain["attempted"], plain["failed"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  rounds {plain['rounds']}  attempted {attempted}  failed {failed}  completed {len(times)}")
    for name, m in end_to_end.items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    if len(times) >= P90_MIN_OPS:
        print(f"  {'op_p90_ms':<14} {quantile_ms(times, 90):.6g} ms  ({len(times)} operations)")
    print(f"  setup samples s: {', '.join(f'{s:.4f}' for s in setups)}")
    for label, key in (("known fault", "faults"), ("UNEXPECTED failure", "unexpected"), ("fault did not occur", "mended")):
        for what, n in plain[key].items():
            print(f"  {label}: {what} x{n}")
    for what in plain["bad"] + res["warmup_bad"]:
        print(f"  WRONG OUTPUT: {what}")

    metrics = end_to_end
    if args.trace:
        traced, coverage = res["traced"], res["coverage"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        correct = correct and not any(t["bad"] or t["unexpected"] for t in (traced, coverage))
        metrics = res["layers"]
        print(f"  traced rounds {traced['rounds']}; coverage rounds of the other workloads: "
              f"{coverage['attempted']} operations, {coverage['failed']} failed")
        for name, m in metrics.items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:<36} {value} {m['unit']}")
        for what in traced["bad"] + coverage["bad"]:
            print(f"  WRONG OUTPUT: {what}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
