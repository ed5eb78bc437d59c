"""Set up one workload in a fresh process and measure it.

    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Started by ``bench/run.py`` with the checkout root as working directory;
it imports the package from ``src/`` of that checkout.  Set-up is the
import, the inputs and a warm-up; the worker prints ``READY`` when it is
done, so the parent can time set-up from process start.  Then it runs
the whole number of rounds of the workload that takes closest to
``--seconds`` and prints its result as one JSON line.

With ``--trace 1`` it runs every round twice, untraced then traced, to
measure the tracing overhead; then one traced round of every other
workload, so that every layer has spans; then the fixed-input kernel
timings.  The spans go to ``.bench_out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import monosphere  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Outcome of a sequence of operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []  # completed operations, seconds
        self.wall = 0.0  # timed seconds, failed operations included
        self.faults: Counter = Counter()
        self.unexpected: Counter = Counter()
        self.mended: Counter = Counter()
        self.bad: list[str] = []
        self.rounds = 0
        self.round_walls: list[float] = []


def run_ops(ops, tracer, tally: Tally) -> None:
    for op in ops:
        tally.attempted += 1
        span = tracer.begin_op(op.kind)
        start = time.perf_counter()
        try:
            result = op.run(tracer)
        except Exception as exc:  # a failed operation is counted and the run goes on
            tally.wall += time.perf_counter() - start
            tracer.end_op(span)
            tally.failed += 1
            name = workloads.fault_name(exc)
            if name == op.fault:
                tally.faults[f"{op.kind}: {name}"] += 1
            else:
                tally.unexpected[f"{op.kind}: {name}: {exc}"] += 1
            continue
        elapsed = time.perf_counter() - start
        tracer.end_op(span)
        tally.wall += elapsed
        tally.times.append(elapsed)
        if op.fault is not None:
            tally.mended[f"{op.kind}: {op.fault}"] += 1
        try:
            op.check(result)
        except Exception as exc:  # a wrong output, or a malformed report
            tally.bad.append(f"{op.kind}: {type(exc).__name__}: {exc}")


def measure(wl, seconds: float, tracers) -> list[Tally]:
    """The whole number of rounds closest to `seconds` (at least one).

    In a traced run each round runs once per tracer in turn, untraced
    first; alternating round by round lets both passes see the same
    machine conditions, so their difference is the tracing.
    """
    tallies = [Tally() for _ in tracers]
    start = time.perf_counter()
    r = 0
    while True:
        for tracer, tally in zip(tracers, tallies):
            before = tally.wall
            run_ops(wl.round(r), tracer, tally)
            tally.rounds += 1
            tally.round_walls.append(tally.wall - before)
        r += 1
        elapsed = (time.perf_counter() - start) / len(tracers)
        if elapsed + elapsed / (2 * r) >= seconds:
            return tallies


def time_kernel(fn, *args) -> float:
    """Median over five batches of the per-call time, microseconds."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        if time.perf_counter() - start >= 0.02:
            break
        n *= 4
    batches = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        batches.append((time.perf_counter() - start) / n)
    return statistics.median(batches) * 1e6


def kernel_timings() -> dict[str, float]:
    """Per-call times of the evaluation kernels on fixed inputs."""
    from monosphere import (
        H_matrix, Mobius, SpectralMatrix, act_sl2, curvature_density, eval_sphere,
        factor_sphere, metric_h, moment_map, pairing, proj_roots, sech_field, sphere_to_tuple,
    )
    from monosphere.projective import hom_vector

    rng = np.random.default_rng(20011)
    S8 = SpectralMatrix(8, workloads.random_psi(rng, 8))
    q8 = factor_sphere(S8)
    q32 = factor_sphere(SpectralMatrix(32, workloads.random_psi(rng, 32)))
    t32 = sphere_to_tuple(q32)
    g = Mobius.from_matrix(workloads.MOVE)
    deg2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    deg32 = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    z, w = 0.6 + 0.3j, -0.4 + 0.9j
    return {
        "projective.hom_vector_us.k8": time_kernel(hom_vector, z, 8),
        "projective.proj_roots_us.deg2": time_kernel(proj_roots, deg2),
        "projective.proj_roots_us.deg32": time_kernel(proj_roots, deg32),
        "spheres.pairing_us.k8": time_kernel(pairing, q8, w, z),
        "spheres.eval_sphere_us.k32": time_kernel(eval_sphere, q32, z),
        "boundary.metric_h_us.k8": time_kernel(metric_h, S8, z),
        "boundary.curvature_density_us.k8": time_kernel(curvature_density, S8, z),
        "centering.act_sl2_us.k32": time_kernel(act_sl2, g, t32),
        "centering.moment_map_us.k32": time_kernel(moment_map, t32),
        "axial.H_matrix_us": time_kernel(H_matrix, sech_field(), 0.5 + 0.5j, 1.0),
    }


def summary(tally: Tally) -> dict:
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": tally.rounds,
        "op_times_s": tally.times,
        "wall_s": tally.wall,
        "round_walls_s": tally.round_walls,
        "faults": dict(tally.faults),
        "unexpected": dict(tally.unexpected),
        "mended": dict(tally.mended),
        "bad": tally.bad[:20],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # A terminated worker unwinds, so subprocess.run kills its CLI child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if os.path.dirname(os.path.abspath(monosphere.__file__)) != os.path.join(SRC, "monosphere"):
        print(f"monosphere imported from {monosphere.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed, ROOT)
    warm = Tally()
    run_ops(wl.warmup(), spans.Tracer(False), warm)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracers = [spans.Tracer(False)] + ([spans.Tracer(True)] if args.trace else [])
    tallies = measure(wl, args.seconds, tracers)
    plain = tallies[0]
    out = {"plain": summary(plain), "warmup_bad": warm.bad + list(warm.unexpected)}
    if args.trace:
        tracer, traced = tracers[1], tallies[1]
        coverage = Tally()
        for name in workloads.NAMES:
            if name != args.workload:
                other = workloads.make(name, args.seed, ROOT)
                run_ops(other.warmup(), spans.Tracer(False), Tally())
                run_ops(other.round(0), tracer, coverage)
        overhead = (traced.wall / plain.wall - 1.0) * 100.0
        out["traced"] = summary(traced)
        out["coverage"] = summary(coverage)
        out["layers"] = spans.layer_metrics(tracer, kernel_timings(), overhead)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.dump(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.json"))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__, "monosphere": monosphere.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
