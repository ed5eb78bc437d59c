"""Spans around calls into the library, and the per-layer metrics made from them.

A span records a name, its start and end (``time.perf_counter``, which
is CLOCK_MONOTONIC on Linux and so comparable across processes), the
span that caused it and the operation it belongs to.  Spans stay in
memory and are written out once, when the run ends.  Only benchmark
code opens spans: the library under ``src/`` is not instrumented, so a
span covers one public call as seen from outside.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Tracer:
    """Call wrapper for the workloads.

    ``call(name, fn, *args)`` returns ``fn(*args)``.  When the tracer is
    enabled it also records a span named ``name`` (``module.function``)
    around the call, and ``count`` keeps per-call values such as
    iteration counts; when disabled both add one Python call and nothing
    else, so untraced runs measure the library alone.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._op = None
        self._ops = 0

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts[name].append(float(value))

    def begin_op(self, kind: str):
        """Open the root span of one operation; returns its handle."""
        if not self.enabled:
            return None
        self._ops += 1
        self._op = self._ops
        return self._open("op." + kind)

    def end_op(self, span) -> None:
        if span is not None:
            self._close(span)
            self._op = None

    def adopt(self, spans: list[dict]) -> None:
        """Attach spans recorded by a child process under the open span.

        Child spans carry their own ids, start, end and parent (``None``
        for the child's top level); ids are renumbered into this tracer.
        """
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for s in spans:
            self.spans.append({
                "id": base + s["id"],
                "name": s["name"],
                "start": s["start"],
                "end": s["end"],
                "parent": parent if s["parent"] is None else base + s["parent"],
                "op": self._op,
            })

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({
            "id": sid,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
        })
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """Seconds of self time per span, grouped by span name.

    A span's self time is its duration minus the part of its interval
    covered by its children (overlapping children counted once).
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = defaultdict(list)
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["name"]].append(s["end"] - s["start"] - covered)
    return out


def process_overheads(spans: list[dict]) -> list[float]:
    """Per CLI operation: process wall time minus cli.main, in seconds.

    The traced process also makes the parse, emit and reconstruct calls
    that cli.main hides, after cli.main returns; their spans are taken
    off as well, so what remains is interpreter start, imports and exit.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for s in spans:
        kids = children[s["id"]]
        if any(c["name"] == "cli.main" for c in kids):
            calls = sum(c["end"] - c["start"] for c in kids if not c["name"].startswith("startup."))
            out.append(s["end"] - s["start"] - calls)
    return out


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(tracer: Tracer, kernels: dict[str, float], overhead_pct: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, as {name: {value, unit}}.

    ``*_ms`` metrics are median self time per call; counts are the mean
    per call of the function that yields them; ``*_us.<size>`` metrics
    come from the fixed-input kernel timings in ``kernels``.
    """
    selfs = self_times(tracer.spans)
    metrics = {}
    for name, (source, unit) in SPAN_METRICS.items():
        value = _median(selfs.get(source, []))
        metrics[name] = {"value": None if value is None else value * 1e3, "unit": unit}
    for name, (source, unit) in COUNT_METRICS.items():
        vals = tracer.counts.get(source, [])
        metrics[name] = {"value": statistics.fmean(vals) if vals else None, "unit": unit}
    overheads = process_overheads(tracer.spans)
    metrics["cli.process_overhead_ms"] = {
        "value": _median(overheads) * 1e3 if overheads else None, "unit": "ms",
    }
    for name, value in kernels.items():
        metrics[name] = {"value": value, "unit": "us"}
    metrics["tracing.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


# metric name -> (span name, unit)
SPAN_METRICS = {
    "startup.import_ms": ("startup.import", "ms"),
    "startup.import_deps_ms": ("startup.import_deps", "ms"),
    "cli.main_ms": ("cli.main", "ms"),
    "serialize.parse_ms": ("serialize.loads_payload", "ms"),
    "serialize.emit_ms": ("serialize.dumps_report", "ms"),
    "curves.positivity_check_ms": ("curves.positivity_check", "ms"),
    "curves.normalize_reality_ms": ("curves.normalize_reality", "ms"),
    "spheres.factor_sphere_ms": ("spheres.factor_sphere", "ms"),
    "boundary.degree_integral_ms": ("boundary.degree_integral", "ms"),
    "boundary.reconstruct_ms": ("boundary.reconstruct_psi_from_metric", "ms"),
    "centering.center_flow_ms": ("centering.center_flow", "ms"),
    "ratmap.find_line_ms": ("ratmap.find_line", "ms"),
    "ratmap.project_map_ms": ("ratmap.project_map", "ms"),
    "ratmap.spectral_slice_ms": ("ratmap.spectral_slice", "ms"),
    "charge2.estimate_mass_ms": ("charge2.estimate_mass", "ms"),
    "charge2.p_sequence_ms": ("charge2.p_sequence", "ms"),
    "charge2.poncelet_ms": ("charge2.poncelet", "ms"),
    "charge2.z_lattice_ms": ("charge2.z_lattice", "ms"),
    "axial.bog_residual_ms": ("axial.bog_residual", "ms"),
    "axial.mass_profile_ms": ("axial.mass_profile", "ms"),
}

# metric name -> (count name, unit)
COUNT_METRICS = {
    "serialize.report_bytes": ("serialize.report_bytes", "bytes"),
    "boundary.degree_error_bound": ("boundary.degree_error_bound", "1"),
    "centering.flow_iterations": ("centering.flow_iterations", "count"),
    "ratmap.line_sweeps": ("ratmap.line_sweeps", "count"),
    "charge2.pseq_half_steps": ("charge2.pseq_half_steps", "count"),
    "axial.residual_points": ("axial.residual_points", "count"),
}
