"""Spans around the calls into segscreen's modules, installed from outside.

``install`` replaces each traced function where its caller looks it up
(``pipeline`` and ``gating`` bind names with ``from .x import y``, so
``segscreen.pipeline.run_tta`` is patched, not ``segscreen.fusion``).
Each span records its name, start, end, parent span and case id; spans
stay in memory and are written out when the run ends. Counters are
taken at the same boundaries.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import zlib
from collections import defaultdict

import numpy as np

MIB = 1024.0 * 1024.0

# Spans whose total and per-case time are reported.
DURATIONS = (
    "stats.median_heuristic", "stats.pooled_matrix", "stats.permutation_loop",
    "stats.two_sample_test", "stats.ks_two_sample", "gating.gate_existence",
    "segmentor.segment", "fusion.run_tta", "candidates.connected_components",
    "candidates.describe", "geometry.build_rois", "sgrid.read_sgrid", "sgrid.write_sgrid",
    "metrics.add_slice",
)
# Spans with children, whose self time is reported.
SELF_TIMES = ("pipeline.process_case", "pipeline.run_manifest", "fusion.run_tta",
              "stats.two_sample_test", "gating.gate_existence")
COUNTS = (
    ("stats.two_sample_test.calls", "count"),
    ("stats.bh_keep_ratio", "ratio"),
    ("stats.pooled_matrix_mib_max", "MiB"),
    ("stats.pooled_size_p50", "count"),
    ("gating.l1_pass_ratio", "ratio"),
    ("segmentor.segment.calls_per_case", "count"),
    ("segmentor.segment.distinct_ratio", "ratio"),
    ("fusion.canvas_mib_per_case", "MiB"),
    ("candidates.components_per_case", "count"),
    ("candidates.tested_per_case", "count"),
    ("sgrid.read_mib", "MiB"),
    ("sgrid.read_mib_per_case", "MiB"),
    ("sgrid.write_mib", "MiB"),
    ("sgrid.write_mib_per_case", "MiB"),
    ("pipeline.held_result_mib", "MiB"),
    ("trace.cases", "count"),
    ("trace.spans", "count"),
    ("trace.cases_per_s", "1/s"),
    ("trace.untraced_cases_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = []
    for name in DURATIONS:
        out += [(f"{name}.ms", "ms"), (f"{name}.ms_per_case", "ms")]
    for name in SELF_TIMES:
        out += [(f"{name}.self_ms", "ms"), (f"{name}.self_ms_per_case", "ms")]
    return out + list(COUNTS)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, case id)
        self.counters: dict[str, float] = defaultdict(float)
        self.pooled_sizes: list[int] = []
        self.held_bytes: list[int] = []
        self.responses: dict[int, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ambient: tuple | None = None
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    def wrap(self, fn, name: str, case_of=None, observe=None, ambient: bool = False):
        """Return ``fn`` wrapped in a span, recorded while ``enabled``.

        Threads that start with an empty stack (the workers of
        run_manifest) take the open ambient span as parent. Stack entries
        are (span id, case id, id of the enclosing process_case span).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._ambient or (None, None, None))
            case = case_of(args) if case_of else parent[1]
            sid = next(self._ids)
            call = sid if name == "pipeline.process_case" else parent[2]
            stack.append((sid, case, call))
            if ambient:
                self._ambient = stack[-1]
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if ambient:
                    self._ambient = None
                self.spans.append((sid, name, t0, t1, parent[0], case))
            if observe is not None:
                observe(call, args, result)
            return result

        return traced

    # -- observers: called with the id of the enclosing process_case span,
    # the arguments and the result.

    def _segment(self, call, args, result):
        values = result.values
        key = (values.shape, zlib.crc32(memoryview(np.ascontiguousarray(values)).cast("B")))
        with self._lock:
            self.counters["segment.calls"] += 1
            self.responses[call].add(key)

    def _pooled(self, call, args, result):
        with self._lock:
            self.pooled_sizes.append(int(args[1].shape[0]))

    def _bh(self, call, args, result):
        with self._lock:
            self.counters["bh.kept"] += int(np.count_nonzero(result))
            self.counters["bh.tested"] += int(result.size)

    def _l1(self, call, args, result):
        with self._lock:
            self.counters["l1.calls"] += 1
            self.counters["l1.passed"] += int(bool(result.passed))

    def _run_manifest(self, call, args, result):
        held = sum(r.fused.values.nbytes + r.final_mask.bits.nbytes for r in result.results)
        with self._lock:
            self.held_bytes.append(held)

    def install(self) -> None:
        """Patch segscreen at every lookup site the pipeline uses."""
        import segscreen.fusion as fusion
        import segscreen.gating as gating
        import segscreen.metrics as metrics
        import segscreen.pipeline as pipeline
        import segscreen.segmentor as segmentor
        import segscreen.sgrid as sgrid
        import segscreen.stats as stats

        def patch(owner, attr, name, **kw):
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

        patch(pipeline, "process_case", "pipeline.process_case", case_of=lambda a: a[0])
        patch(pipeline, "run_manifest", "pipeline.run_manifest", ambient=True,
              observe=self._run_manifest)
        patch(pipeline, "build_rois", "geometry.build_rois")
        patch(pipeline, "run_tta", "fusion.run_tta")
        patch(pipeline, "gate_existence", "gating.gate_existence", observe=self._l1)
        patch(gating, "ks_two_sample", "stats.ks_two_sample")
        patch(pipeline, "connected_components", "candidates.connected_components",
              observe=lambda c, a, r: self.count("components", len(r)))
        patch(pipeline, "describe", "candidates.describe")
        patch(pipeline, "two_sample_test", "stats.two_sample_test",
              observe=lambda c, a, r: self.count("tests"))
        patch(pipeline, "bh_fdr", "stats.bh_fdr", observe=self._bh)
        patch(stats, "median_heuristic", "stats.median_heuristic")
        patch(stats, "_pooled_matrix", "stats.pooled_matrix", observe=self._pooled)
        patch(stats, "_fast_permutation_pvalue", "stats.permutation_loop")
        for owner in (pipeline, sgrid):  # read_mask reads through sgrid.read_sgrid
            patch(owner, "read_sgrid", "sgrid.read_sgrid",
                  observe=lambda c, a, r: self.count("read_bytes", os.path.getsize(a[0])))
        patch(sgrid, "write_sgrid", "sgrid.write_sgrid",
              observe=lambda c, a, r: self.count("write_bytes", os.path.getsize(a[0])))
        for cls in (segmentor.FileBackend, segmentor.SyntheticBackend):
            patch(cls, "segment", "segmentor.segment", case_of=lambda a: a[1].image_id,
                  observe=self._segment)
        patch(metrics.MetricsReport, "add_slice", "metrics.add_slice")

        canvas = getattr(fusion, "CanvasAccumulator", None)
        if canvas is not None:
            init = canvas.__init__

            @functools.wraps(init)
            def counted_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                if self.enabled:
                    self.count("canvas_bytes", sum(v.nbytes for v in vars(obj).values()
                                                   if isinstance(v, np.ndarray)))

            canvas.__init__ = counted_init

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the part covered by child spans."""
        children = defaultdict(list)
        for _sid, _name, t0, t1, parent, _case in self.spans:
            children[parent].append((t0, t1))
        out: dict[str, float] = defaultdict(float)
        for sid, name, t0, t1, _parent, _case in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[name] += (t1 - t0) - covered
        return out

    def metrics(self, untraced_rate: float, traced_seconds: float) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for _sid, name, t0, t1, _parent, _case in self.spans:
            totals[name] += t1 - t0
        cases = sum(1 for s in self.spans if s[1] == "pipeline.process_case")
        per = 1.0 / cases if cases else 0.0
        selfs = self.self_times()
        c = self.counters
        out: dict[str, float] = {}
        for name in DURATIONS:
            out[f"{name}.ms"] = totals[name] * 1e3
            out[f"{name}.ms_per_case"] = totals[name] * 1e3 * per
        for name in SELF_TIMES:
            out[f"{name}.self_ms"] = selfs[name] * 1e3
            out[f"{name}.self_ms_per_case"] = selfs[name] * 1e3 * per
        distinct = sum(len(v) for v in self.responses.values())
        traced_rate = cases / traced_seconds if traced_seconds else 0.0
        out.update({
            "stats.two_sample_test.calls": c["tests"],
            "stats.bh_keep_ratio": c["bh.kept"] / c["bh.tested"] if c["bh.tested"] else 0.0,
            "stats.pooled_matrix_mib_max": max((n * n * 8 / MIB for n in self.pooled_sizes),
                                               default=0.0),
            "stats.pooled_size_p50": float(np.median(self.pooled_sizes)) if self.pooled_sizes
            else 0.0,
            "gating.l1_pass_ratio": c["l1.passed"] / c["l1.calls"] if c["l1.calls"] else 0.0,
            "segmentor.segment.calls_per_case": c["segment.calls"] * per,
            "segmentor.segment.distinct_ratio": distinct / c["segment.calls"]
            if c["segment.calls"] else 0.0,
            "fusion.canvas_mib_per_case": c["canvas_bytes"] / MIB * per,
            "candidates.components_per_case": c["components"] * per,
            "candidates.tested_per_case": c["tests"] * per,
            "sgrid.read_mib": c["read_bytes"] / MIB,
            "sgrid.read_mib_per_case": c["read_bytes"] / MIB * per,
            "sgrid.write_mib": c["write_bytes"] / MIB,
            "sgrid.write_mib_per_case": c["write_bytes"] / MIB * per,
            "pipeline.held_result_mib": max(self.held_bytes, default=0) / MIB,
            "trace.cases": float(cases),
            "trace.spans": float(len(self.spans)),
            "trace.cases_per_s": traced_rate,
            "trace.untraced_cases_per_s": untraced_rate,
            "trace.overhead_ratio": untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
        })
        return out

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "case")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
