"""In-memory span recorder for the traced benchmark run.

``install`` wraps public functions of each ``eclat`` module and installs each
wrapper under the name its caller looks up (``eclat.basis.gram_report`` for
the call inside ``build_minimal_basis``, ``eclat.lattice.det_bareiss`` for the
call inside ``gram_report``, and so on). A timed wrapper records a span
(name, start, end, parent); a count-only wrapper just counts calls, and its
time stays in the parent's self time. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import Counter

PER_LAYER = [
    # (metric, unit); ".s" is inclusive span time, ".self_s" that time minus
    # direct child spans, every other value is an exact count
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("groups.elements.calls", "count"),
    ("curves.points.s", "s"),
    ("curves.points.count", "count"),
    ("curves.group_structure.s", "s"),
    ("curves.group_structure.self_s", "s"),
    ("curves.point_order.calls", "count"),
    ("curves.point_order.s", "s"),
    ("lattice.contains.calls", "count"),
    ("lattice.gram_matrix.s", "s"),
    ("lattice.gram_matrix.entries", "count"),
    ("lattice.gram_report.s", "s"),
    ("lattice.minimal_vectors.s", "s"),
    ("lattice.minimal_vectors.count", "count"),
    ("lattice.minimal_vectors.peak_mb", "MB"),
    ("lattice.svp_oracle.s", "s"),
    ("lattice.svp_oracle.count", "count"),
    ("basis.build_minimal_basis.s", "s"),
    ("basis.build_minimal_basis.self_s", "s"),
    ("basis.verify_basis.s", "s"),
    ("basis.verify_basis.self_s", "s"),
    ("exact.det_bareiss.s", "s"),
    ("exact.det_bareiss.calls", "count"),
    ("exact.det_bareiss.ops", "count"),
    ("exact.factorize.calls", "count"),
    ("geometry.sampled_covering_check.s", "s"),
    ("geometry.cvp.s", "s"),
    ("geometry.cvp.calls", "count"),
    ("geometry.mh_window_scan.s", "s"),
    ("trace.overhead_s", "s"),
]


def _bareiss_ops(args, result) -> int:
    # inner updates of fraction-free elimination on an n x n matrix, computed
    # from n: sum over k of (n - 1 - k)^2 = (n - 1) n (2n - 1) / 6
    n = len(args[0])
    return (n - 1) * n * (2 * n - 1) // 6


class Recorder:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name: str, *, timed: bool = True, count=None, memory: bool = False):
        """A wrapper of fn that counts its calls and, when timed, records a span.

        ``count = (metric, fn)`` adds ``fn(args, result)`` to that counter;
        ``memory`` records the call's tracemalloc peak in megabytes.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[name + ".calls"] += 1
            if not timed:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            if memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()
                if memory:
                    rec.peaks[name] = max(rec.peaks.get(name, 0.0), tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
            if count is not None:
                rec.counts[count[0]] += count[1](args, result)
            return result

        return wrapper

    def install(self):
        """Install the wrappers; returns a function that restores the originals.

        A recorder made with ``memory`` wraps only ``Lattice.minimal_vectors``,
        and each call records its tracemalloc peak. tracemalloc slows every
        allocation, so the peak is taken in a pass of its own, apart from the
        timed spans.
        """
        from eclat import basis, cli, curves, geometry, groups, lattice

        def by_len(args, result):
            return len(result)

        def squared(args, result):
            return len(args[0]) ** 2

        targets = [
            (cli, "main", "cli.main", {}),
            (groups.AbelianGroup, "elements", "groups.elements", {"timed": False}),
            (curves.Curve, "points", "curves.points", {"count": ("curves.points.count", by_len)}),
            (curves, "group_structure", "curves.group_structure", {}),
            (curves, "point_order", "curves.point_order", {}),
            (curves, "factorize", "exact.factorize", {"timed": False}),
            (lattice.Lattice, "contains", "lattice.contains", {"timed": False}),
            (lattice.Lattice, "minimal_vectors", "lattice.minimal_vectors", {"count": ("lattice.minimal_vectors.count", by_len)}),
            (lattice.Lattice, "svp_oracle", "lattice.svp_oracle", {"count": ("lattice.svp_oracle.count", by_len)}),
            (lattice, "gram_matrix", "lattice.gram_matrix", {"count": ("lattice.gram_matrix.entries", squared)}),
            (lattice, "det_bareiss", "exact.det_bareiss", {"count": ("exact.det_bareiss.ops", _bareiss_ops)}),
            (basis, "gram_report", "lattice.gram_report", {}),
            (basis, "build_minimal_basis", "basis.build_minimal_basis", {}),
            (basis, "verify_basis", "basis.verify_basis", {}),
            (geometry, "sampled_covering_check", "geometry.sampled_covering_check", {}),
            (geometry, "cvp", "geometry.cvp", {}),
            (geometry, "mh_window_scan", "geometry.mh_window_scan", {}),
        ]
        if self.memory:
            targets = [(lattice.Lattice, "minimal_vectors", "lattice.minimal_vectors", {"memory": True})]
        saved = []
        for owner, attr, name, opts in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, **opts))

        def restore() -> None:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counters, without
        trace.overhead_s and lattice.minimal_vectors.peak_mb, which come from
        passes of their own."""
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            inclusive[name] += end - start
            self_time[name] += end - start - children
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = inclusive[layer]
            elif kind == "self_s":
                out[metric] = self_time[layer]
            elif kind != "peak_mb" and metric != "trace.overhead_s":
                out[metric] = self.counts[metric]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
