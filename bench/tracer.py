"""In-memory span tracer for the hymoe benchmark.

Spans are recorded from the benchmark's own files only: ``Tracer.install``
replaces a function under the name its caller looks it up by (for example
``hymoe.hybrid.attention`` or ``hymoe.training.backward``) with a wrapper that
opens a span, calls the original and closes the span. ``uninstall`` puts the
originals back, so an untraced operation runs the unmodified code.

Each span is ``(name, start_ns, end_ns, parent, step)``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``step`` the id of the
benchmark operation it belongs to. Self time is a span's duration minus the
time covered by its direct children. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from statistics import median


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.step = -1
        self.phase: dict[int, str] = {}  # step id -> "setup" | "measure"
        self.counts: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.loss_roots: list | None = None  # collects eval losses for tape counting
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- steps and spans -------------------------------------------------

    def begin_step(self, phase: str) -> int:
        self.step = len(self.phase)
        self.phase[self.step] = phase
        return self.step

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), None, parent, self.step))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, _, parent, step = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, step)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append((self.step, float(value)))

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before(tracer, args)`` / ``after(tracer, args, result)``
        run outside it, under a ``trace.count`` span so they do not inflate self times."""

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                idx = self.open("trace.count")
                try:
                    after(self, args, result)
                finally:
                    self.close(idx)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """``targets``: (module, attribute, span name, before, after) tuples."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, before, after in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, before, after))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- aggregation ------------------------------------------------------

    def durations(self) -> list[tuple[str, int, float, float]]:
        """(name, step, duration_ns, self_ns) for every closed span."""
        child_ns = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out = []
        for i, span in enumerate(self.spans):
            dur = span[2] - span[1]
            out.append((span[0], span[4], dur, dur - child_ns[i]))
        return out

    def per_step(self, name: str, self_time: bool = False) -> list[float]:
        """Summed span time (ns) per step, from measured steps if the span occurs
        in any, otherwise from set-up steps."""
        sums: dict[int, float] = defaultdict(float)
        for span_name, step, dur, own in self.durations():
            if span_name == name:
                sums[step] += own if self_time else dur
        return self._prefer_measured(sums)

    def count_values(self, name: str) -> list[float]:
        """Every recorded value, measured steps preferred."""
        measured = [v for s, v in self.counts[name] if self.phase.get(s) == "measure"]
        return measured or [v for _, v in self.counts[name]]

    def _count_sums(self, name: str) -> dict[int, float]:
        sums: dict[int, float] = defaultdict(float)
        for step, value in self.counts[name]:
            sums[step] += value
        return sums

    def per_step_counts(self, name: str) -> list[float]:
        """Recorded values summed per step, measured steps preferred."""
        return self._prefer_measured(self._count_sums(name))

    def per_step_ratios(self, num: str, den: str) -> list[float]:
        """Per step, sum of ``num`` over sum of ``den``; measured steps preferred."""
        nums, dens = self._count_sums(num), self._count_sums(den)
        return self._prefer_measured({s: nums[s] / d for s, d in dens.items() if d})

    def _prefer_measured(self, sums: dict[int, float]) -> list[float]:
        measured = [v for s, v in sums.items() if self.phase.get(s) == "measure"]
        return measured or list(sums.values())

    def summary(self) -> dict[str, dict]:
        """Per span name and phase: calls, total and self milliseconds."""
        table: dict[str, dict] = {}
        for name, step, dur, own in self.durations():
            key = f"{self.phase.get(step, 'none')}:{name}"
            row = table.setdefault(key, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += dur / 1e6
            row["self_ms"] += own / 1e6
        return dict(sorted(table.items()))

    def export(self) -> dict:
        fields = ("name", "start_ns", "end_ns", "parent", "step")
        return {
            "fields": list(fields),
            "spans": [list(s) for s in self.spans],
            "phase": {str(k): v for k, v in self.phase.items()},
        }


def median_or_zero(values: list[float]) -> float:
    return float(median(values)) if values else 0.0


def reachable_nodes(roots) -> int:
    """Number of tape nodes reachable from ``roots`` through their parents."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)
