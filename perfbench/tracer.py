"""In-memory span tracer installed from outside the traced program.

The tracer replaces named functions with wrappers that record one span per
call: name, start, end and the index of the enclosing span. Nothing inside
the traced program changes; callers that look a function up through its
module (or through a dict such as a command table) reach the wrapper. A
name bound elsewhere by ``from module import name`` has its own binding and
must be wrapped there separately.

A span's self time is its duration minus the durations of its direct child
spans. The program is single-threaded and calls nest, so children never
overlap and the self times of all spans partition the time covered by the
root spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    """Records spans for wrapped functions and counts named quantities.

    ``wrap`` installs a wrapper; ``restore`` puts every original back.
    A name that the target does not have is listed in ``absent`` instead of
    raising, so a benchmark keeps running after the program renames or
    deletes a function.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # one entry per call: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installing wrappers ------------------------------------------------

    def wrap(self, owner, key: str, name: str, on_return=None) -> bool:
        """Wrap ``owner.key`` (or ``owner[key]`` when owner is a dict).

        ``on_return(tracer, args, kwargs, result)`` runs after the span has
        ended, for counting work; an exception it raises is recorded in
        ``hook_errors`` (for example after a signature change) instead of
        propagating. Returns False and records ``name`` as
        absent when the target does not exist.
        """
        is_mapping = isinstance(owner, dict)
        if is_mapping:
            original = owner.get(key)
        else:
            original = getattr(owner, key, None)
        if not callable(original):
            self.absent.append(name)
            return False
        wrapper = self._make_wrapper(original, name, on_return)
        if is_mapping:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original, is_mapping))
        return True

    def restore(self) -> None:
        """Put back every wrapped original, newest first."""
        while self._patches:
            owner, key, original, is_mapping = self._patches.pop()
            if is_mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _make_wrapper(self, fn, name, on_return):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                try:
                    on_return(self, args, kwargs, result)
                except Exception as exc:  # a counting hook must not stop the traced program
                    self.hook_errors[name] = repr(exc)
            return result

        return traced

    # -- counting -----------------------------------------------------------

    def count(self, key: str, amount=1) -> None:
        self.counts[key] += amount

    def track_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open (for on_return hooks,
        the span that just ended is already closed)."""
        return any(self.spans[i][0] == name for i in self._stack)

    def current_root(self) -> str | None:
        """Name of the outermost open span, or None outside any span."""
        return self.spans[self._stack[0]][0] if self._stack else None

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time, aligned with ``spans``."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def root_total(self) -> float:
        """Wall time covered by root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def summary(self) -> dict[str, dict]:
        """Per name: calls, total (inclusive) seconds, self seconds and the
        list of per-call durations."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            entry["durations"].append(end - start)
        return dict(out)

    def self_by_root(self) -> dict[tuple[str, str], float]:
        """Self seconds keyed by (root span name, span name)."""
        roots: list[str] = []
        out: dict[tuple[str, str], float] = defaultdict(float)
        for (name, _, _, parent), own in zip(self.spans, self.self_times()):
            root = name if parent < 0 else roots[parent]
            roots.append(root)
            out[(root, name)] += own
        return dict(out)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a nonempty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - int(max(1, -(-n * q // 100)))
