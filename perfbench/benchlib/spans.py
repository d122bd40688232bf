"""In-memory spans recorded around calls into the program, and the self-time
arithmetic over them.

A span has a name, a start, an end and the id of the span that was open
when it began (its parent).  Spans of one command share a ``trace`` id.
They are kept in memory and written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, IO, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    trace: int
    name: str
    start: float
    end: float = float("nan")
    attrs: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records properly nested spans from a single thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self._traces = 0
        self._open: List[int] = []
        self._clock = clock

    def open(self, name: str, attrs: Optional[Dict[str, int]] = None) -> Span:
        """Start a span; a span opened with none open starts a new trace."""
        if self._open:
            parent = self._open[-1]
            trace = self.spans[parent].trace
        else:
            parent, trace = None, self._traces
            self._traces += 1
        span = Span(len(self.spans), parent, trace, name, self._clock(),
                    attrs=attrs or {})
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        if self._open.pop() != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable[..., Dict[str, int]]] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``;
        ``attrs`` computes the span's attributes from the call's arguments."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def write_jsonl(self, fh: IO[str], **extra) -> None:
        for span in self.spans:
            fh.write(json.dumps({**extra, **asdict(span)}) + "\n")


def covered(lo: float, hi: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of [lo, hi] that the union of the intervals covers."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children[s.id])
            for s in spans}
