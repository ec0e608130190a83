"""In-memory span recorder, Chrome-trace export and self-time table.

Spans are recorded from the benchmark's own files, around the public calls
into each layer of ``repro``; nothing inside ``src/`` is instrumented.  A span
is ``(id, parent id, name, start, end, args)`` on the host clock
(``time.perf_counter``).  Spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the part of that interval
its direct children cover.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager closing one span (kept tiny: it runs inside timings)."""

    __slots__ = ("rec", "span")

    def __init__(self, rec: "Recorder", span: Span):
        self.rec, self.span = rec, span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.rec._stack.pop()


class Recorder:
    """Nested spans on one thread; the innermost open span is the parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, **args: Any) -> _Open:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent, name, 0.0, args=args)
        self.spans.append(s)
        self._stack.append(s.id)
        s.start = time.perf_counter()
        return _Open(self, s)


def self_times(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total time, and self time (total minus the time
    covered by direct children), plus each name's share of all self time."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    table: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += s.duration - child_time.get(s.id, 0.0)
    whole = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["self_share"] = row["self_s"] / whole if whole > 0 else 0.0
    return table


def format_self_times(table: Dict[str, Dict[str, float]]) -> str:
    lines = [f"{'span':<28}{'count':>8}{'total s':>12}{'self s':>12}{'self %':>9}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<28}{row['count']:>8}{row['total_s']:>12.6f}"
            f"{row['self_s']:>12.6f}{100 * row['self_share']:>8.1f}%"
        )
    return "\n".join(lines)


def chrome_trace(spans: Iterable[Span], *, process: str = "perfbench") -> Dict[str, Any]:
    """The spans as Chrome-trace / Perfetto "complete" (``ph: X``) events."""
    spans = list(spans)
    origin = min((s.start for s in spans), default=0.0)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": process}},
    ]
    for s in spans:
        events.append({
            "name": s.name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
            "args": {"id": s.id, "parent": s.parent, **s.args},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans: Iterable[Span], *, process: str = "perfbench") -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(spans, process=process), f)
