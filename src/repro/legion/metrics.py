"""Execution metrics: where the simulated distributed times come from.

Every index-task launch contributes, per processor, a compute time (from
the leaf kernel's :class:`~repro.legion.machine.Work` through the roofline
model) and communication events.  A *step* is one bulk launch; its
simulated duration is the maximum over processors of
``compute + incoming-communication`` plus per-task overheads — the
standard BSP-style bound that determines strong/weak scaling shape.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["CommEvent", "StepMetrics", "ExecutionMetrics"]


@dataclass(frozen=True)
class CommEvent:
    src_proc: int
    dst_proc: int
    nbytes: float
    same_node: bool
    reason: str = ""


@dataclass
class StepMetrics:
    """Metrics for one index launch (one distributed loop execution)."""

    name: str
    compute_seconds: Dict[int, float] = field(default_factory=dict)
    comm_events: List[CommEvent] = field(default_factory=list)
    tasks_launched: int = 0

    def comm_bytes(self) -> float:
        return sum(e.nbytes for e in self.comm_events)

    def comm_seconds_per_proc(self, network) -> Dict[int, float]:
        per: Dict[int, float] = {}
        for e in self.comm_events:
            t = network.transfer_seconds(e.nbytes, same_node=e.same_node)
            # Receiver-side serialization: transfers into one proc queue up.
            per[e.dst_proc] = per.get(e.dst_proc, 0.0) + t
        return per

    def simulated_seconds(self, network) -> float:
        comm = self.comm_seconds_per_proc(network)
        procs = set(self.compute_seconds) | set(comm)
        if not procs:
            return 0.0
        busiest = max(
            self.compute_seconds.get(p, 0.0) + comm.get(p, 0.0) for p in procs
        )
        n_procs = max(len(procs), 1)
        overhead = network.task_overhead * (self.tasks_launched / n_procs)
        return busiest + overhead + network.sync_overhead

    def max_compute(self) -> float:
        return max(self.compute_seconds.values(), default=0.0)

    def load_imbalance(self) -> float:
        """max/mean compute across participating processors (1.0 = perfect)."""
        vals = [v for v in self.compute_seconds.values()]
        if not vals or sum(vals) == 0:
            return 1.0
        return max(vals) / (sum(vals) / len(vals))


@dataclass
class ExecutionMetrics:
    """The steps of one kernel execution, as its launches returned them."""

    steps: List[StepMetrics] = field(default_factory=list)

    def simulated_seconds(self, network) -> float:
        return sum((s.simulated_seconds(network) for s in self.steps), 0.0)

    def total_comm_bytes(self) -> float:
        return sum((s.comm_bytes() for s in self.steps), 0.0)

    def total_tasks(self) -> int:
        return sum(s.tasks_launched for s in self.steps)
