"""The simulated Legion runtime: index task launches over partitioned regions.

Execution is sequential but *logically distributed*: every task runs on the
sub-regions its region requirements name, and the runtime performs the same
bookkeeping Legion's mapper would — tracking which processor memories hold
valid copies of which sub-regions, moving missing data (and charging the
network model for it), applying reduction privileges, and enforcing memory
capacities (GPU OOM → DNC entries in the paper's Fig. 11).

The numerical work itself happens inside the task body on NumPy views; the
task returns a :class:`~repro.legion.machine.Work` record from which the
roofline model derives per-processor compute time.

Mapping-trace replay
--------------------
Legion's *dynamic tracing* memoizes the mapper's decisions for a repeated
launch and replays them, skipping the dependence/mapping analysis.  This
runtime reproduces that amortization: the first ``index_launch`` from a
given residency state records a :class:`MappingTrace` — the per-color
target processor, every communication event the staging and coherence
logic emitted, and a snapshot of the residency state the launch left
behind.  A later launch with the same *launch signature* (name, colors,
region requirements, processor assignment, scratch demands) from the same
residency state replays the trace: the recorded communication events are
re-charged to the network model and the recorded residency table is
installed, but none of the per-color Python subset intersection/subtraction
algebra re-runs.  The computation always executes (values may have
changed) and compute time is derived from the returned :class:`Work`, so
replayed metrics are bit-identical to what a fresh analysis would produce.
How many host calls compute it is not simulated: a replay handed a
*launch thunk* (the compiler passes one for a write-disjoint output whose
generated leaf has one) calls it once and books the per-color ``Work`` it
returns in color order, priced once per trace.  A recording launch
always runs the task bodies one by one, between their staging and
coherence steps.

Residency states are tracked symbolically: ``reset_residency`` (called
between trials) returns to the canonical "homes only" state *without*
dropping traces — this is what makes iterations 2..N of an iterative
solver replay.  Any out-of-band mutation (``place*``) moves to a fresh
unique state, so stale traces can never fire, and ``invalidate_caches``
additionally drops all recorded traces (the hook to use after writing
region data behind the runtime's back).

The tables behind those states are held as shared values.  A recording
launch or copy hands the table it leaves behind to its trace; a replay and
``reset_residency`` *install* a table — the trace's, or the homes-only one
memoised until the next ``place*`` — as the live one without copying it,
so a warm step's bookkeeping does not grow with regions × processors.  A
table some trace or the memo holds is never written: one ownership bit
says whether the live table is such a value, and every writer — a
recording launch, an uncached copy, ``place*`` — takes a private copy
first (:meth:`Runtime._unshare_residency`).  Readers (capacity checks,
``resident_bytes_per_proc``) read whichever table is live.

Explicit copies (the ``communicate``-lowered :meth:`Runtime.copy_subset`)
are traced the same way: the first copy of a given ``(region, subset,
destination)`` from a residency state records its staging decision and
the state it leads to; repeats replay it.  A chain of launches and copies
therefore replays end-to-end, which is what covers the SpAdd assembly
sequence (symbolic launch → scan → fill launch) and TDN-style placement
copies.

Two housekeeping facilities round this out.  ``metrics_limit`` bounds
:attr:`Runtime.metrics` for very long solver loops: between trials the
runtime folds the oldest :class:`~repro.legion.metrics.StepMetrics` into
exact scalar totals (see :meth:`ExecutionMetrics.fold_oldest`), so a 100k
iteration loop holds a bounded step list while ``simulated_seconds`` stays
exact.  And runtimes are *picklable*: :mod:`repro.core.store` persists a
runtime (with its recorded traces, homes and symbolic state — metrics and
hit counters start fresh) next to packed tensors so a new process replays
from its first launch.
"""
from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import OOMError
from .index_space import (
    EMPTY,
    IndexSubset,
    RectSubset,
    intersect_subsets,
    subsets_overlap,
    subtract_subsets,
    union_subsets,
)
from .machine import Machine, Processor, Work
from .metrics import CommEvent, ExecutionMetrics, StepMetrics
from .network import Network
from .partition import Partition
from .region import Region

__all__ = ["Privilege", "RegionReq", "Runtime", "MappingTrace", "TrialMetrics"]

Color = Hashable


class Privilege(Enum):
    READ_ONLY = "ro"
    READ_WRITE = "rw"
    WRITE_DISCARD = "wd"
    REDUCE = "red"


@dataclass
class RegionReq:
    """One region requirement of an index launch.

    ``partition`` maps each launch color to the sub-region that point task
    touches; ``None`` means every task reads the whole region (a broadcast).
    ``streamed`` requirements are communicated in memory-sized rounds and
    never kept resident — the memory-conserving schedule of the paper's
    "SpDISTAL-Batched" SpMM, which trades extra messages for fitting in
    GPU memory.
    """

    region: Region
    partition: Optional[Partition]
    privilege: Privilege = Privilege.READ_ONLY
    streamed: bool = False

    def subset_for(self, color: Color) -> IndexSubset:
        if self.partition is None:
            return self.region.ispace.full_subset()
        return self.partition[color]


def _holds(pieces: Sequence[IndexSubset], subset: IndexSubset) -> bool:
    """Whether ``subset`` is one of ``pieces``: identity first, then
    same-type equality (cross-type equality would materialize rects as
    index arrays)."""
    for p in pieces:
        if p is subset or (type(p) is type(subset) and p == subset):
            return True
    return False


class _Residency:
    """Which subsets of one region are valid in each processor's memory."""

    def __init__(self, by_proc: Optional[Dict[int, List[IndexSubset]]] = None):
        #: Never holds an empty list, so two tables with the same pieces
        #: compare equal whatever launches produced them.
        self.by_proc: Dict[int, List[IndexSubset]] = {} if by_proc is None else by_proc

    def copy(self) -> "_Residency":
        return _Residency({proc: list(pieces) for proc, pieces in self.by_proc.items()})

    def covered_volume(self, proc: int, needed: IndexSubset) -> int:
        pieces = self.by_proc.get(proc, [])
        if not pieces or needed.empty:
            return 0
        overlaps = [intersect_subsets(p, needed) for p in pieces]
        return union_subsets(overlaps).volume

    def missing_subset(self, proc: int, needed: IndexSubset) -> IndexSubset:
        pieces = self.by_proc.get(proc, [])
        if needed.empty:
            return EMPTY
        if not pieces:
            return needed
        covered = union_subsets([intersect_subsets(p, needed) for p in pieces])
        return subtract_subsets(needed, covered)

    def add(self, proc: int, subset: IndexSubset) -> None:
        if subset.empty:
            return
        pieces = self.by_proc.setdefault(proc, [])
        # Skip exact duplicates so steady-state launches leave residency at
        # a fixpoint.
        if not _holds(pieces, subset):
            pieces.append(subset)

    def invalidate_others(self, writer: int, subset: IndexSubset) -> None:
        for proc, pieces in list(self.by_proc.items()):
            if proc == writer or not any(subsets_overlap(p, subset) for p in pieces):
                continue
            kept = [p for p in pieces if not subsets_overlap(p, subset)]
            if kept:
                self.by_proc[proc] = kept
            else:
                del self.by_proc[proc]

    def resident_bytes(self, proc: int, itemsize: int, row_width: int) -> float:
        pieces = self.by_proc.get(proc, [])
        if not pieces:
            return 0.0
        return float(union_subsets(pieces).volume) * itemsize * row_width


@dataclass
class MappingTrace:
    """Memoized staging decisions of one index launch (cf. Legion tracing).

    ``events_per_color`` holds, per launch point, the communication events
    the staging and output-coherence analysis emitted (in order);
    ``residency_after`` is the residency table the launch left behind — a
    shared value a replay installs as the live table and nothing writes;
    ``post_state`` is the symbolic
    state token the runtime transitions to, which lets a *chain* of
    launches replay end-to-end.
    """

    procs: List[int]
    events_per_color: List[Tuple[CommEvent, ...]]
    residency_after: Dict[int, _Residency]
    post_state: Tuple
    #: Strong references to the partitions named in the trace key (one per
    #: region requirement, ``None`` for broadcasts).  Keys embed
    #: ``id(partition)``; pinning the objects keeps those ids unambiguous
    #: for the trace's lifetime (a freed partition's address could
    #: otherwise be recycled by an unrelated one).  Unpickling re-anchors
    #: the keys on the pinned objects' new ids (:meth:`Runtime.__setstate__`).
    pinned: Tuple = ()
    #: ``(works, compute_seconds, events)``: what a one-call replay last
    #: booked, reused while its launch thunk returns that same ``works``
    #: object (it holds ``works``, so the identity cannot be recycled); any
    #: other object is priced afresh.  It spares a replay pricing every
    #: color's Work and extending its events color by color (measured in
    #: docs/codegen.md, "The exactness contract").  Process-local: dropped
    #: on pickling.
    booked: Optional[Tuple] = field(default=None, compare=False, repr=False)

    def __getstate__(self):
        return {**self.__dict__, "booked": None}


@dataclass
class _CopyTrace:
    """Memoized staging decision of one explicit :meth:`Runtime.copy_subset`."""

    events: Tuple[CommEvent, ...]
    residency_after: Dict[int, _Residency]
    post_state: Tuple
    #: ``(region, subset)`` — pins the subset whose ``id`` the key embeds.
    pinned: Tuple = ()


@dataclass
class TrialMetrics:
    """The metrics slice of one :meth:`Runtime.fresh_trial` block.

    ``metrics`` holds exactly the steps launched inside the block (filled
    in when the block exits); :attr:`simulated_seconds` prices them under
    the runtime's own network model.
    """

    runtime: "Runtime"
    metrics: Optional[ExecutionMetrics] = None

    @property
    def simulated_seconds(self) -> float:
        if self.metrics is None:
            raise RuntimeError("the fresh_trial block has not exited yet")
        return self.metrics.simulated_seconds(self.runtime.network)

    @property
    def comm_bytes(self) -> float:
        if self.metrics is None:
            raise RuntimeError("the fresh_trial block has not exited yet")
        return self.metrics.total_comm_bytes()


class Runtime:
    """Launches index tasks over a :class:`Machine` and accounts their cost.

    ``trace_replay`` (default on) enables mapping-trace recording/replay
    for repeated launches; see the module docstring for the protocol.
    """

    def __init__(
        self,
        machine: Machine,
        network: Optional[Network] = None,
        *,
        trace_replay: bool = True,
        metrics_limit: Optional[int] = None,
    ):
        self.machine = machine
        self.network = network if network is not None else Network.legion()
        self.metrics = ExecutionMetrics()
        self.trace_replay = trace_replay
        #: Auto-trim threshold: once ``metrics.steps`` exceeds this between
        #: trials, the oldest steps are folded into exact scalar totals
        #: (see :meth:`trim_metrics`).  ``0`` disables auto-trimming; the
        #: default keeps a 64-processor history (~4 KB a step) near 4 MB.
        self.metrics_limit = 1_000 if metrics_limit is None else metrics_limit
        self.trace_hits = 0
        self.trace_records = 0
        self._residency: Dict[int, _Residency] = {}
        #: The ownership bit: ``_residency`` is also a trace's snapshot or
        #: the homes memo, so whoever writes next copies it first
        #: (:meth:`_unshare_residency`).
        self._residency_shared = False
        #: The homes-only table :meth:`reset_residency` installs, built on
        #: the first reset after a ``place*`` (``_homes_changed`` drops it).
        self._homes_table: Optional[Dict[int, _Residency]] = None
        self._home: Dict[int, List[Tuple[IndexSubset, int]]] = {}
        self._traces: Dict[Tuple, MappingTrace] = {}
        self._copy_traces: Dict[Tuple, _CopyTrace] = {}
        self._homes_version = 0
        self._state_counter = itertools.count(1)
        self._state: Tuple = ("clean", 0)

    def _mark_dirty(self) -> None:
        """Move to a fresh residency state no recorded trace starts from."""
        self._state = ("dirty", next(self._state_counter))

    def _homes_changed(self) -> None:
        """Home placements changed.  From a clean state (residency == homes)
        a ``place*`` keeps residency == homes, so the result is the *new*
        clean state; from any other state the result is unknown."""
        self._homes_version += 1
        self._homes_table = None
        if self._state[0] == "clean":
            self._state = ("clean", self._homes_version)
        else:
            self._mark_dirty()

    # -- data placement -----------------------------------------------------
    def _add_home(self, region: Region, subset: IndexSubset, proc: int) -> None:
        """Record ``subset`` as homed on ``proc`` unless that pair already
        is.  Every kernel placed on this runtime re-declares the homes of
        its operands, and every reset, staging pass and owner lookup walks
        the list; first occurrences keep their order, so owner
        tie-breaking is that of the first placement."""
        homes = self._home.setdefault(region.uid, [])
        if not _holds([s for s, p in homes if p == proc], subset):
            homes.append((subset, proc))

    def place(
        self,
        region: Region,
        partition: Partition,
        proc_map: Optional[Callable[[Color], int]] = None,
    ) -> None:
        """Declare the initial distribution of a region (its home placement)."""
        self._unshare_residency()
        res = self._residency.setdefault(region.uid, _Residency())
        for i, (color, subset) in enumerate(partition.items()):
            proc = proc_map(color) if proc_map else self._default_proc(color, i)
            res.add(proc, subset)
            self._add_home(region, subset, proc)
        self._homes_changed()
        self._check_capacity_all(region)

    def place_replicated(self, region: Region) -> None:
        """Place a full valid copy of the region on every processor."""
        self._unshare_residency()
        res = self._residency.setdefault(region.uid, _Residency())
        full = region.ispace.full_subset()
        for p in range(self.machine.size):
            res.add(p, full)
            self._add_home(region, full, p)
        self._homes_changed()
        self._check_capacity_all(region)

    def place_on(self, region: Region, proc: int) -> None:
        """Place the whole region on a single processor."""
        self._unshare_residency()
        res = self._residency.setdefault(region.uid, _Residency())
        full = region.ispace.full_subset()
        res.add(proc, full)
        self._add_home(region, full, proc)
        self._homes_changed()

    def _default_proc(self, color: Color, ordinal: int) -> int:
        if isinstance(color, (int, np.integer, tuple)):
            return self.machine.proc_of_color(color)
        return ordinal % self.machine.size

    def _owner_of(self, region: Region, needed: IndexSubset, requester: int) -> int:
        homes = self._home.get(region.uid, [])
        best, best_overlap = 0, -1
        for subset, proc in homes:
            ov = intersect_subsets(subset, needed).volume
            if ov > best_overlap:
                best, best_overlap = proc, ov
        return best

    # -- launches -------------------------------------------------------------
    def index_launch(
        self,
        name: str,
        colors: Sequence[Color],
        task: Callable[[Color], Union[Work, Tuple[Work, float]]],
        reqs: Sequence[RegionReq] = (),
        *,
        proc_map: Optional[Callable[[Color], int]] = None,
        scratch_bytes: Optional[Callable[[Color], float]] = None,
        launch: Optional[Callable[[], Sequence[Work]]] = None,
    ) -> StepMetrics:
        """Launch one task per color; returns per-step metrics.

        For every color the runtime (1) resolves each region requirement to a
        sub-region, (2) moves any part not valid in the target memory,
        charging the alpha-beta model, (3) runs the task body and converts its
        returned :class:`Work` to seconds, and (4) applies write/reduction
        coherence.  Reduction requirements additionally charge the cost of
        sending each non-owner's partial back to the sub-region's home.

        When ``trace_replay`` is enabled and an identical launch already ran
        from the current residency state, steps (1), (2) and (4) are
        replayed from the recorded :class:`MappingTrace` instead of
        re-running the subset algebra; step (3) always executes — as one
        ``launch()`` call when the caller passes ``launch``, a thunk that
        runs every color's task at once and returns their :class:`Work` in
        color order (the caller vouches that doing so computes exactly what
        the tasks would).  A ``launch`` that returns the same sequence
        object on every call is priced once per trace
        (:attr:`MappingTrace.booked`).  A recording launch always runs the
        tasks one by one, interleaved with their staging.
        """
        procs = [
            proc_map(color) if proc_map else self._default_proc(color, ordinal)
            for ordinal, color in enumerate(colors)
        ]
        trace_key = None
        if not self.trace_replay:
            # Untracked launches still mutate residency: advance the state so
            # a later re-enable of trace_replay cannot record from (and then
            # replay against) a state token that no longer matches reality.
            self._mark_dirty()
        else:
            trace_key = (
                self._state,
                name,
                tuple(colors),
                tuple(
                    (
                        req.region.uid,
                        id(req.partition) if req.partition is not None else None,
                        req.privilege.value,
                        req.streamed,
                    )
                    for req in reqs
                ),
                tuple(procs),
                tuple(scratch_bytes(c) for c in colors) if scratch_bytes else None,
            )
            trace = self._traces.get(trace_key)
            if trace is not None:
                return self._replay_launch(name, colors, task, trace, launch)

        step = self.metrics.new_step(name)
        events_per_color: List[Tuple[CommEvent, ...]] = []
        before = self._unshare_residency(keep=trace_key is not None)
        try:
            for ordinal, color in enumerate(colors):
                proc = procs[ordinal]
                mark = len(step.comm_events)
                self._stage_inputs(step, color, proc, reqs)
                if scratch_bytes is not None:
                    self._check_scratch(proc, scratch_bytes(color), reqs, color)
                result = task(color)
                work = result[0] if isinstance(result, tuple) else result
                step.add_compute(proc, self.machine.proc(proc).seconds_for(work))
                step.tasks_launched += 1
                self._apply_outputs(step, color, proc, reqs)
                events_per_color.append(tuple(step.comm_events[mark:]))
        except BaseException:
            # A partial launch (e.g. OOM) leaves an unknown residency state.
            self._mark_dirty()
            raise
        if trace_key is not None:
            after = self._residency
            self._residency_shared = True  # the trace holds it from here on
            if self._snapshots_equal(before, after):
                # The launch left residency unchanged (a steady-state loop
                # with resident data): self-loop so the next identical
                # launch replays instead of recording forever.
                post_state = self._state
            else:
                post_state = ("post", next(self._state_counter))
            if len(self._traces) >= 512:  # runaway-recording backstop
                self._traces.clear()
            self._traces[trace_key] = MappingTrace(
                procs=procs,
                events_per_color=events_per_color,
                residency_after=after,
                post_state=post_state,
                pinned=tuple(req.partition for req in reqs),
            )
            self._state = post_state
            self.trace_records += 1
        return step

    def _replay_launch(
        self,
        name: str,
        colors: Sequence[Color],
        task: Callable[[Color], Union[Work, Tuple[Work, float]]],
        trace: MappingTrace,
        launch: Optional[Callable[[], Sequence[Work]]] = None,
    ) -> StepMetrics:
        """Re-charge a recorded launch's communication and run the tasks."""
        step = self.metrics.new_step(name)
        if launch is None:
            for ordinal, color in enumerate(colors):
                proc = trace.procs[ordinal]
                step.comm_events.extend(trace.events_per_color[ordinal])
                result = task(color)
                work = result[0] if isinstance(result, tuple) else result
                step.add_compute(proc, self.machine.proc(proc).seconds_for(work))
                step.tasks_launched += 1
        else:
            works = launch()
            booked = trace.booked
            if booked is None or booked[0] is not works:
                # A bound launch returns the Work frozen at bind — the same
                # object every call — so it is priced once, in color order
                # as the per-task loop adds it.
                priced = StepMetrics(name)
                for proc, work in zip(trace.procs, works):
                    priced.add_compute(proc, self.machine.proc(proc).seconds_for(work))
                events = [e for per_color in trace.events_per_color for e in per_color]
                booked = trace.booked = (works, priced.compute_seconds, events)
            step.compute_seconds.update(booked[1])
            step.comm_events.extend(booked[2])
            step.tasks_launched = len(works)
        self._restore_residency(trace.residency_after)
        self._state = trace.post_state
        self.trace_hits += 1
        return step

    @staticmethod
    def _snapshots_equal(a, b) -> bool:
        """Structural equality of two residency snapshots (identity-first
        element compare; cross-type subset equality is never attempted)."""
        if a.keys() != b.keys():
            return False
        for uid, res_a in a.items():
            procs_b = b[uid].by_proc
            if res_a.by_proc.keys() != procs_b.keys():
                return False
            for proc, la in res_a.by_proc.items():
                lb = procs_b[proc]
                if len(la) != len(lb):
                    return False
                for x, y in zip(la, lb):
                    if x is not y and not (type(x) is type(y) and x == y):
                        return False
        return True

    def _restore_residency(self, snapshot: Dict[int, _Residency]) -> None:
        """Install a recorded table as the live one.  It stays the
        recorder's, so it is marked shared and never written."""
        self._residency = snapshot
        self._residency_shared = True

    def _unshare_residency(self, keep: bool = False) -> Dict[int, _Residency]:
        """Called before any write to the live table; returns the table as
        it stood.  A shared table (a trace's snapshot, the homes memo) is
        left as it is and the writer gets a private copy; ``keep`` does the
        same for a private one, so the caller may hold on to the returned
        table as the "before" value of the write."""
        before = self._residency
        if keep or self._residency_shared:
            self._residency = {uid: res.copy() for uid, res in before.items()}
            self._residency_shared = False
        return before

    # -- staging ---------------------------------------------------------------
    def _stage_inputs(
        self, step: StepMetrics, color: Color, proc: int, reqs: Sequence[RegionReq]
    ) -> None:
        for req in reqs:
            if req.privilege not in (Privilege.READ_ONLY, Privilege.READ_WRITE):
                continue
            needed = req.subset_for(color)
            if needed.empty:
                continue
            res = self._residency.setdefault(req.region.uid, _Residency())
            if req.streamed:
                # Stream in rounds sized to a fraction of device memory;
                # nothing stays resident, so the full volume is re-sent on
                # every trial (extra messages vs a one-shot gather).
                nbytes = (
                    needed.volume
                    * req.region.data.dtype.itemsize
                    * req.region._row_width()
                )
                chunk = 0.2 * self.machine.proc(proc).mem_bytes
                rounds = max(1, int(np.ceil(nbytes / max(chunk, 1.0))))
                src = self._owner_of(req.region, needed, proc)
                for _ in range(rounds):
                    step.comm_events.append(
                        _comm(src, proc, nbytes / rounds, self.machine,
                              f"stream {req.region.name}")
                    )
                continue
            missing = res.missing_subset(proc, needed)
            if not missing.empty:
                itembytes = req.region.data.dtype.itemsize * req.region._row_width()
                remaining = missing
                homes = self._home.get(req.region.uid, [])
                for subset, home_proc in homes:
                    if home_proc == proc or remaining.empty:
                        continue
                    got = intersect_subsets(subset, remaining)
                    if got.empty:
                        continue
                    step.comm_events.append(
                        _comm(home_proc, proc, got.volume * itembytes,
                              self.machine, f"stage {req.region.name}")
                    )
                    remaining = subtract_subsets(remaining, got)
                if not remaining.empty and homes:
                    # No registered home covers it (e.g. freshly written
                    # data) — pull from the best-overlap owner.
                    src = self._owner_of(req.region, needed, proc)
                    if src != proc:
                        step.comm_events.append(
                            _comm(src, proc, remaining.volume * itembytes,
                                  self.machine, f"stage {req.region.name}")
                        )
                res.add(proc, needed)
                self._check_capacity(req.region, proc)

    def _apply_outputs(
        self, step: StepMetrics, color: Color, proc: int, reqs: Sequence[RegionReq]
    ) -> None:
        for req in reqs:
            needed = req.subset_for(color)
            if needed.empty:
                continue
            res = self._residency.setdefault(req.region.uid, _Residency())
            if req.privilege in (Privilege.WRITE_DISCARD, Privilege.READ_WRITE):
                res.invalidate_others(proc, needed)
                res.add(proc, needed)
            elif req.privilege == Privilege.REDUCE:
                # Only the part of this piece's contribution that aliases
                # sub-regions homed on *other* processors crosses the network
                # (Legion applies reductions where the data lives; interior
                # rows of a non-zero split never move).
                homes = self._home.get(req.region.uid, [])
                sent: Dict[int, float] = {}
                for subset, home_proc in homes:
                    if home_proc == proc:
                        continue
                    overlap = intersect_subsets(subset, needed)
                    if overlap.empty:
                        continue
                    nbytes = (
                        overlap.volume
                        * req.region.data.dtype.itemsize
                        * req.region._row_width()
                    )
                    sent[home_proc] = max(sent.get(home_proc, 0.0), nbytes)
                for home_proc, nbytes in sent.items():
                    step.comm_events.append(
                        _comm(
                            proc, home_proc, nbytes, self.machine,
                            f"reduce {req.region.name}",
                        )
                    )

    # -- explicit copies (the `communicate` command lowers to these) -----------
    def copy_subset(
        self,
        step: StepMetrics,
        region: Region,
        subset: IndexSubset,
        dst_proc: int,
        *,
        reason: str = "copy",
    ) -> None:
        """Stage ``subset`` of ``region`` into ``dst_proc``'s memory.

        Traced like a launch when ``trace_replay`` is on: the first copy of
        a given ``(region, subset, destination)`` from the current
        residency state records its communication and the state it leads
        to; a repeat replays both, so copy sequences chain with launches
        into end-to-end replayed iterations.  With replay disabled the copy
        moves to a fresh unique state (no stale trace can fire afterwards).
        """
        if subset.empty:
            return
        if not self.trace_replay:
            self._copy_uncached(step, region, subset, dst_proc, reason)
            self._mark_dirty()
            return
        key = (self._state, region.uid, _subset_sig(subset), dst_proc)
        trace = self._copy_traces.get(key)
        if trace is not None:
            step.comm_events.extend(trace.events)
            self._restore_residency(trace.residency_after)
            self._state = trace.post_state
            self.trace_hits += 1
            return
        before = self._unshare_residency(keep=True)
        mark = len(step.comm_events)
        try:
            self._copy_uncached(step, region, subset, dst_proc, reason)
        except BaseException:
            self._mark_dirty()  # partial copy (e.g. OOM): unknown residency
            raise
        after = self._residency
        self._residency_shared = True  # the trace holds it from here on
        if self._snapshots_equal(before, after):
            post_state = self._state  # already covered: a self-loop
        else:
            post_state = ("post", next(self._state_counter))
        if len(self._copy_traces) >= 512:  # runaway-recording backstop
            self._copy_traces.clear()
        self._copy_traces[key] = _CopyTrace(
            events=tuple(step.comm_events[mark:]),
            residency_after=after,
            post_state=post_state,
            pinned=(region, subset),
        )
        self._state = post_state
        self.trace_records += 1

    def _copy_uncached(
        self,
        step: StepMetrics,
        region: Region,
        subset: IndexSubset,
        dst_proc: int,
        reason: str,
    ) -> None:
        self._unshare_residency()
        res = self._residency.setdefault(region.uid, _Residency())
        covered = res.covered_volume(dst_proc, subset)
        missing = subset.volume - covered
        if missing <= 0:
            return
        src = self._owner_of(region, subset, dst_proc)
        nbytes = missing * region.data.dtype.itemsize * region._row_width()
        step.comm_events.append(_comm(src, dst_proc, nbytes, self.machine, reason))
        res.add(dst_proc, subset)
        self._check_capacity(region, dst_proc)

    # -- capacity ---------------------------------------------------------------
    def _check_capacity(self, region: Region, proc: int) -> None:
        p = self.machine.proc(proc)
        total = 0.0
        for uid, res in self._residency.items():
            pieces = res.by_proc.get(proc)
            if pieces:
                total += sum(s.volume for s in pieces) * 8.0  # approx itemsize
        if total > p.mem_bytes:
            raise OOMError(proc, total, p.mem_bytes, what=f"staging {region.name}")

    def _check_capacity_all(self, region: Region) -> None:
        for proc in {pr for res in self._residency.values() for pr in res.by_proc}:
            self._check_capacity(region, proc)

    def resident_bytes_per_proc(self) -> Dict[int, float]:
        """Resident bytes per processor, under the capacity model's
        accounting (8 bytes per resident element, summed over every
        region's residency pieces — exactly what :meth:`_check_capacity`
        charges against ``mem_bytes``).  Procs with nothing resident are
        omitted.  This is the footprint the static communication planner
        (:mod:`repro.analysis.commplan`) predicts, so both sides of the
        differential oracle read the same definition.
        """
        out: Dict[int, float] = {}
        for res in self._residency.values():
            for proc, pieces in res.by_proc.items():
                if pieces:
                    out[proc] = (
                        out.get(proc, 0.0)
                        + sum(s.volume for s in pieces) * 8.0
                    )
        return out

    def _check_scratch(
        self, proc: int, scratch: float, reqs: Sequence[RegionReq], color: Color
    ) -> None:
        p = self.machine.proc(proc)
        resident = sum(
            req.subset_for(color).volume
            * req.region.data.dtype.itemsize
            * req.region._row_width()
            for req in reqs
        )
        if resident + scratch > p.mem_bytes:
            raise OOMError(proc, resident + scratch, p.mem_bytes, what="task scratch")

    # -- cache control --------------------------------------------------------
    def reset_residency(self) -> None:
        """Drop every staged copy, keeping only home placements.

        Called between timed trials: data that was *distributed* stays put,
        but copies created by staging (broadcasts, halo pulls) are dropped so
        each trial pays the communication its algorithm inherently performs.
        Recorded mapping traces are kept — they were recorded from exactly
        this "homes only" state, so repeat trials replay them.  The
        homes-only table is built once per set of homes and installed as a
        shared value, so a warm reset costs the same on 4 or 64 processors.

        Also the auto-trim point for long loops: once ``metrics.steps``
        exceeds ``metrics_limit``, the oldest steps are folded into exact
        scalar totals (:meth:`trim_metrics`).  Trimming happens only here,
        between trials, so per-trial step slices taken by callers (e.g.
        :meth:`CompiledKernel.execute`) never shift mid-trial.
        """
        if self.metrics_limit and len(self.metrics.steps) > self.metrics_limit:
            self.trim_metrics()
        if self._homes_table is None:
            self._homes_table = {uid: _Residency() for uid in self._home}
            for uid, homes in self._home.items():
                for subset, proc in homes:
                    self._homes_table[uid].add(proc, subset)
        self._restore_residency(self._homes_table)
        self._state = ("clean", self._homes_version)

    def trim_metrics(self, keep: Optional[int] = None) -> int:
        """Fold all but the newest ``keep`` steps into exact scalar totals.

        ``keep`` defaults to half of ``metrics_limit`` so trims amortize
        (each trim buys another ``metrics_limit / 2`` trials of headroom).
        Totals are preserved for this runtime's network; per-step detail of
        the folded prefix is lost.  Returns the number of steps folded.
        """
        if keep is None:
            keep = (self.metrics_limit or 0) // 2
        return self.metrics.fold_oldest(
            len(self.metrics.steps) - keep, self.network
        )

    @contextlib.contextmanager
    def fresh_trial(self):
        """One isolated timed trial over this runtime.

        Residency returns to the canonical "homes only" state on entry
        (recorded traces are kept — :meth:`reset_residency` — so repeat
        trials replay), and the :class:`TrialMetrics` yielded exposes
        exactly the steps the body launched once the block exits.  This is
        the per-candidate isolation ``Session.autotune`` times strategies
        with: every trial of every candidate starts from the same residency
        state and is charged only its own launches, so candidate costs are
        comparable and deterministic.
        """
        self.reset_residency()
        start = len(self.metrics.steps)
        trial = TrialMetrics(runtime=self)
        try:
            yield trial
        finally:
            trial.metrics = ExecutionMetrics(steps=list(self.metrics.steps[start:]))

    def invalidate_caches(self) -> None:
        """Reset residency to home placements AND drop all mapping traces.

        The conservative hook for out-of-band changes (region data written
        behind the runtime's back, external repartitioning): replaying a
        trace recorded before such a change could reuse stale residency, so
        every trace (launch and copy) is dropped and the next launches
        re-record.
        """
        self._traces.clear()
        self._copy_traces.clear()
        self.reset_residency()

    # -- results ------------------------------------------------------------------
    def simulated_seconds(self) -> float:
        return self.metrics.simulated_seconds(self.network)

    def stats(self) -> Dict[str, int]:
        """Mapping-trace amortization counters for this runtime.

        ``trace_hits``/``trace_records`` count launch-trace replays vs
        fresh recordings; ``traces``/``copy_traces`` are the live trace
        counts.  :meth:`repro.api.session.Session.stats` folds these into
        the session-wide amortization report next to the compiler caches.
        """
        return {
            "trace_hits": self.trace_hits,
            "trace_records": self.trace_records,
            "traces": len(self._traces),
            "copy_traces": len(self._copy_traces),
        }

    def reset_metrics(self) -> ExecutionMetrics:
        out = self.metrics
        self.metrics = ExecutionMetrics()
        return out

    # -- persistence (repro.core.store) ---------------------------------------
    def __getstate__(self):
        """Pickle the runtime's *replayable* state: homes, residency,
        symbolic state and recorded traces.  Metrics and hit counters start
        fresh in the loading process — a warm-started run measures its own
        executions, not the saving process's history."""
        state = self.__dict__.copy()
        state["metrics"] = ExecutionMetrics()
        state["trace_hits"] = 0
        state["trace_records"] = 0
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Trace keys embed id()s of partitions/subsets from the saving
        # process; re-anchor them on the unpickled objects (pinned in each
        # trace).  Region uids are stable instance attributes and survive
        # pickling unchanged.
        self._traces = self._rekeyed_traces(self._traces)
        self._copy_traces = self._rekeyed_copy_traces(self._copy_traces)

    @staticmethod
    def _rekeyed_traces(traces: Dict[Tuple, MappingTrace]) -> Dict[Tuple, MappingTrace]:
        out: Dict[Tuple, MappingTrace] = {}
        for key, trace in traces.items():
            st, name, colors, reqsigs, procs, scratch = key
            if len(trace.pinned) != len(reqsigs):
                continue  # cannot re-anchor: drop (the launch re-records)
            new_sigs = tuple(
                (
                    uid,
                    id(part) if pid is not None and part is not None else None,
                    priv,
                    streamed,
                )
                for (uid, pid, priv, streamed), part in zip(reqsigs, trace.pinned)
            )
            out[(st, name, colors, new_sigs, procs, scratch)] = trace
        return out

    @staticmethod
    def _rekeyed_copy_traces(traces: Dict[Tuple, _CopyTrace]) -> Dict[Tuple, _CopyTrace]:
        out: Dict[Tuple, _CopyTrace] = {}
        for key, trace in traces.items():
            st, uid, _old_sig, dst = key
            if len(trace.pinned) != 2:
                continue
            out[(st, uid, _subset_sig(trace.pinned[1]), dst)] = trace
        return out


def _subset_sig(subset: IndexSubset) -> Tuple:
    """Cheap signature of a copy target: rect subsets compare structurally
    (they are tiny frozen values, and callers often rebuild them), irregular
    subsets by identity (hashing their index arrays would cost more than the
    algebra the trace skips — the trace pins them so the id stays valid)."""
    if isinstance(subset, RectSubset):
        return ("rect", subset.rect.lo, subset.rect.hi)
    return ("obj", id(subset))


def _comm(src: int, dst: int, nbytes: float, machine: Machine, reason: str):
    from .metrics import CommEvent

    if src == dst:
        nbytes = 0.0
    return CommEvent(src, dst, nbytes, machine.same_node(src, dst), reason)
