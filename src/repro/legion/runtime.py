"""The simulated Legion runtime: index task launches over partitioned regions.

Execution is sequential but *logically distributed*: every color of a
launch computes on the sub-regions its region requirements name, and the
runtime performs the same bookkeeping Legion's mapper would — tracking
which processor memories hold valid copies of which sub-regions, moving
missing data (and charging the network model for it), applying reduction
privileges, and enforcing memory capacities (GPU OOM → DNC entries in the
paper's Fig. 11).  The numerical work happens inside the launch's body on
NumPy views; it returns a :class:`~repro.legion.machine.Work` record per
color, from which the roofline model derives per-processor compute time.

Mapping-trace replay
--------------------
Legion's *dynamic tracing* memoizes the mapper's decisions for a repeated
launch and replays them.  Here the first ``index_launch`` from a given
residency state records a :class:`MappingTrace` — the per-color target
processor, every communication event staging and coherence emitted, and
the residency table the launch left behind.  A later launch with the same
*launch signature* (name, colors, region requirements, processor
assignment) from the same state replays it: the events are re-charged and
the table installed, but no per-color subset algebra re-runs.  The
computation always executes and compute time comes from the returned
:class:`Work`, so replayed metrics are bit-identical to a fresh analysis.
A launch's body is a *launch thunk*, one zero-argument call that returns
every color's ``Work`` in color order: the mapping (what moves where) is
decided apart from it, and the runtime calls it once, then books the
``Work`` columns at once, summed per processor in color order.  A replay
books the trace's events first; a recording stages and applies coherence
color by color first.  A recording whose every requirement is *at home*
— the facts ``place*`` recorded about whole partitions say staging and
coherence do nothing, as on a first launch over the placement
(:meth:`Runtime._at_home`) — writes, and so copies, no table.

Residency states are tracked symbolically: ``reset_residency`` (called
between trials) returns to the canonical "homes only" state *without*
dropping traces, so iterations 2..N of a solver replay.  A ``place*`` that
adds a home moves to a fresh state, so stale traces never fire (one the
homes hold already changes nothing).

The tables behind those states are shared values.  Each region's homes
are a residency table too, one that only grows (:attr:`Runtime._home`):
a recording hands the table it leaves behind to its trace; a replay and
``reset_residency`` *install* a table — the trace's, or copies of the
homes memoised until the next ``place*`` — without copying it.  Such a
table is never written: one ownership bit says whether the live table is
shared, and every writer — a recording launch, ``place*`` — takes a
private copy first (:meth:`Runtime._unshare_residency`).  Within a table
each region holds each piece once, indexed by its leading-axis extent,
with a running volume total per processor
(:class:`~repro.legion.residency._Residency`), so staging, write
invalidation and capacity checks touch only the pieces involved; a first
placement of a partition of rects loads a region's homes from its bounds
as columns, its live table a copy of them, and makes no piece until a
query needs one.

A chain of launches — SpAdd's symbolic and fill launches, the statements
of a program — replays end to end, each from the state the one before left.
A launch returns its :class:`StepMetrics` and the runtime keeps no log of
them: whoever launches (:meth:`CompiledKernel.execute
<repro.core.compiler.CompiledKernel.execute>`, the static planner's mirror)
collects the steps of its own call.  Runtimes are *picklable* as they
are: :mod:`repro.core.store` persists one (traces, homes, facts and symbolic
state; hit counters start fresh) so a new process replays from its first
launch.  Nothing is re-keyed on load: a trace key and a fact name a
partition by its content (:attr:`Partition.key`) and a region by its uid.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import OOMError
from .index_space import IndexSubset, intersect_subsets, subtract_subsets
from .machine import Machine, Work, Works
from .metrics import CommEvent, StepMetrics
from .network import Network
from .partition import Partition
from .region import Region
from .residency import _Residency

__all__ = ["Privilege", "RegionReq", "Runtime", "MappingTrace"]

#: The homes of a region nothing placed (read, never written).
_NO_HOMES = _Residency()

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
    GPU memory.  A kernel streams the operands its schedule communicates
    at a loop inside every distributed loop (``Schedule.communicate``).
    """

    region: Region
    partition: Optional[Partition]
    privilege: Privilege = Privilege.READ_ONLY
    streamed: bool = False

    def subset_for(self, color: Color) -> IndexSubset:
        if self.partition is None:
            return self.region.ispace.full_subset()
        return self.partition[color]


@dataclass
class MappingTrace:
    """Memoized staging decisions of one index launch (cf. Legion tracing).

    ``events_per_color`` holds, per launch point, the communication events
    the staging and output-coherence analysis emitted (in order);
    ``residency_after`` is the residency table the launch left behind — a
    shared value a replay installs as the live table and nothing writes;
    ``post_state`` is the symbolic state token the runtime transitions to,
    which lets a *chain* of launches replay end-to-end.
    """

    procs: List[int]
    events_per_color: List[Tuple[CommEvent, ...]]
    residency_after: Dict[int, _Residency]
    post_state: Tuple
    #: ``(works, compute_seconds, events)`` the launch last booked,
    #: reused while its thunk returns that same ``works`` object (held, so
    #: the identity is not recycled) — docs/codegen.md, "The exactness
    #: contract".  Process-local: dropped on pickling.
    booked: Optional[Tuple] = field(default=None, compare=False, repr=False)

    def __getstate__(self):
        return {**self.__dict__, "booked": None}


class Runtime:
    """Launches index tasks over a :class:`Machine` and accounts their cost;
    every launch records or replays a mapping trace (module docstring)."""

    def __init__(self, machine: Machine, network: Optional[Network] = None):
        self.machine = machine
        self.network = network if network is not None else Network.legion()
        self.trace_hits = 0
        self.trace_records = 0
        self._residency: Dict[int, _Residency] = {}
        #: The ownership bit: ``_residency`` is also a trace's snapshot or
        #: the homes memo, so whoever writes next copies it first
        #: (:meth:`_unshare_residency`).
        self._residency_shared = False
        #: Per region, its homes: a table that only grows (``place*``,
        #: :meth:`copy_homes`), in placement order.
        self._home: Dict[int, _Residency] = {}
        #: The copies of ``_home`` :meth:`reset_residency` installs, made on
        #: the first reset after a ``place*`` (``_homes_changed`` drops them).
        self._homes_table: Optional[Dict[int, _Residency]] = None
        self._traces: Dict[Tuple, MappingTrace] = {}
        #: Uids of the regions declared here from outside (a TDN statement,
        #: ``repro.distal.place_tensor``, or :meth:`copy_homes`): a compiled
        #: kernel's placement leaves them where they were declared.
        self.declared: Set[int] = set()
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
    def copy_homes(self, source: "Runtime", regions: Sequence[Region]) -> None:
        """Declare ``regions`` homed as ``source`` has them, in its order
        (so owner tie-breaking is ``source``'s) — how a scratch runtime
        sees operands another runtime placed."""
        self.declared.update(region.uid for region in regions)
        for region in regions:
            homes, mine = source._home.get(region.uid, _NO_HOMES), self._home.get(region.uid)
            if mine is not None and mine.first_home is not None:
                for subset, proc in homes.pieces():
                    mine.add(proc, subset)
            elif homes.first_home is not None:
                self._home[region.uid] = homes.copy()
        self._homes_changed()

    def _res(self, uid: int) -> _Residency:
        res = self._residency.get(uid)
        if res is None:
            res = self._residency[uid] = _Residency()
        return res

    def place(
        self,
        region: Region,
        partition: Partition,
        proc_map: Optional[Callable[[Color], int]] = None,
    ) -> None:
        """Declare the initial distribution of a region (its home placement)."""
        procs = self._procs(partition.colors(), proc_map)
        self._place_pieces(region, partition, procs, (partition.key[1], procs))

    def place_replicated(self, region: Region) -> None:
        """Place a full valid copy of the region on every processor."""
        procs = range(self.machine.size)
        self._place_pieces(region, _whole_on(region, procs), procs,
                           (None, frozenset(procs)))

    def place_on(self, region: Region, proc: int) -> None:
        """Place the whole region on a single processor."""
        self._place_pieces(region, _whole_on(region, [proc]), [proc], check=False)

    def _place_pieces(self, region: Region, partition: Partition, procs: Sequence[int],
                      whole=None, check: bool = True) -> None:
        """Make each color's piece resident on its processor (``procs``)
        and a home of ``region``, and record ``whole``, the fact it
        establishes (``(key, holders)``, :class:`_Residency`).  An empty region's homes load at
        once, from the partition's bounds when it has them, and its live
        table starts as their copy.  A placement the homes hold already —
        one a fact names (equal pieces, same processors), or one whose
        every piece is a home piece on its processor — changes nothing:
        not the homes, the live table, the state nor its traces."""
        uid, homes = region.uid, self._home.get(region.uid)
        if homes is not None and (
                whole and whole[0] is not None
                and whole[1] in self._residency.get(uid, homes).whole.get(whole[0], ())
                or homes.holds(partition, procs)):
            return
        self._unshare_residency()
        res = self._res(uid)
        if not len(res.starts) and homes is None:
            homes = self._home[uid] = _Residency()
            homes.load(partition, procs)
            res = self._residency[uid] = homes.copy()
        else:
            res.load(partition, procs)
            self._home.setdefault(uid, _Residency()).load(partition, procs)
        if whole is not None:
            res.hold_whole(*whole)
        self._homes_changed()
        if check:
            self._check_placed(region)

    def _procs(self, colors: Sequence[Color], proc_map) -> List[int]:
        """Each color's processor: ``proc_map``'s, else the machine's."""
        if proc_map:
            return list(map(proc_map, colors))
        return [self.machine.proc_of_color(color)
                if isinstance(color, (int, np.integer, tuple)) else i % self.machine.size
                for i, color in enumerate(colors)]

    def _owner_of(self, region: Region, needed: IndexSubset) -> int:
        """The processor of the first home with the largest overlap, or of
        the first home if none meets ``needed`` (:meth:`_Residency.owner`;
        processor 0 if there is no home)."""
        return self._home.get(region.uid, _NO_HOMES).owner(needed)

    # -- launches -------------------------------------------------------------
    def index_launch(
        self,
        name: str,
        colors: Sequence[Color],
        launch: Callable[[], Sequence[Work]],
        reqs: Sequence[RegionReq] = (),
        *,
        proc_map: Optional[Callable[[Color], int]] = None,
    ) -> StepMetrics:
        """Launch ``launch`` over ``colors``; returns the launch's metrics,
        which the runtime keeps no copy of.

        For every color the runtime (1) resolves each region requirement to a
        sub-region, (2) moves any part not valid in the target memory,
        charging the alpha-beta model, and (3) applies write/reduction
        coherence.  Reduction requirements additionally charge the cost of
        sending each non-owner's partial back to the sub-region's home.
        Then it (4) calls ``launch`` once, a thunk returning every color's
        :class:`Work` in color order (the caller vouches that it computes
        every color's body, a reduction's partials included), and converts
        the Works to per-processor seconds.

        A launch that already ran from the current residency state replays
        steps (1)-(3) from its :class:`MappingTrace`; step (4) always
        executes.  A recording runs steps (1)-(3) color by color — none for
        a requirement at home (:meth:`_at_home`) — before the call: the body
        writes no table, so staging decides what moves and nothing about
        how the body runs, and a staging that runs out of memory raises
        before any color computes.
        """
        procs = self._procs(colors, proc_map)
        trace_key = (self._state, name, tuple(colors), tuple(
            (r.region.uid, None if r.partition is None else r.partition.key,
             r.privilege.value, r.streamed) for r in reqs), tuple(procs))
        trace = self._traces.pop(trace_key, None)
        if trace is not None:
            self._traces[trace_key] = trace  # most recently used: last to go
            return self._replay_launch(name, trace, launch)

        step = StepMetrics(name)
        staged = [req for req, home in zip(reqs, self._at_home(reqs, colors, procs)) if not home]
        # at home, nothing writes the table: no "before" copy to compare
        before = self._unshare_residency(keep=True) if staged else None
        try:
            events_per_color = (self._map_colors(colors, procs, staged) if staged
                                else [()] * len(procs))
            booked = self._book(step, procs, launch(), events_per_color)
        except BaseException:
            # A partial launch (e.g. OOM) leaves an unknown residency state.
            self._mark_dirty()
            raise
        # The trace holds the table the launch left behind from here on.  A
        # launch that changed nothing (a steady-state loop over resident
        # data) self-loops, so its repeat replays instead of recording forever.
        after = self._residency
        self._residency_shared = True
        if before is None or self._snapshots_equal(before, after):
            post_state = self._state
        else:
            post_state = ("post", next(self._state_counter))
        if len(self._traces) >= 512:  # runaway-recording backstop: evict the LRU trace
            del self._traces[next(iter(self._traces))]
        self._traces[trace_key] = MappingTrace(
            procs, events_per_color, after, post_state, booked)
        self._state = post_state
        self.trace_records += 1
        return step

    def _at_home(self, reqs: Sequence[RegionReq], colors, procs) -> List[bool]:
        """Per requirement: whether recorded facts (:class:`_Residency`)
        decide that staging and coherence leave it as it is.  A read is, if
        its partition is held whole where each color launches and nothing in
        the launch writes, reduces or streams its region; a discard-write,
        if it is its region's only requirement, held whole likewise, over
        pieces no two of which meet (it drops none, and adds a duplicate)."""
        reads: Dict[int, List[bool]] = {}
        for req in reqs:
            reads.setdefault(req.region.uid, []).append(
                req.privilege is Privilege.READ_ONLY and not req.streamed)
        home = []
        for req in reqs:
            res, on = self._residency.get(req.region.uid), reads[req.region.uid]
            home.append(res is not None and bool(res.whole) and (
                res.held(req.partition, colors, procs, True) if all(on) else
                on == [False] and req.privilege is Privilege.WRITE_DISCARD
                and res.held(req.partition, colors, procs, False) and res.apart()))
        return home

    def _map_colors(self, colors: Sequence[Color], procs: List[int],
                    staged: Sequence[RegionReq]) -> List[Tuple[CommEvent, ...]]:
        """Stage ``staged`` and apply its coherence color by color; returns
        each color's events in order, for :meth:`_book`."""
        mapped = StepMetrics("")
        events_per_color = []
        for color, proc in zip(colors, procs):
            mark = len(mapped.comm_events)
            self._stage_inputs(mapped, color, proc, staged)
            self._apply_outputs(mapped, color, proc, staged)
            events_per_color.append(tuple(mapped.comm_events[mark:]))
        return events_per_color

    def _book(self, step: StepMetrics, procs: List[int], works, events_per_color,
              booked: Optional[Tuple] = None) -> Tuple:
        """Book a launch's per-color ``works`` (:class:`Works` columns, or
        one :class:`Work` per color) and its events: each color's roofline
        seconds, summed per processor in color order.  Returns what it
        booked, ``booked`` itself while ``works`` is the object it priced."""
        if booked is None or booked[0] is not works:
            cols, (flops, membw) = Works.of(works), self.machine.rates
            seconds = np.maximum(cols.flops / flops[procs], cols.bytes / membw[procs]).tolist()
            compute = {}
            for proc, sec in zip(procs, seconds):
                compute[proc] = compute.get(proc, 0.0) + sec
            events = [e for per_color in events_per_color for e in per_color]
            booked = (works, compute, events)
        step.compute_seconds.update(booked[1])
        step.comm_events.extend(booked[2])
        step.tasks_launched = len(booked[0])
        return booked

    def _replay_launch(self, name: str, trace: MappingTrace,
                       launch: Callable[[], Sequence[Work]]) -> StepMetrics:
        """Re-charge a recorded launch's communication and make its call."""
        step = StepMetrics(name)
        trace.booked = self._book(step, trace.procs, launch(), trace.events_per_color,
                                  trace.booked)
        self._restore_residency(trace.residency_after)
        self._state = trace.post_state
        self.trace_hits += 1
        return step

    @staticmethod
    def _snapshots_equal(a, b) -> bool:
        """Structural equality of two residency snapshots (identity-first
        element compare; cross-type subset equality is never attempted)."""
        return a.keys() == b.keys() and all(a[u].same_pieces(b[u]) for u in a)

    def _restore_residency(self, snapshot: Dict[int, _Residency]) -> None:
        """Install a recorded table as the live one.  It stays the
        recorder's, so it is marked shared and never written."""
        self._residency = snapshot
        self._residency_shared = True

    def _unshare_residency(self, keep: bool = False) -> Dict[int, _Residency]:
        """Called before any write to the live table; returns the table as
        it stood.  A shared table (a trace's snapshot, the homes memo) — or
        any, with ``keep``: the caller holds the "before" — is left as it is
        and the writer gets a private copy."""
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
            res = self._res(req.region.uid)
            if req.streamed:
                # Stream in rounds sized to a fraction of device memory;
                # nothing stays resident, so the full volume is re-sent on
                # every trial (extra messages vs a one-shot gather).
                nbytes = req.region.subset_nbytes(needed)
                chunk = 0.2 * self.machine.proc(proc).mem_bytes
                rounds = max(1, int(np.ceil(nbytes / max(chunk, 1.0))))
                src = self._owner_of(req.region, needed)
                for _ in range(rounds):
                    step.comm_events.append(
                        _comm(src, proc, nbytes / rounds, self.machine,
                              f"stream {req.region.name}")
                    )
                continue
            remaining = res.missing_subset(proc, needed)
            if remaining.empty:
                continue
            homes = self._home.get(req.region.uid, _NO_HOMES)
            for subset, home_proc in homes.pieces(remaining):
                if home_proc == proc or remaining.empty:
                    continue
                got = intersect_subsets(subset, remaining)
                if got.empty:
                    continue
                step.comm_events.append(
                    _comm(home_proc, proc, req.region.subset_nbytes(got),
                          self.machine, f"stage {req.region.name}")
                )
                remaining = subtract_subsets(remaining, got)
            if not remaining.empty and homes.first_home is not None:
                # No registered home covers it (e.g. freshly written
                # data) — pull from the best-overlap owner.
                src = homes.owner(needed)
                if src != proc:
                    step.comm_events.append(
                        _comm(src, proc, req.region.subset_nbytes(remaining),
                              self.machine, f"stage {req.region.name}")
                    )
            res.add(proc, needed)
            self._check_capacity(req.region, proc)

    def _apply_outputs(
        self, step: StepMetrics, color: Color, proc: int, reqs: Sequence[RegionReq]
    ) -> None:
        for req in reqs:
            if req.privilege is Privilege.READ_ONLY:
                continue  # staging made its table; a read changes nothing
            needed = req.subset_for(color)
            if needed.empty:
                continue
            res = self._res(req.region.uid)
            if req.privilege in (Privilege.WRITE_DISCARD, Privilege.READ_WRITE):
                res.invalidate_others(proc, needed)
                res.add(proc, needed)
            elif req.privilege == Privilege.REDUCE:
                # Only the part of this piece's contribution that aliases
                # sub-regions homed on *other* processors crosses the network
                # (Legion applies reductions where the data lives; interior
                # rows of a non-zero split never move).
                sent: Dict[int, float] = {}
                for subset, home_proc in self._home.get(req.region.uid, _NO_HOMES).pieces(needed):
                    if home_proc == proc:
                        continue
                    overlap = intersect_subsets(subset, needed)
                    if overlap.empty:
                        continue
                    nbytes = req.region.subset_nbytes(overlap)
                    sent[home_proc] = max(sent.get(home_proc, 0.0), nbytes)
                for home_proc, nbytes in sent.items():
                    step.comm_events.append(
                        _comm(
                            proc, home_proc, nbytes, self.machine,
                            f"reduce {req.region.name}",
                        )
                    )

    # -- capacity ---------------------------------------------------------------
    def _check_capacity(self, region: Region, proc: int,
                        total: Optional[float] = None) -> None:
        """Raise :class:`OOMError` if ``proc`` holds more than its memory:
        8 bytes (approx itemsize) per element of every resident piece, read
        from the regions' running totals (``total``: already summed)."""
        if total is None:
            total = sum(res.vol.get(proc, 0) * 8.0 for res in self._residency.values())
        p = self.machine.proc(proc)
        if total > p.mem_bytes:
            raise OOMError(proc, total, p.mem_bytes, what=f"staging {region.name}")

    def _check_placed(self, region: Region) -> None:
        """After a ``place*``, check every processor (a ``place_on`` does not
        check): none is over when all resident bytes fit the smallest
        memory; else the walk raises for the first one over, in its order."""
        resident = sum(sum(res.vol.values()) for res in self._residency.values()) * 8.0
        if resident > self.machine.smallest_memory:
            totals = self.resident_bytes_per_proc()
            for proc in {pr for res in self._residency.values() for pr in res.vol}:
                self._check_capacity(region, proc, totals[proc])

    def resident_bytes_per_proc(self) -> Dict[int, float]:
        """Resident bytes per processor with any, as :meth:`_check_capacity`
        charges them (8 bytes per resident element) — the footprint the
        static planner (:mod:`repro.analysis.commplan`) predicts."""
        out: Dict[int, float] = {}
        for res in self._residency.values():
            for proc, vol in res.vol.items():
                out[proc] = out.get(proc, 0.0) + vol * 8.0
        return out

    # -- cache control --------------------------------------------------------
    def reset_residency(self) -> None:
        """Drop every staged copy, keeping only home placements.

        Called between timed trials, so each pays the communication its
        algorithm inherently performs; traces are kept (they were recorded
        from this "homes only" state).  The live table becomes copies of the
        homes tables (sharing their columns) — or stays as it is, in a clean
        state, where it holds just the homes — made once per set of homes
        and installed as a shared value, so a warm reset costs the same on 4
        or 64 processors.
        """
        if self._homes_table is None and self._state[0] == "clean" \
                and self._residency.keys() == self._home.keys():
            # A clean state stands for "residency == homes" (its traces
            # replay from the memo), so the live table is the memo.
            self._homes_table = self._residency
        if self._homes_table is None:
            # Facts name homes only: each the live table holds is true here.
            live = self._residency
            self._homes_table = {uid: homes.copy(live.get(uid))
                                 for uid, homes in self._home.items()}
        self._restore_residency(self._homes_table)
        self._state = ("clean", self._homes_version)

    # -- results ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Trace replays vs recordings and the live trace count, which
        :meth:`repro.api.session.Session.stats` folds into its report."""
        return {"trace_hits": self.trace_hits, "trace_records": self.trace_records,
                "traces": len(self._traces)}

    # -- persistence (repro.core.store) ---------------------------------------
    def __getstate__(self):
        """Pickle the *replayable* state (homes, residency, symbolic state,
        traces); hit counters start fresh where it loads."""
        return {**self.__dict__, "trace_hits": 0, "trace_records": 0}


def _whole_on(region: Region, procs: Sequence[int]) -> Partition:
    """The whole region once per processor of ``procs``, as a partition."""
    return Partition(region.ispace, dict.fromkeys(procs, region.ispace.full_subset()))


def _comm(src: int, dst: int, nbytes: float, machine: Machine, reason: str):
    return CommEvent(src, dst, 0.0 if src == dst else nbytes,
                     machine.same_node(src, dst), reason)
