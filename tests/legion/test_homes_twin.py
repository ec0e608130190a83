"""A region's homes against the lists they were before they became a table.

``ListHomesRuntime`` keeps each region's homes as a list of ``(subset,
proc)`` pairs in placement order: a first placement's pieces deduplicated
at once (``_distinct``), later ones one by one through a per-region set
(``_add_home`` / ``_homed``) — a placement whose every non-empty piece is
a home already changing nothing (``_homes_hold``) — ``copy_homes`` taking
another runtime's list, and ``reset_residency`` rebuilding a homes-only
table from the lists (or, in a clean state, keeping the live one).
Staging reads a list through the table's two queries, each a scan of every
home.  Its live tables are :class:`_Residency` like the runtime's, so only
the homes differ.  Generated call sequences drive it and a
:class:`Runtime` side by side and compare, after every call, the
communication, the homes in order, ``_owner_of`` of every piece, the live
tables and the trace counters.

A list keeps a piece with no elements as a home, and ``_owner_of`` answers
with its processor when it came first and no home meets the subset asked
about; a table holds no such piece, only the processor of the first home
(``first_home``), so the lists are compared with the tables through their
homes with elements and their first home's processor.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.legion import (
    ArraySubset,
    IndexSpace,
    Machine,
    Partition,
    Privilege,
    Rect,
    RectSubset,
    Region,
    RegionReq,
    Runtime,
    Work,
    equal_partition,
)
from repro.legion.index_space import EMPTY, intersect_subsets
from repro.legion.residency import _Residency


class ListHomes(list):
    """One region's homes as a list, read through the table's queries."""

    def pieces(self, near=None):
        return list(self)

    @property
    def first_home(self):
        return self[0][1] if self else None

    def owner(self, needed):
        """The first home with the largest overlap (processor 0 if none)."""
        return max(self, key=lambda h: intersect_subsets(h[0], needed).volume,
                   default=(None, 0))[1]


def _distinct(pieces):
    """``pieces`` less each one equal to an earlier one on its processor."""
    keys = [(p, type(s), s) for s, p in pieces]
    keep = sorted({key: k for k, key in reversed(list(enumerate(keys)))}.values())
    return ListHomes(pieces[k] for k in keep)


class ListHomesRuntime(Runtime):
    """A :class:`Runtime` whose homes are lists, as before they were tables."""

    TABLE = _Residency  # what a reset rebuilds from the homes

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._homed = {}

    def _add_home(self, uid, subset, proc):
        seen = self._homed.get(uid)
        if seen is None:
            seen = self._homed[uid] = {(p, type(s), s) for s, p in self._home.get(uid, ())}
        key = (proc, type(subset), subset)
        if key not in seen:
            seen.add(key)
            self._home.setdefault(uid, ListHomes()).append((subset, proc))

    def copy_homes(self, source, regions):
        for region in regions:
            homes = source._home.get(region.uid, ())
            if region.uid not in self._home and homes:
                self._home[region.uid] = ListHomes(homes)
                continue
            for subset, proc in homes:
                self._add_home(region.uid, subset, proc)
        self._homes_changed()

    def _homes_hold(self, uid, pieces):
        """Whether each non-empty piece is a home on its processor."""
        held = {(p, type(s), s) for s, p in self._home.get(uid, ())}
        return all(s.empty or (p, type(s), s) in held for s, p in pieces)

    def _place_pieces(self, region, partition, procs, whole=None, check=True):
        pieces = list(zip(partition.subsets.values(), procs))
        uid = region.uid
        if uid in self._home and self._homes_hold(uid, pieces):
            return  # adds no home: nothing changes
        self._unshare_residency()
        res = self._res(uid)
        if not len(res.starts) and uid not in self._home:
            homes = self._home[uid] = _distinct(pieces)
            for subset, proc in homes:
                res.add(proc, subset)
        else:
            for subset, proc in pieces:
                res.add(proc, subset)
                self._add_home(uid, subset, proc)
        if whole is not None:
            res.hold_whole(*whole)
        self._homes_changed()
        if check:
            self._check_placed(region)

    def _homes_only(self, uid, facts):
        table = self.TABLE()
        for subset, proc in self._home[uid]:
            table.add(proc, subset)
        return table.copy(facts)

    def reset_residency(self):
        if self._homes_table is None and self._state[0] == "clean" \
                and self._residency.keys() == self._home.keys():
            self._homes_table = self._residency
        if self._homes_table is None:
            live = self._residency
            self._homes_table = {uid: self._homes_only(uid, live.get(uid))
                                 for uid in self._home}
        self._restore_residency(self._homes_table)
        self._state = ("clean", self._homes_version)


def homes(rt):
    """Each region's homes with elements, in order, as ``(type, subset,
    proc)``, after the processor of its first home (None: none)."""
    return {u: [h.first_home] + [(type(s), s, p) for s, p in h.pieces() if not s.empty]
            for u, h in rt._home.items()}


# --------------------------------------------------------------------------- #
# generated call sequences
# --------------------------------------------------------------------------- #
COLORS = 5


def _fresh(subset):
    """An equal subset that is not the same object."""
    if subset.empty:
        return EMPTY
    if isinstance(subset, RectSubset):
        return RectSubset(Rect(subset.rect.lo, subset.rect.hi))
    return ArraySubset(subset.indices().copy())


@st.composite
def partition_of(draw, region):
    shape = region.ispace.shape()
    kind = draw(st.sampled_from(["equal", "uneven", "aliased"] + ["array"] * (len(shape) == 1)))
    if kind == "equal":
        return equal_partition(region.ispace, COLORS) if len(shape) == 1 else Partition(
            region.ispace, {c: RectSubset(Rect((c * shape[0] // COLORS, 0), (
                (c + 1) * shape[0] // COLORS - 1, shape[1] - 1)))
                if (c + 1) * shape[0] // COLORS > c * shape[0] // COLORS else EMPTY
                for c in range(COLORS)})
    if kind == "array":
        rows = st.lists(st.integers(0, region.ispace.volume - 1), min_size=1, max_size=5)
        return Partition(region.ispace, {c: ArraySubset(np.unique(draw(rows)))
                                         for c in range(COLORS)})
    cuts = sorted(draw(st.lists(st.integers(0, shape[0]), min_size=COLORS - 1,
                                max_size=COLORS - 1)))
    blocks = list(zip([0] + cuts, cuts + [shape[0]]))
    if kind == "aliased":  # colors sharing, or repeating, one block
        blocks = [blocks[draw(st.integers(0, COLORS - 1))] for _ in range(COLORS)]
    subsets = {}
    for c, (lo, hi) in enumerate(blocks):
        rect = Rect(lo, hi - 1) if len(shape) == 1 else Rect((lo, 0), (hi - 1, shape[1] - 1))
        subsets[c] = RectSubset(rect) if hi > lo else EMPTY
    return Partition(region.ispace, subsets)


#: processor maps: the machine's, one along, and every color on one
MAPS = ("own", "shift", "one")


@st.composite
def scenarios(draw):
    procs = draw(st.integers(1, 4))
    shapes = draw(st.lists(st.sampled_from([(9,), (20,), (7, 3), (12, 2)]),
                           min_size=1, max_size=3))
    regions = [Region(IndexSpace(s)) for s in shapes]
    parts = [draw(st.lists(partition_of(r), min_size=1, max_size=3)) for r in regions]
    calls = []
    for _ in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(
            ["place", "place", "place_equal", "place_on", "place_replicated", "read",
             "read", "reduce", "write", "reset", "source", "copy_homes"]))
        r = draw(st.integers(0, len(regions) - 1))
        part, pmap = draw(st.sampled_from(parts[r])), draw(st.sampled_from(MAPS))
        if op in ("place", "place_equal", "source"):
            calls.append((op, r, part, pmap))
            if op == "place" and draw(st.booleans()):  # placed twice, as is
                calls.append((op, r, part, pmap))
        elif op == "place_on":
            calls.append((op, r, draw(st.integers(0, procs - 1))))
        elif op in ("read", "reduce", "write"):
            calls.append((op, r, part, pmap))
            if op == "write" and draw(st.booleans()):  # re-placed after the write
                calls.append(("place", r, part, draw(st.sampled_from(MAPS))))
        elif op == "copy_homes":
            calls.append((op, sorted(set(draw(st.lists(
                st.integers(0, len(regions) - 1), min_size=1, max_size=3))))))
        else:
            calls.append((op, r))
    return procs, regions, parts, calls


def _map(rt, name):
    size = rt.machine.size
    return {"own": None, "shift": lambda c: (c + 1) % size, "one": lambda c: 0}[name]


PRIVILEGE = {"read": Privilege.READ_ONLY, "reduce": Privilege.REDUCE,
             "write": Privilege.WRITE_DISCARD}


def _run(rt, source, regions, call):
    op = call[0]
    if op == "place":
        return rt.place(regions[call[1]], call[2], _map(rt, call[3]))
    if op == "place_equal":  # an equal partition of equal pieces
        part = call[2]
        fresh = Partition(part.parent, {c: _fresh(s) for c, s in part.items()})
        return rt.place(regions[call[1]], fresh, _map(rt, call[3]))
    if op == "source":
        return source.place(regions[call[1]], call[2], _map(source, call[3]))
    if op == "place_on":
        return rt.place_on(regions[call[1]], call[2])
    if op == "place_replicated":
        return rt.place_replicated(regions[call[1]])
    if op == "copy_homes":
        return rt.copy_homes(source, [regions[r] for r in call[1]])
    if op == "reset":
        return rt.reset_residency()
    _, r, part, pmap = call
    works = [Work(c + 1, 1) for c in range(COLORS)]
    step = rt.index_launch(op, range(COLORS), lambda: works,
                           [RegionReq(regions[r], part, PRIVILEGE[op])],
                           proc_map=_map(rt, pmap))
    return step.comm_events, step.compute_seconds


def _owners(rt, regions, parts):
    """``_owner_of`` of every non-empty piece of every partition, of each
    whole region and of its last row (which few homes meet)."""
    return [rt._owner_of(r, s) for r, ps in zip(regions, parts)
            for s in [r.ispace.full_subset(), _last_row(r)]
            + [p for part in ps for _, p in part.items()] if not s.empty]


def _last_row(region):
    shape = region.ispace.shape()
    lo = (shape[0] - 1,) + (0,) * (len(shape) - 1)
    return RectSubset(Rect(lo, tuple(n - 1 for n in shape)))


class TestTwinHomes:
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_homes_table_matches_the_lists(self, scenario):
        procs, regions, parts, calls = scenario
        machine = Machine.cpu(procs)
        rt, twin = Runtime(machine), ListHomesRuntime(machine)
        sources = Runtime(machine), ListHomesRuntime(machine)
        for call in calls:
            assert _run(rt, sources[0], regions, call) == _run(twin, sources[1], regions, call)
            assert homes(rt) == homes(twin) and homes(sources[0]) == homes(sources[1])
            assert _owners(rt, regions, parts) == _owners(twin, regions, parts)
            assert Runtime._snapshots_equal(rt._residency, twin._residency)
            assert (rt.trace_records, rt.trace_hits, rt._state) == \
                   (twin.trace_records, twin.trace_hits, twin._state)

    def test_owner_ties_go_to_the_first_placement(self):
        """Two homes meeting a subset equally: the one placed first owns it,
        whichever processor it is on; a later equal piece adds no home."""
        r = Region(IndexSpace(8))
        late = Partition(r.ispace, {0: RectSubset(Rect(4, 7)), 1: RectSubset(Rect(0, 3))})
        early = Partition(r.ispace, {0: RectSubset(Rect(0, 3)), 1: RectSubset(Rect(4, 7))})
        for rt in (Runtime(Machine.cpu(2)), ListHomesRuntime(Machine.cpu(2))):
            rt.place(r, late)
            rt.place(r, early)
            rt.place(r, late)
            assert [p for _, p in rt._home[r.uid].pieces()] == [0, 1, 0, 1]
            # every home meets [2, 5] twice: the first, [4, 7] on 0, owns it
            assert rt._owner_of(r, RectSubset(Rect(2, 5))) == 0
            # [0, 3] meets [1, 4] most, on 1 before on 0
            assert rt._owner_of(r, RectSubset(Rect(1, 4))) == 1

    def test_an_empty_first_home_owns_what_no_home_meets(self):
        """Processor 0's piece of the placement has no elements: it is no
        piece of the table, yet as the first home it owns [4, 7], which no
        home meets, so a read of it on 0 stages nothing and one on 1 stages
        it from 0.  A placement of no colors homes nothing: such a read
        stages nothing anywhere."""
        def run(rt, placed):
            r = Region(IndexSpace(8))
            rt.place(r, Partition(r.ispace, placed))
            read = [RegionReq(r, Partition(r.ispace, {0: RectSubset(Rect(4, 7))}),
                              Privilege.READ_ONLY)]
            return [rt._owner_of(r, RectSubset(Rect(4, 7)))] + [
                [(e.src_proc, e.nbytes) for e in rt.index_launch(
                    "r", [0], lambda: [Work(1, 1)], read, proc_map=lambda c: proc).comm_events]
                for proc in (0, 1)]

        for placed, seen in (({0: EMPTY, 1: RectSubset(Rect(0, 3))}, [0, [], [(0, 32)]]),
                             ({}, [0, [], []])):
            assert run(Runtime(Machine.cpu(2)), placed) == seen
            assert run(ListHomesRuntime(Machine.cpu(2)), placed) == seen

    def test_copy_homes_into_a_region_that_homes_nothing(self):
        """A region placed with no colors takes another runtime's homes
        whole, its first home (with no elements) included."""
        seen = []
        for cls in (Runtime, ListHomesRuntime):
            r = Region(IndexSpace(8))
            rt, source = cls(Machine.cpu(2)), cls(Machine.cpu(2))
            rt.place(r, Partition(r.ispace, {}))
            source.place(r, Partition(r.ispace, {0: EMPTY, 1: RectSubset(Rect(0, 3))}))
            rt.copy_homes(source, [r])
            seen.append((homes(rt)[r.uid], rt._owner_of(r, RectSubset(Rect(4, 7)))))
        assert seen[0] == seen[1] and seen[0][1] == 0
