"""The residency piece index against the list-scan table it replaced.

``ListRuntime`` keeps the per-processor list semantics the index must
reproduce: every query scans every piece of every processor, capacity
re-sums every piece, homes are lists deduplicated by scanning them
(``test_homes_twin.ListHomesRuntime``).  Generated call sequences drive it
and a :class:`Runtime` side by side and compare, after every call, the
communication, the resident bytes per processor (in order), the OOM point,
the trace counters and the tables piece for piece.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OOMError
from repro.legion import (
    ArraySubset,
    IndexSpace,
    Machine,
    NodeSpec,
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
from repro.legion import residency as residency_mod
from repro.legion import runtime as runtime_mod
from repro.legion.index_space import (
    EMPTY,
    intersect_subsets,
    leading_extent,
    subsets_overlap,
    subtract_subsets,
    union_subsets,
)
from test_homes_twin import ListHomes, ListHomesRuntime, homes


def _holds(pieces, subset):
    for p in pieces:
        if p is subset or (type(p) is type(subset) and p == subset):
            return True
    return False


def by_proc(res):
    """A table's pieces per processor, in arrival order."""
    if isinstance(res, ListResidency):
        return res.by_proc
    out = {}
    for piece, proc in res.pieces():
        out.setdefault(proc, []).append(piece)
    return out


class ListResidency:
    """The list-scan residency table, as it was before the piece index."""

    def __init__(self, by_proc=None):
        self.by_proc = {} if by_proc is None else by_proc

    def copy(self, facts=None):
        return ListResidency({proc: list(pieces) for proc, pieces in self.by_proc.items()})

    def same_pieces(self, other):
        pa = self.by_proc
        pb = by_proc(other)
        return pa.keys() == pb.keys() and all(
            len(la) == len(pb[p]) and all(x is y or type(x) is type(y) and x == y
                                          for x, y in zip(la, pb[p]))
            for p, la in pa.items())

    def covered_volume(self, proc, needed):
        pieces = self.by_proc.get(proc, [])
        if not pieces or needed.empty:
            return 0
        return union_subsets([intersect_subsets(p, needed) for p in pieces]).volume

    def missing_subset(self, proc, needed):
        pieces = self.by_proc.get(proc, [])
        if needed.empty:
            return EMPTY
        if not pieces:
            return needed
        covered = union_subsets([intersect_subsets(p, needed) for p in pieces])
        return subtract_subsets(needed, covered)

    def add(self, proc, subset):
        if subset.empty:
            return
        pieces = self.by_proc.setdefault(proc, [])
        if not _holds(pieces, subset):
            pieces.append(subset)

    def invalidate_others(self, writer, subset):
        for proc, pieces in list(self.by_proc.items()):
            if proc == writer or not any(subsets_overlap(p, subset) for p in pieces):
                continue
            kept = [p for p in pieces if not subsets_overlap(p, subset)]
            if kept:
                self.by_proc[proc] = kept
            else:
                del self.by_proc[proc]


class ListRuntime(ListHomesRuntime):
    """A :class:`Runtime` over :class:`ListResidency`, summing capacity from
    the pieces, deduplicating homes by scanning them, placing piece by
    piece and checking every processor after each ``place*``.  It records
    no facts about whole partitions, so every launch stages and writes
    piece by piece and a recording never takes the one call."""

    TABLE = ListResidency

    def _res(self, uid):
        return self._residency.setdefault(uid, ListResidency())

    def _add_home(self, uid, subset, proc):
        homes = self._home.setdefault(uid, ListHomes())
        if not _holds([s for s, p in homes if p == proc], subset):
            homes.append((subset, proc))

    def _place_pieces(self, region, partition, procs, whole=None, check=True):
        pieces = list(zip(partition.subsets.values(), procs))
        if region.uid in self._home and self._homes_hold(region.uid, pieces):
            return  # adds no home: nothing changes
        self._unshare_residency()
        res = self._res(region.uid)
        for subset, proc in pieces:
            res.add(proc, subset)
            self._add_home(region.uid, subset, proc)
        self._homes_changed()
        if check:
            self._check_placed(region)

    def _at_home(self, reqs, colors, procs):
        return [False] * len(reqs)

    def _check_capacity(self, region, proc, total=None):
        p = self.machine.proc(proc)
        total = 0.0
        for res in self._residency.values():
            pieces = res.by_proc.get(proc)
            if pieces:
                total += sum(s.volume for s in pieces) * 8.0
        if total > p.mem_bytes:
            raise OOMError(proc, total, p.mem_bytes, what=f"staging {region.name}")

    def _check_placed(self, region):
        for proc in {pr for res in self._residency.values() for pr in res.by_proc}:
            self._check_capacity(region, proc)

    def resident_bytes_per_proc(self):
        out = {}
        for res in self._residency.values():
            for proc, pieces in res.by_proc.items():
                if pieces:
                    out[proc] = out.get(proc, 0.0) + sum(s.volume for s in pieces) * 8.0
        return out


def assert_index_consistent(res, region=None, placed=()):
    """The index columns, the piece list and the running totals hold the
    same pieces, and every recorded fact about a whole partition (of
    ``region``, or with the pieces of one of ``placed``) is true of them."""
    lists = by_proc(res)  # makes the pieces a load left as columns
    rows = res._row_pieces
    keys = list(zip(res.starts.tolist(), res.owners.tolist(), res.arrivals.tolist()))
    assert len(res.starts) == len(res.ends) == len(res.owners) == len(res.arrivals) == len(rows)
    assert len(set(res.arrivals.tolist())) == len(rows) and keys == sorted(keys)
    assert all(p.volume and (s, e) == leading_extent(p)
               for s, e, p in zip(res.starts.tolist(), res.ends.tolist(), rows))
    assert res.vol == {proc: sum(p.volume for p in pieces) for proc, pieces in lists.items()}
    if res.span is not None:
        assert all(e - a <= res.span for a, e in zip(res.starts.tolist(), res.ends.tolist()))
    named = {part.key[1]: part for part in placed}
    for key, facts in res.whole.items():
        for holders in facts:
            if key is None:
                held = [(region.ispace.full_subset(), proc) for proc in holders]
            else:
                held = list(zip(named[key].subsets.values(), holders))
            for piece, proc in held:
                assert piece.empty or _holds(lists.get(proc, []), piece)


def homes_only(rt):
    """The table a reset must install, rebuilt from the homes."""
    table = {uid: ListResidency() for uid in rt._home}
    for uid, pieces in rt._home.items():
        for subset, proc in pieces.pieces():
            table[uid].add(proc, subset)
    return table


# --------------------------------------------------------------------------- #
# generated call sequences
# --------------------------------------------------------------------------- #
COLORS = 6


def _cuts(draw, n):
    """COLORS contiguous blocks of [0, n) at drawn cut points (some empty)."""
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=COLORS - 1,
                                max_size=COLORS - 1)))
    return list(zip([0] + cuts, cuts + [n]))


@st.composite
def partition_of(draw, region):
    shape = region.ispace.shape()
    kind = draw(st.sampled_from(
        ["equal", "uneven", "array"] if len(shape) == 1 else ["rows", "uneven", "windows"]))
    if kind == "equal":
        return equal_partition(region.ispace, COLORS)
    if kind == "array":
        subsets = {c: ArraySubset(np.array(draw(st.lists(
            st.integers(0, shape[0] - 1), min_size=1, max_size=6))))
            for c in range(COLORS)}
        return Partition(region.ispace, subsets)
    blocks = _cuts(draw, shape[0]) if kind == "uneven" else \
        [(c * shape[0] // COLORS, (c + 1) * shape[0] // COLORS) for c in range(COLORS)]
    subsets = {}
    for c, (lo, hi) in enumerate(blocks):
        if len(shape) == 1:
            subsets[c] = RectSubset(Rect(lo, hi - 1)) if hi > lo else EMPTY
            continue
        # row blocks span every column; "windows" is the grid strategy's
        # column-windowed pieces (a drawn window per color)
        c0, c1 = (0, shape[1] - 1)
        if kind == "windows":
            c0 = draw(st.integers(0, shape[1] - 1))
            c1 = draw(st.integers(c0, shape[1] - 1))
            lo, hi = draw(st.sampled_from([(lo, hi), (0, shape[0])]))
        subsets[c] = RectSubset(Rect((lo, c0), (hi - 1, c1))) if hi > lo else EMPTY
    return Partition(region.ispace, subsets)


PRIVILEGES = [Privilege.READ_ONLY, Privilege.READ_WRITE,
              Privilege.WRITE_DISCARD, Privilege.REDUCE]


@st.composite
def scenarios(draw):
    procs = draw(st.integers(1, 4))
    dram = draw(st.sampled_from([30.0 * 8, 60.0 * 8, 1e9]))  # tight enough to OOM, or not
    shapes = draw(st.lists(st.sampled_from([(9,), (20,), (7, 4), (12, 3)]),
                           min_size=1, max_size=3))
    regions = [Region(IndexSpace(s)) for s in shapes]
    parts = [draw(st.lists(partition_of(r), min_size=1, max_size=2)) for r in regions]
    calls = []
    # a processor map other than the default: placed or launched there, a
    # whole partition is no longer at home for a launch on the other map
    shift = lambda: draw(st.sampled_from([0, 0, 1]))  # noqa: E731
    for _ in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(
            ["place", "place", "place_on", "place_replicated", "launch", "launch",
             "launch", "launch", "reset"]))
        r = draw(st.integers(0, len(regions) - 1))
        if op == "place":
            if draw(st.booleans()):  # a whole region first, unchecked
                calls.append(("place_on", draw(st.integers(0, len(regions) - 1)),
                              draw(st.integers(0, procs - 1))))
            # by one partition, then perhaps by another or the same again
            for part in draw(st.lists(st.sampled_from(parts[r]), min_size=1, max_size=2)):
                calls.append((op, r, part, shift()))
            if draw(st.booleans()):  # then a write over the last placement
                calls.append(("launch", [(r, part, Privilege.WRITE_DISCARD)], 4,
                              calls[-1][3]))
        elif op == "place_on":
            calls.append((op, r, draw(st.integers(0, procs - 1))))
        elif op == "launch":
            reqs = []
            for ri in draw(st.lists(st.integers(0, len(regions) - 1),
                                    min_size=1, max_size=3)):
                part = draw(st.sampled_from(parts[ri] + [None]))
                priv = draw(st.sampled_from(
                    PRIVILEGES if part is not None else PRIVILEGES[:1]))
                reqs.append((ri, part, priv))
            if draw(st.booleans()):  # a second read of the first region
                ri = reqs[0][0]
                reqs.append((ri, draw(st.sampled_from(parts[ri] + [None])),
                             Privilege.READ_ONLY))
            calls.append((op, reqs, draw(st.integers(0, 2)), shift()))
            if draw(st.booleans()):  # then a read of what it wrote
                ri, part, _ = reqs[0]
                calls.append((op, [(ri, part, Privilege.READ_ONLY)], 3, shift()))
            if draw(st.booleans()):  # the next trial: a replay
                calls += [("reset", r), calls[-1]]
        else:
            calls.append((op, r))
    return procs, dram, regions, calls


def _shifted(rt, shift):
    return (lambda c: (c + shift) % rt.machine.size) if shift else None


def _run(rt, regions, call):
    op = call[0]
    if op == "place":
        return rt.place(regions[call[1]], call[2], _shifted(rt, call[3]))
    if op == "place_on":
        return rt.place_on(regions[call[1]], call[2])
    if op == "place_replicated":
        return rt.place_replicated(regions[call[1]])
    if op == "reset":
        return rt.reset_residency()
    _, reqs, name, shift = call
    step = rt.index_launch(
        f"t{name}", range(COLORS), lambda: [Work(c + 1, 1) for c in range(COLORS)],
        [RegionReq(regions[ri], part, priv) for ri, part, priv in reqs],
        proc_map=_shifted(rt, shift))
    return step.comm_events, step.compute_seconds, step.tasks_launched


def _outcome(rt, regions, call):
    try:
        return ("ok", _run(rt, regions, call))
    except OOMError as e:
        return ("oom", e.proc, e.needed, e.capacity, str(e))


class TestTwinResidency:
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_index_matches_the_list_scan(self, scenario):
        procs, dram, regions, calls = scenario
        machine = Machine.cpu(procs, NodeSpec(dram_bytes=dram))
        rt, twin = Runtime(machine), ListRuntime(machine)
        for call in calls:
            assert _outcome(rt, regions, call) == _outcome(twin, regions, call)
            assert list(rt.resident_bytes_per_proc().items()) == \
                   list(twin.resident_bytes_per_proc().items())
            assert (rt.trace_records, rt.trace_hits, rt._state) == \
                   (twin.trace_records, twin.trace_hits, twin._state)
            assert Runtime._snapshots_equal(twin._residency, rt._residency)
            assert homes(rt) == homes(twin)
            by_uid = {r.uid: r for r in regions}
            placed = [c[2] for c in calls if c[0] == "place"]
            for uid, res in rt._residency.items():
                assert_index_consistent(res, by_uid[uid], placed)
            if call[0] == "reset":  # whether built or the live table reused
                for x in (rt, twin):
                    assert list(x._residency) == list(x._home)
                    assert Runtime._snapshots_equal(homes_only(x), x._residency)

    def test_a_place_checks_processors_it_did_not_touch(self):
        """``place_on`` does not check capacity, so it can leave a processor
        over its memory; the next ``place`` raises for that processor even
        though it placed nothing there."""
        machine = Machine.cpu(2, NodeSpec(dram_bytes=60.0 * 8))
        wide, tall, small = Region(IndexSpace((12, 3))), Region(IndexSpace((7, 4))), \
            Region(IndexSpace(9))
        elsewhere = Partition(small.ispace, {1: RectSubset(Rect(0, 8))})  # on proc 1
        outcomes = []
        for rt in (Runtime(machine), ListRuntime(machine)):
            rt.place_on(wide, 0)
            rt.place_on(tall, 0)  # 64 elements on proc 0, unchecked
            outcomes.append(_outcome(rt, [small], ("place", 0, elsewhere, 0)))
        assert outcomes[0] == outcomes[1] and outcomes[0][:2] == ("oom", 0)

    def test_a_launch_that_reorders_pieces_leaves_its_state(self):
        """Processor 0 holds [A, B]; a launch drops its A (written on 1) and
        stages it back, so it holds [B, A]: the same pieces in another
        order are another table, so the launch moves to a new state and its
        repeat records (then self-loops) rather than replays."""
        r = Region(IndexSpace(8))
        a, b = RectSubset(Rect(0, 3)), RectSubset(Rect(4, 7))
        write = Partition(r.ispace, {0: a, 1: EMPTY})
        read = Partition(r.ispace, {0: EMPTY, 1: a})
        reqs = [RegionReq(r, write, Privilege.WRITE_DISCARD),
                RegionReq(r, read, Privilege.READ_ONLY)]
        counters = []
        for rt in (Runtime(Machine.cpu(2)), ListRuntime(Machine.cpu(2))):
            rt.place(r, Partition(r.ispace, {0: a, 1: b}), lambda c: 0)
            rt.index_launch("c", [1], lambda: [Work(1, 1)],  # stages A on 1
                            [RegionReq(r, Partition(r.ispace, {1: a}), Privilege.READ_ONLY)],
                            proc_map=lambda c: 1)
            for _ in range(3):
                rt.index_launch("w", [0, 1], lambda: [Work(1, 1)] * 2, reqs,
                                proc_map=lambda c: 1 - c)
            assert by_proc(rt._residency[r.uid]) == {0: [b, a], 1: [a]}
            counters.append((rt.trace_records, rt.trace_hits))
        assert counters == [(3, 1), (3, 1)]

    def test_a_replica_does_not_make_a_write_at_home(self):
        """On one processor a replicated region is held everywhere, yet a
        discard-write of its pieces adds each of them beside the replica."""
        r = Region(IndexSpace(12))
        write = ("launch", [(0, equal_partition(r.ispace, COLORS),
                             Privilege.WRITE_DISCARD)], 0, 0)
        rt, twin = Runtime(Machine.cpu(1)), ListRuntime(Machine.cpu(1))
        for x in (rt, twin):
            x.place_replicated(r)
            _run(x, [r], write)
        assert Runtime._snapshots_equal(twin._residency, rt._residency)
        assert len(by_proc(rt._residency[r.uid])[0]) == 1 + COLORS


def _counting(monkeypatch, calls, owner, *names):
    """Count calls of ``owner``'s ``names`` into ``calls``."""
    for name in names:
        fn = getattr(owner, name)

        def wrapper(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, wrapper)


class TestLaunchGrowsWithPieces:
    @pytest.mark.parametrize("pieces", [8, 64])
    def test_recording_write_disjoint_launch(self, pieces, monkeypatch):
        """A recording launch that stages — each color one processor along
        from its placement — reads a partitioned and a replicated region
        and writes a third disjointly, and makes O(pieces) overlap tests
        (the list scan made O(pieces²)); re-placing an equal partition
        compares no piece."""
        rt = Runtime(Machine.cpu(pieces))
        src, rep, out = (Region(IndexSpace(4 * pieces)) for _ in range(3))
        part = equal_partition(out.ispace, pieces)
        calls = Counter()
        _counting(monkeypatch, calls, residency_mod, "subsets_overlap", "_same")
        rt.place(src, part)
        rt.place_replicated(rep)
        rt.place(out, part)
        rt.place(out, equal_partition(out.ispace, pieces))  # re-declared, equal
        rt.reset_residency()
        # the re-declared partition has the placed one's bounds on the same
        # processors: it is recognized whole, and no piece is compared
        assert calls == {}
        assert len(rt._home[out.uid].pieces()) == pieces
        reqs = [RegionReq(src, part, Privilege.READ_ONLY),
                RegionReq(rep, None, Privilege.READ_ONLY),
                RegionReq(out, part, Privilege.WRITE_DISCARD)]
        step = rt.index_launch("w", range(pieces), lambda: [Work(1, 1)] * pieces, reqs,
                               proc_map=lambda c: (c + 1) % pieces)
        assert rt.trace_records == 1 and step.comm_events
        assert calls["subsets_overlap"] <= 2 * pieces
        # a write that overlaps every replica drops them: still one test per
        # piece it touches
        calls.clear()
        rt.index_launch("r", range(pieces), lambda: [Work(1, 1)] * pieces,
                        [RegionReq(rep, part, Privilege.WRITE_DISCARD)])
        assert calls["subsets_overlap"] <= 2 * pieces
        assert len(by_proc(rt._residency[rep.uid])) == pieces

    @pytest.mark.parametrize("pieces", [8, 64])
    def test_re_placing_after_a_write_compares_a_piece_only_with_its_duplicate(
            self, pieces, monkeypatch):
        """A write that drops a piece clears the facts, so re-placing an
        equal partition asks the homes: each piece is compared only with
        the home of its key (O(pieces), not O(pieces²)), every one is held,
        and nothing changes — nothing loads, and the live table still
        lacks the dropped piece."""
        rt = Runtime(Machine.cpu(pieces))
        out = Region(IndexSpace(4 * pieces))
        part = equal_partition(out.ispace, pieces)
        rt.place(out, part)
        # color 0 written on processor 1 drops processor 0's piece
        rt.index_launch("w", [0], lambda: [Work(1, 1)],
                        [RegionReq(out, part, Privilege.WRITE_DISCARD)], proc_map=lambda c: 1)
        assert rt._residency[out.uid].whole == {}
        assert 0 not in by_proc(rt._residency[out.uid])
        calls = Counter()
        _counting(monkeypatch, calls, residency_mod, "_same")
        _counting(monkeypatch, calls, runtime_mod._Residency, "add", "load")
        state, live = (rt._state, rt._homes_version), rt._residency
        rt.place(out, equal_partition(out.ispace, pieces))
        # among the homes, every color meets its duplicate, once
        assert calls == {"_same": pieces}
        assert (rt._state, rt._homes_version) == state and rt._residency is live
        assert 0 not in by_proc(rt._residency[out.uid])
        assert_index_consistent(rt._residency[out.uid], out, [part])

    def test_a_first_launch_over_home_partitions_runs_no_subset_algebra(
            self, monkeypatch):
        """Placing into empty regions adds no piece one by one, and a
        recording over the placed partitions — two reads of one region, a
        broadcast of a replicated one, a discard-write of a third — stages
        nothing, writes nothing and takes the launch thunk's one call."""
        pieces = 64
        rt = Runtime(Machine.cpu(pieces))
        src, rep, out = (Region(IndexSpace(4 * pieces)) for _ in range(3))
        part = equal_partition(out.ispace, pieces)
        calls = Counter()
        _counting(monkeypatch, calls, runtime_mod._Residency,
                  "add", "missing_subset", "invalidate_others")
        _counting(monkeypatch, calls, residency_mod, "subsets_overlap")
        rt.place(src, part)
        rt.place(out, part)
        rt.place_replicated(rep)
        rt.reset_residency()
        assert calls == {}
        thunk = Counter()

        def launch():
            thunk["calls"] += 1
            return [Work(c + 1, 1) for c in range(pieces)]

        reqs = [RegionReq(src, part, Privilege.READ_ONLY),
                RegionReq(src, part, Privilege.READ_ONLY),
                RegionReq(rep, None, Privilege.READ_ONLY),
                RegionReq(out, part, Privilege.WRITE_DISCARD)]
        before = rt._residency
        step = rt.index_launch("w", range(pieces), launch, reqs)
        assert calls == {} and thunk == {"calls": 1} and rt.trace_records == 1
        assert step.comm_events == [] and step.tasks_launched == pieces
        assert Runtime._snapshots_equal(rt._residency, before)
        assert rt._state == ("clean", rt._homes_version)  # it self-loops
        # a fact about rects speaks for every partition with their bounds:
        # an equal partition of src, never placed, is at home too
        reqs[1] = RegionReq(src, equal_partition(src.ispace, pieces), Privilege.READ_ONLY)
        rt.index_launch("v", range(pieces), launch, reqs)
        assert calls == {} and thunk == {"calls": 2}
        # a partition no fact speaks for stages, and the launch still
        # computes in one call
        reqs[1] = RegionReq(src, equal_partition(src.ispace, pieces // 2), Privilege.READ_ONLY)
        rt.index_launch("u", range(pieces), launch, reqs)
        assert calls["missing_subset"] == pieces // 2 and thunk == {"calls": 3}

    def test_an_sddmm_sharing_its_pattern_regions_is_at_home(self, monkeypatch):
        """SDDMM's output reads the pattern regions of its sparse operand
        through a second partition of each; several reads of one region are
        at home together, so the recording runs no subset algebra."""
        from repro.api.autoschedule import auto_schedule
        from repro.core import clear_caches, compile_kernel
        from repro.taco import CSR, Tensor, index_vars

        clear_caches()
        machine = Machine.cpu(64)
        rng = np.random.default_rng(1)
        n = 256
        coords = [rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)]
        B = Tensor.from_coo("B", coords, rng.random(4 * n), (n, n), CSR)
        C, D = Tensor.from_dense("C", rng.random((n, 3))), Tensor.from_dense(
            "D", rng.random((3, n)))
        P = Tensor.zeros("P", (n, n), CSR)
        i, j, k = index_vars("i j k")
        P[i, j] = B[i, j] * C[i, k] * D[k, j]
        ck = compile_kernel(auto_schedule(P.assignment, machine, strategy="rows"), machine)
        shared = {r.uid for r in P.regions()} & {r.uid for r in B.regions()}
        assert shared  # P's pos / crd are B's
        calls = Counter()
        _counting(monkeypatch, calls, runtime_mod._Residency,
                  "missing_subset", "invalidate_others")
        ck.execute(Runtime(machine))
        assert calls == {}
        clear_caches()


def _statement(kind, n=2_000, nnz=20_000):
    """A rows-split statement over one packed CSR operand (2 000 rows over
    64 pieces leaves the last color empty)."""
    from repro.taco import CSR, Tensor, index_vars

    rng = np.random.default_rng(0)
    B = Tensor.from_coo("B", [rng.integers(0, n, nnz), rng.integers(0, n, nnz)],
                        rng.random(nnz), (n, n), CSR)
    if kind == "spmv":
        x, y = Tensor.from_dense("x", rng.random(n)), Tensor.zeros("y", (n,))
        i, j = index_vars("i j")
        y[i] = B[i, j] * x[j]
        return y
    C = Tensor.from_dense("C", rng.random((n, 8)))
    if kind == "spmm":
        A = Tensor.zeros("A", (n, 8))
        i, k, j = index_vars("i k j")
        A[i, j] = B[i, k] * C[k, j]
        return A
    D, P = Tensor.from_dense("D", rng.random((8, n))), Tensor.zeros("P", (n, n), CSR)
    i, j, k = index_vars("i j k")
    P[i, j] = B[i, j] * C[i, k] * D[k, j]
    return P


class TestColdPathIsPerRegion:
    """A cold statement — compile, place, the recording launch — handles
    each region's pieces as columns: the per-piece calls below do not grow
    with the piece count, no color's rect is made when nobody reads it, an
    all-at-home recording copies no table and compares none, and the plan
    has the same statements at every piece count."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.legion import partition as partition_mod
        from repro.legion import region as region_mod
        from repro.taco import levels as levels_mod

        calls = Counter()
        _counting(monkeypatch, calls, region_mod.RectRegion, "destination_subset")
        _counting(monkeypatch, calls, levels_mod.CompressedLevel, "coord_bounds")
        _counting(monkeypatch, calls, levels_mod.DenseLevel, "coord_bounds")
        _counting(monkeypatch, calls, runtime_mod._Residency, "add", "copy")
        _counting(monkeypatch, calls, partition_mod, "rect_piece")
        equal = Runtime._snapshots_equal
        monkeypatch.setattr(Runtime, "_snapshots_equal", staticmethod(
            lambda a, b: calls.update(["_snapshots_equal"]) or equal(a, b)))
        return calls

    def _cold(self, kind, pieces, calls):
        """The spied calls and plan statements of one cold statement."""
        from repro.api.autoschedule import auto_schedule
        from repro.core import clear_caches, compile_kernel

        clear_caches()
        out, machine = _statement(kind), Machine.cpu(pieces)
        calls.clear()
        ck = compile_kernel(auto_schedule(out.assignment, machine, strategy="rows"), machine)
        rt = Runtime(machine)
        ck.execute(rt)
        clear_caches()
        return dict(calls), len(ck.plan.stmts), len(rt._home)

    @pytest.mark.parametrize("kind", ["spmv", "spmm", "sddmm"])
    def test_nothing_grows_with_pieces(self, kind, calls):
        seen = {p: self._cold(kind, p, calls) for p in (4, 16, 64, 256)}
        # one window of the dense operand over the whole crd partition;
        # nothing else per piece — SDDMM's output places the pos / crd it
        # shares with its operand by partitions a fact already names, so
        # no piece is added or homed one by one.  Each placed region's
        # homes are copied once, into the live table the placement starts
        # (the execute's reset, from a clean state, keeps that table).
        assert all(calls == {"coord_bounds": 1, "copy": placed}
                   for calls, _, placed in seen.values())
        # Table I emits one entry statement, a loop over the colors, per
        # initial partition
        assert len({stmts for _, stmts, _ in seen.values()}) == 1


def test_a_load_holds_what_adds_would():
    """A table loads a placement of rects as columns — into an empty table
    making no piece until a query needs one — and holds what ``add`` of
    each piece in turn holds: an empty color nowhere (its processor the
    first home still), a piece equal to an earlier or a held one on its
    processor once, pieces out of key order sorted, equal keys in arrival
    order."""
    space = IndexSpace(12)
    pieces = [EMPTY, RectSubset(Rect(6, 11)), RectSubset(Rect(0, 5)),
              RectSubset(Rect(6, 11)), RectSubset(Rect(6, 8)), RectSubset(Rect(0, 5))]
    part, procs = Partition(space, dict(enumerate(pieces))), [2, 1, 0, 1, 1, 1]
    loaded, added = runtime_mod._Residency(), runtime_mod._Residency()
    loaded.load(part, procs)
    assert loaded._unmade is part
    for subset, proc in zip(pieces, procs):
        added.add(proc, subset)
    assert loaded.pieces() == added.pieces() == [
        (pieces[1], 1), (pieces[2], 0), (pieces[4], 1), (pieces[5], 1)]
    assert loaded.vol == added.vol == {1: 15, 0: 6}
    assert loaded.first_home == 2
    assert Runtime._snapshots_equal({0: loaded}, {0: added})
    # into a table that holds pieces: an equal one held (an equal object
    # or the same), a new start, a held start on another processor, a new
    # piece at a held key
    more = [RectSubset(Rect(0, 5)), RectSubset(Rect(3, 4)), pieces[1], RectSubset(Rect(6, 7)),
            RectSubset(Rect(0, 5))]
    procs = [0, 2, 1, 1, 2]
    loaded.load(Partition(space, dict(enumerate(more))), procs)
    for subset, proc in zip(more, procs):
        added.add(proc, subset)
    assert loaded.pieces() == added.pieces() and loaded.pieces()[4:] == [
        (more[1], 2), (more[3], 1), (more[4], 2)]
    assert loaded.vol == added.vol == {1: 17, 0: 6, 2: 8}
    assert loaded.first_home == 2
    for res in (loaded, added):
        assert_index_consistent(res)
