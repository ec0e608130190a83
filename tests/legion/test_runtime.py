"""Runtime tests: staging, privileges, reductions, capacity, streaming."""
import numpy as np
import pytest

from repro.errors import OOMError
from repro.legion import (
    ArraySubset,
    ExecutionMetrics,
    IndexSpace,
    Machine,
    Network,
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


def make_rt(nodes=2, **net_kw):
    return Runtime(Machine.cpu(nodes), Network(**net_kw) if net_kw else None)


class TestStaging:
    def test_matched_placement_no_comm(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        p = equal_partition(r.ispace, 2)
        rt.place(r, p)
        step = rt.index_launch(
            "t", [0, 1], lambda: [Work(1, 1)] * 2, [RegionReq(r, p, Privilege.READ_ONLY)]
        )
        assert step.comm_bytes() == 0

    def test_mismatched_placement_moves_missing(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        home = Partition(
            r.ispace, {0: RectSubset(Rect(0, 5)), 1: RectSubset(Rect(6, 7))}
        )
        rt.place(r, home)
        req = equal_partition(r.ispace, 2)  # wants [0..3], [4..7]
        step = rt.index_launch(
            "t", [0, 1], lambda: [Work(1, 1)] * 2, [RegionReq(r, req, Privilege.READ_ONLY)]
        )
        # piece 1 needs [4..7]; owns [6..7]; missing [4..5] = 2 elems * 8B
        assert step.comm_bytes() == 2 * 8

    def test_second_trial_after_reset_repays(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        rt.place_on(r, 0)
        req = equal_partition(r.ispace, 2)
        reqs = [RegionReq(r, req, Privilege.READ_ONLY)]
        s1 = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert s1.comm_bytes() == 4 * 8  # piece 1 pulls its half
        s2 = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert s2.comm_bytes() == 0  # cached
        rt.reset_residency()
        s3 = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert s3.comm_bytes() == 4 * 8  # staged copy dropped, home kept

    def test_replicated_home_survives_reset(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        rt.place_replicated(r)
        rt.reset_residency()
        step = rt.index_launch(
            "t", [0, 1], lambda: [Work(1, 1)] * 2, [RegionReq(r, None, Privilege.READ_ONLY)]
        )
        assert step.comm_bytes() == 0


class TestHomePlacements:
    """Homes are a set: every kernel placed on a runtime re-declares its
    operands' homes, and resets, staging and owner lookups walk them."""

    def test_re_placing_keeps_first_occurrences_in_order(self):
        def launch(rt, r):
            need = Partition(
                r.ispace, {0: RectSubset(Rect(2, 7)), 1: RectSubset(Rect(0, 1))}
            )
            step = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2,
                                   [RegionReq(r, need, Privilege.READ_ONLY)])
            return [(e.src_proc, e.dst_proc, e.nbytes) for e in step.comm_events]

        once, again = make_rt(), make_rt()
        r = Region(IndexSpace(8))
        p = equal_partition(r.ispace, 2)
        once.place(r, p)
        once.place_on(r, 1)
        again.place(r, p)
        again.place_on(r, 1)
        first = again._home[r.uid].pieces()
        again.place(r, equal_partition(r.ispace, 2))  # equal, not identical
        again.place_on(r, 1)
        again.place(r, p)
        homes = again._home[r.uid].pieces()
        assert len(homes) == 3
        assert all(a is b and p == q for (a, p), (b, q) in zip(homes, first))
        again.reset_residency()
        assert launch(again, r) == launch(once, r) != []

    def test_homes_stop_growing_with_session_age(self):
        import repro

        rng = np.random.default_rng(0)
        dense = rng.random((40, 40)) * (rng.random((40, 40)) < 0.2)
        trials = []
        with repro.session(nodes=4) as s:
            B = s.tensor("B", dense, repro.CSR)
            for _ in range(3):
                events = []
                for k in range(5):  # five fresh right-hand sides
                    X = s.tensor(f"X{k}", rng.random((40, 3)))
                    repro.einsum("ij,jk->ik", B, X, session=s)
                    events.append([
                        (e.src_proc, e.dst_proc, e.nbytes, e.reason)
                        for step in s.last_result.metrics.steps
                        for e in step.comm_events
                    ])
                trials.append(events)
                assert len(s.runtime._home[B.vals.uid].pieces()) == 4
        assert trials[1] == trials[0] and trials[2] == trials[0]


class TestPlacementFacts:
    """A placement records a fact about a whole partition (``place``); one
    equal to a fact already held (bounds and processors) shares it."""

    def test_an_equal_placement_shares_the_fact(self):
        rt, r = make_rt(nodes=4), Region(IndexSpace(16))
        first = equal_partition(r.ispace, 4)
        rt.place(r, first)
        homes = rt._home[r.uid].pieces()
        for _ in range(5):
            rt.place(r, equal_partition(r.ispace, 4))
        res = rt._residency[r.uid]
        assert res.whole == {first.key[1]: ([0, 1, 2, 3],)}
        assert rt._home[r.uid].pieces() == homes
        rt.reset_residency()
        assert len(rt._residency[r.uid].whole) == 1

    def test_an_equal_partition_on_other_processors_adds_its_processors(self):
        rt, r = make_rt(nodes=4), Region(IndexSpace(16))
        rt.place(r, equal_partition(r.ispace, 4))
        other = equal_partition(r.ispace, 4)
        rt.place(r, other, lambda c: 3 - c)
        res = rt._residency[r.uid]
        assert res.whole == {other.key[1]: ([0, 1, 2, 3], [3, 2, 1, 0])}
        rt.place(r, equal_partition(r.ispace, 4), lambda c: 3 - c)
        assert res.whole == {other.key[1]: ([0, 1, 2, 3], [3, 2, 1, 0])}

    def test_an_equal_partition_launches_at_home_under_a_shared_fact(self):
        rt, r = make_rt(nodes=4), Region(IndexSpace(16))
        rt.place(r, equal_partition(r.ispace, 4))
        twin = equal_partition(r.ispace, 4)
        rt.place(r, twin)
        rt.reset_residency()
        calls = []

        def launch():
            calls.append(1)
            return [Work(1, 1)] * 4

        step = rt.index_launch("t", range(4), launch, [RegionReq(r, twin, Privilege.READ_ONLY)])
        assert calls == [1] and step.comm_events == [] and step.tasks_launched == 4
        # on other processors the same pieces must move
        other = rt.index_launch("u", range(4), lambda: [Work(1, 1)] * 4,
                                [RegionReq(r, twin, Privilege.READ_ONLY)],
                                proc_map=lambda c: (c + 1) % 4)
        assert len(other.comm_events) == 4


class TestAHeldPlacementChangesNothing:
    """Placing what the homes hold already — a partition a fact names, an
    equal one, one whose every piece is a home, a replica — changes
    nothing: not the state, the homes' version or rows, the traces, nor the
    live table; also on a pickled runtime, which holds the same facts."""

    @staticmethod
    def _placements(r):
        """Per kind, a fresh equal placement of ``r`` on each call."""
        rows = lambda: equal_partition(r.ispace, 4)  # noqa: E731
        strided = lambda: Partition(r.ispace, {  # noqa: E731
            c: ArraySubset(np.arange(c, 16, 4)) for c in range(4)})
        return {
            "rects": lambda rt: rt.place(r, rows()),
            "index-list": lambda rt: rt.place(r, strided()),
            "replicated": lambda rt: rt.place_replicated(r),
        }

    @staticmethod
    def _held(rt, r):
        homes = rt._home[r.uid]
        return (rt._state, rt._homes_version,
                {key: id(trace) for key, trace in rt._traces.items()},
                id(rt._residency),
                [col.tobytes() for col in (homes.starts, homes.ends,
                                           homes.owners, homes.arrivals)])

    @pytest.mark.parametrize("kind", ["rects", "index-list", "replicated"])
    def test_re_placing_a_held_partition(self, kind):
        import pickle

        rt, r = make_rt(nodes=4), Region(IndexSpace(16))
        place = self._placements(r)[kind]
        place(rt)
        rt.reset_residency()
        # a launch that stages leaves a recorded trace and a post state
        step = rt.index_launch("t", range(4), lambda: [Work(1, 1)] * 4,
                               [RegionReq(r, equal_partition(r.ispace, 4),
                                          Privilege.READ_ONLY)],
                               proc_map=lambda c: (c + 1) % 4)
        assert rt._traces and (kind == "replicated") == (not step.comm_events)
        for x in (rt, pickle.loads(pickle.dumps(rt))):
            held = self._held(x, r)
            place(x)
            place(x)
            assert self._held(x, r) == held

    def test_a_placement_adding_a_home_moves_the_state(self):
        rt, r = make_rt(nodes=4), Region(IndexSpace(16))
        rt.place(r, equal_partition(r.ispace, 4))
        state = rt._state, rt._homes_version
        rt.place(r, equal_partition(r.ispace, 2))
        assert (rt._state, rt._homes_version) != state
        assert len(rt._home[r.uid].pieces()) == 6


class TestWriteCoherence:
    def test_write_invalidates_other_copies(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        rt.place_replicated(r)
        p = equal_partition(r.ispace, 2)
        rt.index_launch(
            "w", [0, 1], lambda: [Work(1, 1)] * 2, [RegionReq(r, p, Privilege.WRITE_DISCARD)]
        )
        # proc 1's copy of [0..3] was invalidated by proc 0's write
        res = rt._residency[r.uid]
        assert res.covered_volume(1, p[0]) == 0
        assert res.covered_volume(0, p[0]) == 4


class TestReduction:
    def test_reduce_charges_only_aliased_overlap(self):
        rt = make_rt()
        out = Region(IndexSpace(10))
        # aliased output partition: both pieces share row 5
        part = Partition(
            out.ispace, {0: RectSubset(Rect(0, 5)), 1: RectSubset(Rect(5, 9))}
        )
        rt.place(out, part)
        step = rt.index_launch(
            "r", [0, 1], lambda: [Work(1, 1)] * 2, [RegionReq(out, part, Privilege.REDUCE)]
        )
        # each piece sends only the 1 shared element to the other's home
        assert step.comm_bytes() == 2 * 1 * 8

    def test_disjoint_reduce_free(self):
        rt = make_rt()
        out = Region(IndexSpace(10))
        part = equal_partition(out.ispace, 2)
        rt.place(out, part)
        step = rt.index_launch(
            "r", [0, 1], lambda: [Work(1, 1)] * 2, [RegionReq(out, part, Privilege.REDUCE)]
        )
        assert step.comm_bytes() == 0


class TestStreaming:
    def test_streamed_repays_every_launch(self):
        rt = make_rt()
        r = Region(IndexSpace(100))
        rt.place_on(r, 0)
        req = RegionReq(r, None, Privilege.READ_ONLY, streamed=True)
        s1 = rt.index_launch("t", [1], lambda: [Work(1, 1)], [req],
                             proc_map=lambda c: 1)
        s2 = rt.index_launch("t", [1], lambda: [Work(1, 1)], [req],
                             proc_map=lambda c: 1)
        assert s1.comm_bytes() == 100 * 8
        assert s2.comm_bytes() == 100 * 8  # never resident

    def test_streamed_does_not_count_against_capacity(self):
        tiny = NodeSpec(dram_bytes=1024.0)
        rt = Runtime(Machine.cpu(2, tiny))
        r = Region(IndexSpace(4096))  # 32KB > 1KB capacity
        rt.place_on(r, 0)
        req = RegionReq(r, None, Privilege.READ_ONLY, streamed=True)
        rt.index_launch("t", [1], lambda: [Work(1, 1)], [req], proc_map=lambda c: 1)


class TestCapacity:
    def test_oom_on_staging(self):
        tiny = NodeSpec(dram_bytes=64.0)
        rt = Runtime(Machine.cpu(2, tiny))
        r = Region(IndexSpace(100))  # 800B > 64B
        rt.place_on(r, 0)
        with pytest.raises(OOMError):
            rt.index_launch(
                "t", [1], lambda: [Work(1, 1)],
                [RegionReq(r, None, Privilege.READ_ONLY)],
                proc_map=lambda c: 1,
            )

    def test_oom_message_mentions_capacity(self):
        err = OOMError(3, 2.0 * 2**30, 1.0 * 2**30, what="staging x")
        assert "3" in str(err) and "2.00 GiB" in str(err)


class TestMetricsRollup:
    def test_simulated_seconds_positive_and_additive(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        p = equal_partition(r.ispace, 2)
        rt.place(r, p)
        a = rt.index_launch("a", [0, 1], lambda: [Work(1e6, 1e6)] * 2,
                            [RegionReq(r, p, Privilege.READ_ONLY)])
        b = rt.index_launch("b", [0, 1], lambda: [Work(1e6, 1e6)] * 2,
                            [RegionReq(r, p, Privilege.READ_ONLY)])
        t1 = ExecutionMetrics([a]).simulated_seconds(rt.network)
        assert ExecutionMetrics([a, b]).simulated_seconds(rt.network) > t1 > 0

    def test_a_launch_returns_its_own_step(self):
        """Each launch returns a step of its own; a later launch leaves an
        earlier one as it was returned."""
        rt = make_rt()
        r = Region(IndexSpace(8))
        p = equal_partition(r.ispace, 2)
        rt.place(r, p)
        reqs = [RegionReq(r, p, Privilege.READ_ONLY)]
        a = rt.index_launch("a", [0, 1], lambda: [Work(1e6, 1e6)] * 2, reqs)
        kept = (dict(a.compute_seconds), list(a.comm_events), a.tasks_launched)
        b = rt.index_launch("b", [0, 1], lambda: [Work(2e6, 2e6)] * 2, reqs)
        assert (a.name, b.name) == ("a", "b")
        assert (dict(a.compute_seconds), list(a.comm_events), a.tasks_launched) == kept
        assert a.tasks_launched == b.tasks_launched == 2
        assert set(a.compute_seconds) == set(b.compute_seconds) == {0, 1}
        assert b.max_compute() > a.max_compute() > 0

    def test_an_execution_without_steps_prices_zero(self):
        m = ExecutionMetrics()
        seconds = m.simulated_seconds(Network.legion())
        assert seconds == 0.0 and isinstance(seconds, float)
        assert m.total_comm_bytes() == 0.0 and isinstance(m.total_comm_bytes(), float)
        assert m.total_tasks() == 0

    def test_load_imbalance_measure(self):
        rt = make_rt()
        works = [Work(4e6, 0), Work(1e6, 0)]
        step = rt.index_launch("a", [0, 1], lambda: works, [])
        assert step.load_imbalance() == pytest.approx(4 / 2.5)
