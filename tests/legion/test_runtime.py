"""Runtime tests: staging, privileges, reductions, capacity, streaming."""
import numpy as np
import pytest

from repro.errors import OOMError
from repro.legion import (
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
            "t", [0, 1], lambda c: Work(1, 1), [RegionReq(r, p, Privilege.READ_ONLY)]
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
            "t", [0, 1], lambda c: Work(1, 1), [RegionReq(r, req, Privilege.READ_ONLY)]
        )
        # piece 1 needs [4..7]; owns [6..7]; missing [4..5] = 2 elems * 8B
        assert step.comm_bytes() == 2 * 8

    def test_second_trial_after_invalidate_repays(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        rt.place_on(r, 0)
        req = equal_partition(r.ispace, 2)
        reqs = [RegionReq(r, req, Privilege.READ_ONLY)]
        s1 = rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert s1.comm_bytes() == 4 * 8  # piece 1 pulls its half
        s2 = rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert s2.comm_bytes() == 0  # cached
        rt.invalidate_caches()
        s3 = rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert s3.comm_bytes() == 4 * 8  # cache dropped, home kept

    def test_replicated_home_survives_invalidation(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        rt.place_replicated(r)
        rt.invalidate_caches()
        step = rt.index_launch(
            "t", [0, 1], lambda c: Work(1, 1), [RegionReq(r, None, Privilege.READ_ONLY)]
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
            step = rt.index_launch("t", [0, 1], lambda c: Work(1, 1),
                                   [RegionReq(r, need, Privilege.READ_ONLY)])
            return [(e.src_proc, e.dst_proc, e.nbytes) for e in step.comm_events]

        once, again = make_rt(), make_rt()
        r = Region(IndexSpace(8))
        p = equal_partition(r.ispace, 2)
        once.place(r, p)
        once.place_on(r, 1)
        again.place(r, p)
        again.place_on(r, 1)
        first = list(again._home[r.uid])
        again.place(r, equal_partition(r.ispace, 2))  # equal, not identical
        again.place_on(r, 1)
        again.place(r, p)
        assert len(again._home[r.uid]) == 3
        assert all(a is b for a, b in zip(again._home[r.uid], first))
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
                assert len(s.runtime._home[B.vals.uid]) == 4
        assert trials[1] == trials[0] and trials[2] == trials[0]


class TestWriteCoherence:
    def test_write_invalidates_other_copies(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        rt.place_replicated(r)
        p = equal_partition(r.ispace, 2)
        rt.index_launch(
            "w", [0, 1], lambda c: Work(1, 1), [RegionReq(r, p, Privilege.WRITE_DISCARD)]
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
            "r", [0, 1], lambda c: Work(1, 1), [RegionReq(out, part, Privilege.REDUCE)]
        )
        # each piece sends only the 1 shared element to the other's home
        assert step.comm_bytes() == 2 * 1 * 8

    def test_disjoint_reduce_free(self):
        rt = make_rt()
        out = Region(IndexSpace(10))
        part = equal_partition(out.ispace, 2)
        rt.place(out, part)
        step = rt.index_launch(
            "r", [0, 1], lambda c: Work(1, 1), [RegionReq(out, part, Privilege.REDUCE)]
        )
        assert step.comm_bytes() == 0


class TestStreaming:
    def test_streamed_repays_every_launch(self):
        rt = make_rt()
        r = Region(IndexSpace(100))
        rt.place_on(r, 0)
        req = RegionReq(r, None, Privilege.READ_ONLY, streamed=True)
        s1 = rt.index_launch("t", [1], lambda c: Work(1, 1), [req],
                             proc_map=lambda c: 1)
        s2 = rt.index_launch("t", [1], lambda c: Work(1, 1), [req],
                             proc_map=lambda c: 1)
        assert s1.comm_bytes() == 100 * 8
        assert s2.comm_bytes() == 100 * 8  # never resident

    def test_streamed_does_not_count_against_capacity(self):
        tiny = NodeSpec(dram_bytes=1024.0)
        rt = Runtime(Machine.cpu(2, tiny))
        r = Region(IndexSpace(4096))  # 32KB > 1KB capacity
        rt.place_on(r, 0)
        req = RegionReq(r, None, Privilege.READ_ONLY, streamed=True)
        rt.index_launch("t", [1], lambda c: Work(1, 1), [req], proc_map=lambda c: 1)


class TestCapacity:
    def test_oom_on_staging(self):
        tiny = NodeSpec(dram_bytes=64.0)
        rt = Runtime(Machine.cpu(2, tiny))
        r = Region(IndexSpace(100))  # 800B > 64B
        rt.place_on(r, 0)
        with pytest.raises(OOMError):
            rt.index_launch(
                "t", [1], lambda c: Work(1, 1),
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
        rt.index_launch("a", [0, 1], lambda c: Work(1e6, 1e6),
                        [RegionReq(r, p, Privilege.READ_ONLY)])
        t1 = rt.simulated_seconds()
        rt.index_launch("b", [0, 1], lambda c: Work(1e6, 1e6),
                        [RegionReq(r, p, Privilege.READ_ONLY)])
        assert rt.simulated_seconds() > t1 > 0

    def test_reset_metrics(self):
        rt = make_rt()
        rt.index_launch("a", [0], lambda c: Work(1, 1), [])
        old = rt.reset_metrics()
        assert len(old.steps) == 1
        assert len(rt.metrics.steps) == 0

    def test_load_imbalance_measure(self):
        rt = make_rt()
        works = {0: Work(4e6, 0), 1: Work(1e6, 0)}
        step = rt.index_launch("a", [0, 1], lambda c: works[c], [])
        assert step.load_imbalance() == pytest.approx(4 / 2.5)
