"""Mapping-trace replay: record, replay, state tracking, invalidation, the
SpAdd assembly chain, and launches that leave no step log behind."""
import contextlib

import numpy as np
import pytest

from repro.legion import (
    CommEvent,
    ExecutionMetrics,
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


def make_rt(nodes=2, **kw):
    return Runtime(Machine.cpu(nodes), **kw)


class RederivingRuntime(Runtime):
    """The re-derive side of the replay oracle: no launch finds a trace, so
    every one runs the staging and coherence analysis afresh."""

    def index_launch(self, *args, **kw):
        self._traces.clear()
        return super().index_launch(*args, **kw)


def mismatched(rt, n=8):
    """A region whose home placement mismatches the launch partition, so
    every fresh-trial launch stages real communication."""
    r = Region(IndexSpace(n))
    home = Partition(r.ispace, {0: RectSubset(Rect(0, n - 3)),
                                1: RectSubset(Rect(n - 2, n - 1))})
    rt.place(r, home)
    req = equal_partition(r.ispace, 2)
    return r, [RegionReq(r, req, Privilege.READ_ONLY)]


class TestRecordReplay:
    def test_second_trial_replays_identical_comm(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        s1 = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_records == 1
        rt.reset_residency()
        s2 = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_hits == 1
        assert s1.comm_bytes() == s2.comm_bytes() > 0
        assert [(e.src_proc, e.dst_proc, e.nbytes) for e in s1.comm_events] == \
               [(e.src_proc, e.dst_proc, e.nbytes) for e in s2.comm_events]
        assert s1.tasks_launched == s2.tasks_launched
        assert s1.compute_seconds == s2.compute_seconds

    def test_replay_matches_unreplayed_runtime(self):
        """Replayed metrics are bit-identical to re-derived ones."""
        results = []
        for rt in (make_rt(), RederivingRuntime(Machine.cpu(2))):
            r, reqs = mismatched(rt)
            steps = []
            for _ in range(3):
                rt.reset_residency()
                steps.append(rt.index_launch("t", [0, 1], lambda: [Work(2, 5)] * 2, reqs))
            results.append([
                (s.comm_bytes(), s.tasks_launched, dict(s.compute_seconds),
                 [(e.src_proc, e.dst_proc, e.nbytes, e.same_node)
                  for e in s.comm_events])
                for s in steps
            ])
        assert results[0] == results[1]

    def test_tasks_still_execute_on_replay(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        calls = []
        rt.index_launch("t", [0, 1], lambda: [calls.append(c) or Work(1, 1) for c in [0, 1]], reqs)
        rt.reset_residency()
        rt.index_launch("t", [0, 1], lambda: [calls.append(c) or Work(1, 1) for c in [0, 1]], reqs)
        assert calls == [0, 1, 0, 1]  # values may change: bodies always run

    def test_chained_launches_replay(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("a", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        rt.index_launch("b", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_records == 2
        rt.reset_residency()
        rt.index_launch("a", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        rt.index_launch("b", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_hits == 2

    @pytest.mark.parametrize("same", [False, True], ids=["fresh_works", "same_works"])
    def test_a_returned_step_shares_nothing_with_its_trace(self, same):
        """A caller may keep or change the step a launch returned: the next
        replay books what was recorded, whether it prices a fresh Work list
        or reuses what it booked last for the same one."""
        rt = make_rt()
        r, reqs = mismatched(rt)
        works = [Work(1, 1), Work(1, 1)]
        launch = (lambda: works) if same else (lambda: list(works))

        def trial():
            rt.reset_residency()
            return rt.index_launch("t", [0, 1], launch, reqs)

        first = trial()
        recorded = (list(first.comm_events), dict(first.compute_seconds),
                    first.tasks_launched)
        for step in (first, trial()):
            step.comm_events.append(CommEvent(0, 1, 1e9, False))
            step.compute_seconds[0] += 5.0
            step.tasks_launched += 7
        again = trial()
        assert rt.trace_hits == 2
        assert (again.comm_events, again.compute_seconds,
                again.tasks_launched) == recorded
        assert recorded[0] and recorded[2] == 2

    def test_residency_restored_after_replay(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        cov1 = rt._residency[r.uid].covered_volume(1, reqs[0].partition[1])
        rt.reset_residency()
        rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        cov2 = rt._residency[r.uid].covered_volume(1, reqs[0].partition[1])
        assert cov1 == cov2 == reqs[0].partition[1].volume


class TestStateTracking:
    def test_different_launch_name_records_fresh(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("a", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        rt.reset_residency()
        rt.index_launch("b", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_hits == 0 and rt.trace_records == 2

    def test_out_of_band_place_prevents_replay(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        rt.reset_residency()
        other = Region(IndexSpace(4))
        rt.place_on(other, 1)  # residency changed out of band
        rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_hits == 0 and rt.trace_records == 2

    def test_a_rederiving_runtime_records_every_launch(self):
        """The oracle's re-derive side never replays, so the replay oracle
        compares replay against analysis, not against another replay."""
        rt = RederivingRuntime(Machine.cpu(2))
        r, reqs = mismatched(rt)
        steps = []
        for _ in range(3):
            rt.reset_residency()
            steps.append(rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs))
        assert rt.trace_records == 3 and rt.trace_hits == 0
        assert len({s.comm_bytes() for s in steps}) == 1
        assert steps[0].comm_bytes() > 0

    def test_reset_residency_keeps_traces(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        rt.reset_residency()
        rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_hits == 1

class TestEqualPartitionsShareTraces:
    """A trace key names a partition by its content (colors and pieces), so
    a launch over an equal partition replays the trace another partition
    object recorded, however either was built."""

    def _pair(self, partition):
        rt = make_rt()
        r, reqs = mismatched(rt)
        first = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        rt.reset_residency()
        other = [RegionReq(r, partition(r), Privilege.READ_ONLY)]
        second = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, other)
        return rt, first, second

    def test_an_equal_partition_replays(self):
        rt, first, second = self._pair(lambda r: equal_partition(r.ispace, 2))
        assert (rt.trace_hits, rt.trace_records) == (1, 1)
        assert second.comm_events == first.comm_events and first.comm_bytes() > 0

    def test_other_bounds_record(self):
        rt, _, _ = self._pair(lambda r: Partition(r.ispace, {
            0: RectSubset(Rect(0, 2)), 1: RectSubset(Rect(3, 7))}))
        assert (rt.trace_hits, rt.trace_records) == (0, 2)

    @pytest.mark.parametrize("piece", ["rect", "index list"])
    def test_a_partition_built_from_pieces_is_named_by_its_pieces(self, piece):
        from repro.legion import ArraySubset

        def built(r):
            return Partition(r.ispace, {
                c: RectSubset(Rect(4 * c, 4 * c + 3)) if piece == "rect"
                else ArraySubset(np.arange(4 * c, 4 * c + 4)) for c in (0, 1)})

        rt = make_rt()
        r, _ = mismatched(rt)
        steps = []
        for _ in range(2):
            rt.reset_residency()
            steps.append(rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2,
                                         [RegionReq(r, built(r), Privilege.READ_ONLY)]))
        assert (rt.trace_hits, rt.trace_records) == (1, 1)
        assert steps[1].comm_events == steps[0].comm_events and steps[0].comm_bytes() > 0

    def test_an_index_list_and_a_rect_over_the_same_points_are_apart(self):
        """A piece's kind is part of its name: a residency table holds an
        index list and a rect over the same points as two pieces."""
        from repro.legion import ArraySubset

        space = IndexSpace(8)
        head = ArraySubset(np.array([0, 2]))
        mixed, lists = (Partition(space, {0: head, 1: tail}) for tail in (
            RectSubset(Rect(4, 7)), ArraySubset(np.arange(4, 8))))
        assert mixed.bounds is None and lists.bounds is None
        assert mixed.key[0] == lists.key[0] and mixed.key[1] != lists.key[1]

    def test_equal_index_lists_built_apart_share_one_trace_and_one_fact(self):
        from repro.legion import ArraySubset

        rt = make_rt()
        r = Region(IndexSpace(8))
        first, second = (Partition(r.ispace, {c: ArraySubset(np.arange(c, 8, 2))
                                              for c in (0, 1)}) for _ in range(2))
        for part in (first, second):
            rt.place(r, part)
        assert first.key == second.key
        assert rt._residency[r.uid].whole == {first.key[1]: ([0, 1],)}
        steps = []
        for part in (first, second):
            rt.reset_residency()
            steps.append(rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2,
                                         [RegionReq(r, part, Privilege.READ_ONLY)],
                                         proc_map=lambda c: 1 - c))
        assert (rt.trace_hits, rt.trace_records) == (1, 1) and len(rt._traces) == 1
        assert steps[1].comm_events == steps[0].comm_events and steps[0].comm_bytes() > 0

    def test_a_copy_is_named_as_its_source(self):
        rt, first, second = self._pair(lambda r: equal_partition(r.ispace, 2).copy("c"))
        assert (rt.trace_hits, rt.trace_records) == (1, 1)

    @pytest.mark.parametrize("strategy", ["rows", "nonzeros"])
    def test_kernels_over_equal_partitions_share_traces(self, strategy):
        """Two compiles of one statement (no kernel cache) derive equal,
        distinct partitions; after the second kernel's launch, the first
        kernel replays that trace, with the events re-derivation books."""
        import scipy.sparse as sp

        from repro.api import auto_schedule
        from repro.core.compiler import compile_statement
        from repro.taco import CSR, Tensor, index_vars

        machine = Machine.cpu(4)
        B = Tensor.from_scipy("B", sp.random(40, 40, density=0.1, format="csr",
                                             random_state=1), CSR)
        c, a = Tensor.from_dense("c", np.arange(40.0)), Tensor.zeros("a", (40,))

        def kernel():
            i, j = index_vars("i j")
            a[i] = B[i, j] * c[j]
            return compile_statement(auto_schedule(a, machine, strategy=strategy),
                                     machine, use_cache=False)

        ck1, ck2 = kernel(), kernel()
        assert ck1.parts[B].vals_part is not ck2.parts[B].vals_part
        steps = []
        for rt in (Runtime(machine), RederivingRuntime(machine)):
            ck1.execute(rt)
            ck1.execute(rt)
            ck2.execute(rt)
            records = rt.trace_records
            steps.append(ck1.execute(rt).metrics.steps)
            if type(rt) is Runtime:
                assert rt.trace_records == records  # replayed ck2's trace
        assert steps[0] == steps[1]


class TestReductionReplay:
    def test_reduce_comm_replayed(self):
        rt = make_rt()
        out = Region(IndexSpace(10))
        part = Partition(out.ispace, {0: RectSubset(Rect(0, 5)),
                                      1: RectSubset(Rect(5, 9))})
        rt.place(out, part)
        reqs = [RegionReq(out, part, Privilege.REDUCE)]
        s1 = rt.index_launch("r", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        rt.reset_residency()
        s2 = rt.index_launch("r", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_hits == 1
        assert s1.comm_bytes() == s2.comm_bytes() == 2 * 1 * 8


class TestSteadyStateLoops:
    def test_resident_data_loop_replays_without_reset(self):
        """fresh_trial=False style loops (no reset between launches) reach a
        residency fixpoint and replay instead of re-recording forever."""
        rt = make_rt()
        r, reqs = mismatched(rt)
        for _ in range(10):
            rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        # launch 1 stages (records), launch 2 records the fixpoint state,
        # launches 3..10 replay it
        assert rt.trace_records == 2
        assert rt.trace_hits == 8
        assert len(rt._traces) == 2

    def test_write_loop_reaches_fixpoint(self):
        rt = make_rt()
        out = Region(IndexSpace(8))
        part = equal_partition(out.ispace, 2)
        rt.place(out, part)
        reqs = [RegionReq(out, part, Privilege.WRITE_DISCARD)]
        for _ in range(6):
            rt.index_launch("w", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_hits >= 4  # steady state replays

    def test_a_cold_launch_after_a_rederived_warm_one_restages(self):
        """A launch re-derived from a warm state records under that state's
        token; the cold launch after a reset must re-pay staging, not replay
        the warm trace."""
        rt = make_rt()
        r, reqs = mismatched(rt)
        s_first = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        rt._traces.clear()
        s_warm = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        rt.reset_residency()  # true homes-only state
        s_cold = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert (rt.trace_records, rt.trace_hits) == (3, 0)
        assert s_warm.comm_bytes() == 0
        assert s_cold.comm_bytes() == s_first.comm_bytes() > 0

    def test_duplicate_residency_adds_are_skipped(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        rt.place_on(r, 0)
        res = rt._residency[r.uid]
        n = len(res.pieces())
        res.add(0, r.ispace.full_subset())
        assert len(res.pieces()) == n  # structurally equal: not re-added

class TestTraceBackstop:
    """A runtime keeps at most 512 traces: a recording past that evicts the
    one least recently recorded or replayed, and only that one."""

    @staticmethod
    def _launch(rt, name, reqs=()):
        return rt.index_launch(name, [0, 1], lambda: [Work(1, 1)] * 2, reqs)

    def test_a_513th_recording_evicts_the_least_recently_used(self):
        rt = make_rt()
        for i in range(512):
            self._launch(rt, f"t{i}")
        assert len(rt._traces) == 512 and rt.trace_records == 512
        self._launch(rt, "t0")  # a replay: now the most recently used
        assert rt.trace_hits == 1
        self._launch(rt, "t512")
        names = [key[1] for key in rt._traces]
        assert len(names) == 512 and rt.trace_records == 513
        assert names[0] == "t2" and names[-2:] == ["t0", "t512"] and "t1" not in names
        self._launch(rt, "t0")
        assert (rt.trace_hits, rt.trace_records) == (2, 513)
        self._launch(rt, "t1")
        assert (rt.trace_hits, rt.trace_records) == (2, 514)

    def test_a_pickled_runtime_keeps_the_order_of_use(self):
        import pickle

        rt = make_rt()
        r = Region(IndexSpace(8))
        part = equal_partition(r.ispace, 2)
        rt.place(r, part)
        reqs = [RegionReq(r, part, Privilege.READ_ONLY)]
        for name in "abc":
            self._launch(rt, name, reqs)
        self._launch(rt, "a", reqs)
        assert [key[1] for key in rt._traces] == ["b", "c", "a"]
        rt2, reqs2 = pickle.loads(pickle.dumps((rt, reqs)))
        assert [key[1] for key in rt2._traces] == ["b", "c", "a"]
        self._launch(rt2, "b", reqs2)
        assert rt2.trace_hits == 1 and rt2.trace_records == 0
        assert [key[1] for key in rt2._traces] == ["c", "a", "b"]


class TestSpAddReplay:
    """The SpAdd assembly chain (symbolic -> scan -> fill) replays across
    iterations: the per-execute output re-assembly no longer re-records."""

    def iterate(self, rt, iterations, *, cached=True, seed=3):
        import scipy.sparse as sp

        from repro.core import cache_stats, clear_caches, compile_kernel
        from repro.core.cache import caches_disabled
        from repro.taco import CSR, Tensor, index_vars

        r = np.random.default_rng(seed)
        mats = [sp.random(50, 40, density=0.08, random_state=r, format="csr")
                for _ in range(3)]
        B, C, D = (Tensor.from_scipy(n, m, CSR) for n, m in zip("BCD", mats))
        A = Tensor.zeros("A", (50, 40), CSR)
        machine = rt.machine
        sims, kernels = [], []
        ctx = caches_disabled() if not cached else contextlib.nullcontext()
        with ctx:
            for _ in range(iterations):
                i, j, io, ii = index_vars("i j io ii")
                A[i, j] = B[i, j] + C[i, j] + D[i, j]
                s = A.schedule().divide(i, io, ii, 2).distribute(io)
                ck = compile_kernel(s, machine, use_cache=cached)
                res = ck.execute(rt)
                sims.append(res.metrics.simulated_seconds(rt.network))
                kernels.append(ck)
        ref = (mats[0] + mats[1] + mats[2]).toarray()
        return sims, kernels, np.allclose(A.to_dense(), ref)

    def test_iterative_spadd_replays_not_rerecords(self):
        from repro.core import clear_caches

        clear_caches()
        rt = make_rt()
        iterations = 5
        sims, kernels, numerics_ok = self.iterate(rt, iterations)
        clear_caches()
        assert numerics_ok
        # one compile, reused every iteration (output re-assembly must not
        # change the fingerprint)
        assert all(k is kernels[0] for k in kernels)
        # the chain records once (symbolic + fill) and replays after
        assert rt.trace_records == 2
        assert rt.trace_hits == 2 * (iterations - 1)
        assert len(set(sims)) == 1  # value-identical iterations

    def test_assembled_fingerprint_excludes_lhs_version_for_aliased_forms(self):
        """Every assembled statement — including ``A = B + A`` and the
        ``accumulate`` sugar — excludes the LHS pattern version from its
        fingerprint: execution snapshots aliased operand arrays before the
        install, so each re-assembly reuses the kernel and replays."""
        import scipy.sparse as sp

        from repro.core import kernel_fingerprint
        from repro.legion import Machine
        from repro.taco import CSR, Tensor, index_vars

        r = np.random.default_rng(1)
        B = Tensor.from_scipy(
            "B", sp.random(20, 16, density=0.2, random_state=r, format="csr"), CSR
        )
        A = Tensor.zeros("A", (20, 16), CSR)
        machine = Machine.cpu(2)

        def fp():
            i, j = index_vars("i j")
            from repro.taco.expr import Add

            A.assignment = None
            A[i, j] = Add([B[i, j], A[i, j]])
            return kernel_fingerprint(A.schedule(), machine)

        f1, f2 = fp(), fp()
        assert f1 == f2
        A._bump_pattern_version()  # what install_assembled_output does
        assert fp() == f1

        # The accumulate sugar (A = A + B + C) strips A from the operands
        # but still reads it — execution re-adds it from a snapshot, so
        # the fingerprint excludes its version too.
        D = Tensor.zeros("D", (20, 16), CSR)

        def fp_acc():
            i, j = index_vars("i j")
            D[i, j] = D[i, j] + B[i, j] + B[i, j]
            assert D.assignment.accumulate
            return kernel_fingerprint(D.schedule(), machine)

        a1 = fp_acc()
        D._bump_pattern_version()
        assert fp_acc() == a1

        # An operand that is *not* the LHS keeps its version in the key.
        b1 = fp()
        B._bump_pattern_version()
        assert fp() != b1

        # Non-aliased statements exclude the LHS version as before.
        C = Tensor.zeros("C", (20, 16), CSR)

        def fp_out():
            i, j = index_vars("i j")
            from repro.taco.expr import Add

            C[i, j] = Add([B[i, j], B[i, j]])
            return kernel_fingerprint(C.schedule(), machine)

        g1 = fp_out()
        C._bump_pattern_version()
        assert fp_out() == g1

    def test_spadd_cached_metrics_match_seed_path(self):
        """Replay is a wall-clock optimization of the simulator: the cached
        chain's simulated metrics equal the seed path's, iteration for
        iteration."""
        from repro.core import clear_caches

        clear_caches()
        sims_c, _, ok_c = self.iterate(make_rt(), 4, cached=True)
        clear_caches()
        sims_u, _, ok_u = self.iterate(RederivingRuntime(Machine.cpu(2)), 4,
                                       cached=False)
        clear_caches()
        assert ok_c and ok_u
        assert sims_c == pytest.approx(sims_u)


class TestNoStepLog:
    """A launch returns its step; the runtime keeps none of them."""

    def test_the_runtime_keeps_no_step(self):
        import weakref

        rt = make_rt()
        r, reqs = mismatched(rt)
        refs = []
        for _ in range(3):
            rt.reset_residency()
            refs.append(weakref.ref(
                rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)))
        assert not hasattr(rt, "metrics")
        assert [ref() for ref in refs] == [None] * 3
        assert (rt.trace_records, rt.trace_hits) == (1, 2)

    def test_a_long_loop_totals_what_rederiving_totals(self):
        """The steps 100 replayed launches returned total exactly what 100
        re-derived launches return."""
        totals = []
        for rt in (make_rt(), RederivingRuntime(Machine.cpu(2))):
            r, reqs = mismatched(rt)
            steps = []
            for _ in range(100):
                rt.reset_residency()
                steps.append(rt.index_launch("t", [0, 1], lambda: [Work(3, 7)] * 2, reqs))
            m = ExecutionMetrics(steps)
            totals.append((m.simulated_seconds(rt.network),
                           m.total_comm_bytes(), m.total_tasks()))
            assert rt.trace_records + rt.trace_hits == 100
        assert totals[0] == totals[1]
        assert totals[0][1] > 0 and totals[0][2] == 200

    def test_interleaved_kernels_return_what_each_returns_alone(self):
        """Two kernels alternating on one runtime: every execute returns
        the steps of its own launches only, equal to a solo run's."""
        import scipy.sparse as sp

        from repro.core import compile_kernel
        from repro.taco import CSR, Tensor, index_vars

        rng = np.random.default_rng(3)
        mats = [sp.random(50, 40, density=0.08, random_state=rng, format="csr")
                for _ in range(2)]
        B, C = (Tensor.from_scipy(n, m, CSR) for n, m in zip("BC", mats))
        A = Tensor.zeros("A", (50, 40), CSR)
        x, y = Tensor.from_dense("x", rng.random(40)), Tensor.zeros("y", (50,))
        machine = Machine.cpu(2)
        i, j, io, ii = index_vars("i j io ii")
        A[i, j] = B[i, j] + C[i, j]
        spadd = compile_kernel(A.schedule().divide(i, io, ii, 2).distribute(io), machine)
        y[i] = B[i, j] * x[j]
        spmv = compile_kernel(y.schedule().divide(i, io, ii, 2).distribute(io), machine)

        def signed(res):
            return ([(s.name, s.tasks_launched, s.comm_events,
                      s.compute_seconds) for s in res.metrics.steps],
                    res.simulated_seconds)

        rt = make_rt()
        together = {spadd: [], spmv: []}
        for _ in range(3):
            for ck in (spadd, spmv):
                together[ck].append(signed(ck.execute(rt)))
        for ck, names in ((spadd, ["spadd:symbolic", "spadd:scan", "spadd:fill"]),
                          (spmv, ["spmv:rows"])):
            solo = make_rt()
            assert together[ck] == [signed(ck.execute(solo)) for _ in range(3)]
            assert [name for name, *_ in together[ck][0][0]] == names

    def test_a_result_keeps_its_steps_through_later_executes(self):
        """Later executes neither change an earlier result's steps nor
        share a step object with it."""
        import scipy.sparse as sp

        from repro.core import compile_kernel
        from repro.taco import CSR, Tensor, index_vars

        rng = np.random.default_rng(4)
        B = Tensor.from_scipy("B", sp.random(40, 40, density=0.1,
                                             random_state=rng, format="csr"), CSR)
        x, y = Tensor.from_dense("x", rng.random(40)), Tensor.zeros("y", (40,))
        i, j, io, ii = index_vars("i j io ii")
        y[i] = B[i, j] * x[j]
        ck = compile_kernel(y.schedule().divide(i, io, ii, 2).distribute(io),
                            Machine.cpu(2))
        rt = make_rt()
        first = ck.execute(rt, fresh_trial=False)
        kept = [(s.name, list(s.comm_events), dict(s.compute_seconds),
                 s.tasks_launched) for s in first.metrics.steps]
        later = [ck.execute(rt, fresh_trial=False) for _ in range(4)]
        assert [(s.name, s.comm_events, s.compute_seconds, s.tasks_launched)
                for s in first.metrics.steps] == kept
        seen = {id(s) for s in first.metrics.steps}
        for res in later:
            assert len(res.metrics.steps) == len(kept)
            assert not seen & {id(s) for s in res.metrics.steps}
            seen |= {id(s) for s in res.metrics.steps}

    def test_warm_executes_leave_no_history(self):
        """After 300 warm executes of one SpMV no more memory is held than
        after 10, give or take a bound far below one step per launch."""
        import gc
        import tracemalloc

        import scipy.sparse as sp

        import repro
        from repro.api.autoschedule import auto_schedule
        from repro.taco import CSR, Tensor, index_vars

        rng = np.random.default_rng(0)
        A = sp.random(512, 512, density=0.02, random_state=rng, format="csr")
        with repro.session(nodes=4) as s:
            B = Tensor.from_scipy("B", A, CSR)
            x = Tensor.from_dense("x", rng.random(512))
            y = Tensor.zeros("y", (512,))
            i, j = index_vars("i j")
            y[i] = B[i, j] * x[j]
            sched = auto_schedule(y, pieces=4)
            for _ in range(10):
                s.execute(sched)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in range(290):
                    s.execute(sched)
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert s.runtime.trace_hits == 299
            assert np.allclose(y.vals.data, A @ x.vals.data)
        # a step log would hold ~400 B per launch here: ~115 KB
        assert grown < 32 * 1024


def equal_tables(a, b):
    """Piece-for-piece equality of two residency tables."""
    return Runtime._snapshots_equal(a, b)


def copy_table(table):
    return {uid: res.copy() for uid, res in table.items()}


class CopyingRuntime(Runtime):
    """The protocol this runtime replaced, as the reference: every restore
    copies the recorded table, so no two holders ever share one."""

    def _restore_residency(self, snapshot):
        self._residency = copy_table(snapshot)
        self._residency_shared = False


class TestSharedResidencyTables:
    """A table a trace or the homes memo holds is installed, not copied,
    and never written: the next writer takes a private copy first."""

    @pytest.mark.parametrize("pieces", [8, 64])
    def test_warm_reset_and_replay_do_no_per_piece_work(self, pieces, monkeypatch):
        from collections import Counter

        from repro.legion import residency as residency_mod
        from repro.legion import runtime as runtime_mod

        rt = make_rt(pieces)
        src, out = Region(IndexSpace(4 * pieces)), Region(IndexSpace(4 * pieces))
        part = equal_partition(out.ispace, pieces)
        rt.place(src, part)
        rt.place(out, part)
        reqs = [RegionReq(src, None, Privilege.READ_ONLY),  # a broadcast
                RegionReq(out, part, Privilege.WRITE_DISCARD)]

        def trial():
            rt.reset_residency()
            return rt.index_launch("t", range(pieces), lambda: [Work(1, 1)] * pieces, reqs)

        cold, warm = trial(), trial()
        assert (rt.trace_records, rt.trace_hits) == (1, 1)

        calls = Counter()

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            monkeypatch.setattr(owner, name, wrapper)

        for module in (runtime_mod, residency_mod):  # the runtime and its tables
            for name in ("_same", "intersect_subsets", "union_subsets",
                         "subtract_subsets", "subsets_overlap"):
                if hasattr(module, name):
                    counted(module, name)
        for name in ("add", "copy", "invalidate_others", "missing_subset"):
            counted(runtime_mod._Residency, name)
        again = trial()
        assert rt.trace_hits == 2
        assert calls == {}  # whatever the piece count
        assert again.comm_events == warm.comm_events == cold.comm_events
        assert again.comm_bytes() > 0

    def test_shared_tables_are_never_written(self):
        from repro.errors import OOMError
        from repro.legion import NodeSpec

        machine = Machine.cpu(2, NodeSpec(dram_bytes=400.0))
        rt, twin = Runtime(machine), CopyingRuntime(machine)
        r, r2, big = (Region(IndexSpace(n)) for n in (8, 8, 100))
        home = Partition(r.ispace, {0: RectSubset(Rect(0, 5)),
                                    1: RectSubset(Rect(6, 7))})
        halves = equal_partition(r.ispace, 2)
        reqs = [RegionReq(r, halves, Privilege.READ_WRITE)]
        saved = []  # (shared table, the copy taken when it was first seen)
        events = {rt: [], twin: []}  # each runtime's launches, as they returned

        def launch(x, name="t", reqs=reqs):
            step = x.index_launch(name, [0, 1], lambda: [Work(1, 1)] * 2, reqs)
            events[x].append(step.comm_events)

        def rederived(x):  # records from the memo, a trace on file or not
            x._traces.clear()
            launch(x)

        def oom(x):
            x.place_on(big, 0)
            x.reset_residency()  # the live table is the memo again
            with pytest.raises(OOMError):  # aborts after staging `big` on proc 1
                launch(x, "big", [RegionReq(big, None, Privilege.READ_ONLY)])

        steps = [
            lambda x: x.place(r, home),
            launch,                                       # records
            lambda x: (x.reset_residency(), launch(x)),   # replays
            lambda x: x.place(r2, halves),                # live table is the trace's
            launch,                                       # records from a dirty state
            lambda x: x.reset_residency(),
            rederived,                                    # live table is the memo
            lambda x: x.place_replicated(r2),
            oom,
            lambda x: x.reset_residency(),
        ]
        for step in steps:
            step(rt), step(twin)
            assert rt.resident_bytes_per_proc() == twin.resident_bytes_per_proc()
            assert rt._state == twin._state
            assert equal_tables(rt._residency, twin._residency)
            shared = [t.residency_after for t in rt._traces.values()]
            if rt._homes_table is not None:
                shared.append(rt._homes_table)
            for table in shared:
                if not any(table is seen for seen, _ in saved):
                    saved.append((table, copy_table(table)))
            for table, copy in saved:
                assert equal_tables(table, copy)
        assert (rt.trace_records, rt.trace_hits) == (3, 1)
        assert (twin.trace_records, twin.trace_hits) == (3, 1)
        assert len(saved) >= 6  # 3 launch traces, ≥ 3 memos
        assert len(events[rt]) == 4 and events[rt] == events[twin]

    @pytest.mark.parametrize("place", [
        lambda rt, r: rt.place(r, equal_partition(r.ispace, 2)),
        lambda rt, r: rt.place_replicated(r),
        lambda rt, r: rt.place_on(r, 1),
    ], ids=["place", "place_replicated", "place_on"])
    def test_place_after_reset_changes_what_the_next_reset_installs(self, place):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.reset_residency()
        first = rt._residency
        rt.reset_residency()
        assert rt._residency is first  # installed from the memo, not rebuilt
        r2 = Region(IndexSpace(4))
        place(rt, r2)
        assert r2.uid in rt._residency and r2.uid not in first
        rt.reset_residency()
        assert r2.uid in rt._residency and rt._residency is not first
        assert rt._state == ("clean", rt._homes_version)
        assert rt.resident_bytes_per_proc() == {
            p: 8.0 * sum(s.volume for u in rt._home for s, q in rt._home[u].pieces() if q == p)
            for p in (0, 1)
        }

    def test_pickled_while_the_live_table_is_a_traces_snapshot(self):
        import pickle

        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        (trace,) = rt._traces.values()
        assert rt._residency is trace.residency_after

        rt2, reqs2 = pickle.loads(pickle.dumps((rt, reqs)))
        (trace2,) = rt2._traces.values()
        assert rt2._residency is trace2.residency_after and rt2._residency_shared
        before = copy_table(trace2.residency_after)
        # a new launch records straight from the loaded state ...
        write = [RegionReq(reqs2[0].region, reqs2[0].partition, Privilege.WRITE_DISCARD)]
        rt2.index_launch("w", [0, 1], lambda: [Work(1, 1)] * 2, write)
        assert rt2.trace_records == 1
        assert not equal_tables(rt2._residency, before)  # it invalidated copies
        # ... without altering the loaded trace, which still replays
        assert equal_tables(trace2.residency_after, before)
        rt2.reset_residency()
        rt2.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs2)
        assert rt2.trace_hits == 1
        assert rt2._residency is trace2.residency_after
