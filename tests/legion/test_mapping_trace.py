"""Mapping-trace replay: record, replay, state tracking, invalidation,
copy-sequence replay, the SpAdd assembly chain, and metrics auto-trim."""
import contextlib

import numpy as np
import pytest

from repro.legion import (
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
        s1 = rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_records == 1
        rt.reset_residency()
        s2 = rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_hits == 1
        assert s1.comm_bytes() == s2.comm_bytes() > 0
        assert [(e.src_proc, e.dst_proc, e.nbytes) for e in s1.comm_events] == \
               [(e.src_proc, e.dst_proc, e.nbytes) for e in s2.comm_events]
        assert s1.tasks_launched == s2.tasks_launched
        assert s1.compute_seconds == s2.compute_seconds

    def test_replay_matches_unreplayed_runtime(self):
        """Replayed metrics are bit-identical to a replay-disabled runtime."""
        results = []
        for replay in (True, False):
            rt = make_rt(trace_replay=replay)
            r, reqs = mismatched(rt)
            steps = []
            for _ in range(3):
                rt.reset_residency()
                steps.append(rt.index_launch("t", [0, 1], lambda c: Work(2, 5), reqs))
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
        rt.index_launch("t", [0, 1], lambda c: calls.append(c) or Work(1, 1), reqs)
        rt.reset_residency()
        rt.index_launch("t", [0, 1], lambda c: calls.append(c) or Work(1, 1), reqs)
        assert calls == [0, 1, 0, 1]  # values may change: bodies always run

    def test_chained_launches_replay(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("a", [0, 1], lambda c: Work(1, 1), reqs)
        rt.index_launch("b", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_records == 2
        rt.reset_residency()
        rt.index_launch("a", [0, 1], lambda c: Work(1, 1), reqs)
        rt.index_launch("b", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_hits == 2

    def test_residency_restored_after_replay(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        cov1 = rt._residency[r.uid].covered_volume(1, reqs[0].partition[1])
        rt.reset_residency()
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        cov2 = rt._residency[r.uid].covered_volume(1, reqs[0].partition[1])
        assert cov1 == cov2 == reqs[0].partition[1].volume


class TestStateTracking:
    def test_different_launch_name_records_fresh(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("a", [0, 1], lambda c: Work(1, 1), reqs)
        rt.reset_residency()
        rt.index_launch("b", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_hits == 0 and rt.trace_records == 2

    def test_out_of_band_place_prevents_replay(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        rt.reset_residency()
        other = Region(IndexSpace(4))
        rt.place_on(other, 1)  # residency changed out of band
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_hits == 0 and rt.trace_records == 2

    def test_copy_subset_prevents_replay(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        rt.reset_residency()
        step = rt.metrics.new_step("copy")
        rt.copy_subset(step, r, RectSubset(Rect(0, 3)), 1)
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_hits == 0

    def test_invalidate_caches_drops_traces(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        rt.invalidate_caches()  # out-of-band write hook
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_hits == 0 and rt.trace_records == 2

    def test_reset_residency_keeps_traces(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        rt.reset_residency()
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_hits == 1

    def test_disabled_replay_never_records(self):
        rt = make_rt(trace_replay=False)
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        rt.reset_residency()
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_records == 0 and rt.trace_hits == 0


class TestReductionReplay:
    def test_reduce_comm_replayed(self):
        rt = make_rt()
        out = Region(IndexSpace(10))
        part = Partition(out.ispace, {0: RectSubset(Rect(0, 5)),
                                      1: RectSubset(Rect(5, 9))})
        rt.place(out, part)
        reqs = [RegionReq(out, part, Privilege.REDUCE)]
        s1 = rt.index_launch("r", [0, 1], lambda c: Work(1, 1), reqs)
        rt.reset_residency()
        s2 = rt.index_launch("r", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_hits == 1
        assert s1.comm_bytes() == s2.comm_bytes() == 2 * 1 * 8


class TestSteadyStateLoops:
    def test_resident_data_loop_replays_without_reset(self):
        """fresh_trial=False style loops (no reset between launches) reach a
        residency fixpoint and replay instead of re-recording forever."""
        rt = make_rt()
        r, reqs = mismatched(rt)
        for _ in range(10):
            rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
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
            rt.index_launch("w", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_hits >= 4  # steady state replays

    def test_duplicate_residency_adds_are_skipped(self):
        rt = make_rt()
        r = Region(IndexSpace(8))
        rt.place_on(r, 0)
        res = rt._residency[r.uid]
        n = len(res.by_proc[0])
        res.add(0, r.ispace.full_subset())
        assert len(res.by_proc[0]) == n  # structurally equal: not re-added

    def test_reenabling_replay_after_untracked_launch_is_safe(self):
        """Launches with trace_replay off mutate residency; flipping the
        flag back on must not record from (and replay against) a stale
        'clean' state token."""
        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.trace_replay = False
        s_warm = rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        rt.trace_replay = True
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)  # records (warm)
        rt.reset_residency()  # true homes-only state
        s_cold = rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        # the cold launch must re-pay staging, not replay the warm trace
        assert s_cold.comm_bytes() == s_warm.comm_bytes() > 0


class TestCopyReplay:
    """`communicate`-lowered copy_subset sequences record and replay."""

    def test_repeated_copy_launch_chain_replays(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        subset = RectSubset(Rect(0, 3))

        def trial():
            rt.reset_residency()
            step = rt.metrics.new_step("copy")
            rt.copy_subset(step, r, subset, 1)
            launch = rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
            return step.comm_bytes(), launch.comm_bytes()

        first = trial()
        assert rt.trace_records == 2 and rt.trace_hits == 0
        second = trial()
        assert rt.trace_hits == 2 and rt.trace_records == 2
        assert second == first
        assert first[0] > 0

    def test_copy_of_resident_subset_self_loops(self):
        """A copy that moves nothing leaves the state unchanged, so the
        surrounding launch chain keeps replaying."""
        rt = make_rt()
        r = Region(IndexSpace(8))
        rt.place_on(r, 1)  # already fully resident on proc 1
        for _ in range(3):
            step = rt.metrics.new_step("copy")
            rt.copy_subset(step, r, RectSubset(Rect(0, 3)), 1)
            assert step.comm_bytes() == 0
        assert rt.trace_records == 1 and rt.trace_hits == 2

    def test_different_subset_records_fresh(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        step = rt.metrics.new_step("copy")
        rt.copy_subset(step, r, RectSubset(Rect(0, 3)), 1)
        rt.reset_residency()
        step = rt.metrics.new_step("copy")
        rt.copy_subset(step, r, RectSubset(Rect(0, 5)), 1)
        assert rt.trace_hits == 0 and rt.trace_records == 2

    def test_invalidate_caches_drops_copy_traces(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        subset = RectSubset(Rect(0, 3))
        step = rt.metrics.new_step("copy")
        rt.copy_subset(step, r, subset, 1)
        rt.invalidate_caches()
        step = rt.metrics.new_step("copy")
        rt.copy_subset(step, r, subset, 1)
        assert rt.trace_hits == 0 and rt.trace_records == 2

    def test_disabled_replay_copies_mark_dirty(self):
        rt = make_rt(trace_replay=False)
        r, reqs = mismatched(rt)
        state = rt._state
        step = rt.metrics.new_step("copy")
        rt.copy_subset(step, r, RectSubset(Rect(0, 3)), 1)
        assert rt.trace_records == 0
        assert rt._state != state


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
        sims_u, _, ok_u = self.iterate(make_rt(trace_replay=False), 4,
                                       cached=False)
        clear_caches()
        assert ok_c and ok_u
        assert sims_c == pytest.approx(sims_u)


class TestMetricsAutotrim:
    def test_long_loop_keeps_bounded_steps_and_exact_totals(self):
        rt = make_rt(metrics_limit=20)
        ref = make_rt(metrics_limit=0)  # never trims
        for rt_ in (rt, ref):
            r, reqs = mismatched(rt_)
            for _ in range(100):
                rt_.reset_residency()
                rt_.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert len(rt.metrics.steps) <= 21  # trimmed between trials
        assert len(ref.metrics.steps) == 100
        assert rt.metrics.folded_steps > 0
        # totals are preserved (to float summation order: folding
        # re-associates the same per-step terms)
        assert rt.metrics.simulated_seconds(rt.network) == pytest.approx(
            ref.metrics.simulated_seconds(ref.network), rel=1e-12)
        assert rt.metrics.total_comm_bytes() == ref.metrics.total_comm_bytes()
        assert rt.metrics.total_tasks() == ref.metrics.total_tasks()
        assert rt.metrics.total_compute_seconds() == pytest.approx(
            ref.metrics.total_compute_seconds(), rel=1e-12)

    def test_trim_disabled_by_default_at_small_scale(self):
        rt = make_rt()  # default limit 1 000: nothing trims in normal tests
        r, reqs = mismatched(rt)
        for _ in range(30):
            rt.reset_residency()
            rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert len(rt.metrics.steps) == 30
        assert rt.metrics.folded_steps == 0

    def test_default_history_is_bounded_with_exact_totals(self):
        """Runtime states the default once (1 000 steps) and Session passes
        it through; a loop far past it keeps exact totals."""
        import repro

        default, in_session = make_rt(), repro.session(nodes=2).runtime
        ref = make_rt(metrics_limit=0)  # never trims
        for rt in (default, in_session, ref):
            r, reqs = mismatched(rt)
            for _ in range(2500):
                rt.reset_residency()
                rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert len(ref.metrics.steps) == 2500
        for rt in (default, in_session):
            assert rt.metrics_limit == 1000
            assert len(rt.metrics.steps) <= 1001  # the limit + the trial in flight
            assert rt.simulated_seconds() == pytest.approx(
                ref.simulated_seconds(), rel=1e-12)
            assert rt.metrics.total_comm_bytes() == ref.metrics.total_comm_bytes()

    def test_explicit_trim_metrics(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        for _ in range(10):
            rt.reset_residency()
            rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        total = rt.metrics.simulated_seconds(rt.network)
        folded = rt.trim_metrics(keep=2)
        assert folded == 8
        assert len(rt.metrics.steps) == 2
        assert rt.metrics.simulated_seconds(rt.network) == pytest.approx(
            total, rel=1e-12)

    def test_trim_never_shifts_a_trial_slice(self):
        """Auto-trim fires in reset_residency (before a trial's steps are
        sliced), so per-trial metrics stay intact mid-execution."""
        rt = make_rt(metrics_limit=4)
        r, reqs = mismatched(rt)
        for _ in range(12):
            rt.reset_residency()
            before = len(rt.metrics.steps)
            rt.index_launch("a", [0, 1], lambda c: Work(1, 1), reqs)
            rt.index_launch("b", [0, 1], lambda c: Work(1, 1), reqs)
            trial = rt.metrics.steps[before:]
            assert [s.name for s in trial] == ["a", "b"]


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
            return rt.index_launch("t", range(pieces), lambda c: Work(1, 1), reqs)

        cold, warm = trial(), trial()
        assert (rt.trace_records, rt.trace_hits) == (1, 1)

        calls = Counter()

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("_holds", "intersect_subsets", "union_subsets",
                     "subtract_subsets", "subsets_overlap"):
            counted(runtime_mod, name)
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

        def launch(x, name="t", reqs=reqs):
            return x.index_launch(name, [0, 1], lambda c: Work(1, 1), reqs)

        def untraced(x):
            x.trace_replay = False
            launch(x)
            x.trace_replay = True

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
            lambda x: x.copy_subset(x.metrics.new_step("c"), r, RectSubset(Rect(0, 3)), 1),
            lambda x: x.reset_residency(),
            untraced,                                     # live table is the memo
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
            shared += [t.residency_after for t in rt._copy_traces.values()]
            if rt._homes_table is not None:
                shared.append(rt._homes_table)
            for table in shared:
                if not any(table is seen for seen, _ in saved):
                    saved.append((table, copy_table(table)))
            for table, copy in saved:
                assert equal_tables(table, copy)
        assert (rt.trace_records, rt.trace_hits) == (3, 1)
        assert (twin.trace_records, twin.trace_hits) == (3, 1)
        assert len(saved) >= 6  # 2 launch traces, 1 copy trace, ≥ 3 memos
        assert [s.comm_events for s in rt.metrics.steps] == \
               [s.comm_events for s in twin.metrics.steps]

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
            p: 8.0 * sum(s.volume for u in rt._home for s, q in rt._home[u] if q == p)
            for p in (0, 1)
        }

    def test_invalidate_caches_still_resets(self):
        rt = make_rt()
        r, reqs = mismatched(rt)
        homes_only = rt.resident_bytes_per_proc()
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.resident_bytes_per_proc() != homes_only
        rt.invalidate_caches()
        assert rt.resident_bytes_per_proc() == homes_only
        assert not rt._traces and rt._state == ("clean", rt._homes_version)

    def test_pickled_while_the_live_table_is_a_traces_snapshot(self):
        import pickle

        rt = make_rt()
        r, reqs = mismatched(rt)
        rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        (trace,) = rt._traces.values()
        assert rt._residency is trace.residency_after

        rt2, reqs2 = pickle.loads(pickle.dumps((rt, reqs)))
        (trace2,) = rt2._traces.values()
        assert rt2._residency is trace2.residency_after and rt2._residency_shared
        before = copy_table(trace2.residency_after)
        # a new launch records straight from the loaded state ...
        write = [RegionReq(reqs2[0].region, reqs2[0].partition, Privilege.WRITE_DISCARD)]
        rt2.index_launch("w", [0, 1], lambda c: Work(1, 1), write)
        assert rt2.trace_records == 1
        assert not equal_tables(rt2._residency, before)  # it invalidated copies
        # ... without altering the loaded trace, which still replays
        assert equal_tables(trace2.residency_after, before)
        rt2.reset_residency()
        rt2.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs2)
        assert rt2.trace_hits == 1
        assert rt2._residency is trace2.residency_after
