"""Cache correctness: kernel cache, invalidation rules, size-aware
eviction, and partitions derived afresh by every compile."""
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    PartitioningPlan,
    cache_budgets,
    cache_stats,
    caches_disabled,
    caches_enabled,
    clear_caches,
    compile_kernel,
    dense_partition,
    invalidate_tensor,
    kernel_fingerprint,
    partition_tensor,
    set_cache_budget,
)
from repro.api.autoschedule import auto_schedule
from repro.core import SPECS
from repro.core import cache as _cache
from repro.core.passes import FUSED_SDDMM_SPMM, pipeline_plan
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check  # noqa: E402 - the seeded one-statement-per-kind builders

rng = np.random.default_rng(11)
N, M = 60, 48


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def make_tensors(seed=3):
    r = np.random.default_rng(seed)
    A = sp.random(N, M, density=0.2, random_state=r, format="csr")
    B = Tensor.from_scipy("B", A, CSR)
    c = Tensor.from_dense("c", r.random(M))
    a = Tensor.zeros("a", (N,))
    return A, B, c, a


def spmv_schedule(B, c, a, pieces=4, streamed=()):
    """Rows over ``pieces``; ``streamed`` tensors are communicated at the
    inner row loop (streamed in rounds)."""
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    s = a.schedule().divide(i, io, ii, pieces).distribute(io)
    return s.communicate(list(streamed), ii) if streamed else s


class TestKernelCache:
    def test_same_schedule_same_tensors_hits(self):
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck1 = compile_kernel(spmv_schedule(B, c, a), machine)
        ck2 = compile_kernel(spmv_schedule(B, c, a), machine)
        assert ck1 is ck2  # compile-once / run-many

    def test_fingerprint_canonicalizes_fresh_vars(self):
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        f1 = kernel_fingerprint(spmv_schedule(B, c, a), machine)
        f2 = kernel_fingerprint(spmv_schedule(B, c, a), machine)
        assert f1 == f2  # new IndexVar objects, same canonical key

    def test_equivalent_machine_hits_different_size_misses(self):
        _, B, c, a = make_tensors()
        ck1 = compile_kernel(spmv_schedule(B, c, a), Machine.cpu(4))
        ck2 = compile_kernel(spmv_schedule(B, c, a), Machine.cpu(4))
        ck3 = compile_kernel(spmv_schedule(B, c, a), Machine.cpu(2))
        assert ck1 is ck2
        assert ck3 is not ck1

    def test_different_piece_count_misses(self):
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck1 = compile_kernel(spmv_schedule(B, c, a, pieces=4), machine)
        ck2 = compile_kernel(spmv_schedule(B, c, a, pieces=2), machine)
        assert ck1 is not ck2

    def test_cached_execution_bit_identical(self):
        A, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        x = c.vals.data.copy()
        ck = compile_kernel(spmv_schedule(B, c, a), machine)
        r1 = ck.execute(Runtime(machine))
        out1 = a.vals.data.copy()
        m1 = [(s.name, s.tasks_launched, s.comm_bytes()) for s in r1.metrics.steps]

        clear_caches()
        with caches_disabled():
            ck_u = compile_kernel(spmv_schedule(B, c, a), machine, use_cache=False)
            r2 = ck_u.execute(Runtime(machine))
        out2 = a.vals.data.copy()
        m2 = [(s.name, s.tasks_launched, s.comm_bytes()) for s in r2.metrics.steps]

        assert np.array_equal(out1, out2)
        assert np.allclose(out1, A @ x)
        assert m1 == m2
        assert r1.simulated_seconds == pytest.approx(r2.simulated_seconds)

    def test_mutated_pattern_misses(self):
        A, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck1 = compile_kernel(spmv_schedule(B, c, a), machine)
        # Re-pack B with a different sparsity pattern (structural change).
        A2 = sp.random(N, M, density=0.3, random_state=np.random.default_rng(9),
                       format="csr").tocoo()
        B._pack([A2.row.astype(np.int64), A2.col.astype(np.int64)], A2.data)
        ck2 = compile_kernel(spmv_schedule(B, c, a), machine)
        assert ck2 is not ck1
        ck2.execute(Runtime(ck2.machine))
        assert np.allclose(a.vals.data, A2.tocsr() @ c.vals.data)

    def test_mutated_values_only_hits(self):
        A, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck1 = compile_kernel(spmv_schedule(B, c, a), machine)
        rt = Runtime(machine)
        ck1.execute(rt)
        B.vals.data *= 2.0  # value write: pattern unchanged
        c.vals.data[...] = rng.random(M)
        ck2 = compile_kernel(spmv_schedule(B, c, a), machine)
        assert ck2 is ck1  # kernel cache still hot
        ck2.execute(rt)
        assert np.allclose(a.vals.data, (2.0 * A) @ c.vals.data)

    def test_use_cache_false_bypasses(self):
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck1 = compile_kernel(spmv_schedule(B, c, a), machine)
        ck2 = compile_kernel(spmv_schedule(B, c, a), machine, use_cache=False)
        assert ck2 is not ck1

    def test_invalidate_tensor_drops_entries(self):
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck1 = compile_kernel(spmv_schedule(B, c, a), machine)
        assert invalidate_tensor(B) > 0
        ck2 = compile_kernel(spmv_schedule(B, c, a), machine)
        assert ck2 is not ck1


def _sweep_schedules(machine):
    """A fresh auto-scheduled statement per kind x sweep format x strategy."""
    for spec in SPECS.values():
        for fmt in spec.formats:
            for strategy in spec.strategies:
                if spec.kind == FUSED_SDDMM_SPMM:
                    chain = check._fusable_chain(machine)
                    target = pipeline_plan(chain, machine).schedules[0].assignment
                else:
                    target = check._commplan_workload(spec.kind, fmt).assignment
                yield auto_schedule(target, machine, strategy=strategy)


class TestOneFingerprintPerMiss:
    def test_post_compile_key_only_when_a_version_moved(self, monkeypatch):
        """A miss fingerprints the schedule once, and again only when
        compiling moved a statement tensor's ``pattern_version`` (an
        adopted pattern); the key it stores under is what the next lookup
        computes, so the second compile of every statement hits."""
        machine = Machine.cpu(4)
        calls = []
        fingerprint = _cache.kernel_fingerprint

        def counting(schedule, m):
            key = fingerprint(schedule, m)
            calls.append(key)
            return key

        moved = kept = 0
        for sched in _sweep_schedules(machine):
            tensors = sched.assignment.tensors()
            versions = [t.pattern_version for t in tensors]
            calls.clear()
            monkeypatch.setattr(_cache, "kernel_fingerprint", counting)
            ck = compile_kernel(sched, machine)
            monkeypatch.undo()
            post = kernel_fingerprint(sched, machine)
            if versions == [t.pattern_version for t in tensors]:
                kept += 1
                assert calls == [post]
            else:
                moved += 1
                assert len(calls) == 2 and calls[0] != post == calls[1]
            assert compile_kernel(sched, machine) is ck
        assert moved and kept  # both branches swept

    def test_cold_sweep_hits_and_misses(self):
        """Each statement of a cold sweep misses once and hits once."""
        machine = Machine.cpu(4)
        before = cache_stats()
        n = 0
        for sched in _sweep_schedules(machine):
            assert compile_kernel(sched, machine) is compile_kernel(sched, machine)
            n += 1
        after = cache_stats()
        assert n == 18  # 16 user statements + the fused kind's two strategies
        assert after["kernel_misses"] - before["kernel_misses"] == n
        assert after["kernel_hits"] - before["kernel_hits"] == n


class TestPartitionDerivation:
    """Nothing caches partitions: each derivation is fresh, and derivations
    of one tree agree in bounds and emitted plan text."""

    def bounds(self, pieces=4):
        chunk = -(-N // pieces)
        return {p: (p * chunk, min((p + 1) * chunk, N) - 1) for p in range(pieces)}

    def test_repeat_partition_is_fresh_and_equal(self):
        _, B, _, _ = make_tensors()
        p1 = partition_tensor(B, 0, "universe", self.bounds())
        p2 = partition_tensor(B, 0, "universe", self.bounds())
        assert p1 is not p2
        for a, b in zip(p1.level_positions, p2.level_positions):
            assert a is not b and np.array_equal(a.bounds, b.bounds)

    def test_repeat_dense_partition_is_fresh_and_equal(self):
        _, _, c, _ = make_tensors()
        lo, hi = np.array([0, 24]), np.array([23, M - 1])
        plans = [PartitioningPlan("first"), PartitioningPlan("second")]
        p1, p2 = (dense_partition(c, [0, 1], {0: (lo, hi)}, plan) for plan in plans)
        assert p1 is not p2 and p1.vals_part is not p2.vals_part
        assert np.array_equal(p1.vals_part.bounds, p2.vals_part.bounds)
        assert plans[0].describe() == plans[1].describe()

    def test_repeat_partition_emits_the_same_plan(self):
        _, B, _, _ = make_tensors()
        plan1 = PartitioningPlan("first")
        partition_tensor(B, 1, "universe", self.bounds(), plan1)
        plan2 = PartitioningPlan("second")
        partition_tensor(B, 1, "universe", self.bounds(), plan2)
        assert plan1.ops() == plan2.ops()
        assert plan1.describe() == plan2.describe()


class TestStreamingKeysApart:
    def test_streaming_and_resident_schedules_are_two_entries(self):
        """What a kernel streams is read from its schedule at compile, and
        the key names every ``communicate``: the streaming schedule and the
        resident one of a statement are two entries, each hitting itself
        (caching must not change metrics)."""
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck1 = compile_kernel(spmv_schedule(B, c, a), machine)
        ck2 = compile_kernel(spmv_schedule(B, c, a, streamed=[c]), machine)
        assert ck2 is not ck1
        assert (ck1._streamed, ck2._streamed) == (frozenset(), {c})
        assert compile_kernel(spmv_schedule(B, c, a), machine) is ck1
        assert compile_kernel(spmv_schedule(B, c, a, streamed=[c]), machine) is ck2


class TestSizeAwareEviction:
    @pytest.fixture(autouse=True)
    def restore_budgets(self):
        before = cache_budgets()
        yield
        set_cache_budget(kernel_bytes=before["kernel_bytes"])

    def test_kernel_entries_accounted_and_evicted(self):
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck4 = compile_kernel(spmv_schedule(B, c, a, pieces=4), machine)
        assert cache_stats()["kernel_bytes"] > 0
        set_cache_budget(kernel_bytes=1)
        ck2 = compile_kernel(spmv_schedule(B, c, a, pieces=2), machine)
        stats = cache_stats()
        assert stats["kernel_evictions"] >= 1
        assert stats["kernel_entries"] == 1
        assert compile_kernel(spmv_schedule(B, c, a, pieces=2), machine) is ck2
        assert compile_kernel(spmv_schedule(B, c, a, pieces=4), machine) is not ck4

    def test_shrinking_budget_evicts_immediately(self):
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        compile_kernel(spmv_schedule(B, c, a, pieces=4), machine)
        newest = compile_kernel(spmv_schedule(B, c, a, pieces=2), machine)
        assert cache_stats()["kernel_entries"] == 2
        set_cache_budget(kernel_bytes=1)
        assert cache_stats()["kernel_entries"] == 1
        assert compile_kernel(spmv_schedule(B, c, a, pieces=2), machine) is newest

    def test_invalidate_tensor_releases_bytes(self):
        _, B, c, a = make_tensors()
        compile_kernel(spmv_schedule(B, c, a), Machine.cpu(4))
        assert cache_stats()["kernel_bytes"] > 0
        invalidate_tensor(B)
        assert cache_stats()["kernel_bytes"] == 0


class TestSeedPathBypass:
    def test_partition_counters_read_zero(self):
        """Nothing caches partitions: the two partition counters
        ``cache_stats()`` keeps for perfbench's ledger read 0 whatever
        compiles, and no other partition counter is reported."""
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        for pieces in (4, 4, 2):
            compile_kernel(spmv_schedule(B, c, a, pieces), machine, use_cache=False)
            compile_kernel(spmv_schedule(B, c, a, pieces), machine)
        stats = cache_stats()
        assert stats["partition_hits"] == stats["partition_misses"] == 0
        assert sorted(k for k in stats if k.startswith("partition")) == [
            "partition_hits", "partition_misses"]
        assert set(cache_budgets()) == {"kernel_bytes"}

    def test_use_cache_false_consults_no_cache(self):
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        compile_kernel(spmv_schedule(B, c, a), machine)  # warm the cache
        before = cache_stats()
        compile_kernel(spmv_schedule(B, c, a), machine, use_cache=False)
        # a true seed-path compile neither looks up nor stores
        assert cache_stats() == before

    def test_overlapping_disabled_blocks_leave_the_caches_enabled(self):
        """Two threads whose ``with caches_disabled():`` blocks overlap
        (A in, B in, A out, B out).  A shared flag that each block saves
        and restores ends ``False`` forever: B restores the ``False`` it
        saw A set.  The effect is per thread, so nothing is left behind."""
        step = threading.Barrier(2, timeout=30)
        seen = {}

        def first():
            with caches_disabled():
                step.wait()  # A in
                step.wait()  # B in
            seen["first_after_exit"] = caches_enabled()
            step.wait()      # A out

        def second():
            step.wait()      # A in
            with caches_disabled():
                seen["second_inside"] = caches_enabled()
                step.wait()  # B in
                step.wait()  # A out
            seen["second_after_exit"] = caches_enabled()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"second_inside": False, "first_after_exit": True,
                        "second_after_exit": True}
        assert caches_enabled()
