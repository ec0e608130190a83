"""Cache correctness: kernel cache, partition memo, invalidation rules,
size-aware eviction."""
import threading

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
    invalidate_tensor,
    kernel_fingerprint,
    partition_tensor,
    set_cache_budget,
)
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars

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


def spmv_schedule(B, c, a, pieces=4):
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    return a.schedule().divide(i, io, ii, pieces).distribute(io)


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
            r2 = ck_u.execute(Runtime(machine, trace_replay=False))
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
        ck2.execute()
        assert np.allclose(a.vals.data, A2.tocsr() @ c.vals.data)

    def test_mutated_values_only_hits(self):
        A, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck1 = compile_kernel(spmv_schedule(B, c, a), machine)
        ck1.execute()
        B.vals.data *= 2.0  # value write: pattern unchanged
        c.vals.data[...] = rng.random(M)
        ck2 = compile_kernel(spmv_schedule(B, c, a), machine)
        assert ck2 is ck1  # partition + kernel caches still hot
        ck2.execute()
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


class TestPartitionMemo:
    def bounds(self, pieces=4):
        chunk = -(-N // pieces)
        return {p: (p * chunk, min((p + 1) * chunk, N) - 1) for p in range(pieces)}

    def test_repeat_partition_returns_cached_object(self):
        _, B, _, _ = make_tensors()
        p1 = partition_tensor(B, 1, "universe", self.bounds())
        p2 = partition_tensor(B, 1, "universe", self.bounds())
        assert p1 is p2

    def test_plan_statements_replayed_on_hit(self):
        _, B, _, _ = make_tensors()
        plan1 = PartitioningPlan("first")
        partition_tensor(B, 1, "universe", self.bounds(), plan1)
        plan2 = PartitioningPlan("second")
        partition_tensor(B, 1, "universe", self.bounds(), plan2)
        assert plan1.ops() == plan2.ops()
        assert plan1.describe() == plan2.describe()

    def test_different_bounds_miss(self):
        _, B, _, _ = make_tensors()
        p1 = partition_tensor(B, 1, "universe", self.bounds(4))
        p2 = partition_tensor(B, 1, "universe", self.bounds(2))
        assert p1 is not p2

    def test_pattern_bump_misses_value_write_hits(self):
        _, B, _, _ = make_tensors()
        p1 = partition_tensor(B, 1, "universe", self.bounds())
        B.vals.data += 1.0
        assert partition_tensor(B, 1, "universe", self.bounds()) is p1
        B._bump_pattern_version()
        assert partition_tensor(B, 1, "universe", self.bounds()) is not p1

    def test_stats_count_hits(self):
        _, B, _, _ = make_tensors()
        before = cache_stats()["partition_hits"]
        partition_tensor(B, 1, "universe", self.bounds())
        partition_tensor(B, 1, "universe", self.bounds())
        assert cache_stats()["partition_hits"] == before + 1


class TestPostCompileMutation:
    def test_streamed_kernel_not_served_from_cache(self):
        """stream_tensor() after compile must not leak into later callers
        of the identical schedule (caching must not change metrics)."""
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        ck1 = compile_kernel(spmv_schedule(B, c, a), machine)
        ck1.stream_tensor(c)
        ck2 = compile_kernel(spmv_schedule(B, c, a), machine)
        assert ck2 is not ck1
        assert not ck2._streamed
        # the fresh (unstreamed) kernel replaced the entry
        ck3 = compile_kernel(spmv_schedule(B, c, a), machine)
        assert ck3 is ck2


class TestSizeAwareEviction:
    @pytest.fixture(autouse=True)
    def restore_budgets(self):
        before = cache_budgets()
        yield
        set_cache_budget(kernel_bytes=before["kernel_bytes"],
                         partition_bytes=before["partition_bytes"])

    def bounds(self, pieces=4):
        chunk = -(-N // pieces)
        return {p: (p * chunk, min((p + 1) * chunk, N) - 1) for p in range(pieces)}

    def test_entries_are_byte_accounted(self):
        _, B, _, _ = make_tensors()
        partition_tensor(B, 1, "universe", self.bounds())
        stats = cache_stats()
        assert stats["partition_entries"] == 1
        assert stats["partition_bytes"] > 0

    def test_lru_evicted_when_budget_exceeded(self):
        _, B, _, _ = make_tensors()
        p4 = partition_tensor(B, 1, "universe", self.bounds(4))
        one_entry = cache_stats()["partition_bytes"]
        # Room for roughly one entry: adding a second evicts the older.
        set_cache_budget(partition_bytes=int(one_entry * 1.5))
        p2 = partition_tensor(B, 1, "universe", self.bounds(2))
        stats = cache_stats()
        assert stats["partition_evictions"] >= 1
        assert stats["partition_bytes"] <= int(one_entry * 1.5)
        # The newer entry survived, the older was dropped.
        assert partition_tensor(B, 1, "universe", self.bounds(2)) is p2
        assert partition_tensor(B, 1, "universe", self.bounds(4)) is not p4

    def test_oversized_entry_still_caches(self):
        """A single entry above the whole budget is kept (run-many over one
        huge tensor must not lose its only entry)."""
        _, B, _, _ = make_tensors()
        set_cache_budget(partition_bytes=1)
        p = partition_tensor(B, 1, "universe", self.bounds())
        assert partition_tensor(B, 1, "universe", self.bounds()) is p
        assert cache_stats()["partition_entries"] == 1

    def test_shrinking_budget_evicts_immediately(self):
        _, B, _, _ = make_tensors()
        partition_tensor(B, 1, "universe", self.bounds(4))
        partition_tensor(B, 1, "universe", self.bounds(2))
        assert cache_stats()["partition_entries"] == 2
        set_cache_budget(partition_bytes=1)
        assert cache_stats()["partition_entries"] == 1  # newest kept

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

    def test_invalidate_tensor_releases_bytes(self):
        _, B, _, _ = make_tensors()
        partition_tensor(B, 1, "universe", self.bounds())
        assert cache_stats()["partition_bytes"] > 0
        invalidate_tensor(B)
        assert cache_stats()["partition_bytes"] == 0


class TestSeedPathBypass:
    def test_use_cache_false_bypasses_partition_memo(self):
        _, B, c, a = make_tensors()
        machine = Machine.cpu(4)
        compile_kernel(spmv_schedule(B, c, a), machine)  # warm the memo
        misses = cache_stats()["partition_misses"]
        hits = cache_stats()["partition_hits"]
        compile_kernel(spmv_schedule(B, c, a), machine, use_cache=False)
        # a true seed-path compile consults neither cache
        assert cache_stats()["partition_hits"] == hits
        assert cache_stats()["partition_misses"] == misses

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
