"""Session: one context owning machine, runtime, budgets and the store."""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core import clear_caches
from repro.legion import Machine, ProcKind


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestConstruction:
    def test_nodes_builds_cpu_machine(self):
        with repro.session(nodes=6) as s:
            assert s.machine.size == 6
            assert s.machine.kind == ProcKind.CPU
            assert s.runtime.machine is s.machine

    def test_gpus_builds_gpu_machine(self):
        with repro.session(gpus=4) as s:
            assert s.machine.size == 4
            assert s.machine.kind == ProcKind.GPU

    def test_explicit_machine_passes_through(self):
        m = Machine.cpu(3)
        with repro.session(machine=m) as s:
            assert s.machine is m

    def test_machine_and_nodes_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            repro.session(machine=Machine.cpu(2), nodes=2)

    def test_adopts_existing_runtime(self):
        from repro.legion import Runtime

        rt = Runtime(Machine.cpu(3))
        with repro.session(runtime=rt) as s:
            assert s.runtime is rt
            assert s.machine is rt.machine
        with pytest.raises(ValueError, match="not both"):
            repro.session(machine=Machine.cpu(2), runtime=rt)
        # The network the adopted runtime already carries cannot be passed
        # alongside it — it would be silently ignored otherwise.
        with pytest.raises(ValueError, match="network"):
            repro.session(runtime=rt, network=rt.network)

    @pytest.mark.parametrize("owner", ["Runtime", "Session"])
    @pytest.mark.parametrize("knob", ["trace_replay", "metrics_limit"])
    def test_removed_knobs_are_refused(self, owner, knob):
        """Every launch records or replays and no step log is kept, so
        neither class takes a replay switch or a log bound."""
        from repro.legion import Runtime

        build = {"Runtime": Runtime, "Session": repro.Session}[owner]
        with pytest.raises(TypeError, match=knob):
            build(Machine.cpu(2), **{knob: 5})

    def test_default_is_one_cpu_node(self):
        with repro.session() as s:
            assert s.machine.size == 1


class TestTensorSugar:
    def test_tensor_dispatches_on_type(self):
        with repro.session() as s:
            M = sp.eye(5).tocsr()
            B = s.tensor("B", M, repro.CSR)
            assert B.nnz == 5 and B.format is repro.CSR
            d = s.tensor("d", np.arange(4.0))
            assert d.shape == (4,)
            assert s.tensor("again", B) is B  # packed tensors pass through
            with pytest.raises(ValueError, match="repack"):
                s.tensor("B", B, repro.CSC)  # conflicting format: no silent no-op
            z = s.zeros("z", (3, 3), repro.CSR)
            assert z.nnz == 0

    def test_scipy_sparse_without_a_format_packs_sparse(self):
        M = sp.random(30, 20, density=0.2, format="csr",
                      random_state=np.random.default_rng(0))
        with repro.session() as s:
            assert s.tensor("B", M).format is repro.CSR
            assert s.tensor("B", M.tocsc()).format is repro.CSC
            for other in (M.tocoo(), M.tolil(), sp.csr_array(M)):
                assert s.tensor("B", other).format is repro.CSR
            # an explicit format still wins, the dense one included
            assert s.tensor("B", M.tocsc(), repro.CSR).format is repro.CSR
            assert s.tensor("B", M, repro.DENSE_MATRIX).format.is_all_dense()
            # the content-keyed memo follows the format the operand packs
            # into: equal content stored CSR and CSC is two tensors
            assert s.packed_operand("B", M) is s.packed_operand("B", M.copy())
            assert s.packed_operand("B", M.tocsc()).format is repro.CSC
            assert s.packed_operand("B", M, repro.CSR) is s.packed_operand("B", M)
            for t in (s.tensor("B", M), s.tensor("B", M.tocsc())):
                assert np.array_equal(t.to_dense(), M.toarray())

    def test_large_scipy_operand_packs_in_bounded_memory(self):
        # 200 000 x 200 000 with 2 M non-zeros: the all-dense default would
        # be a 320 GB np.zeros; packed sparse it is a few tens of MB.
        import tracemalloc

        rng = np.random.default_rng(0)
        n, nnz = 200_000, 2_000_000
        M = sp.csr_matrix(
            (rng.random(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
            shape=(n, n),
        )
        with repro.session() as s:
            tracemalloc.start()
            try:
                B = s.packed_operand("B", M)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert B.format is repro.CSR and B.nnz == M.nnz
        assert B.nbytes < 64 << 20
        assert peak < 4 * B.nbytes  # transients included

    def test_from_coo(self):
        with repro.session() as s:
            t = s.from_coo("t", [np.array([0, 1]), np.array([1, 0])],
                           np.array([2.0, 3.0]), (2, 2), repro.CSR)
            assert t.nnz == 2


class TestExecution:
    def test_execute_compiles_and_runs_on_session_runtime(self):
        with repro.session(nodes=2) as s:
            M = sp.random(50, 50, density=0.1, format="csr",
                          random_state=np.random.default_rng(0))
            B = s.tensor("B", M, repro.CSR)
            c = s.tensor("c", np.random.default_rng(1).random(50))
            a = s.zeros("a", (50,))
            i, j = repro.index_vars("i j")
            a[i] = B[i, j] * c[j]
            res = s.execute(a)
            assert np.allclose(a.vals.data, M @ c.dense_array())
            assert s.last_result is res

    def test_traces_accumulate_across_statements(self):
        with repro.session(nodes=2) as s:
            M = sp.random(60, 60, density=0.1, format="csr",
                          random_state=np.random.default_rng(2))
            B = s.tensor("B", M, repro.CSR)
            c = s.tensor("c", np.random.default_rng(3).random(60))
            a = s.zeros("a", (60,))
            i, j = repro.index_vars("i j")
            a[i] = B[i, j] * c[j]
            s.execute(a)
            hits0 = s.stats()["trace_hits"]
            s.execute(a)  # same statement: the mapping trace must replay
            assert s.stats()["trace_hits"] > hits0

    def test_replaced_setups_are_freed_without_a_collection(self):
        """open → pack → execute → replace, ten times over with the cyclic
        collector off: each set-up's tensors (a 200 k-nnz operand among
        them) are dead the moment it is replaced, so the process never
        holds more than one set-up beyond the first."""
        import gc
        import weakref

        rng = np.random.default_rng(0)
        n, nnz = 50_000, 200_000
        M = sp.csr_matrix(
            (rng.random(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
            shape=(n, n),
        )
        x = rng.random(n)

        def setup():
            with repro.session(nodes=4) as s:
                B, c, a = s.tensor("B", M, repro.CSR), s.tensor("c", x), s.zeros("a", (n,))
                i, j = repro.index_vars("i j")
                a[i] = B[i, j] * c[j]
                s.execute(a)
                s.execute(a)
                assert B.nnz == M.nnz and np.allclose(a.vals.data, M @ x)
                return [weakref.ref(t) for t in (B, c, a)]

        gc.disable()
        try:
            for _ in range(10):
                refs = setup()
                clear_caches()  # the replaced set-up's kernels and partitions
                assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_stats_merges_cache_and_runtime_counters(self):
        with repro.session() as s:
            st = s.stats()
            for key in ("kernel_hits", "trace_hits", "trace_records"):
                assert key in st
            assert not any(key.startswith("decision") for key in st)


class TestStore:
    def test_store_roundtrip_through_session(self, tmp_path):
        with repro.session(nodes=2, store=tmp_path / "store") as s:
            M = sp.random(40, 40, density=0.1, format="csr",
                          random_state=np.random.default_rng(4))
            B = s.tensor("B", M, repro.CSR)
            s.put(B, keys=["op:B"], include_caches=False)
            art = s.load("op:B")
            assert art.tensor.nnz == B.nnz
            assert s.store.verify() == []
            # a loaded tensor passes through under the format it was saved in
            assert s.tensor("B", art.tensor, repro.CSR) is art.tensor
            with pytest.raises(ValueError, match="repack"):
                s.tensor("B", art.tensor, repro.CSC)

    def test_no_store_is_a_clear_error(self):
        with repro.session() as s:
            with pytest.raises(ValueError, match="no artifact store"):
                s.put(s.zeros("z", (2,)))


class TestEinsumMemos:
    def test_a_fresh_vector_loop_keeps_the_memos_bounded(self):
        """Each step's fresh vector packs a new operand and needs a new
        output: both einsum memos are LRUs of 256 entries, and ``close``
        empties them."""
        M = sp.random(200, 200, density=0.05, format="csr",
                      random_state=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        with repro.session(nodes=2) as s:
            for _ in range(300):
                x = rng.random(200)
                out = repro.einsum("ij,j->i", M, x, session=s)
            assert np.allclose(out.vals.data, M @ x)
            assert len(s._packed_memo) <= 256 and len(s._einsum_out_memo) <= 256
            again = repro.einsum("ij,j->i", M, x, session=s)  # the newest entries held
            assert again is out
        assert len(s._packed_memo) == len(s._einsum_out_memo) == 0
