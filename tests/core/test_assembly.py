"""Sparse output assembly tests (paper §V-B)."""
import gc
import pickle
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    adopt_pattern, cache_stats, clear_caches, compile_kernel,
    install_assembled_output, load_packed, save_packed, scan_counts,
)
from repro.core.assembly import merge_operands, pattern_source
from repro.core.cache import invalidate_tensor
from repro.core.compiler import Piece
from repro.errors import CompileError
from repro.legion import Machine, Runtime
from repro.taco import CSC, CSF3, CSR, Format, Tensor, index_vars
from repro.taco.expr import Add
from repro.taco.formats import Compressed

rng = np.random.default_rng(3)


def rand_csr(n=10, m=8, name="B"):
    dense = rng.random((n, m)) * (rng.random((n, m)) < 0.4)
    return Tensor.from_dense(name, dense, CSR)


class TestAdoptPattern:
    def test_shares_metadata_and_zeroes_vals(self):
        B = rand_csr()
        A = Tensor.zeros("A", (10, 8), CSR)
        adopt_pattern(A, B, keep_levels=2)
        assert A.levels[1] is B.levels[1]
        assert A.vals.ispace.volume == B.nnz
        assert np.all(A.vals.data == 0)

    def test_spttv_keeps_two_of_three_levels(self):
        idx = [rng.integers(0, 5, 30), rng.integers(0, 5, 30), rng.integers(0, 5, 30)]
        T = Tensor.from_coo("T", idx, np.ones(30), (5, 5, 5), CSF3)
        A = Tensor.zeros("A", (5, 5), CSR)
        adopt_pattern(A, T, keep_levels=2)
        assert len(A.levels) == 2
        assert A.vals.ispace.volume == T.levels[1].num_positions

    def test_too_many_levels_rejected(self):
        B = rand_csr()
        A = Tensor.zeros("A", (10, 8), CSR)
        with pytest.raises(CompileError):
            adopt_pattern(A, B, keep_levels=3)


class TestScanAndInstall:
    def test_scan_counts(self):
        pos = scan_counts(np.array([2, 0, 3]))
        assert pos.data.tolist() == [[0, 1], [2, 1], [2, 4]]

    def test_install_assembled_output(self):
        A = Tensor.zeros("A", (3, 5), CSR)
        version = A.pattern_version
        crd = np.array([4, 0, 2])
        assert install_assembled_output(A, np.array([1, 2, 0]), crd)
        assert A.levels[1].pos.data.tolist() == [[0, 0], [1, 2], [3, 2]]
        assert A.levels[1].crd.data.tolist() == [4, 0, 2]
        assert A.vals.data.tolist() == [0.0, 0.0, 0.0]
        assert (A.pattern_version, A.assembly_version) == (version + 1, 1)
        # the tensor owns its coordinates: the caller's array is not pinned
        crd[0] = 1
        assert A.levels[1].crd.data[0] == 4

    def test_install_rebuilds_structure(self):
        A = Tensor.zeros("A", (2, 3), CSR)
        install_assembled_output(A, np.array([3, 0]), np.array([0, 1, 2]))
        assert A.nnz == 3
        assert A.levels[1].pos.data.tolist() == [[0, 2], [3, 2]]

    def test_equal_pattern_keeps_regions_and_versions(self):
        A = Tensor.zeros("A", (3, 5), CSR)
        install_assembled_output(A, np.array([1, 2, 0]), np.array([4, 0, 2]))
        A.vals.data[:] = [1.0, 2.0, 3.0]
        held = (A.levels[1].pos, A.levels[1].crd, A.vals)
        versions = (A.pattern_version, A.assembly_version)
        assert not install_assembled_output(A, np.array([1, 2, 0]), np.array([4, 0, 2]))
        assert (A.levels[1].pos, A.levels[1].crd, A.vals) == held
        assert (A.pattern_version, A.assembly_version) == versions
        assert A.vals.data.tolist() == [1.0, 2.0, 3.0]
        # same counts, other coordinates: a different pattern
        assert install_assembled_output(A, np.array([1, 2, 0]), np.array([4, 1, 2]))
        assert A.vals is not held[2] and A.pattern_version == versions[0] + 1

    def test_merge_operands_plans_every_piece(self):
        B, C = rand_csr(name="B"), rand_csr(name="C")
        pieces = [Piece(c, c, {}, rows) for c, rows in enumerate([(0, 3), (4, 7), (8, 9), (10, 9)])]
        plan = merge_operands([B, C], pieces, (10, 8))
        merged = sp.csr_matrix(B.to_dense() != 0) + sp.csr_matrix(C.to_dense() != 0)
        merged.sort_indices()
        assert plan.versions == (B.pattern_version, C.pattern_version)
        assert plan.installed is None
        assert np.array_equal(plan.counts, np.diff(merged.indptr))
        assert np.array_equal(plan.crd, merged.indices)
        for p in pieces:
            span, piece = plan.spans[p.color], plan.pieces[p.color]
            assert np.shares_memory(piece.crd, plan.crd) or piece.crd.size == 0
            assert np.shares_memory(piece.counts, plan.counts) or piece.counts.size == 0
            assert np.array_equal(plan.crd[span], piece.crd)
            assert np.array_equal(plan.counts[p.rows[0] : p.rows[1] + 1], piece.counts)
            assert piece.inverse.size == sum(s.stop - s.start for s in piece.slices)
        assert plan.spans[3] == slice(0, 0)


def spadd_schedule(A, operands, pieces=4):
    i, j, io, ii = index_vars("i j io ii")
    A[i, j] = Add([t[i, j] for t in operands])
    return A.schedule().divide(i, io, ii, pieces).distribute(io)


class TestAssembledFormatRefusal:
    """Two-phase assembly writes row-major {Dense, Compressed} only; any
    other sparse output used to compute garbage without an error."""

    @pytest.mark.parametrize(
        "fmt", [CSC, Format([Compressed, Compressed]), CSF3], ids=lambda f: f.name
    )
    def test_refused_at_compile_time(self, fmt):
        shape = (10, 8) if fmt.order == 2 else (10, 8, 3)
        A = Tensor.zeros("Aout", shape, fmt)
        operands = [Tensor.zeros(n, shape, fmt if fmt.order == 3 else CSR) for n in "BC"]
        i, j, k = index_vars("i j k")
        idx = (i, j) if fmt.order == 2 else (i, j, k)
        A[idx] = Add([t[idx] for t in operands])
        with pytest.raises(CompileError, match=f"Aout.*{re.escape(fmt.name)}"):
            compile_kernel(A.schedule(), Machine.cpu(2))

    def test_csr_still_compiles(self):
        A = Tensor.zeros("A", (10, 8), CSR)
        ck = compile_kernel(spadd_schedule(A, [rand_csr(name="B"), rand_csr(name="C")]),
                            Machine.cpu(4))
        ck.execute()
        assert A.nnz > 0


class TestConsumerStaysHot:
    """``A = B + C + D; y(i) = A(i,j) * c(j)`` in a loop: the assembled
    output changes identity only when its pattern does, so the consumer
    compiles and partitions once."""

    N, M = 60, 50

    @pytest.fixture(autouse=True)
    def isolated_caches(self):
        clear_caches()
        yield
        clear_caches()

    def mats(self, seed, k=3):
        r = np.random.default_rng(seed)
        return [sp.random(self.N, self.M, density=0.1, random_state=r, format="csr")
                for _ in range(k)]

    def setup_loop(self):
        self.machine = Machine.cpu(4)
        self.rt = Runtime(self.machine)
        self.ops = [Tensor.from_scipy(n, m, CSR) for n, m in zip("BCD", self.mats(0))]
        self.A = Tensor.zeros("A", (self.N, self.M), CSR)
        self.c = Tensor.from_dense("c", np.random.default_rng(1).random(self.M))
        self.y = Tensor.zeros("y", (self.N,))

    def produce(self):
        ck = compile_kernel(spadd_schedule(self.A, self.ops), self.machine)
        ck.execute(self.rt)
        return ck

    def consume(self):
        """Run the consumer; returns its (kernel, partition) misses."""
        i, j, io, ii = index_vars("i j io ii")
        self.y[i] = self.A[i, j] * self.c[j]
        before = cache_stats()
        s = self.y.schedule().divide(i, io, ii, 4).distribute(io)
        compile_kernel(s, self.machine).execute(self.rt)
        after = cache_stats()
        expect = sum(t.to_dense() for t in self.ops) @ self.c.to_dense()
        assert np.allclose(self.y.to_dense(), expect)
        return tuple(after[k] - before[k] for k in ("kernel_misses", "partition_misses"))

    def identity(self):
        A = self.A
        return (A.pattern_version, A.assembly_version,
                A.levels[1].pos, A.levels[1].crd, A.vals)

    def test_four_iterations_miss_only_on_the_first(self):
        self.setup_loop()
        self.produce()
        assert self.consume() == (1, 3)  # A, c and y partitioned once
        held = self.identity()
        for _ in range(3):
            before = cache_stats()
            self.produce()
            misses = self.consume()
            after = cache_stats()
            assert misses == (0, 0)
            assert after["kernel_misses"] == before["kernel_misses"]
            assert after["partition_misses"] == before["partition_misses"]
            assert self.identity() == held

    def test_value_only_update_changes_only_values(self):
        self.setup_loop()
        ck = self.produce()
        self.consume()
        held, plan = self.identity(), ck.assembly_plan()
        self.ops[0].vals.data[:] *= 3.0
        assert self.produce() is ck and ck.assembly_plan() is plan
        assert self.consume() == (0, 0)
        assert self.identity() == held
        assert np.allclose(self.A.to_dense(), sum(t.to_dense() for t in self.ops))

    def test_new_operand_pattern_misses_once(self):
        self.setup_loop()
        self.produce()
        self.consume()
        held = self.identity()
        (Dm,) = self.mats(5, k=1)
        self.ops[2]._pack(*Tensor.from_scipy("D", Dm, CSR).to_coo())
        self.produce()
        assert self.consume() == (1, 1)
        now = self.identity()
        assert now[:2] == (held[0] + 1, held[1] + 1)
        assert all(new is not old for new, old in zip(now[2:], held[2:]))
        self.produce()
        assert self.consume() == (0, 0) and self.identity() == now

    def test_equal_repack_rebuilds_plan_but_keeps_output(self):
        self.setup_loop()
        ck = self.produce()
        self.consume()
        held, plan = self.identity(), ck.assembly_plan()
        D = self.ops[2]
        version = D.pattern_version
        D._pack(*D.to_coo())
        assert D.pattern_version > version
        ck2 = self.produce()
        assert ck2.assembly_plan() is not plan
        assert np.array_equal(ck2.assembly_plan().crd, plan.crd)
        assert self.consume() == (0, 0)
        assert self.identity() == held

    def test_restructured_output_is_reinstalled(self):
        """Another statement re-structuring A between two warm steps moves
        A's version, so the warm step checks the pattern again."""
        self.setup_loop()
        ck = self.produce()
        self.consume()
        expect = self.A.to_dense()
        install_assembled_output(self.A, np.zeros(self.N, dtype=np.int64),
                                 np.zeros(0, dtype=np.int64))
        assert self.A.nnz == 0
        assert self.produce() is ck
        assert np.array_equal(self.A.to_dense(), expect)
        assert self.consume() == (1, 1)

    def test_aliased_reaches_a_constant_version(self):
        self.setup_loop()
        A, B = self.A, self.ops[0]
        versions, kernels = [], []
        for _ in range(5):
            A.assignment = None
            ck = compile_kernel(spadd_schedule(A, [B, A]), self.machine)
            ck.execute(self.rt)
            kernels.append(ck)
            versions.append(A.pattern_version)
        # step 1 grows A to B's pattern; from then on nothing structural moves
        assert versions[1:] == [versions[0]] * 4
        assert all(k is kernels[0] for k in kernels)
        assert np.allclose(A.to_dense(), 5 * B.to_dense())

    def test_kept_values_region_may_be_a_readonly_map(self, tmp_path):
        """An output loaded with ``mmap=True`` already holds the pattern, so
        its regions are kept — and the mapped ``vals`` promoted, once."""
        self.setup_loop()
        self.produce()
        path = save_packed(tmp_path / "A", self.A, include_caches=False)
        self.A = load_packed(path, mmap=True).tensor
        assert self.A.vals.is_mapped
        crd = self.A.levels[1].crd
        self.ops[0].vals.data[:] *= 2.0
        self.produce()
        assert not self.A.vals.is_mapped and self.A.levels[1].crd is crd
        assert np.allclose(self.A.to_dense(), sum(t.to_dense() for t in self.ops))
        version = self.A.pattern_version
        self.produce()
        assert self.A.pattern_version == version

    def test_plan_survives_pickle_by_rebuilding(self):
        self.setup_loop()
        ck = self.produce()
        assert ck._spadd_plan is not None
        clone = pickle.loads(pickle.dumps(ck))
        assert clone._spadd_plan is None
        plan = clone.assembly_plan()
        assert np.array_equal(plan.crd, ck.assembly_plan().crd)

    def test_plan_dies_with_its_kernel(self):
        """The plan lives on the compiled kernel: dropping the kernel's
        cache entry (``invalidate_tensor`` / ``clear_caches``) drops it, and
        it holds no tensor and no operand values."""
        for drop in (lambda: invalidate_tensor(self.ops[1]), clear_caches):
            self.setup_loop()
            ck = self.produce()
            plan = ck.assembly_plan()
            arrays = [plan.counts, plan.crd] + [
                a for piece in plan.pieces.values()
                for a in (piece.inverse, piece.counts, piece.crd)]
            assert not any(np.shares_memory(a, t.vals.data)
                           for a in arrays for t in self.ops)
            plan_ref, ck_ref = weakref.ref(plan), weakref.ref(ck)
            del ck, plan, arrays
            self.rt = None  # the kernel's runtime goes with the session
            drop()
            gc.collect()
            assert ck_ref() is None and plan_ref() is None
