"""End-to-end compiler tests: classification, compilation, execution."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import auto_schedule
from repro.core import classify, compile_kernel, pattern_source
from repro.errors import CompileError, FormatError
from repro.legion import Machine, Privilege, Region, Runtime
from repro.taco import CSF3, CSR, DDC, Format, Tensor, index_vars
from repro.taco.formats import Compressed
from repro.taco.tensor import CompressedLevel

rng = np.random.default_rng(7)


def rand_csr(n=40, m=32, density=0.15, name="B"):
    M = sp.random(n, m, density=density, random_state=rng, format="csr")
    return Tensor.from_scipy(name, M, CSR), M


def rand_csf(shape=(14, 12, 10), nnz=200, name="T", fmt=CSF3):
    idx = [rng.integers(0, s, nnz) for s in shape]
    vals = rng.random(nnz) + 0.5
    return Tensor.from_coo(name, idx, vals, shape, fmt)


class TestClassify:
    def test_spmv(self):
        B, _ = rand_csr()
        c = Tensor.from_dense("c", rng.random(32))
        a = Tensor.zeros("a", (40,))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        assert classify(a.assignment).kind == "spmv"

    def test_spmm(self):
        B, _ = rand_csr()
        C = Tensor.from_dense("C", rng.random((32, 8)))
        A = Tensor.zeros("A", (40, 8))
        i, k, j = index_vars("i k j")
        A[i, j] = B[i, k] * C[k, j]
        assert classify(A.assignment).kind == "spmm"

    def test_sddmm(self):
        B, _ = rand_csr()
        C = Tensor.from_dense("C", rng.random((40, 6)))
        D = Tensor.from_dense("D", rng.random((6, 32)))
        A = Tensor.zeros("A", (40, 32), CSR)
        i, j, k = index_vars("i j k")
        A[i, j] = B[i, j] * C[i, k] * D[k, j]
        kc = classify(A.assignment)
        assert kc.kind == "sddmm"
        assert kc.roles["C"].tensor.name == "C"

    def test_spadd(self):
        B, _ = rand_csr(name="B")
        C, _ = rand_csr(name="C")
        D, _ = rand_csr(name="D")
        A = Tensor.zeros("A", (40, 32), CSR)
        i, j = index_vars("i j")
        A[i, j] = B[i, j] + C[i, j] + D[i, j]
        kc = classify(A.assignment)
        assert kc.kind == "spadd"
        assert len(kc.operands) == 3

    def test_spttv(self):
        T = rand_csf()
        c = Tensor.from_dense("c", rng.random(10))
        A = Tensor.zeros("A", (14, 12), CSR)
        i, j, k = index_vars("i j k")
        A[i, j] = T[i, j, k] * c[k]
        assert classify(A.assignment).kind == "spttv"

    def test_spmttkrp(self):
        T = rand_csf()
        C = Tensor.from_dense("C", rng.random((12, 5)))
        D = Tensor.from_dense("D", rng.random((10, 5)))
        A = Tensor.zeros("A", (14, 5))
        i, j, k, l = index_vars("i j k l")
        A[i, l] = T[i, j, k] * C[j, l] * D[k, l]
        assert classify(A.assignment).kind == "spmttkrp"

    def test_generic_two_sparse(self):
        B, _ = rand_csr(name="B")
        C, _ = rand_csr(name="C")
        A = Tensor.zeros("A", (40, 40))
        i, j, k = index_vars("i j k")
        A[i, j] = B[i, k] * C[j, k]
        assert classify(A.assignment).kind == "generic"


class TestPatternSource:
    def test_sddmm_preserves_b(self):
        B, _ = rand_csr()
        C = Tensor.from_dense("C", rng.random((40, 6)))
        D = Tensor.from_dense("D", rng.random((6, 32)))
        A = Tensor.zeros("A", (40, 32), CSR)
        i, j, k = index_vars("i j k")
        A[i, j] = B[i, j] * C[i, k] * D[k, j]
        assert pattern_source(A.assignment).tensor is B

    def test_dense_output_no_source(self):
        B, _ = rand_csr()
        c = Tensor.from_dense("c", rng.random(32))
        a = Tensor.zeros("a", (40,))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        assert pattern_source(a.assignment) is None


class TestCompileExecute:
    @pytest.mark.parametrize("pieces", [1, 3, 4])
    def test_spmv_rows(self, pieces):
        B, M = rand_csr()
        x = rng.random(32)
        c = Tensor.from_dense("c", x)
        a = Tensor.zeros("a", (40,))
        i, j, io, ii = index_vars("i j io ii")
        a[i] = B[i, j] * c[j]
        s = a.schedule().divide(i, io, ii, pieces).distribute(io)
        ck = compile_kernel(s, Machine.cpu(max(pieces, 1)))
        ck.execute(Runtime(ck.machine))
        assert np.allclose(a.vals.data, M @ x)

    @pytest.mark.parametrize("pieces", [2, 5])
    def test_spmv_nonzeros_reduces(self, pieces):
        B, M = rand_csr()
        x = rng.random(32)
        c = Tensor.from_dense("c", x)
        a = Tensor.zeros("a", (40,))
        i, j, f, fp, fo, fi = index_vars("i j f fp fo fi")
        a[i] = B[i, j] * c[j]
        s = (a.schedule().fuse(i, j, f).pos(f, fp, B[i, j])
             .divide(fp, fo, fi, pieces).distribute(fo))
        ck = compile_kernel(s, Machine.cpu(pieces))
        assert ck.privileges[a] in (Privilege.REDUCE, Privilege.WRITE_DISCARD)
        ck.execute(Runtime(ck.machine))
        assert np.allclose(a.vals.data, M @ x)

    def test_repeated_execution_stable(self):
        B, M = rand_csr()
        x = rng.random(32)
        c = Tensor.from_dense("c", x)
        a = Tensor.zeros("a", (40,))
        i, j, io, ii = index_vars("i j io ii")
        a[i] = B[i, j] * c[j]
        s = a.schedule().divide(i, io, ii, 2).distribute(io)
        ck = compile_kernel(s, Machine.cpu(2))
        rt = Runtime(ck.machine)
        ck.execute(rt)
        first = a.vals.data.copy()
        ck.execute(rt)
        assert np.allclose(a.vals.data, first)

    def test_no_distribution_single_piece(self):
        B, M = rand_csr()
        x = rng.random(32)
        c = Tensor.from_dense("c", x)
        a = Tensor.zeros("a", (40,))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        ck = compile_kernel(a.schedule(), Machine.cpu(1))
        assert len(ck.pieces) == 1
        ck.execute(Runtime(ck.machine))
        assert np.allclose(a.vals.data, M @ x)

    def test_spmm_rows(self):
        B, M = rand_csr()
        C = Tensor.from_dense("C", rng.random((32, 8)))
        A = Tensor.zeros("A", (40, 8))
        i, k, j, io, ii = index_vars("i k j io ii")
        A[i, j] = B[i, k] * C[k, j]
        s = A.schedule().divide(i, io, ii, 4).distribute(io)
        ck = compile_kernel(s, Machine.cpu(4))
        ck.execute(Runtime(ck.machine))
        assert np.allclose(A.dense_array(), M @ C.dense_array())

    def test_sddmm_nonzeros_pattern_preserved(self):
        B, M = rand_csr()
        Cd, Dd = rng.random((40, 6)), rng.random((6, 32))
        C, D = Tensor.from_dense("C", Cd), Tensor.from_dense("D", Dd)
        A = Tensor.zeros("A", (40, 32), CSR)
        i, j, k, f, fp, fo, fi = index_vars("i j k f fp fo fi")
        A[i, j] = B[i, j] * C[i, k] * D[k, j]
        s = (A.schedule().fuse(i, j, f).pos(f, fp, B[i, j])
             .divide(fp, fo, fi, 4).distribute(fo))
        ck = compile_kernel(s, Machine.cpu(4))
        ck.execute(Runtime(ck.machine))
        assert A.levels[1] is B.levels[1]  # metadata shared (copied structure)
        assert np.allclose(A.to_dense(), M.toarray() * (Cd @ Dd))

    def test_spadd_two_phase(self):
        B, MB = rand_csr(name="B")
        C, MC = rand_csr(name="C", density=0.1)
        D, MD = rand_csr(name="D", density=0.1)
        A = Tensor.zeros("A", (40, 32), CSR)
        i, j, io, ii = index_vars("i j io ii")
        A[i, j] = B[i, j] + C[i, j] + D[i, j]
        s = A.schedule().divide(i, io, ii, 4).distribute(io)
        ck = compile_kernel(s, Machine.cpu(4))
        res = ck.execute(Runtime(ck.machine))
        assert np.allclose(A.to_dense(), (MB + MC + MD).toarray())
        names = [st.name for st in res.metrics.steps]
        assert "spadd:symbolic" in names and "spadd:fill" in names

    def test_spttv_csf_rows(self):
        T = rand_csf()
        x = rng.random(10)
        c = Tensor.from_dense("c", x)
        A = Tensor.zeros("A", (14, 12), CSR)
        i, j, k, io, ii = index_vars("i j k io ii")
        A[i, j] = T[i, j, k] * c[k]
        s = A.schedule().divide(i, io, ii, 3).distribute(io)
        ck = compile_kernel(s, Machine.cpu(3))
        ck.execute(Runtime(ck.machine))
        assert np.allclose(A.to_dense(), np.einsum("ijk,k->ij", T.to_dense(), x))

    def test_spttv_ddc_dense_output(self):
        T = rand_csf(shape=(4, 12, 10), fmt=DDC)
        x = rng.random(10)
        c = Tensor.from_dense("c", x)
        A = Tensor.zeros("A", (4, 12))
        i, j, k, io, ii = index_vars("i j k io ii")
        A[i, j] = T[i, j, k] * c[k]
        s = A.schedule().divide(i, io, ii, 2).distribute(io)
        ck = compile_kernel(s, Machine.cpu(2))
        ck.execute(Runtime(ck.machine))
        assert np.allclose(A.dense_array(), np.einsum("ijk,k->ij", T.to_dense(), x))

    def test_spmttkrp_rows_and_nonzeros(self):
        T = rand_csf()
        Cd, Dd = rng.random((12, 5)), rng.random((10, 5))
        expected = np.einsum("ijk,jl,kl->il", T.to_dense(), Cd, Dd)
        for strategy in ("rows", "nonzeros"):
            C, D = Tensor.from_dense("C", Cd), Tensor.from_dense("D", Dd)
            A = Tensor.zeros("A", (14, 5))
            i, j, k, l = index_vars("i j k l")
            A[i, l] = T[i, j, k] * C[j, l] * D[k, l]
            if strategy == "rows":
                io, ii = index_vars("io ii")
                s = A.schedule().divide(i, io, ii, 3).distribute(io)
            else:
                g1, g2, gp, go, gi = index_vars("g1 g2 gp go gi")
                s = (A.schedule().reorder(j, l).fuse(i, j, g1).reorder(k, l)
                     .fuse(g1, k, g2).pos(g2, gp, T[i, j, k])
                     .divide(gp, go, gi, 3).distribute(go))
            ck = compile_kernel(s, Machine.cpu(3))
            ck.execute(Runtime(ck.machine))
            assert np.allclose(A.dense_array(), expected), strategy

    def test_generic_fallback_distributed(self):
        B, MB = rand_csr(name="B")
        C, MC = rand_csr(n=40, m=32, name="C")
        A = Tensor.zeros("A", (40, 40))
        i, j, k, io, ii = index_vars("i j k io ii")
        A[i, j] = B[i, k] * C[j, k]
        s = A.schedule().divide(i, io, ii, 4).distribute(io)
        ck = compile_kernel(s, Machine.cpu(4))
        assert ck.kind == "generic"
        ck.execute(Runtime(ck.machine))
        assert np.allclose(A.dense_array(), MB.toarray() @ MC.toarray().T)

    def test_batched_two_level_distribution(self):
        B, M = rand_csr()
        C = Tensor.from_dense("C", rng.random((32, 8)))
        A = Tensor.zeros("A", (40, 8))
        i, k, j, io, ii, jo, ji = index_vars("i k j io ii jo ji")
        A[i, j] = B[i, k] * C[k, j]
        s = (A.schedule().divide(i, io, ii, 2).reorder(ii, j)
             .divide(j, jo, ji, 2).distribute([io, jo]))
        ck = compile_kernel(s, Machine.cpu(4))
        assert len(ck.pieces) == 4
        ck.execute(Runtime(ck.machine))
        assert np.allclose(A.dense_array(), M @ C.dense_array())


class TestCompileErrors:
    def test_two_nonzero_vars_rejected(self):
        B, _ = rand_csr(name="B")
        C, _ = rand_csr(n=40, m=32, name="C")
        A = Tensor.zeros("A", (40, 40))
        i, j, k = index_vars("i j k")
        A[i, j] = B[i, k] * C[j, k]
        f1, p1, o1, i1 = index_vars("f1 p1 o1 i1")
        s = A.schedule().reorder(k, j).fuse(i, k, f1).pos(f1, p1, B[i, k]) \
            .divide(p1, o1, i1, 2).distribute(o1)
        # one nonzero var is fine; two are rejected at distribute time
        from repro.taco.schedule import Schedule

        ck = compile_kernel(s, Machine.cpu(2))
        assert ck.strategy == "nonzeros"

    def test_fused_universe_distribution_rejected(self):
        B, _ = rand_csr()
        c = Tensor.from_dense("c", rng.random(32))
        a = Tensor.zeros("a", (40,))
        i, j, f, fo, fi = index_vars("i j f fo fi")
        a[i] = B[i, j] * c[j]
        s = a.schedule().fuse(i, j, f).divide(f, fo, fi, 2).distribute(fo)
        with pytest.raises(CompileError):
            compile_kernel(s, Machine.cpu(2))

    @pytest.mark.parametrize("strategy", ["rows", "nonzeros", "grid"])
    def test_streaming_the_output_is_refused_naming_it(self, strategy):
        """A ``communicate`` inside every distributed loop streams in rounds
        that are never kept; for the output that would drop what the
        pieces write, so the compile refuses it."""
        A, (B, C), machine = self._spmm()
        s = auto_schedule(A, machine, strategy=strategy)
        s.communicate(A, s.divide_rel_of(s.distributed[-1]).inner)
        with pytest.raises(CompileError, match="cannot stream the output A"):
            compile_kernel(s, machine)

    @pytest.mark.parametrize("strategy,inner", [
        ("rows", "ii"), ("nonzeros", "fi"), ("grid", "ji")])
    def test_a_communicate_inside_every_distributed_loop_streams(self, strategy, inner):
        """The streamed set is read from the schedule: a tensor
        communicated at a loop after every distributed loop streams; one
        communicated at a distributed loop, or before the last of them
        (``ii`` under ``grid``), stays resident."""
        A, (B, C), machine = self._spmm()
        s = auto_schedule(A, machine, strategy=strategy)
        assert compile_kernel(s, machine)._streamed == frozenset()
        loops = {v.name: v for v in s.loop_order}
        s.communicate(C, loops[inner])
        if strategy == "grid":
            s.communicate(B, loops["ii"])
        ck = compile_kernel(s, machine)
        assert ck._streamed == {C}
        assert [r.streamed for r in ck.launches()[0].reqs] == [
            t is C for t, part in ck.parts.items() for _ in part.region_reqs(Privilege.READ_ONLY)]

    @staticmethod
    def _spmm():
        B, _ = rand_csr()
        C = Tensor.from_dense("C", rng.random((32, 4)))
        A = Tensor.zeros("A", (40, 4))
        i, k, j = index_vars("i k j")
        A[i, j] = B[i, k] * C[k, j]
        return A, (B, C), Machine.cpu(4)

    def test_plan_contains_distributed_loop(self):
        B, M = rand_csr()
        c = Tensor.from_dense("c", rng.random(32))
        a = Tensor.zeros("a", (40,))
        i, j, io, ii = index_vars("i j io ii")
        a[i] = B[i, j] * c[j]
        s = a.schedule().divide(i, io, ii, 2).distribute(io)
        ck = compile_kernel(s, Machine.cpu(2))
        assert "distributed for" in ck.plan.describe()


class TestGenericSparseOutput:
    """A pattern-preserving sparse output on the generic engine scatters
    each piece's result into the stored pattern, read once per bind."""

    def _statement(self, pieces=16):
        B, MB = rand_csr(n=64, m=48, density=0.2, name="B")
        D = rng.random((64, 48))
        A = Tensor.zeros("A", (64, 48), CSR)
        i, j, io, ii = index_vars("i j io ii")
        A[i, j] = B[i, j] * Tensor.from_dense("D", D)[i, j]
        s = A.schedule().divide(i, io, ii, pieces).distribute(io)
        ck = compile_kernel(s, Machine.cpu(pieces), backend="codegen")
        assert ck.kind == "generic" and len(ck.pieces) == pieces
        return A, MB.toarray() * D, ck

    def test_sixteen_pieces_read_the_pattern_once(self, monkeypatch):
        A, expected, ck = self._statement()
        calls = []
        to_coo = Tensor.to_coo

        def counting(self, *a, **kw):
            if self is A:
                calls.append(1)
            return to_coo(self, *a, **kw)

        monkeypatch.setattr(Tensor, "to_coo", counting)
        rt = Runtime(ck.machine)
        ck.execute(rt)
        ck.execute(rt)  # the replay reuses the bound leaf and its pattern
        monkeypatch.undo()
        assert len(calls) == 1
        assert np.array_equal(A.to_dense(), expected)  # one product per value

    def test_a_corrupted_output_pattern_is_refused(self):
        A, _, ck = self._statement()
        last = A.levels[-1]  # shared with B: corrupt a copy
        crd = last.crd.data.copy()
        pos = last.pos.data
        row = next(r for r in range(len(pos)) if pos[r, 1] >= pos[r, 0]
                   and crd[pos[r, 1]] + 1 < A.shape[1])
        crd[pos[row, 1]] += 1  # B's last entry of that row leaves A's pattern
        A.levels[-1] = CompressedLevel(
            last.pos, Region(last.crd.ispace, data=crd, name="A_handbuilt_crd"))
        with pytest.raises(
                FormatError, match=r"writes A\[.*\], which A's stored pattern"):
            ck.execute(Runtime(ck.machine))

    def test_huge_shapes_rank_stored_and_new_jointly(self):
        """An output whose shape product overflows int64 matches coordinates
        by joint ranks instead of flattened keys, with the same result."""
        huge, fmt = 2**40, Format([Compressed] * 3)
        coords = [rng.integers(0, 1000, 50) * (huge // 1000) for _ in range(3)]
        B, C = (Tensor.from_coo(n, coords, rng.random(50), (huge,) * 3, fmt)
                for n in "BC")
        A = Tensor.zeros("A", (huge,) * 3, fmt)
        i, j, k, io, ii = index_vars("i j k io ii")
        A[i, j, k] = B[i, j, k] * C[i, j, k]
        ck = compile_kernel(A.schedule().divide(i, io, ii, 4).distribute(io),
                            Machine.cpu(4))
        assert ck.kind == "generic"
        ck.execute(Runtime(ck.machine))
        assert np.array_equal(A.vals.data, B.vals.data * C.vals.data)
