"""Leaf kernel tests: vectorized kernels vs loop references vs SciPy."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.kernels import (
    sddmm_nonzeros,
    sddmm_reference,
    spadd3_fill,
    spadd3_plan,
    spadd3_symbolic,
    spmm_nonzeros,
    spmm_rows,
    spmm_rows_reference,
    spmttkrp,
    spmttkrp_reference,
    spmv_nonzeros,
    spmv_rows,
    spmv_rows_reference,
)
from repro.legion import make_pos_region
from repro.legion.machine import Work
from repro.taco import CSF3, CSR, DDC, Tensor

rng = np.random.default_rng(11)


@pytest.fixture
def csr_case():
    n, m = 30, 24
    M = sp.random(n, m, density=0.2, random_state=rng, format="csr")
    # ensure an empty row and an empty trailing row exist
    M = M.tolil()
    M[3, :] = 0
    M[n - 1, :] = 0
    M = M.tocsr()
    M.eliminate_zeros()
    B = Tensor.from_scipy("B", M, CSR)
    pos, crd, vals = B.csr_arrays()
    return M, pos, crd, vals


@pytest.fixture
def csf_case():
    shape = (8, 7, 6)
    idx = [rng.integers(0, s, 120) for s in shape]
    vals = rng.random(120) + 0.5
    T = Tensor.from_coo("T", idx, vals, shape, CSF3)
    return T, T.to_dense()


@pytest.fixture(params=["csr", "csf3"])
def segments(request, csr_case, csf_case):
    """The segmented dot's inputs — a last level's ``pos``/``crd``/``vals``
    plus the expected per-segment result for a vector ``x``: the rows of a
    CSR matrix (SpMV), and the (i, j) fibers of a CSF3 tensor (SpTTV)."""
    if request.param == "csr":
        M, pos, crd, vals = csr_case
        return pos, crd, vals, M.shape[1], lambda x: M @ x
    T, dense = csf_case
    fibers, last = T.levels[1], T.levels[2]
    at = np.arange(fibers.num_positions)
    i, j = fibers.parent_of(at), fibers.coord_of(at)
    return (last.pos.data, last.crd.data, T.vals.data, T.shape[2],
            lambda x: np.einsum("ijk,k->ij", dense, x)[i, j])


class TestSegmentedDot:
    """SpMV over rows and SpTTV over fibers are the same leaf."""

    def test_rows_match_oracle(self, segments):
        pos, crd, vals, ncols, expected = segments
        x = rng.random(ncols)
        out = np.zeros(pos.shape[0])
        spmv_rows(pos, crd, vals, x, out, 0, pos.shape[0] - 1)
        assert np.allclose(out, expected(x))

    def test_rows_match_reference(self, segments):
        pos, crd, vals, ncols, _ = segments
        x = rng.random(ncols)
        out_v = np.zeros(pos.shape[0])
        out_r = np.zeros(pos.shape[0])
        spmv_rows(pos, crd, vals, x, out_v, 5, 20)
        spmv_rows_reference(pos, crd, vals, x, out_r, 5, 20)
        assert out_r[5:21].any() and np.allclose(out_v, out_r)

    def test_nonzeros_pieces_sum(self, segments):
        pos, crd, vals, ncols, expected = segments
        x = rng.random(ncols)
        out = np.zeros(pos.shape[0])
        third = vals.size // 3
        spmv_nonzeros(pos, crd, vals, x, out, 0, third)
        spmv_nonzeros(pos, crd, vals, x, out, third + 1, 2 * third)
        spmv_nonzeros(pos, crd, vals, x, out, 2 * third + 1, vals.size - 1)
        assert np.allclose(out, expected(x))

    def test_empty_piece_zero_work(self, segments):
        pos, crd, vals, ncols, _ = segments
        out = np.zeros(pos.shape[0])
        w = spmv_rows(pos, crd, vals, rng.random(ncols), out, 5, 4)
        assert w.flops == 0

    def test_empty_row_range(self, csr_case):
        M, pos, crd, vals = csr_case
        x = rng.random(M.shape[1])
        out = np.ones(M.shape[0])
        spmv_rows(pos, crd, vals, x, out, 3, 3)  # the empty row
        assert out[3] == 0.0

    def test_work_counts_nnz(self, segments):
        pos, crd, vals, ncols, _ = segments
        out = np.zeros(pos.shape[0])
        w = spmv_rows(pos, crd, vals, rng.random(ncols), out, 0, pos.shape[0] - 1)
        assert w.flops == 2.0 * vals.size


class TestSpMM:
    def test_rows(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[1], 7))
        out = np.zeros((M.shape[0], 7))
        spmm_rows(pos, crd, vals, C, out, 0, M.shape[0] - 1)
        assert np.allclose(out, M @ C)

    def test_rows_vs_reference(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[1], 4))
        a = np.zeros((M.shape[0], 4))
        b = np.zeros((M.shape[0], 4))
        spmm_rows(pos, crd, vals, C, a, 2, 18)
        spmm_rows_reference(pos, crd, vals, C, b, 2, 18)
        assert np.allclose(a[2:19], b[2:19])

    def test_nonzeros(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[1], 7))
        out = np.zeros((M.shape[0], 7))
        half = M.nnz // 2
        spmm_nonzeros(pos, crd, vals, C, out, 0, half)
        spmm_nonzeros(pos, crd, vals, C, out, half + 1, M.nnz - 1)
        assert np.allclose(out, M @ C)


class TestSDDMM:
    def test_matches_dense_formula(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[0], 5))
        D = rng.random((5, M.shape[1]))
        ov = np.zeros(M.nnz)
        sddmm_nonzeros(pos, crd, vals, C, D, ov, 0, M.nnz - 1)
        expected = M.multiply(C @ D).tocsr()
        got = sp.csr_matrix(
            (ov, crd, np.concatenate([pos[:, 0], [M.nnz]])), shape=M.shape
        )
        assert np.allclose(got.toarray(), expected.toarray())

    def test_matches_reference(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[0], 5))
        D = rng.random((5, M.shape[1]))
        a = np.zeros(M.nnz)
        b = np.zeros(M.nnz)
        sddmm_nonzeros(pos, crd, vals, C, D, a, 3, 40)
        sddmm_reference(pos, crd, vals, C, D, b, 3, 40)
        assert np.allclose(a[3:41], b[3:41])


class TestSpAdd3:
    def test_two_phase_matches_scipy(self):
        n, m = 20, 16
        mats = [
            sp.random(n, m, density=0.15, random_state=rng, format="csr")
            for _ in range(3)
        ]
        tensors = [Tensor.from_scipy(f"T{i}", M, CSR) for i, M in enumerate(mats)]
        meta = [(t.levels[1].pos.data, t.levels[1].crd.data) for t in tensors]
        plan = spadd3_plan(meta, m, 0, n - 1)
        counts, _ = spadd3_symbolic(plan)
        pos = make_pos_region(counts)
        vals = np.zeros(int(counts.sum()))
        spadd3_fill(plan, [t.vals.data for t in tensors], vals)
        expected = (mats[0] + mats[1] + mats[2]).toarray()
        got = np.zeros((n, m))
        for r in range(n):
            for p in range(pos.data[r, 0], pos.data[r, 1] + 1):
                got[r, plan.crd[p]] = vals[p]
        assert np.allclose(got, expected)

    def test_plan_is_structural_and_refills(self):
        """A value-only change needs no new plan: the same plan fills the
        new values, and a row window of it slices each operand."""
        a = Tensor.from_dense("a", np.array([[1.0, 0, 2.0], [0, 3.0, 0], [4.0, 0, 0]]), CSR)
        b = Tensor.from_dense("b", np.array([[0, 5.0, 6.0], [0, 0, 0], [7.0, 0, 8.0]]), CSR)
        meta = [(t.levels[1].pos.data, t.levels[1].crd.data) for t in (a, b)]
        plan = spadd3_plan(meta, 3, 1, 2)
        assert plan.slices == (slice(2, 4), slice(2, 4))
        assert plan.counts.tolist() == [1, 2] and plan.crd.tolist() == [1, 0, 2]
        assert plan.inverse.tolist() == [0, 1, 1, 2]
        out = np.zeros(3)
        spadd3_fill(plan, [a.vals.data, b.vals.data], out)
        assert out.tolist() == [3.0, 11.0, 8.0]
        a.vals.data[3] = 40.0
        spadd3_fill(plan, [a.vals.data, b.vals.data], out)
        assert out.tolist() == [3.0, 47.0, 8.0]

    def test_fill_gathers_before_it_writes(self):
        """The output slice may alias an operand's values (``A = B + A``
        with a stable pattern)."""
        a = Tensor.from_dense("a", np.array([[1.0, 2.0], [0, 3.0]]), CSR)
        b = Tensor.from_dense("b", np.array([[0, 5.0], [0, 7.0]]), CSR)
        meta = [(t.levels[1].pos.data, t.levels[1].crd.data) for t in (b, a)]
        plan = spadd3_plan(meta, 2, 0, 1)
        spadd3_fill(plan, [b.vals.data, a.vals.data], a.vals.data)
        assert a.vals.data.tolist() == [1.0, 7.0, 10.0]

    def test_symbolic_counts_union(self):
        a = Tensor.from_dense("a", np.array([[1.0, 0], [0, 2.0]]), CSR)
        b = Tensor.from_dense("b", np.array([[1.0, 3.0], [0, 0]]), CSR)
        meta = [(t.levels[1].pos.data, t.levels[1].crd.data) for t in (a, b)]
        counts, work = spadd3_symbolic(spadd3_plan(meta, 2, 0, 1))
        assert counts.tolist() == [2, 1]
        assert (work.flops, work.bytes) == (4.0, 64.0)  # 4 entries touched

    def test_empty_operands(self):
        a = Tensor.zeros("a", (3, 3), CSR)
        meta = [(a.levels[1].pos.data, a.levels[1].crd.data)] * 2
        plan = spadd3_plan(meta, 3, 0, 2)
        counts, work = spadd3_symbolic(plan)
        assert counts.tolist() == [0, 0, 0] and work == Work.zero()
        assert spadd3_fill(plan, [a.vals.data] * 2, np.zeros(0)) == Work.zero()
        # a piece past the last row (more pieces than rows)
        assert spadd3_plan(meta, 3, 4, 2).counts.size == 0


@pytest.fixture(params=[CSF3, DDC], ids=repr)
def tensor3_case(request):
    shape = (8, 7, 6)
    idx = [rng.integers(0, s, 120) for s in shape]
    vals = rng.random(120) + 0.5
    T = Tensor.from_coo("T", idx, vals, shape, request.param)
    return T, T.to_dense()


class TestSpMTTKRP:
    """One body for every level stack: ``coords`` is the tensor's own."""

    def test_matches_einsum(self, tensor3_case):
        T, dense = tensor3_case
        C = rng.random((7, 4))
        D = rng.random((6, 4))
        out = np.zeros((8, 4))
        spmttkrp(T.coords_of, T.vals.data, C, D, out, 0, T.nnz - 1,
                 accumulate=True)
        assert np.allclose(out, np.einsum("ijk,jl,kl->il", dense, C, D))

    def test_matches_reference(self, tensor3_case):
        T, dense = tensor3_case
        C = rng.random((7, 3))
        D = rng.random((6, 3))
        a = np.zeros((8, 3))
        b = np.zeros((8, 3))
        spmttkrp(T.coords_of, T.vals.data, C, D, a, 10, 60, accumulate=True)
        spmttkrp_reference(T.coords_of, T.vals.data, C, D, b, 10, 60)
        assert b.any() and np.allclose(a, b)
