"""Property: every valid schedule of a statement computes the same result.

This is the compiler's core soundness property — data distribution and
computation distribution choices change performance, never answers.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_kernel
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, evaluate, index_vars


@st.composite
def spmv_case(draw):
    n = draw(st.integers(3, 24))
    m = draw(st.integers(3, 24))
    seed = draw(st.integers(0, 2**31))
    pieces = draw(st.integers(1, 6))
    strategy = draw(st.sampled_from(["rows", "nonzeros"]))
    return n, m, seed, pieces, strategy


class TestSpMVScheduleEquivalence:
    @given(spmv_case())
    @settings(max_examples=40, deadline=None)
    def test_all_schedules_agree_with_reference(self, case):
        n, m, seed, pieces, strategy = case
        rng = np.random.default_rng(seed)
        dense = rng.random((n, m)) * (rng.random((n, m)) < 0.3)
        B = Tensor.from_dense("B", dense, CSR)
        if strategy == "nonzeros" and B.nnz == 0:
            return  # nothing to split
        x = rng.random(m)
        c = Tensor.from_dense("c", x)
        a = Tensor.zeros("a", (n,))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        expected = evaluate(a.assignment)
        if strategy == "rows":
            io, ii = index_vars("io ii")
            s = a.schedule().divide(i, io, ii, pieces).distribute(io)
        else:
            f, fp, fo, fi = index_vars("f fp fo fi")
            s = (a.schedule().fuse(i, j, f).pos(f, fp, B[i, j])
                 .divide(fp, fo, fi, pieces).distribute(fo))
        ck = compile_kernel(s, Machine.cpu(max(1, min(pieces, 4))))
        ck.execute(Runtime(ck.machine))
        assert np.allclose(a.vals.data, expected)


@st.composite
def spadd_case(draw):
    n = draw(st.integers(3, 16))
    m = draw(st.integers(3, 16))
    seed = draw(st.integers(0, 2**31))
    pieces = draw(st.integers(1, 5))
    return n, m, seed, pieces


class TestSpAddScheduleEquivalence:
    @given(spadd_case())
    @settings(max_examples=30, deadline=None)
    def test_two_phase_assembly_any_piece_count(self, case):
        n, m, seed, pieces = case
        rng = np.random.default_rng(seed)

        def mk(name):
            d = rng.random((n, m)) * (rng.random((n, m)) < 0.25)
            return Tensor.from_dense(name, d, CSR), d

        B, Bd = mk("B")
        C, Cd = mk("C")
        D, Dd = mk("D")
        A = Tensor.zeros("A", (n, m), CSR)
        i, j, io, ii = index_vars("i j io ii")
        A[i, j] = B[i, j] + C[i, j] + D[i, j]
        s = A.schedule().divide(i, io, ii, pieces).distribute(io)
        ck = compile_kernel(s, Machine.cpu(max(1, min(pieces, 4))))
        ck.execute(Runtime(ck.machine))
        assert np.allclose(A.to_dense(), Bd + Cd + Dd)


@st.composite
def mttkrp_case(draw):
    seed = draw(st.integers(0, 2**31))
    pieces = draw(st.integers(1, 4))
    strategy = draw(st.sampled_from(["rows", "nonzeros"]))
    return seed, pieces, strategy


class TestMTTKRPScheduleEquivalence:
    @given(mttkrp_case())
    @settings(max_examples=25, deadline=None)
    def test_row_and_nonzero_agree(self, case):
        seed, pieces, strategy = case
        rng = np.random.default_rng(seed)
        from repro.taco import CSF3

        shape = (8, 7, 6)
        nnz = 60
        idx = [rng.integers(0, s, nnz) for s in shape]
        T = Tensor.from_coo("T", idx, rng.random(nnz) + 0.5, shape, CSF3)
        if strategy == "nonzeros" and T.nnz == 0:
            return
        Cd = rng.random((7, 3))
        Dd = rng.random((6, 3))
        C, D = Tensor.from_dense("C", Cd), Tensor.from_dense("D", Dd)
        A = Tensor.zeros("A", (8, 3))
        i, j, k, l = index_vars("i j k l")
        A[i, l] = T[i, j, k] * C[j, l] * D[k, l]
        if strategy == "rows":
            io, ii = index_vars("io ii")
            s = A.schedule().divide(i, io, ii, pieces).distribute(io)
        else:
            g1, g2, gp, go, gi = index_vars("g1 g2 gp go gi")
            s = (A.schedule().reorder(j, l).fuse(i, j, g1).reorder(k, l)
                 .fuse(g1, k, g2).pos(g2, gp, T[i, j, k])
                 .divide(gp, go, gi, pieces).distribute(go))
        ck = compile_kernel(s, Machine.cpu(max(1, min(pieces, 4))))
        ck.execute(Runtime(ck.machine))
        expected = np.einsum("ijk,jl,kl->il", T.to_dense(), Cd, Dd)
        assert np.allclose(A.dense_array(), expected)
