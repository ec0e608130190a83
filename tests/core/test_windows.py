"""Communicate-window inference tests (DISTAL's §II-C data inference).

A dense operand indexed through a Compressed level of a partitioned sparse
tensor only needs the coordinate window its piece's crd values touch —
e.g. the banded SpMV vector halo.
"""
import numpy as np
import pytest

from repro.core import compile_kernel
from repro.data.matrices import banded
from repro.legion import Machine, Runtime, NodeSpec
from repro.taco import CSR, Tensor, index_vars


def compile_spmv(A, pieces, machine):
    B = Tensor.from_scipy("B", A, CSR)
    c = Tensor.from_dense("c", np.ones(A.shape[1]))
    a = Tensor.zeros("a", (A.shape[0],))
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    s = a.schedule().divide(i, io, ii, pieces).distribute(io)
    return compile_kernel(s, machine), B, c, a


class TestWindowInference:
    def test_banded_windows_are_narrow(self):
        A = banded(400, bandwidth=3)
        machine = Machine.cpu(4)
        ck, B, c, a = compile_spmv(A, 4, machine)
        part = ck.parts[c]
        # each piece's window: its 100 rows +- the band, not the full vector
        for color in range(4):
            vol = part.vals_part[color].volume
            assert vol <= 100 + 2 * 3
        assert "windows inferred" in ck.plan.describe()

    def test_windows_fit_in_tiny_memory_where_replication_would_not(self):
        A = banded(4000, bandwidth=2)
        # each GPU holds its matrix strip + window, never the whole vector
        node = NodeSpec(gpu_mem_bytes=120_000.0)
        machine = Machine.gpu(8, node)
        ck, B, c, a = compile_spmv(A, 8, machine)
        rt = Runtime(machine)
        ck.execute(rt)  # would raise OOMError under replication

    def test_windows_still_correct_on_scattered_columns(self):
        rng = np.random.default_rng(2)
        import scipy.sparse as sp

        A = sp.random(60, 60, density=0.2, random_state=rng, format="csr")
        machine = Machine.cpu(3)
        ck, B, c, a = compile_spmv(A, 3, machine)
        c.vals.data[:] = rng.random(60)
        ck.execute(Runtime(ck.machine))
        assert np.allclose(a.vals.data, A @ c.vals.data)

    def test_nonzero_path_windows_dense_operand(self):
        """SDDMM's D(k,j) gets j-windows from the split tensor's crd."""
        A = banded(200, bandwidth=2)
        B = Tensor.from_scipy("B", A, CSR)
        C = Tensor.from_dense("C", np.ones((200, 4)))
        D = Tensor.from_dense("D", np.ones((4, 200)))
        S = Tensor.zeros("S", (200, 200), CSR)
        i, j, k, f, fp, fo, fi = index_vars("i j k f fp fo fi")
        S[i, j] = B[i, j] * C[i, k] * D[k, j]
        s = (S.schedule().fuse(i, j, f).pos(f, fp, B[i, j])
             .divide(fp, fo, fi, 4).distribute(fo))
        ck = compile_kernel(s, Machine.cpu(4))
        part = ck.parts[D]
        assert not part.replicated
        for color in range(4):
            assert part.vals_part[color].volume < 200 * 4  # windowed, not full
        ck.execute(Runtime(ck.machine))
        expected = A.multiply(np.ones((200, 4)) @ np.ones((4, 200)))
        assert np.allclose(S.to_dense(), expected.toarray())
