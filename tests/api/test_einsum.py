"""repro.einsum: the NumPy-style entry point over the SpDISTAL pipeline.

Acceptance property: an auto-scheduled ``einsum`` SpMV matches the
hand-scheduled kernel bit-identically in values and simulated metrics.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core import clear_caches, compile_kernel
from repro.bench.models import default_config
from repro.legion import Runtime
from repro.taco import Tensor, index_vars


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestSpMVAcceptance:
    def test_einsum_spmv_matches_hand_scheduled_bit_identically(self):
        cfg = default_config()
        machine = cfg.cpu_machine(4)
        network = cfg.legion_network()
        M = sp.random(300, 300, density=0.02, format="csr",
                      random_state=np.random.default_rng(0))
        x = np.random.default_rng(1).random(300)

        # Hand-scheduled reference (the paper's row-based SpMV).
        B = Tensor.from_scipy("B", M, repro.CSR)
        c = Tensor.from_dense("c", x)
        a = Tensor.zeros("a", (300,))
        i, j, io, ii = index_vars("i j io ii")
        a[i] = B[i, j] * c[j]
        sched = (a.schedule().divide(i, io, ii, machine.size).distribute(io)
                 .communicate([a, B, c], io).parallelize(ii))
        rt = Runtime(machine, network)
        hand = compile_kernel(sched, machine).execute(rt)

        # Auto-scheduled einsum over fresh tensors on an equivalent session.
        clear_caches()
        with repro.session(machine=machine, network=network) as s:
            out = repro.einsum("ij,j->i", s.tensor("B2", M, repro.CSR),
                               s.tensor("c2", x), session=s)
            auto = s.last_result

        assert np.array_equal(out.vals.data, a.vals.data)
        assert auto.simulated_seconds == hand.simulated_seconds
        assert (auto.metrics.total_comm_bytes()
                == hand.metrics.total_comm_bytes())


class TestRawSciPyOperands:
    def test_sparse_operand_runs_as_spmv_not_as_a_dense_matrix(self):
        from repro.core import classify

        M = sp.random(300, 300, density=0.02, format="csr",
                      random_state=np.random.default_rng(0))
        x = np.random.default_rng(1).random(300)
        with repro.session(nodes=4) as s:
            out = repro.einsum("ij,j->i", M, x, session=s)
            cls = classify(out.assignment)
            B = cls.roles["B"].tensor
            kernel = s.compile_kernel(out.assignment)
        assert cls.kind == "spmv" and kernel.kind == "spmv"
        assert B.format is repro.CSR and B.nnz == M.nnz
        assert B.nbytes < 300 * 300 * 8 / 10
        assert np.allclose(out.vals.data, M @ x)

    def test_csc_operand_packs_csc_and_computes_the_untransposed_product(self):
        from repro.core import classify

        M = sp.random(40, 40, density=0.2, format="csc",
                      random_state=np.random.default_rng(2))
        x = np.random.default_rng(3).random(40)
        with repro.session(nodes=2) as s:
            out = repro.einsum("ij,j->i", M, x, session=s)
            # The row kernels read levels as row-major storage; on CSC's
            # column-major levels they would compute M.T @ x.
            assert classify(out.assignment).kind == "generic"
            B = out.assignment.rhs.operands[0].tensor
        assert B.format is repro.CSC
        assert np.allclose(out.vals.data, M @ x)
        assert not np.allclose(out.vals.data, M.T @ x)


class TestSemantics:
    def test_matmul(self):
        A = np.random.default_rng(2).random((6, 4))
        Bm = np.random.default_rng(3).random((4, 5))
        with repro.session(nodes=2) as s:
            out = repro.einsum("ik,kj->ij", A, Bm, session=s)
        assert np.allclose(out.dense_array(), A @ Bm)

    def test_implicit_output_follows_numpy_convention(self):
        A = np.random.default_rng(4).random((3, 4))
        v = np.random.default_rng(5).random(4)
        with repro.session() as s:
            out = repro.einsum("ij,j", A, v, session=s)  # -> "i"
        assert out.shape == (3,)
        assert np.allclose(out.vals.data, A @ v)

    def test_mttkrp_subscripts(self):
        rng = np.random.default_rng(6)
        T = rng.random((5, 4, 3)) * (rng.random((5, 4, 3)) < 0.5)
        C = rng.random((4, 2))
        D = rng.random((3, 2))
        with repro.session(nodes=2) as s:
            Tt = Tensor.from_dense("T", T, repro.CSF3)
            out = repro.einsum("ijk,jr,kr->ir", Tt, C, D, session=s)
        assert np.allclose(out.dense_array(),
                           np.einsum("ijk,jr,kr->ir", T, C, D))

    @pytest.mark.parametrize("machine", [dict(nodes=4), dict(gpus=4)],
                             ids=["nodes4", "gpus4"])
    @pytest.mark.parametrize("backend", ["codegen", "interp"])
    def test_spttv_into_the_default_dense_output(self, machine, backend):
        """The SpTTV leaf writes one value per fiber position; the default
        dense output is indexed ``i * n1 + j`` — the kernel table must see
        the difference from level types, not bind by the name "CSF3"."""
        rng = np.random.default_rng(11)
        shape, nnz = (30, 8, 9), 120
        idx = [rng.integers(0, n, nnz) for n in shape]
        T = Tensor.from_coo("T", idx, rng.integers(1, 5, nnz).astype(float),
                            shape, repro.CSF3)
        c = rng.integers(1, 5, shape[2]).astype(float)
        with repro.session(backend=backend, **machine) as s:
            out = repro.einsum("ijk,k->ij", T, c, session=s)
        assert out.format.is_all_dense()
        assert np.array_equal(out.dense_array(),
                              np.einsum("ijk,k->ij", T.to_dense(), c))

    def test_out_tensor_is_used(self):
        M = sp.random(20, 20, density=0.2, format="csr",
                      random_state=np.random.default_rng(7))
        x = np.random.default_rng(8).random(20)
        with repro.session() as s:
            mine = Tensor.zeros("mine", (20,))
            got = repro.einsum("ij,j->i", M, x, session=s, out=mine)
        assert got is mine
        assert np.allclose(mine.vals.data, M @ x)

    def test_schedule_builder_override(self):
        M = sp.random(30, 30, density=0.2, format="csr",
                      random_state=np.random.default_rng(9))
        x = np.random.default_rng(10).random(30)

        def nonzeros(asg):
            from repro.taco import Schedule

            i, j = asg.index_vars()
            f, fp, fo, fi = index_vars("f fp fo fi")
            B = asg.rhs.accesses()[0]
            return (Schedule(asg).fuse(i, j, f).pos(f, fp, B)
                    .divide(fp, fo, fi, 2).distribute(fo))

        with repro.session(nodes=2) as s:
            out = repro.einsum("ij,j->i", s.tensor("B", M, repro.CSR), x,
                               session=s, schedule=nonzeros)
        assert np.allclose(out.vals.data, M @ x)

    def test_implicit_session_works(self):
        v = np.arange(4.0)
        Mx = np.eye(4)
        out = repro.einsum("ij,j->i", Mx, v)
        assert np.allclose(out.vals.data, v)


class TestSpecErrors:
    def test_operand_count_mismatch(self):
        with pytest.raises(ValueError, match="names 2 operands"):
            repro.einsum("ij,j->i", np.eye(2))

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonals"):
            repro.einsum("ii->i", np.eye(2))

    def test_ellipsis_rejected(self):
        with pytest.raises(ValueError, match="ellipses"):
            repro.einsum("...i->i", np.eye(2))

    def test_unknown_output_subscript(self):
        with pytest.raises(ValueError, match="never appear"):
            repro.einsum("ij->k", np.eye(2))

    def test_full_reduction_rejected(self):
        with pytest.raises(ValueError, match="full reductions"):
            repro.einsum("ij->", np.eye(2))

    def test_inconsistent_extents(self):
        with pytest.raises(ValueError, match="inconsistent extents"):
            repro.einsum("ij,j->i", np.ones((2, 3)), np.ones(4))

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            repro.einsum("ijk,j->i", np.ones((2, 3)), np.ones(3))

    def test_out_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            repro.einsum("ij,j->i", np.ones((2, 3)), np.ones(3),
                         out=Tensor.zeros("o", (5,)))
