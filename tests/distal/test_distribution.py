"""Applying TDN statements to tensors: partitions, placement, balance."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.distal import distribute, parse_tdn, partition_for_tdn, place_tensor
from repro.errors import CompileError, FormatError
from repro.legion import Grid, Machine, Runtime
from repro.taco import CSF3, CSR, Tensor

rng = np.random.default_rng(5)


def skewed_matrix(n=64):
    """First row holds half the non-zeros — a worst case for row splits."""
    rows = np.concatenate([np.zeros(n, dtype=np.int64),
                           rng.integers(0, n, n)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, n)])
    return Tensor.from_coo("B", [rows, cols], np.ones(2 * n), (n, n), CSR)


class TestMatrixDistributions:
    def test_row_wise_fig4b(self):
        B = skewed_matrix()
        d = distribute(B, "B(x, y) -> M(x)", Machine.cpu(4))
        assert d.partition.vals_part.is_disjoint()
        total = sum(d.partition.vals_subset(c).volume for c in range(4))
        assert total == B.nnz

    def test_row_wise_imbalanced_on_skew(self):
        B = skewed_matrix()
        d = distribute(B, "B(x, y) -> M(x)", Machine.cpu(4))
        assert d.load_balance() > 1.5

    def test_fused_nonzero_fig5c_balances(self):
        B = skewed_matrix()
        d = distribute(B, "B(x, y) [x y -> f] -> M(~f)", Machine.cpu(4))
        assert d.load_balance() == pytest.approx(1.0, abs=0.05)

    def test_nonzero_of_row_dim_splits_rows_of_nonzeros(self):
        B = skewed_matrix()
        d = distribute(B, "B(~x, y) -> M(~x)", Machine.cpu(4)) if False else \
            distribute(B, "B(x, y) -> M(~x)", Machine.cpu(4))
        # ~x alone partitions the row *coordinates'* stored entries; for a
        # Dense row level that equals a universe partition
        assert sum(d.partition.vals_subset(c).volume for c in range(4)) == B.nnz

    def test_replication(self):
        c = Tensor.from_dense("c", rng.random(10))
        d = distribute(c, "c(x) -> M(y)", Machine.cpu(4))
        assert d.partition.replicated
        assert d.load_balance() == 1.0

    def test_dense_tiled_2d(self):
        D = Tensor.from_dense("D", rng.random((8, 8)))
        m = Machine(Grid(2, 2))
        d = distribute(D, "D(x, y) -> M(x, y)", m)
        vols = [d.partition.vals_subset(c).volume for c in d.partition.colors]
        assert vols == [16, 16, 16, 16]

    def test_order_mismatch_rejected(self):
        B = skewed_matrix()
        with pytest.raises(FormatError):
            distribute(B, "B(x) -> M(x)", Machine.cpu(2))

    def test_machine_rank_mismatch_rejected(self):
        B = skewed_matrix()
        with pytest.raises(FormatError):
            distribute(B, "B(x, y) -> M(x, y)", Machine.cpu(2))

    def test_two_sparse_dims_rejected(self):
        B = skewed_matrix()
        m = Machine(Grid(2, 2))
        with pytest.raises(CompileError):
            distribute(B, "B(x, y) -> M(x, y)", m)


class Test3TensorDistributions:
    """The three distributions discussed under Fig. 5: slices/tubes/values."""

    @pytest.fixture
    def T(self):
        idx = [rng.integers(0, 20, 400) for _ in range(3)]
        return Tensor.from_coo("T", idx, np.ones(400), (20, 20, 20), CSF3)

    def test_nonzero_values_best_balance(self, T):
        m = Machine.cpu(4)
        slices = distribute(T, "T(x,y,z) -> M(~x)", m).load_balance()
        tubes = distribute(T, "T(x,y,z) [x y -> f] -> M(~f)", m).load_balance()
        values = distribute(T, "T(x,y,z) [x y z -> f] -> M(~f)", m).load_balance()
        assert values <= tubes + 0.05
        assert values == pytest.approx(1.0, abs=0.02)

    def test_values_split_covers_everything(self, T):
        d = distribute(T, "T(x,y,z) [x y z -> f] -> M(~f)", Machine.cpu(4))
        assert sum(d.partition.vals_subset(c).volume for c in range(4)) == T.nnz


class TestPlacement:
    def test_place_tensor_declares_and_homes(self):
        B = skewed_matrix()
        m = Machine.cpu(4)
        rt = Runtime(m)
        d = place_tensor(B, parse_tdn("B(x, y) -> M(x)"), m, rt)
        # the declaration is the runtime's, not the tensor's
        assert {r.uid for r in B.regions()} <= rt.declared
        assert not Runtime(m).declared
        assert not hasattr(B, "_placed_by_tdn")
        # homes registered for pos/crd/vals regions
        assert B.vals.uid in rt._home
        assert len(rt._home[B.vals.uid].pieces()) == 4

    def test_prediction_is_exact_for_a_tdn_placed_operand(self):
        """The planner's scratch runtime takes B's homes from the session
        runtime (``Runtime.copy_homes``): a two-statement program over a
        non-zero-split B predicts every staging event exactly, and seeding
        B's homes for both statements does not duplicate them."""
        from repro.analysis import predict_metrics
        from repro.analysis.commplan import _mirror, measured_signature
        from repro.api.autoschedule import auto_schedule
        from repro.core import compile_program
        from repro.legion.metrics import ExecutionMetrics
        from repro.taco import index_vars

        m = Machine.cpu(4)
        B = Tensor.from_scipy("B", sp.random(40, 40, density=0.15, format="csr",
                                             random_state=3), CSR)
        x = Tensor.from_dense("x", rng.random(40))
        y, z = Tensor.zeros("y", (40,)), Tensor.zeros("z", (40,))
        rt = Runtime(m)
        place_tensor(B, parse_tdn("B(x, y) [x y -> f] -> M(~f)"), m, rt)
        i, j, i2, j2 = index_vars("i j i2 j2")
        y[i] = B[i, j] * x[j]
        z[i2] = B[i2, j2] * y[j2]
        prog = compile_program(
            [auto_schedule(t.assignment, m) for t in (y, z)], m)
        predicted = predict_metrics(prog, runtime=rt)
        res = prog.execute(rt)
        steps = [s for r in res.results for s in r.metrics.steps]
        measured = measured_signature(ExecutionMetrics(steps=steps), rt)
        assert predicted == measured
        assert sum(len(s.comm_events) for s in steps) > 0  # B really moves
        _, scratch = _mirror(prog.kernels, m, runtime=rt)
        assert scratch._home[B.vals.uid].pieces() == rt._home[B.vals.uid].pieces()

    def test_nbytes_per_piece(self):
        B = skewed_matrix()
        d = distribute(B, "B(x, y) -> M(x)", Machine.cpu(4))
        per = d.nbytes_per_piece()
        assert len(per) == 4
        assert all(v > 0 for v in per.values())
