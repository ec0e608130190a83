"""Auto-scheduler equivalence: synthesized == hand-written, bit for bit.

The reference table: for every (kernel × strategy) the paper's evaluation
runs (§VI-A), on a CPU and a GPU machine, the auto-synthesized schedule
must produce *bit-identical values* and *identical simulated metrics*
(seconds, communication bytes, task counts) to the hand-written schedule
below — the auto-scheduler is a default, never a different algorithm.
The benchmark runner (``repro.bench.spdistal_run``) schedules every
figure through ``auto_schedule``, so this table is what keeps the figures
on the paper's schedules.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import auto_schedule, auto_strategy
from repro.bench.models import default_config
from repro.core import clear_caches, compile_kernel
from repro.legion import Machine, Runtime
from repro.taco import CSF3, CSR, DDC, Tensor, index_vars

PIECES = 4


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _machine():
    cfg = default_config()
    return cfg.cpu_machine(PIECES), cfg.legion_network()


def _run(sched, machine, network):
    rt = Runtime(machine, network)
    ck = compile_kernel(sched, machine)
    ck.execute(rt)  # cold: placement + staging
    return ck.execute(rt)  # warm trial


# --------------------------------------------------------------------------- #
# the statements: (output, every tensor, index variables)
# --------------------------------------------------------------------------- #
_rng = np.random.default_rng(11)
_M = sp.random(120, 90, density=0.05, format="csr", random_state=_rng)
_M2 = sp.random(120, 90, density=0.05, format="csr", random_state=_rng)
_M3 = sp.random(120, 90, density=0.05, format="csr", random_state=_rng)
_X = _rng.random(90)
_C = _rng.random((90, 8))
_SC, _SD = _rng.random((120, 6)), _rng.random((6, 90))
_SHAPE = (40, 30, 20)
_COORDS = [_rng.integers(0, n, 500) for n in _SHAPE]
_TVALS = _rng.random(500) + 0.5
_TX = _rng.random(20)
_TC, _TD = _rng.random((30, 5)), _rng.random((20, 5))


def _spmv(fmt):
    B = Tensor.from_scipy("B", _M, CSR)
    c = Tensor.from_dense("c", _X)
    a = Tensor.zeros("a", (120,))
    i, j = index_vars("i j")
    a[i] = B[i, j] * c[j]
    return a, (a, B, c), (i, j)


def _spmm(fmt):
    B = Tensor.from_scipy("B", _M, CSR)
    C = Tensor.from_dense("C", _C)
    A = Tensor.zeros("A", (120, 8))
    i, k, j = index_vars("i k j")
    A[i, j] = B[i, k] * C[k, j]
    return A, (A, B, C), (i, k, j)


def _spadd3(fmt):
    B, C, D = (Tensor.from_scipy(n, m, CSR) for n, m in zip("BCD", (_M, _M2, _M3)))
    A = Tensor.zeros("A", (120, 90), CSR)
    i, j = index_vars("i j")
    A[i, j] = B[i, j] + C[i, j] + D[i, j]
    return A, (A, B, C, D), (i, j)


def _sddmm(fmt):
    B = Tensor.from_scipy("B", _M, CSR)
    C = Tensor.from_dense("C", _SC)
    D = Tensor.from_dense("D", _SD)
    A = Tensor.zeros("A", (120, 90), CSR)
    i, j, k = index_vars("i j k")
    A[i, j] = B[i, j] * C[i, k] * D[k, j]
    return A, (A, B, C, D), (i, j, k)


def _spttv(fmt):
    B = Tensor.from_coo("B", _COORDS, _TVALS, _SHAPE, fmt)
    c = Tensor.from_dense("c", _TX)
    A = Tensor.zeros("A", _SHAPE[:2], None if fmt == DDC else CSR)
    i, j, k = index_vars("i j k")
    A[i, j] = B[i, j, k] * c[k]
    return A, (A, B, c), (i, j, k)


def _spmttkrp(fmt):
    B = Tensor.from_coo("B", _COORDS, _TVALS, _SHAPE, fmt)
    C = Tensor.from_dense("C", _TC)
    D = Tensor.from_dense("D", _TD)
    A = Tensor.zeros("A", (40, 5))
    i, j, k, l = index_vars("i j k l")
    A[i, l] = B[i, j, k] * C[j, l] * D[k, l]
    return A, (A, B, C, D), (i, j, k, l)


# --------------------------------------------------------------------------- #
# the hand-written schedules
# --------------------------------------------------------------------------- #
def _rows(out, ts, v, n):
    io, ii = index_vars("io ii")
    return (out.schedule().divide(v[0], io, ii, n).distribute(io)
            .communicate(list(ts), io).parallelize(ii))


def _batched(out, ts, v, n):
    """Row distribution with the dense C communicated at the inner row
    loop: streamed in memory-sized rounds."""
    io, ii = index_vars("io ii")
    return (out.schedule().divide(v[0], io, ii, n).distribute(io)
            .communicate(list(ts), io).communicate(ts[2], ii))


def _spmv_nonzeros(out, ts, v, n):
    (i, j), B = v, ts[1]
    f, fp, fo, fi = index_vars("f fp fo fi")
    return (out.schedule().fuse(i, j, f).pos(f, fp, B[i, j])
            .divide(fp, fo, fi, n).distribute(fo)
            .communicate(list(ts), fo).parallelize(fi))


def _spmm_nonzeros(out, ts, v, n):
    (i, k, j), B = v, ts[1]
    f, fp, fo, fi = index_vars("f fp fo fi")
    return (out.schedule().reorder(k, j)  # [i, k, j]: bring B's dims together
            .fuse(i, k, f).pos(f, fp, B[i, k])
            .divide(fp, fo, fi, n).distribute(fo)
            .communicate(list(ts), fo))


def _sddmm_nonzeros(out, ts, v, n):
    (i, j, k), B = v, ts[1]
    f, fp, fo, fi = index_vars("f fp fo fi")
    return (out.schedule().fuse(i, j, f).pos(f, fp, B[i, j])
            .divide(fp, fo, fi, n).distribute(fo)
            .communicate(list(ts), fo))


def _spttv_nonzeros(out, ts, v, n):
    (i, j, k), B = v, ts[1]
    f1, f2, fp, fo, fi = index_vars("f1 f2 fp fo fi")
    return (out.schedule().fuse(i, j, f1).fuse(f1, k, f2)
            .pos(f2, fp, B[i, j, k]).divide(fp, fo, fi, n)
            .distribute(fo).communicate(list(ts), fo))


def _spmttkrp_nonzeros(out, ts, v, n):
    (i, j, k, l), B = v, ts[1]
    g1, g2, gp, go, gi = index_vars("g1 g2 gp go gi")
    return (out.schedule().reorder(j, l).fuse(i, j, g1).reorder(k, l)
            .fuse(g1, k, g2).pos(g2, gp, B[i, j, k])
            .divide(gp, go, gi, n).distribute(go)
            .communicate(list(ts), go))


#: (kernel, strategy, operand format) → (statement, hand-written schedule)
REFERENCE = {
    ("spmv", "rows", None): (_spmv, _rows),
    ("spmv", "nonzeros", None): (_spmv, _spmv_nonzeros),
    ("spmm", "rows", None): (_spmm, _rows),
    ("spmm", "nonzeros", None): (_spmm, _spmm_nonzeros),
    ("spmm", "batched", None): (_spmm, _batched),
    ("spadd3", "rows", None): (_spadd3, _rows),
    ("sddmm", "rows", None): (_sddmm, _rows),
    ("sddmm", "nonzeros", None): (_sddmm, _sddmm_nonzeros),
    ("spttv", "rows", CSF3): (_spttv, _rows),
    ("spttv", "nonzeros", CSF3): (_spttv, _spttv_nonzeros),
    ("spttv", "rows", DDC): (_spttv, _rows),
    ("spttv", "nonzeros", DDC): (_spttv, _spttv_nonzeros),
    ("spmttkrp", "rows", CSF3): (_spmttkrp, _rows),
    ("spmttkrp", "nonzeros", CSF3): (_spmttkrp, _spmttkrp_nonzeros),
}


def _auto(out, ts, machine, strategy):
    """The synthesized side; ``batched`` is rows plus the dense C
    communicated at the inner row loop."""
    if strategy == "batched":
        s = auto_schedule(out, machine, strategy="rows")
        return s.communicate(ts[2], s.divide_rel_of(s.distributed[0]).inner)
    return auto_schedule(out, machine, strategy=strategy)


class TestReferenceTable:
    @pytest.mark.parametrize("proc", ["cpu", "gpu"])
    @pytest.mark.parametrize(
        "kind,strategy,fmt", list(REFERENCE),
        ids=["-".join(filter(None, (k, s, f and f.name))) for k, s, f in REFERENCE],
    )
    def test_auto_matches_hand(self, kind, strategy, fmt, proc):
        cfg = default_config()
        machine = cfg.cpu_machine(PIECES) if proc == "cpu" else cfg.gpu_machine(PIECES)
        network = cfg.legion_network()
        build, hand = REFERENCE[kind, strategy, fmt]
        out_h, ts, v = build(fmt)
        r_hand = _run(hand(out_h, ts, v, machine.size), machine, network)
        clear_caches()
        out_a, ts, _ = build(fmt)
        r_auto = _run(_auto(out_a, ts, machine, strategy), machine, network)
        assert np.array_equal(out_a.vals.data, out_h.vals.data)
        assert np.array_equal(out_a.to_dense(), out_h.to_dense())
        assert r_auto.simulated_seconds == r_hand.simulated_seconds
        assert (r_auto.metrics.total_comm_bytes()
                == r_hand.metrics.total_comm_bytes())
        assert r_auto.metrics.total_tasks() == r_hand.metrics.total_tasks()
        for r in (r_hand, r_auto):  # only the batched schedules stream C
            assert (strategy == "batched") == any(
                e.reason.startswith("stream ") for s in r.metrics.steps for e in s.comm_events)


class TestStrategySelection:
    def test_gpu_machines_nonzero_split_where_the_paper_does(self):
        gpu = Machine.gpu(4)
        cpu = Machine.cpu(4)
        M = sp.random(50, 50, density=0.1, format="csr",
                      random_state=np.random.default_rng(10))
        B = Tensor.from_scipy("B", M, CSR)
        Ct = Tensor.from_dense("C", np.random.rand(50, 4))
        out = Tensor.zeros("A", (50, 4))
        i, k, j = index_vars("i k j")
        out[i, j] = B[i, k] * Ct[k, j]
        assert auto_strategy(out.assignment, cpu) == "rows"
        assert auto_strategy(out.assignment, gpu) == "nonzeros"

        c = Tensor.from_dense("c", np.random.rand(50))
        a = Tensor.zeros("a", (50,))
        a[i] = B[i, j] * c[j]
        # SpMV stays row-based on both processor kinds (paper §VI-A).
        assert auto_strategy(a.assignment, gpu) == "rows"

    def test_sddmm_splits_nonzeros_on_both_processor_kinds(self):
        M = sp.random(10, 10, density=0.3, format="csr",
                      random_state=np.random.default_rng(8))
        B = Tensor.from_scipy("B", M, CSR)
        Ct = Tensor.from_dense("C", np.random.rand(10, 2))
        Dt = Tensor.from_dense("D", np.random.rand(2, 10))
        out = Tensor.zeros("A", M.shape, CSR)
        i, j, k = index_vars("i j k")
        out[i, j] = B[i, j] * Ct[i, k] * Dt[k, j]
        for machine in (Machine.cpu(4), Machine.gpu(4)):
            assert auto_strategy(out.assignment, machine) == "nonzeros"

    def test_explicit_nonzeros_without_sparse_operand_raises(self):
        from repro.errors import ScheduleError

        machine, network = _machine()
        X = Tensor.from_dense("X", np.random.rand(12, 6))
        y = Tensor.from_dense("y", np.random.rand(6))
        z = Tensor.zeros("z", (12,))
        i, j = index_vars("i j")
        z[i] = X[i, j] * y[j]
        with pytest.raises(ScheduleError, match="compressed operand"):
            auto_schedule(z, machine, strategy="nonzeros")
        # The auto-derived path stays valid: dense statements row-split.
        sched = auto_schedule(z, machine)
        assert sched.distributed
        _run(sched, machine, network)
        assert np.allclose(z.vals.data, X.dense_array() @ y.dense_array())
