"""Harness tests: the kernel runner computes the right answer for every
kernel × strategy the figures run, picks the kernel table's strategy by
default, and the scaled machine model behaves sanely."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench import (
    BenchConfig,
    ctf_run,
    default_config,
    geomean,
    harness,
    petsc_run,
    shifted,
    spdistal_run,
    trilinos_run,
)
from repro.core import compile_kernel
from repro.core.kernelspec import SPECS
from repro.data import load_tensor
from repro.data.matrices import banded

rng = np.random.default_rng(17)
CFG = default_config(dataset_scale=0.15)


@pytest.fixture(scope="module")
def mat():
    return sp.random(400, 400, density=0.04, random_state=rng, format="csr")


class TestModels:
    def test_scaled_node_rates(self):
        cfg = BenchConfig(rate_scale=1e-4)
        assert cfg.node.core_flops == pytest.approx(8.0e9 * 1e-4)
        assert cfg.node.gpu_mem_bytes == pytest.approx(16 * 1024**3 * 1e-4)

    def test_latencies_not_scaled(self):
        cfg = BenchConfig(rate_scale=1e-4)
        assert cfg.legion_network().alpha == pytest.approx(1.5e-6)
        assert cfg.mpi_network(80).sync_overhead > 0

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert np.isnan(geomean([float("nan")]))


def _matrix_case(kind, M):
    """(operands, reference) of one matrix kernel over ``M``."""
    r = np.random.default_rng(6)
    if kind == "spmv":
        x = r.random(400)
        return (M, x), M @ x
    if kind == "spmm":
        C = r.random((400, 8))
        return (M, C), M @ C
    if kind == "spadd3":
        B, C, D = M, shifted(M, 1), shifted(M, 2)
        return (B, C, D), (B + C + D).toarray()
    C, D = r.random((400, 8)), r.random((8, 400))
    return (M, C, D), M.multiply(C @ D).toarray()


def _tensor_case(kind, dataset):
    T = load_tensor(dataset, 0.15, CFG.seed)
    r = np.random.default_rng(7)
    dense = T.to_dense()
    if kind == "spttv":
        x = r.random(T.shape[2])
        return (T, x), np.einsum("ijk,k->ij", dense, x)
    C, D = r.random((T.shape[1], 5)), r.random((T.shape[2], 5))
    return (T, C, D), np.einsum("ijk,jl,kl->il", dense, C, D)


def _case(kind, dataset, mat):
    return _tensor_case(kind, dataset) if dataset else _matrix_case(kind, mat)


#: every (kernel, strategy) the figures run, with the dataset of the
#: higher-order kernels (nell-2 is CSF3, patents DDC).
RUNS = [
    ("spmv", "rows", None), ("spmv", "nonzeros", None),
    ("spmm", "rows", None), ("spmm", "nonzeros", None), ("spmm", "batched", None),
    ("spadd3", "rows", None),
    ("sddmm", "rows", None), ("sddmm", "nonzeros", None),
    ("spttv", "rows", "nell-2"), ("spttv", "nonzeros", "nell-2"),
    ("spttv", "rows", "patents"), ("spttv", "nonzeros", "patents"),
    ("spmttkrp", "rows", "nell-2"), ("spmttkrp", "nonzeros", "nell-2"),
]


class TestSpdistalRun:
    @pytest.mark.parametrize("gpus", [None, 4], ids=["cpu", "gpu"])
    @pytest.mark.parametrize(
        "kind,strategy,dataset", RUNS,
        ids=["-".join(filter(None, r)) for r in RUNS],
    )
    def test_matches_reference(self, kind, strategy, dataset, gpus, mat):
        operands, expected = _case(kind, dataset, mat)
        r = spdistal_run(kind, operands, 2, CFG, gpus=gpus, strategy=strategy)
        assert r.ok and r.system == "SpDISTAL"
        assert np.allclose(r.value.to_dense(), expected)

    @pytest.mark.parametrize("gpus", [None, 4], ids=["cpu", "gpu"])
    @pytest.mark.parametrize(
        "kind,dataset,spec_kind",
        [("spmv", None, "spmv"), ("spmm", None, "spmm"), ("spadd3", None, "spadd"),
         ("sddmm", None, "sddmm"), ("spttv", "nell-2", "spttv"),
         ("spttv", "patents", "spttv"), ("spmttkrp", "nell-2", "spmttkrp")],
    )
    def test_default_strategy_is_the_kernel_tables(
        self, kind, dataset, spec_kind, gpus, mat, monkeypatch
    ):
        compiled = []

        def spy(s, machine):
            ck = compile_kernel(s, machine)
            compiled.append((ck.kind, ck.strategy, machine.kind))
            return ck

        monkeypatch.setattr(harness, "compile_kernel", spy)
        operands, _ = _case(kind, dataset, mat)
        assert spdistal_run(kind, operands, 2, CFG, gpus=gpus).ok
        ((ck_kind, strategy, proc_kind),) = compiled
        assert ck_kind == spec_kind
        assert strategy == SPECS[spec_kind].default_strategy(proc_kind)

    def test_shifted_preserves_nnz(self, mat):
        assert shifted(mat, 3).nnz == mat.nnz


class TestCrossSystemAgreement:
    def test_all_systems_same_spmv_answer(self, mat):
        x = rng.random(400)
        sd = spdistal_run("spmv", (mat, x), 2, CFG)
        pe = petsc_run("spmv", (mat, x), 2, CFG)
        tr = trilinos_run("spmv", (mat, x), 2, CFG)
        cf = ctf_run("spmv", (mat, x), 2, CFG)
        for r in (pe, tr, cf):
            assert np.allclose(r.value, sd.value.to_dense())

    def test_ctf_interpretation_much_slower(self, mat):
        x = rng.random(400)
        sd = spdistal_run("spmv", (mat, x), 2, CFG)
        cf = ctf_run("spmv", (mat, x), 2, CFG)
        assert cf.seconds > 10 * sd.seconds  # 1-2 orders in the paper

    def test_petsc_competitive_on_spmv(self, mat):
        x = rng.random(400)
        sd = spdistal_run("spmv", (mat, x), 2, CFG)
        pe = petsc_run("spmv", (mat, x), 2, CFG)
        assert pe.seconds < 10 * sd.seconds  # same ballpark

    def test_fused_add_beats_baselines(self, mat):
        B, C, D = mat, shifted(mat, 1), shifted(mat, 2)
        sd = spdistal_run("spadd3", (B, C, D), 2, CFG)
        pe = petsc_run("spadd3", (B, C, D), 2, CFG)
        tr = trilinos_run("spadd3", (B, C, D), 2, CFG)
        assert sd.seconds < pe.seconds < tr.seconds


class TestScalingShape:
    def test_strong_scaling_improves(self, mat):
        x = rng.random(400)
        t1 = spdistal_run("spmv", (mat, x), 1, CFG).seconds
        t4 = spdistal_run("spmv", (mat, x), 4, CFG).seconds
        assert t4 < t1

    def test_weak_scaling_flat(self):
        unit = 3000
        times = []
        for nodes in (1, 4):
            A = banded(unit * nodes, 5, seed=1)
            x = np.ones(unit * nodes)
            times.append(spdistal_run("spmv", (A, x), nodes, CFG).seconds)
        assert times[1] == pytest.approx(times[0], rel=0.25)

    def test_gpu_oom_reports_dnc(self, mat):
        tiny = BenchConfig(rate_scale=1e-7, dataset_scale=0.15)
        r = spdistal_run("spmm", (mat, rng.random((400, 8))), 0, tiny, gpus=1,
                         strategy="nonzeros")
        assert r.oom and not r.ok
