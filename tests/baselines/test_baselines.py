"""Baseline model tests: correctness and the behaviours the paper describes."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines import CtfConfig, PetscConfig, TrilinosConfig, ctf, petsc, trilinos
from repro.errors import OOMError
from repro.legion import NodeSpec

rng = np.random.default_rng(9)


@pytest.fixture
def mats():
    A = sp.random(300, 300, density=0.05, random_state=rng, format="csr")
    B = sp.random(300, 300, density=0.04, random_state=rng, format="csr")
    C = sp.random(300, 300, density=0.04, random_state=rng, format="csr")
    return A, B, C


class TestPetsc:
    def test_spmv_correct(self, mats):
        A, _, _ = mats
        x = rng.random(300)
        r = petsc.spmv(A, x, PetscConfig(2))
        assert np.allclose(r.value, A @ x)
        assert r.seconds > 0

    def test_spmm_correct(self, mats):
        A, _, _ = mats
        C = rng.random((300, 8))
        r = petsc.spmm(A, C, PetscConfig(2))
        assert np.allclose(r.value, A @ C)

    def test_spadd3_pairwise_correct(self, mats):
        A, B, C = mats
        r = petsc.spadd3(A, B, C, PetscConfig(2))
        assert np.allclose(r.value.toarray(), (A + B + C).toarray())
        assert r.steps == ["MatAXPY", "MatAXPY"]

    def test_strong_scaling_monotone(self, mats):
        A, _, _ = mats
        x = rng.random(300)
        # slow the cores so compute dominates latency at test scale
        node = NodeSpec(core_flops=8e4, core_membw=6.5e4)
        t1 = petsc.spmv(A, x, PetscConfig(1, node=node)).seconds
        t4 = petsc.spmv(A, x, PetscConfig(4, node=node)).seconds
        assert t4 < t1

    def test_32bit_index_limit(self):
        big = sp.csr_matrix((1, 2**31 + 10))
        # The limit fires from shape metadata before x is touched, so a
        # zero-stride stand-in keeps the test off the host's RAM (a real
        # vector of this length is 16 GiB).
        x = np.broadcast_to(0.0, (2**31 + 10,))
        with pytest.raises(OOMError):
            petsc.spmv(big, x, PetscConfig(1))

    def test_no_gpu_spadd(self, mats):
        A, B, C = mats
        r = petsc.spadd3(A, B, C, PetscConfig(1, gpus=4))
        assert r.oom

    def test_gpu_spmm_multi_gpu_penalty(self, mats):
        A, _, _ = mats
        C = rng.random((300, 8))
        one = petsc.spmm(A, C, PetscConfig(1, gpus=1)).seconds
        two = petsc.spmm(A, C, PetscConfig(1, gpus=2)).seconds
        assert two > one  # broadcast penalty beats the halved compute


class TestTrilinos:
    def test_spmv_correct(self, mats):
        A, _, _ = mats
        x = rng.random(300)
        r = trilinos.spmv(A, x, TrilinosConfig(2))
        assert np.allclose(r.value, A @ x)

    def test_spadd3_slower_than_petsc(self, mats):
        """Tpetra assembly is the heaviest (38.5x vs 11.8x in the paper)."""
        A, B, C = mats
        t = trilinos.spadd3(A, B, C, TrilinosConfig(2)).seconds
        p = petsc.spadd3(A, B, C, PetscConfig(2)).seconds
        assert t > p

    def test_uvm_allows_oversubscription(self, mats):
        A, _, _ = mats
        tiny = NodeSpec(gpu_mem_bytes=1024.0)
        cfg = TrilinosConfig(1, gpus=2, node=tiny, pcie_bw=1e6)
        r = trilinos.spmv(A, rng.random(300), cfg)
        assert not r.oom  # pages instead of failing
        base = trilinos.spmv(A, rng.random(300), TrilinosConfig(1, gpus=2))
        assert r.seconds > base.seconds  # ... but pays for it


class TestCtf:
    def test_spmv_correct_but_slow(self, mats):
        A, _, _ = mats
        x = rng.random(300)
        r = ctf.spmv(A, x, CtfConfig(2))
        assert np.allclose(r.value, A @ x)
        p = petsc.spmv(A, x, PetscConfig(2))
        assert r.seconds > 5 * p.seconds  # interpretation overhead

    def test_spadd3_correct(self, mats):
        A, B, C = mats
        r = ctf.spadd3(A, B, C, CtfConfig(2))
        assert np.allclose(r.value.toarray(), (A + B + C).toarray())

    def test_sddmm_special_kernel_correct(self, mats):
        A, _, _ = mats
        C = rng.random((300, 6))
        D = rng.random((6, 300))
        r = ctf.sddmm(A, C, D, CtfConfig(2))
        assert np.allclose(r.value.toarray(), A.multiply(C @ D).toarray())

    def test_memory_limit_produces_dnc(self, mats):
        A, _, _ = mats
        tiny = NodeSpec(dram_bytes=100.0)
        r = ctf.spmv(A, rng.random(300), CtfConfig(1, node=tiny))
        assert r.oom

    def test_dim_product_limit(self):
        cfg = CtfConfig(1)
        assert not cfg.check_dims((2**22, 2**22, 2**22))
        assert cfg.check_dims((1000, 1000, 1000))

    def test_spttv_cost_only_needs_shape(self):
        cfg = CtfConfig(2)
        r = ctf.spttv(None, (100, 100, 100), 5000, np.zeros(100), cfg)
        assert r.seconds > 0 and not r.oom

    def test_mttkrp_steady_state_cheaper_than_generic_ttv(self):
        cfg = CtfConfig(2)
        ttv = ctf.spttv(None, (100, 100, 100), 50000, np.zeros(100), cfg)
        mttkrp = ctf.spmttkrp((100, 100, 100), 50000, 25, cfg)
        # per the paper: the special kernel is competitive, the generic
        # interpretation path is not (161x vs ~1x)
        assert mttkrp.seconds < ttv.seconds * 25
