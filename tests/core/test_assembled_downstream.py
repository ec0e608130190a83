"""A statement that reads an output an earlier statement of its program
assembles (``A = B + C`` then ``D = A ∘ (E F)``).

Every statement of a program compiles before any of them runs, so the
SDDMM's non-zero split is derived from ``A``'s pattern as it was at
compile time.  The SpAdd then installs ``A``'s assembled pattern, and run
0 computes ``D`` over the stale position bounds: a wrong value, with
nothing raised.  Run 1 recompiles (``A``'s pattern version moved, and the
version is in the kernel key) and is right.  The test asserts what a
correct system gives on every run, so it fails until a kernel runs over
the pattern it was partitioned for.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core import clear_caches
from repro.taco import CSR, Tensor, index_vars

N, K = 300, 4


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.xfail(strict=True, reason=(
    "a program compiles every statement before any runs, so run 0's SDDMM "
    "splits A by the pattern it had before the SpAdd installed its own"))
@pytest.mark.parametrize("machine", [dict(nodes=4), dict(gpus=4)], ids=["cpu4", "gpu4"])
def test_a_downstream_split_reads_the_assembled_pattern_from_run_0(machine):
    Bm = sp.random(N, N, density=0.02, format="csr", random_state=1)
    Cm = sp.random(N, N, density=0.02, format="csr", random_state=2)
    rng = np.random.default_rng(0)
    Ed, Fd = rng.random((N, K)), rng.random((K, N))
    B, C = Tensor.from_scipy("B", Bm, CSR), Tensor.from_scipy("C", Cm, CSR)
    E, F = Tensor.from_dense("E", Ed), Tensor.from_dense("F", Fd)
    A = Tensor.zeros("A", (N, N), CSR)
    D = Tensor.zeros("D", (N, N), CSR)
    expected = (Bm + Cm).multiply(Ed @ Fd).toarray()
    with repro.session(**machine) as s:
        with s.program() as p:
            i, j, l = index_vars("i j l")
            A[i, j] = B[i, j] + C[i, j]
            D[i, j] = A[i, j] * E[i, l] * F[l, j]
        for run in range(3):
            p.run()
            assert np.allclose(D.to_dense(), expected, rtol=0, atol=1e-12), f"run {run}"
