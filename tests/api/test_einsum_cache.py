"""einsum satellite fixes: content-keyed packing, additive specs, the
implicit-session lock.

Regression: ``einsum`` used to pack ``op{k}`` tensors fresh on every call,
so the identity-keyed kernel cache missed on repeated identical calls and
recompiled everything.  Operands are now packed through the session's
content-keyed memo — a second identical call compiles zero new kernels.
"""
import importlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import repro

# ``repro.api`` re-exports the einsum *function* under the same name, so
# the module must be resolved explicitly.
einsum_mod = importlib.import_module("repro.api.einsum")
from repro.core import clear_caches
from repro.core.cache import cache_stats


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestPackingMemo:
    def test_second_identical_call_compiles_zero_kernels(self):
        M = sp.random(60, 60, density=0.05, format="csr",
                      random_state=np.random.default_rng(0))
        x = np.random.default_rng(1).random(60)
        with repro.session(nodes=2) as s:
            r1 = repro.einsum("ij,j->i", M, x, session=s)
            after_first = cache_stats()
            r2 = repro.einsum("ij,j->i", M, x, session=s)
            after_second = cache_stats()
        # The kernel cache saw no new compile, only a hit.
        assert after_second["kernel_misses"] == after_first["kernel_misses"]
        assert after_second["kernel_hits"] > after_first["kernel_hits"]
        # The memo returns the same output object, with the same values.
        assert r2 is r1
        assert np.array_equal(r1.vals.data, M @ x)

    def test_equal_content_in_fresh_arrays_still_hits(self):
        M = sp.random(40, 40, density=0.08, format="csr",
                      random_state=np.random.default_rng(2))
        x = np.random.default_rng(3).random(40)
        with repro.session(nodes=2) as s:
            repro.einsum("ij,j->i", M.copy(), x.copy(), session=s)
            after_first = cache_stats()
            repro.einsum("ij,j->i", M.copy(), x.copy(), session=s)
            after_second = cache_stats()
        assert after_second["kernel_misses"] == after_first["kernel_misses"]
        assert after_second["kernel_hits"] > after_first["kernel_hits"]

    def test_different_content_is_not_conflated(self):
        M = sp.random(30, 30, density=0.1, format="csr",
                      random_state=np.random.default_rng(4))
        rng = np.random.default_rng(5)
        x1, x2 = rng.random(30), rng.random(30)
        with repro.session(nodes=2) as s:
            r1 = repro.einsum("ij,j->i", M, x1, session=s)
            v1 = r1.vals.data.copy()
            r2 = repro.einsum("ij,j->i", M, x2, session=s)
        assert np.array_equal(v1, M @ x1)
        assert np.array_equal(r2.vals.data, M @ x2)

    def test_packed_tensor_operands_bypass_the_memo(self):
        # An explicitly packed Tensor is used as-is (its identity is the
        # caller's concern), exactly as before the memo existed.
        from repro.taco import Tensor

        M = sp.random(20, 20, density=0.1, format="csr",
                      random_state=np.random.default_rng(6))
        with repro.session(nodes=2) as s:
            B = s.tensor("B", M, repro.CSR)
            x = np.random.default_rng(7).random(20)
            r = repro.einsum("ij,j->i", B, x, session=s)
            assert isinstance(B, Tensor)
            assert np.allclose(r.vals.data, M @ x)

    def test_library_does_not_import_the_bench_package(self):
        # The raw-SciPy operand digest lives in the library
        # (core/store_index.py); a fresh process must reach it without
        # pulling repro.bench in.
        code = (
            "import sys, numpy as np, scipy.sparse as sp, repro\n"
            "M = sp.random(30, 30, density=0.1, format='csr', random_state=0)\n"
            "r = repro.einsum('ij,j->i', M, np.ones(30))\n"
            "assert np.allclose(r.vals.data, M @ np.ones(30))\n"
            "bad = sorted(m for m in sys.modules if m.startswith('repro.bench'))\n"
            "assert not bad, bad\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestAdditiveSpecs:
    def test_dense_elementwise_add(self):
        rng = np.random.default_rng(8)
        A, B = rng.random((5, 4)), rng.random((5, 4))
        with repro.session(nodes=2) as s:
            r = repro.einsum("ij+ij->ij", A, B, session=s)
        assert np.allclose(r.dense_array(), A + B)

    def test_implicit_output_of_additive_spec(self):
        rng = np.random.default_rng(9)
        A, B = rng.random(6), rng.random(6)
        with repro.session() as s:
            r = repro.einsum("i+i", A, B, session=s)
        assert r.shape == (6,)
        assert np.allclose(r.vals.data, A + B)

    def test_sparse_out_runs_spadd_assembly(self):
        from repro.taco import Tensor

        rng = np.random.default_rng(10)
        A = sp.random(25, 25, density=0.1, format="csr", random_state=rng)
        B = sp.random(25, 25, density=0.1, format="csr", random_state=rng)
        with repro.session(nodes=2) as s:
            At = s.tensor("A", A, repro.CSR)
            Bt = s.tensor("B", B, repro.CSR)
            out = Tensor.zeros("sum", (25, 25), repro.CSR)
            r = repro.einsum("ij+ij->ij", At, Bt, out=out, session=s)
        assert r is out
        assert np.allclose(out.to_dense(), (A + B).toarray())

    def test_mixed_separators_raise(self):
        with pytest.raises(ValueError, match="mixing"):
            repro.einsum("ij+ij,jk->ik", np.ones((2, 2)), np.ones((2, 2)),
                         np.ones((2, 2)))

    def test_mismatched_term_subscripts_raise(self):
        with pytest.raises(ValueError, match="identical subscripts"):
            repro.einsum("ij+ji->ij", np.ones((2, 2)), np.ones((2, 2)))

    def test_wrong_additive_output_raises(self):
        with pytest.raises(ValueError, match="additive output"):
            repro.einsum("ij+ij->ji", np.ones((2, 2)), np.ones((2, 2)))


class TestImplicitSessionLock:
    def test_racing_callers_agree_on_one_session(self, monkeypatch):
        monkeypatch.setattr(einsum_mod, "_implicit_session", None)
        barrier = threading.Barrier(8)
        got = []

        def grab():
            barrier.wait()
            got.append(einsum_mod._default_session())

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 8
        assert all(s is got[0] for s in got)

    def test_lock_discipline_is_watched(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
        try:
            import lock_check
        finally:
            sys.path.pop(0)
        assert "src/repro/api/einsum.py" in lock_check.WATCH
        rules = lock_check.WATCH["src/repro/api/einsum.py"]
        assert any("_implicit_session" in r.targets for r in rules)
