"""The ``backend=`` argument, interpreter fallbacks, backend agreement."""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro import codegen
from repro.api.autoschedule import auto_schedule
from repro.codegen import BACKENDS, codegen_stats, reset_codegen_stats
from repro.core import clear_caches, compile_kernel
from repro.core.cache import iter_aot_entries
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars

N, M, PIECES = 48, 40, 4


@pytest.fixture(autouse=True)
def isolated():
    clear_caches()
    reset_codegen_stats()
    yield
    clear_caches()
    reset_codegen_stats()


def spmv_workload(seed=11):
    rng = np.random.default_rng(seed)
    A = sp.random(N, M, density=0.15, random_state=rng, format="csr")
    B = Tensor.from_scipy("B", A, CSR)
    c = Tensor.from_dense("c", rng.random(M))
    a = Tensor.zeros("a", (N,))
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    sched = (a.schedule().divide(i, io, ii, PIECES).distribute(io)
             .communicate([a, B, c], io))
    return a, sched


class TestKnobs:
    def test_backend_argument_is_the_only_knob(self, monkeypatch):
        # no process-wide default to flip: None always means codegen,
        # whatever the environment says
        monkeypatch.setenv("REPRO_CODEGEN", "0")
        assert codegen.resolve_backend(None) == "codegen"
        assert [codegen.resolve_backend(b) for b in BACKENDS] == list(BACKENDS)
        with pytest.raises(ValueError, match="unknown backend"):
            codegen.resolve_backend("llvm")
        for gone in ("set_codegen_backend", "codegen_backend"):
            assert not hasattr(codegen, gone) and not hasattr(repro, gone)

    def test_session_validates_backend_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            repro.Session(machine=Machine.cpu(PIECES), backend="bogus")

    def test_compile_statement_rejects_unknown_backend(self):
        a, sched = spmv_workload()
        with pytest.raises(ValueError, match="unknown backend"):
            compile_kernel(sched, Machine.cpu(PIECES), backend="bogus")


class TestFallbacks:
    def test_unsupported_format_falls_back_to_interpreter(self):
        # CSC stores levels column-major (mode_ordering (1, 0)); no lowering
        # template indexes permuted layouts, so codegen must route the
        # kernel back to the interpreter leaf and match it exactly.
        def build(seed=5):
            rng = np.random.default_rng(seed)
            A = sp.random(24, 24, density=0.2, random_state=rng,
                          format="csr")
            B = Tensor.from_scipy("B", A, repro.CSC)
            c = Tensor.from_dense("c", rng.random(24))
            a = Tensor.zeros("a", (24,))
            i, j = index_vars("i j")
            a[i] = B[i, j] * c[j]
            return a

        machine = Machine.cpu(PIECES)
        a1 = build()
        ck1 = compile_kernel(auto_schedule(a1, machine, strategy="rows"),
                             machine, backend="interp")
        ck1.execute(Runtime(machine))
        clear_caches()
        a2 = build()
        ck2 = compile_kernel(auto_schedule(a2, machine, strategy="rows"),
                             machine, backend="codegen")
        ck2.execute(Runtime(machine))
        stats = codegen_stats()
        assert stats["fallbacks"] >= 1
        assert stats["binds"] == 0
        np.testing.assert_array_equal(a1.to_dense(), a2.to_dense())


class TestGeneratedModules:
    def test_backends_agree_exactly(self):
        machine = Machine.cpu(PIECES)
        a1, s1 = spmv_workload(seed=21)
        ck1 = compile_kernel(s1, machine, backend="interp")
        ck1.execute(Runtime(machine))
        clear_caches()
        a2, s2 = spmv_workload(seed=21)
        ck2 = compile_kernel(s2, machine, backend="codegen")
        ck2.execute(Runtime(machine))
        assert codegen_stats()["binds"] >= 1
        np.testing.assert_array_equal(a1.to_dense(), a2.to_dense())

    def test_generated_module_carries_meta(self):
        a, sched = spmv_workload()
        machine = Machine.cpu(PIECES)
        compile_kernel(sched, machine, backend="codegen").execute(Runtime(machine))
        ((key, entry),) = iter_aot_entries()
        assert key == ("segdot", "rows")
        meta = entry.module.META
        assert meta["generator"] == "repro.codegen"
        assert (meta["shape"], meta["strategy"]) == key
