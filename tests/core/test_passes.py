"""The program pass pipeline: fold → dse → fuse → cse.

Acceptance properties:

* **Differential** — for every pass, the transformed program computes
  exactly what the untransformed one computes: fused SDDMM→SpMM chains
  are bit-identical (float64 ``array_equal``) to the unfused chain across
  strategies × machines × backends, copy folding and dead-store
  elimination never change a surviving output's values.
* **Soundness** — DSE never drops an output that is kept or read
  downstream; fusion refuses aliased, multiply-consumed or accumulated
  intermediates; copy folding preserves ``pattern_version`` semantics
  (the copy still executes — only reads are forwarded).
* **Provenance** — fired passes are reported with the source statements
  they rewrote, and fused statements carry their origin labels.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.api.autoschedule import auto_schedule
from repro.core import clear_caches
from repro.core.passes import FUSED_SDDMM_SPMM, pipeline_plan
from repro.core.program import compile_program
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _csr(n, seed, density=0.12):
    rng = np.random.default_rng(seed)
    m = sp.random(n, n, density=density, format="csr", random_state=rng)
    m.data[:] = rng.integers(1, 5, m.nnz).astype(float)
    return m


def _chain(machine, consumer_strategy=None, n=40, rank=6, fcols=5, seed=0):
    """A fresh SDDMM→SpMM chain; returns (schedules, H, reference)."""
    rng = np.random.default_rng(seed)
    G = _csr(n, seed + 1)
    U = rng.random((n, rank))
    V = rng.random((rank, n))
    Fm = rng.random((n, fcols))
    B = Tensor.from_scipy("G", G, CSR)
    Ut = Tensor.from_dense("U", U)
    Vt = Tensor.from_dense("V", V)
    F = Tensor.from_dense("F", Fm)
    E = Tensor.zeros("E", G.shape, CSR)
    H = Tensor.zeros("H", (n, fcols))
    i, j, k, i2, j2, k2 = index_vars("i j k i2 j2 k2")
    E[i, j] = B[i, j] * Ut[i, k] * Vt[k, j]
    H[i2, k2] = E[i2, j2] * F[j2, k2]
    scheds = [
        auto_schedule(E.assignment, machine),
        auto_schedule(H.assignment, machine, strategy=consumer_strategy),
    ]
    ref = G.multiply(U @ V) @ Fm
    return scheds, H, ref


def _run(scheds, machine, **kw):
    cp = compile_program(scheds, machine, **kw)
    cp.execute(Runtime(machine))
    return cp


class TestFusionDifferential:
    @pytest.mark.parametrize("kind", ["cpu", "gpu"])
    @pytest.mark.parametrize("strategy", ["rows", "nonzeros"])
    @pytest.mark.parametrize("backend", ["interp", "codegen"])
    def test_fused_bit_identical_to_unfused(self, kind, strategy, backend):
        machine = Machine.gpu(4) if kind == "gpu" else Machine.cpu(4)
        scheds, H, ref = _chain(machine, consumer_strategy=strategy)
        cp = _run(scheds, machine, backend=backend)
        assert [ck.kind for ck in cp.kernels] == [FUSED_SDDMM_SPMM]
        fused_vals = H.dense_array().copy()

        clear_caches()
        scheds, H, _ = _chain(machine, consumer_strategy=strategy)
        cp = _run(scheds, machine, fuse=False, backend=backend)
        assert len(cp) == 2
        assert np.array_equal(fused_vals, H.dense_array())
        assert np.allclose(fused_vals, ref)

    def test_backends_agree_bitwise_on_the_fused_statement(self):
        machine = Machine.cpu(4)
        outs = []
        for backend in ("interp", "codegen"):
            clear_caches()
            scheds, H, _ = _chain(machine, consumer_strategy="nonzeros")
            _run(scheds, machine, backend=backend)
            outs.append(H.dense_array().copy())
        assert np.array_equal(outs[0], outs[1])

    def test_fused_statement_inherits_consumer_strategy(self):
        machine = Machine.cpu(4)
        for strategy in ("rows", "nonzeros"):
            clear_caches()
            scheds, _, _ = _chain(machine, consumer_strategy=strategy)
            cp = compile_program(scheds, machine)
            assert cp.kernels[0].strategy == strategy

    def test_fusion_reports_provenance(self):
        machine = Machine.cpu(2)
        scheds, _, _ = _chain(machine)
        cp = compile_program(scheds, machine)
        fuse = next(r for r in cp.passes if r.name == "fuse")
        assert fuse.fired and fuse.statements == (0, 1)
        assert "E never materializes" in fuse.detail
        assert "from source statements 0+1" in cp.describe()

    def test_fuse_disabled_and_keep_pin_block_fusion(self):
        machine = Machine.cpu(2)
        scheds, _, _ = _chain(machine)
        assert len(compile_program(scheds, machine, fuse=False)) == 2
        clear_caches()
        scheds, _, _ = _chain(machine)
        assert len(compile_program(scheds, machine, keep=["E"])) == 2

    def test_fused_program_never_materializes_intermediate(self):
        machine = Machine.cpu(4)
        scheds, _, _ = _chain(machine)
        inter = scheds[0].assignment.lhs.tensor
        cp = compile_program(scheds, machine)
        rt = Runtime(machine)
        cp.execute(rt)
        cp.execute(rt)
        assert inter.vals.data.size == 0  # E was never assembled

        clear_caches()
        scheds, _, _ = _chain(machine)
        inter = scheds[0].assignment.lhs.tensor
        compile_program(scheds, machine, fuse=False).execute(Runtime(machine))
        assert inter.vals.data.size > 0  # the unfused chain assembles it

    def test_fusion_deletes_warm_traffic_and_shrinks_footprint(self):
        """Under the row split the unfused chain redistributes the
        intermediate from the producer's non-zero pieces to the consumer's
        row pieces on every trial; the fused statement has no intermediate
        region to move or keep resident."""
        machine = Machine.cpu(4)

        def warm_trial(fuse):
            clear_caches()
            scheds, _, _ = _chain(machine, consumer_strategy="rows")
            cp = compile_program(scheds, machine, fuse=fuse)
            rt = Runtime(machine)
            cp.execute(rt)  # cold: first-touch placement
            warm = cp.execute(rt)
            return (warm.total_comm_bytes(),
                    max(rt.resident_bytes_per_proc().values()))

        comm_fused, peak_fused = warm_trial(True)
        comm_unfused, peak_unfused = warm_trial(False)
        assert comm_fused < comm_unfused
        assert peak_fused < peak_unfused


class TestFusionLegality:
    def _base(self, machine, n=24, rank=4, fcols=3, seed=7):
        rng = np.random.default_rng(seed)
        G = _csr(n, seed + 1)
        B = Tensor.from_scipy("G", G, CSR)
        Ut = Tensor.from_dense("U", rng.random((n, rank)))
        Vt = Tensor.from_dense("V", rng.random((rank, n)))
        F = Tensor.from_dense("F", rng.random((n, fcols)))
        E = Tensor.zeros("E", G.shape, CSR)
        return B, Ut, Vt, F, E, n, fcols

    def test_two_consumers_block_fusion(self, machine=Machine.cpu(2)):
        B, Ut, Vt, F, E, n, fcols = self._base(machine)
        H1 = Tensor.zeros("H1", (n, fcols))
        H2 = Tensor.zeros("H2", (n, fcols))
        i, j, k, a, b, c, d, e, f = index_vars("i j k a b c d e f")
        E[i, j] = B[i, j] * Ut[i, k] * Vt[k, j]
        H1[a, b] = E[a, c] * F[c, b]
        H2[d, e] = E[d, f] * F[f, e]
        scheds = [auto_schedule(t.assignment, machine) for t in (E, H1, H2)]
        plan = pipeline_plan(scheds, machine)
        assert not next(r for r in plan.records if r.name == "fuse").fired
        assert len(plan.schedules) == 3

    def test_accumulating_consumer_blocks_fusion(self, machine=Machine.cpu(2)):
        B, Ut, Vt, F, E, n, fcols = self._base(machine)
        H = Tensor.zeros("H", (n, fcols))
        i, j, k, a, b, c = index_vars("i j k a b c")
        E[i, j] = B[i, j] * Ut[i, k] * Vt[k, j]
        H[a, b] += E[a, c] * F[c, b]
        scheds = [auto_schedule(t.assignment, machine) for t in (E, H)]
        plan = pipeline_plan(scheds, machine)
        assert not next(r for r in plan.records if r.name == "fuse").fired

    def test_intervening_write_to_fused_input_blocks_fusion(self):
        machine = Machine.cpu(2)
        B, Ut, Vt, F, E, n, fcols = self._base(machine)
        H = Tensor.zeros("H", (n, fcols))
        rng = np.random.default_rng(3)
        W = Tensor.from_dense("W", rng.random((n, fcols)))
        i, j, k, a, b, c, p, q = index_vars("i j k a b c p q")
        E[i, j] = B[i, j] * Ut[i, k] * Vt[k, j]
        F[p, q] = W[p, q]  # F changes between producer and consumer
        H[a, b] = E[a, c] * F[c, b]
        scheds = [auto_schedule(t.assignment, machine) for t in (E, F, H)]
        # With folding on, the copy is forwarded (the consumer reads W
        # directly) and fusing IS legal — so the composed pipeline fuses:
        plan = pipeline_plan(scheds, machine)
        assert next(r for r in plan.records if r.name == "fuse").fired
        # With folding off, the consumer still reads F, the intervening
        # write makes fusion unsound, and the guard must refuse it:
        plan = pipeline_plan(scheds, machine, fold=False)
        assert not next(r for r in plan.records if r.name == "fuse").fired
        assert len(plan.schedules) == 3


class TestDeadStoreElimination:
    def _spmv(self, out, B, x, seed_vars):
        i, j = seed_vars
        out[i] = B[i, j] * x[j]
        return out

    def test_overwritten_store_is_dropped(self):
        machine = Machine.cpu(2)
        rng = np.random.default_rng(0)
        M = _csr(30, 1)
        B = Tensor.from_scipy("B", M, CSR)
        x = Tensor.from_dense("x", rng.random(30))
        y = Tensor.from_dense("y", rng.random(30))
        a = Tensor.zeros("a", (30,))
        i, j, p, q = index_vars("i j p q")
        a[i] = B[i, j] * x[j]
        s1 = auto_schedule(a.assignment, machine)
        a[p] = B[p, q] * y[q]  # overwrites before any read
        s2 = auto_schedule(a.assignment, machine)
        plan = pipeline_plan([s1, s2], machine)
        rec = next(r for r in plan.records if r.name == "dse")
        assert rec.fired and rec.statements == (0,)
        assert len(plan.schedules) == 1
        cp = compile_program([s1, s2], machine)
        cp.execute(Runtime(machine))
        assert np.array_equal(a.vals.data, M @ y.vals.data)

    def test_read_downstream_is_never_dropped(self):
        machine = Machine.cpu(2)
        rng = np.random.default_rng(2)
        M = _csr(30, 3)
        B = Tensor.from_scipy("B", M, CSR)
        x = Tensor.from_dense("x", rng.random(30))
        a = Tensor.zeros("a", (30,))
        b = Tensor.zeros("b", (30,))
        i, j, p, q, r, t = index_vars("i j p q r t")
        a[i] = B[i, j] * x[j]
        s1 = auto_schedule(a.assignment, machine)
        b[p] = B[p, q] * a[q]  # reads a: the store is observable
        s2 = auto_schedule(b.assignment, machine)
        a[r] = B[r, t] * x[t]
        s3 = auto_schedule(a.assignment, machine)
        plan = pipeline_plan([s1, s2, s3], machine)
        assert not next(r_ for r_ in plan.records if r_.name == "dse").fired
        assert len(plan.schedules) == 3

    def test_keep_pins_an_otherwise_dead_store(self):
        machine = Machine.cpu(2)
        rng = np.random.default_rng(4)
        M = _csr(20, 5)
        B = Tensor.from_scipy("B", M, CSR)
        x = Tensor.from_dense("x", rng.random(20))
        y = Tensor.from_dense("y", rng.random(20))
        a = Tensor.zeros("a", (20,))
        i, j, p, q = index_vars("i j p q")
        a[i] = B[i, j] * x[j]
        s1 = auto_schedule(a.assignment, machine)
        a[p] = B[p, q] * y[q]
        s2 = auto_schedule(a.assignment, machine)
        plan = pipeline_plan([s1, s2], machine, keep=[a])
        assert not next(r for r in plan.records if r.name == "dse").fired
        assert len(plan.schedules) == 2

    def test_cse_identical_repeats_are_left_to_cse(self):
        machine = Machine.cpu(2)
        rng = np.random.default_rng(6)
        M = _csr(20, 7)
        B = Tensor.from_scipy("B", M, CSR)
        x = Tensor.from_dense("x", rng.random(20))
        a = Tensor.zeros("a", (20,))
        i, j = index_vars("i j")
        a[i] = B[i, j] * x[j]
        s1 = auto_schedule(a.assignment, machine)
        s2 = auto_schedule(a.assignment, machine)
        plan = pipeline_plan([s1, s2], machine)
        assert not next(r for r in plan.records if r.name == "dse").fired
        cp = compile_program([s1, s2], machine)
        cse = next(r for r in cp.passes if r.name == "cse")
        assert cse.fired  # the repeat collapses as a reuse, not a deletion


class TestCopyFolding:
    def _setup(self, machine):
        rng = np.random.default_rng(8)
        M = _csr(24, 9)
        B = Tensor.from_scipy("B", M, CSR)
        x = Tensor.from_dense("x", rng.random(24))
        mid = Tensor.zeros("mid", (24,))
        out = Tensor.zeros("out", (24,))
        i, p, q, r = index_vars("i p q r")
        mid[i] = x[i]  # identity copy
        s1 = auto_schedule(mid.assignment, machine)
        out[p] = B[p, q] * mid[q]
        s2 = auto_schedule(out.assignment, machine)
        return M, x, mid, out, s1, s2

    def test_reads_forward_to_the_source(self):
        machine = Machine.cpu(2)
        M, x, mid, out, s1, s2 = self._setup(machine)
        plan = pipeline_plan([s1, s2], machine)
        rec = next(r for r in plan.records if r.name == "fold")
        assert rec.fired
        reads = [acc.tensor
                 for acc in plan.schedules[-1].assignment.rhs.accesses()]
        assert any(t is x for t in reads)
        assert not any(t is mid for t in reads)

    def test_folded_values_match_unfolded(self):
        machine = Machine.cpu(2)
        M, x, mid, out, s1, s2 = self._setup(machine)
        cp = compile_program([s1, s2], machine)
        cp.execute(Runtime(machine))
        folded = out.vals.data.copy()
        assert np.array_equal(folded, M @ x.vals.data)

        clear_caches()
        M, x, mid, out, s1, s2 = self._setup(machine)
        cp = compile_program([s1, s2], machine, fold=False)
        cp.execute(Runtime(machine))
        assert np.array_equal(folded, out.vals.data)

    def test_copy_still_executes_and_bumps_nothing_extra(self):
        # Folding forwards *reads*; the copy statement itself survives (its
        # store is observable), so ``pattern_version`` of the copied-into
        # tensor behaves exactly as in the unfolded program.
        machine = Machine.cpu(2)
        M, x, mid, out, s1, s2 = self._setup(machine)
        before = mid.pattern_version
        cp = compile_program([s1, s2], machine)
        assert len(cp) == 2  # the copy is not deleted, only bypassed
        cp.execute(Runtime(machine))
        folded_bumps = mid.pattern_version - before

        clear_caches()
        M, x, mid, out, s1, s2 = self._setup(machine)
        before = mid.pattern_version
        compile_program([s1, s2], machine, fold=False).execute(Runtime(machine))
        assert mid.pattern_version - before == folded_bumps
        assert np.array_equal(mid.vals.data, x.vals.data)


class TestRuntimeAdoption:
    def _program(self, machine):
        rng = np.random.default_rng(10)
        M = _csr(16, 11)
        B = Tensor.from_scipy("B", M, CSR)
        x = Tensor.from_dense("x", rng.random(16))
        a = Tensor.zeros("a", (16,))
        i, j = index_vars("i j")
        a[i] = B[i, j] * x[j]
        return compile_program([auto_schedule(a.assignment, machine)], machine)

    def test_mismatched_runtime_is_rejected(self):
        cp = self._program(Machine.cpu(4))
        with pytest.raises(ValueError, match="does not match"):
            cp.execute(Runtime(Machine.cpu(8)))
        with pytest.raises(ValueError, match="does not match"):
            cp.execute(Runtime(Machine.gpu(4)))

    def test_adoption_is_explicit_and_resettable(self):
        machine = Machine.cpu(4)
        cp = self._program(machine)
        rt = Runtime(machine)
        cp.execute(rt)  # adopt=True default
        assert cp._runtime is rt
        cp.reset_runtime()
        assert cp._runtime is None
        other = Runtime(machine)
        cp.execute(other, adopt=False)
        assert cp._runtime is None  # borrowed, not adopted
