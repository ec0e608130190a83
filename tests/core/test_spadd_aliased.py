"""Aliased SpAdd (``A = B + A``, and the ``accumulate`` sugar).

The seed bug: ``_execute_spadd`` re-read operand arrays *after*
``install_assembled_output`` had replaced the output's structure, so an
aliased operand read the freshly-sized empty output instead of its own
values — iteration 2 crashed or dropped the operand.  The fix snapshots
operand arrays before the install; with that, assembled-statement
fingerprints exclude the LHS pattern version for aliased forms too, so the
chain compiles once and replays its mapping traces.
"""
import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import cache_stats, clear_caches, compile_kernel, load_packed, save_packed
from repro.core.cache import caches_disabled
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars
from repro.taco.expr import Add

SHAPE = (50, 40)
PIECES = 2
ITERATIONS = 10


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def make_inputs(seed=3, k=2):
    r = np.random.default_rng(seed)
    return [sp.random(*SHAPE, density=0.08, random_state=r, format="csr")
            for _ in range(k)]


def aliased_schedule(A, B, pieces=PIECES):
    """``A = B + A`` with the alias explicit in the RHS."""
    i, j, io, ii = index_vars("i j io ii")
    A.assignment = None
    A[i, j] = Add([B[i, j], A[i, j]])
    return A.schedule().divide(i, io, ii, pieces).distribute(io)


def accumulate_schedule(A, B, C, pieces=PIECES):
    """``A += B + C`` via the sugar (strips A from the operand list)."""
    i, j, io, ii = index_vars("i j io ii")
    A.assignment = None
    A[i, j] = A[i, j] + B[i, j] + C[i, j]
    assert A.assignment.accumulate
    return A.schedule().divide(i, io, ii, pieces).distribute(io)


class TestAliasedSpAdd:
    def iterate_aliased(self, cached, iterations=ITERATIONS):
        (Bm,) = make_inputs(k=1)
        B = Tensor.from_scipy("B", Bm, CSR)
        A = Tensor.zeros("A", SHAPE, CSR)
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        ref = np.zeros(SHAPE)
        kernels = []
        ctx = contextlib.nullcontext() if cached else caches_disabled()
        with ctx:
            for it in range(iterations):
                s = aliased_schedule(A, B)
                ck = compile_kernel(s, machine, use_cache=cached)
                kernels.append(ck)
                ck.execute(rt)
                ref = Bm.toarray() + ref
                assert np.allclose(A.to_dense(), ref), f"iteration {it}"
        return A, ref, kernels, rt

    def test_uncached_matches_numpy_reference(self):
        A, ref, kernels, _ = self.iterate_aliased(cached=False)
        assert np.allclose(A.to_dense(), ref)
        assert len(set(map(id, kernels))) == ITERATIONS  # seed path recompiles

    def test_cached_matches_numpy_reference_and_replays(self):
        A, ref, kernels, rt = self.iterate_aliased(cached=True)
        assert np.allclose(A.to_dense(), ref)
        # One compile reused every iteration: the aliased fingerprint now
        # excludes the LHS pattern version too.
        assert all(k is kernels[0] for k in kernels)
        # The chain records once (symbolic + fill) and replays after.
        assert rt.trace_records == 2
        assert rt.trace_hits == 2 * (ITERATIONS - 1)

    def test_cached_equals_uncached_bitwise(self):
        A_u, _, _, _ = self.iterate_aliased(cached=False)
        clear_caches()
        A_c, _, _, _ = self.iterate_aliased(cached=True)
        u_coords, u_vals = A_u.to_coo()
        c_coords, c_vals = A_c.to_coo()
        assert all(np.array_equal(u, c) for u, c in zip(u_coords, c_coords))
        assert np.array_equal(u_vals, c_vals)


class TestAliasedReadsLiveRegions:
    @pytest.mark.xfail(strict=True, reason=(
        "spadd_read_reqs freezes the aliased operand's requirements on the "
        "output's pre-install regions, so the assembly launches read, place "
        "and stage regions A no longer holds"))
    def test_assembly_launches_read_the_live_output_regions(self):
        """``A = B + A``: once the first execute installs A's assembled
        structure (regions with new uids), every later execute's symbolic
        and fill launches should read A's live regions, and the runtime
        should hold homes for them."""
        (Bm,) = make_inputs(k=1)
        B = Tensor.from_scipy("B", Bm, CSR)
        A = Tensor.zeros("A", SHAPE, CSR)
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        for _ in range(4):
            ck = compile_kernel(aliased_schedule(A, B), machine)
            ck.execute(rt)
            live = {region.uid for region in A.regions()}
            assert live <= {req.region.uid for req in ck.spadd_read_reqs()}
            assert live <= rt._home.keys()


class TestAccumulateSugar:
    def iterate_accumulate(self, cached, iterations=ITERATIONS):
        Bm, Cm = make_inputs(seed=5, k=2)
        B = Tensor.from_scipy("B", Bm, CSR)
        C = Tensor.from_scipy("C", Cm, CSR)
        A = Tensor.zeros("A", SHAPE, CSR)
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        ref = np.zeros(SHAPE)
        kernels = []
        ctx = contextlib.nullcontext() if cached else caches_disabled()
        with ctx:
            for it in range(iterations):
                s = accumulate_schedule(A, B, C)
                ck = compile_kernel(s, machine, use_cache=cached)
                kernels.append(ck)
                ck.execute(rt)
                ref = ref + Bm.toarray() + Cm.toarray()
                assert np.allclose(A.to_dense(), ref), f"iteration {it}"
        return A, ref, kernels, rt

    def test_uncached_accumulate_matches_reference(self):
        A, ref, _, _ = self.iterate_accumulate(cached=False)
        assert np.allclose(A.to_dense(), ref)

    def test_cached_accumulate_matches_reference_and_replays(self):
        A, ref, kernels, rt = self.iterate_accumulate(cached=True)
        assert np.allclose(A.to_dense(), ref)
        assert all(k is kernels[0] for k in kernels)
        assert rt.trace_records == 2
        assert rt.trace_hits == 2 * (ITERATIONS - 1)


class TestWarmStartedAliased:
    def test_warm_started_aliased_spadd_matches_reference(self, tmp_path):
        """Save mid-loop, reload into fresh caches, continue: the warm
        process's first execute hits the kernel cache and replays, and the
        completed 10-iteration result matches the NumPy reference."""
        (Bm,) = make_inputs(seed=9, k=1)
        B = Tensor.from_scipy("B", Bm, CSR)
        A = Tensor.zeros("A", SHAPE, CSR)
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        warm_iters = 3
        for _ in range(warm_iters):
            ck = compile_kernel(aliased_schedule(A, B), machine)
            ck.execute(rt)
        path = save_packed(tmp_path / "art", A, runtime=rt)

        clear_caches()  # a fresh process's cache state
        art = load_packed(path)
        A2, B2 = art.tensor, art.companions["B"]
        rt2 = art.runtime()
        assert rt2 is not None and rt2.trace_records == 0
        before = cache_stats()
        for it in range(ITERATIONS - warm_iters):
            ck = compile_kernel(aliased_schedule(A2, B2), machine)
            res = ck.execute(rt2)
            if it == 0:
                after = cache_stats()
                assert after["kernel_hits"] - before["kernel_hits"] == 1
                assert rt2.trace_hits >= 2 and rt2.trace_records == 0
        assert np.allclose(A2.to_dense(), ITERATIONS * Bm.toarray())

    def test_warm_started_accumulate_matches_reference(self, tmp_path):
        Bm, Cm = make_inputs(seed=11, k=2)
        B = Tensor.from_scipy("B", Bm, CSR)
        C = Tensor.from_scipy("C", Cm, CSR)
        A = Tensor.zeros("A", SHAPE, CSR)
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        warm_iters = 4
        for _ in range(warm_iters):
            ck = compile_kernel(accumulate_schedule(A, B, C), machine)
            ck.execute(rt)
        path = save_packed(tmp_path / "art", A, runtime=rt)

        clear_caches()
        art = load_packed(path)
        A2, B2, C2 = art.tensor, art.companions["B"], art.companions["C"]
        rt2 = art.runtime()
        for _ in range(ITERATIONS - warm_iters):
            compile_kernel(accumulate_schedule(A2, B2, C2), machine).execute(rt2)
        assert rt2.trace_records == 0  # every post-load execute replayed
        expect = ITERATIONS * (Bm.toarray() + Cm.toarray())
        assert np.allclose(A2.to_dense(), expect)
