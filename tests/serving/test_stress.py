"""Concurrency stress for the shared compile substrate and the Server.

Barrier-released thread herds hammer the three layers tenants contend on:

* the bind path (``codegen.leaf_for``) — a herd binding one kernel of
  every template key at once counts every bind exactly, and each thread's
  leaves write bit-equal values;
* the byte-budgeted LRU tiers (``_SizedLRU``) — no lost entries and exact
  byte/counter accounting after an interleaved put/get herd — and their
  on/off switch: one thread compiling uncached blinds nobody else;
* the full ``repro.serve`` request path — compile/execute/autotune from
  many tenants at once, deduplicated to one build per signature with
  responses bit-identical to serial execution, each build leader charged
  exactly its own kernel's bytes.

Each herd lines up on a :class:`threading.Barrier` so every thread
releases into the critical section together — the schedule most likely to
expose a lost update or a duplicated build.  Single-iteration smoke herds
run unmarked in the fast tier-1 loop; the 50-iteration no-flake sweeps
(the acceptance criterion) are marked ``serving`` + ``slow``.
"""
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import codegen
from repro.api.autoschedule import auto_schedule
from repro.codegen import codegen_stats, reset_codegen_stats
from repro.core import SPECS, caches_disabled, clear_caches, compile_kernel
from repro.core.cache import _SizedLRU, kernel_entry_nbytes
from repro.core.passes import FUSED_SDDMM_SPMM, pipeline_plan
from repro.legion import Machine

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check  # noqa: E402 - the seeded one-statement-per-kind builders

pytestmark = []  # smoke herds below stay unmarked (tier-1)

SWEEP = 50  # consecutive no-flake iterations for the full sweeps


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    reset_codegen_stats()
    yield
    clear_caches()
    reset_codegen_stats()


def run_herd(n_threads, worker):
    """Release ``n_threads`` copies of ``worker(tid)`` through one barrier;
    re-raise the first failure."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def wrap(tid):
        try:
            barrier.wait(timeout=30)
            worker(tid)
        except BaseException as e:  # noqa: BLE001 - surfaced after join
            errors.append(e)

    threads = [threading.Thread(target=wrap, args=(t,), name=f"herd-{t}")
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "herd thread hung"
    if errors:
        raise errors[0]


# --------------------------------------------------------------------- #
# layer 1: binds under a herd
# --------------------------------------------------------------------- #
def _kernels():
    """One compiled kernel per template key (kinds that iterate alike
    declare the same key) and the output bytes a serial run writes."""
    machine = Machine.cpu(4)
    kernels = {}
    for spec in SPECS.values():
        for strategy in spec.bound:
            key = (spec.shape, strategy)
            if key in kernels:
                continue
            if spec.kind == FUSED_SDDMM_SPMM:  # no user-written statement
                target = pipeline_plan(
                    check._fusable_chain(machine), machine).schedules[0].assignment
            else:
                target = check._commplan_workload(spec.kind, spec.formats[0]).assignment
            sched = auto_schedule(target, machine, strategy=strategy)
            ck = compile_kernel(sched, machine)
            kernels[key] = (ck, _run_leaf(codegen.leaf_for(ck), ck))
    return kernels


def _run_leaf(leaf, ck):
    ck.out.vals.fill(0.0)
    for p in ck.pieces:
        leaf(p)
    return ck.out.vals.data.tobytes()


def _bind_herd(kernels, keys) -> None:
    # 16 threads x every kernel of ``keys``, half in reverse order
    reset_codegen_stats()
    got = [None] * 16

    def worker(tid):
        order = keys if tid % 2 else keys[::-1]
        got[tid] = {k: codegen.leaf_for(kernels[k][0]) for k in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the binds, too
    try:
        run_herd(16, worker)
    finally:
        sys.setswitchinterval(interval)
    stats = codegen_stats()
    assert stats == {"lowered": 0, "loaded": 0, "binds": 16 * len(keys),
                     "fallbacks": 0}
    for leaves in got:
        for k in keys:
            ck, expected = kernels[k]
            assert _run_leaf(leaves[k], ck) == expected, (
                f"a leaf bound under the herd diverged for {k}"
            )


def test_bind_herd_smoke():
    kernels = _kernels()
    assert len(kernels) == 11
    _bind_herd(kernels, sorted(kernels))


@pytest.mark.serving
@pytest.mark.slow
def test_bind_herd_sweep():
    """One key per iteration, every key in turn."""
    kernels = _kernels()
    keys = sorted(kernels)
    for i in range(SWEEP):
        _bind_herd(kernels, [keys[i % len(keys)]])


# --------------------------------------------------------------------- #
# layer 2: the byte-budgeted LRU under an interleaved herd
# --------------------------------------------------------------------- #
def _lru_herd(iteration: int) -> None:
    lru = _SizedLRU(budget_bytes=1 << 30, max_entries=10_000)
    n_threads, per_thread = 8, 50

    def worker(tid):
        for i in range(per_thread):
            lru.put((tid, i), f"v{tid}.{i}", nbytes=100)
            assert lru.get((tid, i)) == f"v{tid}.{i}"

    run_herd(n_threads, worker)
    # no lost entries: everything fits the budget, so every put survives
    assert len(lru) == n_threads * per_thread
    for tid in range(n_threads):
        for i in range(per_thread):
            assert lru.get((tid, i)) == f"v{tid}.{i}", "lost cache entry"
    assert lru.total_bytes == n_threads * per_thread * 100
    assert lru.hits == 2 * n_threads * per_thread  # worker + verify reads
    assert lru.misses == 0
    assert lru.evictions == 0


def test_lru_no_lost_entries_smoke():
    _lru_herd(0)


@pytest.mark.serving
@pytest.mark.slow
def test_lru_no_lost_entries_sweep():
    for i in range(SWEEP):
        _lru_herd(i)


def _lru_eviction_herd(iteration: int) -> None:
    # Budget forces constant eviction; accounting must stay exact anyway.
    lru = _SizedLRU(budget_bytes=1_000, max_entries=10_000)

    def worker(tid):
        for i in range(100):
            lru.put((tid, i), i, nbytes=100)
            lru.get((tid, i - 1))

    run_herd(8, worker)
    live = [k for k in list(lru.items())]
    assert lru.total_bytes <= 1_000
    assert lru.total_bytes == 100 * len(live)
    assert lru.evictions == 8 * 100 - len(live)


def test_lru_eviction_accounting_smoke():
    _lru_eviction_herd(0)


@pytest.mark.serving
@pytest.mark.slow
def test_lru_eviction_accounting_sweep():
    for i in range(SWEEP):
        _lru_eviction_herd(i)


def test_an_uncached_compile_on_one_thread_does_not_blind_the_others():
    """``compile_kernel(..., use_cache=False)`` runs inside
    ``caches_disabled()``.  While one thread is in there, every other
    thread — each ``repro.serve`` worker — must keep hitting and storing:
    a process-wide flag made their lookups miss and their stores vanish."""
    machine = Machine.cpu(2)
    step = threading.Barrier(2, timeout=30)
    got = {}

    def schedule():
        rng = np.random.default_rng(0)
        B = repro.Tensor.from_dense(
            "B", rng.random((16, 16)) * (rng.random((16, 16)) < 0.3), repro.CSR)
        a = repro.Tensor.zeros("a", (16,))
        i, j = repro.index_vars("i j")
        a[i] = B[i, j] * repro.Tensor.from_dense("c", rng.random(16))[j]
        return lambda: repro.auto_schedule(a, machine)

    def worker(tid):
        if tid == 0:
            with caches_disabled():
                step.wait()  # inside
                step.wait()  # the other thread has compiled twice
            return
        fresh = schedule()
        step.wait()
        try:
            got["first"] = compile_kernel(fresh(), machine)
            got["again"] = compile_kernel(fresh(), machine)
        finally:
            step.wait()

    run_herd(2, worker)
    assert got["again"] is got["first"], "store dropped or lookup missed"


# --------------------------------------------------------------------- #
# layer 3: the full serving path — compile/execute/autotune herds
# --------------------------------------------------------------------- #
N, K = 64, 4


def _make_data(iteration: int):
    rng = np.random.default_rng(1000 + iteration)
    B = rng.random((N, N)) * (rng.random((N, N)) < 0.15)
    return B, rng.random(N), rng.random((N, K))


def _serial_reference(B, x, C):
    clear_caches()
    with repro.session(nodes=2) as s:
        Bt = s.tensor("B", B, repro.CSR)
        ref_spmv = np.array(repro.einsum(
            "ij,j->i", Bt, s.tensor("x", x), session=s).to_dense(), copy=True)
        ref_spmm = np.array(repro.einsum(
            "ij,jk->ik", Bt, s.tensor("C", C), session=s).to_dense(), copy=True)
    return {"ij,j->i": ref_spmv, "ij,jk->ik": ref_spmm}


def _serving_herd(iteration: int, tune: bool) -> None:
    B, x, C = _make_data(iteration)
    ref = _serial_reference(B, x, C)
    clear_caches()
    reset_codegen_stats()
    requests = (("ij,j->i", ("B", "x")), ("ij,jk->ik", ("B", "C")))
    results = [[] for _ in range(12)]
    with repro.serve(nodes=2, workers=4, tune=tune) as srv:
        srv.put_tensor("B", B, repro.CSR)
        srv.put_tensor("x", x)
        srv.put_tensor("C", C)

        def worker(tid):
            futs = [srv.submit(spec, *names, tenant=f"t{tid}")
                    for spec, names in requests for _ in range(3)]
            results[tid] = [(f.result(timeout=120)) for f in futs]

        run_herd(12, worker)
        # dedup: one build per distinct signature across the whole herd
        assert srv.compiles == len(requests), (
            f"{srv.compiles} builds for {len(requests)} signatures"
        )
        per_sig_leaders = {}
        for row in results:
            for r in row:
                per_sig_leaders.setdefault(r.key, 0)
                per_sig_leaders[r.key] += bool(r.compiled)
        assert all(v == 1 for v in per_sig_leaders.values()), per_sig_leaders
    # nothing is generated under the herd, and every kernel binds its leaf
    stats = codegen_stats()
    assert (stats["lowered"], stats["loaded"], stats["fallbacks"]) == (0, 0, 0)
    assert stats["binds"] >= len(requests)
    # bit-identical to serial — same spec, same answer, every response
    for row in results:
        for r in row:
            assert np.array_equal(r.value, ref[r.key[0]]), (
                f"response diverged from serial for {r.key[0]}"
            )


def _charge_herd(iteration: int) -> None:
    # Two tenants lead builds of two different signatures at once (tuned, so
    # both lower and execute inside their build windows): each is charged
    # its own kernel's bytes — nothing process-global leaks into the charge.
    B, x, C = _make_data(iteration)
    clear_caches()
    requests = {"alice": ("ij,j->i", ("B", "x")),
                "bob": ("ij,jk->ik", ("B", "C"))}
    results = {}
    with repro.serve(nodes=2, workers=4, tune=True) as srv:
        srv.put_tensor("B", B, repro.CSR)
        srv.put_tensor("x", x)
        srv.put_tensor("C", C)

        def worker(tid):
            tenant = sorted(requests)[tid]
            spec, names = requests[tenant]
            results[tenant] = srv.submit(
                spec, *names, tenant=tenant).result(timeout=120)

        run_herd(2, worker)
        tenants = srv.stats()["tenants"]
        for tenant, r in results.items():
            assert r.compiled
            kernel = srv._entries[r.key].kernel
            assert tenants[tenant]["charged_bytes"] == kernel_entry_nbytes(kernel)


def test_serving_charge_is_the_kernels_bytes_smoke():
    _charge_herd(0)


@pytest.mark.serving
@pytest.mark.slow
def test_serving_charge_is_the_kernels_bytes_sweep():
    for i in range(SWEEP):
        _charge_herd(i)


def test_serving_compile_execute_herd_smoke():
    _serving_herd(0, tune=False)


def test_serving_autotune_herd_smoke():
    _serving_herd(1, tune=True)


@pytest.mark.serving
@pytest.mark.slow
def test_serving_compile_execute_herd_sweep():
    for i in range(SWEEP):
        _serving_herd(i, tune=False)


@pytest.mark.serving
@pytest.mark.slow
def test_serving_autotune_herd_sweep():
    for i in range(SWEEP):
        _serving_herd(i, tune=True)
