"""The session's front-door table: a repeated statement or program resolves
in one key lookup, and every change that must recompile still does.

``Session.compile`` keys each auto-scheduled target on its statement key
plus the tuned strategy (an explicit schedule on its kernel fingerprint)
and maps the key to the kernel-cache keys the first call compiled to.
These tests pin both halves: a warm hit schedules, plans and fingerprints
nothing, and each invalidating change below misses (or returns the kernel
the schedule path returns).  Cache counters are compared against a twin
session that takes the schedule-first path on every call.
"""
import gc
import importlib
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.api.session import Session
from repro.core import cache as _cache
from repro.core import clear_caches, set_cache_budget
from repro.core.compiler import compile_statement
from repro.core.program import compile_program
from repro.legion import Runtime
from repro.taco import CSR, Tensor, index_vars

N = 40


@pytest.fixture(autouse=True)
def _fresh_caches():
    budgets = _cache.cache_budgets()
    clear_caches()
    yield
    set_cache_budget(budgets["kernel_bytes"])
    clear_caches()


def _csr(seed, n=N, density=0.1):
    return sp.random(n, n, density=density, format="csr",
                     random_state=np.random.default_rng(seed))


def _spmv_world(seed=0):
    rng = np.random.default_rng(seed)
    B = Tensor.from_scipy("B", _csr(seed), CSR)
    c = Tensor.from_dense("c", rng.random(N))
    a = Tensor.zeros("a", (N,))
    return B, c, a


def _spmv(a, B, c):
    """Rebuild ``a[i] = B[i, j] * c[j]`` with fresh index variables."""
    i, j = index_vars("i j")
    a[i] = B[i, j] * c[j]
    return a


class _Spies:
    """Counts calls of the scheduling / planning / fingerprinting entry
    points at every name they are reached through."""

    # ``repro.api`` re-exports functions under some module names, so the
    # modules are resolved explicitly.
    SITES = [
        ("repro.api.session", "auto_schedule"),
        ("repro.api.autoschedule", "classify"),
        ("repro.core.compiler", "classify"),
        ("repro.core.kernelspec", "classify"),
        ("repro.core.program", "pipeline_plan"),
        ("repro.core.cache", "kernel_fingerprint"),
    ]

    def __init__(self, monkeypatch):
        self.calls = {}
        for modname, name in self.SITES:
            mod = importlib.import_module(modname)
            real = getattr(mod, name)
            self.calls[name] = 0

            def spy(*a, _real=real, _name=name, **kw):
                self.calls[_name] += 1
                return _real(*a, **kw)

            monkeypatch.setattr(mod, name, spy)

    def total(self):
        return sum(self.calls.values())


class _ScheduleFirst(Session):
    """The compile path without the front-door table: schedule every
    target, then compile the program (the reference for counters)."""

    def compile(self, *targets, use_cache=True, cse=True, fold=True,
                dse=True, fuse=True, keep=None):
        return compile_program(
            [self.schedule_for(t) for t in targets], self.machine,
            use_cache=use_cache, cse=cse, fold=fold, dse=dse, fuse=fuse,
            keep=keep,
        )

    def compile_kernel(self, target, *, use_cache=True):
        return self.compile(target, use_cache=use_cache).kernels[0]


def _kernel_counts():
    st = _cache.cache_stats()
    return st["kernel_hits"], st["kernel_misses"]


def _streaming(sched, *tensors):
    """``sched`` with ``tensors`` also communicated at the inner loop of
    its last distributed loop: streamed in rounds (SpDISTAL-Batched)."""
    return sched.communicate(list(tensors), sched.divide_rel_of(sched.distributed[-1]).inner)


# --------------------------------------------------------------------------- #
# a warm hit does no front-door work
# --------------------------------------------------------------------------- #
class TestWarmHitIsOneLookup:
    def test_execute(self, monkeypatch):
        B, c, a = _spmv_world()
        with repro.session(nodes=4) as s:
            first = s.compile_kernel(_spmv(a, B, c))
            s.execute(_spmv(a, B, c))
            spies = _Spies(monkeypatch)
            res = s.execute(_spmv(a, B, c))
            assert spies.calls == dict.fromkeys(spies.calls, 0)
            assert s.compile_kernel(_spmv(a, B, c)) is first
        assert np.allclose(res.output.vals.data, _csr(0) @ c.vals.data)

    def test_einsum(self, monkeypatch):
        M, x = _csr(1), np.random.default_rng(1).random(N)
        with repro.session(nodes=4) as s:
            repro.einsum("ij,j->i", M, x, session=s)
            spies = _Spies(monkeypatch)
            out = repro.einsum("ij,j->i", M, x, session=s)
            assert spies.total() == 0
        assert np.allclose(out.vals.data, M @ x)

    def test_program_run(self, monkeypatch):
        with repro.session(nodes=4) as s:
            w = _ProgramWorld(seed=2)
            w.program(s).run()
            spies = _Spies(monkeypatch)
            res = w.program(s).run()
            assert spies.total() == 0
        w.check(res)


def _spmm(A, B, C):
    """Rebuild ``A[i, j] = B[i, k] * C[k, j]`` with fresh index variables."""
    i, k, j = index_vars("i k j")
    A[i, j] = B[i, k] * C[k, j]
    return A


class TestWarmScheduledHitIsOneLookup:
    """``s.execute(repro.auto_schedule(stmt, m, strategy=...))`` in a loop:
    the synthesized schedule is keyed by what synthesized it, so a warm
    step builds no schedule and walks no relation — one kernel-cache hit
    on the kernel the first call compiled."""

    SYNTHESIS = ("_rows_schedule", "_nonzeros_schedule", "_grid_schedule")

    def _spy(self, monkeypatch):
        import repro.api.autoschedule as autoschedule

        calls = dict.fromkeys((*self.SYNTHESIS, "_schedule_signature"), 0)
        for mod, names in ((autoschedule, self.SYNTHESIS),
                           (_cache, ("_schedule_signature",))):
            for name in names:
                def spy(*a, _real=getattr(mod, name), _name=name, **kw):
                    calls[_name] += 1
                    return _real(*a, **kw)

                monkeypatch.setattr(mod, name, spy)
        return calls

    @pytest.mark.parametrize("strategy", ["rows", "nonzeros", "grid"])
    @pytest.mark.parametrize("machine", [dict(nodes=4), dict(gpus=4)],
                             ids=["cpu4", "gpu4"])
    def test_execute_auto_schedule(self, monkeypatch, machine, strategy):
        rng = np.random.default_rng(3)
        M, Cd = _csr(3), rng.random((N, 5))
        B = Tensor.from_scipy("B", M, CSR)
        C = Tensor.from_dense("C", Cd)
        A = Tensor.zeros("A", (N, 5))
        with repro.session(**machine) as s:
            first = s.compile_kernel(
                repro.auto_schedule(_spmm(A, B, C), s.machine, strategy=strategy))
            assert first.strategy == strategy
            s.execute(repro.auto_schedule(_spmm(A, B, C), s.machine, strategy=strategy))
            calls = self._spy(monkeypatch)
            hits, misses = _kernel_counts()
            res = s.execute(
                repro.auto_schedule(_spmm(A, B, C), s.machine, strategy=strategy))
            assert calls == dict.fromkeys(calls, 0)
            assert _kernel_counts() == (hits + 1, misses)
            assert s.compile_kernel(repro.auto_schedule(
                _spmm(A, B, C), s.machine, strategy=strategy)) is first
            assert calls == dict.fromkeys(calls, 0)
        assert np.allclose(res.output.vals.data.reshape(N, 5), M @ Cd)


# --------------------------------------------------------------------------- #
# what must miss (or return the schedule path's kernel)
# --------------------------------------------------------------------------- #
class TestInvalidation:
    def test_repacked_operand_misses(self):
        B, c, a = _spmv_world()
        with repro.session(nodes=4) as s:
            first = s.compile_kernel(_spmv(a, B, c))
            M = _csr(7)
            coo = M.tocoo()
            B._pack([coo.row, coo.col], coo.data)  # a new pattern
            _, misses = _kernel_counts()
            ck = s.compile_kernel(_spmv(a, B, c))
            assert ck is not first and _kernel_counts()[1] == misses + 1
            s.execute(ck)
        assert np.allclose(a.vals.data, M @ c.vals.data)

    def test_output_adopting_its_input_pattern_hits_next(self, monkeypatch):
        rng = np.random.default_rng(3)
        B = Tensor.from_scipy("B", _csr(3), CSR)
        C = Tensor.from_dense("C", rng.random((N, 4)))
        D = Tensor.from_dense("D", rng.random((4, N)))
        P = Tensor.zeros("P", (N, N), CSR)

        def sddmm():
            i, j, k = index_vars("i j k")
            P[i, j] = B[i, j] * C[i, k] * D[k, j]
            return P

        with repro.session(nodes=4) as s:
            version = P.pattern_version
            first = s.compile_kernel(sddmm())
            assert P.pattern_version != version  # the output adopted B's
            spies = _Spies(monkeypatch)
            assert s.compile_kernel(sddmm()) is first
            assert spies.total() == 0

    def test_spadd_aliased_output_compiles_once(self):
        M1, M2 = _csr(4), _csr(5)
        B = Tensor.from_scipy("B", M1, CSR)
        A = Tensor.from_scipy("A", M2, CSR)
        _, misses = _kernel_counts()
        with repro.session(nodes=4) as s:
            for _ in range(4):
                i, j = index_vars("i j")
                A[i, j] = B[i, j] + A[i, j]
                s.execute(A)
        assert _kernel_counts()[1] == misses + 1
        assert np.allclose(A.to_dense(), (4 * M1 + M2).toarray())

    def test_streaming_schedule_compiles_its_own_kernel(self):
        B, c, a = _spmv_world()
        with repro.session(nodes=4) as s:
            first = s.compile_kernel(_spmv(a, B, c))
            ck = s.compile_kernel(_streaming(s.schedule_for(_spmv(a, B, c)), B))
            assert ck is not first and ck._streamed == {B}
            assert s.compile_kernel(_spmv(a, B, c)) is first and not first._streamed
            assert ck is compile_statement(
                _streaming(s.schedule_for(_spmv(a, B, c)), B), s.machine)

    def test_reassigned_output_misses(self):
        B, c, a = _spmv_world()
        B2 = Tensor.from_scipy("B2", _csr(9), CSR)
        d = Tensor.from_dense("d", np.arange(1.0, N + 1))
        with repro.session(nodes=4) as s:
            first = s.compile_kernel(_spmv(a, B, c))
            for M, x, mat, vec in ((B, d, _csr(0), d), (B2, c, _csr(9), c),
                                   (B, c, _csr(0), c)):
                ck = s.compile_kernel(_spmv(a, M, x))
                assert (ck is first) == (M is B and x is c)
                s.execute(_spmv(a, M, x))
                assert np.allclose(a.vals.data, mat @ vec.vals.data)

    def test_a_winner_recorded_after_hit_uses_tuned_strategy(self):
        B, c, a = _spmv_world()
        with repro.session(nodes=4) as s:
            s.execute(_spmv(a, B, c))
            default = s.compile_kernel(_spmv(a, B, c))
            assert default.strategy == "rows"
            # what a full-pool autotune records when non-zeros wins
            s._remember(_spmv(a, B, c).assignment, compile_statement(
                s.schedule_for(_spmv(a, B, c), strategy="nonzeros"), s.machine))
            tuned = s.compile_kernel(_spmv(a, B, c))
            assert tuned.strategy == "nonzeros"
            assert s.compile_kernel(_spmv(a, B, c)) is tuned
            s.execute(_spmv(a, B, c))
        assert np.allclose(a.vals.data, _csr(0) @ c.vals.data)

    def test_clear_caches_misses(self):
        B, c, a = _spmv_world()
        with repro.session(nodes=4) as s:
            first = s.compile_kernel(_spmv(a, B, c))
            clear_caches()
            _, misses = _kernel_counts()
            assert s.compile_kernel(_spmv(a, B, c)) is not first
            assert _kernel_counts()[1] == misses + 1

    def test_caches_disabled_and_use_cache_false_bypass(self):
        B, c, a = _spmv_world()
        with repro.session(nodes=4) as s:
            first = s.compile_kernel(_spmv(a, B, c))
            before = _kernel_counts()
            table = (s._frontdoor.hits, s._frontdoor.misses, len(s._frontdoor))
            with _cache.caches_disabled():
                assert s.compile_kernel(_spmv(a, B, c)) is not first
            assert s.compile_kernel(_spmv(a, B, c), use_cache=False) is not first
            assert _kernel_counts() == before
            assert (s._frontdoor.hits, s._frontdoor.misses, len(s._frontdoor)) == table
            assert s.compile_kernel(_spmv(a, B, c)) is first

    def test_evicted_primary_recompiles(self):
        set_cache_budget(kernel_bytes=1)  # one kernel entry survives
        B, c, a = _spmv_world(0)
        B2, c2, a2 = _spmv_world(1)
        with repro.session(nodes=4) as s:
            first = s.compile_kernel(_spmv(a, B, c))
            s.compile_kernel(_spmv(a2, B2, c2))  # evicts the first
            _, misses = _kernel_counts()
            again = s.compile_kernel(_spmv(a, B, c))
            assert again is not first and _kernel_counts()[1] == misses + 1
            s.execute(again)
        assert np.allclose(a.vals.data, _csr(0) @ c.vals.data)

    def test_recycled_ids_never_yield_a_dead_tensors_kernel(self):
        # Tiny budgets let evictions free each output, so a fresh output
        # lands at a dead one's id with the same state: its key matches a
        # stale table entry whose kernel is gone.
        set_cache_budget(kernel_bytes=1)
        B, c, _ = _spmv_world()
        seen, recycled = set(), 0
        with repro.session(nodes=4) as s:
            for k in range(400):  # until the allocator has recycled a few
                if recycled == 3:
                    break
                a = Tensor.zeros("a", (N,))
                recycled += id(a) in seen
                seen.add(id(a))
                c.vals.data[:] = k
                ck = s.compile_kernel(_spmv(a, B, c))
                assert ck.out is a
                s.execute(ck)
                assert np.allclose(a.vals.data, _csr(0) @ c.vals.data)
                del a, ck
                gc.collect()
        assert recycled  # the case this test is about did occur

    def test_keep_and_pass_flags_key_the_program(self):
        with repro.session(nodes=4) as s:
            w = _ProgramWorld(seed=6)
            fused = w.program(s).compile()
            assert len(fused) == len(w.program(s).compile())
            unfused = w.program(s).compile(fuse=False)
            assert len(unfused) == len(fused) + 1
            kept = w.program(s).compile(keep=[w.E])
            assert len(kept) == len(fused) + 1
            by_name = w.program(s).compile(keep=["E"])
            assert len(by_name) == len(fused) + 1
            w.E.name = "E_renamed"  # keep= by name no longer pins it
            assert len(w.program(s).compile(keep=["E"])) == len(fused)
            w.E.name = "E"
            no_cse = w.program(s).compile(cse=False)
            assert no_cse.reused_from == [None] * len(no_cse)
            for flags in ({}, dict(fuse=False), dict(keep=[w.E]), dict(cse=False),
                          dict(dse=False), dict(fold=False)):
                _assert_same_program(
                    w.program(s).compile(**flags),
                    compile_program(w.program(s).schedules(), s.machine, **flags),
                )


# --------------------------------------------------------------------------- #
# streaming is a schedule: a kernel is what its key says
# --------------------------------------------------------------------------- #
class TestStreamingIsASchedule:
    """SpDISTAL-Batched is a ``communicate`` at the inner loop, read when
    the kernel compiles: nothing changes a kernel after its compile, so a
    handle a caller holds runs as it did, and the streaming and the plain
    schedule of one statement are two kernels under two keys."""

    @staticmethod
    def _world():
        rng = np.random.default_rng(12)
        B = Tensor.from_scipy("B", _csr(12, n=200, density=0.05), CSR)
        C = Tensor.from_dense("C", rng.random((200, 4)))
        return Tensor.zeros("A", (200, 4)), B, C

    @staticmethod
    def _events(ck, machine):
        """Every event of a cold and a warm run of ``ck`` on a fresh runtime."""
        rt = Runtime(machine)
        return [e for _ in range(2) for step in ck.execute(rt).metrics.steps
                for e in step.comm_events]

    def test_a_held_kernel_is_unchanged_by_the_streaming_schedule(self):
        A, B, C = self._world()
        with repro.session(nodes=4) as s:
            first = s.compile_kernel(_spmm(A, B, C))
            second = s.compile_kernel(_spmm(A, B, C))
            assert first is second
            before = self._events(first, s.machine)
            streamed = s.execute(_streaming(s.schedule_for(_spmm(A, B, C)), C))
            assert any(e.reason == f"stream {C.vals.name}"
                       for step in streamed.metrics.steps for e in step.comm_events)
            assert self._events(first, s.machine) == before
            assert self._events(second, s.machine) == before
            assert not first._streamed

    def test_streaming_and_plain_schedules_are_two_kernels_and_both_hit(self):
        A, B, C = self._world()
        with repro.session(nodes=4) as s:
            plain = lambda: s.schedule_for(_spmm(A, B, C))  # noqa: E731
            streaming = lambda: _streaming(plain(), C)  # noqa: E731
            kernels = [s.compile(make()).kernels[0] for make in (plain, streaming)]
            assert kernels[0] is not kernels[1]
            assert (kernels[0]._streamed, kernels[1]._streamed) == (frozenset(), {C})
            for make, ck in zip((plain, streaming), kernels):
                hits, misses = _kernel_counts()
                door = s._frontdoor.hits
                assert s.compile(make()).kernels[0] is ck
                assert _kernel_counts() == (hits + 1, misses)
                assert s._frontdoor.hits == door + 1
                assert compile_statement(make(), s.machine) is ck
                assert _kernel_counts() == (hits + 2, misses)


# --------------------------------------------------------------------------- #
# counters match the schedule-first path
# --------------------------------------------------------------------------- #
def test_cache_counters_match_schedule_first_path():
    """The same scripted calls leave the same kernel hits / misses in a
    session with the table as in one scheduling every call."""

    def script(s):
        B, c, a = _spmv_world(8)
        for _ in range(3):
            s.execute(_spmv(a, B, c))
        for _ in range(2):
            s.compile(_streaming(s.schedule_for(_spmv(a, B, c)), B))
        s.execute(_spmv(a, B, c))
        B._bump_pattern_version()
        s.execute(_spmv(a, B, c))
        w = _ProgramWorld(seed=9)
        for flags in ({}, {}, dict(fuse=False), {}, dict(keep=["E"])):
            w.program(s).run(**flags)
        set_cache_budget(kernel_bytes=1)
        for _ in range(2):
            s.execute(_spmv(a, B, c))
            w.program(s).run()
        set_cache_budget(kernel_bytes=64 * _cache.MiB)

    deltas = []
    for cls in (Session, _ScheduleFirst):
        clear_caches()
        before = _kernel_counts()
        with cls(nodes=4) as s:
            script(s)
        after = _kernel_counts()
        deltas.append((after[0] - before[0], after[1] - before[1]))
    assert deltas[0] == deltas[1]


def test_threads_sharing_one_session_get_their_own_kernels():
    """Eight threads (more than cores) compile a mix of statements through
    one session with a tiny switch interval: each call returns the kernel
    the schedule path returns for its statement, and every call is
    counted once by the table and once by the kernel cache."""
    worlds = [_spmv_world(seed) for seed in range(4)]
    calls_per_thread, errors = 40, []
    with repro.session(nodes=4) as s:
        before = sum(_kernel_counts())

        def worker(k):
            try:
                for n in range(calls_per_thread):
                    B, c, a = worlds[(k + n) % len(worlds)]
                    ck = s.compile_kernel(_spmv(a, B, c).assignment)
                    assert ck.out is a and ck.roles["B"].tensor is B
            except BaseException as e:  # reported below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "thread hung"
        assert not errors, errors
        calls = 8 * calls_per_thread
        assert s._frontdoor.hits + s._frontdoor.misses == calls
        assert sum(_kernel_counts()) - before == calls
        for B, c, a in worlds:
            assert s.compile_kernel(_spmv(a, B, c)) is compile_statement(
                s.schedule_for(_spmv(a, B, c)), s.machine)


# --------------------------------------------------------------------------- #
# the program fixture: fuse, dse, SpAdd3 and cse all fire
# --------------------------------------------------------------------------- #
class _ProgramWorld:
    """``E = B·(U V)``, ``H = E F`` (fused), ``z = B d`` (a dead store),
    ``S = B + B2 + B3`` (assembled), ``z = B c`` twice (collapsed)."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.raw = [_csr(seed + k) for k in range(3)]
        self.B, self.B2, self.B3 = (
            Tensor.from_scipy(nm, m, CSR) for nm, m in zip(("B", "B2", "B3"), self.raw)
        )
        self.U = Tensor.from_dense("U", rng.random((N, 3)))
        self.V = Tensor.from_dense("V", rng.random((3, N)))
        self.F = Tensor.from_dense("F", rng.random((N, 5)))
        self.c = Tensor.from_dense("c", rng.random(N))
        self.d = Tensor.from_dense("d", rng.random(N))
        self.E = Tensor.zeros("E", (N, N), CSR)
        self.H = Tensor.zeros("H", (N, 5))
        self.S = Tensor.zeros("S", (N, N), CSR)
        self.z = Tensor.zeros("z", (N,))

    def program(self, s):
        B, E = self.B, self.E
        i, j, k, x, y, w, i2, j2, i3, j3, i4, j4, i5, j5 = index_vars(
            "i j k x y w i2 j2 i3 j3 i4 j4 i5 j5")
        with s.program() as p:
            E[i, j] = B[i, j] * self.U[i, k] * self.V[k, j]
            self.H[x, y] = E[x, w] * self.F[w, y]
            self.z[i2] = B[i2, j2] * self.d[j2]
            self.S[i3, j3] = B[i3, j3] + self.B2[i3, j3] + self.B3[i3, j3]
            self.z[i4] = B[i4, j4] * self.c[j4]
            self.z[i5] = B[i5, j5] * self.c[j5]
        return p

    def check(self, res):
        M, M2, M3 = self.raw
        U, V, F = (t.vals.data.reshape(t.shape) for t in (self.U, self.V, self.F))
        E = M.multiply(U @ V)
        assert np.allclose(self.H.vals.data.reshape(N, 5), E @ F)
        assert np.allclose(self.S.to_dense(), (M + M2 + M3).toarray())
        assert np.allclose(self.z.vals.data, M @ self.c.vals.data)
        assert res.reused == 1


def _assert_same_program(got, want):
    assert got.kernels == want.kernels
    assert got.reused_from == want.reused_from
    assert got.passes == want.passes
    assert got.origin == want.origin
