"""A synthesized schedule is built on first read and keyed by what built it.

``auto_schedule`` returns a schedule that holds its statement, the one of
``_rows_schedule`` / ``_nonzeros_schedule`` / ``_grid_schedule`` that
builds it, and a ``synthesis_key`` — the resolved strategy, the piece
count or grid dims and, for rows and grid, the parallel unit.  These tests
pin the two halves of that contract over every kernel-table kind × format
× strategy the auto-scheduler emits (the differential oracle's combos, a
statement the generic engine runs and the fused SDDMM→SpMM statement):

* **deferred ≡ eager** — the schedule built on first read has the structure
  the same function builds eagerly from the key alone, and the two compile
  to kernels with bit-identical values, ``StepMetrics``, ``CommEvent``s and
  ``predict_cost``;
* **the key is sound** — two synthesized schedules of one statement key
  alike exactly when their structures are equal (so synthesizing for
  cpu(4) and compiling on gpu(4) keys apart from synthesizing for gpu(4)),
  and a builder call after synthesis falls back to the structural key.
"""
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))

from test_differential import _build, _combos, _int_csr, _int_dense  # noqa: E402

import repro.api.autoschedule as autoschedule  # noqa: E402
from repro.analysis.costmodel import predict_cost  # noqa: E402
from repro.api import auto_schedule  # noqa: E402
from repro.core import cache as _cache  # noqa: E402
from repro.core import clear_caches  # noqa: E402
from repro.core.compiler import compile_statement  # noqa: E402
from repro.core.passes import _build_fused  # noqa: E402
from repro.errors import ScheduleError  # noqa: E402
from repro.legion import Machine, Runtime  # noqa: E402
from repro.taco import CSR, Tensor, index_vars  # noqa: E402
from repro.taco.schedule import GPUBlock, ParallelUnit, Schedule  # noqa: E402

MACHINES = {"cpu4": lambda: Machine.cpu(4), "gpu4": lambda: Machine.gpu(4)}
#: (synthesized for, compiled on, pieces=)
CONFIGS = {
    "cpu4": ("cpu4", "cpu4", None),
    "gpu4": ("gpu4", "gpu4", None),
    "cpu4-pieces9": ("cpu4", "cpu4", 9),
    "cpu4-on-gpu4": ("cpu4", "gpu4", None),
}
#: every kind x format x strategy: the differential combos, a statement no
#: specialized leaf walks (the generic engine) and the fused statement.
CASES = [*_combos(), ("spttv", "ccc>csr", "rows"),
         ("fused", "csr", "rows"), ("fused", "csr", "nonzeros")]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _case_id(c):
    return "-".join(str(x) for x in c)


def _world(kind, fmt, seed=11, n=20):
    """``(assignment, output tensor)`` of one seeded statement."""
    rng = np.random.default_rng(seed)
    if kind != "fused":
        out = _build(kind, fmt, rng, n, 0.2)
        return out.assignment, out
    G = Tensor.from_scipy("G", _int_csr(rng, n, n, 0.2), CSR)
    U = Tensor.from_dense("U", _int_dense(rng, (n, 4)))
    V = Tensor.from_dense("V", _int_dense(rng, (4, n)))
    F = Tensor.from_dense("F", _int_dense(rng, (n, 3)))
    H = Tensor.zeros("H", (n, 3))
    i, j, k, l = index_vars("i j k l")
    fused = _build_fused(Machine.cpu(1), G[i, j], U[i, k], V[k, j], F[j, l],
                         H, i, j, l)
    return fused.assignment, H


def _eager(asg, key) -> Schedule:
    """The schedule the synthesis function builds, eagerly, from the
    statement and the synthesis key alone."""
    sched = Schedule(asg)
    if key[0] == "rows":
        return autoschedule._rows_schedule(sched, asg, ParallelUnit(key[2]), key[1])
    if key[0] == "grid":
        return autoschedule._grid_schedule(
            sched, asg, ParallelUnit(key[3]), key[1], key[2])
    split = autoschedule._sparse_access(asg)
    return autoschedule._nonzeros_schedule(sched, asg, key[1], split)


def _structure(sched) -> tuple:
    """The schedule's canonical structure (what the kernel cache keys a
    hand-built schedule by)."""
    canon = _cache._Canon()
    asg = sched.assignment
    stmt = (canon.expr(asg.lhs), canon.expr(asg.rhs))
    return _cache._schedule_signature(canon, stmt, sched)


def _run(sched, machine):
    """Compile, execute cold then warm on a fresh runtime; what came out."""
    ck = compile_statement(sched, machine)
    rt = Runtime(machine)
    runs = [ck.execute(rt) for _ in range(2)]
    return ck, runs, predict_cost(ck)


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_deferred_equals_eager(case, config):
    kind, fmt, strategy = case
    synth_for, compile_on, pieces = CONFIGS[config]
    synth_m, machine = MACHINES[synth_for](), MACHINES[compile_on]()
    asg_d, out_d = _world(kind, fmt)
    asg_e, out_e = _world(kind, fmt)
    deferred = auto_schedule(asg_d, synth_m, strategy=strategy, pieces=pieces)
    key = deferred.synthesis_key
    assert key[0] == strategy
    assert "loop_order" not in vars(deferred)  # nothing built yet
    eager = _eager(asg_e, key)
    assert eager.synthesis_key is None
    assert _structure(deferred) == _structure(eager)
    assert deferred.synthesis_key == key  # reading built it, kept the key

    ck_d, runs_d, cost_d = _run(deferred, machine)
    ck_e, runs_e, cost_e = _run(eager, machine)
    assert ck_d is not ck_e  # a hand-built twin compiles its own kernel
    assert ck_d.cache_key[0] == (_cache.statement_key(asg_d, machine)[0], key)
    assert np.array_equal(out_d.to_dense(), out_e.to_dense())
    assert out_d.vals.data.tobytes() == out_e.vals.data.tobytes()
    for got, want in zip(runs_d, runs_e):
        assert got.metrics.steps == want.metrics.steps
        assert [s.comm_events for s in got.metrics.steps] == \
            [s.comm_events for s in want.metrics.steps]
        assert got.simulated_seconds == want.simulated_seconds
    assert cost_d == cost_e


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_keys_agree_exactly_when_structures_do(case):
    """Synthesizing for cpu(4) and for gpu(4), both compiled on gpu(4):
    rows and grid parallelize the inner loop on a different unit, so they
    key apart; a non-zero split reads no unit, builds the same structure
    and keys alike.  A different piece count always keys apart."""
    kind, fmt, strategy = case
    asg, _ = _world(kind, fmt)
    gpu = MACHINES["gpu4"]()
    variants = [auto_schedule(asg, MACHINES[m](), strategy=strategy)
                for m in ("cpu4", "gpu4")]
    variants.append(auto_schedule(asg, gpu, strategy=strategy, pieces=9))
    keys = [_cache.kernel_fingerprint(s, gpu) for s in variants]
    shapes = [_structure(_eager(asg, s.synthesis_key)) for s in variants]
    for a in range(3):
        for b in range(a + 1, 3):
            assert (keys[a] == keys[b]) == (shapes[a] == shapes[b])
    assert keys[0] != keys[2] and keys[1] != keys[2]
    if strategy in ("rows", "grid"):
        assert keys[0] != keys[1]


@pytest.mark.parametrize("strategy", ["rows", "nonzeros", "grid"])
def test_a_builder_call_falls_back_to_the_structural_key(strategy):
    asg, _ = _world("spmm", "csr")
    machine = Machine.cpu(4)
    untouched = auto_schedule(asg, machine, strategy=strategy)
    key = _cache.kernel_fingerprint(untouched, machine)
    eager = _eager(asg, untouched.synthesis_key)

    edited = auto_schedule(asg, machine, strategy=strategy)
    edited.distribute([])  # changes nothing, but is an edit
    assert edited.synthesis_key is None
    assert [v.name for v in edited.loop_order] == [v.name for v in eager.loop_order]
    structural = _cache.kernel_fingerprint(edited, machine)
    assert structural == _cache.kernel_fingerprint(eager, machine) != key

    changed = auto_schedule(asg, machine, strategy=strategy)
    changed.parallelize(changed.loop_order[-1], GPUBlock)
    eager.parallelize(eager.loop_order[-1], GPUBlock)
    assert changed.synthesis_key is None
    assert _cache.kernel_fingerprint(changed, machine) == \
        _cache.kernel_fingerprint(eager, machine) != structural


class TestLegalityStaysEager:
    """Errors come from ``auto_schedule`` itself, not from the first read."""

    def test_unknown_strategy(self):
        asg, _ = _world("spmm", "csr")
        with pytest.raises(ScheduleError, match="unknown auto-schedule strategy"):
            auto_schedule(asg, Machine.cpu(4), strategy="diagonal")

    def test_grid_for_a_kind_without_it(self):
        asg, _ = _world("spmv", "csr")
        with pytest.raises(ScheduleError, match="not legal"):
            auto_schedule(asg, Machine.cpu(4), strategy="grid")

    def test_grid_over_a_non_square_piece_count(self):
        asg, _ = _world("spmm", "csr")
        with pytest.raises(ScheduleError, match="square piece count"):
            auto_schedule(asg, Machine.cpu(4), strategy="grid", pieces=3)

    def test_nonzeros_with_nothing_to_split(self):
        c = Tensor.from_dense("c", np.arange(6.0))
        a = Tensor.zeros("a", (6,))
        (i,) = index_vars("i")
        a[i] = c[i]
        with pytest.raises(ScheduleError, match="compressed operand"):
            auto_schedule(a, Machine.cpu(4), strategy="nonzeros")


def test_concurrent_first_reads_build_once_and_see_one_schedule(monkeypatch):
    """Threads reading different fields of one unbuilt schedule at once:
    synthesis runs once and every thread sees the same six objects."""
    calls = []
    real = autoschedule._nonzeros_schedule

    def counting(*a):
        calls.append(1)
        return real(*a)

    monkeypatch.setattr(autoschedule, "_nonzeros_schedule", counting)
    asg, _ = _world("spmm", "csr")
    fields = ("loop_order", "relations", "distributed", "communicated",
              "parallelized", "precomputed")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            sched = auto_schedule(asg, Machine.cpu(4), strategy="nonzeros")
            gate = threading.Barrier(6, timeout=30)
            seen = [None] * 6

            def read(k):
                gate.wait()
                first = getattr(sched, fields[k])
                seen[k] = (first, *(getattr(sched, f) for f in fields))

            threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads), "reader hung"
            published = tuple(vars(sched)[f] for f in fields)
            for k, (first, *rest) in enumerate(seen):
                assert first is published[k]
                assert all(x is y for x, y in zip(rest, published))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 100


def test_a_pickled_schedule_is_built_and_keeps_its_key():
    asg, _ = _world("spmm", "csr")
    sched = auto_schedule(asg, Machine.gpu(4), strategy="grid")
    back = pickle.loads(pickle.dumps(sched))
    assert back.synthesis_key == sched.synthesis_key == ("grid", 2, 2, "GPUThread")
    assert "_lock" not in vars(back) and "_synthesize" not in vars(back)
    assert _structure(back) == _structure(sched)
