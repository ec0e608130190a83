"""Generated-module keying: one module per lowering template, none stored.

A generated leaf module depends on its template key ``(iteration shape,
strategy)`` and on nothing else, so every kernel of one template — whatever
its kind, format, tensors, pattern versions, machine or piece count — must
bind from the *same* module object, lowered and exec-loaded once per
process.  Disabling
the caches must not disable generated leaves, and a store round trip must
restore kernels and traces while the artifact carries no code at all.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import verify_aot_source
from repro.api.autoschedule import auto_schedule
from repro.codegen import codegen_stats, lowering, reset_codegen_stats
from repro.core import (
    SPECS, cache_stats, caches_disabled, clear_caches, compile_kernel,
    set_cache_enabled,
)
from repro.core.kernelspec import template_key
from repro.core.cache import iter_aot_entries
from repro.core.passes import FUSED_SDDMM_SPMM, pipeline_plan
from repro.core.store_index import ArtifactStore
from repro.legion import Machine, Runtime

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check  # noqa: E402 - the seeded one-statement-per-kind builders

#: every (kind, sweep format, strategy) with a generated leaf
CASES = [
    (spec.kind, fmt, strategy)
    for spec in SPECS.values() if not spec.interp_only
    for fmt in spec.formats for strategy in spec.strategies
]
SPMV_ROWS = ("spmv", SPECS["spmv"].formats[0], "rows")


def case_id(case):
    return "-".join(map(str, case))


@pytest.fixture(autouse=True)
def isolated():
    clear_caches()
    reset_codegen_stats()
    yield
    set_cache_enabled(True)
    clear_caches()
    reset_codegen_stats()


def schedule_for(case, machine, n=18):
    """A fresh auto-scheduled statement of ``case`` on ``machine``."""
    kind, fmt, strategy = case
    if kind == FUSED_SDDMM_SPMM:  # no user-written statement: fuse the chain
        chain = check._fusable_chain(machine)
        target = pipeline_plan(chain, machine).schedules[0].assignment
    else:
        target = check._commplan_workload(kind, fmt, n=n).assignment
    return auto_schedule(target, machine, strategy=strategy)


def run(sched, machine, backend="codegen"):
    ck = compile_kernel(sched, machine, backend=backend)
    ck.execute(Runtime(machine))
    return ck


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_one_module_per_template(case):
    """Two kernels differing in tensors, pattern_version, machine kind and
    piece count bind from one module, lowered and loaded once."""
    cpu, gpu = Machine.cpu(4), Machine.gpu(9)
    ck1 = run(schedule_for(case, cpu, n=18), cpu)
    key = template_key(ck1)
    assert key == (SPECS[case[0]].shape, case[2])
    s2 = schedule_for(case, gpu, n=27)
    for t in s2.assignment.tensors():
        t._bump_pattern_version()
    ck2 = run(s2, gpu)
    assert len(ck1.pieces) != len(ck2.pieces)

    stats = codegen_stats()
    assert (stats["lowered"], stats["loaded"]) == (1, 1)
    assert (stats["binds"], stats["fallbacks"]) == (2, 0)
    ((got_key, entry),) = iter_aot_entries()
    assert got_key == key
    assert entry.source == lowering.emit_source(*key)
    verify_aot_source(entry.source, filename=case_id(case))
    # identity, not equality: every thunk of both kernels is a function of
    # the one exec-loaded module
    for ck in (ck1, ck2):
        thunks = ck._leaf.__defaults__[0]
        assert set(thunks) == {p.color for p in ck.pieces}
        assert all(t.__globals__ is entry.module.__dict__
                   for t in thunks.values())


def test_kinds_that_iterate_alike_share_one_module():
    """SpMV over rows and SpTTV over fibers (either stack) are the same
    segmented dot: three kernels, one module."""
    machine = Machine.cpu(4)
    cases = [c for c in CASES if c[0] in ("spmv", "spttv") and c[2] == "rows"]
    assert len(cases) == 3
    kernels = [run(schedule_for(c, machine), machine) for c in cases]
    stats = codegen_stats()
    assert (stats["lowered"], stats["loaded"], stats["binds"]) == (1, 1, 3)
    ((key, entry),) = iter_aot_entries()
    assert key == ("segdot", "rows")
    for ck in kernels:
        assert all(t.__globals__ is entry.module.__dict__
                   for t in ck._leaf.__defaults__[0].values())


@pytest.mark.parametrize("disable", ["context", "setter"])
def test_disabled_caches_still_run_the_generated_leaf(disable):
    key = SPMV_ROWS
    machine = Machine.cpu(4)
    ref = run(schedule_for(key, machine), machine, backend="interp")
    assert codegen_stats()["binds"] == 0
    entries = cache_stats()["kernel_entries"]
    if disable == "setter":
        set_cache_enabled(False)
        ck = run(schedule_for(key, machine), machine)
    else:
        with caches_disabled():
            ck = run(schedule_for(key, machine), machine)
    stats = codegen_stats()
    assert stats["binds"] == 1 and stats["fallbacks"] == 0
    assert cache_stats()["kernel_entries"] == entries  # really were off
    assert ck.out.vals.data.tobytes() == ref.out.vals.data.tobytes()


def test_store_warm_start_restores_everything_but_code(tmp_path):
    machine = Machine.cpu(4)
    sched = schedule_for(SPMV_ROWS, machine)
    rt = Runtime(machine)
    ck = compile_kernel(sched, machine, backend="codegen")
    ck.execute(rt)
    expected = ck.out.vals.data.copy()
    store = ArtifactStore(tmp_path / "store")
    store.put(ck.roles["B"].tensor)
    assert not list((tmp_path / "store").rglob("*.py"))  # no code on disk

    clear_caches()  # a fresh process: no kernels, no modules
    reset_codegen_stats()
    art = store.load_latest(sched, machine)
    by_name = {t.name: t for t in art.all_tensors()}
    before = cache_stats()
    s2 = auto_schedule(by_name[ck.out.name].assignment, machine,
                       strategy="rows")
    ck2 = compile_kernel(s2, machine, backend="codegen")
    assert cache_stats()["kernel_hits"] - before["kernel_hits"] == 1
    ck2.out.vals.fill(np.nan)
    rt2 = art.runtime()
    ck2.execute(rt2)
    assert rt2.trace_hits == 1 and rt2.trace_records == 0
    stats = codegen_stats()
    assert stats["fallbacks"] == 0 and stats["binds"] >= 1
    assert ck2.out.vals.data.tobytes() == expected.tobytes()
