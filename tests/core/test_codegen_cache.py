"""Bound-leaf keying: one bind function per template key, no source anywhere.

A bound leaf depends on its key ``(iteration shape, strategy)`` and on
nothing else, so every kernel of one key — whatever its kind, format,
tensors, pattern versions, machine or piece count — must bind through the
*same* function the kernel table names, and nothing is rendered, compiled
or ``exec``'d on the way: a cold launch compiles no source (an audit hook
watches the builtins).  Disabling the caches must not disable bound
leaves, and a store round trip must restore kernels and traces while the
artifact carries no code at all.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api.autoschedule import auto_schedule
from repro.codegen import codegen_stats, reset_codegen_stats
from repro.core import (
    SPECS, cache_stats, caches_disabled, clear_caches, compile_kernel,
    set_cache_enabled,
)
from repro.core.kernelspec import template_key
from repro.core.cache import iter_aot_entries
from repro.core.passes import FUSED_SDDMM_SPMM, pipeline_plan
from repro.core.store_index import ArtifactStore
from repro.kernels.segment import _const
from repro.legion import Machine, Runtime

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check  # noqa: E402 - the seeded one-statement-per-kind builders

#: every (kind, sweep format, strategy) with a bound leaf
CASES = [
    (spec.kind, fmt, strategy)
    for spec in SPECS.values()
    for fmt in spec.formats for strategy in spec.bound
]
SPMV_ROWS = ("spmv", SPECS["spmv"].formats[0], "rows")
#: what an empty piece binds to, whatever the key
CONST_CODE = _const(None).__code__


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


def body_codes(ck):
    """The code objects of ``ck``'s non-empty piece thunks."""
    thunks = ck._leaf.__defaults__[0]
    assert set(thunks) == {p.color for p in ck.pieces}
    return {t.__code__ for t in thunks.values()} - {CONST_CODE}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_one_bind_function_per_template(case):
    """Two kernels differing in tensors, pattern_version, machine kind and
    piece count bind through the one function the table names: their
    thunks run one body, defined in that function's module."""
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
    assert (stats["lowered"], stats["loaded"]) == (0, 0)
    assert (stats["binds"], stats["fallbacks"]) == (2, 0)
    assert list(iter_aot_entries()) == []
    bind = SPECS[case[0]].bound[case[2]]
    (code,) = body_codes(ck1)
    assert body_codes(ck2) == {code}
    for t in ck1._leaf.__defaults__[0].values():
        assert t.__globals__ is vars(sys.modules[bind.__module__])


def test_kinds_that_iterate_alike_share_one_bind_function():
    """SpMV over rows and SpTTV over fibers (either stack) are the same
    segmented dot: three kernels, one bind function, one body."""
    machine = Machine.cpu(4)
    cases = [c for c in CASES if c[0] in ("spmv", "spttv") and c[2] == "rows"]
    assert len(cases) == 3
    kernels = [run(schedule_for(c, machine), machine) for c in cases]
    stats = codegen_stats()
    assert (stats["lowered"], stats["loaded"], stats["binds"]) == (0, 0, 3)
    assert {template_key(ck) for ck in kernels} == {("segdot", "rows")}
    assert SPECS["spmv"].bound["rows"] is SPECS["spttv"].bound["rows"]
    assert len(set.union(*(body_codes(ck) for ck in kernels))) == 1


#: one case per (shape, strategy) the table declares
ONE_PER_KEY = list({(SPECS[c[0]].shape, c[2]): c for c in CASES}.values())
_AUDIT = {"on": False, "events": []}


def _audit(event, args):
    if _AUDIT["on"] and event in ("compile", "exec"):
        _AUDIT["events"].append((event, args[0] if args else None))


@pytest.fixture(scope="module")
def audited():
    """The one process-wide audit hook (it cannot be removed), switched on
    only inside the block a test watches."""
    sys.addaudithook(_audit)
    return _AUDIT


@pytest.mark.parametrize("machine", [Machine.cpu(4), Machine.gpu(4)], ids=["cpu", "gpu"])
def test_a_cold_launch_compiles_nothing(machine, audited):
    """From cleared caches, compile and execute (record, then replay) one
    kernel of every (shape, strategy) the table declares: no ``compile``
    and no ``exec`` audit event fires.  The statements are built and every
    module imported beforehand — an import ``exec``s its module."""
    assert len(ONE_PER_KEY) == 11
    for case in ONE_PER_KEY:  # imports and first-use setup, unwatched
        run(schedule_for(case, machine), machine)
    scheds = [schedule_for(case, machine) for case in ONE_PER_KEY]
    clear_caches()
    reset_codegen_stats()
    audited["events"].clear()
    audited["on"] = True
    try:
        for sched in scheds:
            ck = compile_kernel(sched, machine)
            rt = Runtime(machine)
            ck.execute(rt)
            ck.execute(rt)
    finally:
        audited["on"] = False
    assert audited["events"] == []
    stats = codegen_stats()
    assert (stats["binds"], stats["fallbacks"]) == (11, 0)


@pytest.mark.parametrize("disable", ["context", "setter"])
def test_disabled_caches_still_run_the_bound_leaf(disable):
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

    clear_caches()  # a fresh process: no kernels
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
