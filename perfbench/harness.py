"""The two measuring passes over a :class:`~perfbench.scenarios.Scenario`.

``end_to_end`` is the untraced pass: repeated full set-ups, cold starts and a
warm front-door loop interleaved 1:1 with the SciPy/NumPy reference.  It
yields the end-to-end metrics and nothing else runs while it measures.

``per_layer`` is the traced pass: the same lifecycle performed as its public
pieces, each inside a perfbench span, plus side loops that time one public
function of one module at a time (fingerprint, residency reset, leaf sweep,
accounting, ...).  Its numbers attribute the end-to-end ones; they are never
gated.

Both are closed-loop, single-threaded, on the host clock
(``time.perf_counter``); simulated-clock values are read from the results the
program returns.  Checks always run outside the timed span.
"""
from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import codegen
from repro.analysis import (
    analyze_program, predict_cost, predict_metrics, verify_aot_source,
)
from repro.core import (
    cache_stats, classify, clear_caches, kernel_fingerprint, load_packed,
    save_packed,
)
from repro.core.cache import iter_aot_entries
from repro.core.passes import pipeline_plan
from repro.legion import Runtime
from repro.taco import index_vars

from . import verify
from .measure import column, run_blocks, summarize
from .scenarios import Scenario
from .trace import Recorder, self_times

now = time.perf_counter

#: Share of ``--seconds`` each phase of the untraced pass may use.
E2E_SHARES = {"setup": 0.25, "cold": 0.20, "warm": 0.55}
#: Relative weights of the traced pass's phases (normalised over the phases
#: the workload has).
LAYER_WEIGHTS = {
    "setup": 3, "store": 3, "cold": 2, "compile_probes": 2, "warm": 6,
    "probes": 6, "tiers": 2, "serving": 5,
}


# --------------------------------------------------------------------------- #
# shared operations
# --------------------------------------------------------------------------- #
def _setup_op(scn: Scenario, k: int, rec: Optional[Recorder] = None):
    """One full set-up: open -> pack -> dense operands -> first execute."""
    t0 = now()
    if rec is None:
        scn.open()
        t1 = now()
        scn.pack()
        t2 = now()
        scn.pack_dense(k)
        scn.rotate(k)
        scn.frontdoor()
    else:
        with rec.span("setup", rotation=k):
            with rec.span("open"):
                scn.open()
            t1 = now()
            with rec.span("pack"):
                scn.pack()
            t2 = now()
            with rec.span("pack_dense"):
                scn.pack_dense(k)
                scn.rotate(k)
            scn.staged(rec)
    return now() - t0, t2 - t1


def _median3(fn: Callable[[], Any]) -> float:
    """Median seconds of three calls: the first runs on caches the operation
    before it filled with its own data; the median is the host's speed now."""
    times = []
    for _ in range(3):
        t0 = now()
        fn()
        times.append(now() - t0)
    return sorted(times)[1]


def _checked(chk: verify.Checker, what: str, scn: Scenario, k: int,
             op: Callable[[], Tuple[float, ...]]):
    """Attempt ``op`` (which returns the seconds it timed); on success check
    every output against rotation ``k``'s reference.  Returns ``op``'s
    timings, or None if it raised or an output was wrong."""
    ok, val = chk.attempt(what, op)
    if ok and chk.expect(what, scn.check(scn.references(k))):
        return val
    return None


def _setup_blocks(scn, chk, rot, budget_s, min_samples, rec=None):
    """Samples of (setup_s, pack_s, reference pack)."""
    def sample():
        clear_caches()  # a set-up starts like a fresh process: nothing cached
        k = next(rot)
        val = _checked(chk, "setup", scn, k, lambda: _setup_op(scn, k, rec))
        return None if val is None else (*val, _median3(scn.pack_ref.compute))

    return run_blocks(sample, budget_s=budget_s, min_samples=min_samples)


def _reference_step(scn: Scenario, k: int) -> float:
    """Seconds of one reference step (per front-door execution), right now."""
    return _median3(lambda: scn.references(k)) / scn.divisor


def _ratios(blocks, num: int, den: int) -> Dict[str, float]:
    """Summary of the per-sample ratio of two timed columns."""
    return summarize([[s[num] / s[den] for s in b] for b in blocks])


def _cold_sweep(scn: Scenario) -> float:
    """Per unit: ``clear_caches()`` + a fresh runtime (operands stay packed),
    then the front door.  Returns the seconds inside the front door."""
    total = 0.0
    for u in scn.units:
        clear_caches()
        scn.reopen(u.machine_key)
        t0 = now()
        u.frontdoor()
        total += now() - t0
    return total


def _warm_sample(scn: Scenario, chk: verify.Checker, k: int,
                 step: Callable[[], List[Any]], last: List[Any]):
    """Rotate to variant ``k``, time ``step`` and then the reference, check
    outside both.  Returns (step, reference) seconds per front-door execution
    and leaves the step's results in ``last``; None if the step raised."""
    scn.rotate(k)
    t0 = now()
    ok, res = chk.attempt("warm", step)
    t1 = now()
    expected = scn.references(k)
    t2 = now()
    if not ok:
        return None
    chk.expect("warm", scn.check(expected))
    last[:] = res
    return (t1 - t0) / scn.divisor, (t2 - t1) / scn.divisor


def _rewarm(scn: Scenario, chk: verify.Checker) -> None:
    """Enter the warm state both passes measure: fresh sessions, then every
    statement compiled and placed exactly once.  (A runtime keeps the home
    placements of every kernel ever placed on it, so a session that lived
    through the cold loops would make ``reset_residency`` slower.)"""
    clear_caches()
    scn.open()
    for _ in range(2):
        chk.attempt("rewarm", scn.frontdoor)


# --------------------------------------------------------------------------- #
# untraced pass -> end-to-end metrics
# --------------------------------------------------------------------------- #
def end_to_end(scn: Scenario, seconds: float, chk: verify.Checker) -> Dict[str, Any]:
    rot = itertools.count()

    setups = _setup_blocks(
        scn, chk, rot, E2E_SHARES["setup"] * seconds, scn.min_setup)

    def cold():
        k = next(rot)
        scn.rotate(k)

        val = _checked(chk, "cold", scn, k,
                       lambda: (_cold_sweep(scn) / scn.divisor,))
        return None if val is None else (*val, _reference_step(scn, k))

    colds = run_blocks(
        cold, budget_s=E2E_SHARES["cold"] * seconds, min_samples=scn.min_cold)

    _rewarm(scn, chk)
    last: List[Any] = []

    warms = run_blocks(
        lambda: _warm_sample(scn, chk, next(rot), scn.frontdoor, last),
        budget_s=E2E_SHARES["warm"] * seconds, min_samples=scn.min_warm)

    out = {
        "setup_s": summarize(column(setups, 0)),
        "pack_s": summarize(column(setups, 1)),
        "cold_s": summarize(column(colds, 0)),
        "warm_step_s": summarize(column(warms, 0)),
        "reference_step_s": summarize(column(warms, 1)),
        "reference_pack_s": summarize(column(setups, 2)),
        # Each ratio is taken per sample, against the reference timed right
        # after that sample, and only then summarised: the host drifts
        # between a fast and a slow state within a run, and both sides of a
        # per-sample ratio see the same state.
        "pack_vs_scipy_ratio": _ratios(setups, 1, 2),
        "cold_vs_scipy_ratio": _ratios(colds, 0, 1),
        "vs_scipy_ratio": _ratios(warms, 0, 1),
    }
    out["sim"] = scn.sim(last) if last else {}
    return out


# --------------------------------------------------------------------------- #
# traced pass -> per-layer metrics
# --------------------------------------------------------------------------- #
def _as_list(x) -> list:
    return list(x) if isinstance(x, (list, tuple)) else [x]


class _Warm:
    """The hot state the side loops probe: per unit, the built statement, its
    schedule(s), the post-pipeline schedule(s) and the compiled kernel(s)."""

    def __init__(self, scn: Scenario):
        self.units = scn.units
        self.targets = [u.build() for u in self.units]
        self.scheds = [u.schedule(t) for u, t in zip(self.units, self.targets)]
        self.final = [
            pipeline_plan(_as_list(s), u.session.machine).schedules
            for u, s in zip(self.units, self.scheds)
        ]
        self.kernels = [u.compile(s) for u, s in zip(self.units, self.scheds)]

    def generated(self):
        """(unit, kernel) pairs that run a generated (codegen) leaf."""
        return [(u, ck) for u, cks in zip(self.units, self.kernels)
                for ck in cks if codegen.supported(ck)]


def _probe(fn: Callable[[], None], div: int, budget_s: float,
           min_samples: int = 10) -> Dict[str, float]:
    def sample():
        t0 = now()
        fn()
        return ((now() - t0) / div,)

    return summarize(column(
        run_blocks(sample, budget_s=budget_s, min_samples=min_samples), 0))


_PARTS = ("step", "reference", "reset", "generated", "spadd", "nonzeros",
          "account", "leaf")


def _execute_probe(scn: Scenario, w: _Warm, chk: verify.Checker,
                   budget_s: float) -> Dict[str, Any]:
    """A warm step taken apart, every part timed within one sample.

    One sample: a front-door step and a reference step; then per unit
    ``reset_residency`` and every kernel with ``fresh_trial=False`` in program
    order (the chain the front-door step just replayed), then accounting;
    then each generated leaf, bound once through ``codegen.leaf_for``, called
    once per piece.  The derived shares and differences are formed per sample
    and summarised afterwards, so the host's drift between its fast and slow
    state cannot pull a part and its whole apart.
    """
    div = scn.divisor
    bound = [(codegen.leaf_for(ck), ck.pieces) for _, ck in w.generated()]
    work = [0.0, 0.0]

    def sample():
        t0 = now()
        ok, _ = chk.attempt("warm", scn.frontdoor)
        step = now() - t0
        if not ok:
            return None
        t0 = now()
        scn.references(0)
        reference = now() - t0
        reset = generated = spadd = nonzeros = account = 0.0
        for u, cks in zip(w.units, w.kernels):
            rt = u.session.runtime
            t0 = now()
            rt.reset_residency()
            reset += now() - t0
            for ck in cks:
                t0 = now()
                res = ck.execute(rt, fresh_trial=False)
                dt = now() - t0
                if ck.kind == "spadd":
                    spadd += dt
                else:
                    generated += dt
                    if ck.strategy == "nonzeros":
                        nonzeros += dt
                t0 = now()
                res.metrics.simulated_seconds(rt.network)
                account += now() - t0
        t0 = now()
        works = [leaf(p) for leaf, pieces in bound for p in pieces]
        leaf_s = now() - t0
        work[:] = sum(wk.flops for wk in works), sum(wk.bytes for wk in works)
        return tuple(x / div for x in (
            step, reference, reset, generated, spadd, nonzeros, account, leaf_s))

    blocks = run_blocks(sample, budget_s=budget_s, min_samples=10)
    rows = [[dict(zip(_PARTS, s)) for s in b] for b in blocks]

    def derived(fn: Callable[[Dict[str, float]], float]) -> float:
        return summarize([[fn(r) for r in b] for b in rows])["median"]

    out: Dict[str, Any] = {
        n: summarize(column(blocks, k)) for k, n in enumerate(_PARTS)}
    out["leaf_share"] = derived(lambda r: r["leaf"] / r["step"])
    out["leaf_vs_scipy_ratio"] = derived(lambda r: r["leaf"] / r["reference"])
    out["launch_overhead"] = derived(lambda r: r["generated"] - r["leaf"])
    out["frontdoor_overhead"] = derived(
        lambda r: r["step"] - r["reset"] - r["generated"] - r["spadd"])
    out["nonzeros_and_assembly_share"] = derived(
        lambda r: (r["spadd"] + r["nonzeros"]) / r["step"])
    out["flops"], out["bytes"] = (x / div for x in work)
    out["pieces"] = sum(len(p) for _, p in bound) / div
    return out


def _compile_probes(scn: Scenario, chk, budget_s: float) -> Dict[str, Any]:
    """On cold caches: ``compile_kernel(use_cache=False)``, then ``leaf_for``
    on a cold AOT cache (lower + exec-load + bind) and again (bind only)."""
    div = scn.divisor

    def sample():
        def op():
            miss = cold = rebind = 0.0
            for u in scn.units:
                clear_caches()
                sched = u.schedule(u.build())
                machine = u.session.machine
                final = pipeline_plan(_as_list(sched), machine).schedules
                t0 = now()
                for s in final:
                    repro.compile_kernel(s, machine, use_cache=False)
                miss += now() - t0
                cks = [ck for ck in u.compile(sched) if codegen.supported(ck)]
                t0 = now()
                for ck in cks:
                    codegen.leaf_for(ck)
                t1 = now()
                for ck in cks:
                    codegen.leaf_for(ck)
                cold += t1 - t0
                rebind += now() - t1
            return miss / div, cold / div, rebind / div

        ok, val = chk.attempt("compile_probe", op)
        return val if ok else None

    blocks = run_blocks(sample, budget_s=budget_s, min_samples=5)
    names = ("compile_miss", "bind_cold", "rebind")
    return {n: summarize(column(blocks, k)) for k, n in enumerate(names)}


def _tier_probes(scn: Scenario, w: _Warm, budget_s: float) -> Dict[str, Any]:
    """The interpreter tier and the cost model, on kernels compiled outside
    the cache so the hot cached kernels keep their leaves and traces."""
    div = scn.divisor
    interp, fresh = [], []
    for u, finals in zip(w.units, w.final):
        machine = u.session.machine
        for s in finals:
            ck = repro.compile_kernel(s, machine, use_cache=False)
            fresh.append((u, ck))
            if codegen.supported(ck):
                cki = repro.compile_kernel(
                    s, machine, use_cache=False, backend="interp")
                rt = Runtime(machine, u.session.runtime.network)
                cki.execute(rt)  # cold: placement + trace record
                interp.append((cki, rt))

    def interp_step():
        for cki, rt in interp:
            cki.execute(rt)

    out = {"interp": _probe(interp_step, div, budget_s)}
    predicted = measured = 0.0
    for u, ck in fresh:
        network = u.session.runtime.network
        predicted += predict_cost(ck, network=network).seconds
        measured += ck.execute(Runtime(u.session.machine, network)).simulated_seconds
    out["residual"] = abs(predicted - measured) / measured if measured else 0.0
    return out


#: The ledger sequence: one cold sweep, then this many warm steps.  Its
#: length is fixed (not timed), so every counter read over it is exact.
LEDGER_WARM_STEPS = 10


def _ledger(scn: Scenario, chk: verify.Checker) -> Dict[str, float]:
    """Counters over the ledger sequence: codegen lifecycle, cache hit ratios
    and evictions (``cache_stats`` deltas), mapping-trace hit ratio."""
    codegen.reset_codegen_stats()
    cache0 = cache_stats()

    def sequence():
        _cold_sweep(scn)  # fresh runtimes: their trace counters start at 0
        for _ in range(LEDGER_WARM_STEPS):
            scn.frontdoor()

    chk.attempt("ledger", sequence)
    cache1 = cache_stats()
    stats = codegen.codegen_stats()
    out = {"codegen." + k: stats[k] / scn.divisor
           for k in ("lowered", "loaded", "binds", "fallbacks")}
    for name in ("kernel", "partition", "aot"):
        out[f"core.cache.{name}_hit_ratio"] = _ratio(
            cache1[name + "_hits"] - cache0[name + "_hits"],
            cache1[name + "_misses"] - cache0[name + "_misses"])
    out["core.cache.evictions"] = sum(
        cache1[k] - cache0[k] for k in cache1 if k.endswith("_evictions"))
    rts = [s.runtime.stats() for s in scn.sessions.values()]
    out["legion.runtime.trace_hit_ratio"] = _ratio(
        sum(r["trace_hits"] for r in rts), sum(r["trace_records"] for r in rts))
    return out


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(scn: Scenario, seconds: float, chk: verify.Checker,
              rec: Recorder, workdir: Path) -> Dict[str, Any]:
    phases = [p for p in LAYER_WEIGHTS if getattr(scn, "has_" + p, True)]
    total_w = sum(LAYER_WEIGHTS[p] for p in phases)
    budget = {p: seconds * LAYER_WEIGHTS[p] / total_w for p in phases}
    rot = itertools.count()
    div = scn.divisor
    m: Dict[str, Any] = {}

    # -- set-up, as spans -------------------------------------------------------
    mark = len(rec.spans)
    setups = _setup_blocks(scn, chk, rot, budget["setup"], 3, rec)
    spans = self_times(rec.spans[mark:])
    m["trace.setup_s"] = summarize(column(setups, 0))
    m["pack_s"] = m["taco.tensor.pack_s"] = summarize(column(setups, 1))
    m["taco.tensor.pack_vs_scipy_ratio"] = _ratios(setups, 1, 2)
    n_setups = max(m["trace.setup_s"]["n"], 1)
    m["taco.tensor.pack_ns_per_nnz"] = (
        m["taco.tensor.pack_s"]["median"] / max(scn.nnz, 1) * 1e9)
    m["taco.tensor.from_dense_s"] = spans["pack_dense"]["total_s"] / n_setups
    m["api.session.open_s"] = spans["open"]["total_s"] / n_setups

    # -- persistent store (before any later clear_caches: companions are
    #    exported only while their kernel-cache entries are alive) -------------
    if "store" in budget:
        m.update(_store_phase(scn, chk, workdir, budget["store"]))

    # -- cold start, as spans ---------------------------------------------------
    mark = len(rec.spans)

    def cold():
        k = next(rot)
        scn.rotate(k)

        def op():
            t0 = now()
            with rec.span("cold", rotation=k):
                for u in scn.units:
                    with rec.span("clear_caches"):
                        clear_caches()
                    with rec.span("open"):
                        scn.reopen(u.machine_key)
                    u.staged(rec)
            return ((now() - t0) / div,)

        return _checked(chk, "cold", scn, k, op)

    colds = run_blocks(cold, budget_s=budget["cold"], min_samples=5)
    spans = self_times(rec.spans[mark:])
    n_cold = max(sum(len(b) for b in colds), 1) * div
    m["cold_s"] = summarize(column(colds, 0))
    m["core.compiler.first_execute_s"] = spans["execute"]["total_s"] / n_cold
    m["trace.cold_compile_execute_share"] = (
        (spans["compile"]["total_s"] + spans["execute"]["total_s"])
        / spans["cold"]["total_s"])
    m.update(_ledger(scn, chk))
    probes = _compile_probes(scn, chk, budget["compile_probes"])
    m["core.compiler.compile_miss_s"] = probes["compile_miss"]
    m["codegen.bind_cold_s"] = probes["bind_cold"]
    m["codegen.rebind_s"] = probes["rebind"]

    # -- warm loop: every sample is one untraced step then one traced step, so
    #    host drift lands on both sides of trace.overhead_ratio alike ----------
    _rewarm(scn, chk)
    mark = len(rec.spans)
    last: List[Any] = []

    def traced_step():
        with rec.span("step"):
            return scn.staged(rec)

    def warm():
        plain = _warm_sample(scn, chk, next(rot), scn.frontdoor, last)
        traced = _warm_sample(scn, chk, next(rot), traced_step, last)
        if plain is None or traced is None:
            return None
        return plain[0], traced[0], plain[1], traced[1]

    warms = run_blocks(
        warm, budget_s=budget["warm"], min_samples=max(5, scn.min_warm // 4))
    m["warm_step_s"] = summarize(column(warms, 0))
    m["trace.traced_step_s"] = summarize(column(warms, 1))
    m["trace.reference_step_s"] = summarize(
        [[(s[2] + s[3]) / 2 for s in b] for b in warms])
    warm_s = m["warm_step_s"]["median"]
    m["trace.overhead_ratio"] = _ratios(warms, 1, 0)
    step_spans = self_times(rec.spans[mark:])
    n_steps = max(step_spans["step"]["count"], 1) * div
    for name in ("stmt_build", "schedule", "compile", "execute"):
        m[f"trace.step.{name}_s"] = step_spans[name]["total_s"] / n_steps

    # -- simulated clock of the last warm step ----------------------------------
    m.update(scn.sim(last))
    steps = scn.step_metrics(last)
    network = scn._session().runtime.network
    per_proc: Dict[int, float] = {}
    for s in steps:
        for proc, sec in s.compute_seconds.items():
            per_proc[proc] = per_proc.get(proc, 0.0) + sec
    sdiv = scn.sim_divisor
    m["legion.metrics.sim_compute_s"] = sum(s.max_compute() for s in steps) / sdiv
    m["legion.metrics.sim_comm_s"] = sum(
        max(s.comm_seconds_per_proc(network).values(), default=0.0)
        for s in steps) / sdiv
    m["legion.metrics.sim_imbalance"] = (
        max(per_proc.values()) / (sum(per_proc.values()) / len(per_proc))
        if per_proc and sum(per_proc.values()) else 1.0)
    m["legion.metrics.comm_events"] = sum(len(s.comm_events) for s in steps) / div
    m["legion.runtime.launches"] = len(steps) / div
    m["legion.runtime.pieces"] = sum(s.tasks_launched for s in steps) / div

    # -- side loops over the hot state --------------------------------------------
    w = _Warm(scn)
    flat_final = [(u.session.machine, s)
                  for u, finals in zip(w.units, w.final) for s in finals]
    flat_kernels = [ck for cks in w.kernels for ck in cks]
    side = {
        "taco.expr.stmt_build_s": lambda: [u.build() for u in w.units],
        "api.autoschedule.schedule_s":
            lambda: [u.schedule(t) for u, t in zip(w.units, w.targets)],
        "api.session.compile_hit_s":
            lambda: [u.compile(s) for u, s in zip(w.units, w.scheds)],
        "core.cache.fingerprint_s":
            lambda: [kernel_fingerprint(s, mach) for mach, s in flat_final],
        "core.compiler.classify_s":
            lambda: [classify(s.assignment) for _, s in flat_final],
        "core.passes.pipeline_s":
            lambda: [pipeline_plan(_as_list(s), u.session.machine)
                     for u, s in zip(w.units, w.scheds)],
        "analysis.commplan.predict_s":
            lambda: [predict_metrics(ck) for ck in flat_kernels],
        "analysis.hazards.analyze_s":
            lambda: [analyze_program(_as_list(s), u.session.machine)
                     for u, s in zip(w.units, w.scheds)],
        "analysis.sanitizer.verify_s":
            lambda: [verify_aot_source(e.source) for _, e in iter_aot_entries()],
    }
    if scn.einsum_spec is not None:
        spec, names = scn.einsum_spec
        # a session of its own: the probe's kernel must not add placements
        # to the runtime the other probes measure
        s0 = repro.session(**scn.machines["m"])
        operands = [scn.t[n] if n not in scn.dense_keys else scn.inputs[n][0]
                    for n in names]
        repro.einsum(spec, *operands, session=s0)  # first call packs + compiles
        side["api.einsum.repeat_call_s"] = (
            lambda: repro.einsum(spec, *operands, session=s0))
    each = budget["probes"] / (len(side) + 4)
    ex = _execute_probe(scn, w, chk, 4 * each)
    for name, fn in side.items():
        d = 1 if name == "api.einsum.repeat_call_s" else div
        m[name] = _probe(fn, d, each)
    m["legion.runtime.reset_residency_s"] = ex["reset"]
    m["legion.metrics.account_s"] = ex["account"]
    m["core.assembly.spadd_step_s"] = ex["spadd"]
    m["kernels.nonzeros_step_s"] = ex["nonzeros"]
    m["codegen.leaf_sweep_s"] = ex["leaf"]
    m["codegen.leaf_share"] = ex["leaf_share"]
    m["legion.runtime.launch_overhead_s"] = ex["launch_overhead"]
    m["legion.runtime.launch_overhead_per_piece_s"] = (
        ex["launch_overhead"] / ex["pieces"] if ex["pieces"] else 0.0)
    m["api.session.frontdoor_overhead_s"] = ex["frontdoor_overhead"]
    m["trace.nonzeros_and_assembly_share"] = ex["nonzeros_and_assembly_share"]
    m["kernels.flops"], m["kernels.bytes"] = ex["flops"], ex["bytes"]
    m["kernels.flops_per_byte"] = ex["flops"] / ex["bytes"] if ex["bytes"] else 0.0
    m["kernels.leaf_vs_scipy_ratio"] = ex["leaf_vs_scipy_ratio"]
    m["codegen.aot_source_bytes"] = sum(
        len(e.source) for _, e in iter_aot_entries())
    m["core.compiler.plan_stmts"] = sum(len(ck.plan) for ck in flat_kernels) / div
    fired: Dict[str, int] = {"fold": 0, "dse": 0, "fuse": 0, "cse": 0}
    for u, s in zip(w.units, w.scheds):
        for record in u.session.compile(*_as_list(s)).passes:
            fired[record.name] += bool(record.fired)
    m.update({f"core.passes.fired.{k}": v for k, v in fired.items()})

    tiers = _tier_probes(scn, w, budget["tiers"])
    m["kernels.interp_step_s"] = tiers["interp"]
    m["analysis.costmodel.residual"] = tiers["residual"]

    if "serving" in budget:
        m.update(_serving_phase(scn, chk, budget["serving"], warm_s))
    return m


# --------------------------------------------------------------------------- #
# workload-specific phases
# --------------------------------------------------------------------------- #
def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _store_phase(scn: Scenario, chk, workdir: Path, budget_s: float) -> Dict[str, Any]:
    """save_packed once, then warm starts: clear_caches -> load_packed ->
    compile (cache hit) -> first execute (trace replay)."""
    unit = scn.units[0]
    k = 0
    scn.rotate(k)
    unit.frontdoor()
    path = workdir / "artifact"
    t0 = now()
    save_packed(path, scn.t["B"], runtime=unit.session.runtime)
    out: Dict[str, Any] = {"core.store.save_s": now() - t0,
                           "artifact_bytes": _tree_bytes(path)}
    (expected,) = scn.references(k)[0]
    ref = unit.outputs[0][1]

    def warmstart(mmap: bool):
        def sample():
            clear_caches()

            def op():
                t0 = now()
                art = load_packed(path, mmap=mmap)
                t1 = now()
                a = art.companions["a"]
                i, j = index_vars("i j")
                a[i] = art.tensor[i, j] * art.companions["x"][j]
                repro.session(runtime=art.runtime()).execute(a)
                return (now() - t0, t1 - t0), a

            ok, val = chk.attempt("warmstart", op)
            if not ok:
                return None
            times, a = val
            chk.expect("warmstart", ref.matches(a, expected))
            return times

        return run_blocks(sample, budget_s=budget_s / 2, min_samples=5)

    eager, mapped = warmstart(False), warmstart(True)
    out["warmstart_s"] = summarize(column(eager, 0))
    out["core.store.load_s"] = summarize(column(eager, 1))
    out["core.store.warmstart_mmap_s"] = summarize(column(mapped, 0))
    out["core.store.load_mmap_s"] = summarize(column(mapped, 1))
    return out


def _serving_phase(scn: Scenario, chk, budget_s: float, direct_s: float) -> Dict[str, Any]:
    """The workload's three statements through ``repro.serve``: one
    closed-loop client on one worker, then (ungated) two clients on two."""
    raw, dense, refs = scn.inputs, scn.dense_keys, scn.refs
    requests = [
        ("ij,j->i", ("B", "x"), None, refs["spmv"]),
        ("ik,kj->ij", ("B", "C"), None, refs["spmm"]),
        ("ij,ik,kj->ij", ("B", "C", "D"), repro.CSR, refs["sddmm"]),
    ]

    def open_server(workers: int):
        srv = repro.serve(nodes=scn.machines["m"]["nodes"], workers=workers)
        cat = {"B": srv.put_tensor("B", raw["B"], repro.CSR)}
        for key in dense:
            cat[key] = srv.put_tensor(key, raw[key][0])
        return srv, cat

    def rotation(srv, tenant: str):
        """One closed-loop rotation: three requests, each awaited."""
        values = []
        t0 = now()
        for spec, names, fmt, _ in requests:
            values.append(srv.submit(
                spec, *names, tenant=tenant, out_format=fmt).result().value)
        return now() - t0, values

    out: Dict[str, Any] = {}
    rot = itertools.count()
    srv, cat = open_server(1)
    with srv:
        rotation(srv, "warmup")

        def sample():
            k = next(rot)
            for key in dense:
                cat[key].vals.data[...] = raw[key][k % len(raw[key])]
            ok, val = chk.attempt("serve", lambda: rotation(srv, "client"))
            if not ok:
                return None
            dt, values = val
            chk.expect("serve", all(
                ref.copy_matches(v, ref.compute(k))
                for v, (_, _, _, ref) in zip(values, requests)))
            return (dt / len(requests),)

        blocks = run_blocks(sample, budget_s=0.8 * budget_s, min_samples=50)
        stats = srv.stats()
    lat = summarize(column(blocks, 0))
    out["serve_p50_s"] = lat
    out["api.serving.p99_s"] = float(np.percentile(
        [s[0] for b in blocks for s in b], 99))
    out["api.serving.request_overhead_s"] = lat["median"] - direct_s
    out["api.serving.compiles"] = stats["compiles"]
    out["api.serving.rejected"] = sum(
        t["rejected"] for t in stats["tenants"].values())

    # Two clients on two workers.  Bimodal on a 2-core host (the clients and
    # workers share the cores), so it is reported and never gated.
    srv, cat = open_server(2)
    done = [0, 0]
    with srv:
        rotation(srv, "warmup")
        t_end = now() + 0.2 * budget_s

        def client(idx: int):
            while now() < t_end:
                rotation(srv, f"client{idx}")
                done[idx] += len(requests)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        t0 = now()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=budget_s + 30)
        wall = now() - t0
        hung = any(t.is_alive() for t in threads)
    chk.attempted += 1
    chk.expect("serve_2x2 finished", not hung)
    out["api.serving.rps_2x2"] = sum(done) / wall
    return out
