"""Codegen-vs-interpreter differential oracle: exact values, exact metrics.

The AOT codegen backend claims it changes *how* leaves compute, never
*what* the distributed schedule does.  That reduces to two checkable
properties per kernel × format × strategy × machine kind: the output
tensor must match the interpreter leaf with **exact float64 equality**
(same accumulation primitives, same order), and the simulated Legion
metrics — per-step task counts, per-processor compute seconds, and every
communication event — must be **bit-identical** (codegen leaves return
the same frozen :class:`~repro.legion.machine.Work` costs).

Workloads are rebuilt from the same seed per backend (fresh tensors, same
values) so neither run can warm the other's caches.  A fixed-seed smoke
slice runs unmarked in the fast tier-1 loop; the full sweep carries the
``codegen`` and ``slow`` markers (``pytest -m codegen``), and so does the
sweep of one-call launches against their per-piece launches, over
operands laid out so that the pieces cut what one call reduces.
"""
import numpy as np
import pytest

from repro.api.autoschedule import auto_schedule
from repro.codegen import codegen_stats, reset_codegen_stats
from repro.core import SPECS, clear_caches, compile_kernel
from repro.legion import Machine, Runtime
from test_differential import LAYOUTS, _KIND_FORMATS, _STRATEGIES, _build
from test_leaf_hostile import (
    FLAVORS, MACHINES, ONE_CALL, _layouts, check_one_call_is_per_piece,
)

PIECES = 4

#: compute kernels with bound leaves (spadd3 never reaches the compute
#: leaf path — it runs the two-phase assembly pipeline).
_CODEGEN_KINDS = tuple(k for k in _KIND_FORMATS if k in SPECS and SPECS[k].bound)


def _metrics_signature(steps):
    """An exact, comparable rendering of every step an execution returned."""
    sig = []
    for step in steps:
        sig.append((
            step.name,
            step.tasks_launched,
            tuple(sorted(step.compute_seconds.items())),
            tuple((e.src_proc, e.dst_proc, e.nbytes, e.same_node, e.reason)
                  for e in step.comm_events),
        ))
    return tuple(sig)


def _run(kind, fmt, strategy, machine_kind, seed, backend, n, density):
    clear_caches()
    rng = np.random.default_rng(seed)
    out = _build(kind, fmt, rng, n, density)
    machine = (
        Machine.gpu(PIECES) if machine_kind == "gpu" else Machine.cpu(PIECES)
    )
    sched = auto_schedule(out, machine, strategy=strategy)
    ck = compile_kernel(sched, machine, backend=backend)
    steps = ck.execute(Runtime(machine)).metrics.steps
    return out.to_dense(), _metrics_signature(steps)


def _check(kind, fmt, strategy, machine_kind, seed, n=24, density=0.2,
           generated=True):
    ref, ref_sig = _run(kind, fmt, strategy, machine_kind, seed,
                        "interp", n, density)
    reset_codegen_stats()
    got, got_sig = _run(kind, fmt, strategy, machine_kind, seed,
                        "codegen", n, density)
    stats = codegen_stats()
    if generated:
        assert stats["binds"] >= 1, (
            f"{kind}/{fmt}/{strategy}: codegen fell back to the interpreter "
            f"(stats={stats}) — the comparison would be vacuous"
        )
    else:
        assert (stats["binds"], stats["fallbacks"]) == (0, 1), stats
    if not np.array_equal(ref, got):
        bad = np.argwhere(ref != got)
        head = [
            (tuple(int(x) for x in idx),
             float(got[tuple(idx)]), float(ref[tuple(idx)]))
            for idx in bad[:5]
        ]
        raise AssertionError(
            f"{kind}/{fmt}/{strategy}/{machine_kind} seed={seed}: "
            f"{len(bad)} entries differ between backends; first "
            f"(index, codegen, interp): {head}"
        )
    assert got_sig == ref_sig, (
        f"{kind}/{fmt}/{strategy}/{machine_kind} seed={seed}: simulated "
        f"metrics drifted between backends"
    )


@pytest.fixture(autouse=True)
def _fresh():
    clear_caches()
    reset_codegen_stats()
    yield
    clear_caches()
    reset_codegen_stats()


def _combos():
    for kind in _CODEGEN_KINDS:
        for fmt in _KIND_FORMATS[kind]:
            for strategy in _STRATEGIES[kind]:
                yield kind, fmt, strategy


def _case_id(c):
    return "-".join(str(x) for x in c)


# --------------------------------------------------------------------------- #
# tier-1 slice: one fixed seed, CPU machine, every supported combination
# --------------------------------------------------------------------------- #
SMOKE_CASES = [(k, f, s, "cpu", 4321) for k, f, s in _combos()]


@pytest.mark.parametrize("case", SMOKE_CASES, ids=_case_id)
def test_codegen_backend_smoke(case):
    kind, fmt, strategy, machine_kind, seed = case
    _check(kind, fmt, strategy, machine_kind, seed)


@pytest.mark.parametrize("layout", LAYOUTS, ids="-".join)
@pytest.mark.parametrize("machine_kind", ["cpu", "gpu"])
def test_unwalkable_layouts_fall_back_and_say_so(layout, machine_kind):
    """A stack or output layout no leaf serves runs the interpreter's
    generic engine under both backends — counted as a fallback, never
    bound to a leaf whose name merely matched."""
    _check(*layout, None, machine_kind, 4321, generated=False)


# --------------------------------------------------------------------------- #
# the full sweep: seeds x densities x machine kinds (markers: codegen, slow)
# --------------------------------------------------------------------------- #
SWEEP_SEEDS = (13, 202)
SWEEP_DENSITIES = (0.05, 0.35)
SWEEP_SIZES = (17, 24)  # odd size exercises uneven piece boundaries

SWEEP_CASES = [
    (k, f, s, mk, seed, n, d)
    for k, f, s in _combos()
    for mk in ("cpu", "gpu")
    for seed, n in zip(SWEEP_SEEDS, SWEEP_SIZES)
    for d in SWEEP_DENSITIES
]


@pytest.mark.codegen
@pytest.mark.slow
@pytest.mark.parametrize("case", SWEEP_CASES, ids=_case_id)
def test_codegen_backend_sweep(case):
    kind, fmt, strategy, machine_kind, seed, n, density = case
    _check(kind, fmt, strategy, machine_kind, seed, n=n, density=density)


#: every case whose one call cuts what it reduces or newly runs as one
#: (non-zero splits; the fused kind and SpMTTKRP by rows) x machine x
#: operand layout, the value flavors taken in turn (each case meets each
#: flavor on each machine)
ONE_CALL_SWEEP = [
    (case, machine, layout, FLAVORS[(m + k) % len(FLAVORS)], 21 + k)
    for case in ONE_CALL if case[2] == "nonzeros" or case[0] in ("fused", "spmttkrp")
    for m, machine in enumerate(MACHINES)
    for k, layout in enumerate(_layouts(4, case[0] in ("spttv", "spmttkrp")))
]


@pytest.mark.codegen
@pytest.mark.slow
@pytest.mark.parametrize("case,machine,layout,hostile,seed", ONE_CALL_SWEEP,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_one_call_is_per_piece_sweep(case, machine, layout, hostile, seed):
    """One call ≡ per piece ≡ the interpreter, bytes and steps (the
    hostile sweep; a slice runs unmarked in ``test_leaf_hostile.py``)."""
    check_one_call_is_per_piece(case, machine, layout, hostile, seed)

