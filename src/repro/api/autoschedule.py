"""Schedule synthesis: the paper's canonical mappings, derived automatically.

SpDISTAL keeps computation, data layout and mapping independent; the paper's
experiments nevertheless use a small family of canonical schedules (§VI-A):
row-based ``divide → distribute → communicate → parallelize`` over the
output's first dimension, and the non-zero-based ``fuse → pos → divide →
distribute → communicate`` split of the sparse operand for skew-sensitive
kernels.  This module synthesizes exactly those schedules from what the
user already declared — the statement, the tensor formats, and the machine
grid — so an explicit ``.schedule()`` becomes an *override* instead of a
prerequisite.

Synthesis rules (see ``docs/api.md`` for the user-facing table):

* The statement is classified (:func:`repro.core.kernelspec.classify`)
  and its entry in the kernel table names the legal strategies and the
  default for the machine's processor kind — the paper's choices (§VI-A):
  SDDMM, and the fused SDDMM→SpMM that inherits its split, always
  distribute non-zeros (statically load balanced); SpMM, SpTTV and
  SpMTTKRP distribute non-zeros on GPU machines and rows on CPU machines;
  SpMV, SpAdd and the generic fallback distribute rows everywhere.
* **rows**: the output's first index variable is divided into
  ``machine.size`` pieces, the outer piece loop is distributed, every
  tensor in the statement is communicated at it, and the inner loop is
  parallelized (CPU threads on CPU machines, GPU threads on GPU machines).
* **nonzeros**: the sparse operand's index variables are brought outermost
  (in its storage order), fused pairwise into one loop, switched to the
  operand's position space, divided into ``machine.size`` pieces,
  distributed, and every tensor is communicated at the piece loop.

The synthesized schedule is bit-identical in effect to the paper's
hand-written schedules — values *and* simulated metrics match for every
kernel × strategy the evaluation runs, on CPU and GPU machines (the
reference table in ``tests/api/test_autoschedule.py``).  The figure
runner :func:`repro.bench.spdistal_run` schedules through this module.
"""
from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

from ..core.kernelspec import SPECS, classify
from ..errors import ScheduleError
from ..legion.machine import Machine, ProcKind
from ..taco.expr import Access, Assignment
from ..taco.index_vars import IndexVar
from ..taco.schedule import CPUThread, GPUThread, ParallelUnit, Schedule
from ..taco.tensor import Tensor

__all__ = ["auto_schedule", "auto_strategy", "candidate_strategies"]

def _as_assignment(target: Union[Assignment, Tensor]) -> Assignment:
    if isinstance(target, Assignment):
        return target
    if isinstance(target, Tensor):
        if target.assignment is None:
            raise ScheduleError(
                f"no statement assigned to {target.name}; write "
                f"``{target.name}[i, ...] = ...`` first"
            )
        return target.assignment
    raise TypeError(
        f"auto_schedule needs an Assignment or a Tensor with one, "
        f"got {type(target).__name__}"
    )


def _sparse_access(asg: Assignment) -> Optional[Access]:
    """The compressed operand to position-split: the only one, else the
    kind's ``B`` role when that is compressed, else None."""
    candidates = [
        a for a in asg.rhs.accesses() if a.tensor.format.has_compressed()
    ]
    if len(candidates) == 1:
        return candidates[0]  # a compressed ``B`` role could only be it
    b = classify(asg).roles.get("B")
    return b if b is not None and b.tensor.format.has_compressed() else None


def auto_strategy(asg: Assignment, machine: Machine) -> str:
    """The synthesized distribution strategy: ``"rows"`` or ``"nonzeros"``."""
    return SPECS[classify(asg).kind].default_strategy(machine.kind)


def _square_grid(machine: Machine, pieces: Optional[int]) -> Optional[Tuple[int, int]]:
    """The ``(gx, gy)`` factors of the 2-D grid strategy, or None.

    A machine declared as a 2-D grid keeps its declared factors; a 1-D
    machine (or an explicit ``pieces=``) must be a perfect square — the
    paper's square node grids.
    """
    if pieces is None and machine.grid.ndim == 2:
        return machine.grid.dims[0], machine.grid.dims[1]
    n = int(pieces) if pieces is not None else machine.size
    g = math.isqrt(n)
    return (g, g) if g * g == n and g >= 1 else None


def candidate_strategies(
    asg: Assignment, machine: Machine, *, pieces: Optional[int] = None
) -> List[str]:
    """The ordered strategy pool ``Session.autotune`` searches.

    The paper's default for this kind/machine comes first — the tuner keeps
    the incumbent on ties, so when two mappings are indistinguishable under
    the cost model the canonical hand-written choice survives.  The kind's
    other legal strategies follow: the other of rows/non-zeros, and the
    2-D ``grid`` on square machine grids.
    """
    spec = SPECS[classify(asg).kind]
    default = spec.default_strategy(machine.kind)
    out = [default] + [
        s for s in ("nonzeros", "rows") if s != default and s in spec.strategies
    ]
    if (
        "grid" in spec.strategies
        and machine.size > 1
        and _square_grid(machine, pieces) is not None
    ):
        out.append("grid")
    return out


def auto_schedule(
    target: Union[Assignment, Tensor],
    machine: Optional[Machine] = None,
    *,
    pieces: Optional[int] = None,
    strategy: Optional[str] = None,
) -> Schedule:
    """Synthesize the canonical distributed schedule for a statement.

    ``target`` is an :class:`~repro.taco.expr.Assignment` or a tensor that
    was just assigned (``a[i] = B[i, j] * c[j]``).  ``pieces`` defaults to
    the machine's grid size; ``strategy`` (``"rows"``/``"nonzeros"``/
    ``"grid"``) overrides the kind/machine-derived choice.  Statements with
    no index variables come back unscheduled (single-piece execution).

    Synthesis is deferred: the returned schedule builds its loops and
    relations (with :func:`_rows_schedule`, :func:`_nonzeros_schedule` or
    :func:`_grid_schedule`) when a caller first reads them, and until a
    builder call edits it, it carries a ``synthesis_key`` — the resolved
    strategy, the piece count or grid dims and, for rows and grid, the
    parallel unit — which the kernel cache keys it by instead of walking
    its relations.  A warm compile of a synthesized schedule is therefore
    a statement key and one kernel-cache lookup; a hand-built schedule of
    the same structure is keyed by its structure and compiles its own
    kernel.  Legality is decided here, eagerly: an unknown strategy, an
    illegal ``grid`` and an explicit ``nonzeros`` with nothing to
    position-split raise :class:`~repro.errors.ScheduleError` from this
    call.
    """
    asg = _as_assignment(target)
    if machine is None:
        machine = Machine.cpu(1)
    if not (asg.lhs.indices or asg.rhs.index_vars()):
        return Schedule(asg)
    npieces = int(pieces) if pieces is not None else machine.size
    explicit = strategy is not None
    if strategy is None:
        strategy = auto_strategy(asg, machine)
    if strategy not in ("rows", "nonzeros", "grid"):
        raise ScheduleError(
            f"unknown auto-schedule strategy {strategy!r} "
            "(expected 'rows', 'nonzeros' or 'grid')"
        )
    unit = _parallel_unit(machine)
    if strategy == "grid":
        spec = SPECS[classify(asg).kind]
        if "grid" not in spec.strategies:
            raise ScheduleError(
                f"strategy='grid' is not legal for {spec.kind!r} statements "
                f"(legal: {', '.join(spec.strategies)})"
            )
        dims = _square_grid(machine, pieces)
        if dims is None:
            raise ScheduleError(
                f"strategy='grid' needs a square piece count; "
                f"{npieces} pieces cannot form a 2-D grid"
            )
        if len(asg.lhs.indices) < 2:
            raise ScheduleError(
                "strategy='grid' needs a 2-D output to tile; "
                f"{asg.lhs.tensor.name} has {len(asg.lhs.indices)} index "
                "variable(s)"
            )
        gx, gy = dims
        return Schedule.synthesized(
            asg, ("grid", gx, gy, unit.value),
            lambda s: _grid_schedule(s, asg, unit, gx, gy))
    if strategy == "nonzeros":
        split = _sparse_access(asg)
        if split is None:
            # An explicitly requested non-zero split that cannot be built
            # must fail loudly — silently running rows would let strategy
            # comparisons report identical numbers for both.  The
            # auto-derived path only picks "nonzeros" for kinds classified
            # around a single sparse operand, so this fallback is defensive.
            if explicit:
                raise ScheduleError(
                    "strategy='nonzeros' needs exactly one compressed "
                    "operand to position-split; this statement has none"
                )
            strategy = "rows"
    if strategy == "rows":
        return Schedule.synthesized(
            asg, ("rows", npieces, unit.value),
            lambda s: _rows_schedule(s, asg, unit, npieces))
    return Schedule.synthesized(
        asg, ("nonzeros", npieces),
        lambda s: _nonzeros_schedule(s, asg, npieces, split))


def _parallel_unit(machine: Machine) -> ParallelUnit:
    return GPUThread if machine.kind == ProcKind.GPU else CPUThread


def _rows_schedule(
    sched: Schedule, asg: Assignment, unit: ParallelUnit, npieces: int
) -> Schedule:
    """divide → distribute → communicate → parallelize over the output's
    first dimension (the paper's row-based mapping)."""
    d = asg.lhs.indices[0] if asg.lhs.indices else asg.index_vars()[0]
    outer = IndexVar(f"{d.name}o")
    inner = IndexVar(f"{d.name}i")
    sched.divide(d, outer, inner, npieces).distribute(outer)
    sched.communicate(asg.tensors(), outer)
    sched.parallelize(inner, unit)
    return sched


def _grid_schedule(
    sched: Schedule, asg: Assignment, unit: ParallelUnit, gx: int, gy: int
) -> Schedule:
    """divide × divide → distribute over a 2-D processor grid.

    The output's first dimension (rows of the sparse operand) is divided
    into ``gx`` pieces and its second (the dense right-hand columns) into
    ``gy``; the cross product of piece loops is distributed, so each
    processor owns one (row-chunk × column-chunk) tile.  Compared to the
    1-D row split, this halves (at a 2×2 grid) both the widest piece's
    compute and the dense operand volume each piece keeps resident — the
    shape that wins when row skew concentrates non-zeros in few chunks.
    The output has two index variables (:func:`auto_schedule` checks).
    """
    i, j = asg.lhs.indices[0], asg.lhs.indices[1]
    io, ii = IndexVar(f"{i.name}o"), IndexVar(f"{i.name}i")
    jo, ji = IndexVar(f"{j.name}o"), IndexVar(f"{j.name}i")
    sched.divide(i, io, ii, gx).divide(j, jo, ji, gy)
    sched.distribute([io, jo])
    sched.communicate(asg.tensors(), io)
    sched.parallelize(ii, unit)
    return sched


def _nonzeros_schedule(
    sched: Schedule,
    asg: Assignment,
    npieces: int,
    split: Access,
) -> Schedule:
    """fuse → pos → divide → distribute → communicate over the sparse
    operand's non-zeros (the paper's statically load-balanced mapping)."""
    bvars: List[IndexVar] = list(split.indices)
    others = [v for v in sched.loop_order if v not in bvars]
    target = bvars + others
    if target != sched.loop_order:
        sched.reorder(*target)
    fused = bvars[0]
    for k, nxt in enumerate(bvars[1:], start=1):
        f = IndexVar(f"f{k}")
        sched.fuse(fused, nxt, f)
        fused = f
    fp = IndexVar("fp")
    fo = IndexVar("fo")
    fi = IndexVar("fi")
    sched.pos(fused, fp, split).divide(fp, fo, fi, npieces).distribute(fo)
    sched.communicate(asg.tensors(), fo)
    return sched
