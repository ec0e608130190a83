"""The ordered program pass pipeline: fold → DSE → fuse (CSE follows).

SpDISTAL schedules *whole sparse programs*; this module is the program-level
optimizer that runs between recording and per-statement compilation
(:func:`repro.core.program.compile_program`).  Passes run in a fixed,
introspectable order and every run reports what fired through
:class:`PassRecord` entries (surfaced by ``CompiledProgram.describe()`` and
``Program.analyze()``):

1. **fold** — copy/identity folding: after ``a(i, j) = b(i, j)``,
   downstream reads of ``a`` are forwarded to ``b`` (formats, shape and
   dtype must agree, so classification and schedule legality are
   preserved).  The copy statement itself still executes — every
   statement's output is observable through ``ProgramResult.outputs`` —
   but forwarding unlocks fusion and CSE across the copy.
2. **dse** — dead-*store* elimination: a statement whose output is
   overwritten by a later non-accumulating statement, with no intervening
   read of it, performs work no one can observe and is dropped.  Outputs
   that are read downstream, the program's final output, statements listed
   in ``keep``, and stores a *fingerprint-identical* later statement
   repeats (those collapse better under CSE) are never dropped.
3. **fuse** — SDDMM→SpMM kernel fusion (the SparseLNR-style loop-nest
   restructuring of the roadmap): a producer ``E(i,j) = B(i,j)·U(i,k)·
   V(k,j)`` feeding a single consumer ``H(i,l) = E(i,j)·F(j,l)`` becomes
   one statement ``H(i,l) = B(i,j)·U(i,k)·V(k,j)·F(j,l)`` carrying a
   synthetic :class:`~repro.core.kernelspec.KernelClass` of kind
   ``"fused_sddmm_spmm"`` — the intermediate sparse product ``E`` never
   materializes as a resident region, so the fused program communicates
   strictly fewer bytes and holds a strictly smaller peak footprint.

Fusion legality is derived from the hazard analyzer's privilege sets
(:mod:`repro.analysis.privileges`): the producer's output must be consumed
by exactly **one** statement, written by no other, aliased by neither
endpoint, and neither endpoint may accumulate; no statement between the
pair may write any operand the fused statement reads.  The fused statement
replaces the *consumer* (so intervening statements keep their position)
and the producer is removed.

Every pass can be disabled per compile (``compile_program(..., fold=False,
dse=False, fuse=False)``) and ``keep=`` pins tensors (objects or names)
whose producing statements must survive DSE and whose values must stay
materialized (blocking fusion through them).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..taco.expr import Access, Assignment, Mul
from ..taco.schedule import PosRel, Schedule
from . import cache as _cache

__all__ = ["PassRecord", "PipelinePlan", "pipeline_plan", "FUSED_SDDMM_SPMM"]

#: The kernel kind string a fused SDDMM→SpMM statement classifies as.
FUSED_SDDMM_SPMM = "fused_sddmm_spmm"


@dataclass(frozen=True)
class PassRecord:
    """What one pipeline pass did to one compiled program."""

    name: str  #: "fold" | "dse" | "fuse" | "cse"
    fired: bool
    #: source-statement indices the pass touched (original program order)
    statements: Tuple[int, ...] = ()
    detail: str = ""

    def describe(self) -> str:
        state = "fired" if self.fired else "no-op"
        where = f" @ statements {list(self.statements)}" if self.statements else ""
        tail = f" — {self.detail}" if self.detail else ""
        return f"pass {self.name}: {state}{where}{tail}"


@dataclass
class PipelinePlan:
    """The pipeline's outcome: transformed schedules plus provenance."""

    schedules: List[Schedule] = field(default_factory=list)
    records: List[PassRecord] = field(default_factory=list)
    #: per final statement, the original statement indices it came from
    origin: List[Tuple[int, ...]] = field(default_factory=list)


@dataclass
class _Entry:
    orig: Tuple[int, ...]
    schedule: Schedule


def _keep_sets(keep) -> Tuple[Set[int], Set[str]]:
    ids: Set[int] = set()
    names: Set[str] = set()
    for item in keep or ():
        if isinstance(item, str):
            names.add(item)
        else:
            ids.add(id(item))
            name = getattr(item, "name", None)
            if name is not None:
                names.add(name)
    return ids, names


def _kept(tensor, keep_ids: Set[int], keep_names: Set[str]) -> bool:
    return id(tensor) in keep_ids or tensor.name in keep_names


def _read_tensor_ids(asg: Assignment) -> Set[int]:
    out = {id(acc.tensor) for acc in asg.rhs.accesses()}
    if asg.accumulate:
        out.add(id(asg.lhs.tensor))
    return out


# --------------------------------------------------------------------------- #
# pass 1: copy/identity folding
# --------------------------------------------------------------------------- #
def _same_layout(a, b) -> bool:
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.format.signature == b.format.signature
    )


def _fold_copies(entries: List[_Entry]) -> PassRecord:
    touched: List[int] = []
    details: List[str] = []
    for idx, entry in enumerate(entries):
        asg = entry.schedule.assignment
        if asg.accumulate or not isinstance(asg.rhs, Access):
            continue
        a, rhs = asg.lhs.tensor, asg.rhs
        b = rhs.tensor
        if a is b or rhs.indices != asg.lhs.indices or not _same_layout(a, b):
            continue
        for j in range(idx + 1, len(entries)):
            later = entries[j].schedule.assignment
            if later.lhs.tensor is a or later.lhs.tensor is b:
                break  # a redefined, or b no longer holds the copied values
            if any(acc.tensor is a for acc in later.rhs.accesses()):
                entries[j] = _Entry(entries[j].orig, entries[j].schedule.forward_reads(a, b))
                touched.extend(entries[j].orig)
                details.append(
                    f"statement {entries[j].orig[0]} reads {b.name} "
                    f"instead of {a.name} (copy at statement {entry.orig[0]})"
                )
    return PassRecord(
        "fold",
        bool(touched),
        tuple(dict.fromkeys(touched)),
        "; ".join(details) if details else "no forwardable copies",
    )


# --------------------------------------------------------------------------- #
# pass 2: dead-store elimination
# --------------------------------------------------------------------------- #
def _dead_stores(
    entries: List[_Entry], machine, keep_ids: Set[int], keep_names: Set[str]
) -> PassRecord:
    fingerprints: List[Optional[Tuple]] = []
    for e in entries:
        try:
            fingerprints.append(_cache.kernel_fingerprint(e.schedule, machine))
        except _cache.Unfingerprintable:
            fingerprints.append(None)
    alive = [True] * len(entries)
    dropped: List[int] = []
    details: List[str] = []
    for i, entry in enumerate(entries):
        out = entry.schedule.assignment.lhs.tensor
        if _kept(out, keep_ids, keep_names):
            continue
        for j in range(i + 1, len(entries)):
            later = entries[j].schedule.assignment
            if id(out) in _read_tensor_ids(later):
                break  # read downstream: the store is observable
            if later.lhs.tensor is out and not later.accumulate:
                if (
                    fingerprints[i] is not None
                    and fingerprints[i] == fingerprints[j]
                ):
                    break  # identical repeat: CSE collapses it for free
                alive[i] = False
                dropped.extend(entry.orig)
                details.append(
                    f"statement {entry.orig[0]} ({out.name}) is overwritten "
                    f"by statement {entries[j].orig[0]} before any read"
                )
                break
    if not all(alive):
        entries[:] = [e for k, e in enumerate(entries) if alive[k]]
    return PassRecord(
        "dse",
        bool(dropped),
        tuple(dropped),
        "; ".join(details) if details else "no dead stores",
    )


# --------------------------------------------------------------------------- #
# pass 3: SDDMM→SpMM fusion
# --------------------------------------------------------------------------- #
def _is_csr(tensor) -> bool:
    fmt = tensor.format
    return (
        tensor.order == 2
        and not fmt.levels[0].is_compressed
        and fmt.levels[1].is_compressed
        and tuple(fmt.mode_ordering) == (0, 1)
    )


def _find_fusable_pair(entries: List[_Entry], keep_ids, keep_names):
    """One legal (producer, consumer, fused schedule ingredients) triple.

    Legality follows the hazard analyzer's privilege sets
    (:func:`repro.analysis.privileges.program_privileges`): exactly one
    consumer of the intermediate, no other writer, no aliasing at either
    endpoint, plain overwrite semantics on both, and no intervening write
    to any operand the fused statement reads.  A pair whose producer or
    consumer streams an operand (``Schedule.streamed``) stays unfused: the
    fused statement is auto-scheduled and would keep it resident.
    """
    from ..analysis.privileges import program_privileges
    from .kernelspec import classify

    privs = program_privileges([e.schedule for e in entries])
    for p, entry in enumerate(entries):
        asg_p = entry.schedule.assignment
        if privs[p].write_kind != "write" or privs[p].aliased_tensors():
            continue
        if entry.schedule.streamed():
            continue
        kc_p = classify(asg_p)
        if kc_p.kind != "sddmm":
            continue
        inter = asg_p.lhs.tensor  # the SDDMM's sparse product, E
        if _kept(inter, keep_ids, keep_names):
            continue
        B, C, D = kc_p.roles["B"], kc_p.roles["C"], kc_p.roles["D"]
        if not _is_csr(B.tensor):
            continue
        readers = [
            q.index
            for q in privs
            if q.index != p and any(t is inter for t in q.read_tensors)
        ]
        writers = [
            q.index
            for q in privs
            if q.index != p and any(t is inter for t in q.written_tensors)
        ]
        if writers or len(readers) != 1 or readers[0] <= p:
            continue
        c = readers[0]
        if privs[c].write_kind != "write" or privs[c].aliased_tensors():
            continue
        if entries[c].schedule.streamed():
            continue
        asg_c = entries[c].schedule.assignment
        kc_c = classify(asg_c)
        if kc_c.kind != "spmm" or kc_c.roles["B"].tensor is not inter:
            continue
        if sum(1 for acc in asg_c.rhs.accesses() if acc.tensor is inter) != 1:
            continue
        F = kc_c.roles["C"]
        H = asg_c.lhs.tensor
        fused_inputs = {id(B.tensor), id(C.tensor), id(D.tensor), id(F.tensor)}
        if id(H) in fused_inputs or id(inter) in fused_inputs or F.tensor is H:
            continue
        # The fused statement sits at the consumer's slot, so statements
        # between the pair now run before the producer's reads happen —
        # none of them may write what the fused statement consumes.
        if any(
            id(t) in fused_inputs
            for j in range(p + 1, c)
            for t in privs[j].written_tensors
        ):
            continue
        i_var, j_var = asg_p.lhs.indices  # == B's indices (sddmm predicate)
        k_var = C.indices[1]  # the producer's contracted rank variable
        l_var = asg_c.lhs.indices[1]  # the consumer's free output column
        if l_var in (i_var, j_var, k_var):
            continue  # variable collision would mis-bind the fused loops
        return p, c, (B, C, D, F, H, i_var, j_var, l_var)
    return None


def _consumer_strategy(schedule: Schedule) -> Optional[str]:
    """The consumer's distribution strategy, where the fused statement can
    inherit it (``None`` falls back to the fused kind's auto choice).

    The fused statement replaces the consumer, so distributing it the way
    the consumer was distributed keeps the output's per-piece accumulation
    order — fused and unfused programs then produce bit-identical values.
    """
    if any(isinstance(r, PosRel) for r in schedule.relations):
        return "nonzeros"
    if len(schedule.distributed) == 1:
        return "rows"
    return None  # unscheduled, or a grid tiling the fused kind lacks


def _build_fused(
    machine, B, C, D, F, H, i_var, j_var, l_var, strategy=None
) -> Schedule:
    from ..api.autoschedule import auto_schedule  # lazy: api layers on core
    from .kernelspec import KernelClass

    F_new = Access(F.tensor, (j_var, l_var))
    fused = Assignment(Access(H, (i_var, l_var)), Mul([B, C, D, F_new]))
    # ``classify`` honors this attribute before pattern matching, so the
    # compiler, fingerprint, autoscheduler and commplan all see the fused
    # kind through their ordinary entry points.
    fused.fused_class = KernelClass(
        FUSED_SDDMM_SPMM, {"B": B, "C": C, "D": D, "F": F_new}
    )
    return auto_schedule(fused, machine, strategy=strategy)


def _fuse_sddmm_spmm(
    entries: List[_Entry], machine, keep_ids: Set[int], keep_names: Set[str]
) -> PassRecord:
    touched: List[int] = []
    details: List[str] = []
    while len(entries) >= 2:
        found = _find_fusable_pair(entries, keep_ids, keep_names)
        if found is None:
            break
        p, c, ingredients = found
        H = ingredients[4]
        fused_sched = _build_fused(
            machine, *ingredients,
            strategy=_consumer_strategy(entries[c].schedule),
        )
        orig = entries[p].orig + entries[c].orig
        inter_name = entries[p].schedule.assignment.lhs.tensor.name
        entries[c] = _Entry(orig, fused_sched)
        del entries[p]
        touched.extend(orig)
        details.append(
            f"statements {orig[0]}+{orig[-1]} fused into one "
            f"{FUSED_SDDMM_SPMM} statement ({inter_name} never materializes; "
            f"output {H.name})"
        )
    return PassRecord(
        "fuse",
        bool(touched),
        tuple(touched),
        "; ".join(details) if details else "no fusable SDDMM→SpMM chain",
    )


# --------------------------------------------------------------------------- #
# the pipeline
# --------------------------------------------------------------------------- #
def pipeline_plan(
    schedules: Sequence[Schedule],
    machine,
    *,
    fold: bool = True,
    dse: bool = True,
    fuse: bool = True,
    keep=None,
) -> PipelinePlan:
    """Run the program passes over ``schedules`` (pure: inputs untouched).

    Returns the transformed schedule list, one :class:`PassRecord` per
    pass (disabled passes report ``fired=False``), and per-statement
    origin tuples mapping each surviving statement back to the source
    statements it came from.  CSE is not run here — it is a reuse *map*
    over the final statements, owned by ``compile_program`` — but its
    record is appended there so the reported order is fold → dse → fuse
    → cse.
    """
    keep_ids, keep_names = _keep_sets(keep)
    entries = [_Entry((n,), s) for n, s in enumerate(schedules)]
    records: List[PassRecord] = []

    if fold and len(entries) > 1:
        records.append(_fold_copies(entries))
    else:
        records.append(PassRecord("fold", False, (), "disabled" if not fold else ""))
    if dse and len(entries) > 1:
        records.append(_dead_stores(entries, machine, keep_ids, keep_names))
    else:
        records.append(PassRecord("dse", False, (), "disabled" if not dse else ""))
    if fuse and len(entries) > 1:
        records.append(_fuse_sddmm_spmm(entries, machine, keep_ids, keep_names))
    else:
        records.append(PassRecord("fuse", False, (), "disabled" if not fuse else ""))

    return PipelinePlan(
        schedules=[e.schedule for e in entries],
        records=records,
        origin=[e.orig for e in entries],
    )
