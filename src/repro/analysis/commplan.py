"""Static communication planning: predict simulated metrics without executing.

SpDISTAL's premise is that the *schedule* decides communication and
communication decides performance.  The simulated runtime
(:mod:`repro.legion.runtime`) derives every transfer deterministically
from static artifacts — region partitions, home placements, privileges
and the color→processor map — plus a residency state machine; nothing
about the tensors' *values* ever reaches a staging decision.  This module
exploits that: it drives the runtime's own staging algebra over a scratch
:class:`~repro.legion.runtime.Runtime` with the leaf task bodies replaced
by a (pattern-derived) :class:`~repro.legion.machine.Work` model, so the
communication plan — per-color launch set, region movements with byte
counts per channel, per-node footprint — and the full metrics signature
are derived **without executing any tensor math**.

Because the mirror runs the same subset algebra, the same home lists and
the same owner selection as a real cold execution, the prediction is
*exact*: launch counts, every :class:`~repro.legion.metrics.CommEvent`
(source, destination, bytes, channel, reason) and the per-node resident
footprint match what :meth:`CompiledKernel.execute` on a fresh runtime
reports, byte for byte.  The differential oracle
(``tests/analysis/test_commplan_oracle.py``) pins that equality over the
full kernel × format × strategy × machine sweep.

The planner also emits typed :class:`~repro.analysis.report.Diagnostic`
findings through the :class:`~repro.analysis.report.AnalysisReport`
machinery: redundant ``communicate`` placements (the placed tensor moves
zero bytes), missing ones (overlapping sub-regions staged to several
processors — duplicate transfer a ``communicate`` would hoist), and
privilege-incoherent distributions (a streamed region holding write or
reduce privilege).

Entry points:

* :func:`predict_metrics` — the public one-call predictor (also exported
  as ``repro.predict_metrics``);
* :func:`communication_plan` — the richer per-statement plan;
* :func:`measured_signature` — fold an executed
  :class:`~repro.legion.metrics.ExecutionMetrics` + runtime into the same
  signature shape, for differential comparison;
* :func:`commplan_diagnostics` — the coherence findings,
  consumed by ``Program.analyze(cost=True)`` and the ``commplan``
  check-runner plugin.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    IncoherentDistribution, MissingCommunicate, RedundantCommunicate,
)
from ..legion.machine import Machine, Work
from ..legion.metrics import CommEvent, ExecutionMetrics, StepMetrics
from ..legion.runtime import Privilege, RegionReq, Runtime
from .hazards import _var_chain
from .report import Diagnostic, Provenance

__all__ = [
    "PredictedStep", "MetricsSignature", "Movement", "CommPlan",
    "predict_metrics", "communication_plan", "measured_signature",
    "commplan_diagnostics",
]

#: a Work model: maps (phase name, piece) to the Work the leaf will report.
WorkModel = Callable[[str, object], Work]


def _zero_work(_phase: str, _piece: object) -> Work:
    return Work.zero()


# --------------------------------------------------------------------------- #
# signature shapes
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PredictedStep:
    """One step of a (predicted or measured) metrics signature."""

    name: str
    tasks_launched: int
    comm_events: Tuple[CommEvent, ...]

    @property
    def comm_bytes(self) -> float:
        """Total bytes moved by this step."""
        return sum(e.nbytes for e in self.comm_events)


@dataclass(frozen=True)
class MetricsSignature:
    """The execution-shape fingerprint of a statement (or program).

    Same shape the simulator emits: ordered steps with launch counts and
    communication events, plus the per-node resident footprint (under the
    capacity model's accounting —
    :meth:`repro.legion.runtime.Runtime.resident_bytes_per_proc`).
    Hashable and exactly comparable: two signatures are equal iff every
    launch count, every event (src, dst, bytes, channel, reason) and
    every node's footprint agree.
    """

    steps: Tuple[PredictedStep, ...]
    node_footprint: Tuple[Tuple[int, float], ...]  #: sorted (node_id, bytes)

    @property
    def launches(self) -> int:
        """Total tasks launched across all steps."""
        return sum(s.tasks_launched for s in self.steps)

    def events(self) -> Tuple[CommEvent, ...]:
        """Every communication event, in execution order."""
        return tuple(e for s in self.steps for e in s.comm_events)

    def comm_bytes_by_channel(self) -> Dict[str, float]:
        """Bytes moved per machine channel.

        ``intra_node`` covers transfers between processors sharing a node
        (GPU peers over the same node's links); ``inter_node`` covers the
        network.  Zero-byte local "transfers" (src == dst) count toward
        neither total.
        """
        out = {"intra_node": 0.0, "inter_node": 0.0}
        for e in self.events():
            if e.src_proc == e.dst_proc:
                continue
            out["intra_node" if e.same_node else "inter_node"] += e.nbytes
        return out

    def total_comm_bytes(self) -> float:
        """Total bytes moved across all steps."""
        return sum(s.comm_bytes for s in self.steps)

    def describe(self) -> str:
        """A compact human-readable rendering."""
        lines = []
        for s in self.steps:
            lines.append(
                f"{s.name}: {s.tasks_launched} tasks, "
                f"{len(s.comm_events)} transfers, {s.comm_bytes:.0f} B"
            )
        by = self.comm_bytes_by_channel()
        lines.append(
            f"channels: intra-node {by['intra_node']:.0f} B, "
            f"inter-node {by['inter_node']:.0f} B"
        )
        foot = ", ".join(f"node {n}: {b:.0f} B" for n, b in self.node_footprint)
        lines.append(f"footprint: {foot if foot else 'empty'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Movement:
    """One region movement of the communication plan."""

    step: str  #: launch name the movement belongs to
    region: str  #: region name parsed from the staging reason
    src_proc: int
    dst_proc: int
    nbytes: float
    channel: str  #: "intra_node" | "inter_node" | "local"
    reason: str  #: the runtime's verb: stage / stream / reduce / counts / pos


@dataclass
class CommPlan:
    """The full static communication plan of one compiled statement."""

    kind: str
    strategy: str
    #: per-color launch assignment, in launch order
    launches: List[Tuple[object, int]] = field(default_factory=list)
    movements: List[Movement] = field(default_factory=list)
    signature: Optional[MetricsSignature] = None
    #: per-node footprint maximum observed at step granularity (the
    #: capacity model checks per staged region; this bounds it per step)
    peak_node_footprint: Dict[int, float] = field(default_factory=dict)
    #: bytes staged/streamed per tensor name (reduce flows excluded)
    staged_bytes_by_tensor: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """The plan as text: launches, movements, channels, footprint."""
        lines = [f"{self.kind}:{self.strategy} — {len(self.launches)} pieces"]
        for color, proc in self.launches:
            lines.append(f"  color {color} -> proc {proc}")
        for m in self.movements:
            lines.append(
                f"  [{m.step}] {m.region}: {m.src_proc} -> {m.dst_proc} "
                f"{m.nbytes:.0f} B ({m.channel}, {m.reason})"
            )
        if self.signature is not None:
            lines.append(self.signature.describe())
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# signature construction
# --------------------------------------------------------------------------- #
def _fold_steps(steps: Sequence[StepMetrics]) -> Tuple[PredictedStep, ...]:
    return tuple(
        PredictedStep(s.name, s.tasks_launched, tuple(s.comm_events))
        for s in steps
    )


def _node_footprint(
    per_proc: Dict[int, float], machine: Machine
) -> Tuple[Tuple[int, float], ...]:
    by_node: Dict[int, float] = {}
    for proc, nbytes in per_proc.items():
        node = machine.proc(proc).node_id
        by_node[node] = by_node.get(node, 0.0) + nbytes
    return tuple(sorted(by_node.items()))


def measured_signature(
    metrics: ExecutionMetrics, runtime: Runtime
) -> MetricsSignature:
    """Fold an executed trial's metrics + runtime state into a signature.

    The differential counterpart of :func:`predict_metrics`: the steps
    come from the trial's :class:`~repro.legion.metrics.ExecutionMetrics`
    and the footprint from the runtime the trial ran on, read through the
    same :meth:`~repro.legion.runtime.Runtime.resident_bytes_per_proc`
    accounting the predictor uses.
    """
    return MetricsSignature(
        steps=_fold_steps(metrics.steps),
        node_footprint=_node_footprint(
            runtime.resident_bytes_per_proc(), runtime.machine
        ),
    )


# --------------------------------------------------------------------------- #
# the mirror: the runtime's staging algebra minus the task bodies
# --------------------------------------------------------------------------- #
def _spadd_read_reqs(ck) -> List[RegionReq]:
    """The READ_ONLY launch requirements SpAdd assembly freezes on first
    execute (``CompiledKernel._execute_spadd``), derived the same way —
    or the already-frozen list when the kernel has executed before."""
    from ..core.kernelspec import SPECS

    if ck._spadd_reqs is not None:
        return ck._spadd_reqs
    return [
        req
        for t in SPECS[ck.kind].operand_tensors(ck)
        for req in ck.parts[id(t)].region_reqs(Privilege.READ_ONLY)
    ]


def _seed_tdn_homes(ck, rt: Runtime, source: Optional[Runtime]) -> None:
    """Copy home placements of TDN-placed tensors from the real runtime.

    ``CompiledKernel._place`` skips tensors placed by ``repro.distal``
    (their homes live on the session runtime), so a scratch mirror would
    otherwise see them as homeless.  Copying the home lists *in order*
    preserves the owner-selection tie-breaking of ``_owner_of``.
    """
    if source is None:
        return
    for part in ck.parts.values():
        if not getattr(part.tensor, "_placed_by_tdn", False):
            continue
        for req in part.region_reqs(Privilege.READ_ONLY):
            homes = source._home.get(req.region.uid)
            if homes:
                rt._home.setdefault(req.region.uid, []).extend(homes)
    rt._homes_changed()


def _mirror_kernel(ck, rt: Runtime, work: WorkModel) -> List[StepMetrics]:
    """Replay one cold kernel execution's *mapping* on ``rt``.

    Identical calls to the same runtime entry points a real
    ``execute()`` makes — placement, then the index launch(es) — with the
    leaf bodies replaced by the Work model.  Returns the freshly
    appended steps.  Raises :class:`repro.errors.OOMError` exactly where
    the real execution would.
    """
    from ..core.kernelspec import SPECS

    before = len(rt.metrics.steps)
    ck._place(rt)
    by_color = {p.color: p for p in ck.pieces}
    colors = [p.color for p in ck.pieces]

    def proc_of(c):
        return by_color[c].proc

    if SPECS[ck.kind].assembles:
        reqs = _spadd_read_reqs(ck)
        rt.index_launch(
            "spadd:symbolic", colors,
            lambda c: work("spadd:symbolic", by_color[c]),
            reqs, proc_map=proc_of,
        )
        ck._spadd_scan_step(rt)
        rt.index_launch(
            "spadd:fill", colors,
            lambda c: work("spadd:fill", by_color[c]),
            reqs, proc_map=proc_of,
        )
    else:
        rt.index_launch(
            f"{ck.kind}:{ck.strategy}", colors,
            lambda c: work("compute", by_color[c]),
            ck._reqs(), proc_map=proc_of,
        )
    return rt.metrics.steps[before:]


def _channel_of(e: CommEvent) -> str:
    if e.src_proc == e.dst_proc:
        return "local"
    return "intra_node" if e.same_node else "inter_node"


def _movements_of(steps: Sequence[StepMetrics]) -> List[Movement]:
    out = []
    for s in steps:
        for e in s.comm_events:
            verb, _, rest = e.reason.partition(" ")
            out.append(Movement(
                step=s.name, region=rest or e.reason,
                src_proc=e.src_proc, dst_proc=e.dst_proc, nbytes=e.nbytes,
                channel=_channel_of(e), reason=verb,
            ))
    return out


def _region_tensors(ck) -> Dict[str, str]:
    """region name -> owning tensor name (ambiguous names dropped)."""
    names: Dict[str, str] = {}
    for part in ck.parts.values():
        for req in part.region_reqs(Privilege.READ_ONLY):
            rname = req.region.name
            owner = part.tensor.name
            if rname in names and names[rname] != owner:
                names[rname] = ""  # ambiguous: exclude from attribution
            else:
                names[rname] = owner
    return names


def _plan_of(ck, steps: List[StepMetrics], rt: Runtime) -> CommPlan:
    plan = CommPlan(
        kind=ck.kind,
        strategy=ck.strategy,
        launches=[(p.color, p.proc) for p in ck.pieces],
        movements=_movements_of(steps),
        signature=MetricsSignature(
            steps=_fold_steps(steps),
            node_footprint=_node_footprint(
                rt.resident_bytes_per_proc(), rt.machine
            ),
        ),
    )
    for node, nbytes in plan.signature.node_footprint:
        plan.peak_node_footprint[node] = max(
            plan.peak_node_footprint.get(node, 0.0), nbytes
        )
    region_owner = _region_tensors(ck)
    for m in plan.movements:
        if m.reason not in ("stage", "stream"):
            continue
        owner = region_owner.get(m.region)
        if owner:
            plan.staged_bytes_by_tensor[owner] = (
                plan.staged_bytes_by_tensor.get(owner, 0.0) + m.nbytes
            )
    return plan


def _predict_one(
    ck,
    *,
    runtime: Optional[Runtime] = None,
    work: Optional[WorkModel] = None,
) -> CommPlan:
    rt = Runtime(ck.machine)
    _seed_tdn_homes(ck, rt, runtime)
    steps = _mirror_kernel(ck, rt, work or _zero_work)
    return _plan_of(ck, steps, rt)


def communication_plan(
    target,
    machine: Optional[Machine] = None,
    *,
    runtime: Optional[Runtime] = None,
    work: Optional[WorkModel] = None,
) -> CommPlan:
    """The static communication plan of one scheduled statement.

    ``target`` is a :class:`~repro.taco.schedule.Schedule`, a bare
    :class:`~repro.taco.expr.Assignment` (or a tensor carrying one), or an
    already-compiled :class:`~repro.core.compiler.CompiledKernel`.
    Compilation (when needed) goes through the ordinary kernel cache;
    nothing executes.  Pass the session ``runtime`` when tensors were
    placed by ``repro.distal`` so the plan sees their real homes.
    """
    ck = _as_kernel(target, machine)
    return _predict_one(ck, runtime=runtime, work=work)


def _as_kernel(target, machine: Optional[Machine]):
    from ..core.compiler import CompiledKernel, compile_statement
    from ..taco.schedule import Schedule

    if isinstance(target, CompiledKernel):
        return target
    if isinstance(target, Schedule):
        sched = target
    else:
        # A bare assignment predicts what the session would run: the
        # auto-scheduler's distributed mapping for this machine, not an
        # unscheduled single-piece wrapper.
        from ..api.autoschedule import auto_schedule
        from ..legion.machine import Machine as _Machine

        sched = auto_schedule(
            _as_asg(target), machine if machine is not None else _Machine.cpu(1)
        )
    return compile_statement(sched, machine)


def _as_asg(target):
    from ..taco.expr import Assignment
    from ..taco.tensor import Tensor

    if isinstance(target, Assignment):
        return target
    if isinstance(target, Tensor) and target.assignment is not None:
        return target.assignment
    raise TypeError(
        "predict_metrics needs a Schedule, an Assignment, a tensor carrying "
        f"one, a CompiledKernel or a compiled/recorded program — got {target!r}"
    )


def predict_metrics(
    target,
    machine: Optional[Machine] = None,
    *,
    runtime: Optional[Runtime] = None,
    work: Optional[WorkModel] = None,
) -> MetricsSignature:
    """Statically predict the simulated metrics signature of ``target``.

    ``target`` may be a single statement (a
    :class:`~repro.taco.schedule.Schedule`, an
    :class:`~repro.taco.expr.Assignment`, a tensor carrying one, or a
    :class:`~repro.core.compiler.CompiledKernel`), a sequence of
    schedules, a :class:`~repro.core.program.CompiledProgram`, or a
    recorded :class:`repro.Program`.  Nothing executes: the runtime's
    deterministic staging algebra runs over a scratch runtime with leaf
    bodies replaced by a static :class:`~repro.legion.machine.Work`
    model, so the returned :class:`MetricsSignature` — launch counts,
    every communication event with its channel, the per-node footprint —
    is exactly what a cold :meth:`execute` on a fresh runtime would
    report (pinned by the differential oracle).

    For multi-statement targets the signature concatenates the
    statements' steps in program order, honoring common-subexpression
    reuse (collapsed statements contribute no steps), and the footprint
    is the program's end state.  Raises
    :class:`repro.errors.OOMError` if the plan exceeds a processor's
    memory — the same failure, at the same staging point, the execution
    would hit.
    """
    program = _as_compiled_program(target, machine)
    if program is not None:
        rt = Runtime(program.machine)
        steps: List[StepMetrics] = []
        for n, ck in enumerate(program.kernels):
            if program.reused_from[n] is not None:
                continue
            _seed_tdn_homes(ck, rt, runtime)
            steps.extend(_mirror_kernel(ck, rt, work or _zero_work))
        return MetricsSignature(
            steps=_fold_steps(steps),
            node_footprint=_node_footprint(
                rt.resident_bytes_per_proc(), rt.machine
            ),
        )
    plan = _predict_one(_as_kernel(target, machine), runtime=runtime, work=work)
    return plan.signature


def _as_compiled_program(target, machine: Optional[Machine]):
    from ..core.program import CompiledProgram, compile_program

    if isinstance(target, CompiledProgram):
        return target
    if isinstance(target, (list, tuple)):
        return compile_program(list(target), machine)
    try:
        from ..api.program import Program
    except ImportError:  # pragma: no cover - api layer always present
        return None
    if isinstance(target, Program):
        return target.compile()
    return None


# --------------------------------------------------------------------------- #
# diagnostics: communicate placements and distribution coherence
# --------------------------------------------------------------------------- #
def commplan_diagnostics(
    target,
    machine: Optional[Machine] = None,
    *,
    runtime: Optional[Runtime] = None,
    statement: int = 0,
    plan: Optional[CommPlan] = None,
) -> List[Diagnostic]:
    """Statically vet one scheduled statement's communication coherence.

    Three findings, all anchored with derived-variable provenance like
    the hazard analyzer's:

    * **error** :class:`~repro.errors.IncoherentDistribution` — a
      streamed (never-resident) tensor holds WRITE or REDUCE privilege;
      its round-wise transfers could not maintain output coherence;
    * **warning** :class:`~repro.errors.RedundantCommunicate` — a
      ``communicate(tensor, var)`` placement whose tensor moves zero
      bytes in the derived plan (already resident where it executes);
    * **warning** :class:`~repro.errors.MissingCommunicate` — a tensor
      with no ``communicate`` placement whose staged transfers exceed the
      data actually needed (overlapping sub-regions pulled by several
      processors), i.e. duplicated movement a placement would hoist.
    """
    ck = _as_kernel(target, machine)
    schedule = ck.schedule
    if plan is None:
        plan = _predict_one(ck, runtime=runtime)
    diags: List[Diagnostic] = []
    srepr = repr(schedule.assignment)

    def prov(tensor=None, loop_vars=()):
        return Provenance(
            statement=statement, statement_repr=srepr,
            tensor=tensor, loop_vars=tuple(loop_vars),
        )

    # streamed regions must stay read-only: the runtime discards their
    # round-wise transfers, so written data would never be read back.
    for t_id in ck._streamed:
        priv = ck.privileges.get(t_id, Privilege.READ_ONLY)
        if priv != Privilege.READ_ONLY:
            part = ck.parts.get(t_id)
            name = part.tensor.name if part is not None else "?"
            diags.append(Diagnostic(
                severity="error",
                error_type=IncoherentDistribution,
                message=(
                    f"streamed tensor {name} holds {priv.name} privilege: "
                    "streamed sub-regions are never resident, so the "
                    "written rounds would be discarded before the output "
                    "is read back"
                ),
                provenance=prov(tensor=name),
            ))

    communicated_names = set()
    for var, tensors in schedule.communicated.items():
        chain = _var_chain(schedule, var)
        for t in tensors:
            communicated_names.add(t.name)
            moved = plan.staged_bytes_by_tensor.get(t.name, 0.0)
            if moved == 0.0:
                part = ck.parts.get(id(t))
                why = (
                    "its partition is replicated onto every piece"
                    if part is not None and part.replicated
                    else "every piece's sub-region is already resident "
                    "where it executes"
                )
                diags.append(Diagnostic(
                    severity="warning",
                    error_type=RedundantCommunicate,
                    message=(
                        f"communicate({t.name}, {var.name}) moves no data: "
                        f"{why}"
                    ),
                    provenance=prov(tensor=t.name, loop_vars=(chain,)),
                ))

    # duplicated staging: the same region pulled (with overlap) by several
    # processors — a communicate at the distributed loop would hoist it.
    dvars = list(schedule.distributed)
    chain = _var_chain(schedule, dvars[0]) if dvars else None
    region_owner = _region_tensors(ck)
    by_region: Dict[str, Tuple[float, set]] = {}
    for m in plan.movements:
        if m.reason != "stage" or m.nbytes <= 0.0:
            continue
        total, dsts = by_region.get(m.region, (0.0, set()))
        dsts = set(dsts)
        dsts.add(m.dst_proc)
        by_region[m.region] = (total + m.nbytes, dsts)
    flagged = set()
    for part in ck.parts.values():
        t = part.tensor
        if t is ck.out or t.name in communicated_names or t.name in flagged:
            continue
        region_bytes = {
            req.region.name: req.region.subset_nbytes(
                req.region.ispace.full_subset()
            )
            for req in part.region_reqs(Privilege.READ_ONLY)
        }
        for rname, full_bytes in region_bytes.items():
            if region_owner.get(rname) != t.name:
                continue
            total, dsts = by_region.get(rname, (0.0, set()))
            if len(dsts) >= 2 and total > full_bytes:
                flagged.add(t.name)
                diags.append(Diagnostic(
                    severity="warning",
                    error_type=MissingCommunicate,
                    message=(
                        f"{t.name} is staged to {len(dsts)} processors "
                        f"moving {total:.0f} B against {full_bytes:.0f} B "
                        "of data — overlapping transfers a communicate "
                        "placement at the distributed loop would hoist"
                    ),
                    provenance=prov(
                        tensor=t.name,
                        loop_vars=(chain,) if chain else (),
                    ),
                ))
                break
    return diags
