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
metrics signature — every launch, every communication event with its
channel, the per-node footprint — is derived **without executing any
tensor math**.

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
zero bytes) and missing ones (overlapping sub-regions staged to several
processors — duplicate transfer a ``communicate`` would hoist).

Entry points:

* :func:`predict_metrics` — the public one-call predictor (also exported
  as ``repro.predict_metrics``), for one statement or a program;
* :func:`measured_signature` — fold an executed
  :class:`~repro.legion.metrics.ExecutionMetrics` + runtime into the same
  signature shape, for differential comparison;
* :func:`commplan_diagnostics` — the coherence findings, read from a
  statement's signature, consumed by ``Program.analyze(cost=True)`` and
  the ``commplan`` check-runner plugin.

:func:`repro.analysis.predict_cost` prices the same mirror's steps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import MissingCommunicate, RedundantCommunicate
from ..legion.machine import Machine, Works
from ..legion.metrics import CommEvent, ExecutionMetrics, StepMetrics
from ..legion.network import Network
from ..legion.runtime import Privilege, Runtime
from .hazards import _var_chain
from .report import Diagnostic, Provenance

__all__ = [
    "PredictedStep", "MetricsSignature",
    "predict_metrics", "measured_signature", "commplan_diagnostics",
]

#: a Work model: maps a launch's name to the Work every piece's leaf will
#: report, as columns in piece order.
WorkModel = Callable[[str], Works]


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


# --------------------------------------------------------------------------- #
# signature construction
# --------------------------------------------------------------------------- #
def _signature(steps: Sequence[StepMetrics], rt: Runtime) -> MetricsSignature:
    """The signature of ``steps`` run on ``rt``: the steps' launch counts
    and events, and ``rt``'s resident bytes summed per node."""
    by_node: Dict[int, float] = {}
    for proc, nbytes in rt.resident_bytes_per_proc().items():
        node = rt.machine.proc(proc).node_id
        by_node[node] = by_node.get(node, 0.0) + nbytes
    return MetricsSignature(
        steps=tuple(
            PredictedStep(s.name, s.tasks_launched, tuple(s.comm_events))
            for s in steps
        ),
        node_footprint=tuple(sorted(by_node.items())),
    )


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
    return _signature(metrics.steps, runtime)


# --------------------------------------------------------------------------- #
# the mirror: the runtime's staging algebra minus the task bodies
# --------------------------------------------------------------------------- #
def _mirror(
    kernels: Sequence,
    machine: Machine,
    *,
    runtime: Optional[Runtime] = None,
    work: Optional[WorkModel] = None,
    network: Optional[Network] = None,
) -> Tuple[List[StepMetrics], Runtime]:
    """Replay a cold run's *mapping* of ``kernels`` (one statement, or a
    program's launching ones) on a scratch runtime, as a real run makes it:
    the homes of the regions a TDN statement declared on ``runtime`` copied
    in its order, every kernel placed, one reset, then each kernel's
    :meth:`~repro.core.compiler.CompiledKernel.launches` in order with the
    bodies replaced by the Work model's columns for the launch's name (None:
    no work).  Returns the launches' steps and the scratch runtime; raises
    :class:`repro.errors.OOMError` where the run would."""
    rt = Runtime(machine, network)
    if runtime is not None:
        rt.copy_homes(runtime, list({
            req.region.uid: req.region
            for ck in kernels for part in ck.parts.values()
            for req in part.region_reqs(Privilege.READ_ONLY)
            if req.region.uid in runtime.declared
        }.values()))
    for ck in kernels:
        ck._place(rt)
    rt.reset_residency()
    steps: List[StepMetrics] = []
    for ck in kernels:
        for step in ck.launches():
            works = work(step.name) if work is not None else Works.zeros(len(step.colors))
            steps.append(step.run(rt, lambda: works))
    return steps, rt


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
        kernels = [ck for ck, prior in zip(program.kernels, program.reused_from)
                   if prior is None]
        machine = program.machine
    else:
        kernels = [_as_kernel(target, machine)]
        machine = kernels[0].machine
    return _signature(*_mirror(kernels, machine, runtime=runtime))


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
    signature: Optional[MetricsSignature] = None,
) -> List[Diagnostic]:
    """Statically vet one scheduled statement's communication coherence.

    Two findings, both anchored with derived-variable provenance like
    the hazard analyzer's (a streamed output, the incoherent distribution,
    is refused at compile):

    * **warning** :class:`~repro.errors.RedundantCommunicate` — a
      ``communicate(tensor, var)`` placement whose tensor moves zero
      bytes in the predicted signature although it had a home on
      ``runtime`` before the prediction (a declared distribution or an
      earlier run) — already resident where it executes.  A tensor with
      no home says nothing: a cold run homes each piece where it runs;
    * **warning** :class:`~repro.errors.MissingCommunicate` — a tensor
      with no ``communicate`` placement whose staged transfers exceed the
      data actually needed (overlapping sub-regions pulled by several
      processors), i.e. duplicated movement a placement would hoist.

    ``signature`` is the statement's :func:`predict_metrics` result under
    the same ``runtime``, when the caller already has it.
    """
    ck = _as_kernel(target, machine)
    schedule = ck.schedule
    if signature is None:
        signature = predict_metrics(ck, runtime=runtime)
    # An event's reason is "<verb> <region>": bytes staged or streamed per
    # tensor, and bytes staged per region with the processors they reach.
    region_owner = _region_tensors(ck)
    moved: Dict[str, float] = {}
    staged: Dict[str, float] = {}
    staged_to: Dict[str, Set[int]] = {}
    for e in signature.events():
        verb, _, region = e.reason.partition(" ")
        region = region or e.reason
        owner = region_owner.get(region)
        if verb in ("stage", "stream") and owner:
            moved[owner] = moved.get(owner, 0.0) + e.nbytes
        if verb == "stage" and e.nbytes > 0.0:
            staged[region] = staged.get(region, 0.0) + e.nbytes
            staged_to.setdefault(region, set()).add(e.dst_proc)
    diags: List[Diagnostic] = []
    srepr = repr(schedule.assignment)

    def prov(tensor=None, loop_vars=()):
        return Provenance(
            statement=statement, statement_repr=srepr,
            tensor=tensor, loop_vars=tuple(loop_vars),
        )

    homed = set() if runtime is None else set(runtime._home)
    communicated_names = set()
    for var, tensors in schedule.communicated.items():
        chain = _var_chain(schedule, var)
        for t in tensors:
            communicated_names.add(t.name)
            if moved.get(t.name, 0.0) == 0.0 and any(
                    r.uid in homed for r in t.regions()):
                part = ck.parts.get(t)
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
    flagged = set()
    for t, part in ck.parts.items():
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
            total, dsts = staged.get(rname, 0.0), staged_to.get(rname, ())
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
