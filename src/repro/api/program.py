"""Lazy multi-statement programs over the SpDISTAL pipeline.

A :class:`Program` records tensor-index-notation statements without
compiling them, then compiles the whole set together through
:func:`repro.core.program.compile_program` — so partitions of operands
shared between statements are derived once, and the session runtime's
mapping traces span the statement chain.  Statements are recorded three
ways, all equivalent:

* explicitly: ``p.define(a)`` after ``a[i] = B[i, j] * c[j]``;
* by capture: assignments written inside ``with session.program() as p:``
  are recorded automatically (deferred tensors — see
  :mod:`repro.taco.capture`);
* with an explicit mapping: ``p.define(a, schedule=hand_built_schedule)``
  or ``stmt.use_schedule(...)`` — the fluent
  :class:`~repro.taco.schedule.Schedule` stays available anywhere as an
  override of the auto-scheduler.
"""
from __future__ import annotations

from typing import List, Optional, Union

from ..core.program import CompiledProgram, ProgramResult
from ..taco.capture import pop_recorder, push_recorder
from ..taco.expr import Assignment
from ..taco.schedule import Schedule
from ..taco.tensor import Tensor

__all__ = ["Program", "Statement"]


class Statement:
    """One recorded statement of a :class:`Program`."""

    def __init__(self, assignment: Assignment,
                 schedule: Optional[Schedule] = None):
        self.assignment = assignment
        self.explicit_schedule = schedule

    def use_schedule(self, schedule: Schedule) -> "Statement":
        """Override the auto-scheduler with a hand-built schedule."""
        # Same statement, not same object: ``tensor.assignment`` (and so
        # ``tensor.schedule()``) builds an equal Assignment on every read.
        theirs, ours = schedule.assignment, self.assignment
        if theirs.lhs.tensor is not ours.lhs.tensor or theirs.rhs is not ours.rhs:
            raise ValueError(
                "the schedule must be built over this statement's assignment"
            )
        self.explicit_schedule = schedule
        return self

    def schedule(self) -> Schedule:
        """Start building an explicit schedule for this statement (fluent;
        the built schedule is automatically installed as the override)."""
        sched = Schedule(self.assignment)
        self.explicit_schedule = sched
        return sched

    @property
    def output(self) -> Tensor:
        return self.assignment.lhs.tensor

    def __repr__(self) -> str:  # pragma: no cover
        how = "explicit" if self.explicit_schedule is not None else "auto"
        return f"Statement({self.assignment!r}, schedule={how})"


class Program:
    """An ordered, lazily compiled list of statements bound to a session."""

    def __init__(self, session):
        self.session = session
        self.statements: List[Statement] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def define(
        self,
        target: Union[Assignment, Tensor, Schedule],
        *,
        schedule: Optional[Schedule] = None,
    ) -> Statement:
        """Append one statement.  ``target`` is an assignment, a tensor
        that was just assigned, or an explicit :class:`Schedule` (which is
        both the statement and its mapping)."""
        if isinstance(target, Schedule):
            stmt = Statement(target.assignment, target)
        elif isinstance(target, Assignment):
            stmt = Statement(target, schedule)
        elif isinstance(target, Tensor):
            if target.assignment is None:
                raise ValueError(f"no statement assigned to {target.name}")
            stmt = Statement(target.assignment, schedule)
        else:
            raise TypeError(
                f"cannot define a statement from {type(target).__name__}"
            )
        self.statements.append(stmt)
        return stmt

    # -- deferred capture (``with session.program() as p:``) ---------------
    def __enter__(self) -> "Program":
        push_recorder(self._record)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pop_recorder(self._record)

    def _record(self, assignment: Assignment) -> None:
        self.statements.append(Statement(assignment))

    def __len__(self) -> int:
        return len(self.statements)

    def __getitem__(self, k: int) -> Statement:
        return self.statements[k]

    # ------------------------------------------------------------------ #
    # compile / run
    # ------------------------------------------------------------------ #
    def schedules(self) -> List[Schedule]:
        """Every statement's effective schedule (explicit override, else
        auto-synthesized for the session's machine)."""
        return [
            s.explicit_schedule
            if s.explicit_schedule is not None
            else self.session.schedule_for(s.assignment)
            for s in self.statements
        ]

    def analyze(self, *, cost: bool = False):
        """Statically analyze the recorded statements without executing.

        Returns an :class:`repro.analysis.AnalysisReport`: per-statement
        read/write privilege sets, the RAW/WAR/WAW statement dependence
        graph, typed diagnostics (``WriteHazard`` / ``UnsupportedEinsum``
        errors, ``IllegalCSE`` warnings) and the common-subexpression
        reuse map that :meth:`compile` with ``cse=True`` will execute —
        the same analysis, so what the report proves is what runs.

        With ``cost=True`` the static communication planner additionally
        vets every statement (compiling through the kernel cache, still
        never executing): ``report.predictions`` carries each statement's
        predicted metrics signature and the diagnostics gain
        redundant/missing ``communicate`` and incoherent-distribution
        findings (see :mod:`repro.analysis.commplan`).
        """
        if not self.statements:
            raise ValueError("the program has no statements")
        from ..analysis import analyze_program

        return analyze_program(
            self.schedules(), self.session.machine,
            cost=cost, runtime=self.session.runtime if cost else None,
        )

    def compile(self, *, use_cache: bool = True, cse: bool = True,
                fold: bool = True, dse: bool = True, fuse: bool = True,
                keep=None) -> CompiledProgram:
        """Compile all recorded statements together (shared operands'
        partitions are derived once, repeated identical statements collapse
        to one execution — the program-level amortizations).  The pass
        pipeline's knobs pass through: ``fold``/``dse``/``fuse`` disable
        individual passes, ``keep=`` pins tensors (objects or names) that
        must stay materialized (see :mod:`repro.core.passes`)."""
        if not self.statements:
            raise ValueError("the program has no statements")
        return self.session.compile(
            *self.schedules(), use_cache=use_cache, cse=cse,
            fold=fold, dse=dse, fuse=fuse, keep=keep,
        )

    def run(self, *, fresh_trial: bool = True, fold: bool = True,
            dse: bool = True, fuse: bool = True, keep=None) -> ProgramResult:
        """Compile (cached) and execute every statement in order on the
        session runtime; returns the per-statement results."""
        return self.compile(fold=fold, dse=dse, fuse=fuse, keep=keep).execute(
            self.session.runtime, fresh_trial=fresh_trial
        )
