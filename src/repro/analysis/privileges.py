"""Per-statement read/write privilege extraction.

The hazard analyzer's ground truth: for every statement of a program,
which (tensor × mode) pairs it reads and which it writes, with the two
write distinctions the execution engine makes (``repro.core.compiler``):

* **accumulate** — ``A += expr`` reduces into the existing values, so the
  output is also a *read* of the statement;
* **assemble** — SpAdd-shaped statements (``is_assembled_output``)
  rebuild the output's sparse pattern from scratch each execute, and the
  execution path snapshots every operand array *before* the new pattern
  is installed, which is what makes the aliased forms (``A = B + A``)
  legal.

Privilege sets are pure statement metadata — no compilation, no leaf
binding — so they are cheap enough to derive for every ``compile_program``
call and are the inputs to :mod:`repro.analysis.hazards` (the dependence
graph) and :mod:`repro.analysis.cse` (collapse legality).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..core import cache as _cache
from ..taco.expr import Access, Assignment
from ..taco.schedule import Schedule

__all__ = [
    "TensorUse", "StatementPrivileges", "statement_privileges",
    "program_privileges",
]


@dataclass(frozen=True)
class TensorUse:
    """One tensor touched by a statement, with the modes it is touched at.

    ``modes`` pairs each tensor mode with the index-variable name that
    ranges over it (``B(i, j)`` → ``((0, "i"), (1, "j"))``) — the
    tensor × mode granularity the issue-level privilege model asks for.
    """

    tensor: object  #: the :class:`~repro.taco.tensor.Tensor` (by identity)
    modes: Tuple[Tuple[int, str], ...]

    @property
    def name(self) -> str:
        return self.tensor.name

    def __repr__(self) -> str:  # pragma: no cover
        idx = ", ".join(v for _, v in self.modes)
        return f"{self.name}({idx})"


@dataclass
class StatementPrivileges:
    """The read/write privilege sets of one program statement."""

    index: int  #: position in the program (0-based)
    assignment: Assignment
    schedule: Optional[Schedule]
    reads: List[TensorUse] = field(default_factory=list)
    writes: List[TensorUse] = field(default_factory=list)
    #: "write" (overwrite), "accumulate" (``+=`` reduce) or "assemble"
    #: (SpAdd pattern rebuild with pre-install operand snapshots).
    write_kind: str = "write"

    @property
    def read_tensors(self) -> List:
        seen, out = set(), []
        for u in self.reads:
            if id(u.tensor) not in seen:
                seen.add(id(u.tensor))
                out.append(u.tensor)
        return out

    @property
    def written_tensors(self) -> List:
        seen, out = set(), []
        for u in self.writes:
            if id(u.tensor) not in seen:
                seen.add(id(u.tensor))
                out.append(u.tensor)
        return out

    def aliased_tensors(self) -> List:
        """Tensors this statement both reads and writes (by identity)."""
        written = {id(t) for t in self.written_tensors}
        return [t for t in self.read_tensors if id(t) in written]

    def describe(self) -> str:
        r = ", ".join(map(repr, self.reads)) or "-"
        w = ", ".join(map(repr, self.writes)) or "-"
        return (f"statement {self.index}: reads [{r}] "
                f"{self.write_kind}s [{w}]")


def _use(access: Access) -> TensorUse:
    return TensorUse(
        access.tensor,
        tuple((m, v.name) for m, v in enumerate(access.indices)),
    )


def statement_privileges(
    target: Union[Assignment, Schedule], index: int = 0
) -> StatementPrivileges:
    """Extract the privilege sets of one (optionally scheduled) statement.

    The RHS accesses are the reads; the LHS access is the write.  An
    accumulating statement (``+=``) additionally *reads* its output — the
    existing values participate in the result — and so does the stripped
    LHS of the SpAdd ``accumulate`` sugar (``A += B + C`` reads A even
    though A no longer appears in the operand list).
    """
    schedule = target if isinstance(target, Schedule) else None
    asg = target.assignment if schedule is not None else target
    priv = StatementPrivileges(index=index, assignment=asg, schedule=schedule)
    priv.writes.append(_use(asg.lhs))
    if _cache.is_assembled_output(asg):
        priv.write_kind = "assemble"
    elif asg.accumulate:
        priv.write_kind = "accumulate"
    for acc in asg.rhs.accesses():
        priv.reads.append(_use(acc))
    if asg.accumulate and all(
        u.tensor is not asg.lhs.tensor for u in priv.reads
    ):
        # ``+=`` consumes the existing output values (for SpAdd this is
        # the stripped-LHS operand the symbolic launch's body snapshots).
        priv.reads.append(_use(asg.lhs))
    return priv


def program_privileges(
    targets: Sequence[Union[Assignment, Schedule]]
) -> List[StatementPrivileges]:
    """Privilege sets for every statement of a program, in order."""
    return [statement_privileges(t, n) for n, t in enumerate(targets)]
