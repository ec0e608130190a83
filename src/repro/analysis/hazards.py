"""RAW/WAR/WAW hazards and the statement dependence graph.

Built from the privilege sets of :mod:`repro.analysis.privileges`, the
:class:`DependenceGraph` records every pair of statements that must stay
ordered and why (which tensor, which dependence kind).  Program order is
always a valid topological order of the graph — edges only ever point
forward — so ``CompiledProgram.execute``'s in-order pass satisfies every
edge by construction; the graph is the *precondition artifact* for any
pass that wants to deviate from program order (the roadmap's
SparseLNR-style fusion).

Two statically detected defect classes also live here:

* :class:`~repro.errors.WriteHazard` — a statement's RHS reads the
  tensor its LHS writes (SpAdd-assembled statements exempt; their
  execution snapshots operands before installing the output pattern);
* :class:`~repro.errors.UnsupportedEinsum` — the statement/schedule
  combination is outside what ``core.compiler`` can lower, predicted
  from the same predicates the compiler raises ``CompileError`` on.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import UnsupportedEinsum, WriteHazard
from .privileges import StatementPrivileges
from .report import Diagnostic, Provenance

__all__ = [
    "Dependence", "DependenceGraph", "build_graph", "detect_hazards",
]

RAW = "RAW"
WAR = "WAR"
WAW = "WAW"


@dataclass(frozen=True)
class Dependence:
    """One ordered pair of statements that must not be reordered."""

    src: int  #: earlier statement (producer side)
    dst: int  #: later statement (consumer side); always ``src < dst``
    kind: str  #: "RAW", "WAR" or "WAW"
    tensor: str  #: name of the tensor carrying the dependence

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.src} -{self.kind}[{self.tensor}]-> {self.dst}"


@dataclass
class DependenceGraph:
    """All dependences of a program, indexed both ways."""

    n_statements: int
    edges: List[Dependence] = field(default_factory=list)

    def predecessors(self, n: int) -> List[int]:
        """Statements that must execute before statement ``n``."""
        return sorted({e.src for e in self.edges if e.dst == n})

    def successors(self, n: int) -> List[int]:
        """Statements that must execute after statement ``n``."""
        return sorted({e.dst for e in self.edges if e.src == n})

    def edges_between(self, src: int, dst: int) -> List[Dependence]:
        return [e for e in self.edges if e.src == src and e.dst == dst]

    def topological_order(self) -> List[int]:
        """A valid execution order.  Program order always qualifies —
        every edge points forward — and it is what the runtime uses."""
        return list(range(self.n_statements))

    def admits_order(self, order: Sequence[int]) -> bool:
        """Whether ``order`` (a permutation of statements) satisfies
        every dependence edge — the check the acceptance criteria run
        against the *observed* execution order."""
        pos = {s: k for k, s in enumerate(order)}
        if len(pos) != self.n_statements:
            return False
        return all(pos[e.src] < pos[e.dst] for e in self.edges)

    def describe(self) -> str:
        if not self.edges:
            return f"dependence graph: {self.n_statements} statements, no edges"
        lines = [f"dependence graph: {self.n_statements} statements"]
        lines.extend(
            f"  {e.src} -{e.kind}[{e.tensor}]-> {e.dst}" for e in self.edges
        )
        return "\n".join(lines)


def build_graph(privs: Sequence[StatementPrivileges]) -> DependenceGraph:
    """Pairwise RAW/WAR/WAW dependences over the privilege sets.

    Tensor identity (not name) decides aliasing, matching how the
    execution engine and the kernel-cache fingerprints treat tensors.
    """
    g = DependenceGraph(n_statements=len(privs))
    for j, later in enumerate(privs):
        reads_j = {id(t) for t in later.read_tensors}
        writes_j = {id(t) for t in later.written_tensors}
        for i in range(j):
            earlier = privs[i]
            for t in earlier.written_tensors:
                if id(t) in reads_j:
                    g.edges.append(Dependence(i, j, RAW, t.name))
                if id(t) in writes_j:
                    g.edges.append(Dependence(i, j, WAW, t.name))
            for t in earlier.read_tensors:
                if id(t) in writes_j:
                    g.edges.append(Dependence(i, j, WAR, t.name))
    return g


def _var_chain(schedule, v) -> str:
    """Render a loop variable with its derived -> underlying provenance."""
    unders = schedule.underlying_vars(v)
    if len(unders) == 1 and unders[0] is v:
        return v.name
    return f"{v.name}<-{','.join(u.name for u in unders)}"


def _write_hazards(privs: Sequence[StatementPrivileges]) -> List[Diagnostic]:
    out = []
    for p in privs:
        if p.write_kind == "assemble":
            # SpAdd snapshots every operand before installing the new
            # output pattern, so A = B + A reads consistent values.
            continue
        asg = p.assignment
        lhs_t = asg.lhs.tensor
        for acc in asg.rhs.accesses():
            if acc.tensor is not lhs_t:
                continue
            if tuple(acc.indices) == tuple(asg.lhs.indices):
                # Pointwise self-reference (a(i) = a(i) * x(i)): every
                # iteration reads only the element it writes, which the
                # in-order leaf loops execute correctly.
                continue
            vars_ = tuple(
                v.name for v in dict.fromkeys(
                    tuple(asg.lhs.indices) + tuple(acc.indices)
                )
            )
            out.append(Diagnostic(
                severity="error",
                error_type=WriteHazard,
                message=(
                    f"statement reads {lhs_t.name}"
                    f"({', '.join(v.name for v in acc.indices)}) while "
                    f"writing {lhs_t.name}"
                    f"({', '.join(v.name for v in asg.lhs.indices)}) — "
                    "iterations would observe partially updated values"
                ),
                provenance=Provenance(
                    statement=p.index,
                    statement_repr=repr(asg),
                    tensor=lhs_t.name,
                    loop_vars=vars_,
                ),
            ))
            break  # one diagnostic per statement is enough
    return out


def _unsupported(privs: Sequence[StatementPrivileges]) -> List[Diagnostic]:
    """Statically predict the ``CompileError``s of ``core.compiler``."""
    from ..core.assembly import pattern_source
    from ..core.kernelspec import SPECS, classify

    out = []
    for p in privs:
        asg = p.assignment
        sched = p.schedule
        prov = lambda tensor=None, vars_=(): Provenance(  # noqa: E731
            statement=p.index, statement_repr=repr(asg),
            tensor=tensor, loop_vars=vars_,
        )

        def diag(message, tensor=None, vars_=()):
            out.append(Diagnostic(
                severity="error", error_type=UnsupportedEinsum,
                message=message, provenance=prov(tensor, vars_),
            ))

        spec = SPECS[classify(asg).kind]
        if (
            spec.adopts_pattern
            and not asg.lhs.tensor.format.is_all_dense()
            and pattern_source(asg) is None
        ):
            diag(
                f"{spec.kind}-engine statement with a sparse output needs a "
                "pattern-preserving RHS (no pattern source found)",
                tensor=asg.lhs.tensor.name,
            )
            continue
        if sched is None:
            continue
        dvars = list(sched.distributed)
        nonzero = [v for v in dvars if sched.is_position_var(v)]
        if len(nonzero) > 1:
            diag(
                "at most one non-zero distributed variable is supported",
                vars_=tuple(_var_chain(sched, v) for v in nonzero),
            )
            continue
        if nonzero and len(dvars) != 1:
            diag(
                "non-zero distribution cannot be combined with other "
                "distributed variables",
                vars_=tuple(_var_chain(sched, v) for v in dvars),
            )
            continue
        if nonzero and "nonzeros" not in spec.strategies:
            diag(
                f"the {spec.kind} engine only supports coordinate (universe) "
                "distribution, not non-zero splits",
                vars_=(_var_chain(sched, nonzero[0]),),
            )
            continue
        if dvars and not nonzero:
            fused = [
                v for v in dvars if len(sched.underlying_vars(v)) != 1
            ]
            if fused:
                diag(
                    "universe distribution of fused variables is not "
                    "supported; use a non-zero partition for fused "
                    "dimensions",
                    vars_=tuple(_var_chain(sched, v) for v in fused),
                )
    return out


def detect_hazards(
    privs: Sequence[StatementPrivileges],
) -> List[Diagnostic]:
    """All WriteHazard / UnsupportedEinsum diagnostics of a program."""
    return _write_hazards(privs) + _unsupported(privs)
