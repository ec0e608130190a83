"""The scheduling language (paper §II-C).

SpDISTAL composes TACO's sparse iteration-space transformations
(``split``/``divide``/``fuse``/``pos``/``reorder``/``parallelize``/
``precompute``, Senanayake et al.) with DISTAL's distributed commands
(``distribute``/``communicate``).  A :class:`Schedule` records the loop
order, the provenance relations between derived and original index
variables, and the distribution directives; the compiler (``repro.core``)
interprets it.

The non-zero-based SpMV from §II-D looks like::

    s = (a.schedule()
          .fuse(i, j, f)
          .pos(f, fp, B[i, j])
          .divide(fp, fo, fi, pieces)
          .distribute(fo)
          .communicate([a, B, c], fo)
          .parallelize(fi, CPUThread))
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ScheduleError
from .expr import Access, Add, Assignment, Mul
from .index_vars import IndexVar

__all__ = [
    "ParallelUnit",
    "CPUThread",
    "GPUThread",
    "GPUBlock",
    "SplitRel",
    "FuseRel",
    "PosRel",
    "Schedule",
]


class ParallelUnit(Enum):
    CPUThread = "CPUThread"
    GPUThread = "GPUThread"
    GPUBlock = "GPUBlock"


CPUThread = ParallelUnit.CPUThread
GPUThread = ParallelUnit.GPUThread
GPUBlock = ParallelUnit.GPUBlock


@dataclass(frozen=True)
class SplitRel:
    """``parent = outer * chunk + inner``.

    ``split`` fixes the inner extent to ``factor``; ``divide`` fixes the
    *outer* extent to ``factor`` pieces of ``ceil(N / factor)`` each.
    """

    parent: IndexVar
    outer: IndexVar
    inner: IndexVar
    factor: int
    is_divide: bool


@dataclass(frozen=True)
class FuseRel:
    """``fused = a * extent(b) + b`` — collapses two adjacent loops."""

    a: IndexVar
    b: IndexVar
    fused: IndexVar


@dataclass(frozen=True)
class PosRel:
    """Switch ``coord_var`` to the position space of ``access``'s tensor.

    Iteration runs over the non-zero positions of the level that stores the
    innermost dimension covered by ``coord_var`` (Senanayake et al. §3.3),
    enabling statically load-balanced non-zero strip-mining.
    """

    coord_var: IndexVar
    pos_var: IndexVar
    access: Access


Relation = Union[SplitRel, FuseRel, PosRel]


def _forward_expr(expr, a, b):
    """``expr`` with every access of tensor ``a`` reading ``b`` instead."""
    if isinstance(expr, Access):
        return Access(b, expr.indices) if expr.tensor is a else expr
    if isinstance(expr, (Add, Mul)):
        return type(expr)([_forward_expr(o, a, b) for o in expr.operands])
    return expr


#: The fields a schedule's loops, relations and directives live in.
_FIELDS = ("loop_order", "relations", "distributed", "communicated",
           "parallelized", "precomputed")


class Schedule:
    """A scheduled tensor index notation statement.

    A *synthesized* schedule (:func:`repro.api.auto_schedule`) is built on
    first read: it holds its statement, the function that builds its
    fields and a :attr:`synthesis_key`, and the first read of any of the
    six fields runs that function once and publishes all six together.
    """

    #: What built this schedule beyond its statement — the resolved
    #: strategy, its piece count or grid dims and, where synthesis reads
    #: it, the parallel unit — so the kernel cache can key it without
    #: walking its relations (:func:`repro.core.cache.kernel_fingerprint`).
    #: ``None`` for a hand-built schedule, and from the first builder call
    #: made on a synthesized one.
    synthesis_key: Optional[Tuple] = None
    #: Fills a fresh schedule of the same statement; set until first read.
    _synthesize: Optional[Callable[["Schedule"], object]] = None

    def __init__(self, assignment: Assignment):
        self.assignment = assignment
        self.loop_order: List[IndexVar] = list(assignment.index_vars())
        self.relations: List[Relation] = []
        self.distributed: List[IndexVar] = []
        self.communicated: Dict[IndexVar, List] = {}
        self.parallelized: Dict[IndexVar, ParallelUnit] = {}
        self.precomputed: List[Tuple] = []

    @classmethod
    def synthesized(cls, assignment: Assignment, synthesis_key: Tuple,
                    synthesize: Callable[["Schedule"], object]) -> "Schedule":
        """A schedule of ``assignment`` that ``synthesize`` builds, into a
        fresh schedule of the same statement, on first read; keyed by
        ``synthesis_key`` until a builder call edits it."""
        sched = cls.__new__(cls)
        sched.assignment = assignment
        sched.synthesis_key = synthesis_key
        sched._synthesize = synthesize
        sched._lock = threading.Lock()
        return sched

    def __getattr__(self, name):
        # Reached only for a name the instance does not hold: one of the
        # six fields of a synthesized schedule not built when it was looked
        # up (another thread may have published it since, hence no test of
        # ``_synthesize`` here: ``_materialize`` decides under the lock).
        if name in _FIELDS and "_lock" in self.__dict__:
            self._materialize()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def _materialize(self) -> None:
        """Run the pending synthesis once and publish its six fields in one
        ``__dict__`` update, so no reader sees a half-built schedule."""
        with self._lock:
            synthesize = self._synthesize
            if synthesize is None:
                return  # another thread published first
            built = Schedule(self.assignment)
            synthesize(built)
            self.__dict__.update({f: built.__dict__[f] for f in _FIELDS})
            self._synthesize = None

    def _edit(self) -> None:
        """Every builder call starts here: a synthesized schedule is built,
        then keyed by its structure from now on."""
        if self.synthesis_key is not None:
            if self._synthesize is not None:
                self._materialize()
            self.synthesis_key = None

    def __getstate__(self):
        if self._synthesize is not None:
            self._materialize()
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_lock", "_synthesize")}

    def forward_reads(self, a, b) -> "Schedule":
        """A clone of this schedule whose statement reads tensor ``b``
        wherever this one reads ``a`` (copy folding,
        :mod:`repro.core.passes`).

        A structural clone, not a transform replay: this schedule was
        validated when it was built, and the substitution preserves every
        index extent (the fold requires identical shapes), so relations,
        loop order and directives carry over verbatim — only tensor
        references are remapped.  The clone is a different statement, so
        it carries no synthesis key.
        """
        asg = self.assignment
        clone = Schedule.__new__(Schedule)
        clone.assignment = Assignment(
            asg.lhs, _forward_expr(asg.rhs, a, b), accumulate=asg.accumulate)
        clone.loop_order = list(self.loop_order)
        clone.relations = [
            PosRel(r.coord_var, r.pos_var, Access(b, r.access.indices))
            if isinstance(r, PosRel) and r.access.tensor is a
            else r
            for r in self.relations
        ]
        clone.distributed = list(self.distributed)
        clone.communicated = {
            v: [b if t is a else t for t in ts]
            for v, ts in self.communicated.items()
        }
        clone.parallelized = dict(self.parallelized)
        clone.precomputed = [
            (_forward_expr(e, a, b), i, iw, w) for e, i, iw, w in self.precomputed
        ]
        return clone

    # ------------------------------------------------------------------ #
    # transformations (all chainable)
    # ------------------------------------------------------------------ #
    def split(
        self, i: IndexVar, outer: IndexVar, inner: IndexVar, factor: int
    ) -> "Schedule":
        """Strip-mine ``i`` into ``outer`` and ``inner`` of extent ``factor``."""
        self._edit()
        if factor <= 0:
            raise ScheduleError(f"split needs a positive factor, got {factor}")
        self._check_fresh(i, outer, inner)
        self._replace(i, [outer, inner])
        self.relations.append(SplitRel(i, outer, inner, int(factor), is_divide=False))
        return self

    def divide(
        self, i: IndexVar, outer: IndexVar, inner: IndexVar, pieces: int
    ) -> "Schedule":
        """Break ``i`` into ``pieces`` contiguous chunks (outer = chunk id)."""
        self._edit()
        if pieces <= 0:
            raise ScheduleError(f"divide needs a positive piece count, got {pieces}")
        self._check_not_redivided(i)
        self._check_fresh(i, outer, inner)
        self._replace(i, [outer, inner])
        self.relations.append(SplitRel(i, outer, inner, int(pieces), is_divide=True))
        return self

    def fuse(self, i: IndexVar, j: IndexVar, fused: IndexVar) -> "Schedule":
        """Collapse adjacent loops ``i`` (outer) and ``j`` into ``fused``."""
        self._edit()
        pi, pj = self._position(i), self._position(j)
        if pj != pi + 1:
            raise ScheduleError(
                f"fuse requires {i.name} directly outside {j.name}; "
                f"loop order is {[v.name for v in self.loop_order]}"
            )
        self._check_fresh(i, fused)
        self.loop_order[pi : pj + 1] = [fused]
        self.relations.append(FuseRel(i, j, fused))
        return self

    def pos(self, i: IndexVar, pos_var: IndexVar, access: Access) -> "Schedule":
        """Iterate ``i`` over the non-zero positions of ``access``'s tensor."""
        self._edit()
        if access.tensor.format.is_all_dense():
            raise ScheduleError(
                f"pos({i.name}) requires a sparse access, {access.tensor.name} is dense"
            )
        self._check_fresh(i, pos_var)
        self._replace(i, [pos_var])
        self.relations.append(PosRel(i, pos_var, access))
        return self

    def reorder(self, *vars: IndexVar) -> "Schedule":
        """Permute the given loops among the positions they occupy."""
        self._edit()
        if len({id(v) for v in vars}) != len(vars):
            raise ScheduleError("reorder arguments must be distinct")
        positions = sorted(self._position(v) for v in vars)
        for p, v in zip(positions, vars):
            self.loop_order[p] = v
        return self

    def distribute(self, vars: Union[IndexVar, Sequence[IndexVar]]) -> "Schedule":
        """Execute iterations of the target loop(s) on different processors."""
        self._edit()
        if isinstance(vars, IndexVar):
            vars = [vars]
        for v in vars:
            self._position(v)  # validates membership
            if v in self.distributed:
                raise ScheduleError(f"{v.name} is already distributed")
            self.distributed.append(v)
        return self

    def communicate(self, tensors, i: IndexVar) -> "Schedule":
        """Fetch each tensor's needed sub-tensor at iterations of loop ``i``.

        At a distributed loop a piece fetches its sub-tensor once and keeps
        it resident.  At a loop nested inside every distributed loop (later
        than all of them in the loop order) the tensor is *streamed*: each
        piece fetches it in memory-sized rounds and keeps none of it — the
        paper's "SpDISTAL-Batched" (:meth:`streamed`)."""
        self._edit()
        self._position(i)
        if not isinstance(tensors, (list, tuple)):
            tensors = [tensors]
        stmt_tensors = {id(t) for t in self.assignment.tensors()}
        for t in tensors:
            if id(t) not in stmt_tensors:
                raise ScheduleError(f"{t.name} does not appear in the statement")
        self.communicated.setdefault(i, []).extend(tensors)
        return self

    def parallelize(self, i: IndexVar, unit: ParallelUnit = CPUThread) -> "Schedule":
        self._edit()
        self._position(i)
        self.parallelized[i] = unit
        return self

    def precompute(self, expr, i: IndexVar, iw: IndexVar, workspace=None) -> "Schedule":
        """Hoist ``expr`` into a workspace (recorded; leaves exploit it)."""
        self._edit()
        self._position(i)
        self.precomputed.append((expr, i, iw, workspace))
        return self

    # ------------------------------------------------------------------ #
    # provenance queries (used by the distributed compiler)
    # ------------------------------------------------------------------ #
    def _relation_vars(self) -> set:
        """Every variable a recorded relation touches (parents and derived)."""
        out = set()
        for rel in self.relations:
            if isinstance(rel, SplitRel):
                out.update((rel.parent, rel.outer, rel.inner))
            elif isinstance(rel, FuseRel):
                out.update((rel.a, rel.b, rel.fused))
            elif isinstance(rel, PosRel):
                out.update((rel.coord_var, rel.pos_var))
        return out

    def _check_not_redivided(self, parent: IndexVar) -> None:
        """Reject a second ``divide`` over an already-divided dimension.

        ``divide`` fixes the *piece geometry* of the original dimensions the
        parent ranges over; a second divide of the same variable — or of any
        variable *derived* from an already-divided one — would give one
        original dimension two piece counts, which the distributed compiler
        cannot realize (and which ``pieces_of`` would resolve arbitrarily).
        Tiling an already-divided loop is still legal via ``split``.  This
        must hold eagerly so 2-D grid synthesis (two divides over *distinct*
        dimensions) can trust its own preconditions.
        """
        unders = set(self.underlying_vars(parent))
        for rel in self.relations:
            if isinstance(rel, SplitRel) and rel.is_divide:
                clash = unders & set(self.underlying_vars(rel.outer))
                if clash:
                    names = ", ".join(sorted(v.name for v in clash))
                    raise ScheduleError(
                        f"divide({parent.name}) would divide {names} a "
                        f"second time ({rel.parent.name} was already divided "
                        f"into {rel.factor} pieces); each original variable "
                        "can be divided once — use split to tile within a "
                        "piece"
                    )

    def _check_fresh(self, parent: IndexVar, *new: IndexVar) -> None:
        """Eagerly validate derived variables at build time.

        The parent must be a *current loop* of the schedule, and each
        derived variable must be a *fresh* :class:`IndexVar`: not the
        parent, not a current loop, not one an earlier transformation
        already introduced or consumed, and not repeated within the call.
        Raising a typed :class:`ScheduleError` here keeps invalid schedules
        from failing deep inside lowering with an opaque provenance error.
        """
        self._position(parent)  # the parent must still be a live loop
        if len({id(v) for v in new}) != len(new):
            raise ScheduleError(
                f"derived variables must be distinct, got "
                f"{[v.name for v in new]}"
            )
        used = self._relation_vars()
        for v in new:
            if v is parent:
                raise ScheduleError(
                    f"{v.name} cannot be derived from itself"
                )
            if v in self.loop_order:
                raise ScheduleError(
                    f"{v.name} is already a loop of the scheduled statement; "
                    "derived variables must be fresh"
                )
            if v in used:
                raise ScheduleError(
                    f"{v.name} was already used by an earlier transformation; "
                    "derived variables must be fresh"
                )

    def _position(self, v: IndexVar) -> int:
        try:
            return self.loop_order.index(v)
        except ValueError:
            raise ScheduleError(
                f"{v.name} is not a loop of the scheduled statement "
                f"(loops: {[x.name for x in self.loop_order]})"
            ) from None

    def _replace(self, old: IndexVar, new: List[IndexVar]) -> None:
        p = self._position(old)
        self.loop_order[p : p + 1] = new

    def parents_of(self, v: IndexVar) -> List[IndexVar]:
        """Immediate provenance parents of a derived variable."""
        for rel in self.relations:
            if isinstance(rel, SplitRel) and v in (rel.outer, rel.inner):
                return [rel.parent]
            if isinstance(rel, FuseRel) and v is rel.fused:
                return [rel.a, rel.b]
            if isinstance(rel, PosRel) and v is rel.pos_var:
                return [rel.coord_var]
        return []

    def underlying_vars(self, v: IndexVar) -> List[IndexVar]:
        """Original statement variables a derived variable ranges over."""
        parents = self.parents_of(v)
        if not parents:
            return [v]
        out: List[IndexVar] = []
        for p in parents:
            for u in self.underlying_vars(p):
                if u not in out:
                    out.append(u)
        return out

    def pos_relation_of(self, v: IndexVar) -> Optional[PosRel]:
        """The PosRel governing ``v``, if ``v`` derives from a position var."""
        for rel in self.relations:
            if isinstance(rel, PosRel) and v is rel.pos_var:
                return rel
            if isinstance(rel, SplitRel) and v in (rel.outer, rel.inner):
                return self.pos_relation_of(rel.parent)
            if isinstance(rel, FuseRel) and v is rel.fused:
                ra = self.pos_relation_of(rel.a)
                return ra if ra is not None else self.pos_relation_of(rel.b)
        return None

    def streamed(self) -> List:
        """The tensors a ``communicate`` names at a loop nested inside every
        distributed loop (later than all of them in the loop order): each
        piece fetches them in memory-sized rounds and keeps none resident.
        The compiler reads its kernel's streamed set here, and refuses a
        streamed output."""
        if not self.distributed:
            return []
        at = {v: n for n, v in enumerate(self.loop_order)}
        inside = max(at.get(v, len(at)) for v in self.distributed)
        return [t for v, ts in self.communicated.items() if at.get(v, -1) > inside for t in ts]

    def is_position_var(self, v: IndexVar) -> bool:
        """Position (non-zero) iteration vs coordinate (universe) iteration."""
        return self.pos_relation_of(v) is not None

    def divide_rel_of(self, v: IndexVar) -> Optional[SplitRel]:
        for rel in self.relations:
            if isinstance(rel, SplitRel) and v is rel.outer:
                return rel
        return None

    def pieces_of(self, v: IndexVar) -> int:
        """Number of pieces a distributed variable ranges over."""
        rel = self.divide_rel_of(v)
        if rel is not None and rel.is_divide:
            return rel.factor
        raise ScheduleError(
            f"distributed variable {v.name} must come from divide(...) "
            "so the piece count is static"
        )

    def fused_extents(self, v: IndexVar, sizes: Dict[IndexVar, int]) -> int:
        """Extent of (possibly fused/derived) coordinate variable ``v``."""
        for rel in self.relations:
            if isinstance(rel, FuseRel) and v is rel.fused:
                return self.fused_extents(rel.a, sizes) * self.fused_extents(rel.b, sizes)
            if isinstance(rel, SplitRel) and v is rel.inner:
                if rel.is_divide:
                    n = self.fused_extents(rel.parent, sizes)
                    return -(-n // rel.factor)
                return rel.factor
            if isinstance(rel, SplitRel) and v is rel.outer:
                n = self.fused_extents(rel.parent, sizes)
                if rel.is_divide:
                    return rel.factor
                return -(-n // rel.factor)
        if v in sizes:
            return sizes[v]
        raise ScheduleError(f"cannot determine extent of {v.name}")

    def leaf_parallel_unit(self) -> Optional[ParallelUnit]:
        for unit in self.parallelized.values():
            return unit
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Schedule({self.assignment!r}; loops="
            f"{[v.name for v in self.loop_order]}, "
            f"distributed={[v.name for v in self.distributed]})"
        )
