"""The kernel table: what each kernel kind *is*, written once.

SpDISTAL keeps the expression, the formats, the data distribution and the
computation distribution as separate descriptions and lets the compiler
combine them.  This module is the one place that describes a kernel
*kind* — ``spmv``, ``spmm``, ``sddmm``, ``fused_sddmm_spmm``, ``spttv``,
``spmttkrp``, ``spadd`` and the ``generic`` fallback — and every other
layer derives its behaviour from the entry in :data:`SPECS` instead of
keeping its own switch over kind names (the shape of Chou et al.'s format
abstraction: declare a capability once, derive every consumer):

===========================  ==========================================
consumer                     reads
===========================  ==========================================
:func:`classify`             ``match`` — the statement pattern
``api.autoschedule``         ``strategies``, ``cpu_default`` /
                             ``gpu_default``
``core.compiler``            ``accumulating`` (zero the output before
                             launch), ``adopts_pattern``, ``assembles``,
                             :meth:`KernelSpec.interp_leaf`
``codegen``                  ``bound``, :meth:`KernelSpec.bind_args`
``analysis.costmodel``       :meth:`KernelSpec.work_model`, ``exact``
``tools/check.py``           ``formats`` × ``strategies`` (the sweeps'
                             workloads — never read by dispatch)
===========================  ==========================================

A format is a stack of level types, and nothing here names one: a
specialized kind's ``match`` states, besides the statement pattern, a
*predicate over level types* — what its leaf can walk (:func:`_walkable`:
levels in tensor-mode order, a dense root, a compressed last level) **and
where its output is indexed** (SpTTV writes one value per fiber position,
so its output must share B's first two levels, or be the row-major dense
matrix a dense level 1 makes the same positions).  Whatever fails the
predicate is ``generic``, which computes every stack correctly.  What does
match is resolved through the iteration level functions of
:mod:`repro.taco.tensor` (``positions_under`` for the range a row piece
covers, ``coords_of`` for coordinates), so adding a level type means
adding a level class, not editing this table.

A specialized kind states its leaf once: ``operands`` — the raw arrays
(for SpMTTKRP also the ``coords`` resolver), in the order both the
reference kernel and the bind function in :mod:`repro.kernels` take them;
``row_columns`` — what the row pieces hand the leaf when that is not
their row ranges (a column window, the segments or positions their rows
cover), as columns over the pieces; ``reference`` — the interpreter
reference kernel per strategy; ``bound`` — the bind function per
strategy (the bound leaf: one call that hoists a kernel's scaffolding
into flat per-piece thunks); ``work`` — the
:class:`~repro.legion.machine.Work` that kernel reports, from the
operands' *pattern* alone (``pos`` rects and level sizes, never values),
computed for every piece at once as :class:`~repro.legion.machine.Works`
columns.
``shape`` names how the leaf iterates; kinds that iterate alike (SpMV over
rows, SpTTV over fibers) share one shape and with it the bind function,
the interpreter leaves and the loop-nest reference.  A kind with no
``bound`` entry (SpAdd's assembly, ``generic``) runs its interpreter leaf.
The cost model prices ``work``; the binder freezes it as columns beside
the piece tuples handed to the bind function (a piece's thunk returns its
row, the launch thunk the columns), so bound leaves carry no formulas.
Work formulas therefore live in exactly two places — the
reference kernels (the differential oracle) and here.

Adding a kind is one entry here, a bind function in ``repro.kernels``
unless it reuses an existing shape, and tests; see ``docs/codegen.md``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels as K
from ..errors import CompileError, FormatError
from ..legion.machine import ProcKind, Work, Works
from ..taco.expr import Access, Assignment, Mul
from ..taco.formats import CSF3, CSR, DDC, Format
from ..taco.reference import var_sizes
from ..taco.tensor import Tensor
from . import cache as _cache
from .assembly import pattern_source

__all__ = [
    "KernelClass", "KernelSpec", "SPECS", "classify", "template_key",
]

F8 = 8  # bytes per float64 / int64, as in repro.kernels


@dataclass
class KernelClass:
    """A statement matched to a kind: the accesses playing each role."""

    kind: str
    roles: Dict[str, Access] = field(default_factory=dict)
    operands: List[Access] = field(default_factory=list)  # spadd only


# --------------------------------------------------------------------------- #
# pattern helpers shared by the Work models
# --------------------------------------------------------------------------- #
def _pairs(pieces, attr: str) -> Tuple[np.ndarray, np.ndarray]:
    """Every piece's ``(lo, hi)`` ``attr`` as two int64 columns."""
    b = np.array([getattr(p, attr) for p in pieces], dtype=np.int64).reshape(-1, 2)
    return b[:, 0], b[:, 1]


def _rows_nnz(pos: np.ndarray, r0: np.ndarray, r1: np.ndarray, live: np.ndarray) -> np.ndarray:
    """nnz of each live piece's entries [r0, r1] (0 elsewhere) of a level
    :func:`_segments` has checked packed: their lengths (none negative)
    telescope to one difference."""
    if not live.any():
        return np.zeros(len(live), dtype=np.int64)
    return np.where(live, pos[np.where(live, r1, 0), 1] - pos[np.where(live, r0, 0), 0] + 1, 0)


def _span(starts: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """How many parent entries each position range ``[p0, p1]`` touches:
    from the owner of ``p0`` to the owner of ``p1``
    (:func:`repro.kernels.row_of_positions`)."""
    return starts.searchsorted(p1, side="right") - starts.searchsorted(p0, side="right") + 1


def _mode_ordered(tensor: Tensor) -> bool:
    """Levels are stored in tensor-mode order (CSR, not CSC)."""
    return tensor.format.mode_ordering == tuple(range(tensor.order))


def _segments(B: Tensor) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pos, crd, vals)`` of B's last level for a leaf that reduces its
    segments.  Those leaves read a segment's end off its successor's
    start, so the level must be packed — checked here, where the region
    has a name, before either backend derives its ``indptr``."""
    last = B.levels[-1]
    K.check_packed(last.pos.data, last.pos.name)
    return last.pos.data, last.crd.data, B.vals.data


def _walkable(B: Tensor) -> bool:
    """What every specialized leaf can walk, by level types alone: levels
    stored in tensor-mode order, a dense root — a row piece's coordinate
    range *is* its root position range — and a compressed last level whose
    segments the leaf reduces.  Levels in between may be of either type;
    the level functions walk them."""
    levels = B.levels
    return (
        len(levels) > 1
        and _mode_ordered(B)
        and levels[0].is_dense
        and not levels[-1].is_dense
    )


# --------------------------------------------------------------------------- #
# the spec
# --------------------------------------------------------------------------- #
class KernelSpec:
    """One kernel kind.  Subclasses override only what differs."""

    kind: str
    #: legal distribution strategies.
    strategies: Tuple[str, ...] = ("rows",)
    #: the auto-scheduler's choice on GPU machines / on every other kind.
    cpu_default: str = "rows"
    gpu_default: str = "rows"
    #: formats the sweeps (``tools/check.py``, the differential oracles)
    #: build this kind's workloads in.  Dispatch never reads it: what a
    #: leaf serves is decided by ``match`` from level types.
    formats: Tuple[Format, ...] = ()
    #: strategies whose pieces *add* into shared output rows, so the
    #: output is zeroed before every launch.
    accumulating: Tuple[str, ...] = ()
    #: a sparse output takes its pattern from the operand
    #: :func:`~repro.core.assembly.pattern_source` names.
    adopts_pattern: bool = False
    #: the output's pattern is assembled (symbolic → scan → fill launches
    #: each execute) instead of written by one compute launch.
    assembles: bool = False
    #: the Work model mirrors the leaf's own accounting.
    exact: bool = True

    def default_strategy(self, proc_kind: ProcKind) -> str:
        return self.gpu_default if proc_kind == ProcKind.GPU else self.cpu_default

    def needs_zero(self, ck) -> bool:
        return ck.strategy in self.accumulating

    @property
    def shape(self) -> str:
        """How the leaf iterates — with the strategy, the key of its bound
        leaf.  Kinds that iterate alike share one."""
        return self.kind

    def template_keys(self) -> List[Tuple[str, str]]:
        """The ``(shape, strategy)`` keys of this kind's bound leaves."""
        return [(self.shape, s) for s in self.bound]

    # -- statement pattern ---------------------------------------------------
    def match(
        self, lhs: Access, B: Access, dense: Sequence[Access]
    ) -> Optional[Dict[str, Access]]:
        """Roles when ``lhs = B * dense...`` (one sparse operand ``B``) is
        this kind — the statement pattern, a level stack the leaf can
        walk, an output indexed the way the leaf writes it — else None."""
        return None

    # -- the leaf, stated once -------------------------------------------------
    #: strategy -> the reference kernel in :mod:`repro.kernels`, called as
    #: ``fn(*operands, *range arguments)``.
    reference: Dict[str, Callable[..., Work]] = {}
    #: strategy -> the bind function in :mod:`repro.kernels`, called as
    #: ``fn(*operands, pieces, accumulate)`` (:meth:`bind_args`; whether the
    #: strategy is ``accumulating``); empty: the leaf runs in the interpreter.
    bound: Dict[str, Callable] = {}

    def operands(self, ck) -> tuple:
        """The raw arrays, in reference-kernel / ``bind`` order."""
        raise NotImplementedError

    def columns(self, ck) -> tuple:
        """Every piece's range arguments as columns, in piece order: its
        non-zero position range under ``nonzeros``, what
        :meth:`row_columns` says otherwise.  A column is an int64 array, or
        a list where the argument is no number (a ``grid`` column window)."""
        if ck.strategy == "nonzeros":
            return _pairs(ck.pieces, "pos")
        return self.row_columns(ck)

    def row_columns(self, ck) -> tuple:
        """What the row-distributed pieces hand the leaf.  Default: their rows."""
        return _pairs(ck.pieces, "rows")

    def piece_args(self, ck, columns: Optional[tuple] = None) -> List[tuple]:
        """Every piece's ``(color, *range arguments)`` (of ``columns``,
        default :meth:`columns`)."""
        columns = self.columns(ck) if columns is None else columns
        return list(zip([p.color for p in ck.pieces],
                        *(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))

    def leaf(self, args: tuple, strategy: str) -> Callable[..., Work]:
        """The reference kernel over one piece's range arguments."""
        fn = self.reference[strategy]
        return lambda *rng: fn(*args, *rng)

    def work(self, args: tuple, strategy: str) -> Callable[..., Works]:
        """The Work :meth:`leaf` reports, from the operands' pattern: range
        argument columns -> every piece's Work, as columns."""
        raise NotImplementedError

    # -- what the consumers call -------------------------------------------------
    def interp_leaf(self, ck) -> Callable[[object], Work]:
        """The interpreter leaf: piece -> Work, running the reference kernel."""
        run = self.leaf(self.operands(ck), ck.strategy)
        args_of = {a[0]: a[1:] for a in self.piece_args(ck)}
        return lambda p: run(*args_of[p.color])

    def work_model(self, ck) -> Callable[[str], Works]:
        """A launch's name (a step of ``CompiledKernel.launches``) -> the
        Work every piece's leaf task will report, in piece order."""
        works = self.work(self.operands(ck), ck.strategy)(*self.columns(ck))
        return lambda _name: works

    def bind_args(self, ck) -> Tuple[tuple, list, Works]:
        """What a bind function takes — the raw arrays and one ``(color,
        *range arguments)`` tuple per piece — and every piece's Work, frozen
        as columns."""
        args, columns = self.operands(ck), self.columns(ck)
        return args, self.piece_args(ck, columns), self.work(args, ck.strategy)(*columns)


class _SegDot(KernelSpec):
    """One dot product per segment of B's last level against a dense
    vector ``c`` — the iteration shape SpMV (a segment is a row) and SpTTV
    (a segment is an ``(i, j)`` fiber) share.  A row piece hands the leaf
    the segments its rows cover; ``out`` is flat, one slot per segment."""

    shape = "segdot"
    strategies = ("rows", "nonzeros")
    accumulating = ("nonzeros",)
    reference = {"rows": K.spmv_rows, "nonzeros": K.spmv_nonzeros}
    bound = {"rows": K.segdot_bind, "nonzeros": K.segdot_bind}

    def operands(self, ck):
        return (
            *_segments(ck.roles["B"].tensor),
            ck.roles["c"].tensor.dense_array(),
            ck.out.vals.data.reshape(-1),
        )

    def row_columns(self, ck):
        B = ck.roles["B"].tensor
        return B.positions_under(*_pairs(ck.pieces, "rows"), B.order - 2)

    def work(self, args, strategy):
        """Two flops and three words per non-zero, two words per segment
        written; a row piece with no non-zero writes its zero fill."""
        pos = args[0]

        if strategy == "nonzeros":
            starts = np.ascontiguousarray(pos[:, 0])

            def work(p0, p1):
                live = p1 >= p0
                nnz = np.where(live, p1 - p0 + 1, 0)
                nseg = np.where(live, _span(starts, p0, p1), 0)
                return Works(2.0 * nnz, nnz * 3 * F8 + nseg * 2 * F8)

            return work

        def work(s0, s1):
            live = s1 >= s0
            nnz, nseg = _rows_nnz(pos, s0, s1, live), s1 - s0 + 1
            return Works(2.0 * nnz, np.where(
                nnz > 0, nnz * 3 * F8 + nseg * 2 * F8, np.where(live, nseg * F8, 0)))

        return work


class _SpMV(_SegDot):
    """``a(i) = B(i,j) * c(j)``, dense ``a``."""

    kind = "spmv"
    formats = (CSR,)

    def match(self, lhs, B, dense):
        if B.tensor.order != 2 or len(dense) != 1:
            return None
        d, bi = dense[0], B.indices
        if (
            d.tensor.order == 1
            and lhs.indices == (bi[0],)
            and d.indices == (bi[1],)
            and lhs.tensor.format.is_all_dense()
        ):
            return {"B": B, "c": d}
        return None


def _spmm_rows_window(pos, crd, vals, C, out, r0, r1, cols=None) -> Work:
    """:func:`repro.kernels.spmm_rows` on a column window of C and A."""
    if cols is not None:
        C, out = C[:, cols[0] : cols[1] + 1], out[:, cols[0] : cols[1] + 1]
    return K.spmm_rows(pos, crd, vals, C, out, r0, r1)


class _SpMM(KernelSpec):
    """``A(i,j) = B(i,k) * C(k,j)``, dense A; ``grid`` tiles A's columns,
    so the row leaf also takes the piece's column window."""

    kind = "spmm"
    strategies = ("rows", "nonzeros", "grid")
    gpu_default = "nonzeros"
    formats = (CSR,)
    accumulating = ("nonzeros",)
    reference = {
        "rows": _spmm_rows_window, "grid": _spmm_rows_window,
        "nonzeros": K.spmm_nonzeros,
    }
    bound = {"rows": K.spmm_bind, "grid": K.spmm_bind, "nonzeros": K.spmm_bind}

    def match(self, lhs, B, dense):
        if B.tensor.order != 2 or len(dense) != 1:
            return None
        d, bi = dense[0], B.indices
        if (
            d.tensor.order == 2
            and len(lhs.indices) == 2
            and lhs.indices[0] == bi[0]
            and d.indices == (bi[1], lhs.indices[1])
            and lhs.tensor.format.is_all_dense()
        ):
            return {"B": B, "C": d}
        return None

    def operands(self, ck):
        return (
            *_segments(ck.roles["B"].tensor),
            ck.roles["C"].tensor.dense_array(),
            ck.out.dense_array(),
        )

    def row_columns(self, ck):
        return (*_pairs(ck.pieces, "rows"), [p.cols for p in ck.pieces])

    def work(self, args, strategy):
        pos, full_k = args[0], args[3].shape[1]

        def formula(nnz, nr, k) -> Works:
            return Works(2.0 * nnz * k, nnz * (2 * F8 + F8 * k) + nr * k * F8)

        if strategy == "nonzeros":
            starts = np.ascontiguousarray(pos[:, 0])

            def work(p0, p1):
                live = p1 >= p0
                return formula(np.where(live, p1 - p0 + 1, 0),
                               np.where(live, _span(starts, p0, p1), 0), full_k)

            return work

        def work(r0, r1, cols=None):
            live = r1 >= r0
            k = full_k if cols is None else np.array(
                [full_k if c is None else c[1] - c[0] + 1 for c in cols], dtype=np.int64)
            return formula(_rows_nnz(pos, r0, r1, live), np.where(live, r1 - r0 + 1, 0), k)

        return work


class _SDDMM(KernelSpec):
    """``A(i,j) = B(i,j) * C(i,k) * D(k,j)``; A keeps B's pattern."""

    kind = "sddmm"
    strategies = ("rows", "nonzeros")
    # Statically load balanced: the paper's choice on both processor kinds.
    cpu_default = gpu_default = "nonzeros"
    formats = (CSR,)
    adopts_pattern = True
    reference = {"rows": K.sddmm_rows, "nonzeros": K.sddmm_nonzeros}
    bound = {"rows": K.sddmm_rows_bind, "nonzeros": K.sddmm_nonzeros_bind}

    def match(self, lhs, B, dense):
        bi = B.indices
        if (
            B.tensor.order != 2
            or len(dense) != 2
            or lhs.indices != bi
            or lhs.tensor.format.is_all_dense()
        ):
            return None
        C = next((d for d in dense if d.indices and d.indices[0] == bi[0]), None)
        D = next((d for d in dense if d.indices and d.indices[-1] == bi[1]), None)
        if C is not None and D is not None and C is not D and C.indices[1] == D.indices[0]:
            return {"B": B, "C": C, "D": D}
        return None

    def operands(self, ck):
        return (
            *ck.roles["B"].tensor.csr_arrays(),
            ck.roles["C"].tensor.dense_array(),
            ck.roles["D"].tensor.dense_array(),
            ck.out.vals.data,
        )

    def work(self, args, strategy):
        pos, k = args[0], args[3].shape[1]

        def positions(p0, p1):
            nnz = np.where(p1 >= p0, p1 - p0 + 1, 0)
            return Works(2.0 * nnz * k + nnz, nnz * (2 * k + 4) * F8)

        if strategy == "nonzeros":
            return positions

        def rows(r0, r1):
            live = r1 >= r0
            if not live.any():
                return positions(r0, r1)
            return positions(np.where(live, pos[np.where(live, r0, 0), 0], 0),
                             np.where(live, pos[np.where(live, r1, 0), 1], -1))

        return rows


class _FusedSDDMMSpMM(KernelSpec):
    """``H(i,l) = (B(i,j) * C(i,k) * D(k,j)) * F(j,l)`` — the statement the
    pass pipeline (:mod:`repro.core.passes`) synthesizes and tags through
    ``asg.fused_class``.  The SDDMM product lives in a scratch values
    array private to the leaf — never a region, never placed, never
    communicated — and the leaf and its Work are the SDDMM's followed by
    the SpMM's over the same piece bounds.
    """

    kind = "fused_sddmm_spmm"
    strategies = ("rows", "nonzeros")
    cpu_default = gpu_default = "nonzeros"  # inherits SDDMM's balanced split
    formats = (CSR,)
    accumulating = ("nonzeros",)
    bound = {"rows": K.fused_sddmm_spmm_bind, "nonzeros": K.fused_sddmm_spmm_bind}

    def operands(self, ck):
        roles = ck.roles
        return (
            *_segments(roles["B"].tensor),
            *(roles[r].tensor.dense_array() for r in "CDF"),
            ck.out.dense_array(),
        )

    @staticmethod
    def _phases(args, scratch=None):
        pos, crd, vals, C, D, F, out = args
        return (pos, crd, vals, C, D, scratch), (pos, crd, scratch, F, out)

    def leaf(self, args, strategy):
        sddmm, spmm = self._phases(args, np.zeros_like(args[2]))
        first = SPECS["sddmm"].leaf(sddmm, strategy)
        then = SPECS["spmm"].leaf(spmm, strategy)
        return lambda lo, hi: first(lo, hi) + then(lo, hi)

    def work(self, args, strategy):
        sddmm, spmm = self._phases(args)
        first = SPECS["sddmm"].work(sddmm, strategy)
        then = SPECS["spmm"].work(spmm, strategy)
        return lambda lo, hi: first(lo, hi) + then(lo, hi)


class _SpTTV(_SegDot):
    """``A(i,j) = B(i,j,k) * c(k)``.  The leaf writes one value per
    position of B's level 1 (a fiber), so A must be indexed by those
    positions: a sparse A adopts B's first two levels before the leaf
    runs, and a dense A is indexed ``i * n1 + j`` — the fiber position
    exactly when level 1 is dense too and A is stored row-major."""

    kind = "spttv"
    gpu_default = "nonzeros"
    formats = (CSF3, DDC)
    adopts_pattern = True

    def match(self, lhs, B, dense):
        bi = B.indices
        if B.tensor.order != 3 or len(dense) != 1 or dense[0].tensor.order != 1:
            return None
        if tuple(lhs.indices) != tuple(bi[:2]) or dense[0].indices != (bi[2],):
            return None
        A = lhs.tensor
        if not _mode_ordered(A):
            return None
        if A.format.is_all_dense() and not B.tensor.levels[1].is_dense:
            return None
        return {"B": B, "c": dense[0]}


class _SpMTTKRP(KernelSpec):
    """``A(i,l) = B(i,j,k) * C(j,l) * D(k,l)``, dense A.  Both strategies
    hand the leaf a range of leaf positions, whose fibers' ``(i, j)`` it
    finds through B's level functions; ``rows`` also hands it the row
    block it owns and overwrites, ``nonzeros`` splits rows across pieces
    and accumulates."""

    kind = "spmttkrp"
    strategies = ("rows", "nonzeros")
    gpu_default = "nonzeros"
    formats = (CSF3, DDC)
    accumulating = ("nonzeros",)
    reference = {"rows": K.spmttkrp, "nonzeros": K.spmttkrp}
    bound = {"rows": K.spmttkrp_bind, "nonzeros": K.spmttkrp_bind}

    def match(self, lhs, B, dense):
        bi = B.indices
        if (
            B.tensor.order != 3
            or len(dense) != 2
            or not all(d.tensor.order == 2 for d in dense)
            or len(lhs.indices) != 2
            or lhs.indices[0] != bi[0]
            or not lhs.tensor.format.is_all_dense()
        ):
            return None
        l = lhs.indices[1]
        C = next((d for d in dense if d.indices == (bi[1], l)), None)
        D = next((d for d in dense if d.indices == (bi[2], l)), None)
        if C is not None and D is not None:
            return {"B": B, "C": C, "D": D}
        return None

    def operands(self, ck):
        B = ck.roles["B"].tensor
        return (
            *_segments(B), B.coords_of,
            ck.roles["C"].tensor.dense_array(),
            ck.roles["D"].tensor.dense_array(),
            ck.out.dense_array(),
        )

    def columns(self, ck):
        """``(p0, p1, rows)``: each piece's leaf positions and the row block
        a row piece owns (None for a non-zero piece)."""
        if ck.strategy == "nonzeros":
            return (*_pairs(ck.pieces, "pos"), [None] * len(ck.pieces))
        B = ck.roles["B"].tensor
        return (*B.positions_under(*_pairs(ck.pieces, "rows"), B.order - 1),
                [p.rows for p in ck.pieces])

    def work(self, args, strategy):
        """The per-non-zero loop nest's Work: three flops and ``2l + 3``
        words per non-zero, plus ``l`` words per row from its first
        non-zero's row to its last's."""
        coords, l = args[3], args[4].shape[1]

        def work(p0, p1, _rows):
            live = p1 >= p0
            nnz, nrows = np.where(live, p1 - p0 + 1, 0), np.zeros(len(live), dtype=np.int64)
            if live.any():
                i = coords(np.concatenate([p0[live], p1[live]]))[0]
                nrows[live] = i[live.sum():] - i[:live.sum()] + 1
            return Works(3.0 * nnz * l, nnz * (2 * l + 3) * F8 + nrows * l * F8)

        return work


class _SpAdd(KernelSpec):
    """``A(i,j) = B(i,j) + C(i,j) + ...`` into a sparse A whose pattern is
    unknown until the operands are merged (paper §V-B).  The merge is the
    kernel's assembly plan, redone only when an operand's pattern changes;
    the symbolic and fill launches that read it are steps of
    ``CompiledKernel.launches``, and its Work model keys on their names."""

    kind = "spadd"
    formats = (CSR,)
    assembles = True

    def operand_tensors(self, ck) -> List[Tensor]:
        """The tensors the assembly reads: the summed operands, plus the
        output itself under ``accumulate`` sugar that stripped it."""
        out = ck.out
        tensors = [o.tensor for o in ck.operands]
        if ck.schedule.assignment.accumulate and all(t is not out for t in tensors):
            tensors.append(out)
        return tensors

    def work_model(self, ck):
        pieces = ck.assembly_plan().pieces
        touched, merged = (np.array([size(pieces[p.color]) for p in ck.pieces], dtype=np.int64)
                           for size in (lambda q: q.inverse.size, lambda q: q.crd.size))
        symbolic = Works(touched, touched * 2 * F8)
        fill = Works(touched, touched * 3 * F8 + merged * 2 * F8)
        return lambda name: symbolic if name == "spadd:symbolic" else fill


class _Generic(KernelSpec):
    """Everything else: the generic COO engine per piece (paper: full
    generality).  Its real work depends on intermediate result sizes, so
    the Work model is an estimate."""

    kind = "generic"
    adopts_pattern = True
    exact = False

    def needs_zero(self, ck) -> bool:
        # The engine scatter-*adds* piece results into the output under
        # every strategy, so a repeated execute must start from zero.
        return not ck.schedule.assignment.accumulate

    def work_model(self, ck):
        """The statement's stored entries spread evenly across pieces, at
        the engine's 24 bytes per touched entry."""
        touched = 0
        for t in ck.parts:
            if t is ck.out:
                continue
            touched += t.nnz if not t.format.is_all_dense() else int(np.prod(t.shape))
        n = len(ck.pieces)
        per_piece = float(touched) / max(1, n)
        works = Works(np.full(n, 2.0 * per_piece), np.full(n, per_piece * 24.0))
        return lambda _name: works

    def interp_leaf(self, ck):
        asg = ck.schedule.assignment
        sizes = var_sizes(asg)
        out = ck.out
        if not out.format.is_all_dense() and pattern_source(asg) is None:
            raise CompileError(
                "generic distributed lowering requires a dense output or a "
                "pattern-preserving statement"
            )
        dvars = ck.schedule.distributed
        if dvars and ck.strategy not in self.strategies:
            raise CompileError(
                "the generic engine only supports coordinate (universe) "
                "distribution; schedule a specialized kernel for non-zero splits"
            )
        restrict_var = ck.schedule.underlying_vars(dvars[0])[0] if dvars else None
        dense_out = out.format.is_all_dense()
        o = out.dense_array() if dense_out else None
        flat = K.fits_int64(out.shape)
        # the stored pattern — (pattern_version, coordinates, sorted flat
        # keys) — read once per bind, again only when the version moves
        stored = [None, None, None]

        def flatten(coords) -> np.ndarray:
            key = np.zeros(len(coords[0]), dtype=np.int64)
            for d in range(out.order):
                key = key * out.shape[d] + coords[d]
            return key

        def piece(p) -> Work:
            restrict = {restrict_var: p.rows} if restrict_var is not None else None
            result, work = K.evaluate_generic(asg, sizes, restrict)
            if dense_out:
                if result.nnz:
                    np.add.at(o, tuple(result.coords), result.vals)
                return work
            # pattern-preserving sparse output: scatter into stored positions
            if stored[0] != out.pattern_version:
                coords = np.stack(out.to_coo()[0])
                keys = flatten(coords) if flat else None
                stored[:] = out.pattern_version, coords, keys
            _, coords, key_stored = stored
            if flat:
                key_new = flatten(result.coords)
            else:
                # Huge dimension products overflow the flattened key; rank
                # stored and new coordinates jointly instead.
                ranks = K.lex_ranks(
                    np.concatenate([coords, np.asarray(result.coords)], axis=1))
                key_stored, key_new = ranks[: out.nnz], ranks[out.nnz :]
            idx = np.searchsorted(key_stored, key_new)
            held = idx < key_stored.size
            held[held] = key_stored[idx[held]] == key_new[held]
            if not held.all():
                miss = [int(c[~held][0]) for c in result.coords]
                raise FormatError(
                    f"statement {asg} writes {out.name}{miss}, which "
                    f"{out.name}'s stored pattern does not hold"
                )
            out.vals.data.reshape(-1)[idx] += result.vals
            return work

        return piece


#: the table, in match order (``generic`` matches whatever is left).
SPECS: Dict[str, KernelSpec] = {
    s.kind: s
    for s in (
        _SpMV(), _SpMM(), _SDDMM(), _FusedSDDMMSpMM(), _SpTTV(), _SpMTTKRP(),
        _SpAdd(), _Generic(),
    )
}


def classify(asg: Assignment) -> KernelClass:
    """Match the statement against the table's patterns."""
    fused = getattr(asg, "fused_class", None)
    if fused is not None:
        # A pipeline-synthesized statement (repro.core.passes) carries its
        # class explicitly — its 4-access Mul would otherwise match
        # nothing.  Honoring it here makes the compiler, the autoscheduler,
        # the hazard analyzer and the communication planner all see the
        # fused kind through their ordinary classify() entry points.
        return fused
    if _cache.is_assembled_output(asg):
        # The one predicate is shared with the kernel fingerprint, which
        # must exclude the LHS pattern version for exactly these statements.
        return KernelClass(_SpAdd.kind, operands=list(asg.rhs.operands))
    operands = list(asg.rhs.operands) if isinstance(asg.rhs, Mul) else [asg.rhs]
    if all(isinstance(o, Access) for o in operands):
        sparse = [o for o in operands if o.tensor.format.has_compressed()]
        # Every specialized leaf walks the same stacks today, so the walk
        # half of the predicate is checked once here; each kind's ``match``
        # adds where its output is indexed.  Anything else — a permuted
        # layout (CSC would run on the transpose), a compressed root, a
        # dense last level — takes the generic engine.
        if len(sparse) == 1 and _walkable(sparse[0].tensor):
            dense = [o for o in operands if o is not sparse[0]]
            for spec in SPECS.values():
                roles = spec.match(asg.lhs, sparse[0], dense)
                if roles is not None:
                    return KernelClass(spec.kind, roles)
    return KernelClass(_Generic.kind)


def template_key(ck) -> Optional[Tuple[str, str]]:
    """The (iteration shape, strategy) key of ``ck``'s bound leaf, or None
    when its leaf runs in the interpreter."""
    spec = SPECS[ck.kind]
    if ck.strategy not in spec.bound:
        return None
    return (spec.shape, ck.strategy)
