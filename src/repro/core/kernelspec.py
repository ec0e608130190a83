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
``codegen``                  :func:`template_key`,
                             :meth:`KernelSpec.bind_args`
``analysis.costmodel``       :meth:`KernelSpec.work_model`, ``exact``
``tools/check.py``           ``formats`` × ``strategies`` (the sweeps)
===========================  ==========================================

A specialized kind states its leaf once: ``operands`` — the raw arrays,
in the order both the reference kernel in :mod:`repro.kernels` and the
generated module's ``bind`` take them; ``row_bounds`` — what a row piece
hands the leaf when that is not its row range (a column window, the
fibers or positions its rows cover); ``reference`` — the interpreter
reference kernel per strategy; ``work`` — the
:class:`~repro.legion.machine.Work` that kernel reports, from the
operands' *pattern* alone (``pos`` rects and level sizes, never values);
and, through ``formats`` × ``strategies``, the keys of its lowering
templates in :data:`repro.codegen.lowering.TEMPLATES`.
The cost model prices ``work``; the binder freezes ``work`` into each
piece tuple handed to ``bind``, so generated modules carry no formulas.
Work formulas therefore live in exactly two places — the reference
kernels (the differential oracle) and here.

Adding a kind is one entry here, one template per (format × strategy)
in ``codegen/lowering.py``, and tests; see ``docs/codegen.md``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels as K
from ..errors import CompileError
from ..legion.machine import ProcKind, Work
from ..taco.expr import Access, Assignment, Mul
from ..taco.reference import var_sizes
from ..taco.tensor import CompressedLevel, Tensor
from . import cache as _cache
from .assembly import pattern_source

__all__ = [
    "KernelClass", "KernelSpec", "SPECS", "classify", "format_class",
    "template_key",
]

F8 = 8  # bytes per float64 / int64, as in repro.kernels
Bounds = Tuple[int, int]
_EMPTY: Bounds = (0, -1)
#: a piece -> the leaf's range arguments (``(lo, hi)``, plus ``cols`` for
#: the SpMM row leaf).
PieceBounds = Callable[[object], tuple]


@dataclass
class KernelClass:
    """A statement matched to a kind: the accesses playing each role."""

    kind: str
    roles: Dict[str, Access] = field(default_factory=dict)
    operands: List[Access] = field(default_factory=list)  # spadd only


# --------------------------------------------------------------------------- #
# pattern helpers shared by the Work models
# --------------------------------------------------------------------------- #
def _rows_nnz(pos: np.ndarray, r0: int, r1: int) -> int:
    """nnz of entries [r0, r1] the way the row-based leaves count it."""
    lo = pos[r0 : r1 + 1, 0]
    hi = pos[r0 : r1 + 1, 1]
    return int(np.maximum(hi - lo + 1, 0).sum())


def _owner(starts: np.ndarray, p: int) -> int:
    """The parent entry owning position ``p`` (scalar
    :func:`repro.kernels.row_of_positions`)."""
    return int(starts.searchsorted(p, side="right")) - 1


def _span(starts: np.ndarray, p0: int, p1: int) -> int:
    """How many parent entries positions ``[p0, p1]`` touch."""
    return _owner(starts, p1) - _owner(starts, p0) + 1


def _segdot_work(pos: np.ndarray, strategy: str) -> Callable[[int, int], Work]:
    """Segmented dot products — SpMV over rows, SpTTV over fibers: two
    flops and three words per non-zero, two words per segment written."""

    def formula(nnz: int, nseg: int) -> Work:
        return Work(2.0 * nnz, float(nnz * 3 * F8 + nseg * 2 * F8))

    if strategy == "nonzeros":
        starts = np.ascontiguousarray(pos[:, 0])

        def work(p0: int, p1: int) -> Work:
            if p1 < p0:
                return Work.zero()
            return formula(p1 - p0 + 1, _span(starts, p0, p1))

        return work

    def work(s0: int, s1: int) -> Work:
        if s1 < s0:
            return Work.zero()
        nnz = _rows_nnz(pos, s0, s1)
        if nnz == 0:
            return Work(0.0, (s1 - s0 + 1) * F8)  # the zero fill
        return formula(nnz, s1 - s0 + 1)

    return work


def _level_class(tensor: Tensor) -> Optional[str]:
    """csr / csf3 / ddc by level types alone (any mode ordering)."""
    levels = getattr(tensor, "levels", None)
    if not levels or not isinstance(levels[-1], CompressedLevel):
        return None
    if tensor.order == 2 and levels[0].is_dense:
        return "csr"
    if tensor.order == 3:
        return "csf3" if isinstance(levels[1], CompressedLevel) else "ddc"
    return None


def _mode_ordered(tensor: Tensor) -> bool:
    """Levels are stored in tensor-mode order (CSR, not CSC)."""
    return tensor.format.mode_ordering == tuple(range(tensor.order))


def format_class(tensor: Tensor) -> Optional[str]:
    """The lowering format class of a sparse operand, or None.

    Templates and reference kernels index levels positionally as
    row-major storage, so permuted layouts (e.g. CSC's ``(1, 0)``) have no
    class — :func:`classify` sends statements over them to the generic
    engine.
    """
    return _level_class(tensor) if _mode_ordered(tensor) else None


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
    #: format classes of the sparse operand the leaf handles; with
    #: ``strategies`` they key the lowering templates.
    formats: Tuple[str, ...] = ()
    #: no generated template: the leaf always runs in the interpreter.
    interp_only: bool = False
    #: strategies whose pieces *add* into shared output rows, so the
    #: output is zeroed before every launch.
    accumulating: Tuple[str, ...] = ()
    #: a sparse output takes its pattern from the operand
    #: :func:`~repro.core.assembly.pattern_source` names.
    adopts_pattern: bool = False
    #: the output's pattern is assembled anew each execute (symbolic →
    #: scan → fill) instead of one compute launch.
    assembles: bool = False
    #: the Work model mirrors the leaf's own accounting.
    exact: bool = True

    def default_strategy(self, proc_kind: ProcKind) -> str:
        return self.gpu_default if proc_kind == ProcKind.GPU else self.cpu_default

    def needs_zero(self, ck) -> bool:
        return ck.strategy in self.accumulating

    def template_keys(self) -> List[Tuple[str, str, str]]:
        """The ``lowering.TEMPLATES`` keys this kind declares."""
        if self.interp_only:
            return []
        return [(self.kind, f, s) for f in self.formats for s in self.strategies]

    # -- statement pattern ---------------------------------------------------
    def match(
        self, lhs: Access, B: Access, dense: Sequence[Access]
    ) -> Optional[Dict[str, Access]]:
        """Roles when ``lhs = B * dense...`` (one sparse operand ``B``) is
        this kind, else None."""
        return None

    # -- the leaf, stated once -------------------------------------------------
    #: strategy -> the reference kernel in :mod:`repro.kernels`, called as
    #: ``fn(*operands, *range arguments)``.
    reference: Dict[str, Callable[..., Work]] = {}

    def operands(self, ck, fmt: Optional[str]) -> tuple:
        """The raw arrays, in reference-kernel / ``bind`` order."""
        raise NotImplementedError

    def bounds(self, ck, fmt: Optional[str]) -> PieceBounds:
        """Piece -> the leaf's range arguments: its non-zero position range
        under ``nonzeros``, what :meth:`row_bounds` says otherwise."""
        if ck.strategy == "nonzeros":
            return lambda p: p.pos
        return self.row_bounds(ck, fmt)

    def row_bounds(self, ck, fmt: Optional[str]) -> PieceBounds:
        """What a row-distributed piece hands the leaf.  Default: its rows."""
        return lambda p: p.rows

    def leaf(self, args: tuple, fmt, strategy: str) -> Callable[..., Work]:
        """The reference kernel over one piece's range arguments."""
        fn = self.reference[strategy]
        return lambda *rng: fn(*args, *rng)

    def work(self, args: tuple, fmt, strategy: str) -> Callable[..., Work]:
        """The Work :meth:`leaf` reports, from the operands' pattern."""
        raise NotImplementedError

    # -- what the consumers call -------------------------------------------------
    def _lower(self, ck):
        fmt = _level_class(ck.roles["B"].tensor)
        return self.operands(ck, fmt), self.bounds(ck, fmt), fmt

    def interp_leaf(self, ck) -> Callable[[object], Work]:
        """The interpreter leaf: piece -> Work, running the reference kernel."""
        args, bounds, fmt = self._lower(ck)
        run = self.leaf(args, fmt, ck.strategy)
        return lambda p: run(*bounds(p))

    def work_model(self, ck) -> Callable[[str, object], Work]:
        """(phase, piece) -> the Work the leaf task will report."""
        args, bounds, fmt = self._lower(ck)
        work = self.work(args, fmt, ck.strategy)
        return lambda _phase, p: work(*bounds(p))

    def bind_args(self, ck) -> Tuple[tuple, list]:
        """What a generated module's ``bind`` takes: the raw arrays and one
        ``(color, *range arguments, Work)`` tuple per piece."""
        args, bounds, fmt = self._lower(ck)
        work = self.work(args, fmt, ck.strategy)
        pieces = []
        for p in ck.pieces:
            b = bounds(p)
            pieces.append((p.color, *b, work(*b)))
        return args, pieces


class _SpMV(KernelSpec):
    """``a(i) = B(i,j) * c(j)``."""

    kind = "spmv"
    strategies = ("rows", "nonzeros")
    formats = ("csr",)
    accumulating = ("nonzeros",)
    reference = {"rows": K.spmv_rows, "nonzeros": K.spmv_nonzeros}

    def match(self, lhs, B, dense):
        if B.tensor.order != 2 or len(dense) != 1:
            return None
        d, bi = dense[0], B.indices
        if d.tensor.order == 1 and lhs.indices == (bi[0],) and d.indices == (bi[1],):
            return {"B": B, "c": d}
        return None

    def operands(self, ck, fmt):
        return (
            *ck.roles["B"].tensor.csr_arrays(),
            ck.roles["c"].tensor.dense_array(),
            ck.out.vals.data,
        )

    def work(self, args, fmt, strategy):
        return _segdot_work(args[0], strategy)


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
    formats = ("csr",)
    accumulating = ("nonzeros",)
    reference = {
        "rows": _spmm_rows_window, "grid": _spmm_rows_window,
        "nonzeros": K.spmm_nonzeros,
    }

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

    def operands(self, ck, fmt):
        return (
            *ck.roles["B"].tensor.csr_arrays(),
            ck.roles["C"].tensor.dense_array(),
            ck.out.dense_array(),
        )

    def row_bounds(self, ck, fmt):
        return lambda p: (*p.rows, p.cols)

    def work(self, args, fmt, strategy):
        pos, full_k = args[0], args[3].shape[1]

        def formula(nnz: int, nr: int, k: int) -> Work:
            return Work(2.0 * nnz * k, float(nnz * (2 * F8 + F8 * k) + nr * k * F8))

        if strategy == "nonzeros":
            starts = np.ascontiguousarray(pos[:, 0])

            def work(p0, p1):
                if p1 < p0:
                    return Work.zero()
                return formula(p1 - p0 + 1, _span(starts, p0, p1), full_k)

            return work

        def work(r0, r1, cols=None):
            if r1 < r0:
                return Work.zero()
            k = full_k if cols is None else cols[1] - cols[0] + 1
            return formula(int(pos[r1, 1]) + 1 - int(pos[r0, 0]), r1 - r0 + 1, k)

        return work


class _SDDMM(KernelSpec):
    """``A(i,j) = B(i,j) * C(i,k) * D(k,j)``; A keeps B's pattern."""

    kind = "sddmm"
    strategies = ("rows", "nonzeros")
    # Statically load balanced: the paper's choice on both processor kinds.
    cpu_default = gpu_default = "nonzeros"
    formats = ("csr",)
    adopts_pattern = True
    reference = {"rows": K.sddmm_rows, "nonzeros": K.sddmm_nonzeros}

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

    def operands(self, ck, fmt):
        return (
            *ck.roles["B"].tensor.csr_arrays(),
            ck.roles["C"].tensor.dense_array(),
            ck.roles["D"].tensor.dense_array(),
            ck.out.vals.data,
        )

    def work(self, args, fmt, strategy):
        pos, k = args[0], args[3].shape[1]

        def positions(p0, p1):
            if p1 < p0:
                return Work.zero()
            nnz = p1 - p0 + 1
            return Work(2.0 * nnz * k + nnz, float(nnz * (2 * k + 4) * F8))

        if strategy == "nonzeros":
            return positions

        def rows(r0, r1):
            if r1 < r0:
                return Work.zero()
            return positions(int(pos[r0, 0]), int(pos[r1, 1]))

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
    formats = ("csr",)
    accumulating = ("nonzeros",)

    def operands(self, ck, fmt):
        roles = ck.roles
        return (
            *roles["B"].tensor.csr_arrays(),
            *(roles[r].tensor.dense_array() for r in "CDF"),
            ck.out.dense_array(),
        )

    @staticmethod
    def _phases(args, scratch=None):
        pos, crd, vals, C, D, F, out = args
        return (pos, crd, vals, C, D, scratch), (pos, crd, scratch, F, out)

    def leaf(self, args, fmt, strategy):
        sddmm, spmm = self._phases(args, np.zeros_like(args[2]))
        first = SPECS["sddmm"].leaf(sddmm, fmt, strategy)
        then = SPECS["spmm"].leaf(spmm, fmt, strategy)
        return lambda lo, hi: first(lo, hi) + then(lo, hi)

    def work(self, args, fmt, strategy):
        sddmm, spmm = self._phases(args)
        first = SPECS["sddmm"].work(sddmm, fmt, strategy)
        then = SPECS["spmm"].work(spmm, fmt, strategy)
        return lambda lo, hi: first(lo, hi) + then(lo, hi)


def _fibers_of_rows(B: Tensor, fmt: str) -> Callable[[int, int], Bounds]:
    """Row range -> level-1 fiber range of a CSF3 or DDC 3-tensor."""
    lvl1 = B.levels[1]
    if fmt == "csf3":
        pos1 = lvl1.pos.data
        return lambda r0, r1: (int(pos1[r0, 0]), int(pos1[r1, 1]))
    n1 = lvl1.size
    return lambda r0, r1: (r0 * n1, (r1 + 1) * n1 - 1)


def _leaf_level(B: Tensor, fmt: Optional[str]) -> CompressedLevel:
    if fmt is None:
        raise CompileError("3-tensor kernels need a compressed last level")
    return B.levels[2]


class _SpTTV(KernelSpec):
    """``A(i,j) = B(i,j,k) * c(k)``; A keeps B's (i, j) pattern.  The row
    leaf takes the fiber range its rows cover."""

    kind = "spttv"
    strategies = ("rows", "nonzeros")
    gpu_default = "nonzeros"
    formats = ("csf3", "ddc")
    accumulating = ("nonzeros",)
    adopts_pattern = True
    reference = {"rows": K.spttv_fibers, "nonzeros": K.spttv_nonzeros}

    def match(self, lhs, B, dense):
        bi = B.indices
        if B.tensor.order != 3 or len(dense) != 1 or dense[0].tensor.order != 1:
            return None
        if tuple(lhs.indices) == tuple(bi[:2]) and dense[0].indices == (bi[2],):
            return {"B": B, "c": dense[0]}
        return None

    def operands(self, ck, fmt):
        B = ck.roles["B"].tensor
        lvl2 = _leaf_level(B, fmt)
        return (
            lvl2.pos.data, lvl2.crd.data, B.vals.data,
            ck.roles["c"].tensor.dense_array(),
            ck.out.vals.data.reshape(-1),
        )

    def row_bounds(self, ck, fmt):
        fibers = _fibers_of_rows(ck.roles["B"].tensor, fmt)
        return lambda p: fibers(*p.rows) if p.rows[0] <= p.rows[1] else _EMPTY

    def work(self, args, fmt, strategy):
        return _segdot_work(args[0], strategy)


class _SpMTTKRP(KernelSpec):
    """``A(i,l) = B(i,j,k) * C(j,l) * D(k,l)``.  Both strategies hand the
    leaf a range of leaf positions; ``rows`` owns its output rows and
    overwrites, ``nonzeros`` splits rows across pieces and accumulates."""

    kind = "spmttkrp"
    strategies = ("rows", "nonzeros")
    gpu_default = "nonzeros"
    formats = ("csf3", "ddc")
    accumulating = ("nonzeros",)

    def match(self, lhs, B, dense):
        bi = B.indices
        if (
            B.tensor.order != 3
            or len(dense) != 2
            or not all(d.tensor.order == 2 for d in dense)
            or len(lhs.indices) != 2
            or lhs.indices[0] != bi[0]
        ):
            return None
        l = lhs.indices[1]
        C = next((d for d in dense if d.indices == (bi[1], l)), None)
        D = next((d for d in dense if d.indices == (bi[2], l)), None)
        if C is not None and D is not None:
            return {"B": B, "C": C, "D": D}
        return None

    def operands(self, ck, fmt):
        B = ck.roles["B"].tensor
        lvl1, lvl2 = B.levels[1], _leaf_level(B, fmt)
        return (
            *((lvl1.pos.data, lvl1.crd.data) if fmt == "csf3" else (lvl1.size,)),
            lvl2.pos.data, lvl2.crd.data, B.vals.data,
            ck.roles["C"].tensor.dense_array(),
            ck.roles["D"].tensor.dense_array(),
            ck.out.dense_array(),
        )

    def row_bounds(self, ck, fmt):
        B = ck.roles["B"].tensor
        fibers, pos2 = _fibers_of_rows(B, fmt), B.levels[2].pos.data

        def positions_of_rows(p) -> Bounds:
            if p.rows[1] < p.rows[0]:
                return _EMPTY
            f0, f1 = fibers(*p.rows)
            if f1 < f0:
                return _EMPTY
            return int(pos2[f0, 0]), int(pos2[f1, 1])

        return positions_of_rows

    def leaf(self, args, fmt, strategy):
        fn = K.spmttkrp_csf if fmt == "csf3" else K.spmttkrp_ddc
        accumulate = strategy == "nonzeros"
        return lambda p0, p1: fn(*args, p0, p1, accumulate=accumulate)

    def work(self, args, fmt, strategy):
        # level1 is (pos1, crd1) for CSF3 and (n1,) for DDC
        *level1, pos2, _crd2, _vals, C, _D, _out = args
        l = C.shape[1]
        fiber_starts = np.ascontiguousarray(pos2[:, 0])
        if fmt == "csf3":
            row_starts = np.ascontiguousarray(level1[0][:, 0])
            row_of = lambda f: _owner(row_starts, f)  # noqa: E731
        else:
            row_of = lambda f: f // level1[0]  # noqa: E731

        def work(p0, p1):
            if p1 < p0:
                return Work.zero()
            nnz = p1 - p0 + 1
            i0 = row_of(_owner(fiber_starts, p0))
            i1 = row_of(_owner(fiber_starts, p1))
            return Work(
                3.0 * nnz * l,
                float(nnz * (2 * l + 3) * F8 + (i1 - i0 + 1) * l * F8),
            )

        return work


class _SpAdd(KernelSpec):
    """``A(i,j) = B(i,j) + C(i,j) + ...`` into a sparse A whose pattern is
    assembled anew each execute (paper §V-B); the symbolic and fill
    launches live in ``CompiledKernel._execute_spadd``."""

    kind = "spadd"
    formats = ("csr",)
    interp_only = True
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
        ncols = ck.out.shape[1]
        metas = [
            (t.levels[1].pos.data, t.levels[1].crd.data)
            for t in self.operand_tensors(ck)
        ]

        def work(phase, p) -> Work:
            r0, r1 = p.rows
            if r1 < r0:
                return Work.zero()
            keys, touched = [], 0
            for pos, crd in metas:
                lo = pos[r0 : r1 + 1, 0]
                lens = np.maximum(pos[r0 : r1 + 1, 1] - lo + 1, 0)
                n = int(lens.sum())
                if n:
                    s = int(lo[0])
                    rows = np.repeat(np.arange(r0, r1 + 1, dtype=np.int64), lens)
                    keys.append(rows * ncols + crd[s : s + n])
                    touched += n
            if not keys:
                return Work.zero()
            if phase == "spadd:symbolic":
                return Work(float(touched), float(touched * 2 * F8))
            uniq = int(np.unique(np.concatenate(keys)).size)
            return Work(float(touched), float(touched * 3 * F8 + uniq * 2 * F8))

        return work


class _Generic(KernelSpec):
    """Everything else: the generic COO engine per piece (paper: full
    generality).  Its real work depends on intermediate result sizes, so
    the Work model is an estimate."""

    kind = "generic"
    interp_only = True
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
        for part in ck.parts.values():
            t = part.tensor
            if t is ck.out:
                continue
            touched += t.nnz if not t.format.is_all_dense() else int(np.prod(t.shape))
        per_piece = float(touched) / max(1, len(ck.pieces))
        return lambda _phase, _p: Work(2.0 * per_piece, per_piece * 24.0)

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

        def piece(p) -> Work:
            restrict = {restrict_var: p.rows} if restrict_var is not None else None
            result, work = K.evaluate_generic(asg, sizes, restrict)
            if dense_out:
                if result.nnz:
                    np.add.at(o, tuple(result.coords), result.vals)
                return work
            # pattern-preserving sparse output: scatter into stored positions
            coords, _ = out.to_coo()
            if K.fits_int64(out.shape):
                key_stored = np.zeros(out.nnz, dtype=np.int64)
                key_new = np.zeros(result.nnz, dtype=np.int64)
                for d in range(out.order):
                    key_stored = key_stored * out.shape[d] + coords[d]
                    key_new = key_new * out.shape[d] + result.coords[d]
            else:
                # Huge dimension products overflow the flattened key; rank
                # stored and new coordinates jointly instead.
                both = np.concatenate(
                    [np.stack(coords), np.asarray(result.coords)], axis=1
                )
                ranks = K.lex_ranks(both)
                key_stored, key_new = ranks[: out.nnz], ranks[out.nnz :]
            idx = np.searchsorted(key_stored, key_new)
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
        # The specialized kernels read the sparse operand's levels as
        # tensor-mode-order storage; a permuted layout (CSC) would run them
        # on the transpose, so it takes the generic engine.
        if len(sparse) == 1 and _mode_ordered(sparse[0].tensor):
            dense = [o for o in operands if o is not sparse[0]]
            for spec in SPECS.values():
                roles = spec.match(asg.lhs, sparse[0], dense)
                if roles is not None:
                    return KernelClass(spec.kind, roles)
    return KernelClass(_Generic.kind)


def template_key(ck) -> Optional[Tuple[str, str, str]]:
    """The (kind, format-class, strategy) lowering key of ``ck``, or None
    when its leaf runs in the interpreter."""
    spec = SPECS[ck.kind]
    if spec.interp_only or ck.strategy not in spec.strategies:
        return None
    fmt = format_class(ck.roles["B"].tensor)
    return (ck.kind, fmt, ck.strategy) if fmt in spec.formats else None
