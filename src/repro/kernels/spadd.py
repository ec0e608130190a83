"""SpAdd3 leaf kernels: ``A(i,j) = B(i,j) + C(i,j) + D(i,j)`` on CSR inputs.

The output pattern is unknown, so assembly follows the two-phase parallel
approach of Chou et al. (paper §V-B): a *symbolic* pass computes each
piece's per-row output counts; after an exclusive scan sizes the output, a
*fill* pass writes values without synchronization.  Fusing all three
operands in one sweep (instead of two pairwise adds) is what buys the
paper its 11.8–38.5x over PETSc/Trilinos.

Everything structural — the merged coordinates, the per-row counts and
where each operand entry lands in the merged order — depends on the operand
*patterns* only, so :func:`spadd3_plan` merges once per pattern and both
phases read its :class:`PiecePlan`: the symbolic phase reports the counts,
the fill is one scatter-add of the operands' current values.

The merge sorts nothing.  A compressed level that ``Tensor._pack`` built
is *ordered* and *unique* (Chou et al.'s format abstraction), so each
operand's rows are a canonical CSR and their union is a linear merge of
sorted runs: SciPy's ``csr_plus_csr`` (:mod:`.segment`), applied one
operand at a time to the union so far.  Each side's entries carry a tag,
1 for the union and 2 for the operand, so a merged entry's tag sum says
which side holds it, and where every earlier operand's entries land is
composed through each step.  :func:`spadd3_pieces` cuts one plan over all
rows into the pieces' views, so an assembly merges once, however many
pieces it launches.

Index notation: ``A(i,j) = B(i,j) + C(i,j) + D(i,j)`` — paper §V-B
(two-phase assembly), §VI-C (SpAdd evaluation vs PETSc/Trilinos).
"""
from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ..legion.machine import Work
from .segment import check_canonical, csr_plus_csr, packed_indptr

__all__ = ["PiecePlan", "spadd3_plan", "spadd3_pieces", "spadd3_symbolic", "spadd3_fill"]

F8 = 8


class PiecePlan(NamedTuple):
    """What one piece's rows merge to.  Index arrays and sizes only — never
    an operand's values."""

    #: each operand's entries within the piece's rows, as a slice of its
    #: ``crd`` / ``vals``.
    slices: Tuple[slice, ...]
    #: the merged position of every operand entry, operands concatenated in
    #: order (``touched = inverse.size``).
    inverse: np.ndarray
    #: merged entries per row of the piece.
    counts: np.ndarray
    #: the merged column coordinates, row-major.
    crd: np.ndarray


def _rows_slice(pos: np.ndarray, r0: int, r1: int) -> slice:
    """An operand's entries within rows ``[r0, r1]`` of its packed
    ``pos`` (lengths telescope), as a slice of its ``crd`` / ``vals``."""
    n = int(pos[r1, 1] - pos[r0, 0] + 1) if r1 >= r0 else 0
    s = int(pos[r0, 0]) if n else 0
    return slice(s, s + n)


def _union(nrows: int, ncols: int, ap, aj, bp, bj):
    """One linear merge of two canonical CSRs' patterns over ``nrows``
    rows (both ``indptr`` from 0): ``(indptr, crd, a_at, b_at)``, where
    ``a_at`` / ``b_at`` are the merged positions of ``a``'s and ``b``'s
    entries.  The tags are non-zero because the merge drops an entry
    whose sum is 0."""
    cap = aj.size + bj.size
    cp, cj, cx = np.empty(nrows + 1, np.int64), np.empty(cap, np.int64), np.empty(cap, np.int8)
    csr_plus_csr(nrows, ncols, ap, aj, np.ones(aj.size, np.int8),
                 bp, bj, np.full(bj.size, 2, np.int8), cp, cj, cx)
    tags = cx[: cp[-1]]
    return cp, cj[: cp[-1]], np.flatnonzero(tags != 2), np.flatnonzero(tags != 1)


def spadd3_plan(
    operands: Sequence[Tuple[np.ndarray, np.ndarray]], ncols: int, r0: int, r1: int,
    names: Sequence[str] = (),
) -> PiecePlan:
    """Merge the operands' patterns over rows ``[r0, r1]`` in linear
    passes.  ``operands`` holds each input's packed ``(pos, crd)``;
    ``names`` names them in a :class:`~repro.errors.FormatError` raised
    for a row that is not strictly ascending (a hand-built level)."""
    nrows = max(0, r1 - r0 + 1)
    slices, ip, crd, inverse = [], None, None, None
    for k, (pos, c) in enumerate(operands):
        bp = packed_indptr(pos[r0 : r1 + 1])
        span = _rows_slice(pos, r0, r1)
        slices.append(span)
        bp -= bp[0]
        bj = c[span].astype(np.int64, copy=False)
        check_canonical(bp, bj, names[k] if names else f"operand {k}")
        if ip is None:  # the union so far is the first operand
            ip, crd = bp, bj
            continue
        ip, crd, held, new = _union(nrows, ncols, ip, crd, bp, bj)
        inverse = np.concatenate([held if inverse is None else held[inverse], new])
    if inverse is None:
        inverse = np.arange(crd.size, dtype=np.int64)
    return PiecePlan(tuple(slices), inverse, np.diff(ip), crd)


def spadd3_pieces(
    plan: PiecePlan, operands: Sequence[Tuple[np.ndarray, np.ndarray]],
    rows: Sequence[Tuple[int, int]],
) -> List[Tuple[PiecePlan, slice]]:
    """Cut ``plan``, merged over rows ``0 ..``, into the pieces of the row
    ranges ``rows``: each piece's plan — ``counts`` and ``crd`` views of
    ``plan``'s, its ``inverse`` re-based to the piece — and its slice of
    the merged ``crd``."""
    starts = np.concatenate(([0], np.cumsum(plan.counts)))
    offsets = np.cumsum([0] + [s.stop - s.start for s in plan.slices]).tolist()
    cut = []
    for r0, r1 in rows:
        slices = tuple(_rows_slice(pos, r0, r1) for pos, _ in operands)
        if r1 < r0:
            inverse, span = np.empty(0, dtype=np.int64), slice(0, 0)
        else:
            a, b = int(starts[r0]), int(starts[r1 + 1])
            span = slice(a, b) if b > a else slice(0, 0)
            inverse = np.concatenate([
                plan.inverse[o + s.start - w.start : o + s.stop - w.start]
                for o, s, w in zip(offsets, slices, plan.slices)
            ]) - a
        cut.append((PiecePlan(slices, inverse, plan.counts[r0 : r1 + 1], plan.crd[span]), span))
    return cut


def spadd3_symbolic(plan: PiecePlan) -> Tuple[np.ndarray, Work]:
    """Phase 1: the union pattern's entries per row of the piece."""
    touched = plan.inverse.size
    return plan.counts, Work(flops=float(touched), bytes=float(touched * 2 * F8))


def spadd3_fill(plan: PiecePlan, vals: Sequence[np.ndarray], out_vals: np.ndarray) -> Work:
    """Phase 2: sum the operands' values into ``out_vals``, the piece's
    slice of the output.  Every operand slice is gathered before the write,
    so ``out_vals`` may alias one (``A = B + A``); entries add in
    concatenation order, whichever step built the plan."""
    touched, merged = plan.inverse.size, plan.crd.size
    weights = np.concatenate([v[s] for v, s in zip(vals, plan.slices)])
    out_vals[:] = np.bincount(plan.inverse, weights=weights, minlength=merged)
    return Work(
        flops=float(touched),
        bytes=float(touched * 3 * F8 + merged * 2 * F8),
    )
