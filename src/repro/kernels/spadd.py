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

Index notation: ``A(i,j) = B(i,j) + C(i,j) + D(i,j)`` — paper §V-B
(two-phase assembly), §VI-C (SpAdd evaluation vs PETSc/Trilinos).
"""
from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

import numpy as np

from ..legion.machine import Work

__all__ = ["PiecePlan", "spadd3_plan", "spadd3_symbolic", "spadd3_fill"]

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


def spadd3_plan(
    operands: Sequence[Tuple[np.ndarray, np.ndarray]], ncols: int, r0: int, r1: int
) -> PiecePlan:
    """Merge the operands' patterns over rows ``[r0, r1]`` — the one sort
    of an assembly.  ``operands`` holds each input's packed ``(pos, crd)``."""
    nrows = max(0, r1 - r0 + 1)
    slices, keys = [], []
    for pos, crd in operands:
        lens = np.maximum(pos[r0 : r1 + 1, 1] - pos[r0 : r1 + 1, 0] + 1, 0)
        n = int(lens.sum())
        s = int(pos[r0, 0]) if n else 0
        slices.append(slice(s, s + n))
        keys.append(np.repeat(np.arange(nrows, dtype=np.int64), lens) * ncols + crd[s : s + n])
    merged, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    counts = np.bincount(merged // ncols, minlength=nrows).astype(np.int64)
    return PiecePlan(tuple(slices), inverse, counts, merged % ncols)


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
