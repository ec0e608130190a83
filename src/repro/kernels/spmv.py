"""Segmented-dot leaf kernels: SpMV ``a(i) = B(i,j) * c(j)`` (paper §II-D)
and SpTTV ``A(i,j) = B(i,j,k) * c(k)`` (§V-B, §VI-A).

Both statements reduce each *segment* of B's last (compressed) level
against a dense vector — ``out[s] = Σ_{p ∈ pos[s]} vals[p] · c[crd[p]]`` —
so they share these bodies: for SpMV a segment is a row and ``out`` the
output vector; for SpTTV it is an ``(i, j)`` fiber and ``out`` the flat
values of an output that keeps B's (i, j) pattern.  The kernel table
(:mod:`repro.core.kernelspec`) resolves a piece to its segment or position
range through the level functions and hands over the last level's
``pos``/``crd``.  Two distributed algorithms from the paper:

* **row-based** — each piece owns a contiguous segment range (universe
  partition of level 0, walked down) plus all of ``c``; no reduction
  needed;
* **non-zero-based** — each piece owns a contiguous range of B's non-zero
  positions (non-zero partition of the last level); pieces that share a
  boundary segment reduce into the output.

Both run the compiled segment reduce of :mod:`.segment` on views of the
level's arrays — each segment's sum formed from 0.0 left to right, a
non-zero piece's partial formed from 0.0 and then added into the output —
and return the roofline :class:`~repro.legion.machine.Work` they performed.

Paper: §II-D (schedules), §VI-A (CPU/GPU algorithm choice), Fig. 10–13
(evaluation).
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from ..legion.machine import Work
from .segment import packed_indptr, piece_indptr, segment_dot

__all__ = ["spmv_rows", "spmv_nonzeros", "spmv_rows_reference"]

F8 = 8  # bytes per float64 / int64


def spmv_rows(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    c: np.ndarray,
    out: np.ndarray,
    r0: int,
    r1: int,
) -> Work:
    """Reduce segments ``[r0, r1]`` (rows of a matrix, fibers of a
    3-tensor) into ``out`` on one piece."""
    if r1 < r0:
        return Work.zero()
    indptr = packed_indptr(pos[r0 : r1 + 1])
    out[r0 : r1 + 1] = segment_dot(indptr, crd, vals, c)
    nnz = int(indptr[-1] - indptr[0])
    if nnz == 0:
        return Work(0.0, (r1 - r0 + 1) * F8)  # the zero fill
    return Work(flops=2.0 * nnz, bytes=float(nnz * 3 * F8 + (r1 - r0 + 1) * 2 * F8))


def spmv_nonzeros(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    c: np.ndarray,
    out: np.ndarray,
    p0: int,
    p1: int,
) -> Work:
    """Accumulate positions ``[p0, p1]`` of B into ``out`` (pieces may
    share a boundary segment)."""
    if p1 < p0:
        return Work.zero()
    nnz = p1 - p0 + 1
    r0, indptr = piece_indptr(pos, p0, p1)
    nr = indptr.size - 1
    out[r0 : r0 + nr] += segment_dot(indptr, crd, vals, c)
    return Work(flops=2.0 * nnz, bytes=float(nnz * 3 * F8 + nr * 2 * F8))


def spmv_rows_reference(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    c: np.ndarray,
    out: np.ndarray,
    r0: int,
    r1: int,
) -> Work:
    """The straight-line loop nest the compiler's pseudo-code emits (Fig. 9b).

    Kept as the cross-validation reference for the vectorized kernel.
    """
    nnz = 0
    for i in range(r0, r1 + 1):
        acc = 0.0
        for p in range(pos[i, 0], pos[i, 1] + 1):
            acc += vals[p] * c[crd[p]]
            nnz += 1
        out[i] = acc
    return Work(flops=2.0 * nnz, bytes=float(nnz * 3 * F8))
