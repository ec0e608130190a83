"""SpMM leaf kernels: ``A(i,j) = B(i,k) * C(k,j)`` with sparse B, dense C.

The row-based piece uses the schedule of Senanayake et al. for the leaf
(tight CSR traversal — realized here as the compiled segment reduce of
:mod:`.segment` on a row-range view of the level, the moral equivalent of
the vendor kernel the paper calls at the leaves).  The non-zero-based
piece (the GPU schedule) balances positions exactly but replicates C and
reduces aliased output rows: the same reduce over the piece's clipped
segment boundaries, its partial formed from 0.0 and then added in.
:func:`spmm_bind` binds that reduce once per kernel for every strategy,
and a launch of every piece as one call (a non-zero launch reduces each
piece's part of a shared row on its own and adds the partials in piece
order); ``grid`` rides its row body with a column window, piece by piece.

Index notation: ``A(i,j) = B(i,k) * C(k,j)`` — paper §VI-A (algorithms,
including the memory-conserving "SpDISTAL-Batched" variant), Fig. 10/11
(evaluation).
"""
from __future__ import annotations

import numpy as np

from ..legion.machine import Work
from .segment import (
    _Span, _bounds, _const, _indptr, packed_indptr, piece_indptr, segment_matmul,
)

__all__ = ["spmm_bind", "spmm_rows", "spmm_nonzeros", "spmm_rows_reference"]

F8 = 8


def spmm_rows(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    C: np.ndarray,
    out: np.ndarray,
    r0: int,
    r1: int,
) -> Work:
    """Compute output rows ``[r0, r1]`` of ``A = B @ C``."""
    if r1 < r0:
        return Work.zero()
    k = C.shape[1]
    indptr = packed_indptr(pos[r0 : r1 + 1])
    out[r0 : r1 + 1, :] = segment_matmul(indptr, crd, vals, C)
    nnz = int(indptr[-1] - indptr[0])
    return Work(
        flops=2.0 * nnz * k,
        bytes=float(nnz * (2 * F8 + F8 * k) + (r1 - r0 + 1) * k * F8),
    )


def spmm_nonzeros(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    C: np.ndarray,
    out: np.ndarray,
    p0: int,
    p1: int,
) -> Work:
    """Accumulate positions ``[p0, p1]`` into the (aliased) output rows."""
    if p1 < p0:
        return Work.zero()
    k = C.shape[1]
    nnz = p1 - p0 + 1
    r0, indptr = piece_indptr(pos, p0, p1)
    nr = indptr.size - 1
    out[r0 : r0 + nr, :] += segment_matmul(indptr, crd, vals, C)
    return Work(
        flops=2.0 * nnz * k,
        bytes=float(nnz * (2 * F8 + F8 * k) + nr * k * F8),
    )


def spmm_rows_reference(pos, crd, vals, C, out, r0, r1) -> Work:
    """Loop-nest reference for cross-validation."""
    nnz = 0
    k = C.shape[1]
    for i in range(r0, r1 + 1):
        acc = np.zeros(k)
        for p in range(pos[i, 0], pos[i, 1] + 1):
            acc += vals[p] * C[crd[p], :]
            nnz += 1
        out[i, :] = acc
    return Work(flops=2.0 * nnz * k, bytes=float(nnz * (2 + k) * F8))


def spmm_bind(pos, crd, vals, C, out, pieces, accumulate):
    """Derive the row boundaries once; return ``(build, over)``, where
    ``build(*piece[1:])`` is one piece's thunk and ``over(bounds, w)`` the
    same body over every live piece at once.  ``rows`` / ``grid`` piece
    tuples carry a column window (``None``: all of C and A, as for
    ``nonzeros`` tuples, which have none); a full-width window of a
    row-major array is still contiguous, so only ``grid`` pays for
    contiguous copies.  ``over`` is None under ``grid``, whose column
    windows one row range cannot express."""
    indptr = _indptr(pos)

    def over(bounds, w, cols=None):
        if not len(bounds):
            return _const(w)
        window = slice(cols[0], cols[1] + 1) if cols else slice(None)
        span = _Span(indptr, bounds, accumulate, out, window)
        return _spmm_thunk(span, crd, vals, C[:, window], w)

    def build(lo, hi, *window_w):
        *window, w = window_w
        return over(_bounds(lo, hi), w, *window)

    windowed = any(any(p[3:]) for p in pieces)  # a ``grid`` piece's columns
    return build, None if windowed else over


def _spmm_thunk(span, crd, vals, Cv, w):
    def thunk():
        span.reduce(crd, vals, Cv)
        return w
    return thunk
