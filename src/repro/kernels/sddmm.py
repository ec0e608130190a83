"""SDDMM leaf kernels: ``A(i,j) = B(i,j) * C(i,k) * D(k,j)``.

The output inherits B's sparsity pattern (paper §V-B), so the leaf writes
only the values array.  The paper uses a non-zero-based algorithm and data
distribution for SDDMM on both CPUs and GPUs — each piece computes an exact
slice of the non-zero positions, which is what makes it perfectly load
balanced regardless of the sparsity structure.

The bound leaves (:func:`sddmm_rows_bind`, :func:`sddmm_nonzeros_bind`)
hoist one position -> row array per bind and gather in cache-sized blocks
(:func:`_sddmm`); :func:`fused_sddmm_spmm_bind` runs that phase into a
scratch values array and reduces it with the SpMM reduce of :mod:`.segment`.
Every position -> row array, the interpreter leaf's included, is built by
:func:`_rows_of` from the rows' lengths in one pass over its positions
(:func:`~repro.kernels.segment.row_of_range`), so the leaves agree by
construction on which row a position belongs to.
Each binds a launch of every piece as one call: a position's value is
formed alone (a NaN product is the one quiet NaN, whatever the call), and
the fused kind's reduce adds the pieces' partials of shared rows in piece
order, so the call writes what the pieces write.  The runtime makes that
call on a launch's first execute as on its replays, so a launch copies
``D.T`` contiguous once per call, covering every position, where a piece
alone would gather the strided view.

Index notation: ``A(i,j) = B(i,j) * C(i,k) * D(k,j)`` — paper §V-B
(pattern-preserving output), §VI-A (non-zero distribution), Fig. 10/11.
"""
from __future__ import annotations

import numpy as np

from ..legion.machine import Work
from .segment import _Span, _bounds, _const, _indptr, row_of_range

__all__ = [
    "fused_sddmm_spmm_bind", "sddmm_nonzeros", "sddmm_nonzeros_bind",
    "sddmm_reference", "sddmm_rows", "sddmm_rows_bind",
]

F8 = 8
_CHUNK = 1 << 18  # bound the nnz*k intermediate (be easy on memory)
#: the bound leaves' gather block: (block, k) gathers fit in 128 KiB.
_BLOCK_BYTES = 1 << 17
#: a bound call makes one contiguous copy of ``D.T`` when it covers this
#: many positions per column of D: a launch's one call (its first execute
#: and its replays alike) decides once over all its positions.
_COPY_AT = 2


def sddmm_nonzeros(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    C: np.ndarray,
    D: np.ndarray,
    out_vals: np.ndarray,
    p0: int,
    p1: int,
) -> Work:
    """Compute output values at positions ``[p0, p1]``."""
    if p1 < p0:
        return Work.zero()
    k = C.shape[1]
    nnz = p1 - p0 + 1
    rows = _rows_of(pos, p0, p1)
    # (j, k) indexing of D; a strided view, not a copy: on a row-major D
    # each gathered row is k elements n apart, k cache lines
    Dt = D.T
    for s in range(0, nnz, _CHUNK):
        e = min(s + _CHUNK, nnz)
        cols = crd[p0 + s : p0 + e]
        dots = np.einsum("ij,ij->i", C[rows[s:e], :], Dt[cols, :])
        out_vals[p0 + s : p0 + e] = vals[p0 + s : p0 + e] * dots
    _one_nan(out_vals[p0 : p1 + 1])
    return Work(flops=2.0 * nnz * k + nnz, bytes=float(nnz * (2 * k + 4) * F8))


def sddmm_rows(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    C: np.ndarray,
    D: np.ndarray,
    out_vals: np.ndarray,
    r0: int,
    r1: int,
) -> Work:
    """Row-based variant (used for the schedule ablation)."""
    if r1 < r0:
        return Work.zero()
    p0 = int(pos[r0, 0])
    p1 = int(pos[r1, 1])
    if p1 < p0:
        return Work.zero()
    return sddmm_nonzeros(pos, crd, vals, C, D, out_vals, p0, p1)


def sddmm_reference(pos, crd, vals, C, D, out_vals, p0, p1) -> Work:
    nnz = 0
    starts = pos[:, 0]
    for p in range(p0, p1 + 1):
        i = int(np.searchsorted(starts, p, side="right") - 1)
        j = int(crd[p])
        out_vals[p] = vals[p] * float(C[i, :] @ D[:, j])
        nnz += 1
    k = C.shape[1]
    return Work(flops=2.0 * nnz * k, bytes=float(nnz * (2 * k + 4) * F8))


# --------------------------------------------------------------------------- #
# bound leaves
# --------------------------------------------------------------------------- #
def _rows_of(pos, p0, p1):
    """The row of each position ``p0 .. p1``, from the rows' lengths
    (:func:`~repro.kernels.segment.row_of_range`): the one position -> row
    map of the interpreter leaf and of every bind."""
    return row_of_range(pos[:, 0], p0, p1)


def _one_nan(vals: np.ndarray) -> None:
    """Make every NaN in ``vals`` the one quiet NaN.  NumPy's loops give a
    NaN times a NaN the sign of either operand, by where the pair falls in
    the call, so without this a sampled product's NaN bits would depend on
    how its positions were cut into calls and blocks; with it, every
    position's value is formed alone, a NaN's bits included."""
    vals[np.isnan(vals)] = np.nan


def _sddmm(rows, crd, vals, C, D, out_vals, p0):
    """The sampled row dots of positions ``p0 .. p0 + rows.size - 1``
    (``rows``: each position's row), in blocks whose (block, k) gathers fit
    in ``_BLOCK_BYTES``.  Rows of C are gathered with ``np.take``.  ``D.T``
    of a row-major D is a strided view — each of its rows is k elements n
    apart, k cache lines — so its rows are gathered by fancy indexing
    (``np.take`` from the view is several times slower), or with
    ``np.take`` from a contiguous copy of ``D.T`` made once per call (D's
    values may change between calls) when the call covers at least
    ``_COPY_AT`` positions per column of D: below that the copy costs more
    than it saves.  Every position's value is formed alone, whatever the
    block or gather (:func:`_one_nan`)."""
    copy = rows.size >= _COPY_AT * D.shape[1]
    Dt = np.ascontiguousarray(D.T) if copy else D.T
    block = max(1, _BLOCK_BYTES // (8 * max(C.shape[1], 1)))
    for s in range(0, rows.size, block):
        e = min(s + block, rows.size)
        cc = crd[p0 + s : p0 + e]
        dots = np.einsum(
            "ij,ij->i", np.take(C, rows[s:e], axis=0),
            np.take(Dt, cc, axis=0) if copy else Dt[cc],
        )
        out_vals[p0 + s : p0 + e] = vals[p0 + s : p0 + e] * dots
    _one_nan(out_vals[p0 : p0 + rows.size])


def _bind_ranges(pos, crd, vals, C, D, out_vals, pieces, positions):
    """``positions`` maps range arguments to the positions they own;
    every thunk slices one position -> row array, and ``over`` runs the
    same body over the range every live piece tiles."""
    rows = _rows_of(pos, 0, crd.size - 1)

    def over(bounds, w):
        p0, p1 = positions(int(bounds[0, 0]), int(bounds[-1, 1])) if len(bounds) else (0, -1)
        if p1 < p0:
            return _const(w)
        rr = rows[p0 : p1 + 1]

        def thunk():
            _sddmm(rr, crd, vals, C, D, out_vals, p0)
            return w
        return thunk

    return (lambda lo, hi, w: over(_bounds(lo, hi), w)), over


def sddmm_rows_bind(pos, crd, vals, C, D, out_vals, pieces, accumulate):
    """Convert row bounds to position ranges; return ``(build, over)``.  Each position is written once, so ``accumulate`` is unused."""
    return _bind_ranges(pos, crd, vals, C, D, out_vals, pieces, lambda r0, r1: (
        (int(pos[r0, 0]), int(pos[r1, 1])) if r0 <= r1 else (0, -1)
    ))


def sddmm_nonzeros_bind(pos, crd, vals, C, D, out_vals, pieces, accumulate):
    """Bind position ranges as they are; return ``(build, over)``.
    Each position is written once, so ``accumulate`` is unused."""
    return _bind_ranges(
        pos, crd, vals, C, D, out_vals, pieces, lambda p0, p1: (p0, p1)
    )


def fused_sddmm_spmm_bind(pos, crd, vals, C, D, F, out, pieces, accumulate):
    """Hoist both phases' shared scaffolding; return ``(build, over)``:
    ``build(lo, hi, w)`` is a piece's thunk, ``over(bounds, w)`` the same
    body over every live piece at once.  The SDDMM phase runs into a
    scratch values array private to the binding — never a region — over
    the positions the call's boundaries span (none when its rows are
    empty: the reduce then zero-fills); the SpMM phase reduces the *whole*
    scratch array over those boundaries.  The position -> row array the
    SDDMM phase gathers by is derived on first use, and shared by every
    thunk."""
    scratch = np.zeros_like(vals)
    indptr = _indptr(pos)
    rows_of = []

    def over(bounds, w):
        if not len(bounds):
            return _const(w)
        span = _Span(indptr, bounds, accumulate, out)
        if not rows_of:
            rows_of.append(_rows_of(pos, 0, crd.size - 1))
        p0, p1 = int(span.ip[0]), int(span.ip[-1])
        return _fused_thunk(rows_of[0][p0:p1], p0, crd, vals, C, D, span, scratch, F, w)

    return (lambda lo, hi, w: over(_bounds(lo, hi), w)), over


def _fused_thunk(rows, p0, crd, vals, C, D, span, scratch, F, w):
    def thunk():
        _sddmm(rows, crd, vals, C, D, scratch, p0)
        span.reduce(crd, scratch, F)
        return w
    return thunk
