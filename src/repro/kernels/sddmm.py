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

Index notation: ``A(i,j) = B(i,j) * C(i,k) * D(k,j)`` — paper §V-B
(pattern-preserving output), §VI-A (non-zero distribution), Fig. 10/11.
"""
from __future__ import annotations

import numpy as np

from ..legion.machine import Work
from .segment import _const, _indptr, _reduce, _segments_of, row_of_positions

__all__ = [
    "fused_sddmm_spmm_bind", "sddmm_nonzeros", "sddmm_nonzeros_bind",
    "sddmm_reference", "sddmm_rows", "sddmm_rows_bind",
]

F8 = 8
_CHUNK = 1 << 18  # bound the nnz*k intermediate (be easy on memory)
#: the bound leaves' gather block: (block, k) gathers fit in 128 KiB.
_BLOCK_BYTES = 1 << 17
#: a bound call copies ``D.T`` contiguous at this many positions per column.
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
    rows = row_of_positions(pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64))
    # (j, k) indexing of D; a strided view, not a copy: on a row-major D
    # each gathered row is k elements n apart, k cache lines
    Dt = D.T
    for s in range(0, nnz, _CHUNK):
        e = min(s + _CHUNK, nnz)
        cols = crd[p0 + s : p0 + e]
        dots = np.einsum("ij,ij->i", C[rows[s:e], :], Dt[cols, :])
        out_vals[p0 + s : p0 + e] = vals[p0 + s : p0 + e] * dots
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
    """The row of each position ``p0 .. p1``."""
    return row_of_positions(pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64))


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
    block or gather."""
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


def _bind_ranges(pos, crd, vals, C, D, out_vals, pieces, positions):
    """``positions`` maps a piece's range arguments to the positions it
    owns; every thunk slices one position -> row array, and ``over`` runs
    the same body over a longer range."""
    rows = _rows_of(pos, 0, crd.size - 1)

    def over(lo, hi, w):
        p0, p1 = positions(lo, hi)
        if p1 < p0:
            return _const(w)
        rr = rows[p0 : p1 + 1]

        def thunk():
            _sddmm(rr, crd, vals, C, D, out_vals, p0)
            return w
        return thunk

    thunks = {}
    for color, lo, hi, w in pieces:
        thunks[color] = over(lo, hi, w)
    return thunks, over


def sddmm_rows_bind(pos, crd, vals, C, D, out_vals, pieces, accumulate):
    """Convert row bounds to position ranges; return ``({color: thunk},
    over)``.  Each position is written once, so ``accumulate`` is unused."""
    return _bind_ranges(pos, crd, vals, C, D, out_vals, pieces, lambda r0, r1: (
        (int(pos[r0, 0]), int(pos[r1, 1])) if r0 <= r1 else (0, -1)
    ))


def sddmm_nonzeros_bind(pos, crd, vals, C, D, out_vals, pieces, accumulate):
    """Bind position ranges as they are; return ``({color: thunk}, over)``.
    Each position is written once, so ``accumulate`` is unused."""
    return _bind_ranges(
        pos, crd, vals, C, D, out_vals, pieces, lambda p0, p1: (p0, p1)
    )


def fused_sddmm_spmm_bind(pos, crd, vals, C, D, F, out, pieces, accumulate):
    """Hoist both phases' scaffolding per piece; return ``({color: thunk},
    None)``.  The SDDMM phase runs into a scratch values array private to
    the binding — never a region — over the positions the piece's
    boundaries span (none when its rows are empty: the reduce then
    zero-fills); the SpMM phase reduces the *whole* scratch array over
    those boundaries."""
    thunks = {}
    scratch = np.zeros_like(vals)
    indptr = _indptr(pos)
    for color, lo, hi, w in pieces:
        if hi < lo:
            thunks[color] = _const(w)
            continue
        r0, ip = _segments_of(indptr, lo, hi, accumulate)
        p0 = int(ip[0])
        rows = _rows_of(pos, p0, int(ip[-1]) - 1)
        thunks[color] = _fused_thunk(
            rows, p0, crd, vals, C, D, ip, scratch, F,
            out[r0 : r0 + ip.size - 1, :], w, accumulate,
        )
    return thunks, None


def _fused_thunk(rows, p0, crd, vals, C, D, ip, scratch, F, ov, w, accumulate):
    def thunk():
        _sddmm(rows, crd, vals, C, D, scratch, p0)
        _reduce(ip, crd, scratch, F, ov, accumulate)
        return w
    return thunk
