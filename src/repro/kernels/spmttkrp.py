"""SpMTTKRP leaf kernel: ``A(i,l) = B(i,j,k) * C(j,l) * D(k,l)``.

One body for every level stack: the kernel table
(:mod:`repro.core.kernelspec`) hands it ``coords`` — B's level functions
chained from the last level to the root
(:meth:`repro.taco.tensor.Tensor.coords_of`) — which turns a range of leaf
positions into the ``(i, j, k)`` of each non-zero, whether a level stores
its coordinate in ``crd`` or implies it by position.  The row-based
variant owns disjoint ``i`` ranges and overwrites; the non-zero-based
variant splits leaf positions exactly and reduces aliased output rows (the
GPU schedule in the paper, which wins through load balance).  Either way
the per-non-zero products are formed first and then summed per output row
by the segment reduce of :mod:`.segment`, in position order from 0.0.
:func:`spmttkrp_bind` is the same body bound once per kernel.

Index notation: ``A(i,l) = B(i,j,k) * C(j,l) * D(k,l)`` — paper §VI-A
(higher-order kernels), Fig. 10/12 (evaluation).
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..legion.machine import Work
from .segment import _const, _reduce, segment_sum_matrix

__all__ = ["spmttkrp", "spmttkrp_bind", "spmttkrp_reference"]

F8 = 8
#: positions -> per-level coordinate arrays, root first.
Coords = Callable[[np.ndarray], Sequence[np.ndarray]]


def spmttkrp(
    coords: Coords,
    vals: np.ndarray,
    C: np.ndarray,
    D: np.ndarray,
    out: np.ndarray,
    p0: int,
    p1: int,
    *,
    accumulate: bool,
) -> Work:
    """Process leaf positions ``[p0, p1]``; ``accumulate`` adds into output
    rows other pieces share instead of overwriting rows this piece owns."""
    if p1 < p0:
        return Work.zero()
    nnz = p1 - p0 + 1
    i_ids, j_ids, k_ids = coords(np.arange(p0, p1 + 1, dtype=np.int64))
    l = C.shape[1]
    prods = vals[p0 : p1 + 1, None] * C[j_ids, :] * D[k_ids, :]
    r0, r1 = int(i_ids[0]), int(i_ids[-1])
    acc = segment_sum_matrix(prods, i_ids - r0, r1 - r0 + 1)
    if accumulate:
        out[r0 : r1 + 1, :] += acc
    else:
        out[r0 : r1 + 1, :] = acc
    return Work(
        flops=3.0 * nnz * l,
        bytes=float(nnz * (2 * l + 3) * F8 + (r1 - r0 + 1) * l * F8),
    )


def spmttkrp_reference(coords: Coords, vals, C, D, out, p0, p1) -> Work:
    """The straight-line loop nest, accumulating one non-zero at a time."""
    nnz = 0
    for p in range(p0, p1 + 1):
        i, j, k = (int(c) for c in coords(p))
        out[i, :] += vals[p] * C[j, :] * D[k, :]
        nnz += 1
    l = C.shape[1]
    return Work(flops=3.0 * nnz * l, bytes=float(nnz * (2 * l + 3) * F8))


def spmttkrp_bind(coords: Coords, vals, C, D, out, pieces, accumulate):
    """Hoist coordinate gathers per position range; return ``({color:
    thunk}, None)``.  The per-non-zero products are summed per output row
    by ``csr_matvecs`` over an identity column index and unit data (one
    shared pair per bind, sliced per piece), which adds them in position
    order."""
    thunks = {}
    longest = max((p1 - p0 + 1 for _color, p0, p1, _w in pieces), default=0)
    ident, ones = np.arange(longest), np.ones(longest)
    for color, p0, p1, w in pieces:
        if p1 < p0:
            thunks[color] = _const(w)
            continue
        n = p1 - p0 + 1
        i_ids, j_ids, k_ids = coords(np.arange(p0, p1 + 1, dtype=np.int64))
        thunks[color] = _body_thunk(
            i_ids, j_ids, k_ids, vals[p0 : p1 + 1], C, D, out,
            ident[:n], ones[:n], w, accumulate,
        )
    return thunks, None


def _body_thunk(i_ids, j_ids, k_ids, v, C, D, out, ident, ones, w, accumulate):
    r0, r1 = int(i_ids[0]), int(i_ids[-1])
    ip = np.searchsorted(i_ids, np.arange(r0, r1 + 2))
    ov = out[r0 : r1 + 1, :]

    def thunk():
        prods = v[:, None] * C[j_ids, :] * D[k_ids, :]
        _reduce(ip, ident, ones, prods, ov, accumulate)
        return w
    return thunk
