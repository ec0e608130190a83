"""SpMTTKRP leaf kernel: ``A(i,l) = B(i,j,k) * C(j,l) * D(k,l)``.

One body for every level stack, contracting each ``(i, j)`` fiber once:
``A(i,l) = Σ_j C(j,l) · (Σ_k B(i,j,k) · D(k,l))``.  A fiber is a segment
of B's last (compressed) level, so its sum against ``D`` is the segment
reduce of :mod:`.segment` over the fiber boundaries and the whole ``crd``
/ ``vals``; each sum is scaled by its row of ``C`` and the fibers are
summed per output row, in order, by the same reduce over an identity
column index and unit data.  Nothing per non-zero is formed.  Each fiber's
``(i, j)`` comes from ``coords`` — B's level functions chained from the
fiber's level-1 position to the root
(:meth:`repro.taco.tensor.Tensor.coords_of`) — so a level may store its
coordinate in ``crd`` or imply it by position.

A row piece owns its whole row block and overwrites it; a non-zero piece
splits leaf positions exactly, clipping the fibers its ends cut, and adds
into output rows other pieces share (the GPU schedule in the paper, which
wins through load balance).  :func:`spmttkrp_bind` is the same body bound
once per kernel, and over every piece of a launch in one call.  Both
report the :class:`~repro.legion.machine.Work` of the per-non-zero loop
nest the kernel table models.

Index notation: ``A(i,l) = B(i,j,k) * C(j,l) * D(k,l)`` — paper §VI-A
(higher-order kernels), Fig. 10/12 (evaluation).
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..legion.machine import Work
from .segment import _Span, _bounds, _const, _indptr, csr_matvecs, piece_indptr

__all__ = ["spmttkrp", "spmttkrp_bind", "spmttkrp_reference"]

F8 = 8
#: (positions of a storage level — an array, or a ``range`` whose parents
#: are derived in one pass — and the level, default the last) -> per-level
#: coordinate arrays, root first.
Coords = Callable[..., Sequence[np.ndarray]]


def spmttkrp(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    coords: Coords,
    C: np.ndarray,
    D: np.ndarray,
    out: np.ndarray,
    p0: int,
    p1: int,
    rows: Optional[Tuple[int, int]] = None,
) -> Work:
    """Process leaf positions ``[p0, p1]``: a row piece overwrites
    ``rows``, the block it owns; a non-zero piece (``rows`` None) adds
    into the rows its positions touch, which other pieces share."""
    if p1 < p0:
        if rows is not None:
            out[rows[0] : rows[1] + 1, :] = 0.0
        return Work.zero()
    fp, fi, fj = _fibers(*piece_indptr(pos, p0, p1), coords)
    r0, r1 = rows or (int(fi[0]), int(fi[-1]))
    n = fj.size
    rp = np.searchsorted(fi, np.arange(r0, r1 + 2))
    block = out[r0 : r1 + 1, :]
    span = _Span(rp, _bounds(0, n - 1), True, block) if rows is None else _Span(
        rp, _bounds(0, r1 - r0), False, block)
    _contract(fp, crd, vals, C, D, fj, span, np.arange(n), np.ones(n))
    nnz, l = p1 - p0 + 1, C.shape[1]
    return Work(
        flops=3.0 * nnz * l,
        bytes=float(nnz * (2 * l + 3) * F8 + (int(fi[-1]) - int(fi[0]) + 1) * l * F8),
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


def spmttkrp_bind(pos, crd, vals, coords, C, D, out, pieces, accumulate):
    """Find every non-empty fiber's boundaries and ``(i, j)`` once; return
    ``(build, over)``.  ``build(p0, p1, rows, w)`` is a piece's thunk: its
    body slices the piece's fibers, clips the ones a non-zero piece cuts
    and finds its row boundaries over fibers.  ``over(live, w)`` runs
    every piece's body in piece order in one call, so a fiber or a row
    that pieces cut stays cut where they cut it and the pieces' partials
    add up in piece order.  It runs piece by piece because one pass over
    every fiber needs a fibers x rank sum and product of its own, which at
    ``program_mixed_gpu``'s sizes (32 MB each) the allocator maps afresh
    on every call: that pass measured slower than the pieces.  Each
    piece's body is derived once, shared by its thunk and the launch
    thunk.  The row sums share one identity column index and one unit
    data array per bind, sized to the longest piece's fiber count and
    sliced per piece."""
    fptr, fi, fj = _fibers(0, _indptr(pos), coords)
    starts = fptr[:-1]

    def span(p0, p1):
        """The piece's fibers ``[a, b)`` in the non-empty fiber list."""
        a, b = np.searchsorted(starts, (p0, p1), side="right")
        return int(a) - 1, int(b)

    longest = max(
        (b - a for a, b in (span(p[1], p[2]) for p in pieces if p[1] <= p[2])),
        default=0,
    )
    ident, ones = np.arange(longest), np.ones(longest)
    bodies = {}

    def body(p0, p1, rows):
        """The body of the piece ``(p0, p1, rows)``, None when it writes
        nothing."""
        key = (p0, p1, rows)
        if key in bodies:
            return bodies[key]
        if p1 < p0:
            fn = None if rows is None else partial(_zero, out[rows[0] : rows[1] + 1, :])
        else:
            a, b = span(p0, p1)
            fp = fptr[a : b + 1]
            if fp[0] != p0 or fp[-1] != p1 + 1:  # the piece cuts an end fiber
                fp = fp.copy()
                fp[0], fp[-1] = p0, p1 + 1
            pfi = fi[a:b]
            r0, r1 = rows or (int(pfi[0]), int(pfi[-1]))
            rp = np.searchsorted(pfi, np.arange(r0, r1 + 2))  # rows over fibers
            block = out[r0 : r1 + 1, :]
            fn = partial(
                _contract, fp, crd, vals, C, D, fj[a:b],
                _Span(rp, _bounds(0, b - a - 1), True, block) if rows is None
                else _Span(rp, _bounds(0, r1 - r0), False, block),
                ident[: b - a], ones[: b - a],
            )
        bodies[key] = fn
        return fn

    def build(p0, p1, rows, w):
        fn = body(p0, p1, rows)
        return _const(w) if fn is None else _body_thunk((fn,), w)

    def over(live, w):
        """Every piece's body, the live pieces' and an empty row piece's,
        which zeroes its block."""
        return _body_thunk([fn for p in pieces if (fn := body(*p[1:])) is not None], w)

    return build, over


def _fibers(f0: int, ip: np.ndarray, coords: Coords):
    """``(boundaries, i, j)`` of the non-empty fibers among fibers ``f0,
    f0 + 1, ...``, whose boundaries are ``ip`` (absolute positions): an
    empty fiber of a dense level 1 would scale a 0.0 row by ``C``, so it is
    dropped.  ``(i, j)`` are the coordinates of the fiber's level-1
    position: over the whole run of fibers in one pass when none is
    empty (always so under a compressed level 1, which stores no empty
    fiber), else at the kept positions alone — a dense level 1 may hold
    many more fibers than it keeps."""
    keep = ip[1:] > ip[:-1]
    if keep.all():
        fi, fj = coords(range(f0, f0 + keep.size), 1)
        return ip, fi, fj
    fi, fj = coords(f0 + np.flatnonzero(keep), 1)
    return np.append(ip[:-1][keep], ip[-1:]), fi, fj


def _contract(fp, crd, vals, C, D, fj, span, ident, ones) -> None:
    """The body: each fiber's sum against ``D`` from 0.0, scaled by the
    fiber's row of ``C``, then the fibers summed into their rows over
    ``span``."""
    m, k = D.shape
    Y = np.empty((fj.size, k))
    Y[...] = 0.0  # a reused heap block, where ``np.zeros`` may map fresh pages
    csr_matvecs(fj.size, m, k, fp, crd, vals, D.reshape(-1), Y.reshape(-1))
    Y *= np.take(C, fj, axis=0)
    span.reduce(ident, ones, Y)


def _zero(block) -> None:
    """An empty row piece's body: its block holds no fiber."""
    block[...] = 0.0


def _body_thunk(fns, w):
    """Run the bodies ``fns`` in order; return ``w``."""
    def thunk():
        for fn in fns:
            fn()
        return w
    return thunk
