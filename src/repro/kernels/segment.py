"""The segment-reduce primitive under every leaf that reduces.

One compiled primitive does the leaves' arithmetic: *reduce each sorted
segment of a compressed level against dense operand(s), from 0.0, left to
right* — :func:`segment_dot` against a vector, :func:`segment_matmul`
against the rows of a matrix.  It is SciPy's ``csr_matvec`` /
``csr_matvecs`` called on views: a range of the level's segment boundaries
(:func:`packed_indptr`; :func:`piece_indptr` clips it to a non-zero piece)
and the *whole* ``crd`` / ``vals`` arrays, so nothing proportional to the
non-zeros is built beside the level.

The bind functions beside each reference kernel (``segdot_bind`` and
friends) call the same entry points with the same arguments, which is why
the interpreter leaves and the bound leaves agree bit for bit; what they
share is written once below: :class:`_Span`, the segments one call
reduces and how its results reach the output — a piece's own, or every
piece of a launch at once.  Non-zero pieces cut segments; one call over
all of them reduces each piece's part of a cut segment as a *virtual*
segment of its own, from 0.0 (the workspace of SparseLNR), and adds the
partials into the output in piece order — the sums, and the order of
the additions, that the pieces' own calls make.

Two more structural derivations live here, both linear passes over a
packed level: :func:`row_of_range`, the owning segment of every position
of a range, from segment lengths; and SpAdd's pattern union
(:mod:`.spadd`), which runs on SciPy's canonical CSR merge
``csr_plus_csr`` after :func:`check_canonical` has found each operand's
rows ordered and unique.

``scipy.sparse._sparsetools`` is private SciPy surface: it is imported by
name here only, and ``tests/kernels/test_segment.py`` pins what the
leaves and the merge rely on.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy

from ..errors import CompileError, FormatError

try:
    from scipy.sparse._sparsetools import (
        csr_has_canonical_format, csr_matvec, csr_matvecs, csr_plus_csr,
    )
except ImportError as e:  # pragma: no cover - depends on the SciPy build
    raise CompileError(
        f"scipy {scipy.__version__} lacks scipy.sparse._sparsetools."
        "csr_matvec / csr_matvecs / csr_plus_csr / csr_has_canonical_format, "
        "which every reducing leaf kernel and SpAdd's merge run on"
    ) from e

__all__ = [
    "check_canonical", "check_packed", "packed_indptr", "piece_indptr",
    "piece_range", "row_of_positions", "row_of_range", "segment_dot",
    "segment_matmul",
]


def piece_range(extent: int, pieces: int, color: int) -> Tuple[int, int]:
    """Inclusive [lo, hi] chunk bounds used by divide (Fig. 9b convention).
    Elementwise: ``color`` may be an int array, giving arrays of bounds."""
    chunk = -(-extent // pieces) if extent else 0
    lo = color * chunk
    return lo, np.minimum(lo + chunk, extent) - 1


def row_of_positions(starts: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Owning parent entry of each position, given monotone range starts.

    ``starts`` is ``pos[:, 0]`` of a canonically packed level: empty entries
    share their successor's start, so the last entry with ``start <= p``
    (``searchsorted right - 1``) is the non-empty owner of position ``p``.
    """
    return np.searchsorted(starts, positions, side="right") - 1


def row_of_range(starts: np.ndarray, p0: int, p1: int) -> np.ndarray:
    """:func:`row_of_positions` of every position ``p0 .. p1``, in one
    pass over the range: each touched segment's id repeated over its
    length, the first and last clipped to ``[p0, p1]`` — O(range) where a
    search per position is O(range · log segments).  Only the two ends
    are searched."""
    if p1 < p0:
        return np.empty(0, dtype=np.int64)
    a, b = starts.searchsorted((p0, p1), side="right").tolist()  # the owners + 1
    edges = np.empty(b - a + 2, dtype=np.int64)
    edges[0], edges[1:-1], edges[-1] = p0, starts[a:b], p1 + 1
    return np.repeat(np.arange(a - 1, b, dtype=np.int64), edges[1:] - edges[:-1])


def check_canonical(indptr: np.ndarray, crd: np.ndarray, name: str) -> None:
    """Raise :class:`~repro.errors.FormatError` unless every segment of
    ``(indptr, crd)`` holds strictly ascending coordinates — the *ordered*
    and *unique* properties ``Tensor._pack`` gives every compressed level,
    so only a hand-built level fails.  The error names ``name`` and the
    first offending segment (row), counted from ``indptr``'s first."""
    n = indptr.size - 1
    if n <= 0 or csr_has_canonical_format(n, indptr, crd):
        return
    lo, hi = int(indptr[0]), int(indptr[-1])
    bad = crd[lo + 1 : hi] <= crd[lo : hi - 1]
    heads = indptr[1:-1] - lo - 1  # a segment's first entry follows no entry of its own
    bad[heads[(heads >= 0) & (heads < bad.size)]] = False
    p = lo + 1 + int(bad.argmax())
    row = int(row_of_positions(indptr, p))
    what = "repeats" if crd[p] == crd[p - 1] else "descends"
    raise FormatError(
        f"{name} is not a canonical compressed level: row {row} {what} "
        f"(coordinate {int(crd[p])} after {int(crd[p - 1])})"
    )


def check_packed(pos: np.ndarray, name: str = "pos") -> None:
    """Raise :class:`~repro.errors.FormatError` unless rect ``pos`` is
    *packed* — ``hi[k] + 1 == lo[k + 1]`` and no entry of negative length
    (``hi[k] >= lo[k] - 1``), as ``make_pos_region(counts)`` builds it.
    The leaves read a segment's end off its successor's start and would
    mis-slice a hand-built bounds region that leaves a gap or steps back."""
    lo, hi = pos[:, 0], pos[:, 1]
    ends = hi + 1
    gap = ends[:-1] != lo[1:]
    if gap.any():
        k = int(gap.argmax())
        raise FormatError(
            f"region {name!r} is not a packed level: entry {k} ends at "
            f"position {int(hi[k])} but entry {k + 1} starts at {int(lo[k + 1])}"
        )
    short = ends < lo
    if short.any():
        k = int(short.argmax())
        raise FormatError(
            f"region {name!r} is not a packed level: entry {k} has negative "
            f"length (starts at {int(lo[k])}, ends at {int(hi[k])})"
        )


def packed_indptr(pos: np.ndarray) -> np.ndarray:
    """The segment boundaries of a packed rect ``pos`` array (or a row
    range of one) as one contiguous ``int64`` array of *absolute*
    positions: every ``lo`` plus a final ``hi[-1] + 1``."""
    check_packed(pos)
    if not len(pos):
        return np.zeros(1, dtype=np.int64)
    return np.append(pos[:, 0], pos[-1, 1] + 1)


def piece_indptr(pos: np.ndarray, p0: int, p1: int) -> Tuple[int, np.ndarray]:
    """``(r0, indptr)`` of non-zero piece ``[p0, p1]``: the first segment
    it touches and the boundaries of every one it touches, the first and
    last clipped to the piece."""
    r0, r1 = row_of_positions(pos[:, 0], np.array([p0, p1]))
    indptr = packed_indptr(pos[r0 : r1 + 1])
    indptr[0], indptr[-1] = p0, p1 + 1
    return int(r0), indptr


def segment_dot(indptr: np.ndarray, crd: np.ndarray, vals: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """``Σ vals[p] · x[crd[p]]`` over ``p ∈ [indptr[s], indptr[s + 1])``
    per segment ``s``, each sum formed from 0.0 left to right."""
    acc = np.zeros(indptr.size - 1)  # csr_matvec accumulates into it
    csr_matvec(acc.size, x.size, indptr, crd, vals, x, acc)
    return acc


def segment_matmul(indptr: np.ndarray, crd: np.ndarray, vals: np.ndarray,
                   X: np.ndarray) -> np.ndarray:
    """``Σ vals[p] · X[crd[p], :]`` over ``p ∈ [indptr[s], indptr[s + 1])``
    per segment ``s``, each sum formed from 0.0 left to right."""
    m, k = X.shape
    acc = np.zeros((indptr.size - 1, k))
    csr_matvecs(len(acc), m, k, indptr, crd, vals, X.reshape(-1), acc.reshape(-1))
    return acc


# --------------------------------------------------------------------------- #
# what the bind functions share
# --------------------------------------------------------------------------- #
def _const(w):
    """The thunk of an empty piece: it returns the piece's frozen Work."""
    def thunk():
        return w
    return thunk


def _indptr(pos: np.ndarray) -> np.ndarray:
    """Every ``lo`` of ``pos`` plus a final ``hi[-1] + 1``, derived once per
    bind: the kernel table checked the level packed before handing it over."""
    return np.append(pos[:, 0], pos[-1:, 1] + 1)


def _bounds(lo: int, hi: int) -> np.ndarray:
    """One piece's range as the live bounds of a call: ``[[lo, hi]]``, or
    no row when it is empty."""
    return np.array([(lo, hi)] if lo <= hi else (), dtype=np.int64).reshape(-1, 2)


class _Span:
    """What one call of a bound reduce covers — a piece, or every live
    piece of a launch (``bounds``: their ``(lo, hi)`` in piece order,
    tiling one range) — and the block ``ov`` of ``out`` (rows, then
    ``cols``) it writes.

    Row pieces own whole segments ``[lo, hi]``: ``ip`` is a view of
    ``indptr`` over them, and the call writes its output rows in place
    (``runs`` is None).  Non-zero pieces own positions ``[p0, p1]``:
    ``ip`` holds every piece's own segments, concatenated in piece order,
    the first and last of each clipped to it — a segment cut by k piece
    starts is k + 1 *virtual* segments, O(segments + pieces) — reduced
    from 0.0 into a scratch, and ``runs`` adds each piece's partials into
    its rows in piece order: the additions, over the same rows, that the
    piece's own call makes (NumPy's loops give a NaN plus a NaN the sign
    of either, by where it falls in the call, so a piece's additions are
    never merged with its neighbour's)."""

    __slots__ = ("ip", "ov", "runs")

    def __init__(self, indptr: np.ndarray, bounds: np.ndarray, accumulate: bool,
                 out: np.ndarray, cols: slice = slice(None)):
        lo, hi = int(bounds[0, 0]), int(bounds[-1, 1])
        if not accumulate:
            self.ip, self.ov, self.runs = indptr[lo : hi + 2], out[lo : hi + 1][..., cols], None
            return
        # each piece's first and last segment
        segs = (np.searchsorted(indptr, bounds, side="right") - 1).tolist()
        self.ip = np.concatenate([*(indptr[a : b + 1] for a, b in segs), bounds[-1:, 1] + 1])
        r0 = segs[0][0]
        self.ov = out[r0 : segs[-1][1] + 1][..., cols]
        self.runs, f = [], 0  # f: the piece's first virtual segment
        for (a, b), p0 in zip(segs, bounds[:, 0].tolist()):
            self.ip[f] = p0
            self.runs.append((self.ov[a - r0 : b - r0 + 1], slice(f, f + b - a + 1)))
            f += b - a + 1

    def target(self) -> np.ndarray:
        """The zeroed array ``csr_matvec(s)`` accumulates into: the output
        block itself where a row call can write it in place, else (a
        ``grid`` column window, a permuted layout, another dtype, and
        always virtual segments, whose partials are formed from 0.0 and
        *then* added in) a fresh array, one entry per segment."""
        ov = self.ov
        if self.runs is None and ov.flags.c_contiguous and ov.dtype == np.float64:
            ov[...] = 0.0
            return ov
        return np.zeros((self.ip.size - 1, *ov.shape[1:]))

    def deliver(self, acc: np.ndarray) -> None:
        """Add each run of partials into its rows, in piece order; copy a
        row call's result into a block it could not write in place."""
        if self.runs is not None:
            for rows, part in self.runs:
                np.add(rows, acc[part], out=rows)
        elif acc is not self.ov:
            self.ov[...] = acc

    def reduce(self, crd, vals, X: np.ndarray) -> None:
        """The SpMM reduce: one ``csr_matvecs`` over the boundaries into
        the output block."""
        m, k = X.shape
        acc = self.target()
        csr_matvecs(self.ip.size - 1, m, k, self.ip, crd, vals, X.reshape(-1), acc.reshape(-1))
        self.deliver(acc)
