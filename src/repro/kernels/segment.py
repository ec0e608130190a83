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
the interpreter leaves and the bound leaves agree bit for bit; the helpers
they share — segment boundaries, the accumulation target and the SpMM
reduce, each taking the strategy's ``accumulate`` flag — are written once
below.

``scipy.sparse._sparsetools`` is private SciPy surface: it is imported by
name here only, and ``tests/kernels/test_segment.py`` pins what the
leaves rely on.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy

from ..errors import CompileError, FormatError

try:
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
except ImportError as e:  # pragma: no cover - depends on the SciPy build
    raise CompileError(
        f"scipy {scipy.__version__} lacks scipy.sparse._sparsetools."
        "csr_matvec / csr_matvecs, which every reducing leaf kernel runs on"
    ) from e

__all__ = [
    "check_packed", "packed_indptr", "piece_indptr", "piece_range",
    "row_of_positions", "segment_dot", "segment_matmul", "segment_sum_matrix",
]


def piece_range(extent: int, pieces: int, color: int) -> Tuple[int, int]:
    """Inclusive [lo, hi] chunk bounds used by divide (Fig. 9b convention)."""
    chunk = -(-extent // pieces) if extent else 0
    lo = color * chunk
    hi = min((color + 1) * chunk, extent) - 1
    return lo, hi


def row_of_positions(starts: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Owning parent entry of each position, given monotone range starts.

    ``starts`` is ``pos[:, 0]`` of a canonically packed level: empty entries
    share their successor's start, so the last entry with ``start <= p``
    (``searchsorted right - 1``) is the non-empty owner of position ``p``.
    """
    return np.searchsorted(starts, positions, side="right") - 1


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


def segment_sum_matrix(values: np.ndarray, seg_ids: np.ndarray, nseg: int) -> np.ndarray:
    """Row-wise segmented sum of an ``(n, k)`` matrix into ``(nseg, k)``,
    for **ascending** ``seg_ids``: the segment reduce over an identity
    column index and unit data, which adds the rows in order."""
    n = len(values)
    indptr = np.searchsorted(seg_ids, np.arange(nseg + 1))
    return segment_matmul(indptr, np.arange(n), np.ones(n), values)


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


def _segments_of(indptr: np.ndarray, lo: int, hi: int, accumulate: bool):
    """``(r0, boundaries)`` of a piece: a row piece's segments ``[lo, hi]``
    as a *view* of ``indptr``; a non-zero piece's positions ``[lo, hi]`` as
    a copy of the boundaries of the segments it touches, the first and last
    clipped to its positions."""
    if not accumulate:
        return lo, indptr[lo : hi + 2]
    r0, r1 = np.searchsorted(indptr, (lo, hi), side="right") - 1
    ip = indptr[r0 : r1 + 2].copy()
    ip[0], ip[-1] = lo, hi + 1
    return int(r0), ip


def _target(ov: np.ndarray, accumulate: bool) -> np.ndarray:
    """The zeroed array ``csr_matvec(s)`` accumulates into: the output block
    itself where a row piece can write it in place, else (a ``grid`` column
    window, a permuted layout, another dtype, and always a non-zero piece,
    whose partial is formed from 0.0 and *then* added in) a fresh array."""
    if not accumulate and ov.flags.c_contiguous and ov.dtype == np.float64:
        ov[...] = 0.0
        return ov
    return np.zeros(ov.shape)


def _deliver(acc: np.ndarray, ov: np.ndarray, accumulate: bool) -> None:
    """Add a non-zero piece's partial into its rows; copy a row piece's
    result into a block it could not write in place."""
    if accumulate:
        np.add(ov, acc, out=ov)
    elif acc is not ov:
        ov[...] = acc


def _reduce(ip, crd, vals, X, ov, accumulate: bool) -> None:
    """The SpMM reduce: one ``csr_matvecs`` over a piece's boundaries into
    its output rows ``ov``."""
    m, k = X.shape
    acc = _target(ov, accumulate)
    csr_matvecs(ip.size - 1, m, k, ip, crd, vals, X.reshape(-1), acc.reshape(-1))
    _deliver(acc, ov, accumulate)
