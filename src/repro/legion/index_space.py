"""Index spaces: the Legion-style sets of points that regions are built over.

An :class:`IndexSpace` names a (hyper-)rectangular domain of integer points.
Partitions carve an index space into *subsets*, which are either dense
rectangles (:class:`RectSubset`, the common fast path) or explicit sorted
point lists (:class:`ArraySubset`, produced by dependent partitioning of
irregular data).  Subsets of multi-dimensional spaces are always rectangles
in this implementation; sparse level arrays (``pos``/``crd``/``vals``) are
one dimensional, which is where irregular subsets arise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Rect",
    "IndexSpace",
    "IndexSubset",
    "RectSubset",
    "ArraySubset",
    "EMPTY",
    "union_subsets",
    "intersect_subsets",
    "subsets_overlap",
    "subset_from_indices",
]


def _as_point(p: Union[int, Sequence[int]]) -> Tuple[int, ...]:
    if isinstance(p, (int, np.integer)):
        return (int(p),)
    return tuple(int(x) for x in p)


@dataclass(frozen=True)
class Rect:
    """An inclusive hyper-rectangle ``[lo, hi]`` of integer points.

    ``lo`` and ``hi`` are tuples with one entry per dimension.  A rect is
    *empty* when any ``hi[d] < lo[d]``; empty rects have zero volume and
    compare equal in emptiness but not structurally.
    """

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __init__(self, lo, hi):
        object.__setattr__(self, "lo", _as_point(lo))
        object.__setattr__(self, "hi", _as_point(hi))
        if len(self.lo) != len(self.hi):
            raise ValueError(f"rect lo/hi rank mismatch: {self.lo} vs {self.hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def empty(self) -> bool:
        return any(h < l for l, h in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        if self.empty:
            return 0
        v = 1
        for l, h in zip(self.lo, self.hi):
            v *= h - l + 1
        return v

    def contains_point(self, p) -> bool:
        p = _as_point(p)
        if len(p) != self.ndim:
            return False
        return all(l <= x <= h for x, l, h in zip(p, self.lo, self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        if other.empty:
            return True
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersection(self, other: "Rect") -> "Rect":
        if self.ndim != other.ndim:
            raise ValueError("rank mismatch in rect intersection")
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def overlaps(self, other: "Rect") -> bool:
        """``not self.intersection(other).empty``, without building the rect."""
        if self.ndim != other.ndim:
            raise ValueError("rank mismatch in rect intersection")
        for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            if sh < sl or oh < ol or oh < sl or sh < ol:  # empty, or apart
                return False
        return True

    def points(self) -> Iterable[Tuple[int, ...]]:
        """Iterate every point (row-major).  Intended for small rects/tests."""
        if self.empty:
            return
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        yield from itertools.product(*ranges)

    def shape(self) -> Tuple[int, ...]:
        return tuple(max(0, h - l + 1) for l, h in zip(self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.ndim == 1:
            return f"Rect[{self.lo[0]}..{self.hi[0]}]"
        return f"Rect[{self.lo}..{self.hi}]"


class IndexSpace:
    """A named rectangular domain of points.

    Index spaces are identity-compared: two spaces over the same bounds are
    distinct objects, matching Legion where partitions are attached to a
    specific ``IndexSpace`` handle.
    """

    _counter = itertools.count()

    @classmethod
    def advance_uid_counter(cls, beyond: int) -> None:
        """Ensure future index spaces get uids strictly greater than
        ``beyond`` (see :meth:`repro.legion.region.Region.advance_uid_counter`)."""
        nxt = next(cls._counter)
        cls._counter = itertools.count(max(nxt, int(beyond) + 1))

    def __init__(self, bounds: Union[Rect, int, Sequence[int]], name: str = ""):
        if isinstance(bounds, Rect):
            self.bounds = bounds
        elif isinstance(bounds, (int, np.integer)):
            self.bounds = Rect(0, int(bounds) - 1)
        else:
            shape = tuple(int(s) for s in bounds)
            self.bounds = Rect(tuple(0 for _ in shape), tuple(s - 1 for s in shape))
        self.uid = next(IndexSpace._counter)
        self.name = name or f"ispace{self.uid}"

    @property
    def ndim(self) -> int:
        return self.bounds.ndim

    @property
    def volume(self) -> int:
        return self.bounds.volume

    def shape(self) -> Tuple[int, ...]:
        return self.bounds.shape()

    def full_subset(self) -> "RectSubset":
        return RectSubset(self.bounds)

    def __repr__(self) -> str:  # pragma: no cover
        return f"IndexSpace({self.name}, {self.bounds})"


class IndexSubset:
    """Abstract subset of an index space (the payload of one partition color)."""

    @property
    def empty(self) -> bool:
        raise NotImplementedError

    @property
    def volume(self) -> int:
        raise NotImplementedError

    def indices(self) -> np.ndarray:
        """Materialize as a sorted 1-D array of (flattened) indices.

        Only supported for 1-D subsets; rect subsets of higher rank raise.
        """
        raise NotImplementedError

    def contains_point(self, p) -> bool:
        raise NotImplementedError

    def as_slice(self):
        """Return a basic-indexing key (slice / tuple of slices) if contiguous."""
        return None


@dataclass(frozen=True)
class RectSubset(IndexSubset):
    rect: Rect

    @property
    def empty(self) -> bool:
        return self.rect.empty

    @property
    def volume(self) -> int:
        return self.rect.volume

    def indices(self) -> np.ndarray:
        if self.rect.ndim != 1:
            raise ValueError("indices() only supported for 1-D subsets")
        if self.rect.empty:
            return np.empty(0, dtype=np.int64)
        return np.arange(self.rect.lo[0], self.rect.hi[0] + 1, dtype=np.int64)

    def contains_point(self, p) -> bool:
        return self.rect.contains_point(p)

    def as_slice(self):
        if self.rect.empty:
            return tuple(slice(0, 0) for _ in range(self.rect.ndim))
        key = tuple(slice(l, h + 1) for l, h in zip(self.rect.lo, self.rect.hi))
        return key[0] if self.rect.ndim == 1 else key

    def __repr__(self) -> str:  # pragma: no cover
        return f"RectSubset({self.rect})"


class ArraySubset(IndexSubset):
    """An explicit, sorted, duplicate-free set of 1-D indices."""

    __slots__ = ("_idx",)

    def __init__(self, idx: np.ndarray, *, assume_sorted_unique: bool = False):
        idx = np.asarray(idx, dtype=np.int64).ravel()
        if not assume_sorted_unique:
            idx = np.unique(idx)
        self._idx = idx

    @property
    def empty(self) -> bool:
        return self._idx.size == 0

    @property
    def volume(self) -> int:
        return int(self._idx.size)

    def indices(self) -> np.ndarray:
        return self._idx

    def contains_point(self, p) -> bool:
        p = _as_point(p)
        if len(p) != 1:
            return False
        pos = np.searchsorted(self._idx, p[0])
        return pos < self._idx.size and self._idx[pos] == p[0]

    def as_slice(self):
        if self._idx.size == 0:
            return slice(0, 0)
        lo, hi = int(self._idx[0]), int(self._idx[-1])
        if hi - lo + 1 == self._idx.size:  # contiguous run
            return slice(lo, hi + 1)
        return None

    def __eq__(self, other):
        if isinstance(other, ArraySubset):
            return np.array_equal(self._idx, other._idx)
        if isinstance(other, RectSubset):
            return np.array_equal(self._idx, other.indices())
        return NotImplemented

    def __hash__(self):  # pragma: no cover - subsets rarely hashed
        return hash(self._idx.tobytes())

    def __repr__(self) -> str:  # pragma: no cover
        return f"ArraySubset(n={self._idx.size})"


EMPTY = RectSubset(Rect(0, -1))


def subset_from_indices(idx: np.ndarray) -> IndexSubset:
    """Build the tightest subset for a 1-D index array (rect when contiguous)."""
    idx = np.unique(np.asarray(idx, dtype=np.int64))
    if idx.size == 0:
        return EMPTY
    lo, hi = int(idx[0]), int(idx[-1])
    if hi - lo + 1 == idx.size:
        return RectSubset(Rect(lo, hi))
    return ArraySubset(idx, assume_sorted_unique=True)


def _from_sorted_unique(idx: np.ndarray) -> IndexSubset:
    """Like :func:`subset_from_indices` but for already sorted, unique input
    (skips the ``np.unique`` sort — the hot path of the staging algebra)."""
    if idx.size == 0:
        return EMPTY
    lo, hi = int(idx[0]), int(idx[-1])
    if hi - lo + 1 == idx.size:
        return RectSubset(Rect(lo, hi))
    return ArraySubset(idx, assume_sorted_unique=True)


def _span_1d(s: IndexSubset) -> Tuple[int, int]:
    """(first, last) index of a non-empty 1-D subset."""
    if isinstance(s, RectSubset):
        return int(s.rect.lo[0]), int(s.rect.hi[0])
    idx = s.indices()
    return int(idx[0]), int(idx[-1])


def union_subsets(subsets: Sequence[IndexSubset]) -> IndexSubset:
    """Union 1-D subsets, collapsing to a rect when the result is contiguous."""
    subsets = [s for s in subsets if not s.empty]
    if not subsets:
        return EMPTY
    if len(subsets) == 1:
        return subsets[0]
    if all(isinstance(s, RectSubset) and s.rect.ndim == 1 or isinstance(s, ArraySubset)
           for s in subsets):
        # A rect spanning every subset's range contains the whole union —
        # return it without materializing anything (the common case of a
        # replicated full copy unioned with staged pieces).
        spans = [_span_1d(s) for s in subsets]
        lo = min(a for a, _ in spans)
        hi = max(b for _, b in spans)
        for s, (a, b) in zip(subsets, spans):
            if isinstance(s, RectSubset) and a == lo and b == hi:
                return s
    if all(isinstance(s, RectSubset) for s in subsets):
        rects = sorted((s.rect for s in subsets), key=lambda r: r.lo[0])
        lo, hi = rects[0].lo[0], rects[0].hi[0]
        contiguous = True
        for r in rects[1:]:
            if r.lo[0] <= hi + 1:
                hi = max(hi, r.hi[0])
            else:
                contiguous = False
                break
        if contiguous:
            return RectSubset(Rect(lo, hi))
    return subset_from_indices(np.concatenate([s.indices() for s in subsets]))


def subtract_subsets(a: IndexSubset, b: IndexSubset) -> IndexSubset:
    """Points of ``a`` not in ``b``.

    Exact for 1-D subsets; for multi-dimensional rects the result is ``a``
    unless ``b`` fully covers it (a conservative approximation — N-D rect
    differences are not representable as a single subset).

    The 1-D cases are fully vectorized and avoid materializing rects as
    index arrays wherever the result is expressible in bounds arithmetic —
    this sits on the staging hot path of every index launch.
    """
    if a.empty:
        return EMPTY
    if b.empty:
        return a
    if isinstance(a, RectSubset) and a.rect.ndim > 1:
        if isinstance(b, RectSubset) and b.rect.contains_rect(a.rect):
            return EMPTY
        return a
    if isinstance(b, RectSubset) and b.rect.ndim > 1:
        return a
    if isinstance(a, RectSubset):
        alo, ahi = int(a.rect.lo[0]), int(a.rect.hi[0])
        if isinstance(b, RectSubset):
            blo, bhi = int(b.rect.lo[0]), int(b.rect.hi[0])
            if bhi < alo or blo > ahi:
                return a
            left = (alo, min(ahi, blo - 1))
            right = (max(alo, bhi + 1), ahi)
            has_left, has_right = left[1] >= left[0], right[1] >= right[0]
            if not has_left and not has_right:
                return EMPTY
            if has_left and not has_right:
                return RectSubset(Rect(left[0], left[1]))
            if has_right and not has_left:
                return RectSubset(Rect(right[0], right[1]))
            idx = np.concatenate([
                np.arange(left[0], left[1] + 1, dtype=np.int64),
                np.arange(right[0], right[1] + 1, dtype=np.int64),
            ])
            return ArraySubset(idx, assume_sorted_unique=True)
        ib = b.indices()
        j0 = np.searchsorted(ib, alo)
        j1 = np.searchsorted(ib, ahi, side="right")
        inside = ib[j0:j1]
        n = ahi - alo + 1
        if inside.size == 0:
            return a
        if inside.size == n:
            return EMPTY
        mask = np.ones(n, dtype=bool)
        mask[inside - alo] = False
        return _from_sorted_unique(np.flatnonzero(mask) + alo)
    ia = a.indices()
    if isinstance(b, RectSubset):
        blo, bhi = int(b.rect.lo[0]), int(b.rect.hi[0])
        i0 = np.searchsorted(ia, blo)
        i1 = np.searchsorted(ia, bhi, side="right")
        if i0 == i1:
            return a
        return _from_sorted_unique(np.concatenate([ia[:i0], ia[i1:]]))
    keep = ~np.isin(ia, b.indices(), assume_unique=True)
    return _from_sorted_unique(ia[keep])


def intersect_subsets(a: IndexSubset, b: IndexSubset) -> IndexSubset:
    if a.empty or b.empty:
        return EMPTY
    if isinstance(a, RectSubset) and isinstance(b, RectSubset):
        r = a.rect.intersection(b.rect)
        return EMPTY if r.empty else RectSubset(r)
    # Rect ∩ array: a sorted array sliced by bounds stays sorted and unique,
    # so two binary searches replace materializing the rect + intersect1d.
    for arr, rect in ((a, b), (b, a)):
        if (
            isinstance(arr, ArraySubset)
            and isinstance(rect, RectSubset)
            and rect.rect.ndim == 1
        ):
            idx = arr.indices()
            i0 = np.searchsorted(idx, rect.rect.lo[0])
            i1 = np.searchsorted(idx, rect.rect.hi[0], side="right")
            return _from_sorted_unique(idx[i0:i1])
    ia, ib = a.indices(), b.indices()
    return subset_from_indices(np.intersect1d(ia, ib, assume_unique=True))


def subsets_overlap(a: IndexSubset, b: IndexSubset) -> bool:
    """``not intersect_subsets(a, b).empty``; allocation-free for two rects
    (the output-coherence test of every written piece of every launch)."""
    if isinstance(a, RectSubset) and isinstance(b, RectSubset):
        return a.rect.overlaps(b.rect)
    return not intersect_subsets(a, b).empty
