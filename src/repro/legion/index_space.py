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
import operator
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
    return tuple(map(int, p))


class _once:
    """A value of an immutable object, computed on first read and kept in
    the instance ``__dict__`` — beside the dataclass fields, so it takes no
    part in ``__eq__`` or ``__hash__`` (and ``Rect.__getstate__`` leaves it
    out of the pickled state)."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Rect:
    """An inclusive hyper-rectangle ``[lo, hi]`` of integer points.

    ``lo`` and ``hi`` are tuples with one entry per dimension.  A rect is
    *empty* when any ``hi[d] < lo[d]``; empty rects have zero volume and
    compare equal in emptiness but not structurally.  ``empty`` and
    ``volume`` are computed once per rect.
    """

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __init__(self, lo, hi):
        object.__setattr__(self, "lo", _as_point(lo))
        object.__setattr__(self, "hi", _as_point(hi))
        if len(self.lo) != len(self.hi):
            raise ValueError(f"rect lo/hi rank mismatch: {self.lo} vs {self.hi}")

    def __getstate__(self):
        return {"lo": self.lo, "hi": self.hi}

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @_once
    def empty(self) -> bool:
        return any(map(operator.lt, self.hi, self.lo))

    @_once
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


def rect_piece(lo: Tuple[int, ...], hi: Tuple[int, ...], volume: int) -> IndexSubset:
    """The subset of a partition colour whose bounds row is ``lo`` / ``hi``
    (tuples) of ``volume`` points: :data:`EMPTY` when that is 0, else the
    rect.  The rect is trusted — its points come from a partition's bounds
    arrays, so no argument is checked — and carries ``empty`` / ``volume``."""
    if not volume:
        return EMPTY
    r = object.__new__(Rect)
    r.__dict__.update(lo=lo, hi=hi, empty=False, volume=volume)
    s = object.__new__(RectSubset)
    s.__dict__["rect"] = r
    return s


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


def leading_extent(s: IndexSubset) -> Tuple[int, int]:
    """(first, last) coordinate of a non-empty subset on its leading axis."""
    if isinstance(s, RectSubset):
        return int(s.rect.lo[0]), int(s.rect.hi[0])
    idx = s.indices()
    return int(idx[0]), int(idx[-1])


def _merged(a: Rect, b: Rect):
    """``a ∪ b`` when that union is itself a rect, else ``None``."""
    if a.contains_rect(b):
        return a
    if b.contains_rect(a):
        return b
    differ = [d for d in range(a.ndim) if (a.lo[d], a.hi[d]) != (b.lo[d], b.hi[d])]
    d = differ[0]
    if len(differ) > 1 or a.lo[d] > b.hi[d] + 1 or b.lo[d] > a.hi[d] + 1:
        return None
    lo, hi = list(a.lo), list(a.hi)
    lo[d], hi[d] = min(a.lo[d], b.lo[d]), max(a.hi[d], b.hi[d])
    return Rect(tuple(lo), tuple(hi))


def _union_rects_nd(subsets: Sequence[IndexSubset]) -> RectSubset:
    """Union of N-D rects: merge pairs whose union is a rect until none is
    left (sorted first, so the answer does not depend on argument order).
    Exact when that ends in one rect — two row blocks of one column window
    that touch, or two column windows of one row block.  Otherwise (a gap,
    or windows that do not line up) the union is no rect and the largest
    merged rect stands for it: an under-approximation, so
    :func:`subtract_subsets` keeps what it cannot prove covered."""
    ndim = max(s.rect.ndim for s in subsets if isinstance(s, RectSubset))
    if not all(isinstance(s, RectSubset) and s.rect.ndim == ndim for s in subsets):
        raise ValueError("rank mismatch in subset union")
    rects = sorted((s.rect for s in subsets), key=lambda r: (r.lo, r.hi))
    i = 0
    while i < len(rects):
        for j in range(i + 1, len(rects)):
            m = _merged(rects[i], rects[j])
            if m is not None:
                rects[i] = m
                del rects[j]
                i = -1  # a grown rect may now merge with an earlier one
                break
        i += 1
    return RectSubset(max(rects, key=lambda r: r.volume))


def union_subsets(subsets: Sequence[IndexSubset]) -> IndexSubset:
    """Union subsets, collapsing 1-D results to a rect when contiguous.

    Exact for 1-D subsets.  N-D subsets are rects; their union is exact
    when it is a rect and under-approximated otherwise
    (:func:`_union_rects_nd`).
    """
    subsets = [s for s in subsets if not s.empty]
    if not subsets:
        return EMPTY
    if len(subsets) == 1:
        return subsets[0]
    if any(isinstance(s, RectSubset) and s.rect.ndim > 1 for s in subsets):
        return _union_rects_nd(subsets)
    if all(isinstance(s, RectSubset) and s.rect.ndim == 1 or isinstance(s, ArraySubset)
           for s in subsets):
        # A rect spanning every subset's range contains the whole union —
        # return it without materializing anything (the common case of a
        # replicated full copy unioned with staged pieces).
        spans = [leading_extent(s) for s in subsets]
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
    differences are not representable as a single subset).  The ``b`` a
    caller builds with :func:`union_subsets` errs the same way: an N-D
    union that is no rect is under-approximated by its largest merged
    rect, so the pair never reports a point covered that is not.

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
