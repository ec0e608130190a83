"""Partitions: mappings from colors to (possibly overlapping) index subsets.

Partitions follow Legion semantics (paper §III-A): a partition of an index
space assigns to each *color* a subset of the space.  Subsets may overlap
(aliased partitions — e.g. the preimage in Fig. 6b colors some indices with
multiple colors) and need not cover the space.  Regions are distributed by
partitioning their index space and placing each sub-region in a different
memory.
"""
from __future__ import annotations

import hashlib
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .index_space import (
    EMPTY,
    ArraySubset,
    IndexSpace,
    IndexSubset,
    Rect,
    RectSubset,
    _once,
    rect_piece,
    union_subsets,
)

__all__ = ["Coloring", "Partition", "equal_partition", "equal_partition_nd"]

Color = Hashable


class Coloring:
    """Colors and their inclusive ``(lo, hi)`` bounds, as columns.

    This is the object the generated partitioning code fills (``C[color] =
    bounds`` in Table I, inside the loop over the launch domain of Fig. 9b;
    here one :meth:`fill` of every color) before it is finalized into a
    :class:`Partition`: ``bounds[k]`` is the ``(lo, hi)`` row of the
    ``k``-th color, an ``(n × 2)`` int64 array.
    """

    def __init__(self, colors: Sequence[Color] = (), bounds=None):
        self.fill(colors, () if bounds is None else bounds)

    @classmethod
    def of(cls, entries: Mapping[Color, Tuple[int, int]]) -> "Coloring":
        """The coloring of a ``{color: (lo, hi)}`` mapping, in its order."""
        return entries if isinstance(entries, Coloring) else cls(
            list(entries), list(entries.values()))

    def fill(self, colors: Sequence[Color], bounds) -> None:
        """Every color's bounds at once: ``bounds`` in ``colors`` order."""
        self._colors = list(colors)
        self.bounds = np.asarray(bounds, dtype=np.int64).reshape(-1, 2)
        if len(self.bounds) != len(self._colors):
            raise ValueError(f"{len(self._colors)} colors, {len(self.bounds)} bounds")

    def __len__(self) -> int:
        return len(self._colors)

    def items(self) -> List[Tuple[Color, Tuple[int, int]]]:
        return list(zip(self._colors, map(tuple, self.bounds.tolist())))

    def colors(self) -> List[Color]:
        return list(self._colors)


class Partition:
    """A partition of ``parent`` into per-color subsets.

    A partition whose pieces are all rects also has them as columns:
    :attr:`bounds` is ``(lo, hi)``, ``(colors × ndim)`` int64 in color order,
    an empty color a row ``(0, -1)`` on every axis.  The dependent
    partitioning operations compute those arrays in one pass and keep them
    (:meth:`from_bounds`): such a partition builds no subset until a caller
    asks for one — ``partition[color]`` makes that color's rect (once,
    shared with every :meth:`copy`), :attr:`subsets` / :meth:`items` make
    them all — and :meth:`is_disjoint` (and a 1-D :meth:`is_complete`)
    read the columns.  A partition built from pieces (an :class:`ArraySubset`
    colour, a hand-built dict) has them all made, and derives its bounds on
    first read.  Partitions are named by their content (:attr:`key`), never
    by identity.
    """

    def __init__(
        self,
        parent: IndexSpace,
        subsets: Dict[Color, IndexSubset],
        *,
        name: str = "",
    ):
        self.parent = parent
        self.name = name or f"part_of_{parent.name}"
        self._colors = list(subsets)
        #: every color's piece in color order, None where not made yet (a
        #: partition built from its bounds makes one when it is first read)
        self._made: list = list(subsets.values())

    @classmethod
    def from_bounds(cls, parent: IndexSpace, colors: Sequence[Color], lo: np.ndarray,
                    hi: np.ndarray, *, name: str = "") -> "Partition":
        """Color ``colors[k]`` gets the rect ``[lo[k], hi[k]]`` (``EMPTY``
        where any ``hi < lo``); no subset is built here."""
        volumes = np.maximum(hi - lo + 1, 0).prod(axis=1)
        if not volumes.all():
            live = volumes[:, None] > 0
            lo, hi = np.where(live, lo, 0), np.where(live, hi, -1)
        part = cls.__new__(cls)
        part.parent, part.name = parent, name or f"part_of_{parent.name}"
        part._colors, part._made = list(colors), [None] * len(colors)
        part.__dict__.update(bounds=(lo, hi), sizes=volumes)
        return part

    @_once
    def bounds(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(lo, hi)`` of every color's rect, or None when a piece is an
        index list (:class:`ArraySubset`).  Kept once read or built; a
        pickle taken before then carries none and derives it on load."""
        return _bounds_of(self.parent.ndim, self.subsets.values())

    @_once
    def key(self) -> Tuple[bytes, bytes]:
        """The partition's content as ``(colors, pieces)``, both bytes: a
        launch trace names the partition by both, a residency fact by the
        pieces, so partitions built apart with equal pieces share traces
        and facts.  The pieces of a partition of rects are its bounds
        (``lo``, then ``hi``; a region's partitions share its rank), of any
        other a sha256 of each colour's piece.  Made on first read."""
        colors = repr(self._colors).encode()
        if self.bounds is None:
            return colors, b"".join(map(_digest, self.subsets.values()))
        lo, hi = self.bounds
        return colors, lo.tobytes() + hi.tobytes()

    @_once
    def sizes(self) -> np.ndarray:
        """Every color's volume, in color order."""
        return np.array([s.volume for s in self.subsets.values()], dtype=np.int64)

    @_once
    def subsets(self) -> Dict[Color, IndexSubset]:
        """Every color's subset, in color order (a partition built from its
        bounds makes the ones no caller has asked for yet)."""
        return dict(zip(self._colors, map(self.piece, range(len(self._colors)))))

    @_once
    def _rows(self) -> Tuple[list, list, list]:
        """The bounds and volumes as lists, read once for every piece made."""
        return self.bounds[0].tolist(), self.bounds[1].tolist(), self.sizes.tolist()

    @_once
    def _index(self) -> Dict[Color, int]:
        return dict(zip(self._colors, range(len(self._colors))))

    # -- access ----------------------------------------------------------
    def __getitem__(self, color: Color) -> IndexSubset:
        k = self._index.get(color)
        return EMPTY if k is None else self.piece(k)

    def piece(self, k: int) -> IndexSubset:
        """The subset of the ``k``-th color (in :meth:`colors` order)."""
        piece = self._made[k]
        if piece is None:
            lo, hi, volumes = self._rows
            piece = self._made[k] = rect_piece(tuple(lo[k]), tuple(hi[k]), volumes[k])
        return piece

    def colors(self) -> List[Color]:
        return list(self._colors)

    @property
    def n_colors(self) -> int:
        return len(self._colors)

    def items(self):
        return self.subsets.items()

    def live(self) -> np.ndarray:
        """Per color in order: whether its subset is non-empty."""
        return self.sizes > 0

    # -- structural properties -------------------------------------------
    def is_disjoint(self) -> bool:
        """True when no index is assigned to two colors."""
        if self.bounds is not None:
            return _rects_disjoint(*self.bounds)
        subsets = [s for s in self.subsets.values() if not s.empty]
        if subsets and all(isinstance(s, RectSubset) for s in subsets):
            return _rects_disjoint(np.array([s.rect.lo for s in subsets], dtype=np.int64),
                                   np.array([s.rect.hi for s in subsets], dtype=np.int64))
        total = sum(s.volume for s in subsets)
        merged = union_subsets(subsets)
        return merged.volume == total

    def is_complete(self) -> bool:
        """True when the subsets cover every index of the parent space."""
        if self.bounds is not None and self.bounds[0].shape[1] == 1:
            lo, hi = self.bounds[0][:, 0], self.bounds[1][:, 0]
            return _covered(lo[hi >= lo], hi[hi >= lo]) == self.parent.volume
        subsets = [s for s in self.subsets.values() if not s.empty]
        if any(isinstance(s, RectSubset) and s.rect.ndim > 1 for s in subsets):
            # N-D partitions produced here are disjoint rect tilings, so
            # coverage reduces to a volume count.
            if self.is_disjoint():
                return sum(s.volume for s in subsets) == self.parent.volume
            raise NotImplementedError("completeness of aliased N-D partitions")
        return union_subsets(subsets).volume == self.parent.volume

    def copy(self, name: Optional[str] = None,
             parent: Optional[IndexSpace] = None) -> "Partition":
        """The same pieces under another name (and index space), shared,
        made or not, with the columns read so far."""
        out = Partition.__new__(Partition)
        out.parent, out.name = parent or self.parent, name or self.name
        out._colors, out._made = self._colors, self._made
        out.__dict__.update((k, v) for k, v in self.__dict__.items()
                            if k in ("bounds", "sizes", "key"))
        return out

    def scale_dense(self, width: int) -> "Partition":
        """Expand each 1-D subset by a dense inner level of ``width`` entries.

        Used when a Dense level sits below another level: positions of the
        lower level are ``parent_position * width + [0, width)``.
        """
        new_parent = IndexSpace(self.parent.volume * width, name=f"{self.parent.name}x{width}")
        name = f"{self.name}*{width}"
        if self.bounds is not None:
            lo, hi = self.bounds
            return Partition.from_bounds(new_parent, self.colors(), lo * width,
                                         (hi + 1) * width - 1, name=name)
        out: Dict[Color, IndexSubset] = {}
        for c, s in self.subsets.items():
            if s.empty:
                out[c] = EMPTY
            elif isinstance(s, RectSubset):
                out[c] = RectSubset(
                    Rect(s.rect.lo[0] * width, (s.rect.hi[0] + 1) * width - 1)
                )
            else:
                idx = s.indices()
                expanded = (idx[:, None] * width + np.arange(width, dtype=np.int64)).ravel()
                out[c] = ArraySubset(expanded, assume_sorted_unique=True)
        return Partition(new_parent, out, name=name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Partition({self.name}, colors={self.n_colors})"


def _rects_disjoint(lo: np.ndarray, hi: np.ndarray) -> bool:
    """No two non-empty rows of the bounds ``lo`` / ``hi`` share a point."""
    live = (hi >= lo).all(axis=1)
    lo, hi = lo[live], hi[live]
    if len(lo) < 2:
        return True
    # Rects sharing their trailing extents (1-D ones, row blocks) can only
    # meet on the leading axis: compare neighbours.
    if (lo[1:, 1:] == lo[0, 1:]).all() and (hi[1:, 1:] == hi[0, 1:]).all():
        order = np.argsort(lo[:, 0], kind="stable")
        return bool((hi[order[:-1], 0] < lo[order[1:], 0]).all())
    # N-D windows: pairwise (small color counts in practice)
    meet = ((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None])).all(axis=2)
    return not np.triu(meet, 1).any()


def _covered(lo: np.ndarray, hi: np.ndarray) -> int:
    """How many points the 1-D ranges ``[lo[k], hi[k]]`` (none empty) cover."""
    if not len(lo):
        return 0
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)  # the furthest point covered so far
    start = np.maximum(lo, np.concatenate(([lo[0]], reach[:-1] + 1)))
    return int(np.maximum(hi - start + 1, 0).sum())


def _digest(piece: IndexSubset) -> bytes:
    """A sha256 of one piece: of an index list's indices (int64), of a
    rect's corners (as text), so an index list and a rect over the same
    points, which a residency table holds as two pieces, differ."""
    if isinstance(piece, ArraySubset):
        return hashlib.sha256(piece.indices()).digest()
    return hashlib.sha256(repr((piece.rect.lo, piece.rect.hi)).encode()).digest()


def _bounds_of(ndim: int, subsets) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:attr:`Partition.bounds` of ``subsets``: None unless every one is a
    rect of the space's rank or :data:`EMPTY`."""
    lo, hi = [], []
    for s in subsets:
        if type(s) is not RectSubset:
            return None
        if s.rect.empty:
            if s != EMPTY:  # an empty rect other than EMPTY is a piece of its own
                return None
            lo.append((0,) * ndim)
            hi.append((-1,) * ndim)
        elif s.rect.ndim != ndim:
            return None
        else:
            lo.append(s.rect.lo)
            hi.append(s.rect.hi)
    return (np.array(lo, dtype=np.int64).reshape(-1, ndim),
            np.array(hi, dtype=np.int64).reshape(-1, ndim))


def equal_partition(ispace: IndexSpace, pieces: int, *, name: str = "") -> Partition:
    """Split a 1-D index space into ``pieces`` near-equal contiguous blocks.

    Block ``c`` covers ``[c*ceil(n/p), min((c+1)*ceil(n/p), n)-1]`` — the
    convention used by the generated code in the paper (Fig. 9b), which may
    leave trailing colors empty when ``pieces`` does not divide ``n``.
    """
    if ispace.ndim != 1:
        raise ValueError("equal_partition requires a 1-D index space")
    return _blocks(ispace, (pieces,), name or f"equal({ispace.name},{pieces})")


def equal_partition_nd(ispace: IndexSpace, grid: Sequence[int], *, name: str = "") -> Partition:
    """Block an N-D index space by an N-D processor grid (dense TDN mapping)."""
    grid = tuple(int(g) for g in grid)
    if len(grid) != ispace.ndim:
        raise ValueError(f"grid rank {len(grid)} != space rank {ispace.ndim}")
    return _blocks(ispace, grid, name or f"equal_nd({ispace.name},{grid})")


def _blocks(ispace: IndexSpace, grid: Tuple[int, ...], name: str) -> Partition:
    """Block ``c`` (a grid index, C order; its color, an int on one axis)
    covers ``[lo + c * chunk, min(lo + (c + 1) * chunk, lo + shape) - 1]``
    on each axis, ``chunk`` the ceiling of ``shape / grid``."""
    shape = np.array(ispace.shape(), dtype=np.int64)
    base = np.array(ispace.bounds.lo, dtype=np.int64)
    chunks = np.array([-(-s // g) if s else 0 for s, g in zip(shape.tolist(), grid)],
                      dtype=np.int64)
    index = np.indices(grid, dtype=np.int64).reshape(len(grid), -1).T
    lo = base + index * chunks
    hi = np.minimum(lo + chunks, base + shape) - 1
    colors = index[:, 0].tolist() if len(grid) == 1 else list(map(tuple, index.tolist()))
    return Partition.from_bounds(ispace, colors, lo, hi, name=name)
