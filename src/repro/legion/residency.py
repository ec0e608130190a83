"""Residency tables: which pieces of a region each processor's memory holds.

The simulated runtime (:mod:`repro.legion.runtime`) keeps two tables per
region, both a :class:`_Residency`: its *homes*, every piece a placement put
in a memory, which only ever grow, and the live table staging and writes
change, which starts as a copy of the homes and which
``Runtime.reset_residency`` replaces with one.  A table holds each piece
once, a row of an index on its leading-axis extent (int64 columns), beside
a running volume total per processor and facts about whole partitions that
let a launch over its own placement skip staging.  A placement hands its
pieces over as columns: a partition's bounds and each color's processor,
its subsets made only when a query first needs one.
Every write goes through the table's methods (``tools/check.py --only
residency``).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .index_space import (
    EMPTY,
    IndexSubset,
    RectSubset,
    intersect_subsets,
    leading_extent,
    subsets_overlap,
    subtract_subsets,
    union_subsets,
)
from .partition import Color, Partition


def _same(x: IndexSubset, y: IndexSubset) -> bool:
    """Piece equality: identity first, then same-type equality (cross-type
    equality would materialize rects as index arrays)."""
    return x is y or type(x) is type(y) and x == y


_NO_ROWS = np.zeros(0, dtype=np.int64)


def _put(column: np.ndarray, k: int, value: int) -> np.ndarray:
    """``column`` with ``value`` inserted before row ``k`` (a new array: a
    column is shared by every copy of its table, so none is written)."""
    return np.concatenate((column[:k], (value,), column[k:]))


class _Residency:
    """Which subsets of one region are valid in each processor's memory.

    Pieces, never their union, are the unit: a write drops an overlapped
    piece whole and ``add`` skips exact duplicates.  Each piece is one row
    of the index, four int64 columns sorted by ``(start, proc)`` on the
    leading axis — ``starts``, ``ends``, ``owners`` and ``arrivals``, the
    rank each piece arrived with, so equal keys keep arrival order — with
    ``_row_pieces[i]`` the piece of row ``i``.  ``vol`` sums each
    processor's volumes, the running total the capacity model charges;
    ``span`` bounds ``end - start`` (``None``: recompute), so a piece
    overlapping ``[a, b]`` starts in ``[a - span, b]`` and a query
    ``searchsorted``-s to the rows near it instead of scanning them all.
    The index only proposes pieces; the subset algebra decides.  The
    columns and the piece list are never written in place — ``add`` and
    ``invalidate_others`` build new ones — so copies share them.

    :meth:`load` into an empty table fills the columns from a placement's
    bounds and makes no piece: ``_unmade`` keeps its partition, each row's
    arrival its color, until a query first needs a piece; into a table that
    holds pieces it merges them in with one sort.  ``first_home``
    is the processor of the first color ever loaded, even one with no
    elements (None: none yet) — as a region's homes, the owner of what no
    home meets.

    ``whole`` holds facts about whole partitions, which ``place*`` records,
    each key mapped to the processor lists placed there: under a
    partition's pieces key (``p.key[1]``), each non-empty piece is held on
    its color's processor (a list, one per color in order); under
    ``None``, the whole region is held on each processor of a set.  A fact
    names content, not a partition object, so it speaks for every
    partition with those pieces, placing one of those where it says
    records nothing new, and it pickles as it is.  A write that drops a
    piece clears them.
    """

    def __init__(self):
        self.starts = self.ends = self.owners = self.arrivals = _NO_ROWS
        self._row_pieces: List[IndexSubset] = []
        self._unmade: Optional[Partition] = None
        self.vol: Dict[int, int] = {}
        self.span: Optional[int] = 0
        self.whole: Dict[Optional[bytes], Tuple] = {}
        self.first_home: Optional[int] = None

    def copy(self, facts: Optional["_Residency"] = None) -> "_Residency":
        """These pieces (the columns shared), with ``facts``'s facts
        (default: these)."""
        new = object.__new__(_Residency)
        new.__dict__.update(self.__dict__, vol=dict(self.vol),
                            whole=dict((facts or self).whole))
        return new

    def _make(self) -> None:
        """Make the pieces :meth:`load` left as columns."""
        if self._unmade is not None:
            self._row_pieces = list(map(self._unmade.piece, self.arrivals.tolist()))
            self._unmade = None

    def load(self, part: Partition, procs: Sequence[int]) -> None:
        """Add each color's piece of ``part`` on its processor (``procs``,
        in color order) as ``add`` of each in turn would: pieces that are
        all rects at once, from their bounds, with at most one sort — into
        an empty table making none of them."""
        if self.first_home is None and len(procs):
            self.first_home = int(procs[0])
        if part.bounds is None:
            for k, proc in enumerate(procs):
                self.add(proc, part.piece(k))
            return
        (lo, hi), procs = part.bounds, np.array(procs, dtype=np.int64)
        rows = part.sizes.nonzero()[0]  # the non-empty colors
        owners = procs[rows].tolist()
        if len(set(owners)) < len(rows):
            # a processor gets two: keep the first of each equal pair
            keys = np.column_stack((procs, lo, hi))[rows]
            rows = rows[np.sort(np.unique(keys, axis=0, return_index=True)[1])]
        made = None
        if len(self.starts):  # skip each piece held already (its key is held)
            self._make()
            keys = set(zip(self.starts.tolist(), self.owners.tolist()))
            rows = np.array([k for k, key in zip(rows.tolist(), zip(
                lo[rows, 0].tolist(), procs[rows].tolist())) if key not in keys
                or self._slot(*key, part.piece(k)) is not None], dtype=np.int64)
            made = self._row_pieces + list(map(part.piece, rows.tolist()))
        starts, ends, owners, arrivals = lo[rows, 0], hi[rows, 0], procs[rows], rows
        for proc, vol in zip(owners.tolist(), part.sizes[rows].tolist()):
            self.vol[proc] = self.vol.get(proc, 0) + vol
        if made is not None:  # after the held rows, arriving after them
            starts, ends, owners, arrivals = (np.concatenate(c) for c in zip(
                (self.starts, self.ends, self.owners, self.arrivals),
                (starts, ends, owners, arrivals + int(self.arrivals.max()) + 1)))
        a, b, order = starts[:-1], starts[1:], None
        if not (a < b).all() and not ((a < b) | (a == b) & (owners[:-1] < owners[1:])).all():
            order = np.lexsort((owners, starts))  # stable: equal keys keep arrival order
            starts, ends, owners, arrivals = starts[order], ends[order], owners[order], arrivals[order]
        self.starts, self.ends, self.owners, self.arrivals = starts, ends, owners, arrivals
        self.span = int((ends - starts).max()) if len(starts) else 0
        if made is None:
            self._unmade = part
        else:
            self._row_pieces = made if order is None else [made[i] for i in order.tolist()]

    def holds(self, part: Partition, procs: Sequence[int]) -> bool:
        """Whether loading ``part`` on ``procs`` would add no piece (no
        fact needed, so also on an unpickled table)."""
        rows = part.sizes.nonzero()[0].tolist()
        self._make()
        return all(self._slot(leading_extent(piece)[0], int(procs[k]), piece) is None
                   for k, piece in zip(rows, map(part.piece, rows)))

    def pieces(self, near: Optional[IndexSubset] = None) -> List[Tuple[IndexSubset, int]]:
        """``(piece, proc)`` of every row in arrival order, or only of the
        rows whose leading extent meets ``near``'s (every piece that may
        overlap it)."""
        if near is None:
            rows = self.arrivals.argsort()
        else:
            i, j, a = self._window(near)
            rows = i + (self.ends[i:j] >= a).nonzero()[0]
            rows = rows[self.arrivals[rows].argsort()]
        self._make()
        return [(self._row_pieces[r], proc)
                for r, proc in zip(rows.tolist(), self.owners[rows].tolist())]

    def owner(self, needed: IndexSubset) -> int:
        """The processor of the first piece to arrive with the largest
        overlap with ``needed``; if none meets it, ``first_home`` (processor
        0 if None)."""
        vol, proc = max(((intersect_subsets(p, needed).volume, proc) for p, proc in self.pieces()),
                        key=lambda h: h[0], default=(0, None))
        return proc if vol else self.first_home or 0

    def same_pieces(self, other: "_Residency") -> bool:
        """Whether both tables hold the same pieces on each processor, in
        the same arrival order (identity first; two copies no write has
        parted share their columns and are equal without making a piece)."""
        if self.arrivals is other.arrivals:
            return True
        mine, theirs = (sorted(t.pieces(), key=lambda h: h[1]) for t in (self, other))
        return len(mine) == len(theirs) and all(
            p == q and _same(a, b) for (a, p), (b, q) in zip(mine, theirs))

    def hold_whole(self, key: Optional[bytes], holders) -> None:
        """Record that the pieces ``key`` names are held on ``holders``."""
        facts = self.whole.get(key, ())
        if holders not in facts:
            self.whole[key] = facts + (holders,)

    def held(self, partition: Optional[Partition], colors: Sequence[Color],
             procs: List[int], replicas: bool) -> bool:
        """Whether a fact says each color's non-empty piece of ``partition``
        is held where it launches (``colors`` on ``procs``; ``replicas``: a
        replicated region says so)."""
        if replicas and any(on.issuperset(procs) for on in self.whole.get(None, ())):
            return True
        if partition is None:
            return False
        own, launch = partition.colors(), None
        for on in self.whole.get(partition.key[1], ()):
            if on == procs and colors == own:
                return True
            if launch is None:
                launch, live = dict(zip(colors, procs)), partition.live().tolist()
            if all(launch.get(c, p) == p for c, p, here in zip(own, on, live) if here):
                return True
        return False

    def apart(self) -> bool:
        """No two pieces meet on the leading axis, so none overlaps another."""
        return bool((self.ends[:-1] < self.starts[1:]).all())

    def _window(self, subset: IndexSubset) -> Tuple[int, int, int]:
        """``(i, j, a)``: rows ``i:j`` hold every piece overlapping
        ``subset``'s leading extent ``[a, b]`` — those with ``end >= a``."""
        a, b = leading_extent(subset)
        if self.span is None:
            self.span = int((self.ends - self.starts).max()) if len(self.starts) else 0
        return (int(self.starts.searchsorted(a - self.span)),
                int(self.starts.searchsorted(b + 1)), a)

    def _on(self, proc: int, needed: IndexSubset) -> List[IndexSubset]:
        """``proc``'s pieces that may overlap ``needed``."""
        i, j, a = self._window(needed)
        rows = i + ((self.owners[i:j] == proc) & (self.ends[i:j] >= a)).nonzero()[0]
        self._make()
        return [self._row_pieces[r] for r in rows.tolist()]

    def covered_volume(self, proc: int, needed: IndexSubset) -> int:
        if needed.empty:
            return 0
        overlaps = [intersect_subsets(p, needed) for p in self._on(proc, needed)]
        return union_subsets(overlaps).volume

    def missing_subset(self, proc: int, needed: IndexSubset) -> IndexSubset:
        if needed.empty:
            return EMPTY
        pieces = self._on(proc, needed)
        if any(p is needed or isinstance(p, RectSubset) and isinstance(needed, RectSubset)
               and p.rect.contains_rect(needed.rect) for p in pieces):
            return EMPTY  # held whole: what the algebra below would conclude
        covered = union_subsets([intersect_subsets(p, needed) for p in pieces])
        return subtract_subsets(needed, covered)

    def add(self, proc: int, subset: IndexSubset) -> None:
        vol = subset.volume
        if not vol:
            return
        self._make()
        start, end = leading_extent(subset)
        # Skip exact duplicates so steady-state launches leave residency at
        # a fixpoint.
        j = self._slot(start, proc, subset)
        if j is None:
            return
        arrival = int(self.arrivals.max()) + 1 if len(self.arrivals) else 0
        self.starts, self.ends = _put(self.starts, j, start), _put(self.ends, j, end)
        self.owners, self.arrivals = _put(self.owners, j, proc), _put(self.arrivals, j, arrival)
        self._row_pieces = [*self._row_pieces[:j], subset, *self._row_pieces[j:]]
        self.vol[proc] = self.vol.get(proc, 0) + vol
        if self.span is not None and end - start > self.span:
            self.span = end - start

    def _slot(self, start: int, proc: int, subset: IndexSubset) -> Optional[int]:
        """The row ``subset`` (starting at ``start``) goes before on
        ``proc`` — after the rows of its key — or None when ``proc`` holds
        an equal piece (an equal piece has the same key)."""
        i, j = self.starts.searchsorted(start), self.starts.searchsorted(start, "right")
        owners = self.owners[i:j]  # sorted: the rows starting at ``start``
        i, j = i + int(owners.searchsorted(proc)), i + int(owners.searchsorted(proc, "right"))
        return None if any(_same(p, subset) for p in self._row_pieces[i:j]) else j

    def invalidate_others(self, writer: int, subset: IndexSubset) -> None:
        i, j, a = self._window(subset)
        self._make()
        near = i + ((self.owners[i:j] != writer) & (self.ends[i:j] >= a)).nonzero()[0]
        drop = [n for n in near.tolist() if subsets_overlap(self._row_pieces[n], subset)]
        if not drop:
            return
        self.whole = {}
        for n in drop:
            proc = int(self.owners[n])
            self.vol[proc] -= self._row_pieces[n].volume
            if not self.vol[proc]:  # its last piece: every piece has a volume
                del self.vol[proc]
            if self.ends[n] - self.starts[n] == self.span:
                self.span = None
        dropped = set(drop)
        self._row_pieces = [p for n, p in enumerate(self._row_pieces) if n not in dropped]
        self.starts, self.ends, self.owners, self.arrivals = (np.delete(c, drop) for c in (
            self.starts, self.ends, self.owners, self.arrivals))
