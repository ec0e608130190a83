"""Residency tables: which pieces of a region each processor's memory holds.

The simulated runtime (:mod:`repro.legion.runtime`) keeps one table per
region (:class:`_Residency`): the pieces every processor holds, indexed by
their leading-axis extent as three int64 columns, a running volume total
per processor, and facts about whole partitions that let a launch over its
own placement skip staging.  A placement hands its pieces over as columns
(:class:`_Pieces`): a partition's bounds and each color's processor, its
subsets made only when a query first needs one.  Every write goes through
the table's methods (``tools/check.py --only residency``).
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


class _Pieces:
    """A partition's colors on their processors, as columns: the ``(subset,
    proc)`` pair of each of ``rows`` (None: every color, in order), the
    subset made only when a caller iterates.  It stands for the list of
    those pairs — a placement's pieces, a region's homes — and is never
    written: a writer takes a list (:meth:`Runtime._add_home`)."""

    __slots__ = ("partition", "procs", "rows")

    def __init__(self, partition: Partition, procs: np.ndarray,
                 rows: Optional[np.ndarray] = None):
        self.partition, self.procs, self.rows = partition, procs, rows

    def __len__(self) -> int:
        return len(self.procs if self.rows is None else self.rows)

    def __iter__(self):
        piece, procs = self.partition.piece, self.procs.tolist()
        keys = range(len(procs)) if self.rows is None else self.rows.tolist()
        return ((piece(k), procs[k]) for k in keys)

    def columns(self) -> Optional[Tuple[np.ndarray, ...]]:
        """``(lo, hi, volumes, procs)`` of the pairs, or None when a piece
        is no rect."""
        part = self.partition
        if part.bounds is None:
            return None
        cols = (*part.bounds, part.sizes, self.procs)
        return cols if self.rows is None else tuple(c[self.rows] for c in cols)


_NO_ROWS = np.zeros(0, dtype=np.int64)


def _put(column: np.ndarray, k: int, value: int) -> np.ndarray:
    """``column`` with ``value`` inserted before row ``k`` (a new array: a
    column is shared by every copy of its table, so none is written)."""
    return np.concatenate((column[:k], (value,), column[k:]))


class _Residency:
    """Which subsets of one region are valid in each processor's memory.

    :attr:`by_proc` holds each processor's pieces in arrival order — pieces,
    never their union, are the unit: a write drops an overlapped piece
    whole and ``add`` skips exact duplicates — and ``vol`` their summed
    volume, the running total the capacity model charges.  Beside them
    every piece is a row of the index, three int64 columns sorted by
    ``(start, proc)`` on the leading axis — ``starts``, ``ends``,
    ``owners`` — equal keys in arrival order, with ``_row_pieces[i]`` the
    piece of row ``i``; ``span`` bounds ``end - start`` (``None``:
    recompute), so a piece overlapping ``[a, b]`` starts in ``[a - span,
    b]`` and a query ``searchsorted``-s to the rows near it instead of
    scanning every processor.  The index only proposes pieces; the subset
    algebra decides.  The columns are never written in place — ``add`` and
    ``invalidate_others`` build new ones — so copies share them.

    :meth:`load` fills the columns from a placement's bounds and makes no
    piece: ``_unmade`` keeps the pairs it loaded until a query first needs
    a piece, which makes ``by_proc`` and ``_row_pieces`` from them.

    ``whole`` holds facts about whole partitions, which ``place*`` records:
    ``whole[id(p)] = (p, procs)``, each non-empty piece of ``p`` (or an
    equal one) is held on its color's processor (``procs``, a list, one
    per color in order); ``whole[None] = (None, procs)``, the whole region
    is held on each of ``procs``.  A write that drops a piece clears them;
    pickling drops them (they hold ids).
    """

    def __init__(self):
        #: Never holds an empty list, so two tables with the same pieces
        #: compare equal whatever launches produced them.
        self._proc_pieces: Dict[int, List[IndexSubset]] = {}
        self._row_pieces: List[IndexSubset] = []
        self._unmade: Optional[Tuple] = None
        self.vol: Dict[int, int] = {}
        self.starts = self.ends = self.owners = _NO_ROWS
        self.span: Optional[int] = 0
        self.whole: Dict[Optional[int], Tuple] = {}

    def copy(self) -> "_Residency":
        new = _Residency()
        new._unmade = self._unmade  # a load is never written: shared
        if self._unmade is None:
            new._proc_pieces = {proc: list(pieces) for proc, pieces in self._proc_pieces.items()}
            new._row_pieces = list(self._row_pieces)
        new.vol, new.span, new.whole = dict(self.vol), self.span, dict(self.whole)
        new.starts, new.ends, new.owners = self.starts, self.ends, self.owners
        return new

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "whole"}

    def __setstate__(self, state):
        self.__dict__.update(state, whole={})

    @property
    def by_proc(self) -> Dict[int, List[IndexSubset]]:
        self._make()
        return self._proc_pieces

    def _make(self) -> None:
        """Make the pieces :meth:`load` left as columns."""
        if self._unmade is None:
            return
        pairs, live, order = self._unmade
        pairs = list(pairs)  # one pass: a column makes each piece once
        if live is not None:
            pairs = [pairs[i] for i in live.tolist()]
        self._proc_pieces = {proc: [] for proc in self.vol}
        for subset, proc in pairs:  # in arrival order
            self._proc_pieces[proc].append(subset)
        self._row_pieces = [subset for subset, _ in pairs] if order is None else [
            pairs[i][0] for i in order.tolist()]
        self._unmade = None

    def load(self, pieces, facts: Optional["_Residency"] = None) -> None:
        """Fill this empty table with ``pieces`` (``(subset, proc)`` pairs,
        none equal on one processor: a list, or a :class:`_Pieces` whose
        bounds give every volume and leading extent at once) in one pass
        and at most one sort, as ``add`` of each in turn would; ``facts``: a
        table whose facts hold of them too."""
        cols = pieces.columns() if isinstance(pieces, _Pieces) else None
        if cols is None:
            rows = [(s.volume, *leading_extent(s)) if s.volume else (0, 0, -1)
                    for s, _ in pieces]
            vols, starts, ends = np.array(rows, dtype=np.int64).reshape(-1, 3).T
            procs = np.array([p for _, p in pieces], dtype=np.int64)
        else:
            lo, hi, vols, procs = cols
            starts, ends = lo[:, 0], hi[:, 0]
        live = None if vols.all() else np.flatnonzero(vols)
        if live is not None:
            starts, ends, procs, vols = starts[live], ends[live], procs[live], vols[live]
        self.vol = {}
        for proc, vol in zip(procs.tolist(), vols.tolist()):
            self.vol[proc] = self.vol.get(proc, 0) + vol
        a, b, order = starts[:-1], starts[1:], None
        if not (a < b).all() and not ((a < b) | (a == b) & (procs[:-1] < procs[1:])).all():
            order = np.lexsort((procs, starts))  # stable: equal keys keep arrival order
            starts, ends, procs = starts[order], ends[order], procs[order]
        self.starts, self.ends, self.owners = starts, ends, procs
        self.span = int((ends - starts).max()) if len(starts) else 0
        # a column is never written; a list (a region's homes) may grow
        self._unmade = (pieces if cols is not None else list(pieces), live, order)
        self.whole = dict(facts.whole) if facts is not None else {}

    def same_pieces(self, other: "_Residency") -> bool:
        """Whether both tables hold the same pieces on each processor, in
        the same order (identity first; two copies of one load neither has
        written are equal without making a piece)."""
        unmade = self._unmade
        if self is other or unmade is not None and unmade is getattr(other, "_unmade", None):
            return True
        pa, pb = self.by_proc, other.by_proc
        return pa.keys() == pb.keys() and all(
            len(la) == len(pb[p]) and all(map(_same, la, pb[p])) for p, la in pa.items())

    def hold_whole(self, key: Optional[int], partition, holders) -> None:
        self.whole[key] = (partition, holders)

    def holds_placed(self, partition: Partition, procs: List[int]) -> bool:
        """Whether a fact names a partition whose bounds are ``partition``'s
        on the same processors, color for color: then each of its pieces
        equals a held piece, homed on its processor by that placement."""
        bounds = partition.bounds
        return bounds is not None and any(
            key is not None and on == procs and part.bounds is not None
            and np.array_equal(part.bounds[0], bounds[0])
            and np.array_equal(part.bounds[1], bounds[1])
            for key, (part, on) in self.whole.items())

    def held(self, partition: Optional[Partition], colors: Sequence[Color],
             procs: List[int], replicas: bool) -> bool:
        """Whether a fact says each color's non-empty piece of ``partition``
        is held where it launches (``colors`` on ``procs``; ``replicas``: a
        replicated region says so)."""
        rep = self.whole.get(None)
        if replicas and rep is not None and rep[1].issuperset(procs):
            return True
        fact = partition is not None and self.whole.get(id(partition))
        if not fact:
            return False
        own = partition.colors()
        if fact[1] == procs and colors == own:
            return True
        launch = dict(zip(colors, procs))
        return all(launch.get(c, p) == p for c, p, here in zip(
            own, fact[1], partition.live().tolist()) if here)

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
        """``proc``'s pieces that may overlap ``needed``: its own list or
        the index window, whichever is shorter."""
        pieces = self.by_proc.get(proc, [])
        i, j, a = self._window(needed)
        if j - i >= len(pieces):
            return pieces
        rows = i + np.flatnonzero((self.owners[i:j] == proc) & (self.ends[i:j] >= a))
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
        i, j = self.starts.searchsorted(start), self.starts.searchsorted(start, "right")
        owners = self.owners[i:j]  # sorted: the rows starting at ``start``
        i, j = i + int(owners.searchsorted(proc)), i + int(owners.searchsorted(proc, "right"))
        # Skip exact duplicates so steady-state launches leave residency at
        # a fixpoint; an equal piece has the same key.
        if any(_same(p, subset) for p in self._row_pieces[i:j]):
            return
        self.starts, self.ends = _put(self.starts, j, start), _put(self.ends, j, end)
        self.owners = _put(self.owners, j, proc)
        self._row_pieces.insert(j, subset)
        self._proc_pieces.setdefault(proc, []).append(subset)
        self.vol[proc] = self.vol.get(proc, 0) + vol
        if self.span is not None and end - start > self.span:
            self.span = end - start

    def invalidate_others(self, writer: int, subset: IndexSubset) -> None:
        i, j, a = self._window(subset)
        self._make()
        near = i + np.flatnonzero((self.owners[i:j] != writer) & (self.ends[i:j] >= a))
        drop = [n for n in near.tolist() if subsets_overlap(self._row_pieces[n], subset)]
        if not drop:
            return
        self.whole = {}
        gone: Dict[int, set] = {}
        for n in drop:
            piece, proc = self._row_pieces[n], int(self.owners[n])
            gone.setdefault(proc, set()).add(id(piece))
            self.vol[proc] -= piece.volume
            if self.ends[n] - self.starts[n] == self.span:
                self.span = None
        dropped = set(drop)
        self._row_pieces = [p for n, p in enumerate(self._row_pieces) if n not in dropped]
        self.starts, self.ends, self.owners = (np.delete(c, drop) for c in (
            self.starts, self.ends, self.owners))
        for proc, ids in gone.items():
            kept = [p for p in self._proc_pieces[proc] if id(p) not in ids]
            if kept:
                self._proc_pieces[proc] = kept
            else:
                del self._proc_pieces[proc], self.vol[proc]


def _distinct(pieces):
    """``pieces`` less each one equal to an earlier one on its processor: a
    placement's column compares bounds rows, which differ wherever the
    processors do."""
    cols = pieces.columns() if isinstance(pieces, _Pieces) else None
    if cols is not None:
        lo, hi, _, procs = cols
        if len(set(procs.tolist())) == len(procs):
            return pieces
        keys = np.column_stack((procs, lo, hi))
        _, first = np.unique(keys, axis=0, return_index=True)
        return pieces if len(first) == len(keys) else _Pieces(
            pieces.partition, pieces.procs, np.sort(first) if pieces.rows is None
            else pieces.rows[np.sort(first)])
    keys = [(p, type(s), s) for s, p in pieces]
    if len(set(keys)) == len(keys):
        return pieces
    keep = sorted({key: k for k, key in reversed(list(enumerate(keys)))}.values())  # firsts
    return [pieces[k] for k in keep]
