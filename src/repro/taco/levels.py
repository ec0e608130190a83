"""Level formats: one class per format, and the only code that knows one.

A storage level is either

* :class:`DenseLevel` — an implicit level of ``size`` slots per parent
  entry (its position space is ``P_parent * size``), or
* :class:`CompressedLevel` — a rect-valued ``pos`` region over the parent's
  position space and a ``crd`` region holding the non-zero coordinates
  (``pos[i] = [lo, hi]``, inclusive, names the positions of entry ``i``'s
  children in ``crd`` — the encoding SpDISTAL uses so that Legion's
  ``image``/``preimage`` can relate partitions of ``pos`` and ``crd``).

Each class carries everything that depends on the format:

* **storage** — its regions and which partition a piece needs of each
  (``regions`` / ``piece_regions``), and how it is built from sorted,
  distinct COO entries (``pack``, its arm of ``Tensor._pack``);
* **iteration** — the three level functions of Chou et al.'s format
  abstraction: ``child_range`` (parent position range -> position range),
  ``parent_of`` (position -> parent position; its range form
  ``parent_of_range`` maps every position of a run in one pass) and
  ``coord_of`` (position -> coordinate);
* **partitioning** — SpDISTAL's Table I (paper §IV-B): the initial
  partition functions ``init`` / ``create...Entry`` / ``finalize`` x
  {universe: coordinate bounds, non-zero: position bounds} — the entry
  function fills every color at once from a bounds column, and emits the
  loop over the colors Fig. 9b's generated code runs — and the derived
  ``partition_from_parent`` / ``partition_from_child``.  ``finalize*``
  returns ``(parent_part, child_part)``: a partition of the level above's
  positions and one of this level's own, exactly as in the paper.  Every
  function takes the *site* it runs at — ``site.tag`` / ``site.ref`` name
  the level in emitted IR (``B2`` / ``B[1]``), ``site.emit(op, text)``
  records the statement the paper's compiler would have generated,
  ``site.level_index`` says how deep it is and ``site.pos_part`` receives
  the partition of the level's ``pos`` region, if it stores one
  (:class:`repro.core.levels.LevelFunctions`).
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import CompileError
from ..kernels.segment import row_of_positions, row_of_range
from ..legion.dependent import (
    image,
    partition_by_bounds,
    partition_by_value_ranges,
    preimage,
)
from ..legion.index_space import EMPTY, IndexSpace, Rect, RectSubset, subset_from_indices
from ..legion.partition import Coloring, Partition
from ..legion.region import RectRegion, Region, make_pos_region

__all__ = ["DenseLevel", "CompressedLevel"]


#: How a ``create...Entry`` statement reads: one loop over the launch
#: domain filling every color's bounds (Fig. 9b), whatever the color count.
_LOOP = "for c in colors:"


def _per_colour(part: Partition, bounds_of) -> Tuple[np.ndarray, np.ndarray]:
    """``coord_bounds`` of a partition with an irregular piece: ``bounds_of``
    each non-empty colour's subset in turn."""
    lo, hi = np.zeros(part.n_colors, np.int64), np.full(part.n_colors, -1, np.int64)
    for k, subset in enumerate(part.subsets.values()):
        if not subset.empty:
            lo[k], hi[k] = bounds_of(subset)
    return lo, hi


class DenseLevel:
    """A dense storage level: ``size`` implicit slots per parent entry.

    Universe and non-zero partitions coincide — every coordinate of a dense
    level is materialized, so bounds on coordinates and on positions name
    the same sets (Table I gives both groups the same bodies).
    """

    is_dense = True

    def __init__(self, size: int, num_positions: int):
        self.size = int(size)
        self.num_positions = int(num_positions)  # P_l = P_{l-1} * size
        self.pos_ispace = IndexSpace(self.num_positions, name="dense_dom")

    @classmethod
    def pack(cls, name, l, size, coords, same, owned, parent_ids, num_parents):
        """Level ``l`` of tensor ``name`` over sorted, distinct entries:
        ``coords`` their coordinates at this level (``owned``: free to
        keep), ``same`` whether each agrees with its successor on levels
        ``0..l``, ``parent_ids`` their positions in the level above (of
        ``num_parents``).  Returns the level and the entries' positions
        in it."""
        return cls(size, num_parents * size), parent_ids * size + coords

    # -- storage ------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return 0  # implicit

    def regions(self) -> Tuple[Region, ...]:
        """The regions this level stores."""
        return ()

    def piece_regions(self, parent_part, own_part):
        """``(region, partition)`` for each of :meth:`regions`, given the
        partitions of the parent's positions and of this level's own."""
        return ()

    # -- iteration ------------------------------------------------------------
    def child_range(self, lo, hi):
        """Parent positions ``[lo, hi]`` -> the positions of their slots
        (elementwise over arrays of ranges)."""
        return lo * self.size, (hi + 1) * self.size - 1

    def parent_of(self, positions):
        """Position(s) -> the parent entry each slot belongs to."""
        return positions // self.size

    def parent_of_range(self, p0: int, p1: int) -> np.ndarray:
        """:meth:`parent_of` of every position ``p0 .. p1``."""
        return np.arange(p0, p1 + 1, dtype=np.int64) // self.size

    def coord_of(self, positions):
        """Position(s) -> coordinate: the slot's offset under its parent."""
        return positions % self.size

    def coord_bounds(self, part: Partition) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``: each colour's least and greatest coordinate over its
        positions in ``part``, ``(0, -1)`` where it has none.  A run of
        positions is bounded arithmetically."""
        if part.bounds is None:
            return _per_colour(part, self._subset_coord_bounds)
        a, b = part.bounds[0][:, 0], part.bounds[1][:, 0]
        live = b >= a
        if not live.any():  # nothing to bound (and a level of size 0 takes no ``%``)
            return np.zeros_like(a), np.full_like(a, -1)
        lo, hi = a % self.size, b % self.size
        wraps = (b - a + 1 >= self.size) | (hi < lo)  # spans a parent's last slot
        return (np.where(live & ~wraps, lo, 0),
                np.where(live, np.where(wraps, self.size - 1, hi), -1))

    def _subset_coord_bounds(self, subset) -> Tuple[int, int]:
        key = subset.as_slice()
        if key is None:
            coords = self.coord_of(subset.indices())
            return int(coords.min()), int(coords.max())
        lo, hi = key.start % self.size, (key.stop - 1) % self.size
        if key.stop - key.start >= self.size or hi < lo:  # wraps a parent
            return 0, self.size - 1
        return lo, hi

    # -- partitioning (Table I) -------------------------------------------------
    def init_universe_partition(self, site) -> Coloring:
        site.emit("init", f"C_{site.tag} = {{}}")
        return Coloring()

    def create_universe_partition_entry(self, site, coloring, colors, bounds) -> None:
        coloring.fill(colors, bounds)
        site.emit("entry", f"{_LOOP} C_{site.tag}[c] = (lo[c], hi[c])")

    def finalize_universe_partition(self, site, coloring):
        if self.num_positions != self.size and site.level_index > 0:
            raise CompileError(
                "initial universe partitions of non-root Dense levels are not "
                "supported; distribute an outer dimension instead"
            )
        part = partition_by_bounds(self.pos_ispace, coloring, name=f"{site.tag}Part")
        site.emit(
            "partitionByBounds",
            f"{site.tag}Part = partitionByBounds(C_{site.tag}, {site.tag}.dom)",
        )
        return self._parents_of(site, part), part

    init_nonzero_partition = init_universe_partition
    create_nonzero_partition_entry = create_universe_partition_entry
    finalize_nonzero_partition = finalize_universe_partition

    def partition_from_parent(self, site, parent_part: Partition) -> Partition:
        site.emit("copy", f"{site.tag}Part = copy(parentPart)")
        return parent_part.scale_dense(self.size)

    def partition_from_child(self, site, child_part: Partition) -> Partition:
        site.emit("copy", f"{site.tag}ParentPart = copy(childPart)")
        return self._parents_of(site, child_part)

    def _parents_of(self, site, part: Partition) -> Partition:
        """``part`` of this level's ``parent * size + k`` positions mapped
        back to the parents.  Nothing is stored above a root, so there
        ``part`` stands for both (Table I)."""
        if site.level_index == 0:
            return part
        size = self.size
        parent_space = IndexSpace(self.num_positions // size,
                                  name=f"{part.parent.name}/ {size}")
        name = f"{part.name}//{size}"
        if part.bounds is not None:
            lo, hi = part.bounds
            return Partition.from_bounds(parent_space, part.colors(), lo // size, hi // size,
                                         name=name)
        subsets = {}
        for c, s in part.items():
            if s.empty:
                subsets[c] = EMPTY
            elif isinstance(s, RectSubset):
                subsets[c] = RectSubset(Rect(s.rect.lo[0] // size, s.rect.hi[0] // size))
            else:
                subsets[c] = subset_from_indices(s.indices() // size)
        return Partition(parent_space, subsets, name=name)

    def __repr__(self) -> str:
        return f"DenseLevel(size={self.size})"


class CompressedLevel:
    """A compressed level: rect ``pos`` over the parent positions + ``crd``.

    Partition ``crd``, then recover ``pos`` by ``preimage`` (upward) — or
    copy the parent's partition onto ``pos`` and take its ``image``
    (downward).
    """

    is_dense = False

    def __init__(self, pos: RectRegion, crd: Region):
        self.pos = pos
        self.crd = crd

    @classmethod
    def pack(cls, name, l, size, coords, same, owned, parent_ids, num_parents):
        """See :meth:`DenseLevel.pack`."""
        shared = same.any()
        if shared:
            # Entries that agree on levels 0..l share one crd entry.
            head = np.ones(coords.size, dtype=bool)
            head[1:] = ~same
            crd_vals = coords[head].astype(np.int64, copy=False)
            counts = np.bincount(parent_ids[head], minlength=num_parents)
        else:
            # Every entry opens its own segment (always so at the last
            # level): crd is the coordinate column itself, copied here
            # unless a gather above already made it ours.
            crd_vals = coords.astype(np.int64, copy=not owned)
            counts = np.bincount(parent_ids, minlength=num_parents)
        pos = make_pos_region(counts, name=f"{name}.pos{l}")
        crd = Region(
            IndexSpace(crd_vals.size, name=f"{name}_crd{l}"),
            np.int64,
            data=crd_vals,
            name=f"{name}.crd{l}",
        )
        # Computed last: the caller still holds ``parent_ids``, and a second
        # array of that size alive across ``make_pos_region`` would be the
        # pack's peak memory.
        if shared:
            positions = np.cumsum(head) - 1
        else:
            positions = np.arange(coords.size, dtype=np.int64)
        return cls(pos, crd), positions

    # -- storage ------------------------------------------------------------
    @property
    def num_positions(self) -> int:
        return self.crd.ispace.volume

    @property
    def pos_ispace(self) -> IndexSpace:
        return self.crd.ispace

    @property
    def nbytes(self) -> int:
        return self.pos.nbytes + self.crd.nbytes

    def regions(self) -> Tuple[Region, ...]:
        return self.pos, self.crd

    def piece_regions(self, parent_part, own_part):
        return (self.pos, parent_part), (self.crd, own_part)

    def counts(self) -> np.ndarray:
        """Children per parent entry (empty ranges count zero)."""
        return np.maximum(self.pos.hi - self.pos.lo + 1, 0)

    # -- iteration ------------------------------------------------------------
    def child_range(self, lo, hi):
        """Parent positions ``[lo, hi]`` -> the ``crd`` positions they own,
        ``(0, -1)`` where ``hi < lo`` (elementwise over arrays of ranges).
        ``pos`` is monotone, so the union of their ranges is one range."""
        live = np.asarray(hi >= lo)
        if not live.any():
            return np.zeros_like(lo), np.full_like(hi, -1)
        pos = self.pos.data
        return (np.where(live, pos[np.where(live, lo, 0), 0], 0),
                np.where(live, pos[np.where(live, hi, 0), 1], -1))

    def parent_of(self, positions):
        """Position(s) -> the owning parent entry, searched: empty entries
        share their successor's start, so the last entry with
        ``start <= p`` is the non-empty owner of ``p``."""
        return row_of_positions(self.pos.data[:, 0], positions)

    def parent_of_range(self, p0: int, p1: int) -> np.ndarray:
        """:meth:`parent_of` of every position ``p0 .. p1``, from segment
        lengths in one pass over the range (no search per position)."""
        return row_of_range(self.pos.data[:, 0], p0, p1)

    def coord_of(self, positions):
        """Position(s) -> the stored coordinate."""
        return self.crd.data[positions]

    def coord_bounds(self, part: Partition) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``: each colour's least and greatest coordinate stored
        over its positions in ``part``, ``(0, -1)`` where it has none.  Rect
        colours reduce ``crd`` with one ``minimum`` / ``maximum.reduceat``
        for all of them — nothing is gathered or built beside it."""
        crd = self.crd.data
        n = len(crd)
        if part.bounds is None:
            return _per_colour(part, self._subset_coord_bounds)
        a, b = part.bounds[0][:, 0], part.bounds[1][:, 0]  # an empty colour is (0, -1)
        if (a < 0).any() or (b >= n).any():  # past the level's ends
            return _per_colour(part, self._subset_coord_bounds)
        if not n:  # no positions: every colour is empty
            return a, b
        # reduceat(crd, [a, e])[::2] reduces crd[a:e]; the end index of a
        # colour that runs to the last position stays in range as n - 1, and
        # that position joins it after the reduction.
        end = b + 1
        at = np.stack([a, np.minimum(end, n - 1)], axis=1).ravel()
        live, tail = b >= a, end == n
        out = []
        for ufunc, empty in ((np.minimum, 0), (np.maximum, -1)):
            red = ufunc.reduceat(crd, at)[::2]
            out.append(np.where(live, np.where(tail, ufunc(red, crd[-1]), red), empty))
        return out[0], out[1]

    def _subset_coord_bounds(self, subset) -> Tuple[int, int]:
        key = subset.as_slice()
        coords = self.crd.data[key] if key is not None else self.coord_of(subset.indices())
        return int(coords.min()), int(coords.max())

    # -- partitioning (Table I) -------------------------------------------------
    def init_universe_partition(self, site) -> Coloring:
        site.emit("init", f"C_{site.tag}_crd = {{}}")
        return Coloring()

    init_nonzero_partition = init_universe_partition

    def create_universe_partition_entry(self, site, coloring, colors, bounds) -> None:
        coloring.fill(colors, bounds)
        site.emit("entry", f"{_LOOP} C_{site.tag}_crd[c] = (lo[c], hi[c])")

    def create_nonzero_partition_entry(self, site, coloring, colors, bounds) -> None:
        coloring.fill(colors, bounds)
        site.emit("entry", f"{_LOOP} C_{site.tag}_crd[c] = (lo[c], hi[c])  // position bounds")

    def finalize_universe_partition(self, site, coloring):
        """Bucket ``crd`` by the coordinates it stores."""
        crd_part = partition_by_value_ranges(self.crd, coloring, name=f"{site.tag}CrdPart")
        return self._finalize(site, "partitionByValueRanges", crd_part)

    def finalize_nonzero_partition(self, site, coloring):
        """Cut ``crd`` at position bounds."""
        crd_part = partition_by_bounds(self.crd.ispace, coloring, name=f"{site.tag}CrdPart")
        return self._finalize(site, "partitionByBounds", crd_part)

    def _finalize(self, site, op: str, crd_part: Partition):
        site.emit(op, f"P_{site.tag}_crd = {op}(C_{site.tag}_crd, {site.ref}.crd)")
        return self._pos_from_crd(site, crd_part), crd_part

    def partition_from_parent(self, site, parent_part: Partition) -> Partition:
        site.pos_part = parent_part.copy(name=f"{site.tag}PosPart")
        site.emit("copy", f"P_{site.tag}_pos = copy(parentPart)")
        crd_part = image(self.pos, site.pos_part, self.crd, name=f"{site.tag}CrdPart")
        site.emit("image", f"P_{site.tag}_crd = image({site.ref}.pos, P_{site.tag}_pos, crd)")
        return crd_part

    def partition_from_child(self, site, child_part: Partition) -> Partition:
        site.emit("copy", f"P_{site.tag}_crd = copy(childPart)")
        return self._pos_from_crd(site, child_part)

    def _pos_from_crd(self, site, crd_part: Partition) -> Partition:
        """The parents holding a child in each colour of ``crd_part``."""
        site.pos_part = preimage(self.pos, crd_part, self.crd, name=f"{site.tag}PosPart")
        site.emit(
            "preimage",
            f"P_{site.tag}_pos = preimage({site.ref}.pos, P_{site.tag}_crd, crd)",
        )
        return site.pos_part

    def __repr__(self) -> str:
        return f"CompressedLevel(parents={self.pos.ispace.volume}, nnz={self.num_positions})"
