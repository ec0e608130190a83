"""Regions: multi-dimensional typed arrays over index spaces.

Two flavours matter for SpDISTAL (paper §III-A):

* *value regions* hold primitive data (``crd`` coordinate arrays, ``vals``),
* *rect regions* hold index spaces as values — each element is an inclusive
  ``[lo, hi]`` range naming indices of another region.  SpDISTAL stores the
  ``pos`` array of a Compressed level this way (paper Fig. 7) so that
  dependent partitioning (``image``/``preimage``) can relate ``pos`` and
  ``crd`` partitions.

Rect regions are backed by an ``(n, 2)`` int64 array (``[:, 0]`` = lo,
``[:, 1]`` = hi, inclusive; empty ranges have ``hi < lo``).
"""
from __future__ import annotations

import itertools
from typing import Optional, Tuple, Union

import numpy as np

from .index_space import (
    EMPTY,
    ArraySubset,
    IndexSpace,
    IndexSubset,
    Rect,
    RectSubset,
    subset_from_indices,
)

__all__ = ["Region", "RectRegion", "make_pos_region"]


class Region:
    """A field of values over an index space.

    The backing store is a NumPy array with one axis per index-space
    dimension.  ``subset_view`` returns a view for contiguous (rect) subsets
    and a gathered copy for irregular subsets — mirroring how a runtime
    materializes a physical instance for a sub-region.

    The backing array may be a *read-only memory map* of an artifact
    sidecar (``repro.core.store`` loads region data with
    ``np.load(mmap_mode="r")`` on request), so artifacts larger than RAM
    materialize pages lazily.  The first mutation through a region method
    triggers **copy-on-write promotion**: the mapped array is copied into a
    private writable array and every registered promotion hook fires (the
    artifact store registers the owning tensors' ``_bump_pattern_version``
    there, so caches that captured the mapped buffer self-invalidate).
    Writes that bypass the region API (``region.data[...] = ...``) raise
    NumPy's read-only error instead — call :meth:`promote` (or
    ``Tensor.ensure_writable``) first.
    """

    _counter = itertools.count()
    #: Class-level default; instances get their own list on the first
    #: :meth:`add_promote_hook` (keeps old pickles and RectRegion cheap).
    _promote_hooks: tuple = ()

    @classmethod
    def advance_uid_counter(cls, beyond: int) -> None:
        """Ensure future regions get uids strictly greater than ``beyond``.

        Called by :mod:`repro.core.store` after unpickling an artifact:
        loaded regions keep their saved uids (traces and residency key on
        them), so the local counter must skip past them or a fresh region
        could collide with a loaded one.
        """
        nxt = next(cls._counter)
        cls._counter = itertools.count(max(nxt, int(beyond) + 1))

    def __init__(
        self,
        ispace: IndexSpace,
        dtype=np.float64,
        *,
        data: Optional[np.ndarray] = None,
        name: str = "",
    ):
        self.ispace = ispace
        if data is not None:
            data = np.asarray(data)
            if data.shape != ispace.shape():
                raise ValueError(
                    f"data shape {data.shape} != index space shape {ispace.shape()}"
                )
            self.data = data
        else:
            self.data = np.zeros(ispace.shape(), dtype=dtype)
        self.uid = next(Region._counter)
        self.name = name or f"region{self.uid}"

    # -- backing store / copy-on-write promotion ----------------------------
    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, array: np.ndarray) -> None:
        self._data = array

    @property
    def is_mapped(self) -> bool:
        """True while the backing array is a read-only memory map."""
        return isinstance(self._data, np.memmap) and not self._data.flags.writeable

    def add_promote_hook(self, hook) -> None:
        """Register a zero-argument callback fired once when (and only
        when) this region's read-only backing array is promoted to RAM."""
        if not isinstance(self._promote_hooks, list):
            self._promote_hooks = list(self._promote_hooks)
        if hook not in self._promote_hooks:
            self._promote_hooks.append(hook)

    def promote(self) -> bool:
        """Copy-on-write promotion: replace a read-only (mmap-backed)
        backing array with a private writable copy and fire the promotion
        hooks.  No-op (returns False) when the array is already writable."""
        if self._data.flags.writeable:
            return False
        self._data = np.array(self._data)
        for hook in self._promote_hooks:
            hook()
        return True

    def _ensure_writable(self) -> None:
        if not self._data.flags.writeable:
            self.promote()

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def subset_nbytes(self, subset: IndexSubset) -> int:
        return int(subset.volume) * int(self.data.dtype.itemsize) * self._row_width()

    def _row_width(self) -> int:
        return 1

    def subset_view(self, subset: IndexSubset) -> np.ndarray:
        """Materialize the values of ``subset`` (view when contiguous)."""
        key = subset.as_slice()
        if key is not None:
            return self.data[key]
        return self.data[subset.indices()]

    def write_subset(self, subset: IndexSubset, values: np.ndarray) -> None:
        self._ensure_writable()
        key = subset.as_slice()
        if key is not None:
            self.data[key] = values
        else:
            self.data[subset.indices()] = values

    def accumulate_subset(self, subset: IndexSubset, values: np.ndarray) -> None:
        """Apply a sum-reduction of ``values`` into the subset (Legion redop)."""
        self._ensure_writable()
        key = subset.as_slice()
        if key is not None:
            self.data[key] += values
        else:
            np.add.at(self.data, subset.indices(), values)

    def fill(self, value) -> None:
        self._ensure_writable()
        self.data[...] = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Region({self.name}, shape={self.data.shape}, dtype={self.data.dtype})"


class RectRegion(Region):
    """A 1-D region whose values are inclusive ``[lo, hi]`` index ranges."""

    def __init__(self, ispace: IndexSpace, *, data: Optional[np.ndarray] = None, name: str = ""):
        if ispace.ndim != 1:
            raise ValueError("RectRegion must be one dimensional")
        n = ispace.volume
        if data is not None:
            data = np.asarray(data, dtype=np.int64)
            if data.shape != (n, 2):
                raise ValueError(f"rect data must have shape ({n}, 2), got {data.shape}")
        else:
            data = np.zeros((n, 2), dtype=np.int64)
            data[:, 1] = -1  # all ranges start empty
        self.ispace = ispace
        self.data = data
        self.uid = next(Region._counter)
        self.name = name or f"rects{self.uid}"

    def _row_width(self) -> int:
        return 2

    @property
    def lo(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def hi(self) -> np.ndarray:
        return self.data[:, 1]

    def range_at(self, i: int) -> Tuple[int, int]:
        return int(self.data[i, 0]), int(self.data[i, 1])

    def subset_view(self, subset: IndexSubset) -> np.ndarray:
        key = subset.as_slice()
        if key is not None:
            return self.data[key]
        return self.data[subset.indices()]

    def write_subset(self, subset: IndexSubset, values: np.ndarray) -> None:
        self._ensure_writable()
        key = subset.as_slice()
        if key is not None:
            self.data[key] = values
        else:
            self.data[subset.indices()] = values

    def destination_subset(self, subset: IndexSubset) -> IndexSubset:
        """Union of the ranges stored at ``subset`` — ``image``'s payload.

        Rows that tile one run — each ends where the next starts and none
        has negative length, as any run of a packed ``pos`` does — cover
        their first start to their last end: one check over the rows, then
        two reads.  Other rows union their non-empty ranges.
        """
        rows = self.subset_view(subset)
        if rows.size == 0:
            return EMPTY
        los, his = rows[:, 0], rows[:, 1]
        ends = his + 1
        if (ends[:-1] == los[1:]).all() and (ends >= los).all():
            lo, hi = int(los[0]), int(his[-1])
            return RectSubset(Rect(lo, hi)) if hi >= lo else EMPTY
        nonempty = his >= los
        if not nonempty.any():
            return EMPTY
        los, his = los[nonempty], his[nonempty]
        lo, hi = int(los.min()), int(his.max())
        covered = int((his - los + 1).sum())
        if covered >= hi - lo + 1:
            return RectSubset(Rect(lo, hi))
        pieces = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(los, his)]
        return subset_from_indices(np.concatenate(pieces))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RectRegion({self.name}, n={self.data.shape[0]})"


def make_pos_region(counts_or_bounds: Union[np.ndarray, list], name: str = "pos") -> RectRegion:
    """Build a ``pos`` region from per-entry non-zero counts.

    ``pos[i] = [start_i, start_i + count_i - 1]`` with ``start`` the exclusive
    prefix sum of counts — the rect encoding of the classic CSR ``pos`` array.
    """
    counts = np.asarray(counts_or_bounds, dtype=np.int64)
    if counts.ndim == 2:  # already (n, 2) bounds
        isp = IndexSpace(counts.shape[0], name=f"{name}_ispace")
        return RectRegion(isp, data=counts, name=name)
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    data = np.stack([starts[:-1], starts[1:] - 1], axis=1)
    isp = IndexSpace(counts.size, name=f"{name}_ispace")
    return RectRegion(isp, data=data, name=name)
