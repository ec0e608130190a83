"""Tensors stored in SpDISTAL's distributed sparse encoding (paper Fig. 7).

A tensor is a stack of storage levels — :class:`DenseLevel` or
:class:`CompressedLevel`, one per stored dimension
(:mod:`repro.taco.levels`) — and a ``vals`` region over the last level's
position space.

:class:`Tensor` composes the levels' three *iteration* functions over the
stack (:meth:`Tensor.positions_under`, :meth:`Tensor.coords_of`); they
are the only place that says how a level is walked: the kernel table
(:mod:`repro.core.kernelspec`) resolves every piece through them instead of
naming formats.  Storage, packing and the *partitioning* level functions
(Table I) live on the same level classes.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import FormatError, PackError
from ..legion.index_space import IndexSpace
from ..legion.region import Region
from .expr import Access, Add, Assignment, IndexExpr
from .formats import CSC, CSR, Format, dense_format
from .index_vars import IndexVar
from .levels import CompressedLevel, DenseLevel

__all__ = ["DenseLevel", "CompressedLevel", "Tensor"]


def _check_coo(name: str, shape: Tuple[int, ...], coords, vals: np.ndarray) -> None:
    """Reject COO input that cannot be packed into a tensor of ``shape``
    (see :class:`repro.errors.PackError`) — run on every pack, whatever
    order the entries arrive in."""
    if len(coords) != len(shape):
        raise PackError(
            name, f"expected {len(shape)} coordinate arrays, got {len(coords)}"
        )
    for mode, (c, size) in enumerate(zip(coords, shape)):
        if c.size != vals.size:
            raise PackError(
                name,
                f"mode {mode} has {c.size} coordinates for {vals.size} values",
                mode=mode,
            )
        if c.size and (c.min() < 0 or c.max() >= size):
            at = int(np.flatnonzero((c < 0) | (c >= size))[0])
            raise PackError(
                name,
                f"mode-{mode} coordinate {int(c[at])} at position {at} is "
                f"out of bounds for extent {size}",
                mode=mode, position=at, value=int(c[at]),
            )


def _adjacent_same(stored: List[np.ndarray]) -> Optional[List[np.ndarray]]:
    """One scan over consecutive entries of the storage-ordered coordinate
    columns ``stored``: ``same[l][k]`` says entries ``k`` and ``k + 1``
    agree on levels ``0..l`` (so ``same[-1]`` marks duplicates and
    ``~same[l]`` the segment starts of level ``l``), or ``None`` when
    some entry sorts before its predecessor."""
    same: List[np.ndarray] = []
    for c in stored:
        before, after = c[:-1], c[1:]
        descends = before > after
        equal = before == after
        if same:
            descends &= same[-1]
            equal &= same[-1]
        if descends.any():
            return None
        same.append(equal)
    return same


class Tensor:
    """A (possibly sparse) tensor packed into per-level regions.

    Construct with :meth:`from_coo`, :meth:`from_dense`, :meth:`from_scipy`
    or :meth:`zeros`; index with ``T[i, j]`` to build tensor index notation.
    """

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        format: Optional[Format] = None,
        dtype=np.float64,
    ):
        self.name = name
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.format = format if format is not None else dense_format(len(self.shape))
        if self.format.order != len(self.shape):
            raise FormatError(
                f"format order {self.format.order} != tensor order {len(self.shape)}"
            )
        self.dtype = np.dtype(dtype)
        self.levels: List[Union[DenseLevel, CompressedLevel]] = []
        self.vals: Optional[Region] = None
        #: ``(indices, rhs, accumulate)`` of the statement last assigned to
        #: this tensor — its parts, not an :class:`Assignment`, whose
        #: ``lhs.tensor`` would close a reference cycle through ``self``
        #: and leave the packed level arrays to the cyclic collector.
        self._statement: Optional[Tuple] = None
        #: Monotone counter identifying this tensor's *sparsity pattern*.
        #: Bumped whenever the level structure (pos/crd metadata, region
        #: identity) changes — packing, pattern adoption, an assembly that
        #: finds a new pattern — but NOT by in-place writes to ``vals.data``
        #: or by a re-assembly into the pattern already held.  Caches key on it so that
        #: value updates reuse partitions while structural changes miss.
        self.pattern_version: int = 0
        #: How many times this tensor's pattern has been installed *as the
        #: assembled output* of an unknown-pattern statement (SpAdd's
        #: two-phase assembly); an execute that re-derives the pattern the
        #: tensor already holds installs nothing.  An observability counter, not a cache
        #: key: the mechanism that keeps iterative SpAdd from recompiling
        #: is that kernel fingerprints *exclude* the LHS pattern version
        #: for assembled statements (an output pattern is what the kernel
        #: produces, not consumes — see
        #: :func:`repro.core.cache.is_assembled_output`).  The artifact
        #: store records and validates this counter in its manifest, and
        #: consumers of the tensor still see every structural change
        #: through ``pattern_version``.
        self.assembly_version: int = 0
        if self.format.is_all_dense():
            self._init_dense_levels()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_coo(
        name: str,
        coords: Sequence[np.ndarray],
        vals: np.ndarray,
        shape: Sequence[int],
        format: Optional[Format] = None,
        dtype=np.float64,
    ) -> "Tensor":
        t = Tensor(name, shape, format, dtype)
        t._pack(
            [np.asarray(c, dtype=np.int64) for c in coords],
            np.asarray(vals, dtype=t.dtype),
        )
        return t

    @staticmethod
    def from_dense(name: str, array: np.ndarray, format: Optional[Format] = None) -> "Tensor":
        array = np.asarray(array)
        t = Tensor(name, array.shape, format, array.dtype)
        if t.format.is_all_dense():
            t._set_dense_values(array)
        else:
            nz = np.nonzero(array)
            t._pack([np.asarray(c, dtype=np.int64) for c in nz], array[nz])
        return t

    @staticmethod
    def scipy_format(mat) -> Format:
        """The format a SciPy sparse ``mat`` packs into when none is asked
        for: CSC for a ``csc_matrix``/``csc_array``, CSR for every other
        SciPy sparse type — never the all-dense default of
        :class:`Tensor`, whose size is the product of the extents."""
        return CSC if mat.format == "csc" else CSR

    @staticmethod
    def from_scipy(name: str, mat, format: Optional[Format] = None) -> "Tensor":
        """Pack a SciPy sparse matrix (as ``format``, default
        :meth:`scipy_format`).  Unsorted indices and duplicate entries are
        handled like any other COO input: sorted, and summed."""
        if format is None:
            format = Tensor.scipy_format(mat)
        coo = mat.tocoo()
        t = Tensor(name, coo.shape, format)
        t._pack([coo.row, coo.col], np.asarray(coo.data, dtype=t.dtype))
        return t

    @staticmethod
    def zeros(
        name: str, shape: Sequence[int], format: Optional[Format] = None, dtype=np.float64
    ) -> "Tensor":
        t = Tensor(name, shape, format, dtype)
        if not t.format.is_all_dense():
            # Sparse output: structurally empty until assembled.
            t._pack([np.empty(0, dtype=np.int64) for _ in shape], np.empty(0, dtype=dtype))
        return t

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored values (the last level's position count)."""
        return 0 if self.vals is None else self.vals.ispace.volume

    @property
    def nbytes(self) -> int:
        lvl = sum(l.nbytes for l in self.levels)
        return lvl + (self.vals.nbytes if self.vals is not None else 0)

    def stored_shape(self) -> Tuple[int, ...]:
        """Dimension sizes in storage-level order."""
        return tuple(self.shape[m] for m in self.format.mode_ordering)

    def regions(self):
        """Yield this tensor's backing regions (each ``pos``/``crd`` of the
        compressed levels, then ``vals``), deduplicated by identity —
        ``adopt_pattern`` shares level regions between tensors."""
        seen = set()
        for lvl in self.levels:
            for region in lvl.regions():
                if id(region) not in seen:
                    seen.add(id(region))
                    yield region
        if self.vals is not None and id(self.vals) not in seen:
            yield self.vals

    def ensure_writable(self) -> int:
        """Promote every read-only (mmap-backed) region of this tensor to a
        private writable copy (see :meth:`repro.legion.region.Region.promote`);
        returns the number of regions promoted.  Required before writing
        ``region.data`` directly on a tensor loaded with ``mmap=True`` —
        region-method writes promote automatically, raw NumPy writes do not.
        Promotions fire the registered ``pattern_version`` bump hooks, so
        call this *before* the first compile over the tensor (or pass
        ``writable=[name]`` to ``load_packed``) to keep warm-start cache
        hits intact."""
        return sum(1 for r in self.regions() if r.promote())

    # ------------------------------------------------------------------ #
    # index notation
    # ------------------------------------------------------------------ #
    @property
    def assignment(self) -> Optional[Assignment]:
        """The statement last assigned to this tensor, built afresh (equal,
        not identical) on every read; keep the object if identity matters."""
        if self._statement is None:
            return None
        indices, rhs, accumulate = self._statement
        return Assignment(Access(self, indices), rhs, accumulate=accumulate)

    @assignment.setter
    def assignment(self, asg: Optional[Assignment]) -> None:
        self._statement = (
            None if asg is None else (asg.lhs.indices, asg.rhs, asg.accumulate)
        )

    def __getitem__(self, indices) -> Access:
        if isinstance(indices, IndexVar):
            indices = (indices,)
        return Access(self, indices)

    def __setitem__(self, indices, expr) -> None:
        if isinstance(indices, IndexVar):
            indices = (indices,)
        lhs = Access(self, indices)
        accumulate = False
        if isinstance(expr, Add) and expr.operands:
            first = expr.operands[0]
            if (
                isinstance(first, Access)
                and first.tensor is self
                and first.indices == lhs.indices
            ):
                accumulate = True
                rest = expr.operands[1:]
                expr = rest[0] if len(rest) == 1 else Add(rest)
        asg = Assignment(lhs, expr, accumulate=accumulate)
        self.assignment = asg
        # Lazy programs (repro.api) capture assignments written inside a
        # ``with session.program()`` block; a no-op when none is active.
        from .capture import notify_assignment

        notify_assignment(asg)

    def schedule(self):
        """Start scheduling the statement last assigned to this tensor."""
        if self.assignment is None:
            raise ValueError(f"no statement assigned to {self.name}")
        from .schedule import Schedule

        return Schedule(self.assignment)

    def _bump_pattern_version(self) -> None:
        """Record a sparsity-pattern mutation (new levels / metadata regions).

        Invalidates cached partitions and compiled kernels that captured the
        old structure (their cache keys embed the version).  Value-only
        writes must not call this.
        """
        self.pattern_version += 1

    def _bump_assembly_version(self) -> None:
        """Record one install of a new pattern into this tensor as an
        unknown-pattern output (see ``assembly_version``).  Always paired with a
        ``_bump_pattern_version`` by the assembly code — input-side caches
        must still see the structural change."""
        self.assembly_version += 1

    # ------------------------------------------------------------------ #
    # persistence (the artifact store; see repro.core.store)
    # ------------------------------------------------------------------ #
    def save(self, path, *, include_caches: bool = True, runtime=None):
        """Persist this packed tensor (pickle + JSON manifest) to ``path``.

        With ``include_caches`` (the default) every kernel-cache entry
        referencing this tensor is stored alongside — with the companion
        tensors those entries pin and the live runtimes their kernels were
        placed on, plus ``runtime`` — so :meth:`load` in a fresh process
        warm-starts straight to the cached steady state.  Delegates to
        :func:`repro.core.store.save_packed`.
        """
        from ..core.store import save_packed

        return save_packed(path, self, include_caches=include_caches,
                           runtime=runtime)

    @staticmethod
    def load(path) -> "Tensor":
        """Load the primary tensor of an artifact saved by :meth:`save`,
        re-seeding the kernel cache as a side effect.
        Use :func:`repro.core.store.load_packed` to also reach the
        companion tensors and the restored runtime."""
        from ..core.store import load_packed

        return load_packed(path).tensor

    # ------------------------------------------------------------------ #
    # packing (COO -> levels)
    # ------------------------------------------------------------------ #
    def _init_dense_levels(self) -> None:
        """All-dense tensors store an N-D vals region (stored-shape order),
        so dense distributions partition it with N-D rectangles directly."""
        self.levels = []
        p = 1
        for size in self.stored_shape():
            p *= size
            self.levels.append(DenseLevel(size, p))
        self.vals = Region(
            IndexSpace(self.stored_shape(), name=f"{self.name}_vals"),
            self.dtype,
            name=f"{self.name}.vals",
        )
        self._bump_pattern_version()

    def _set_dense_values(self, array: np.ndarray) -> None:
        self._init_dense_levels()
        stored = np.transpose(array, self.format.mode_ordering)
        self.vals.data[...] = np.ascontiguousarray(stored).astype(self.dtype)

    def _pack(self, coords: List[np.ndarray], vals: np.ndarray) -> None:
        """Build the level regions from COO ``coords`` (one integer array
        per tensor mode) and ``vals``.

        Entries end up in lexicographic storage order with duplicates
        summed.  Whether the input already has those two properties is
        observed, not declared: after the bounds checks one scan over
        consecutive entries (:func:`_adjacent_same`) says whether they are
        ordered and where neighbours coincide, and only an input that
        lacks a property pays to establish it (``np.lexsort``, the
        duplicate fold).  The regions own their memory on every path.
        """
        _check_coo(self.name, self.shape, coords, vals)
        if self.format.is_all_dense():
            dense = np.zeros(self.shape, dtype=self.dtype)
            if vals.size:
                np.add.at(dense, tuple(coords), vals)
            self._set_dense_values(dense)
            return
        nnz = vals.size
        stored = [coords[m] for m in self.format.mode_ordering]
        sizes = self.stored_shape()

        owned = False  # stored[*] are still the caller's arrays
        same = _adjacent_same(stored)
        if same is None:
            sort = np.lexsort(tuple(reversed(stored)))
            stored = [c[sort] for c in stored]
            vals = vals[sort]
            owned = True
            same = _adjacent_same(stored)
        if same[-1].any():
            # Fold each run of equal entries onto its first member.
            first = np.ones(nnz, dtype=bool)
            first[1:] = ~same[-1]
            group = np.cumsum(first) - 1
            vals = np.bincount(group, weights=vals, minlength=group[-1] + 1).astype(
                self.dtype
            )
            stored = [c[first] for c in stored]
            owned = True
            # The neighbour before a surviving entry was a copy of the
            # previous survivor, so its comparison carries over.
            same = [s[first[1:]] for s in same]
            nnz = vals.size

        self.levels = []
        parent_ids = np.zeros(nnz, dtype=np.int64)
        num_parents = 1
        for l, lf in enumerate(self.format.levels):
            level, parent_ids = lf.level.pack(
                self.name, l, sizes[l], stored[l], same[l], owned, parent_ids, num_parents
            )
            self.levels.append(level)
            num_parents = level.num_positions
        self.vals = Region(
            IndexSpace(num_parents, name=f"{self.name}_vals"), self.dtype,
            name=f"{self.name}.vals",
        )
        # Entries are distinct by now, so each has a value slot to itself
        # (its position in the last level; as many entries as positions
        # fill them in order) and a buffered ``+=`` is safe.  Adding into
        # the zeroed region rather than assigning stores ``0 + v`` — what a
        # folded entry holds too, so a ``-0.0`` packs to the same bytes
        # whether or not it had duplicates.
        slots = slice(None) if nnz == num_parents else parent_ids
        self.vals.data[slots] += vals
        self._bump_pattern_version()

    # ------------------------------------------------------------------ #
    # unpacking
    # ------------------------------------------------------------------ #
    def to_coo(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Return stored coordinates (tensor-mode order) and values.

        Dense levels enumerate every slot, so explicit zeros under a dense
        level are included — matching what the structure actually stores.
        """
        if self.vals is None:
            return [np.empty(0, dtype=np.int64) for _ in self.shape], np.empty(0, self.dtype)
        if self.format.is_all_dense():
            grids = np.indices(self.stored_shape()).reshape(self.order, -1)
            coords_mode: List[np.ndarray] = [None] * self.order  # type: ignore
            for l, m in enumerate(self.format.mode_ordering):
                coords_mode[m] = grids[l].astype(np.int64)
            return coords_mode, self.vals.data.ravel().copy()
        coords_storage: List[np.ndarray] = []
        current = np.zeros(1, dtype=np.int64)  # positions at the current level
        for lvl in self.levels:
            if lvl.is_dense:
                p = current.size
                parent_sel = np.repeat(np.arange(p), lvl.size)
                coord = np.tile(np.arange(lvl.size, dtype=np.int64), p)
                coords_storage = [c[parent_sel] for c in coords_storage]
                coords_storage.append(coord)
                current = current[parent_sel] * lvl.size + coord
            else:
                counts = lvl.counts()[current]
                parent_sel = np.repeat(np.arange(current.size), counts)
                starts = lvl.pos.lo[current]
                offsets = np.concatenate(
                    [np.arange(c, dtype=np.int64) for c in counts]
                ) if counts.size else np.empty(0, dtype=np.int64)
                child_pos = starts[parent_sel] + offsets
                coords_storage = [c[parent_sel] for c in coords_storage]
                coords_storage.append(lvl.crd.data[child_pos])
                current = child_pos
        values = self.vals.data[current]
        coords_mode: List[np.ndarray] = [None] * self.order  # type: ignore
        for l, m in enumerate(self.format.mode_ordering):
            coords_mode[m] = coords_storage[l]
        return coords_mode, values

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        coords, vals = self.to_coo()
        if vals.size:
            np.add.at(out, tuple(coords), vals)
        return out

    def to_scipy(self):
        import scipy.sparse as sp

        if self.order != 2:
            raise ValueError("to_scipy requires a matrix")
        coords, vals = self.to_coo()
        return sp.coo_matrix((vals, (coords[0], coords[1])), shape=self.shape).tocsr()

    # ------------------------------------------------------------------ #
    # walking the level stack (the iteration level functions, composed)
    # ------------------------------------------------------------------ #
    def positions_under(self, lo, hi, level: int):
        """The positions of storage level ``level`` below root positions
        ``[lo, hi]``: parent range -> child range, folded down the stack
        (elementwise over arrays of ranges)."""
        for lvl in self.levels[1 : level + 1]:
            lo, hi = lvl.child_range(lo, hi)
        return lo, hi

    def coords_of(self, positions, level: Optional[int] = None) -> List[np.ndarray]:
        """Storage-order coordinates of ``positions`` of storage level
        ``level`` (default: the last), root first: position -> coordinate
        and position -> parent, chained up to the root.  ``positions`` may
        be a ``range``: the parents of that run are then derived from
        segment lengths in one pass (``parent_of_range``), where an array
        of positions is searched position by position."""
        coords = []
        last = len(self.levels) - 1 if level is None else level
        run = isinstance(positions, range)
        if run:
            positions = np.arange(positions.start, positions.stop, dtype=np.int64)
        for depth in range(last, -1, -1):
            lvl = self.levels[depth]
            coords.append(lvl.coord_of(positions))
            if not depth:  # the root's parent is the single position 0
                break
            if run and positions.size:
                positions = lvl.parent_of_range(int(positions[0]), int(positions[-1]))
            else:
                positions = lvl.parent_of(positions)
            run = False  # a run's parents skip empty entries: not a run
        return coords[::-1]

    # ------------------------------------------------------------------ #
    # convenient raw views for leaf kernels
    # ------------------------------------------------------------------ #
    def dense_array(self) -> np.ndarray:
        """The values of an all-dense tensor, shaped in tensor-mode order."""
        if not self.format.is_all_dense():
            raise FormatError(f"{self.name} is not dense")
        inverse = np.argsort(self.format.mode_ordering)
        return np.transpose(self.vals.data, inverse)

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pos, crd, vals) of a {Dense, Compressed} matrix (rect-pos form)."""
        if len(self.levels) != 2 or self.levels[0].is_dense is False or self.levels[1].is_dense:
            raise FormatError(f"{self.name} is not in a {{Dense, Compressed}} format")
        lvl = self.levels[1]
        return lvl.pos.data, lvl.crd.data, self.vals.data

    def __repr__(self) -> str:
        return (
            f"Tensor({self.name}, shape={self.shape}, format={self.format.name}, "
            f"nnz={self.nnz})"
        )
