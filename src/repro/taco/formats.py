"""The format language: per-dimension level formats (paper §II-B, Fig. 3).

A k-dimensional tensor is stored as a stack of k *level formats*, one per
coordinate-tree level.  ``Dense`` stores every coordinate of the dimension;
``Compressed`` stores only the non-zero coordinates with a ``pos``/``crd``
pair.  ``mode_ordering`` maps storage levels to tensor modes, so CSC is the
same level stack as CSR with the dimensions stored in reverse order.

A :class:`Format` may also carry a data *distribution* (tensor distribution
notation), mirroring the paper's Fig. 1 where ``Format BlockedCSR({Dense,
Compressed}, Distribution(...))`` couples structure and placement.
"""
from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..errors import FormatError
from .levels import CompressedLevel, DenseLevel

__all__ = [
    "LevelFormat",
    "Dense",
    "Compressed",
    "Format",
    "CSR",
    "CSC",
    "CSF3",
    "DDC",
    "DENSE_VECTOR",
    "DENSE_MATRIX",
    "SPARSE_VECTOR",
    "dense_format",
]


class LevelFormat:
    """One coordinate-tree level's physical encoding: a name for the format
    language and the level class (:mod:`repro.taco.levels`) that implements
    it.  Two level formats are equal when they name the same class, so a
    format that went through pickle equals the one it was made from."""

    def __init__(self, name: str, level):
        self.name = name
        self.level = level

    @property
    def is_dense(self) -> bool:
        return self.level.is_dense

    @property
    def is_compressed(self) -> bool:
        return not self.level.is_dense

    def __eq__(self, other) -> bool:
        return isinstance(other, LevelFormat) and self.level is other.level

    def __hash__(self) -> int:
        return hash(self.level)

    def __repr__(self) -> str:
        return self.name


Dense = LevelFormat("Dense", DenseLevel)
Compressed = LevelFormat("Compressed", CompressedLevel)


class Format:
    """An ordered stack of level formats plus an optional data distribution."""

    def __init__(
        self,
        levels: Sequence[LevelFormat],
        mode_ordering: Optional[Sequence[int]] = None,
        distribution=None,
        *,
        name: str = "",
    ):
        self.levels: Tuple[LevelFormat, ...] = tuple(levels)
        if not self.levels:
            raise FormatError("a format needs at least one level")
        for lf in self.levels:
            if not isinstance(lf, LevelFormat):
                raise FormatError(f"not a level format: {lf!r}")
        order = len(self.levels)
        if mode_ordering is None:
            mode_ordering = tuple(range(order))
        self.mode_ordering: Tuple[int, ...] = tuple(int(m) for m in mode_ordering)
        if sorted(self.mode_ordering) != list(range(order)):
            raise FormatError(
                f"mode_ordering must be a permutation of 0..{order - 1}, "
                f"got {self.mode_ordering}"
            )
        self.distribution = distribution
        self.name = name or self._default_name()

    @property
    def order(self) -> int:
        return len(self.levels)

    def is_all_dense(self) -> bool:
        return all(lf.is_dense for lf in self.levels)

    def has_compressed(self) -> bool:
        return any(lf.is_compressed for lf in self.levels)

    def level_of_mode(self, mode: int) -> int:
        """Storage level at which tensor dimension ``mode`` is stored."""
        return self.mode_ordering.index(mode)

    def with_distribution(self, distribution) -> "Format":
        return Format(self.levels, self.mode_ordering, distribution, name=self.name)

    def _default_name(self) -> str:
        lv = ",".join(lf.name[0] for lf in self.levels)  # e.g. "D,C"
        if self.mode_ordering != tuple(range(self.order)):
            return f"Format({lv};{self.mode_ordering})"
        return f"Format({lv})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Format)
            and self.levels == other.levels
            and self.mode_ordering == other.mode_ordering
        )

    def __hash__(self) -> int:
        return hash((self.levels, self.mode_ordering))

    def __repr__(self) -> str:
        return self.name


def dense_format(order: int) -> Format:
    return Format([Dense] * order, name=f"Dense{order}")


# Common formats from the paper's evaluation (§VI):
CSR = Format([Dense, Compressed], name="CSR")
CSC = Format([Dense, Compressed], mode_ordering=(1, 0), name="CSC")
CSF3 = Format([Dense, Compressed, Compressed], name="CSF3")
DDC = Format([Dense, Dense, Compressed], name="DDC")  # the "patents" format
DENSE_VECTOR = dense_format(1)
DENSE_MATRIX = dense_format(2)
SPARSE_VECTOR = Format([Compressed], name="SparseVec")
