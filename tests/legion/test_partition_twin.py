"""Partitions kept as bounds columns against the eager ones they replaced.

A partition of rects keeps its ``(lo, hi)`` bounds as columns and makes a
colour's rect only when a caller reads it (``partition[c]``, ``items()``).
The twin below keeps the eager construction — every colour's rect built up
front by ``twin_rect_subsets``, the body ``Partition.from_bounds`` ran
through ``index_space.rect_subsets`` — and the per-rect ``is_disjoint`` /
``is_complete`` / bounds bodies.  Generated bounds (empty rows, trailing
empty colours, N-D windows, grid colours) drive both, with a pickle or deep
copy taken before or after some colours are read; every colour, the
colour order, the bounds and both properties must agree in type and
content, and no colour nobody read has a rect.

A partition built from a dict of pieces keeps them in the same per-colour
store, and ``equal_partition`` / ``equal_partition_nd`` build through
``from_bounds``; the twins of their per-colour ``Rect`` loops
(``twin_equal_partition`` / ``twin_equal_partition_nd``) and the dict
itself are the references for those two constructors.
"""
import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.legion import (
    ArraySubset,
    IndexSpace,
    Partition,
    Rect,
    RectSubset,
    equal_partition,
    equal_partition_nd,
)
from repro.legion.index_space import EMPTY, union_subsets


# --------------------------------------------------------------------------- #
# the twin: every colour built up front
# --------------------------------------------------------------------------- #
def twin_rect_subsets(lo, hi, volumes):
    out = []
    new = object.__new__
    for l, h, v in zip(map(tuple, lo.tolist()), map(tuple, hi.tolist()), volumes.tolist()):
        if not v:
            out.append(EMPTY)
            continue
        r = new(Rect)
        r.__dict__.update(lo=l, hi=h, empty=False, volume=v)
        s = new(RectSubset)
        s.__dict__["rect"] = r
        out.append(s)
    return out


def twin_subsets(colors, lo, hi):
    volumes = np.maximum(hi - lo + 1, 0).prod(axis=1)
    if not volumes.all():
        live = volumes[:, None] > 0
        lo, hi = np.where(live, lo, 0), np.where(live, hi, -1)
    return dict(zip(colors, twin_rect_subsets(lo, hi, volumes)))


def twin_bounds(ndim, subsets):
    lo, hi = [], []
    for s in subsets:
        if type(s) is not RectSubset:
            return None
        if s.rect.empty:
            if s != EMPTY:
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


def twin_equal_partition(ispace, pieces):
    n = ispace.volume
    lo0 = ispace.bounds.lo[0]
    chunk = -(-n // pieces) if n else 0
    subsets = {}
    for c in range(pieces):
        lo = lo0 + c * chunk
        hi = min(lo0 + (c + 1) * chunk, lo0 + n) - 1
        subsets[c] = RectSubset(Rect(lo, hi)) if hi >= lo else EMPTY
    return subsets


def twin_equal_partition_nd(ispace, grid):
    shape = ispace.shape()
    chunks = [-(-s // g) if s else 0 for s, g in zip(shape, grid)]
    subsets = {}
    for color in np.ndindex(*grid):
        lo = tuple(ispace.bounds.lo[d] + color[d] * chunks[d] for d in range(len(grid)))
        hi = tuple(min(ispace.bounds.lo[d] + (color[d] + 1) * chunks[d],
                       ispace.bounds.lo[d] + shape[d]) - 1 for d in range(len(grid)))
        r = Rect(lo, hi)
        subsets[color if len(grid) > 1 else color[0]] = EMPTY if r.empty else RectSubset(r)
    return subsets


def twin_is_disjoint(subsets):
    subsets = [s for s in subsets.values() if not s.empty]
    rects = sorted((s.rect for s in subsets), key=lambda r: r.lo)
    if len({(r.lo[1:], r.hi[1:]) for r in rects}) <= 1:
        return all(a.hi[0] < b.lo[0] for a, b in zip(rects, rects[1:]))
    return not any(a.overlaps(b) for i, a in enumerate(rects) for b in rects[i + 1:])


def twin_is_complete(parent, subsets):
    live = [s for s in subsets.values() if not s.empty]
    if any(s.rect.ndim > 1 for s in live):
        if twin_is_disjoint(subsets):
            return sum(s.volume for s in live) == parent.volume
        raise NotImplementedError("completeness of aliased N-D partitions")
    return union_subsets(live).volume == parent.volume


def _outcome(fn):
    try:
        return "ok", fn()
    except NotImplementedError:
        return "raises", None


def disagreements(got: Partition, want: dict, parent):
    """Every way ``got`` differs from the twin's pieces."""
    found = []
    if list(got.subsets) != list(want) or any(
            g is not got[c] for c, g in got.subsets.items()):
        found.append("subsets is not the pieces, in colour order")
    if got.colors() != list(want) or got.n_colors != len(want):
        found.append(f"colours {got.colors()} != {list(want)}")
    for color, w in want.items():
        g = got[color]
        if type(g) is not type(w) or g != w:
            found.append(f"[{color!r}] {g} != {w}")
    items = list(got.items())
    if [c for c, _ in items] != list(want) or any(
            type(g) is not type(w) or g != w for (_, g), w in zip(items, want.values())):
        found.append("items() differ")
    bounds, want_bounds = got.bounds, twin_bounds(parent.ndim, want.values())
    if (bounds is None) != (want_bounds is None) or bounds is not None and not all(
            np.array_equal(a, b) for a, b in zip(bounds, want_bounds)):
        found.append(f"bounds {bounds} != {want_bounds}")
    if any(not isinstance(s, RectSubset) for s in want.values()):
        return found  # the properties' index-list bodies are the partition's own
    if got.is_disjoint() != twin_is_disjoint(want):
        found.append(f"is_disjoint {got.is_disjoint()}")
    if _outcome(got.is_complete) != _outcome(lambda: twin_is_complete(parent, want)):
        found.append(f"is_complete {_outcome(got.is_complete)}")
    return found


# --------------------------------------------------------------------------- #
# generated inputs
# --------------------------------------------------------------------------- #
@st.composite
def bounds_partitions(draw):
    """``(parent, colours, lo, hi, reads, clone, when)``: a space of rank
    1-3, bounds rows inside it — some empty on one axis, the last few empty
    when ``trailing`` — and the colours read before / around a clone."""
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)))
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["ints", "reversed", "grid", "sparse"]))
    if kind == "ints":
        colors = list(range(n))
    elif kind == "reversed":
        colors = list(range(n))[::-1]
    elif kind == "grid":
        colors = [(c // 2, c % 2) for c in range(n)]
    else:
        colors = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    lo = np.zeros((n, len(shape)), dtype=np.int64)
    hi = np.zeros((n, len(shape)), dtype=np.int64)
    trailing = draw(st.integers(0, n))
    for k in range(n):
        for d, size in enumerate(shape):
            a = draw(st.integers(0, max(size - 1, 0)))
            lo[k, d], hi[k, d] = a, draw(st.integers(a - 1, max(size - 1, a - 1)))
        if k >= n - trailing or draw(st.integers(0, 4)) == 0:  # an empty row
            d = draw(st.integers(0, len(shape) - 1))
            hi[k, d] = lo[k, d] - draw(st.integers(1, 3))
    reads = draw(st.lists(st.sampled_from(colors), max_size=4)) if colors else []
    clone = draw(st.sampled_from([None, "pickle", "deepcopy"]))
    when = draw(st.sampled_from(["before", "after"]))
    parent = IndexSpace(shape[0]) if len(shape) == 1 else IndexSpace(shape)
    return parent, colors, lo, hi, reads, clone, when


def _clone(part, how):
    if how == "pickle":
        return pickle.loads(pickle.dumps(part))
    return copy.deepcopy(part) if how == "deepcopy" else part


class TestPartitionTwin:
    @settings(max_examples=200, deadline=None)
    @given(bounds_partitions())
    def test_columns_match_the_eager_partition(self, case):
        parent, colors, lo, hi, reads, clone, when = case
        want = twin_subsets(colors, lo, hi)
        part = Partition.from_bounds(parent, colors, lo.copy(), hi.copy())
        if when == "before":
            part = _clone(part, clone)
        early = part.copy(name="early")  # copied before any read
        for c in reads:
            assert part[c] is part[c]  # made once, then kept
        assert all(early[c] is part[c] for c in reads)  # ... and shared
        if when == "after":
            part = _clone(part, clone)
        made = {c for c, piece in zip(part.colors(), part._made) if piece is not None}
        assert made <= set(reads)  # nobody read the others: no rect made
        assert part["absent"] is EMPTY
        assert disagreements(part, want, parent) == []
        twin = part.copy(name="twin")
        assert all(twin[c] is part[c] for c in colors)  # a copy shares the pieces

    def test_an_unread_partition_makes_no_rect(self, monkeypatch):
        from repro.legion import partition as partition_mod

        made = []
        real = partition_mod.rect_piece
        monkeypatch.setattr(partition_mod, "rect_piece",
                            lambda *a: made.append(a) or real(*a))
        lo = np.arange(0, 256, 4, dtype=np.int64)[:, None]
        part = Partition.from_bounds(IndexSpace(256), list(range(64)), lo, lo + 3)
        assert part.is_disjoint() and part.is_complete() and part.n_colors == 64
        assert made == []
        assert part[5] == RectSubset(Rect(20, 23)) and len(made) == 1


@st.composite
def pieces_partitions(draw):
    """``(parent, pieces, reads, clone, when)``: a dict of rect, ``EMPTY``
    and (on one axis) index-list pieces, and the reads around a clone."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    parent = IndexSpace(shape[0]) if len(shape) == 1 else IndexSpace(shape)
    kinds = ["rect", "empty"] + ["array"] * (len(shape) == 1)
    pieces = {}
    for c in draw(st.lists(st.integers(-9, 9), max_size=6, unique=True)):
        kind = draw(st.sampled_from(kinds))
        if kind == "empty":
            pieces[c] = EMPTY
        elif kind == "array":
            pieces[c] = ArraySubset(np.array(sorted(draw(st.sets(
                st.integers(0, shape[0] - 1), min_size=1)))))
        else:
            lo = [draw(st.integers(0, n - 1)) for n in shape]
            hi = [draw(st.integers(a, n - 1)) for a, n in zip(lo, shape)]
            pieces[c] = RectSubset(Rect(tuple(lo), tuple(hi)))
    reads = draw(st.lists(st.sampled_from(list(pieces)), max_size=3)) if pieces else []
    clone = draw(st.sampled_from([None, "pickle", "deepcopy"]))
    return parent, pieces, reads, clone, draw(st.sampled_from(["before", "after"]))


class TestOtherConstructors:
    @settings(max_examples=200, deadline=None)
    @given(pieces_partitions())
    def test_a_dict_keeps_its_pieces(self, case):
        """The pieces a dict hands over are the partition's, colour for
        colour, through every reader, a clone and a copy."""
        parent, pieces, reads, clone, when = case
        part = Partition(parent, pieces)
        if when == "before":
            part = _clone(part, clone)
        for c in reads:
            assert part[c] is part[c]
        if when == "after":
            part = _clone(part, clone)
        if clone is None:
            assert all(part[c] is p for c, p in pieces.items())
        assert [part.piece(k) for k in range(part.n_colors)] == list(pieces.values())
        assert part["absent"] is EMPTY
        assert disagreements(part, pieces, parent) == []
        twin = part.copy(name="twin")
        assert all(twin[c] is part[c] for c in pieces) and twin.name == "twin"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-5, 5), st.integers(0, 40), st.integers(1, 12))
    def test_equal_partition_matches_its_loop(self, lo, n, pieces):
        parent = IndexSpace(Rect(lo, lo + n - 1))
        part = equal_partition(parent, pieces)
        assert part.name == f"equal({parent.name},{pieces})"
        assert disagreements(part, twin_equal_partition(parent, pieces), parent) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 9), st.integers(1, 4)),
                    min_size=1, max_size=3))
    def test_equal_partition_nd_matches_its_loop(self, axes):
        lo = tuple(a for a, _, _ in axes)
        hi = tuple(a + n - 1 for a, n, _ in axes)
        grid = [g for _, _, g in axes]
        parent = IndexSpace(Rect(lo, hi))
        part = equal_partition_nd(parent, grid)
        assert part.name == f"equal_nd({parent.name},{tuple(grid)})"
        assert disagreements(part, twin_equal_partition_nd(parent, grid), parent) == []


@pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_cloned_copy_keeps_its_columns(clone):
    lo = np.array([[0], [3], [5]], dtype=np.int64)
    part = Partition.from_bounds(IndexSpace(8), ["a", "b", "c"], lo, np.array([[2], [2], [7]]))
    got = clone(part.copy(name="x"))
    assert got.name == "x" and got["b"] is EMPTY and got["c"].volume == 3
    assert [b.tolist() for b in got.bounds] == [[[0], [0], [5]], [[2], [-1], [7]]]
