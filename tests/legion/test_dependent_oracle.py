"""Dependent partitioning against the per-colour bodies it replaced.

The twin below keeps each operation as it was when every colour took its own
pass — ``partition_by_bounds``, ``partition_by_value_ranges``, ``image`` (and
``RectRegion.destination_subset`` under it), ``preimage``, the subsets of
a dense tensor's partition and a level's ``coord_bounds``.  Generated inputs
drive both; every colour's subset must equal the twin's in type and in
content, and a partition's bounds arrays must say what its pieces say.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import caches_disabled, dense_partition
from repro.kernels import piece_range
from repro.legion import (
    ArraySubset,
    IndexSpace,
    Partition,
    Rect,
    RectSubset,
    Region,
    image,
    make_pos_region,
    partition_by_bounds,
    partition_by_value_ranges,
    preimage,
)
from repro.legion.index_space import EMPTY, _from_sorted_unique, subset_from_indices
from repro.taco import CSR, DDC, Tensor


# --------------------------------------------------------------------------- #
# the twin: one pass per colour
# --------------------------------------------------------------------------- #
def twin_partition_by_bounds(ispace, coloring):
    b_lo, b_hi = ispace.bounds.lo[0], ispace.bounds.hi[0]
    subsets = {}
    for color, (lo, hi) in coloring.items():
        lo, hi = max(lo, b_lo), min(hi, b_hi)
        subsets[color] = RectSubset(Rect(lo, hi)) if hi >= lo else EMPTY
    return subsets


def twin_partition_by_value_ranges(crd, coloring):
    values = crd.data
    subsets = {}
    for color, (lo, hi) in coloring.items():
        mask = (values >= lo) & (values <= hi)
        subsets[color] = _from_sorted_unique(np.flatnonzero(mask))
    return subsets


def twin_destination_subset(region, subset):
    rows = region.subset_view(subset)
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


def twin_image(src, src_partition):
    subsets = {}
    for color, subset in src_partition.items():
        if subset.empty:
            subsets[color] = EMPTY
            continue
        subsets[color] = twin_destination_subset(src, subset)
    return subsets


def twin_preimage(src, dst_partition):
    lo, hi = src.lo, src.hi
    nonempty = hi >= lo
    subsets = {}
    for color, subset in dst_partition.items():
        if subset.empty:
            subsets[color] = EMPTY
            continue
        if isinstance(subset, RectSubset):
            a, b = subset.rect.lo[0], subset.rect.hi[0]
            mask = nonempty & (lo <= b) & (hi >= a)
        else:
            targets = subset.indices()
            left = np.searchsorted(targets, lo, side="left")
            right = np.searchsorted(targets, hi, side="right")
            mask = nonempty & (right > left)
        subsets[color] = _from_sorted_unique(np.flatnonzero(mask))
    return subsets


def twin_dense_subsets(tensor, mode_bounds):
    subsets = {}
    for color, per_mode in mode_bounds.items():
        lo, hi = [], []
        for mode in tensor.format.mode_ordering:
            size = tensor.shape[mode]
            b = per_mode.get(mode, (0, size - 1))
            lo.append(max(0, b[0]))
            hi.append(min(size - 1, b[1]))
        r = Rect(tuple(lo), tuple(hi))
        subsets[color] = EMPTY if r.empty else RectSubset(r)
    return subsets


def twin_coord_bounds(level, subset):
    if subset.empty:
        return 0, -1
    key = subset.as_slice()
    if level.is_dense:
        if key is None:
            coords = level.coord_of(subset.indices())
            return int(coords.min()), int(coords.max())
        lo, hi = key.start % level.size, (key.stop - 1) % level.size
        if key.stop - key.start >= level.size or hi < lo:
            return 0, level.size - 1
        return lo, hi
    coords = level.crd.data[key] if key is not None else level.coord_of(subset.indices())
    return int(coords.min()), int(coords.max())


# --------------------------------------------------------------------------- #
# the comparison
# --------------------------------------------------------------------------- #
def disagreements(got: Partition, want: dict):
    """Every colour whose subset differs from the twin's in type or content,
    and every way the bounds arrays differ from the pieces."""
    found = []
    if list(got.subsets) != list(want):
        found.append(f"colours {list(got.subsets)} != {list(want)}")
    for color, w in want.items():
        g = got[color]
        if type(g) is not type(w) or g != w:
            found.append(f"[{color!r}] {g} != {w}")
    if got.bounds is not None:
        for k, s in enumerate(got.subsets.values()):
            lo, hi = got.bounds[0][k].tolist(), got.bounds[1][k].tolist()
            if type(s) is not RectSubset or (tuple(lo), tuple(hi)) != (
                    ((0,) * len(lo), (-1,) * len(hi)) if s.empty else (s.rect.lo, s.rect.hi)):
                found.append(f"bounds row {k} {lo}..{hi} != {s}")
    return found


# --------------------------------------------------------------------------- #
# generated inputs
# --------------------------------------------------------------------------- #
@st.composite
def colours(draw, n):
    """``n`` colours: in order, reversed, shuffled, out of order or tuples."""
    kind = draw(st.sampled_from(["ints", "reversed", "shuffled", "tuples", "sparse"]))
    if kind == "ints":
        return list(range(n))
    if kind == "reversed":
        return list(range(n))[::-1]
    if kind == "shuffled":
        return draw(st.permutations(list(range(n))))
    if kind == "tuples":
        return [(c // 2, c % 2) for c in range(n)]
    return draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))


@st.composite
def colourings(draw, extent, max_colours=8):
    """``{colour: (lo, hi)}`` over ``[0, extent)``: equal chunks (trailing
    colours empty when they do not divide), or drawn bounds that may fall
    outside the space, be reversed or overlap."""
    n = draw(st.integers(0, max_colours))
    cs = draw(colours(n))
    if draw(st.booleans()):
        return {c: piece_range(extent, n, k) for k, c in enumerate(cs)}
    at = st.integers(-3, extent + 3)
    return {c: (draw(at), draw(at)) for c in cs}


@st.composite
def packed_pos(draw, max_rows=24):
    """A packed ``pos``: rows of 0..4 children, empty rows anywhere (inside
    a colour's range and at its ends), or no rows at all."""
    counts = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 4]), max_size=max_rows))
    return make_pos_region(np.array(counts, dtype=np.int64))


@st.composite
def any_pos(draw):
    """A packed ``pos``, or one with a gap, an overlap or a negative-length
    row (hand-built bounds)."""
    if draw(st.booleans()):
        return draw(packed_pos())
    n = draw(st.integers(0, 12))
    rows = [(draw(st.integers(0, 30)), draw(st.integers(-2, 30))) for _ in range(n)]
    return make_pos_region(np.array(rows, dtype=np.int64).reshape(-1, 2))


@st.composite
def partitions_of(draw, ispace):
    """A partition of a 1-D space: by bounds (its arrays computed in one
    pass), rects built by hand (an empty one other than EMPTY among them),
    or with index-list pieces."""
    n = ispace.volume
    kind = draw(st.sampled_from(["bounds", "bounds", "rects", "lists"]))
    coloring = draw(colourings(n))
    if kind == "bounds":
        return partition_by_bounds(ispace, coloring)
    subsets = {}
    for c, (lo, hi) in coloring.items():
        if kind == "rects":
            subsets[c] = RectSubset(Rect(lo, hi)) if hi >= lo or draw(st.booleans()) else EMPTY
        else:
            idx = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=6)) if n else []
            subsets[c] = ArraySubset(np.array(idx, dtype=np.int64))
    return Partition(ispace, subsets)


def _outcome(fn):
    try:
        return "ok", fn()
    except (IndexError, ValueError) as e:
        return "error", type(e)


def _crd_of(pos):
    nnz = int(pos.hi.max() + 1) if len(pos.hi) else 0
    return IndexSpace(max(nnz, 0))


class TestDependentTwin:
    @given(st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.just(n), colourings(n, max_colours=12))))
    @settings(max_examples=120, deadline=None)
    def test_partition_by_bounds(self, case):
        n, coloring = case
        space = IndexSpace(n)
        got = partition_by_bounds(space, coloring)
        assert disagreements(got, twin_partition_by_bounds(space, coloring)) == []

    @given(st.lists(st.integers(0, 10), max_size=30).flatmap(
        lambda v: st.tuples(st.just(v), colourings(11))))
    @settings(max_examples=150, deadline=None)
    def test_partition_by_value_ranges(self, case):
        values, coloring = case
        crd = Region(IndexSpace(len(values)), np.int64,
                     data=np.array(values, dtype=np.int64))
        got = partition_by_value_ranges(crd, coloring)
        assert disagreements(got, twin_partition_by_value_ranges(crd, coloring)) == []

    @given(any_pos().flatmap(lambda pos: st.tuples(st.just(pos), partitions_of(pos.ispace))))
    @settings(max_examples=200, deadline=None)
    def test_image(self, case):
        pos, part = case
        got = image(pos, part, _crd_of(pos))
        assert disagreements(got, twin_image(pos, part)) == []

    @given(any_pos().flatmap(
        lambda pos: st.tuples(st.just(pos), partitions_of(_crd_of(pos)))))
    @settings(max_examples=200, deadline=None)
    def test_preimage(self, case):
        pos, part = case
        got = preimage(pos, part)
        assert disagreements(got, twin_preimage(pos, part)) == []

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3).flatmap(
        lambda shape: st.tuples(st.just(shape), st.integers(0, 8).flatmap(colours),
                                st.data())))
    @settings(max_examples=100, deadline=None)
    def test_dense_partition(self, case):
        shape, cs, data = case
        tensor = Tensor.from_dense("T", np.ones(shape))
        at = st.integers(-2, max(shape) + 2)
        drawn = data.draw(st.dictionaries(
            st.integers(0, len(shape) - 1),
            st.lists(st.tuples(at, at), min_size=len(cs), max_size=len(cs))))
        per_mode = {m: tuple(np.array(b, dtype=np.int64).reshape(-1, 2).T)
                    for m, b in drawn.items()}
        mode_bounds = {c: {m: b[k] for m, b in drawn.items()} for k, c in enumerate(cs)}
        with caches_disabled():
            got = dense_partition(tensor, cs, per_mode).vals_part
        assert disagreements(got, twin_dense_subsets(tensor, mode_bounds)) == []

    @given(st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=30).flatmap(
        lambda entries: st.tuples(st.just(entries), st.sampled_from([CSR, DDC]),
                                  st.integers(0, 2), st.data())))
    @settings(max_examples=200, deadline=None)
    def test_coord_bounds(self, case):
        """Every level of a CSR matrix and of a DDC tensor, whose middle
        dense level repeats under each parent."""
        entries, fmt, level, data = case
        coords = [np.array([e[m] for e in entries], dtype=np.int64) for m in range(3)]
        if fmt is CSR:
            T = Tensor.from_coo("B", coords[:2], np.ones(len(entries)), (5, 5), CSR)
        else:
            T = Tensor.from_coo("T", [c % s for c, s in zip(coords, (3, 4, 5))],
                                np.ones(len(entries)), (3, 4, 5), DDC)
        lvl = T.levels[min(level, len(T.levels) - 1)]
        part = data.draw(partitions_of(lvl.pos_ispace))

        def ours():
            lo, hi = lvl.coord_bounds(part)
            return list(zip(lo.tolist(), hi.tolist()))

        # a hand-built rect beyond the level's positions fails in both alike
        assert _outcome(ours) == _outcome(
            lambda: [twin_coord_bounds(lvl, s) for s in part.subsets.values()])


class TestDependentTwinByExample:
    """The shapes the generated inputs must reach, pinned."""

    def test_trailing_empty_colour(self):
        """2 000 rows over 64 pieces leaves colour 63 empty at every step."""
        counts = np.random.default_rng(0).integers(0, 20, 2_000)
        pos = make_pos_region(counts)
        rows = {c: piece_range(2_000, 64, c) for c in range(64)}
        part = partition_by_bounds(pos.ispace, rows)
        assert part[63] is EMPTY and disagreements(part, twin_partition_by_bounds(
            pos.ispace, rows)) == []
        crd_part = image(pos, part, _crd_of(pos))
        assert crd_part[63] is EMPTY
        assert disagreements(crd_part, twin_image(pos, part)) == []
        assert disagreements(preimage(pos, crd_part), twin_preimage(pos, crd_part)) == []

    @pytest.mark.parametrize("counts", [[2, 0, 3], [0, 2, 3], [2, 3, 0], [0, 0]])
    def test_empty_rows_inside_and_at_the_ends_of_a_colour(self, counts):
        pos = make_pos_region(np.array(counts))
        crd = _crd_of(pos)
        part = partition_by_bounds(crd, {0: (0, crd.volume - 1), 1: (1, 1)})
        got = preimage(pos, part)
        assert disagreements(got, twin_preimage(pos, part)) == []
        if counts == [2, 0, 3]:
            assert isinstance(got[0], ArraySubset)  # rows 0 and 2: a gap

    def test_empty_region(self):
        pos = make_pos_region(np.zeros(0, dtype=np.int64))
        crd = Region(IndexSpace(0), np.int64, data=np.zeros(0, dtype=np.int64))
        coloring = {0: (0, 3), 1: (2, 1)}
        assert disagreements(partition_by_value_ranges(crd, coloring),
                             twin_partition_by_value_ranges(crd, coloring)) == []
        part = partition_by_bounds(pos.ispace, coloring)
        assert disagreements(image(pos, part, crd), twin_image(pos, part)) == []
        assert disagreements(preimage(pos, part), twin_preimage(pos, part)) == []

    def test_overlapping_value_ranges(self):
        crd = Region(IndexSpace(6), np.int64, data=np.array([0, 4, 2, 4, 1, 3]))
        coloring = {"a": (0, 2), "b": (2, 4), "c": (5, 3)}
        got = partition_by_value_ranges(crd, coloring)
        assert disagreements(got, twin_partition_by_value_ranges(crd, coloring)) == []
        assert got.bounds is None  # "a" is positions 0, 2, 4

    @pytest.mark.parametrize("rect", [(1, 5), (-2, 1), (4, 9), (0, 2)])
    def test_rects_past_the_level_ends(self, rect):
        """A hand-built rect that runs past a level's positions takes the
        per-colour body: clipped, or failing as the twin does."""
        B = Tensor.from_coo("B", [np.array([0, 1, 2]), np.array([4, 0, 3])], np.ones(3),
                            (5, 5), CSR)
        lvl = B.levels[1]
        part = Partition(lvl.pos_ispace, {0: RectSubset(Rect(*rect)), 1: EMPTY})

        def ours():
            lo, hi = lvl.coord_bounds(part)
            return list(zip(lo.tolist(), hi.tolist()))

        assert _outcome(ours) == _outcome(
            lambda: [twin_coord_bounds(lvl, s) for s in part.subsets.values()])
        pos = B.levels[1].pos
        rows = Partition(pos.ispace, {0: RectSubset(Rect(*rect)), 1: EMPTY})
        assert disagreements(image(pos, rows, lvl.crd), twin_image(pos, rows)) == []
