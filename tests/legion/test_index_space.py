"""Unit tests for index spaces, rects and subsets."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.legion import (
    EMPTY,
    ArraySubset,
    IndexSpace,
    Rect,
    RectSubset,
    intersect_subsets,
    subset_from_indices,
    union_subsets,
)
from repro.legion.index_space import subsets_overlap, subtract_subsets


class TestRect:
    def test_1d_basics(self):
        r = Rect(2, 5)
        assert r.ndim == 1
        assert r.volume == 4
        assert not r.empty
        assert r.contains_point(2) and r.contains_point(5)
        assert not r.contains_point(6)

    def test_empty(self):
        r = Rect(3, 2)
        assert r.empty
        assert r.volume == 0
        assert list(r.points()) == []

    def test_nd(self):
        r = Rect((0, 0), (1, 2))
        assert r.ndim == 2
        assert r.volume == 6
        assert r.shape() == (2, 3)
        assert list(r.points()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_intersection(self):
        a = Rect(0, 10)
        b = Rect(5, 20)
        assert a.intersection(b) == Rect(5, 10)
        assert a.overlaps(b)
        assert not a.overlaps(Rect(11, 20))

    def test_contains_rect(self):
        assert Rect(0, 10).contains_rect(Rect(3, 7))
        assert not Rect(0, 10).contains_rect(Rect(3, 17))
        assert Rect(0, 10).contains_rect(Rect(5, 4))  # empty always contained

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            Rect((0, 0), (1,))
        with pytest.raises(ValueError):
            Rect(0, 1).intersection(Rect((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            Rect(0, 1).overlaps(Rect((0, 0), (1, 1)))


class TestIndexSpace:
    def test_from_int(self):
        isp = IndexSpace(10)
        assert isp.volume == 10
        assert isp.ndim == 1
        assert isp.bounds == Rect(0, 9)

    def test_from_shape(self):
        isp = IndexSpace((3, 4))
        assert isp.volume == 12
        assert isp.shape() == (3, 4)

    def test_identity(self):
        a, b = IndexSpace(5), IndexSpace(5)
        assert a is not b
        assert a.uid != b.uid

    def test_full_subset(self):
        isp = IndexSpace(7)
        assert isp.full_subset().volume == 7


class TestSubsets:
    def test_rect_subset_indices(self):
        s = RectSubset(Rect(2, 4))
        assert list(s.indices()) == [2, 3, 4]
        assert s.as_slice() == slice(2, 5)

    def test_array_subset_dedup_sort(self):
        s = ArraySubset(np.array([5, 1, 5, 3]))
        assert list(s.indices()) == [1, 3, 5]
        assert s.volume == 3
        assert s.as_slice() is None

    def test_array_subset_contiguous_slice(self):
        s = ArraySubset(np.array([3, 4, 5]))
        assert s.as_slice() == slice(3, 6)

    def test_contains_point(self):
        s = ArraySubset(np.array([1, 3, 5]))
        assert s.contains_point(3)
        assert not s.contains_point(2)

    def test_subset_from_indices_collapses_to_rect(self):
        s = subset_from_indices(np.array([4, 5, 6, 7]))
        assert isinstance(s, RectSubset)
        s2 = subset_from_indices(np.array([4, 6]))
        assert isinstance(s2, ArraySubset)
        assert subset_from_indices(np.array([], dtype=np.int64)) is EMPTY

    def test_union_adjacent_rects(self):
        u = union_subsets([RectSubset(Rect(0, 3)), RectSubset(Rect(4, 7))])
        assert isinstance(u, RectSubset)
        assert u.rect == Rect(0, 7)

    def test_union_disjoint(self):
        u = union_subsets([RectSubset(Rect(0, 1)), RectSubset(Rect(5, 6))])
        assert u.volume == 4
        assert list(u.indices()) == [0, 1, 5, 6]

    def test_union_empty(self):
        assert union_subsets([]) is EMPTY
        assert union_subsets([EMPTY, EMPTY]) is EMPTY

    def test_intersect(self):
        a = RectSubset(Rect(0, 5))
        b = ArraySubset(np.array([4, 5, 9]))
        got = intersect_subsets(a, b)
        assert list(got.indices()) == [4, 5]
        assert intersect_subsets(a, EMPTY) is EMPTY

    def test_subtract(self):
        a = RectSubset(Rect(0, 5))
        b = RectSubset(Rect(2, 3))
        got = subtract_subsets(a, b)
        assert list(got.indices()) == [0, 1, 4, 5]
        assert subtract_subsets(EMPTY, a) is EMPTY
        assert subtract_subsets(a, EMPTY) is a

    def test_subtract_nd_conservative(self):
        a = RectSubset(Rect((0, 0), (3, 3)))
        cover = RectSubset(Rect((0, 0), (5, 5)))
        partial = RectSubset(Rect((0, 0), (1, 1)))
        assert subtract_subsets(a, cover).empty
        assert subtract_subsets(a, partial) is a  # conservative


@st.composite
def subsets(draw):
    kind = draw(st.sampled_from(["rect", "array", "empty"]))
    if kind == "empty":
        return EMPTY
    if kind == "rect":
        lo = draw(st.integers(0, 50))
        hi = draw(st.integers(lo, lo + 30))
        return RectSubset(Rect(lo, hi))
    idx = draw(st.lists(st.integers(0, 80), min_size=1, max_size=30))
    return ArraySubset(np.array(idx))


@st.composite
def rect_pairs(draw):
    """Two rects of one rank (1-D or 2-D) over a range small enough that
    empty (``hi < lo``), touching, nested and disjoint pairs all turn up."""
    def rect(ndim):
        lo = [draw(st.integers(0, 8)) for _ in range(ndim)]
        return Rect(lo, [draw(st.integers(l - 2, l + 5)) for l in lo])

    ndim = draw(st.integers(1, 2))
    return rect(ndim), rect(ndim)


class TestSubsetProperties:
    @given(rect_pairs())
    @example((Rect(3, 2), Rect(0, 9)))  # empty: its bounds alone would "overlap"
    @example((Rect(0, 4), Rect(4, 6)))  # touching
    @example((Rect((0, 0), (9, 9)), Rect((2, 3), (4, 4))))  # nested
    @example((Rect((0, 0), (3, 3)), Rect((0, 4), (3, 6))))  # disjoint in one axis
    def test_rect_overlaps_is_a_nonempty_intersection(self, pair):
        a, b = pair
        expected = not a.intersection(b).empty
        assert a.overlaps(b) == b.overlaps(a) == expected
        sa, sb = RectSubset(a), RectSubset(b)
        assert subsets_overlap(sa, sb) == (not intersect_subsets(sa, sb).empty) == expected

    @given(subsets(), subsets())
    def test_subsets_overlap_is_a_nonempty_intersection(self, a, b):
        assert subsets_overlap(a, b) == (not intersect_subsets(a, b).empty)

    @given(subsets(), subsets())
    @settings(max_examples=80, deadline=None)
    def test_union_volume_bounds(self, a, b):
        u = union_subsets([a, b])
        assert max(a.volume, b.volume) <= u.volume <= a.volume + b.volume

    @given(subsets(), subsets())
    @settings(max_examples=80, deadline=None)
    def test_inclusion_exclusion(self, a, b):
        u = union_subsets([a, b])
        i = intersect_subsets(a, b)
        assert u.volume == a.volume + b.volume - i.volume

    @given(subsets(), subsets())
    @settings(max_examples=80, deadline=None)
    def test_subtract_partitions_a(self, a, b):
        diff = subtract_subsets(a, b)
        inter = intersect_subsets(a, b)
        assert diff.volume + inter.volume == a.volume

    @given(subsets())
    @settings(max_examples=50, deadline=None)
    def test_indices_sorted_unique(self, a):
        idx = a.indices()
        assert np.all(np.diff(idx) > 0) if idx.size > 1 else True
