"""Unit tests for partitions and colorings."""
import copy
import pickle

import numpy as np
import pytest

from repro.legion import (
    ArraySubset,
    Coloring,
    IndexSpace,
    Partition,
    Rect,
    RectSubset,
    equal_partition,
    equal_partition_nd,
)


class TestColoring:
    def test_columns(self):
        c = Coloring([0, 1], [(0, 4), (5, 9)])
        assert c.items() == [(0, (0, 4)), (1, (5, 9))]
        assert len(c) == 2
        assert c.colors() == [0, 1]
        c.fill([2], [(3, 3)])
        assert c.items() == [(2, (3, 3))]
        assert Coloring.of({0: (1, 2)}).items() == [(0, (1, 2))]

    def test_colors_and_bounds_must_agree(self):
        with pytest.raises(ValueError):
            Coloring([0, 1], [(0, 4)])


class TestEqualPartition:
    def test_exact_division(self):
        p = equal_partition(IndexSpace(8), 4)
        assert [p[c].volume for c in range(4)] == [2, 2, 2, 2]
        assert p.is_disjoint() and p.is_complete()

    def test_uneven_division_matches_fig9b(self):
        # chunk = ceil(n/pieces); trailing colors may be short or empty
        p = equal_partition(IndexSpace(10), 4)
        assert [p[c].volume for c in range(4)] == [3, 3, 3, 1]
        p2 = equal_partition(IndexSpace(4), 3)
        assert [p2[c].volume for c in range(3)] == [2, 2, 0]

    def test_more_pieces_than_elements(self):
        p = equal_partition(IndexSpace(2), 5)
        vols = [p[c].volume for c in range(5)]
        assert sum(vols) == 2
        assert p.is_complete()

    def test_nd(self):
        p = equal_partition_nd(IndexSpace((4, 6)), (2, 3))
        assert p.n_colors == 6
        assert all(s.volume == 4 for _, s in p.items())
        assert p.is_disjoint() and p.is_complete()


class TestPartitionProperties:
    def test_overlapping_not_disjoint(self):
        isp = IndexSpace(10)
        p = Partition(isp, {0: RectSubset(Rect(0, 5)), 1: RectSubset(Rect(5, 9))})
        assert not p.is_disjoint()
        assert p.is_complete()

    def test_incomplete(self):
        isp = IndexSpace(10)
        p = Partition(isp, {0: RectSubset(Rect(0, 3))})
        assert not p.is_complete()

    def test_array_subset_disjointness(self):
        isp = IndexSpace(10)
        p = Partition(
            isp,
            {0: ArraySubset(np.array([0, 2, 4])), 1: ArraySubset(np.array([1, 3]))},
        )
        assert p.is_disjoint()
        p2 = Partition(
            isp,
            {0: ArraySubset(np.array([0, 2])), 1: ArraySubset(np.array([2, 3]))},
        )
        assert not p2.is_disjoint()

    def test_missing_color_is_empty(self):
        p = equal_partition(IndexSpace(4), 2)
        assert p[99].empty

    def test_scale_dense_rect(self):
        p = equal_partition(IndexSpace(4), 2)
        scaled = p.scale_dense(3)
        assert scaled[0].volume == 6
        assert scaled[0].indices().tolist() == [0, 1, 2, 3, 4, 5]

    def test_scale_dense_array(self):
        isp = IndexSpace(4)
        p = Partition(isp, {0: ArraySubset(np.array([0, 2]))})
        scaled = p.scale_dense(2)
        assert scaled[0].indices().tolist() == [0, 1, 4, 5]

    def test_nd_windows_disjointness(self):
        isp = IndexSpace((4, 4))
        tiles = {c: RectSubset(Rect((r, k), (r + 1, k + 1)))
                 for c, (r, k) in enumerate([(0, 0), (0, 2), (2, 0), (2, 2)])}
        assert Partition(isp, tiles).is_disjoint()
        # the overlapping pair is not adjacent in ``lo`` order
        tiles[4] = RectSubset(Rect((1, 1), (1, 1)))
        assert not Partition(isp, tiles).is_disjoint()


class TestPartitionBounds:
    def test_bounds_of_rect_pieces(self):
        p = Partition(IndexSpace(10), {0: RectSubset(Rect(0, 3)), 1: RectSubset(Rect(0, -1)),
                                       2: RectSubset(Rect(6, 9))})
        lo, hi = p.bounds
        assert lo.tolist() == [[0], [0], [6]] and hi.tolist() == [[3], [-1], [9]]

    def test_no_bounds_for_index_lists(self):
        p = Partition(IndexSpace(4), {0: ArraySubset(np.array([0, 2]))})
        assert p.bounds is None

    @pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_unread_bounds_survive_a_copy(self, clone):
        """A partition copied before its bounds were read derives them
        after the copy."""
        pieces = {c: RectSubset(Rect(3 * c, 3 * c + 2)) for c in range(3)}
        q = clone(Partition(IndexSpace(9), pieces))  # built from pieces
        assert "bounds" not in q.__dict__
        lo, hi = q.bounds
        assert lo.tolist() == [[0], [3], [6]] and hi.tolist() == [[2], [5], [8]]
        assert q.is_disjoint() and q.is_complete()

    def test_built_bounds_survive_a_pickle(self):
        p = Partition.from_bounds(IndexSpace(9), ["a", "b"], np.array([[0], [5]]),
                                  np.array([[4], [3]]))
        q = pickle.loads(pickle.dumps(p))
        assert q["b"].empty and q["a"].volume == 5
        assert [b.tolist() for b in q.bounds] == [[[0], [0]], [[4], [-1]]]
