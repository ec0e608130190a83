"""Level function tests: Table I's format abstractions for partitioning
(:mod:`repro.core.levels`) and the three iteration level functions every
leaf is resolved through (:mod:`repro.taco.tensor`)."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PartitioningPlan, level_functions_for, partition_tensor
from repro.errors import CompileError
from repro.kernels import piece_range
from repro.legion import Partition, Rect, RectSubset
from repro.taco import CSR, CSF3, DDC, Compressed, Format, Tensor


def fig7_tensor():
    rows = np.array([0, 0, 0, 1, 1, 2, 3, 3])
    cols = np.array([0, 1, 3, 1, 3, 0, 0, 3])
    return Tensor.from_coo("B", [rows, cols], np.arange(1.0, 9.0), (4, 4), CSR)


class TestDenseLevelFunctions:
    def test_universe_partition_by_coordinate_bounds(self):
        B = fig7_tensor()
        plan = PartitioningPlan()
        f = level_functions_for(B, 0, plan)
        col = f.init_universe_partition()
        f.create_universe_partition_entry(col, 0, (0, 1))
        f.create_universe_partition_entry(col, 1, (2, 3))
        up, down = f.finalize_universe_partition(col)
        assert up is down  # Table I: same partition both ways for Dense
        assert down[0].indices().tolist() == [0, 1]
        assert "partitionByBounds" in plan.ops()

    def test_nonzero_same_as_universe_for_dense(self):
        B = fig7_tensor()
        plan = PartitioningPlan()
        f = level_functions_for(B, 0, plan)
        col = f.init_nonzero_partition()
        f.create_nonzero_partition_entry(col, 0, (0, 3))
        up, down = f.finalize_nonzero_partition(col)
        assert down[0].volume == 4

    def test_from_parent_scales_by_level_size(self):
        idx = [np.array([0, 1]), np.array([1, 0]), np.array([0, 0])]
        T = Tensor.from_coo("T", idx, np.ones(2), (2, 3, 4), DDC)
        plan = PartitioningPlan()
        f1 = level_functions_for(T, 1, plan)  # dense level of size 3
        parent = Partition(T.levels[0].pos_ispace, {0: RectSubset(Rect(0, 0))})
        got = f1.partition_from_parent(parent)
        assert got[0].indices().tolist() == [0, 1, 2]

    def test_from_child_shrinks(self):
        idx = [np.array([0, 1]), np.array([1, 0]), np.array([0, 0])]
        T = Tensor.from_coo("T", idx, np.ones(2), (2, 3, 4), DDC)
        plan = PartitioningPlan()
        f1 = level_functions_for(T, 1, plan)
        child = Partition(T.levels[1].pos_ispace, {0: RectSubset(Rect(3, 5))})
        parent = f1.partition_from_child(child)
        assert parent[0].indices().tolist() == [1]


class TestCompressedLevelFunctions:
    def test_universe_buckets_by_coordinate_values(self):
        B = fig7_tensor()
        plan = PartitioningPlan()
        f = level_functions_for(B, 1, plan)
        col = f.init_universe_partition()
        f.create_universe_partition_entry(col, 0, (0, 1))  # columns 0-1
        f.create_universe_partition_entry(col, 1, (2, 3))  # columns 2-3
        pos_part, crd_part = f.finalize_universe_partition(col)
        # crd = [0,1,3,1,3,0,0,3]: cols 0-1 at positions 0,1,3,5,6
        assert crd_part[0].indices().tolist() == [0, 1, 3, 5, 6]
        assert crd_part[1].indices().tolist() == [2, 4, 7]
        assert "partitionByValueRanges" in plan.ops()
        assert "preimage" in plan.ops()
        # every row touches both column halves except rows 2 (col 0 only)
        assert pos_part[0].indices().tolist() == [0, 1, 2, 3]
        assert pos_part[1].indices().tolist() == [0, 1, 3]

    def test_nonzero_partitions_positions_directly(self):
        B = fig7_tensor()
        plan = PartitioningPlan()
        f = level_functions_for(B, 1, plan)
        col = f.init_nonzero_partition()
        f.create_nonzero_partition_entry(col, 0, (0, 3))
        f.create_nonzero_partition_entry(col, 1, (4, 7))
        pos_part, crd_part = f.finalize_nonzero_partition(col)
        assert crd_part[0].volume == 4 and crd_part[1].volume == 4
        # row 1 (positions 3,4) straddles -> aliased in pos partition
        assert pos_part[0].indices().tolist() == [0, 1]
        assert pos_part[1].indices().tolist() == [1, 2, 3]
        assert "partitionByBounds" in plan.ops()

    def test_from_parent_emits_copy_then_image(self):
        B = fig7_tensor()
        plan = PartitioningPlan()
        f = level_functions_for(B, 1, plan)
        parent = Partition(
            B.levels[0].pos_ispace,
            {0: RectSubset(Rect(0, 1)), 1: RectSubset(Rect(2, 3))},
        )
        crd_part = f.partition_from_parent(parent)
        assert plan.ops() == ["copy", "image"]
        assert crd_part[0].indices().tolist() == [0, 1, 2, 3, 4]
        assert crd_part[1].indices().tolist() == [5, 6, 7]

    def test_from_child_emits_copy_then_preimage(self):
        B = fig7_tensor()
        plan = PartitioningPlan()
        f = level_functions_for(B, 1, plan)
        child = Partition(
            B.levels[1].pos_ispace,
            {0: RectSubset(Rect(0, 3)), 1: RectSubset(Rect(4, 7))},
        )
        pos_part = f.partition_from_child(child)
        assert plan.ops() == ["copy", "preimage"]
        assert pos_part[0].indices().tolist() == [0, 1]
        assert pos_part[1].indices().tolist() == [1, 2, 3]


class TestPlanIR:
    def test_plan_text_resembles_table1(self):
        B = fig7_tensor()
        bounds = {0: (0, 1), 1: (2, 3)}
        part = partition_tensor(B, 0, "universe", bounds)
        # exercised through partition_tensor: check a full pipeline's ops
        plan = PartitioningPlan()
        part = partition_tensor(B, 0, "universe", bounds, plan)
        text = plan.describe()
        assert "C_B1" in text
        assert "partitionByBounds" in text
        assert "image" in text
        assert plan.ops_for("B")[0] == "init"

    def test_bad_kind_rejected(self):
        B = fig7_tensor()
        with pytest.raises(CompileError):
            partition_tensor(B, 0, "diagonal", {0: (0, 3)})

    def test_bad_level_rejected(self):
        B = fig7_tensor()
        with pytest.raises(CompileError):
            partition_tensor(B, 5, "universe", {0: (0, 3)})


CCC = Format([Compressed] * 3, name="CCC")


@st.composite
def packed_tensors(draw):
    """A small COO input packed as CSR, CSF3, DDC or [C,C,C]: empty, one
    entry, confined to a few rows (the rest all empty), or scattered."""
    fmt = draw(st.sampled_from([CSR, CSF3, DDC, CCC]))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(fmt.order))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    nnz = draw(st.sampled_from([0, 1, 4, 12]))
    rows = draw(st.integers(1, shape[0]))  # entries only in the first rows
    coords = [rng.integers(0, rows if m == 0 else n, nnz)
              for m, n in enumerate(shape)]
    vals = rng.integers(1, 9, nnz).astype(float)
    return Tensor.from_coo("T", coords, vals, shape, fmt)


class TestIterationLevelFunctions:
    """position -> parent, position -> coordinate, parent range -> child
    range, checked against ``Tensor.to_coo`` (an independent top-down walk)."""

    @given(packed_tensors())
    def test_chaining_up_from_the_last_level_reproduces_to_coo(self, T):
        coords, vals = T.to_coo()
        at = np.arange(T.nnz, dtype=np.int64)
        # position -> coordinate / position -> parent, one level at a time
        walked, positions = [], at
        for lvl in reversed(T.levels):
            walked.append(lvl.coord_of(positions))
            positions = lvl.parent_of(positions)
        assert np.array_equal(positions, np.zeros(T.nnz, dtype=np.int64))
        for mode, got in enumerate(walked[::-1]):  # mode-ordered formats
            assert np.array_equal(got, coords[mode])
        assert all(
            np.array_equal(a, b) for a, b in zip(T.coords_of(at), coords)
        )
        assert np.array_equal(T.vals.data[at], vals)

    @given(packed_tensors(), st.integers(1, 9), st.data())
    def test_folding_down_from_a_root_range_selects_its_leaves(
        self, T, pieces, data
    ):
        root = T.levels[0]
        root_coord = T.to_coo()[0][0]
        last = T.order - 1
        # every chunk of an even split (more pieces than rows leaves some
        # empty), plus one arbitrary — possibly inverted — range
        n = root.num_positions
        ranges = [piece_range(n, pieces, c) for c in range(pieces)]
        if n:
            ranges.append((data.draw(st.integers(0, n - 1)),
                           data.draw(st.integers(0, n - 1))))
        for lo, hi in ranges:
            p0, p1 = T.positions_under(lo, hi, last)
            got = np.arange(p0, p1 + 1)
            if hi < lo:
                assert got.size == 0
                continue
            # a dense root's positions are its coordinates; a compressed
            # root stores the (sorted) coordinates of its positions
            at = np.array([lo, hi])
            c_lo, c_hi = root.coord_of(at)
            expected = np.flatnonzero((root_coord >= c_lo) & (root_coord <= c_hi))
            assert np.array_equal(got, expected)
            # and every level in between agrees with its own inverse
            for level in range(1, T.order):
                q0, q1 = T.positions_under(lo, hi, level)
                if q1 >= q0:
                    owners = np.arange(q0, q1 + 1)
                    for lvl in T.levels[level:0:-1]:
                        owners = lvl.parent_of(owners)
                    assert owners.min() >= lo and owners.max() <= hi
