"""Level function tests (:mod:`repro.taco.levels`): Table I's format
abstractions for partitioning, run at a :mod:`repro.core.levels` site, and
the three iteration level functions every leaf is resolved through — by
example, and generated against ``Tensor.to_coo()``."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PartitioningPlan, level_functions_for, partition_tensor
from repro.errors import CompileError
from repro.kernels import piece_range
from repro.legion import Partition, Privilege, Rect, RectSubset
from repro.taco import CSC, CSR, CSF3, DDC, Compressed, Dense, Format, Tensor


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
CDC = Format([Compressed, Dense, Compressed], name="CDC")


@st.composite
def packed_tensors(draw):
    """A small COO input packed as CSR, CSC, CSF3, DDC, [C,C,C] or [C,D,C]:
    empty, one entry, confined to a few root coordinates (the rest all
    empty), or scattered."""
    fmt = draw(st.sampled_from([CSR, CSC, CSF3, DDC, CCC, CDC]))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(fmt.order))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    nnz = draw(st.sampled_from([0, 1, 4, 12]))
    root = fmt.mode_ordering[0]
    rows = draw(st.integers(1, shape[root]))  # entries only in the first rows
    coords = [rng.integers(0, rows if m == root else n, nnz)
              for m, n in enumerate(shape)]
    vals = rng.integers(1, 9, nnz).astype(float)
    return Tensor.from_coo("T", coords, vals, shape, fmt)


def stored_coo(T):
    """``T.to_coo()`` with the coordinates in storage-level order."""
    coords, vals = T.to_coo()
    return [coords[m] for m in T.format.mode_ordering], vals


class TestIterationLevelFunctions:
    """position -> parent, position -> coordinate, parent range -> child
    range, checked against ``Tensor.to_coo`` (an independent top-down walk)."""

    @given(packed_tensors())
    def test_chaining_up_from_the_last_level_reproduces_to_coo(self, T):
        coords, vals = stored_coo(T)
        at = np.arange(T.nnz, dtype=np.int64)
        # position -> coordinate / position -> parent, one level at a time
        walked, positions = [], at
        for lvl in reversed(T.levels):
            walked.append(lvl.coord_of(positions))
            positions = lvl.parent_of(positions)
        assert np.array_equal(positions, np.zeros(T.nnz, dtype=np.int64))
        for level, got in enumerate(walked[::-1]):
            assert np.array_equal(got, coords[level])
        assert all(
            np.array_equal(a, b) for a, b in zip(T.coords_of(at), coords)
        )
        assert np.array_equal(T.vals.data[at], vals)

    @given(packed_tensors(), st.integers(1, 9), st.data())
    def test_folding_down_from_a_root_range_selects_its_leaves(
        self, T, pieces, data
    ):
        root = T.levels[0]
        root_coord = stored_coo(T)[0][0]
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


def coordinate_tree(T):
    """The coordinate tree of ``T`` from ``to_coo()`` alone: per level the
    coordinate and the parent position of every position.  A dense level
    has ``parents * size`` positions (``parent * size + coord``, stored or
    not); a compressed one has one per distinct ``(parent, coord)`` prefix
    of the stored entries, ranked in storage order."""
    stored, _ = stored_coo(T)
    coord, parent = [], []
    at, count = np.zeros(stored[0].size, dtype=np.int64), 1  # the entries' parents
    for lf, size, c in zip(T.format.levels, T.stored_shape(), stored):
        key = at * size + c
        if lf.is_dense:
            at, count = key, count * size
            coord.append(np.arange(count) % size)
            parent.append(np.arange(count) // size)
        else:
            prefixes, rank = np.unique(key, return_inverse=True)
            coord.append(prefixes % size)
            parent.append(prefixes // size)
            at, count = rank, prefixes.size
    return coord, parent


def brute_force_colours(coord, parent, level, kind, bounds):
    """``{colour: [mask over the positions of level l, ...]}``: the initial
    level takes the colours of its bounds (over coordinates or positions),
    children inherit their parent's, parents take the union of their
    children's — empty dense slots are nodes like any other."""
    at = coord[level] if kind == "universe" else np.arange(coord[level].size)
    out = {}
    for c, (lo, hi) in bounds.items():
        masks = [None] * len(coord)
        masks[level] = (at >= lo) & (at <= hi)
        for l in range(level + 1, len(coord)):
            masks[l] = masks[l - 1][parent[l]]
        for l in range(level, 0, -1):
            masks[l - 1] = np.zeros(coord[l - 1].size, dtype=bool)
            masks[l - 1][parent[l][masks[l]]] = True
        out[c] = masks
    return out


def partition_disagreements(T):
    """Every way ``partition_tensor(T, ...)`` differs from the brute force,
    over every initial level x {universe, nonzero} x pieces in {1, 3, more
    than there are positions}."""
    coord, parent = coordinate_tree(T)
    sizes = T.stored_shape()
    found = []
    for level, lf in enumerate(T.format.levels):
        legal = lf.is_compressed or level == 0 or coord[level - 1].size == 1
        for kind in ("universe", "nonzero"):
            extent = sizes[level] if kind == "universe" else coord[level].size
            for pieces in (1, 3, coord[level].size + 2):
                where = f"{T.format.name}{T.shape} level {level} {kind} / {pieces}"
                bounds = {c: piece_range(extent, pieces, c) for c in range(pieces)}
                if not legal:
                    with pytest.raises(CompileError):
                        partition_tensor(T, level, kind, bounds)
                    continue
                part = partition_tensor(T, level, kind, bounds)
                expected = brute_force_colours(coord, parent, level, kind, bounds)
                for c, masks in expected.items():
                    for l, mask in enumerate(masks):
                        got = part.level_positions[l][c].indices()
                        if got.tolist() != np.flatnonzero(mask).tolist():
                            found.append(f"{where}: positions[{l}][{c}] = {got}")
                        if T.format.levels[l].is_dense:
                            continue
                        above = masks[l - 1] if l else np.array([mask.any()])
                        got = part.level_pos_parts[l][c].indices()
                        if got.tolist() != np.flatnonzero(above).tolist():
                            found.append(f"{where}: pos_parts[{l}][{c}] = {got}")
                    if part.vals_part[c] != part.level_positions[-1][c]:
                        found.append(f"{where}: vals_part[{c}]")
                    for req in part.region_reqs(Privilege.READ_ONLY):
                        idx = req.subset_for(c).indices()
                        if idx.size and not 0 <= idx[0] <= idx[-1] < req.region.ispace.volume:
                            found.append(f"{where}: {req.region.name}[{c}] needs {idx} "
                                         f"of {req.region.ispace.volume}")
    return found


class TestPartitionOracle:
    """``partition_tensor`` against the coordinate tree (paper §IV-A),
    generated: format x initial level x kind x pieces."""

    @given(packed_tensors())
    def test_partitions_match_the_coordinate_tree(self, T):
        assert partition_disagreements(T) == []

    @pytest.mark.parametrize("fmt, shape", [(CDC, (6, 3, 5)), (DDC, (1, 3, 5))])
    def test_non_root_dense_level_hands_its_parents_partition_up(self, fmt, shape):
        """A universe partition of a Dense level under a single parent
        position: every colour's slot lies under that one position."""
        T = Tensor.from_coo("T", [[0, 0], [1, 2], [0, 0]], [1.0, 1.0], shape, fmt)
        part = partition_tensor(T, 1, "universe", {0: (0, 0), 1: (1, 1), 2: (2, 2)})
        for c in range(3):
            assert part.level_positions[0][c].indices().tolist() == [0]
            assert part.level_positions[1][c].indices().tolist() == [c]
        assert partition_disagreements(T) == []  # region_reqs inside their regions


class TestPlanTextSnapshot:
    """The emitted plan (Fig. 9b) as literal text, per format x initial
    level x kind."""

    def plan_text(self, T, level, kind, bounds):
        plan = PartitioningPlan()
        partition_tensor(T, level, kind, bounds, plan)
        return plan.describe().split("\n")

    def test_csr_universe_at_the_root(self):
        assert self.plan_text(fig7_tensor(), 0, "universe", {0: (0, 1), 1: (2, 3)}) == [
            "C_B1 = {}",
            "C_B1[0] = (0, 1)",
            "C_B1[1] = (2, 3)",
            "B1Part = partitionByBounds(C_B1, B1.dom)",
            "P_B2_pos = copy(parentPart)",
            "P_B2_crd = image(B[1].pos, P_B2_pos, crd)",
        ]

    def test_csr_nonzero_at_the_leaves(self):
        assert self.plan_text(fig7_tensor(), 1, "nonzero", {0: (0, 3), 1: (4, 7)}) == [
            "C_B2_crd = {}",
            "C_B2_crd[0] = (0, 3)  // position bounds",
            "C_B2_crd[1] = (4, 7)  // position bounds",
            "P_B2_crd = partitionByBounds(C_B2_crd, B[1].crd)",
            "P_B2_pos = preimage(B[1].pos, P_B2_crd, crd)",
            "B1ParentPart = copy(childPart)",
        ]

    def test_csf3_nonzero_at_the_leaves(self):
        idx = [np.array([0, 0, 1, 2]), np.array([0, 1, 0, 2]), np.array([0, 2, 1, 3])]
        T = Tensor.from_coo("T", idx, np.ones(4), (3, 3, 4), CSF3)
        assert self.plan_text(T, 2, "nonzero", {0: (0, 1), 1: (2, 3)}) == [
            "C_T3_crd = {}",
            "C_T3_crd[0] = (0, 1)  // position bounds",
            "C_T3_crd[1] = (2, 3)  // position bounds",
            "P_T3_crd = partitionByBounds(C_T3_crd, T[2].crd)",
            "P_T3_pos = preimage(T[2].pos, P_T3_crd, crd)",
            "P_T2_crd = copy(childPart)",
            "P_T2_pos = preimage(T[1].pos, P_T2_crd, crd)",
            "T1ParentPart = copy(childPart)",
        ]

    def test_ddc_nonzero_upward_through_the_dense_level(self):
        idx = [np.array([0, 1]), np.array([1, 0]), np.array([0, 0])]
        T = Tensor.from_coo("T", idx, np.ones(2), (2, 3, 4), DDC)
        assert self.plan_text(T, 2, "nonzero", {0: (0, 0), 1: (1, 1)}) == [
            "C_T3_crd = {}",
            "C_T3_crd[0] = (0, 0)  // position bounds",
            "C_T3_crd[1] = (1, 1)  // position bounds",
            "P_T3_crd = partitionByBounds(C_T3_crd, T[2].crd)",
            "P_T3_pos = preimage(T[2].pos, P_T3_crd, crd)",
            "T2ParentPart = copy(childPart)",
            "T1ParentPart = copy(childPart)",
        ]
