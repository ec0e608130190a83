"""Coordinate-tree partitioning tests against Fig. 9c/9d."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    dense_partition,
    partition_tensor,
    replicated_partition,
)
from repro.errors import CompileError
from repro.legion import Privilege
from repro.taco import CSF3, CSR, DDC, Tensor


def fig7_tensor():
    rows = np.array([0, 0, 0, 1, 1, 2, 3, 3])
    cols = np.array([0, 1, 3, 1, 3, 0, 0, 3])
    return Tensor.from_coo("B", [rows, cols], np.arange(1.0, 9.0), (4, 4), CSR)


class TestFig9Universe:
    def test_row_partition_fig9c(self):
        """Initial universe partition of rows, derived pos/crd/vals (Fig. 9c)."""
        B = fig7_tensor()
        part = partition_tensor(B, 0, "universe", {0: (0, 1), 1: (2, 3)})
        # dense row partition
        assert part.level_positions[0][0].indices().tolist() == [0, 1]
        # pos copied from parent
        assert part.level_pos_parts[1][0].indices().tolist() == [0, 1]
        # crd via image: rows 0-1 own positions 0..4
        assert part.level_positions[1][0].indices().tolist() == [0, 1, 2, 3, 4]
        assert part.level_positions[1][1].indices().tolist() == [5, 6, 7]
        # vals copied from crd partition
        assert part.vals_part[0].volume == 5
        assert not part.is_output_aliased()

    def test_universe_on_empty_rows(self):
        B = Tensor.zeros("B", (4, 4), CSR)
        part = partition_tensor(B, 0, "universe", {0: (0, 1), 1: (2, 3)})
        assert part.vals_part[0].empty and part.vals_part[1].empty

    def test_top_level_bounds_dense_root(self):
        B = fig7_tensor()
        part = partition_tensor(B, 0, "universe", {0: (0, 1), 1: (2, 3)})
        assert dict(part.top_level_bounds().items()) == {0: (0, 1), 1: (2, 3)}


class TestFig9NonZero:
    def test_nonzero_partition_fig9d(self):
        """Initial non-zero partition of crd, derived pos by preimage (Fig. 9d)."""
        B = fig7_tensor()
        part = partition_tensor(B, 1, "nonzero", {0: (0, 3), 1: (4, 7)})
        assert part.level_positions[1][0].indices().tolist() == [0, 1, 2, 3]
        # preimage: row 1 appears in both colors (aliased)
        assert part.level_positions[0][0].indices().tolist() == [0, 1]
        assert part.level_positions[0][1].indices().tolist() == [1, 2, 3]
        assert part.is_output_aliased() is False  # vals split is disjoint
        assert not part.level_positions[0].is_disjoint()

    def test_top_level_bounds_from_aliased_rows(self):
        B = fig7_tensor()
        part = partition_tensor(B, 1, "nonzero", {0: (0, 3), 1: (4, 7)})
        assert dict(part.top_level_bounds().items()) == {0: (0, 1), 1: (1, 3)}

    def test_csf3_nonzero_leaf_split(self):
        idx = [np.array([0, 0, 1, 2]), np.array([0, 1, 0, 1]), np.array([1, 2, 0, 3])]
        T = Tensor.from_coo("T", idx, np.ones(4), (3, 2, 4), CSF3)
        part = partition_tensor(T, 2, "nonzero", {0: (0, 1), 1: (2, 3)})
        assert part.vals_part[0].volume == 2
        # fibers and slices derived upward
        assert part.level_positions[1][0].volume == 2
        assert part.level_positions[0][0].volume == 1

    def test_ddc_nonzero_upward_through_dense(self):
        idx = [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.array([1, 2, 0, 3])]
        T = Tensor.from_coo("T", idx, np.ones(4), (2, 2, 4), DDC)
        part = partition_tensor(T, 2, "nonzero", {0: (0, 1), 1: (2, 3)})
        # leaf positions 0,1 belong to dense fibers 0,1 -> slice 0
        assert part.level_positions[0][0].indices().tolist() == [0]
        assert part.level_positions[0][1].indices().tolist() == [1]


class TestHelpers:
    def test_region_reqs_metadata_read_only(self):
        B = fig7_tensor()
        part = partition_tensor(B, 0, "universe", {0: (0, 1), 1: (2, 3)})
        reqs = part.region_reqs(Privilege.WRITE_DISCARD)
        names = [r.region.name for r in reqs]
        assert names == ["B.pos1", "B.crd1", "B.vals"]
        assert reqs[0].privilege == Privilege.READ_ONLY
        assert reqs[2].privilege == Privilege.WRITE_DISCARD

    def test_replicated_partition(self):
        B = fig7_tensor()
        part = replicated_partition(B, [0, 1, 2])
        assert part.replicated
        assert part.vals_subset(1).volume == B.nnz
        reqs = part.region_reqs(Privilege.READ_ONLY)
        assert all(r.partition is None for r in reqs)

    def test_nbytes_for(self):
        B = fig7_tensor()
        part = partition_tensor(B, 0, "universe", {0: (0, 1), 1: (2, 3)})
        total = part.nbytes_for(0) + part.nbytes_for(1)
        # pos rects 4*16 + crd 8*8 + vals 8*8 = 192 total
        assert total == 192

    def test_dense_tensor_partition(self):
        D = Tensor.from_dense("D", np.arange(24.0).reshape(4, 6))
        part = dense_partition(D, [0, 1], {0: (np.array([0, 2]), np.array([1, 3]))})
        assert part.vals_part[0].volume == 12
        assert part.vals_part.is_disjoint()

    def test_dense_tensor_requires_dense(self):
        B = fig7_tensor()
        with pytest.raises(CompileError):
            dense_partition(B, [0], {0: (np.array([0]), np.array([1]))})

    def test_sparse_requires_partition_tensor(self):
        D = Tensor.from_dense("D", np.arange(4.0))
        with pytest.raises(CompileError):
            partition_tensor(D, 0, "universe", {0: (0, 3)})


@st.composite
def random_csr(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(2, 12))
    nnz = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, m, nnz)
    return Tensor.from_coo("B", [rows, cols], rng.random(nnz) + 0.5, (n, m), CSR)


class TestPartitionInvariants:
    @given(random_csr(), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_universe_vals_complete_and_disjoint(self, B, pieces):
        from repro.kernels import piece_range

        bounds = {c: piece_range(B.shape[0], pieces, c) for c in range(pieces)}
        part = partition_tensor(B, 0, "universe", bounds)
        total = sum(part.vals_part[c].volume for c in range(pieces))
        assert total == B.nnz
        assert part.vals_part.is_disjoint()

    @given(random_csr(), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_nonzero_vals_complete_and_disjoint(self, B, pieces):
        from repro.kernels import piece_range

        bounds = {c: piece_range(B.nnz, pieces, c) for c in range(pieces)}
        part = partition_tensor(B, 1, "nonzero", bounds)
        total = sum(part.vals_part[c].volume for c in range(pieces))
        assert total == B.nnz
        assert part.vals_part.is_disjoint()

    @given(random_csr(), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_nonzero_rows_cover_all_nonempty_rows(self, B, pieces):
        from repro.kernels import piece_range

        bounds = {c: piece_range(B.nnz, pieces, c) for c in range(pieces)}
        part = partition_tensor(B, 1, "nonzero", bounds)
        pos = B.levels[1].pos.data
        covered = set()
        for c in range(pieces):
            covered.update(part.level_positions[0][c].indices().tolist())
        nonempty = {r for r in range(B.shape[0]) if pos[r, 1] >= pos[r, 0]}
        assert nonempty <= covered
