"""Segment primitive tests, and the pin on the private SciPy surface the
primitive is built on."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.kernels import (
    check_packed,
    piece_range,
    row_of_positions,
    segment_dot,
    segment_matmul,
    segment_sum_matrix,
)
from repro.kernels.segment import packed_indptr, piece_indptr
from repro.legion import make_pos_region


class TestPieceRange:
    def test_even(self):
        assert [piece_range(8, 4, c) for c in range(4)] == [
            (0, 1), (2, 3), (4, 5), (6, 7)
        ]

    def test_uneven_trailing_empty(self):
        assert piece_range(4, 3, 2) == (4, 3)  # empty trailing piece

    def test_zero_extent(self):
        assert piece_range(0, 4, 0) == (0, -1)

    def test_union_covers_everything(self):
        for n, p in [(10, 3), (7, 7), (5, 8), (100, 16)]:
            got = set()
            for c in range(p):
                lo, hi = piece_range(n, p, c)
                got.update(range(lo, hi + 1))
            assert got == set(range(n))


class TestRowOfPositions:
    def test_basic(self):
        starts = np.array([0, 3, 5, 6])
        assert row_of_positions(starts, np.array([0, 2, 3, 4, 5, 6, 7])).tolist() == [
            0, 0, 1, 1, 2, 3, 3
        ]

    def test_empty_rows_skipped(self):
        # row 1 empty: starts [0, 2, 2, 5]
        starts = np.array([0, 2, 2, 5])
        got = row_of_positions(starts, np.array([1, 2, 4]))
        assert got.tolist() == [0, 2, 2]


class TestSparsetoolsPin:
    """What ``repro.kernels.segment`` and the bind functions rely on in
    ``scipy.sparse._sparsetools`` — private surface, so pinned here: a
    SciPy that changes any of it fails these, not a leaf's values."""

    # rows {0: a0 x0 + a1 x2, 1: (empty), 2: a2 x1}
    indptr = np.array([0, 2, 2, 3], dtype=np.int64)
    crd = np.array([0, 2, 1], dtype=np.int64)
    vals = np.array([2.0, 3.0, 5.0])

    def test_both_symbols_import_from_the_checked_site(self):
        from scipy.sparse import _sparsetools

        from repro.kernels import segment

        assert segment.csr_matvec is _sparsetools.csr_matvec
        assert segment.csr_matvecs is _sparsetools.csr_matvecs

    def test_csr_matvec_argument_order_and_accumulation(self):
        from repro.kernels.segment import csr_matvec

        x = np.array([1.0, 10.0, 100.0])
        y = np.array([1.0, 1.0, 1.0])
        # (n_row, n_col, Ap, Aj, Ax, Xx, Yx): adds into Yx, does not zero it
        csr_matvec(3, 3, self.indptr, self.crd, self.vals, x, y)
        assert y.tolist() == [303.0, 1.0, 51.0]

    def test_csr_matvecs_argument_order_flat_row_major(self):
        from repro.kernels.segment import csr_matvecs

        X = np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]])
        Y = np.ones((3, 2))
        # (n_row, n_col, n_vecs, Ap, Aj, Ax, Xx, Yx), Xx / Yx flat row-major
        csr_matvecs(3, 3, 2, self.indptr, self.crd, self.vals,
                    X.reshape(-1), Y.reshape(-1))
        assert Y.tolist() == [[303.0, 605.0], [1.0, 1.0], [51.0, 101.0]]

    def test_absolute_offsets_into_unsliced_arrays(self):
        """A row-range view of ``indptr`` keeps absolute positions: the
        whole ``crd`` / ``vals`` are handed over, nothing is re-based."""
        from repro.kernels.segment import csr_matvec

        x = np.array([1.0, 10.0, 100.0])
        y = np.zeros(2)
        csr_matvec(2, 3, self.indptr[1:], self.crd, self.vals, x, y)
        assert y.tolist() == [0.0, 50.0]

    def test_matching_dtypes_are_taken_without_a_copy(self):
        """int64 ``Ap`` view + int64 ``Aj`` + float64 data and output:
        nothing the size of an operand is allocated during the call, and
        the output view is written in place.  (An ``int32`` ``Aj`` is
        accepted too, through a cast of the whole array per call — the
        cost the repo's call sites avoid by passing matching dtypes.)"""
        import tracemalloc

        from repro.kernels.segment import csr_matvec, csr_matvecs

        n = 200_000
        indptr = np.arange(0, n + 1, 2, dtype=np.int64)
        crd, vals = np.zeros(n, dtype=np.int64), np.ones(n)
        big = np.zeros(n)
        y, Y = big[1000 : 1000 + n // 4], np.zeros((n // 4, 2))
        tracemalloc.start()
        try:
            csr_matvec(n // 4, 1, indptr[n // 4 :], crd, vals, np.ones(1), y)
            csr_matvecs(n // 4, 1, 2, indptr[n // 4 :], crd, vals, np.ones(2),
                        Y.reshape(-1))
            matching = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            csr_matvec(n // 4, 1, indptr[n // 4 :], crd.astype(np.int32), vals,
                       np.ones(1), y)
            cast = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matching < 64 * 1024 < crd.nbytes <= cast
        assert big[1000 : 1000 + n // 4].tolist() == [4.0] * (n // 4)
        assert not big[:1000].any() and not big[1000 + n // 4 :].any()
        assert Y.tolist() == [[2.0, 2.0]] * (n // 4)

    def test_float32_or_readonly_output_is_refused(self):
        from repro.kernels.segment import csr_matvec

        args = (3, 3, self.indptr, self.crd, self.vals, np.ones(3))
        with pytest.raises(ValueError):
            csr_matvec(*args, np.zeros(3, dtype=np.float32))
        frozen = np.zeros(3)
        frozen.setflags(write=False)
        with pytest.raises(ValueError):
            csr_matvec(*args, frozen)


def _loop_dot(indptr, crd, vals, x):
    out = np.zeros(indptr.size - 1)
    for s in range(out.size):
        acc = 0.0
        for p in range(indptr[s], indptr[s + 1]):
            acc += vals[p] * x[crd[p]]
        out[s] = acc
    return out


class TestSegmentReduce:
    indptr = np.array([1, 3, 3, 6], dtype=np.int64)  # absolute: skips vals[0]
    crd = np.array([9, 0, 2, 1, 1, 0], dtype=np.int64)
    vals = np.array([99.0, 2.0, 3.0, 5.0, 7.0, 11.0])

    def test_dot_and_matmul_start_every_segment_from_zero(self):
        x = np.array([1.0, 10.0, 100.0])
        got = segment_dot(self.indptr, self.crd, self.vals, x)
        assert got.tolist() == [302.0, 0.0, 131.0]
        X = np.stack([x, 2 * x], axis=1)
        assert segment_matmul(self.indptr, self.crd, self.vals, X).tolist() == [
            [302.0, 604.0], [0.0, 0.0], [131.0, 262.0],
        ]

    def test_matmul_takes_a_column_window(self):
        """A non-contiguous operand (the ``grid`` column window of C) is
        flattened by the call, not mis-strided."""
        wide = np.arange(12.0).reshape(3, 4)
        got = segment_matmul(self.indptr, self.crd, self.vals, wide[:, 1:3])
        want = segment_matmul(
            self.indptr, self.crd, self.vals, np.ascontiguousarray(wide[:, 1:3]))
        assert got.tobytes() == want.tobytes()

    @given(st.integers(0, 6), st.integers(0, 30), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_matches_left_to_right_loop_bitwise(self, nseg, nnz, k):
        rng = np.random.default_rng(nseg * 1000 + nnz * 10 + k)
        cuts = np.sort(rng.integers(0, nnz + 1, max(nseg - 1, 0)))
        indptr = np.concatenate([[0], cuts, [nnz]]).astype(np.int64)[: nseg + 1]
        crd = rng.integers(0, 5, nnz)
        vals = rng.standard_normal(nnz)
        X = rng.standard_normal((5, k))
        got = segment_matmul(indptr, crd, vals, X)
        for col in range(k):
            expected = _loop_dot(indptr, crd, vals, X[:, col])
            assert got[:, col].tobytes() == expected.tobytes()
            assert (segment_dot(indptr, crd, vals, np.ascontiguousarray(X[:, col])).tobytes()
                    == expected.tobytes())


class TestSegmentSums:
    def test_segment_sum_matrix(self):
        vals = np.arange(8.0).reshape(4, 2)
        got = segment_sum_matrix(vals, np.array([0, 0, 2, 2]), 3)
        assert got.tolist() == [[2.0, 4.0], [0.0, 0.0], [10.0, 12.0]]

    @given(st.integers(1, 6), st.integers(0, 40), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_matrix_matches_loop(self, nseg, n, k):
        rng = np.random.default_rng(0)
        vals = rng.random((n, k))
        ids = np.sort(rng.integers(0, nseg, n))
        expected = np.zeros((nseg, k))
        for t in range(n):
            expected[ids[t]] += vals[t]
        assert segment_sum_matrix(vals, ids, nseg).tobytes() == expected.tobytes()


class TestPackedIndptr:
    def test_counts_region_is_packed(self):
        pos = make_pos_region(np.array([2, 0, 3, 0])).data
        assert packed_indptr(pos).tolist() == [0, 2, 2, 5, 5]
        assert packed_indptr(pos[1:3]).tolist() == [2, 2, 5]  # absolute

    @pytest.mark.parametrize("counts", [[], [0], [0, 0, 0], [0, 2, 0], [3]])
    def test_degenerate_shapes(self, counts):
        pos = make_pos_region(np.array(counts, dtype=np.int64)).data
        indptr = packed_indptr(pos)
        assert indptr.dtype == np.int64 and indptr.flags.c_contiguous
        assert np.diff(indptr).tolist() == counts
        check_packed(pos)

    def test_gap_between_entries_names_the_region(self):
        pos = make_pos_region(np.array([[0, 1], [3, 4]]), name="B_pos1").data
        with pytest.raises(FormatError, match=r"'B_pos1'.*entry 0 ends at "
                                              r"position 1 but entry 1 starts at 3"):
            check_packed(pos, "B_pos1")

    def test_overlap_is_refused_too(self):
        with pytest.raises(FormatError, match="not a packed level"):
            check_packed(np.array([[0, 2], [2, 3]]))

    @pytest.mark.parametrize("pos, k", [
        ([[5, 3], [4, 10]], 0),          # ends where the next starts, length -1
        ([[0, 1], [2, 4], [5, 2]], 2),   # the last entry steps back
        ([[7, 2]], 0),
    ])
    def test_negative_length_is_refused(self, pos, k):
        """Each entry ends one before its successor starts, yet one has
        negative length: a leaf would read a falling ``indptr``, and the
        telescoped count ``hi[r1] - lo[r0] + 1`` would be wrong."""
        with pytest.raises(FormatError, match=rf"'B_pos1' is not a packed level: "
                                              rf"entry {k} has negative length"):
            check_packed(np.array(pos), "B_pos1")

    @pytest.mark.parametrize("counts", [[0], [3], [0, 2, 0, 0, 5, 0]])
    def test_packed_counts_telescope(self, counts):
        """What the Work models rely on: over any run of a packed level the
        lengths sum to its last end minus its first start, plus one."""
        pos = make_pos_region(np.array(counts, dtype=np.int64)).data
        check_packed(pos)
        for r0 in range(len(counts)):
            for r1 in range(r0, len(counts)):
                assert pos[r1, 1] - pos[r0, 0] + 1 == sum(counts[r0 : r1 + 1])

    def test_piece_indptr_clips_first_and_last_segment(self):
        pos = make_pos_region(np.array([3, 0, 4, 2])).data  # [0,3,3,7,9]
        assert piece_indptr(pos, 1, 7)[0] == 0
        assert piece_indptr(pos, 1, 7)[1].tolist() == [1, 3, 3, 7, 8]
        r0, indptr = piece_indptr(pos, 4, 5)  # inside one heavy segment
        assert (r0, indptr.tolist()) == (2, [4, 6])
