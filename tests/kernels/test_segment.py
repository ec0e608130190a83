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
)
from repro.kernels.segment import check_canonical, packed_indptr, piece_indptr, row_of_range
from repro.legion import make_pos_region
from repro.legion.index_space import IndexSpace
from repro.legion.region import Region
from repro.taco.levels import CompressedLevel, DenseLevel


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


class TestCheckCanonical:
    @pytest.mark.parametrize("crd, what, row", [
        ([0, 3, 4, 2, 5], "descends", 2), ([0, 3, 1, 4, 4], "repeats", 2),
        ([2, 1, 1, 2, 5], "descends", 0),
    ])
    def test_names_the_tensor_and_the_first_offending_row(self, crd, what, row):
        indptr = np.array([0, 2, 2, 5], dtype=np.int64)  # row 1 empty
        with pytest.raises(FormatError, match=rf"'B' is not a canonical compressed "
                                              rf"level: row {row} {what}"):
            check_canonical(indptr, np.array(crd, dtype=np.int64), "'B'")

    def test_a_segment_may_start_below_its_predecessor_s_end(self):
        check_canonical(np.array([0, 2, 2, 5]), np.array([3, 7, 0, 1, 9]), "B")
        check_canonical(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), "B")


class TestRowOfRange:
    """Twin oracle: the range form of position -> parent equals a search
    per position, bit for bit, on raw ``starts`` and through both level
    classes' ``parent_of_range``."""

    @given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=12)
           .flatmap(lambda c: st.sampled_from(["as_drawn", "leading", "trailing",
                                               "all_empty", "heavy"]).map(
               lambda shape: _shaped(c, shape))),
           ends=st.tuples(st.floats(0, 1), st.floats(0, 1)),
           size=st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_equals_a_search_per_position(self, counts, ends, size):
        pos = make_pos_region(np.array(counts, dtype=np.int64))
        nnz = int(sum(counts))
        p0, p1 = (int(f * nnz) for f in ends)  # p1 < p0 or p0 == nnz: an empty range
        p1 = min(p1, nnz - 1)
        starts = pos.data[:, 0]
        want = row_of_positions(starts, np.arange(p0, p1 + 1))
        level = CompressedLevel(pos, Region(IndexSpace(nnz), np.int64, data=np.zeros(nnz, np.int64)))
        for got in (row_of_range(starts, p0, p1), level.parent_of_range(p0, p1)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert level.parent_of(np.arange(p0, p1 + 1)).tobytes() == want.tobytes()
        dense = DenseLevel(size, len(counts) * size)
        q0, q1 = (int(f * dense.num_positions) for f in ends)
        q1 = min(q1, dense.num_positions - 1)
        got = dense.parent_of_range(q0, q1)
        want = dense.parent_of(np.arange(q0, q1 + 1, dtype=np.int64))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_mid_segment_ends_and_the_empty_range(self):
        starts = make_pos_region(np.array([0, 3, 0, 4, 0])).data[:, 0]  # [0, 0, 3, 3, 7]
        assert row_of_range(starts, 1, 5).tolist() == [1, 1, 3, 3, 3]
        assert row_of_range(starts, 4, 3).size == 0
        assert row_of_range(starts, 4, 3).dtype == np.int64


def _shaped(counts, shape):
    """Row lengths with leading / trailing empty rows, every row empty, or
    one heavy row among short ones."""
    if shape == "leading":
        return [0, 0] + counts
    if shape == "trailing":
        return counts + [0, 0]
    if shape == "all_empty":
        return [0] * len(counts)
    if shape == "heavy":
        return counts[:1] + [40] + counts[1:]
    return counts


class TestSparsetoolsPin:
    """What ``repro.kernels.segment`` and the bind functions rely on in
    ``scipy.sparse._sparsetools`` — private surface, so pinned here: a
    SciPy that changes any of it fails these, not a leaf's values."""

    # rows {0: a0 x0 + a1 x2, 1: (empty), 2: a2 x1}
    indptr = np.array([0, 2, 2, 3], dtype=np.int64)
    crd = np.array([0, 2, 1], dtype=np.int64)
    vals = np.array([2.0, 3.0, 5.0])

    def test_every_symbol_imports_from_the_checked_site(self):
        from scipy.sparse import _sparsetools

        from repro.kernels import segment, spadd

        assert segment.csr_matvec is _sparsetools.csr_matvec
        assert segment.csr_matvecs is _sparsetools.csr_matvecs
        assert segment.csr_plus_csr is _sparsetools.csr_plus_csr
        assert segment.csr_has_canonical_format is _sparsetools.csr_has_canonical_format
        assert spadd.csr_plus_csr is _sparsetools.csr_plus_csr

    def test_csr_plus_csr_merges_canonical_rows_into_the_sorted_union(self):
        """(n_row, n_col, Ap, Aj, Ax, Bp, Bj, Bx, Cp, Cj, Cx): one linear
        merge into preallocated outputs; the union comes out sorted per
        row, shared entries add their data (the tags 1 + 2 = 3 SpAdd
        reads), and an entry whose sum is 0 is dropped — why SpAdd's
        tags are never 0."""
        from repro.kernels.segment import csr_plus_csr

        # a: rows {0: [0, 5], 1: [1]}; b: rows {0: [5], 1: [0, 1]}
        ap, aj = np.array([0, 2, 3]), np.array([0, 5, 1])
        bp, bj = np.array([0, 1, 3]), np.array([5, 0, 1])
        cp, cj, cx = np.empty(3, np.int64), np.empty(6, np.int64), np.empty(6, np.int8)
        csr_plus_csr(2, 2**32, ap, aj, np.ones(3, np.int8), bp, bj,
                     np.full(3, 2, np.int8), cp, cj, cx)
        assert cp.tolist() == [0, 2, 4]
        assert cj[:4].tolist() == [0, 5, 0, 1] and cx[:4].tolist() == [1, 3, 2, 3]
        # data summing to 0 drops the entry from the union
        csr_plus_csr(2, 8, ap, aj, np.ones(3, np.int8), bp, bj,
                     np.array([-1, 2, 2], np.int8), cp, cj, cx)
        assert cp.tolist() == [0, 1, 3] and cj[:3].tolist() == [0, 0, 1]

    @pytest.mark.parametrize("indptr, crd", [
        ([0, 2, 3], [5, 0, 1]),   # a descending coordinate in row 0
        ([0, 1, 3], [4, 2, 2]),   # a repeated coordinate in row 1
        ([0, 2, 1], [0, 1, 2]),   # a decreasing indptr
    ], ids=["descending", "repeated", "indptr-decreasing"])
    def test_csr_has_canonical_format_refuses(self, indptr, crd):
        from repro.kernels.segment import csr_has_canonical_format

        ip, c = np.array(indptr, np.int64), np.array(crd, np.int64)
        assert not csr_has_canonical_format(2, ip, c)
        assert csr_has_canonical_format(2, np.array([0, 2, 3]), np.array([0, 5, 1]))

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


class TestVirtualSegments:
    """One call over every non-zero piece of a launch (``_Span``): each
    piece's own segments, concatenated in piece order, reduced once and
    added into the output piece by piece."""

    # rows 0: [0, 3), 1: empty, 2: [3, 7), 3: [7, 8)
    indptr = np.array([0, 3, 3, 7, 8], dtype=np.int64)

    def test_a_cut_segment_is_one_virtual_segment_per_piece(self):
        from repro.kernels.segment import _Span

        out = np.arange(4.0)
        span = _Span(self.indptr, np.array([[0, 1], [2, 4], [5, 5], [6, 7]]), True, out)
        # rows 0 | 0, 1, 2 | 2 | 2, 3
        assert span.ip.tolist() == [0, 2, 3, 3, 5, 6, 7, 8]
        assert [(r.tolist(), p) for r, p in span.runs] == [
            ([0.0], slice(0, 1)), ([0.0, 1.0, 2.0], slice(1, 4)),
            ([2.0], slice(4, 5)), ([2.0, 3.0], slice(5, 7))]

    def test_an_empty_row_between_pieces_is_no_segment(self):
        """A piece ending where a row ends and the next starting after an
        empty row: neither touches the empty row, so neither call does."""
        from repro.kernels.segment import _Span

        out = np.full(4, 7.0)
        span = _Span(self.indptr, np.array([[0, 2], [3, 7]]), True, out)
        assert span.ip.tolist() == [0, 3, 7, 8]
        span.deliver(np.array([1.0, 2.0, 3.0]))
        assert out.tolist() == [8.0, 7.0, 9.0, 10.0]

    def test_pieces_that_share_no_row_still_add_apart(self):
        """Ten one-non-zero rows a piece, over an output of -NaN: each
        piece's additions are one call of their own, as its own thunk's
        are.  (A NaN plus a NaN takes the sign of either operand by where
        it falls in NumPy's loop, so one call over all twenty rows would
        write other bytes.)"""
        from repro.kernels.segment import _bounds, _Span

        indptr = np.arange(21, dtype=np.int64)
        crd, vals, X = np.zeros(20, dtype=np.int64), np.full(20, np.nan), np.ones((1, 1))
        written = []
        for calls in ([np.array([[0, 9], [10, 19]])], [_bounds(0, 9), _bounds(10, 19)]):
            out = np.full((20, 1), -np.nan)
            for bounds in calls:
                _Span(indptr, bounds, True, out).reduce(crd, vals, X)
            written.append(out.tobytes())
        assert written[0] == written[1]

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6),
           st.lists(st.integers(0, 5), min_size=1, max_size=8),
           st.integers(1, 3), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_one_call_adds_what_the_pieces_add_bitwise(self, counts, sizes, k, seed):
        """Pieces of ``sizes`` positions (empty ones included) over rows of
        ``counts`` non-zeros, values NaN / ±inf / -0.0 among them, into
        an output holding NaN and -0.0: the one call writes the bytes the
        pieces' own calls, in piece order, write."""
        from repro.kernels.segment import _bounds, _Span

        rng = np.random.default_rng(seed)
        indptr = np.r_[0, np.cumsum(counts)].astype(np.int64)
        nnz = int(indptr[-1])
        ends = np.minimum(np.cumsum(sizes), nnz)
        starts = np.r_[0, ends[:-1]]
        if ends[-1] < nnz:
            starts, ends = np.r_[starts, ends[-1]], np.r_[ends, nnz]
        special = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0]
        hostile = lambda *shape: np.where(rng.random(shape) < 0.3,
                                          rng.choice(special, shape), rng.standard_normal(shape))
        crd, vals, X = rng.integers(0, 3, nnz), hostile(nnz), hostile(3, k)
        start = hostile(len(counts), k)
        live = [(a, b - 1) for a, b in zip(starts.tolist(), ends.tolist()) if a < b]
        written = []
        with np.errstate(all="ignore"):
            for calls in ([np.array(live, dtype=np.int64).reshape(-1, 2)],
                          [_bounds(a, b) for a, b in live]):
                out = start.copy()
                for bounds in calls:
                    if len(bounds):
                        _Span(indptr, bounds, True, out).reduce(crd, vals, X)
                written.append(out)
        assert written[0].tobytes() == written[1].tobytes()
