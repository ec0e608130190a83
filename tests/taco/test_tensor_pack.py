"""Tensor packing tests: the SpDISTAL encoding of Fig. 7 and roundtrips."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PackError, ReproError
from repro.taco import (
    CSC,
    CSF3,
    CSR,
    DDC,
    Compressed,
    Dense,
    Format,
    SPARSE_VECTOR,
    Tensor,
)


def fig7_matrix():
    """The 4x4 example matrix used throughout the paper (Figs. 3 and 7)."""
    rows = np.array([0, 0, 0, 1, 1, 2, 3, 3])
    cols = np.array([0, 1, 3, 1, 3, 0, 0, 3])
    vals = np.arange(1.0, 9.0)
    return rows, cols, vals


class TestFig7Encoding:
    def test_csr_pos_crd_vals(self):
        rows, cols, vals = fig7_matrix()
        B = Tensor.from_coo("B", [rows, cols], vals, (4, 4), CSR)
        lvl = B.levels[1]
        assert lvl.pos.data.tolist() == [[0, 2], [3, 4], [5, 5], [6, 7]]
        assert lvl.crd.data.tolist() == [0, 1, 3, 1, 3, 0, 0, 3]
        assert B.vals.data.tolist() == list(vals)

    def test_csc_matches_fig3(self):
        rows, cols, vals = fig7_matrix()
        B = Tensor.from_coo("B", [rows, cols], vals, (4, 4), CSC)
        lvl = B.levels[1]
        # Fig. 3 CSC: pos {0,2}{3,4}{5,4}{5,7}, crd 0 2 3 0 1 0 1 3
        assert lvl.pos.data.tolist() == [[0, 2], [3, 4], [5, 4], [5, 7]]
        assert lvl.crd.data.tolist() == [0, 2, 3, 0, 1, 0, 1, 3]
        assert lvl.crd.data.tolist() == [0, 2, 3, 0, 1, 0, 1, 3]

    def test_csr_csc_same_dense(self):
        rows, cols, vals = fig7_matrix()
        a = Tensor.from_coo("a", [rows, cols], vals, (4, 4), CSR).to_dense()
        b = Tensor.from_coo("b", [rows, cols], vals, (4, 4), CSC).to_dense()
        assert np.allclose(a, b)


class TestPackingCases:
    def test_duplicates_summed(self):
        B = Tensor.from_coo(
            "B", [np.array([0, 0]), np.array([1, 1])], np.array([2.0, 3.0]), (2, 2), CSR
        )
        assert B.nnz == 1
        assert B.to_dense()[0, 1] == 5.0

    def test_empty_tensor(self):
        B = Tensor.zeros("B", (3, 4), CSR)
        assert B.nnz == 0
        assert np.all(B.to_dense() == 0)
        assert B.levels[1].pos.data.shape == (3, 2)

    def test_sparse_vector(self):
        v = Tensor.from_coo("v", [np.array([1, 5])], np.array([1.0, 2.0]), (8,),
                            SPARSE_VECTOR)
        assert v.levels[0].pos.data.tolist() == [[0, 1]]
        assert v.levels[0].crd.data.tolist() == [1, 5]
        assert v.to_dense()[5] == 2.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            Tensor.from_coo("B", [np.array([5]), np.array([0])], np.array([1.0]),
                            (4, 4), CSR)

    def test_coordinate_length_mismatch(self):
        with pytest.raises(ValueError):
            Tensor.from_coo("B", [np.array([0, 1]), np.array([0])], np.array([1.0]),
                            (4, 4), CSR)

    @pytest.mark.parametrize("fmt", [CSR, CSC, None], ids=["csr", "csc", "dense"])
    @pytest.mark.parametrize("bad", [7, -1])
    def test_out_of_bounds_names_tensor_mode_position_and_value(self, fmt, bad):
        # Sorted (would take the no-sort path) and unsorted input alike.
        for rows in ([0, 1, 2, 3], [3, 1, 2, 0]):
            cols = [0, 1, bad, 3]
            with pytest.raises(PackError) as err:
                Tensor.from_coo("Bad", [np.array(rows), np.array(cols)],
                                np.ones(4), (4, 4), fmt)
            e = err.value
            assert isinstance(e, ReproError) and isinstance(e, ValueError)
            assert (e.tensor, e.mode, e.position, e.value) == ("Bad", 1, 2, bad)
            assert "'Bad'" in str(e) and "mode-1" in str(e) and str(bad) in str(e)

    def test_length_mismatch_and_array_count_are_typed(self):
        with pytest.raises(PackError, match="'B'.*mode 1 has 1 coordinates for 2"):
            Tensor.from_coo("B", [np.array([0, 1]), np.array([0])], np.ones(2),
                            (4, 4), CSR)
        with pytest.raises(PackError, match="'B'.*expected 2 coordinate arrays, got 3"):
            Tensor.from_coo("B", [np.array([0])] * 3, np.ones(1), (4, 4), CSR)

    def test_format_order_mismatch(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            Tensor("B", (4, 4, 4), CSR)

    def test_csf3_level_counts(self):
        idx = [np.array([0, 0, 1]), np.array([0, 1, 0]), np.array([2, 2, 2])]
        T = Tensor.from_coo("T", idx, np.ones(3), (2, 2, 3), CSF3)
        assert T.levels[1].num_positions == 3  # three distinct (i, j) fibers
        assert T.levels[2].num_positions == 3
        assert T.nnz == 3

    def test_ddc_dense_prefix(self):
        idx = [np.array([0, 1]), np.array([1, 0]), np.array([2, 0])]
        T = Tensor.from_coo("T", idx, np.array([1.0, 2.0]), (2, 2, 3), DDC)
        assert T.levels[0].is_dense and T.levels[1].is_dense
        # pos of the compressed level spans all 4 dense (i, j) positions
        assert T.levels[2].pos.data.shape == (4, 2)
        assert np.allclose(T.to_dense()[0, 1, 2], 1.0)

    def test_dense_tensor_nd_vals(self):
        D = Tensor.from_dense("D", np.arange(6.0).reshape(2, 3))
        assert D.vals.data.shape == (2, 3)
        assert np.allclose(D.dense_array(), np.arange(6.0).reshape(2, 3))

    def test_dense_array_respects_mode_ordering(self):
        arr = np.arange(6.0).reshape(2, 3)
        f = Format([Dense, Dense], mode_ordering=(1, 0))
        D = Tensor.from_dense("D", arr, f)
        assert D.vals.data.shape == (3, 2)  # stored column-major
        assert np.allclose(D.dense_array(), arr)

    def test_from_scipy_roundtrip(self):
        import scipy.sparse as sp

        m = sp.random(10, 8, density=0.3, random_state=np.random.default_rng(0),
                      format="csr")
        B = Tensor.from_scipy("B", m, CSR)
        assert np.allclose(B.to_scipy().toarray(), m.toarray())

    def test_nbytes_counts_levels(self):
        rows, cols, vals = fig7_matrix()
        B = Tensor.from_coo("B", [rows, cols], vals, (4, 4), CSR)
        assert B.nbytes == 4 * 16 + 8 * 8 + 8 * 8  # pos rects + crd + vals


@st.composite
def coo_tensors(draw):
    order = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(order))
    nnz = draw(st.integers(0, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    coords = [rng.integers(0, s, size=nnz) for s in shape]
    vals = rng.random(nnz) + 0.5
    levels = [draw(st.sampled_from([Dense, Compressed])) for _ in range(order)]
    perm = draw(st.permutations(list(range(order))))
    return coords, vals, shape, Format(levels, tuple(perm))


class TestPackingProperties:
    @given(coo_tensors())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_preserves_dense_equivalent(self, case):
        coords, vals, shape, fmt = case
        dense = np.zeros(shape)
        if vals.size:
            np.add.at(dense, tuple(c for c in coords), vals)
        T = Tensor.from_coo("T", coords, vals, shape, fmt)
        assert np.allclose(T.to_dense(), dense)

    @given(coo_tensors())
    @settings(max_examples=60, deadline=None)
    def test_pos_ranges_are_contiguous_and_cover_crd(self, case):
        coords, vals, shape, fmt = case
        T = Tensor.from_coo("T", coords, vals, shape, fmt)
        for lvl in T.levels:
            if lvl.is_dense:
                continue
            pos = lvl.pos.data
            nonempty = pos[:, 1] >= pos[:, 0]
            covered = (pos[nonempty, 1] - pos[nonempty, 0] + 1).sum()
            assert covered == lvl.num_positions
            # monotone, gap-free starts
            starts = pos[:, 0]
            assert np.all(np.diff(starts) >= 0)


# --------------------------------------------------------------------- #
# pack is order-blind: every input order yields the same bytes
# --------------------------------------------------------------------- #
DCSR = Format([Compressed, Compressed], name="DCSR")
PACK_FORMATS = [CSR, CSC, CSF3, DDC, SPARSE_VECTOR, DCSR]


def packed_arrays(t):
    """Every array a packed tensor stores, in level order."""
    out = []
    for lvl in t.levels:
        if not lvl.is_dense:
            out += [lvl.pos.data, lvl.crd.data]
    return out + [t.vals.data]


def assert_same_bytes(a, b):
    xs, ys = packed_arrays(a), packed_arrays(b)
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tobytes() == y.tobytes()


def split_duplicates(draw, entries):
    """Replace some entries by two or three that sum to them."""
    out = []
    for cell, v in entries:
        parts = draw(st.lists(st.integers(-4, 4), max_size=2))
        out += [(cell, float(p)) for p in parts]
        out.append((cell, v - float(sum(parts))))
    return out


# Integer-valued, so a sum of duplicates is exact in whatever order it is
# taken; the zeros are stored entries, and -0.0 pins that every path stores
# ``0 + v``.
cell_values = st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1.0, 2.0, 5.0])


@st.composite
def pack_cases(draw):
    """(format, shape, canonical entries): distinct cells in lexicographic
    storage order, each with a value.  The coordinate sets include the
    empty tensor, a single entry, entries confined to a few rows (the rest
    all empty) and one completely dense row among empty ones."""
    fmt = draw(st.sampled_from(PACK_FORMATS))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(fmt.order))
    grid = list(np.ndindex(*shape))
    kind = draw(st.sampled_from(["empty", "single", "scattered", "few_rows",
                                 "one_dense_row"]))

    def some_of(cells):
        keep = draw(st.lists(st.booleans(), min_size=len(cells),
                             max_size=len(cells)))
        return [c for c, k in zip(cells, keep) if k]

    if kind == "empty":
        cells = []
    elif kind == "single":
        cells = [draw(st.sampled_from(grid))]
    elif kind == "scattered":
        cells = some_of(grid)
    else:
        rows = draw(st.sets(st.integers(0, shape[0] - 1), min_size=1,
                            max_size=1 if kind == "one_dense_row" else 2))
        cells = [c for c in grid if c[0] in rows]
        if kind == "few_rows":
            cells = some_of(cells)
    cells.sort(key=lambda c: tuple(c[m] for m in fmt.mode_ordering))
    return fmt, shape, [(c, draw(cell_values)) for c in cells]


def pack_entries(fmt, shape, entries, name="T"):
    coords = [np.array([c[m] for c, _ in entries], dtype=np.int64)
              for m in range(len(shape))]
    vals = np.array([v for _, v in entries], dtype=np.float64)
    return Tensor.from_coo(name, coords, vals, shape, fmt)


class TestPackIsOrderBlind:
    @given(st.data())
    def test_canonical_permuted_and_duplicated_inputs_pack_to_the_same_bytes(
        self, data
    ):
        fmt, shape, entries = data.draw(pack_cases())
        base = pack_entries(fmt, shape, entries)
        shuffled = pack_entries(fmt, shape, data.draw(st.permutations(entries)))
        dups = split_duplicates(data.draw, entries)
        in_order = pack_entries(fmt, shape, dups)
        any_order = pack_entries(fmt, shape, data.draw(st.permutations(dups)))
        for other in (shuffled, in_order, any_order):
            assert_same_bytes(base, other)

        dense = np.zeros(shape)
        for cell, v in entries:
            dense[cell] = 0 + v
        assert base.nnz == len(entries)
        assert np.array_equal(base.to_dense(), dense)
        assert_same_bytes(base, Tensor.from_coo("T", *base.to_coo(), shape, fmt))
        if fmt.order == 2:
            assert np.array_equal(base.to_scipy().toarray(), dense)

    @given(st.data())
    def test_non_canonical_scipy_input_packs_like_canonical(self, data):
        """Unsorted indices, duplicate entries, and a matrix whose
        ``has_canonical_format`` flag lies about both."""
        import scipy.sparse as sp

        kind = data.draw(st.sampled_from([sp.csr_matrix, sp.csc_matrix]))
        shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
        major, minor = shape if kind is sp.csr_matrix else shape[::-1]
        segments = [
            data.draw(st.lists(
                st.tuples(st.integers(0, minor - 1), st.integers(-4, 4)),
                max_size=6,
            ))
            for _ in range(major)
        ]  # per major index, in no order and with repeats
        indptr = np.cumsum([0] + [len(seg) for seg in segments])
        flat = [e for seg in segments for e in seg]
        indices = np.array([i for i, _ in flat], dtype=np.int32)
        values = np.array([v for _, v in flat], dtype=np.float64)
        messy = kind((values, indices, indptr), shape=shape)
        liar = messy.copy()
        liar.has_sorted_indices = True
        liar.has_canonical_format = True
        clean = messy.copy()
        clean.sum_duplicates()
        assert clean.has_canonical_format
        for fmt in (CSR, CSC):
            base = Tensor.from_scipy("B", clean, fmt)
            assert_same_bytes(base, Tensor.from_scipy("B", messy, fmt))
            assert_same_bytes(base, Tensor.from_scipy("B", liar, fmt))
            assert np.array_equal(base.to_dense(), clean.toarray())
            assert np.array_equal(base.to_scipy().toarray(), clean.toarray())


class TestPackSortsOnlyWhenItMust:
    def canonical_inputs(self):
        import scipy.sparse as sp

        m = sp.random(30, 20, density=0.2, format="csr",
                      random_state=np.random.default_rng(0))
        idx = np.argwhere(np.random.default_rng(1).random((4, 5, 6)) < 0.3)
        coords = [idx[:, d] for d in range(3)]  # argwhere: row-major order
        ones = np.ones(len(idx))
        return [
            lambda: Tensor.from_scipy("B", m, CSR),
            lambda: Tensor.from_scipy("B", m.tocsc(), CSC),
            lambda: Tensor.from_scipy("B", m.tocoo()),
            lambda: Tensor.from_dense("B", m.toarray(), CSR),
            lambda: Tensor.from_coo("T", coords, ones, (4, 5, 6), CSF3),
            lambda: Tensor.from_coo("T", coords, ones, (4, 5, 6), DDC),
        ]

    def test_canonical_inputs_never_reach_lexsort(self, monkeypatch):
        packs = self.canonical_inputs()
        expected = [packed_arrays(pack()) for pack in packs]

        def no_sort(keys):
            raise AssertionError("np.lexsort called on canonical input")

        monkeypatch.setattr(np, "lexsort", no_sort)
        for pack, arrays in zip(packs, expected):
            got = packed_arrays(pack())
            assert all(np.array_equal(g, a) for g, a in zip(got, arrays))

    def test_shuffled_input_sorts_exactly_once(self, monkeypatch):
        rows, cols, vals = fig7_matrix()
        order = np.random.default_rng(2).permutation(len(vals))
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(
            np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
        )
        B = Tensor.from_coo("B", [rows[order], cols[order]], vals[order],
                            (4, 4), CSR)
        assert len(calls) == 1
        assert B.levels[1].crd.data.tolist() == [0, 1, 3, 1, 3, 0, 0, 3]
        assert B.vals.data.tolist() == list(vals)


class TestPackedRegionsOwnTheirMemory:
    def assert_independent(self, pack, sources):
        """No packed array shares memory with a source array, so writes on
        either side stay there."""
        t = pack()
        arrays = packed_arrays(t)
        for a in arrays:
            for src in sources:
                assert not np.shares_memory(a, src)
        before = [a.copy() for a in arrays]
        originals = [src.copy() for src in sources]
        for src in sources:
            src[...] = src[::-1].copy() + 1
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        for src, orig in zip(sources, originals):
            src[...] = orig
        for a in arrays:
            a[...] = 0
        assert all(np.array_equal(s, o) for s, o in zip(sources, originals))

    @pytest.mark.parametrize("fmt", [CSR, DCSR, CSC], ids=lambda f: f.name)
    def test_from_coo_copies_int64_coordinates_and_values(self, fmt):
        rows, cols, vals = fig7_matrix()  # sorted for CSR/DCSR, not for CSC
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        self.assert_independent(
            lambda: Tensor.from_coo("B", [rows, cols], vals, (4, 4), fmt),
            [rows, cols, vals],
        )

    @pytest.mark.parametrize("kind", ["csr", "csc", "coo", "coo64"])
    def test_from_scipy_leaves_the_matrix_alone(self, kind):
        import scipy.sparse as sp

        m = sp.random(12, 9, density=0.3, format="csr",
                      random_state=np.random.default_rng(3)).asformat(kind[:3])
        if kind == "coo64":
            # SciPy keeps 64-bit indices only where 32 bits cannot address
            # the matrix; force them, as a pack that adopted a coordinate
            # column uncast would alias exactly these.
            m.coords = tuple(c.astype(np.int64) for c in m.coords)
        sources = list(m.coords) if m.format == "coo" else [m.indices]
        self.assert_independent(
            lambda: Tensor.from_scipy("B", m), sources + [m.data]
        )
