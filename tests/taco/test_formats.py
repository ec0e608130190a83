"""Format language tests (paper §II-B, Fig. 3)."""
import pytest

from repro.errors import FormatError
from repro.taco import (
    CSC,
    CSF3,
    CSR,
    DDC,
    DENSE_MATRIX,
    DENSE_VECTOR,
    SPARSE_VECTOR,
    Compressed,
    Dense,
    Format,
    LevelFormat,
    dense_format,
)


class TestLevelFormats:
    def test_dense_flags(self):
        assert Dense.is_dense and not Dense.is_compressed

    def test_compressed_flags(self):
        assert Compressed.is_compressed and not Compressed.is_dense


class TestFormat:
    def test_csr_is_dense_then_compressed(self):
        assert CSR.levels == (Dense, Compressed)
        assert CSR.mode_ordering == (0, 1)

    def test_csc_reverses_mode_ordering(self):
        assert CSC.levels == (Dense, Compressed)
        assert CSC.mode_ordering == (1, 0)
        assert CSC != CSR

    def test_level_of_mode(self):
        assert CSR.level_of_mode(0) == 0
        assert CSC.level_of_mode(0) == 1  # rows stored at the inner level
        assert CSF3.level_of_mode(2) == 2

    def test_all_dense(self):
        assert DENSE_MATRIX.is_all_dense()
        assert not CSR.is_all_dense()
        assert CSR.has_compressed()

    def test_named_formats(self):
        assert DDC.levels == (Dense, Dense, Compressed)
        assert SPARSE_VECTOR.levels == (Compressed,)
        assert DENSE_VECTOR.order == 1

    def test_equality_and_hash(self):
        assert Format([Dense, Compressed]) == CSR
        assert hash(Format([Dense, Compressed])) == hash(CSR)

    def test_a_format_that_went_through_pickle_equals_itself(self):
        import pickle

        import repro.taco

        formats = {
            name: obj for name, obj in vars(repro.taco).items()
            if name in repro.taco.__all__ and isinstance(obj, (Format, LevelFormat))
        }
        assert {"CSR", "CSC", "CSF3", "DDC", "SPARSE_VECTOR", "Dense"} <= set(formats)
        for name, fmt in formats.items():
            back = pickle.loads(pickle.dumps(fmt))
            assert back == fmt and hash(back) == hash(fmt), name
            assert back in {fmt: name}
        assert pickle.loads(pickle.dumps(CSC)) != CSR
        assert pickle.loads(pickle.dumps(Dense)) != Compressed

    def test_dense_format_builder(self):
        f = dense_format(3)
        assert f.order == 3 and f.is_all_dense()

    def test_invalid_mode_ordering(self):
        with pytest.raises(FormatError):
            Format([Dense, Compressed], mode_ordering=(0, 0))
        with pytest.raises(FormatError):
            Format([Dense, Compressed], mode_ordering=(0, 2))

    def test_empty_format_rejected(self):
        with pytest.raises(FormatError):
            Format([])

    def test_non_level_rejected(self):
        with pytest.raises(FormatError):
            Format([Dense, "Compressed"])

    def test_with_distribution_preserves_structure(self):
        f = CSR.with_distribution("placeholder")
        assert f == CSR
        assert f.distribution == "placeholder"

    def test_default_name_encodes_levels(self):
        f = Format([Dense, Compressed, Compressed])
        assert f.name == "Format(D,C,C)"
