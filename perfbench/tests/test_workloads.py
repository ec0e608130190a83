"""Seeded generators: same seed, same bytes; integer-valued; listed."""
import numpy as np
import pytest
import scipy.sparse as sp

from perfbench import workloads


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_bytes_and_seeds_differ(name):
    a = workloads.generate(name, 7, quick=True)
    b = workloads.generate(name, 7, quick=True)
    c = workloads.generate(name, 8, quick=True)
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest(c)


def test_workloads_never_share_a_stream():
    a = workloads.generate("spmv_large", 3, quick=True)
    b = workloads.generate("small_launch", 3, quick=True)
    assert a["B"].shape != b["B"].shape or (a["B"] != b["B"]).nnz


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_values_are_small_integers_and_matrices_canonical(name):
    for a in workloads._arrays(workloads.generate(name, 1, quick=True)):
        if a.dtype.kind == "f":
            assert np.array_equal(a, np.round(a)) and a.min() >= 1 and a.max() <= 4
    B = workloads.generate(name, 1, quick=True)["B"]
    assert sp.isspmatrix_csr(B) and B.has_canonical_format


def test_tensor3_coordinates_sorted_and_distinct():
    T = workloads.generate("program_mixed_gpu", 5, quick=True)["T"]
    i, j, k = T["coords"]
    key = (i * T["shape"][1] + j) * T["shape"][2] + k
    assert np.all(np.diff(key) > 0)
    assert T["vals"].size == key.size


def test_compile_matrix_has_34_cases():
    assert 2 * len(workloads.COMPILE_CASES) + 2 == 34


def test_list_prints_every_workload_with_its_reason(capsys):
    assert workloads.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name, (why, _full, _quick) in workloads.WORKLOADS.items():
        assert name in out and why in out
