"""References against brute-force dense NumPy, and the failure ledger."""
import numpy as np
import pytest

import repro
from perfbench import verify, workloads
from perfbench.scenarios import SCENARIOS


def _dense3(T):
    out = np.zeros(T["shape"])
    out[tuple(T["coords"])] = T["vals"]
    return out


def _csr_to_dense(parts, shape):
    indptr, indices, data = parts
    out = np.zeros(shape)
    rows = np.repeat(np.arange(shape[0]), np.diff(indptr))
    out[rows, indices] = data
    return out


@pytest.fixture(scope="module")
def raw():
    return workloads.generate("compile_matrix", 11, quick=True)


@pytest.mark.parametrize("k", [0, 3, 5])
def test_references_equal_dense_einsum(raw, k):
    B, B2, B3 = (raw[n].toarray() for n in ("B", "B2", "B3"))
    T = _dense3(raw["T"])
    r = k % workloads.ROTATIONS
    x, C, D = raw["x"][r], raw["C"][r], raw["D"][r]
    tc, TC, TD = raw["tc"][r], raw["TC"][r], raw["TD"][r]
    eq = np.array_equal
    assert eq(verify.SpMV(raw["B"], raw["x"]).compute(k), B @ x)
    assert eq(verify.SpMM(raw["B"], raw["C"]).compute(k), B @ C)
    sddmm = verify.SDDMM(raw["B"], raw["C"], raw["D"]).compute(k)
    assert eq(_csr_to_dense(sddmm, B.shape), B * (C @ D))
    fused = verify.FusedSDDMMSpMM(raw["B"], raw["C"], raw["D"], raw["C"])
    assert eq(fused.compute(k), (B * (C @ D)) @ C)
    add = verify.SpAdd3(raw["B"], raw["B2"], raw["B3"]).compute(k)
    assert eq(_csr_to_dense(add, B.shape), B + B2 + B3)
    ttv = np.einsum("ijk,k->ij", T, tc)
    assert eq(verify.SpTTV(raw["T"], raw["tc"], dense_out=True).compute(k), ttv)
    sparse_ttv = verify.SpTTV(raw["T"], raw["tc"], dense_out=False).compute(k)
    assert eq(_csr_to_dense(sparse_ttv, ttv.shape), ttv)
    assert eq(verify.SpMTTKRP(raw["T"], raw["TC"], raw["TD"]).compute(k),
              np.einsum("ijk,jl,kl->il", T, TC, TD))


def test_spadd3_reference_follows_rotated_values():
    raw = workloads.generate("program_mixed_gpu", 2, quick=True)
    ref = verify.SpAdd3(raw["B"], raw["B2"], raw["B3"], raw["B2_vals"])
    assert not np.array_equal(ref.compute(0)[2], ref.compute(1)[2])


@pytest.fixture()
def scenario():
    scn = SCENARIOS["small_launch"](workloads.generate("small_launch", 4, quick=True))
    scn.open()
    scn.pack()
    scn.pack_dense(0)
    yield scn
    repro.core.clear_caches()


def test_correct_step_passes_and_idle_step_fails(scenario):
    chk = verify.Checker()
    scenario.rotate(1)
    ok, _ = chk.attempt("warm", scenario.frontdoor)
    assert ok and chk.expect("warm", scenario.check(scenario.references(1)))
    # rotate the operands but execute nothing: the stale outputs must not pass
    scenario.rotate(2)
    chk.attempted += 1
    assert not chk.expect("idle", scenario.check(scenario.references(2)))
    assert (chk.attempted, chk.failed) == (2, 1)


def test_corrupted_output_and_raised_error_both_count(scenario):
    chk = verify.Checker()
    scenario.rotate(0)
    chk.attempt("warm", scenario.frontdoor)
    sddmm_out = scenario.units[2].out
    sddmm_out.vals.data[0] += 1.0  # one wrong stored value in a sparse output
    assert not chk.expect("corrupt", scenario.check(scenario.references(0)))

    def raises():
        raise repro.ReproError("injected")

    ok, val = chk.attempt("boom", raises)
    assert not ok and val is None
    assert (chk.attempted, chk.failed) == (2, 2)
    assert chk.fail_share == 1.0
    assert any("ReproError" in n for n in chk.notes)
    assert any("differs from the reference" in n for n in chk.notes)


def test_csr_matches_rejects_a_wrong_pattern(scenario):
    scenario.rotate(0)
    scenario.frontdoor()
    out, ref = scenario.units[2].outputs[0]
    indptr, indices, data = ref.compute(0)
    assert ref.matches(out, (indptr, indices, data))
    shifted = indices.copy()
    shifted[0] = (shifted[0] + 1) % out.shape[1]
    assert not ref.matches(out, (indptr, shifted, data))
