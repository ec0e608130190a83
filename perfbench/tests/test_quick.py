"""``run.py --quick`` end to end: every workload, both passes, under 10 s a
piece, every metric of the contract on the last line; and a non-zero exit where
the program is missing."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _last_line(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.rstrip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_the_contract_line(name, trace, tmp_path):
    proc = subprocess.run(
        [*RUN, "--workload", name, "--seed", "3", "--quick",
         "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    line = _last_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(line["metrics"]) == [m[0] for m in table]
    for m in table:
        got = line["metrics"][m[0]]
        assert got["unit"] == m[1] and isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    result = json.loads((tmp_path / f"{name}.json").read_text())
    assert result["host"]["threads"] == {
        "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    assert result["input_digest"] == workloads.digest(
        workloads.generate(name, 3, quick=True))
    if trace:
        events = json.loads((tmp_path / f"{name}.trace.json").read_text())
        assert any(e["name"] == "step" for e in events["traceEvents"])
        assert "execute" in (tmp_path / f"{name}.selftime.txt").read_text()
    # every metric is printed by name with its unit
    for m in table:
        assert m[0] in proc.stdout


def test_traced_pass_shows_the_designed_separation(tmp_path):
    """Counters that must hold at any size: the program fuses SDDMM->SpMM,
    serving compiles once per signature, nothing falls back or is evicted."""
    proc = subprocess.run(
        [*RUN, "--seed", "5", "--quick", "--trace", "1"],
        capture_output=True, text=True, timeout=120)
    line = _last_line(proc)
    assert line["correct"] is True
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["program_mixed_gpu.core.passes.fired.fuse"] == 1
    assert m["compile_matrix.core.passes.fired.fuse"] == 2
    assert m["small_launch.api.serving.compiles"] == 3
    assert m["small_launch.api.serving.rejected"] == 0
    assert m["spmv_large.artifact_bytes"] > 0 and m["spmv_large.warmstart_s"] > 0
    for name in workloads.WORKLOADS:
        assert m[f"{name}.codegen.fallbacks"] == 0
        assert m[f"{name}.core.cache.evictions"] == 0
        assert m[f"{name}.fail_share"] == 0
        assert m[f"{name}.trace.overhead_ratio"] > 0


def test_same_seed_repeats_every_exact_metric(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / str(k)
        proc = subprocess.run(
            [*RUN, "--workload", "program_mixed_gpu", "--seed", "9", "--quick",
             "--trace", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        outs.append({k: v["value"] for k, v in _last_line(proc)["metrics"].items()})
    for name in metrics.EXACT:
        assert outs[0][name] == outs[1][name], name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spmv_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert '"correct"' not in proc.stdout
