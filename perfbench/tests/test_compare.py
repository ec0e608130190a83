"""compare.py verdicts: ok / worse / unresolved / exact, and its exit code."""
import json

from perfbench import compare


def _run(tmp_path, name, warm, sim=1e-4, workload="spmv_large"):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps({
        "workload": workload, "peak_rss_mb": 100.0, "fail_share": 0.0,
        "end_to_end": {"vs_scipy_ratio": {"median": warm, "n": 100},
                       "warm_step_s": {"median": warm / 100, "n": 100},
                       "sim": {"sim_seconds": sim}},
    }))
    return p


def test_within_bound_is_ok_and_beyond_is_worse():
    assert compare.judge("vs_scipy_ratio", [3.0, 3.03, 3.06], [3.3, 3.33, 3.36])["verdict"] == "ok"
    row = compare.judge("vs_scipy_ratio", [3.0, 3.03, 3.06], [3.9, 3.93, 3.96])
    assert row["verdict"] == "worse" and row["gated"]
    assert abs(row["ratio"] - 3.93 / 3.03) < 1e-12
    # faster is never worse
    assert compare.judge("vs_scipy_ratio", [3.0, 3.0, 3.0], [1.5, 1.5, 1.5])["verdict"] == "ok"


def test_raw_seconds_are_judged_but_not_gated():
    row = compare.judge("warm_step_s", [1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    assert row["verdict"] == "worse" and not row["gated"]


def test_higher_is_better_metrics_flip_the_direction():
    assert compare.judge("codegen.leaf_share", [0.8] * 3, [0.6] * 3)["verdict"] == "worse"
    assert compare.judge("codegen.leaf_share", [0.6] * 3, [0.8] * 3)["verdict"] == "ok"


def test_spread_wider_than_bound_is_unresolved_unless_all_runs_better():
    noisy = [1.0, 1.3, 1.6, 0.8, 1.9]
    assert compare.judge("vs_scipy_ratio", noisy, [1.1, 1.4, 1.2, 1.0, 1.5])["verdict"] == "unresolved"
    assert compare.judge("vs_scipy_ratio", noisy, [0.5, 0.6, 0.7, 0.4, 0.3])["verdict"] == "ok"


def test_exact_metrics_compare_for_equality():
    assert compare.judge("sim_seconds", [1e-4, 1e-4], [1e-4])["verdict"] == "ok"
    row = compare.judge("sim_seconds", [1e-4], [1.0000001e-4])
    assert row["verdict"] == "worse" and row["bound"] == "exact"
    # even an improvement must be named by the issue that causes it
    assert compare.judge("sim_comm_bytes", [100.0], [90.0])["verdict"] == "worse"


def test_artifact_bytes_has_its_own_two_percent_bound():
    assert compare.judge("artifact_bytes", [1000.0], [1015.0])["verdict"] == "ok"
    assert compare.judge("artifact_bytes", [1000.0], [1030.0])["verdict"] == "worse"


def test_cli_rows_and_exit_status(tmp_path, capsys):
    a = [_run(tmp_path, f"a{k}", 3.0 + 0.01 * k) for k in range(3)]
    b = [_run(tmp_path, f"b{k}", 3.1 + 0.01 * k) for k in range(3)]
    assert compare.main([*map(str, a), "--", *map(str, b)]) == 0
    out = capsys.readouterr().out
    assert "vs_scipy_ratio" in out and "base A" in out and "sim_seconds" in out
    assert "(ok)" in out  # the ungated warm_step_s row
    slow = _run(tmp_path, "slow", 6.0)
    assert compare.main([str(a[0]), str(slow)]) == 1
    drift = _run(tmp_path, "drift", 3.0, sim=2e-4)
    assert compare.main([str(a[0]), str(drift)]) == 1
    assert compare.main([]) == 2
