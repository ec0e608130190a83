"""perfbench: the repository's benchmark.  One command, four workloads, two clocks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N [--out DIR] [--traced] [--quick]

With ``--workload`` the workload runs in this process (the benchmark driver
starts one process per run, so ``peak_rss_mb`` and the process-global caches
belong to that workload alone).  Without it every workload runs in its own
subprocess, one after another.  ``--trace 0`` is the untraced pass (end-to-end
metrics), ``--trace 1`` the traced pass (per-layer metrics); ``--traced`` runs
both.  Every metric is printed by name with its unit, every output is checked
against an independent SciPy/NumPy reference, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

See perfbench/README.md for the metric glossary and how to read the numbers.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")
QUICK_SECONDS = 0.6


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run one workload in this process")
    ap.add_argument("--seed", type=int, default=0, help="input seed")
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long each pass measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: untraced pass; 1: traced pass")
    ap.add_argument("--traced", action="store_true",
                    help="run the untraced pass, then the traced pass")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the tests (numbers mean nothing)")
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for the JSON result, Chrome trace and "
                         "self-time table")
    ap.add_argument("--list", action="store_true", help="list workloads")
    return ap.parse_args(argv)


def _cpu_info() -> dict:
    info = {"nproc": os.cpu_count(), "machine": platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
        info["caches"] = caches
    except OSError:
        pass  # not Linux, or /proc and /sys are masked: the fields stay absent
    return info


def _host_info() -> dict:
    import numpy
    import scipy

    return {
        **_cpu_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _value(v) -> float:
    v = float(v["median"] if isinstance(v, dict) else v)
    return v if math.isfinite(v) else 0.0  # no samples at all (every one failed)


def _print_metrics(title: str, names, values: dict, units: dict) -> None:
    print(f"-- {title}")
    for name in names:
        v = values.get(name)
        if v is None:
            print(f"{name:<46} n/a on this workload")
            continue
        unit = units.get(name, "ratio" if name.endswith("_ratio") else "s")
        line = f"{name:<46}{_value(v):>16.9g} {unit}"
        if isinstance(v, dict) and "q1" in v:
            line += f"   n={v['n']} q1={v['q1']:.6g} q3={v['q3']:.6g}"
            if "tail" in v:
                line += f" p{v['tail_percentile']:g}={v['tail']:.6g}"
        print(line)


def run_workload(args) -> int:
    """One workload, in this process.  Prints the result line; returns the
    process exit code."""
    for k in THREAD_ENV:  # before NumPy loads: one BLAS/OpenMP thread
        os.environ[k] = "1"
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import harness, metrics, workloads
    from perfbench.scenarios import SCENARIOS
    from perfbench.trace import (
        Recorder, format_self_times, self_times, write_chrome_trace,
    )
    from perfbench.verify import Checker

    if args.workload not in SCENARIOS:
        print(f"unknown workload {args.workload!r}; have {sorted(SCENARIOS)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else metrics.RUN_SECONDS
    passes = ("e2e", "layers") if args.traced else (("layers",) if args.trace else ("e2e",))

    t0 = time.perf_counter()
    inputs = workloads.generate(args.workload, args.seed, quick=args.quick)
    generate_s = time.perf_counter() - t0
    scn = SCENARIOS[args.workload](inputs)
    if args.quick:
        scn.min_setup, scn.min_cold, scn.min_warm = 2, 3, 20
    chk = Checker()
    rec = Recorder()
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "quick": args.quick, "host": _host_info(),
        "sizes": workloads.sizes(args.workload, args.quick),
        "input_digest": workloads.digest(inputs),
        "input_bytes_computed": workloads.array_bytes(inputs),
    }
    e2e: dict = {}
    layers: dict = {}
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        if "e2e" in passes:
            e2e = harness.end_to_end(scn, seconds, chk)
            e2e["peak_rss_mb"] = _peak_rss_mb()  # of this pass alone
            result["end_to_end"] = e2e
        if "layers" in passes:
            workdir.mkdir(parents=True, exist_ok=True)
            layers = harness.per_layer(scn, seconds, chk, rec, workdir)
            layers["data.generate_s"] = generate_s
            result["per_layer"] = layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    layers["fail_share"] = chk.fail_share
    result.update(attempted=chk.attempted, failed=chk.failed,
                  fail_share=chk.fail_share, failure_notes=chk.notes,
                  process_peak_rss_mb=_peak_rss_mb())

    e2e_names = [n for n, *_ in metrics.END_TO_END]
    layer_names = [n for n, *_ in metrics.PER_LAYER]
    print(f"perfbench {args.workload} seed={args.seed} seconds={seconds:g} "
          f"passes={'+'.join(passes)}{' quick' if args.quick else ''}")
    emitted = {}
    if "e2e" in passes:
        sim = e2e["sim"]
        _print_metrics("end to end (untraced pass, host clock)",
                       e2e_names, e2e, metrics.UNITS)
        _print_metrics("seconds behind the ratios, and the simulated clock",
                       ["pack_s", "reference_pack_s", "pack_vs_scipy_ratio",
                        "cold_s", "warm_step_s",
                        "reference_step_s", *sim], {**e2e, **sim}, metrics.UNITS)
        emitted.update({n: e2e.get(n, 0.0) for n in e2e_names})
    if "layers" in passes:
        _print_metrics("per layer (traced pass)", layer_names, layers, metrics.UNITS)
        emitted.update({n: layers.get(n, 0.0) for n in layer_names})
        table = format_self_times(self_times(rec.spans))
        print("-- self time (span minus children), traced pass\n" + table)
    for note in chk.notes:
        print(f"FAILED {note}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{args.workload}.json").write_text(
            json.dumps(result, indent=1, default=float))
        if "layers" in passes:
            write_chrome_trace(args.out / f"{args.workload}.trace.json",
                               rec.spans, process=f"perfbench:{args.workload}")
            (args.out / f"{args.workload}.selftime.txt").write_text(table + "\n")
    line = {
        "correct": chk.failed == 0 and chk.attempted > 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        # a metric the workload does not have reads 0
        "metrics": {n: {"value": _value(v), "unit": metrics.UNITS[n]}
                    for n, v in emitted.items()},
    }
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own subprocess, one at a time."""
    sys.path[:0] = [str(ROOT)]
    from perfbench import workloads

    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        for flag in ("traced", "quick"):
            if getattr(args, flag):
                cmd.append("--" + flag)
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.rstrip().splitlines()[-1])
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update(
            {f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.list:
        sys.path[:0] = [str(ROOT)]
        from perfbench import workloads

        return workloads.main(["--list"])
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
