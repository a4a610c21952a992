"""Benchmark for the pillarmamba detector: three closed-loop workloads, an
output check against a float64 oracle, and an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer_desk64 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

With --trace 0 the timed loop runs untraced and the end-to-end metrics are
reported. With --trace 1 the loop runs untraced for half of --seconds and
traced for the other half; the per-layer metrics come from the traced half
and the tracing overhead is the traced minus the untraced median unit time.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A failed output check exits 1, a coverage
error of the trace exits 3. Reports and spans go to .perfbench/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("infer_desk64", "train_desk64", "infer_dense128")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900


def import_package():
    """Put the checkout's own source first on the path and import it from there."""
    if not (SRC / "pillarmamba" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'pillarmamba'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pillarmamba

    if Path(pillarmamba.__file__).resolve().parent != (SRC / "pillarmamba").resolve():
        raise SystemExit(f"perfbench: imported pillarmamba from {pillarmamba.__file__}, not from {SRC}")
    return pillarmamba


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------


def _blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})"
    except Exception as exc:  # the build report's layout is numpy's, not ours
        blas_build = f"unknown ({type(exc).__name__})"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


# per-workload display names of latency p50, tail and throughput, by workload unit
UNIT_METRIC_NAMES = {
    "scene": ("scene_latency_p50_s", "scene_latency_tail_s", "scenes_per_s"),
    "step": ("train_step_p50_s", "train_step_tail_s", "steps_per_s"),
}
NOT_MEASURED = {
    "scene": ("train_step_p50_s", "train_step_tail_s", "train_loss_final"),
    "step": ("scene_latency_p50_s", "scene_latency_tail_s", "scenes_per_s", "eval_s"),
}


def _line(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<34} {shown:>14} {unit:<6} {note}"


def end_to_end(name, wl, run, check, setup_times, rss: float, failed: int, attempted: int) -> dict:
    """Print the end-to-end metrics under their per-workload names; return the result metrics."""
    from stats import tail

    n = len(run.unit_times)
    p50 = median(run.unit_times) if n else float("nan")
    tail_v, tail_pct = tail(run.unit_times) if n else (float("nan"), float("nan"))
    per_s = n / run.wall_s
    p50_name, tail_name, rate_name = UNIT_METRIC_NAMES[wl.unit]
    lines = [
        _line("setup_s", median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        _line(p50_name, p50, "s", f"n={n}"),
        _line(tail_name, tail_v, "s", f"p{tail_pct:.1f}, n={n}"),
        _line(rate_name, per_s, "1/s", f"{n} {wl.unit}s in {run.wall_s:.2f} s"),
    ]
    if wl.unit == "scene":
        lines.append(_line("eval_s", median(run.eval_times), "s", f"ap_r40 over one pass, median of {len(run.eval_times)} passes"))
    else:
        from workloads import TRAIN_STEPS

        final = check.facts.get("train_loss_final", float("nan"))
        lines.append(_line("train_loss_final", final, "", f"after {TRAIN_STEPS} steps, {len(run.losses)} episodes"))
    lines.append(_line("peak_rss_mb", rss, "MB", "whole process, before the output check"))
    lines.append(_line("failed_frac", failed / attempted, "", f"{failed}/{attempted}"))
    print(f"end-to-end metrics ({', '.join(NOT_MEASURED[wl.unit])}: not measured on {name})")
    print("\n".join(lines))
    return {
        "setup_s": {"value": median(setup_times), "unit": "s"},
        "latency_p50_s": {"value": p50, "unit": "s"},
        "latency_tail_s": {"value": tail_v, "unit": "s"},
        "throughput_per_s": {"value": per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(wl, tracer, base, run) -> dict:
    """Print the per-layer metrics of the traced half; return the result metrics."""
    import spans

    figures = spans.layer_metrics(tracer, units=len(run.unit_times) + run.failed, passes=len(run.eval_times), unit_times=run.unit_times)
    figures["trace.overhead_s"] = median(run.unit_times) - median(base.unit_times) if run.unit_times and base.unit_times else 0.0
    metrics = {k: {"value": float(figures[k]), "unit": spans.metric_unit(k)} for k in spans.PER_LAYER_NAMES}
    print(f"per-layer metrics (per {wl.unit}, metrics.* per eval pass; {len(run.unit_times)} traced {wl.unit}s, {len(run.eval_times)} passes)")
    print("\n".join(_line(k, m["value"], m["unit"]) for k, m in metrics.items()))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    wl = workloads.WORKLOADS[name]
    env = environment(seed)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))

    setup_times = []
    state = None
    for _ in range(1 if trace else SETUP_REPEATS):
        state = None  # release the previous set-up before timing the next
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    if trace:
        import spans

        base = wl.run(state, seconds / 2)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            run = wl.run(state, seconds / 2, tracer)
        spans.check_coverage(tracer, name)
        tracer.write(OUT_DIR / f"{stem}_spans.jsonl")
        runs = [base, run]
    else:
        run = wl.run(state, seconds)
        rss = peak_rss_mb()  # before the float64 oracle of the output check
        runs = [run]
    check = wl.check(state, run)
    attempted = sum(r.attempted for r in runs) + check.attempted
    failed = sum(r.failed for r in runs) + len(check.failures)
    for msg in [e for r in runs for e in r.errors] + check.failures:
        print(f"FAILED {msg}", file=sys.stderr)

    if trace:
        metrics = per_layer(wl, tracer, base, run)
    else:
        metrics = end_to_end(name, wl, run, check, setup_times, rss, failed, attempted)
    print("output check: " + ("passed " if not check.failures else f"FAILED ({len(check.failures)}) ") + json.dumps(check.facts, sort_keys=True))
    print("digests " + json.dumps(check.digests, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {"workload": name, "env": env, "trace": int(trace), "digests": check.digests, "facts": check.facts, "result": result}
    if run.eval_times:
        report["eval_s_per_pass"] = run.eval_times
    report["unit_times_s"] = run.unit_times
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# all workloads, one process each
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"=== {name}", flush=True)
        proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_package()
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as exc:
        import spans

        if isinstance(exc, spans.CoverageError):
            print(f"perfbench: coverage error: {exc}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
