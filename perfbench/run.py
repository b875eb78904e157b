"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload variate-desk --seed 1 --seconds 35 --trace 0

Run from the repository root (or any copy of it holding `src/` and
`BENCHMARK.json`). `--trace 0` measures the end-to-end metrics; `--trace 1`
runs untraced and traced cycles in turn and reports the per-layer metrics.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report, which is also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 2  # set-ups before every cycle, so that setup_s samples the whole run
MIN_CYCLES = 2  # the second cycle repeats the first's seed, for the determinism check
TRACED_CYCLES = 3  # traced cycles of a --trace 1 run, each between two untraced ones
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def git_sha(root):
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package_dir):
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def blas_threads(np):
    """Threads of the OpenBLAS bundled with NumPy, asked through its own API."""
    import ctypes

    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine(np):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(np),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT / "src" / "spectral_attn"),
    }


def declared():
    """Workload reasons and metric units, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({w["name"]: w["why"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def result_metrics(values, units):
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    for name in values:
        if not METRIC_NAME.fullmatch(name):
            raise RuntimeError(f"metric name {name!r} has characters outside [A-Za-z0-9_.-]")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in sorted(values)}


def measure(workload, seed, seconds, workdir):
    """Untraced: rounds of SETUP_REPEATS set-ups and one cycle, while the next
    round still fits in `seconds`."""
    import metrics
    from workloads import Ledger, run_cycle, set_up, warm_up

    ledger = Ledger()
    warm_up(workload, set_up(workload, seed, workdir, ledger), seed)
    setups, cycles = [], []
    began = time.perf_counter()
    longest = 0.0
    while True:
        gc.collect()
        round_start = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            prepared = set_up(workload, seed, workdir, ledger)
            setups.append(time.perf_counter() - start)
        reference = cycles[0].reports if cycles else None
        cycles.append(run_cycle(workload, prepared, seed, workdir, ledger, reference))
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if len(cycles) >= MIN_CYCLES and now - began + longest > seconds:
            break
    values, breakdown = metrics.end_to_end(workload, prepared, setups, cycles, ledger)
    report = {
        "windows": {which: len(pairs) for which, pairs in prepared.pairs.items()},
        "setup_s": setups,
        "cycles": [{"wall_s": c.wall_s, "train_s": c.train_s, "analyze_s": c.analyze_s,
                    "mse_ratio": c.mse_ratio} for c in cycles],
        "per_mechanism": breakdown,
    }
    return ledger, values, report


def measure_traced(workload, seed, workdir, spans_path):
    """Untraced and traced cycles in turn, starting and ending untraced.

    Per-layer metrics come from the first traced cycle. The trace overhead
    is the median traced cycle time over the median untraced one: single
    cycles differ by more than the overhead when the machine changes speed.
    """
    import metrics
    import tracing
    from workloads import Ledger, run_cycle, set_up, warm_up

    ledger = Ledger()
    warm_up(workload, set_up(workload, seed, workdir, ledger), seed)

    def timed_cycle(reference=None):
        gc.collect()
        start = time.perf_counter()
        prepared = set_up(workload, seed, workdir, ledger)
        cycle = run_cycle(workload, prepared, seed, workdir, ledger, reference)
        return prepared, cycle, start, time.perf_counter() - start

    _, first, _, untraced_s = timed_cycle()
    untraced, traced, kept = [untraced_s], [], None
    for _ in range(TRACED_CYCLES):
        originals = tracing.entry_point_objects()
        tracer = tracing.Tracer()
        tracer.install()
        ledger.tracer = tracer
        try:
            prepared, _, traced_start, traced_s = timed_cycle(first.reports)
        finally:
            ledger.tracer = None
            tracer.uninstall()
        restored = tracing.entry_point_objects()
        if restored.keys() != originals.keys() or any(
                restored[key] is not originals[key] for key in originals):
            raise RuntimeError("tracing wrappers were not removed")
        traced.append(traced_s)
        if kept is None:
            kept = tracer, prepared, traced_start
        untraced.append(timed_cycle(first.reports)[-1])

    tracer, prepared, traced_start = kept
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    values, top, rows = metrics.per_layer(tracer, ledger, workload, prepared, overhead)
    tracer.write_spans(spans_path, traced_start)
    report = {
        "windows": {which: len(pairs) for which, pairs in prepared.pairs.items()},
        "untraced_cycle_s": untraced,
        "traced_cycle_s": traced,
        "spans": len(tracer),
        "spans_file": spans_path.name,
        "top_self_time": top,
        "baseline_rows": rows,
    }
    return ledger, values, report


def main(argv=None):
    args = parse_args(argv)
    package_dir = ROOT / "src" / "spectral_attn"
    if not (package_dir / "__init__.py").is_file():
        print(f"error: no spectral_attn sources at {package_dir}", file=sys.stderr)
        return 2
    # One BLAS thread: the matrices are at most 128 wide, and idle BLAS
    # threads spinning on a 2-core machine only add noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import metrics
    import numpy as np
    import spectral_attn
    from workloads import WORKLOADS

    if Path(spectral_attn.__file__).resolve().parent != package_dir:
        print(f"error: imported spectral_attn from {spectral_attn.__file__}, "
              f"not from {package_dir}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    whys, end_to_end_units, per_layer_units = declared()

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            ledger, values, details = measure_traced(workload, args.seed, workdir,
                                                     OUT / f"{stem}-spans.csv")
            units = per_layer_units
        else:
            ledger, values, details = measure(workload, args.seed, args.seconds, workdir)
            units = end_to_end_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not ledger.failed,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": result_metrics(values, units),
    }
    report = {
        "workload": workload.name,
        "why": whys[workload.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "data": {"variates": workload.variates, "length": workload.length,
                 "ratios": workload.ratios},
        "mechanisms": workload.mechanisms,
        "model": workload.model,
        "load": "closed loop, one caller, batch-1 forecasts, one process",
        "machine": machine(np),
        "predictions": metrics.predictions(workload.name),
        "failures": ledger.messages,
        **details,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
