"""gkpphase benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sweep-grid, sweep-cold, synth, magic-compare (see NOTES.md), or
`all` to run each in its own process.  Run from the root of a checkout; the
program is imported from its src directory.

Standard output: a machine record, one line per named metric (value, unit,
median, tail percentile where at least ten samples lie beyond it, sample
count), and as the last line one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a traced
set-up plus one traced cycle, and an untraced cycle gives the overhead.

Exit code 0 when every output checked matches the reference, 1 when one
does not, 2 when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# (span, field, unit, better); the metric is named "<span>.<field>".
PER_LAYER = (
    ("fock.gkp_codeword", "calls", "count", "lower"),
    ("fock.gkp_codeword", "busy_s", "s", "lower"),
    ("fock.orthonormalize", "busy_s", "s", "lower"),
    ("fock.pauli_profiles", "calls", "count", "lower"),
    ("fock.pauli_profiles", "busy_s", "s", "lower"),
    ("fock.phase_profile", "busy_s", "s", "lower"),
    ("fock.q_eigensystem", "calls", "count", "lower"),
    ("fock.q_eigensystem", "misses", "count", "lower"),
    ("fock.q_eigensystem", "busy_s", "s", "lower"),
    ("channel.engine_build", "calls", "count", "lower"),
    ("channel.engine_build", "self_s", "s", "lower"),
    ("channel.pauli_expectations", "calls", "count", "lower"),
    ("channel.pauli_expectations", "busy_s", "s", "lower"),
    ("channel.sweep", "points", "count", "higher"),
    ("channel.sweep", "failed", "count", "lower"),
    ("channel.sweep", "self_s", "s", "lower"),
    ("channel.vacuum", "self_s", "s", "lower"),
    ("analytic.vacuum_posterior_grid", "calls", "count", "lower"),
    ("analytic.vacuum_posterior_grid", "busy_s", "s", "lower"),
    ("opcache.get", "calls", "count", "lower"),
    ("opcache.get", "hits", "count", "higher"),
    ("opcache.get", "bytes", "B", "lower"),
    ("opcache.get", "busy_s", "s", "lower"),
    ("opcache.put", "calls", "count", "lower"),
    ("opcache.put", "bytes", "B", "lower"),
    ("opcache.put", "busy_s", "s", "lower"),
    ("polyalg.reduce", "busy_s", "s", "lower"),
    ("polyalg.reduce", "branch_steps", "count", "lower"),
    ("polyalg.reduce", "boundary_forks", "count", "lower"),
    ("polyalg.lift_representation", "busy_s", "s", "lower"),
    ("polyalg.verify_gate", "busy_s", "s", "lower"),
    ("polyalg.multivariate_reduce", "busy_s", "s", "lower"),
    ("cli.dispatch", "self_s", "s", "lower"),
)


def seconds_of(sample):
    return sample.seconds


# Named end-to-end figures printed per workload: (metric, unit, operation
# kind or None for all, value of one sample).
NAMED = {
    "sweep-grid": [("sweep_points_per_s", "1/s", "grid", lambda s: s.info["points"] / s.seconds)],
    "sweep-cold": [("cold_sweep_s", "s", "uncached", seconds_of),
                   ("cold_sweep_cached_s", "s", "cached", seconds_of)],
    "synth": [(f"synth_{k}_s", "s", k, seconds_of)
              for k in ("l7", "l8_power", "l8_lift", "cs", "ccz")],
    "magic-compare": [("magic_op_s", "s", None, seconds_of)],
}


def tail(values):
    """Highest of a few percentiles with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, sorted(values)[math.ceil(p / 100.0 * n) - 1]
    return None


def say(workload: str, name: str, value, unit: str, values=None) -> None:
    line = f"[{workload}] {name} = {value:.6g} {unit}"
    if values is not None:
        t = tail(values)
        line += f"  (median of n={len(values)}"
        line += f"; p{t[0]:g} {t[1]:.6g})" if t else "; no percentile with 10 samples beyond)"
    print(line)


def openblas_threads(libdir: Path):
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_record(traced: bool) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    site = Path(numpy.__file__).resolve().parent.parent
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_numpy": openblas_threads(site / "numpy.libs"),
        "blas_threads_scipy": openblas_threads(site / "scipy.libs"),
        "env_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "traced": traced,
    }


def run_cycle(ctx, wl, samples: list) -> list:
    import workloads

    kinds = list(wl.kinds)
    ctx.rng.shuffle(kinds)
    cycle = []
    for kind in kinds:
        if ctx.tracer is not None:
            ctx.tracer.op = kind
        t0 = time.perf_counter()
        try:
            cycle.append(wl.op(ctx, kind))
        except Exception:  # an operation that crashes is a failed operation
            cycle.append(workloads.Sample(kind, time.perf_counter() - t0,
                                          problems=[traceback.format_exc(limit=3)]))
    samples.extend(cycle)
    return cycle


def setup_phase(ctx, wl, repeats: int) -> tuple[list[float], list[str]]:
    import workloads

    times, problems = [], []
    if wl.in_process:
        seconds, import_s, probs = workloads.in_process_setup(wl, ctx.tracer)
        times.append(seconds)
        problems += probs
        ctx.import_s = import_s
        for _ in range(repeats - 1):
            rc, _s, _rss, out, err = ctx.run_child([str(HERE / "child.py"), "setup", wl.name])
            if rc != 0:
                problems.append(f"set-up child exit {rc}: {err[-300:]}")
                continue
            probe = json.loads(out.splitlines()[-1])
            times.append(probe["setup_s"])
            problems += probe["problems"]
    else:
        for _ in range(repeats):
            seconds, probs = wl.setup(ctx)
            times.append(seconds)
            problems += probs
    return times, problems


def per_layer_metrics(ctx, overhead: float) -> tuple[dict, list[dict]]:
    import spans

    procs = list(ctx.processes)
    if ctx.tracer is not None:
        procs.append({"pid": os.getpid(), "spans": ctx.tracer.spans, "import_s": ctx.import_s,
                      "missing": ctx.tracer.missing})
    totals = spans.layer_totals(procs)
    metrics = {}
    for span, fld, unit, _better in PER_LAYER:
        metrics[f"{span}.{fld}"] = {"value": totals.get(span, {}).get(fld, 0), "unit": unit}
    metrics["cli.import_s"] = {"value": sum(p["import_s"] for p in procs), "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics, procs


def trace_report(name: str, procs: list[dict], wl) -> None:
    import spans

    import workloads

    children = [p for p in procs if p["pid"] != os.getpid()]
    where = "the benchmark process" if wl.in_process else f"{len(children)} child CLI processes"
    pool = ("pool workers of --workers > 1 are not traced" if workloads.COLD_WORKERS > 1
            else "sweeps run at --workers 1, so no pool workers exist")
    print(f"[{name}] trace covers {where}; {pool}")
    missing = sorted({m for p in procs for m in p["missing"]})
    if missing:
        print(f"[{name}] trace: wrappers not installed (attribute gone): {', '.join(missing)}")
    for op in ("setup", *wl.kinds):
        for span, row in sorted(spans.layer_totals(procs, op).items()):
            extra = " ".join(f"{k}={v}" for k, v in row.items()
                             if k not in ("calls", "busy_s", "self_s"))
            print(f"[{name}] layer op={op} {span}: calls={row['calls']} busy={row['busy_s']:.4f}s"
                  f" self={row['self_s']:.4f}s {extra}".rstrip())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    import spans
    import workloads

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(ROOT, work, random.Random(seed), trace=trace)
        wl = workloads.WORKLOADS[name]()
        if trace and wl.in_process:
            ctx.tracer = spans.Tracer()
        setup, problems = setup_phase(ctx, wl, 1 if trace else workloads.SETUP_REPEATS)
        samples: list = []
        if trace:
            traced = run_cycle(ctx, wl, samples)
            if ctx.tracer is not None:
                ctx.tracer.uninstall()
            ctx.trace = False
            untraced = run_cycle(ctx, wl, samples)
            overhead = sum(map(seconds_of, traced)) / sum(map(seconds_of, untraced)) - 1.0
        else:
            # Cycles run while the next one, taking as long as the last,
            # would still end within --seconds; the first always runs.
            t0 = time.perf_counter()
            while True:
                c0 = time.perf_counter()
                run_cycle(ctx, wl, samples)
                now = time.perf_counter()
                if now - t0 + (now - c0) > seconds:
                    break
        peak_self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("machine " + json.dumps(machine_record(trace)))

        for s in samples:
            problems += s.problems
        failed = sum(1 for s in samples if s.problems)
        for p in problems[:20]:
            print(f"[{name}] CHECK FAILED: {p}", file=sys.stderr)

        by_kind = {k: [s for s in samples if s.kind == k] for k in wl.kinds}
        for k, ss in by_kind.items():
            print(f"[{name}] samples {k}: " + " ".join(f"{s.seconds:.4f}" for s in ss))
        if trace:
            metrics, procs = per_layer_metrics(ctx, overhead)
            trace_report(name, procs, wl)
            say(name, "trace.overhead_frac", overhead, "frac")
            with open(OUT / f"trace-{name}-seed{seed}.json", "w") as fh:
                json.dump({"workload": name, "seed": seed, "processes": procs}, fh)
        else:
            rss = ([peak_self_mb] if wl.in_process else
                   [statistics.median(s.rss_mb for s in by_kind[k]) for k in wl.kinds])
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "mix_s": {"value": sum(statistics.median(map(seconds_of, by_kind[k]))
                                       for k in wl.kinds), "unit": "s"},
                "peak_rss_mb": {"value": max(rss), "unit": "MB"},
            }
        say(name, "setup_s", statistics.median(setup), "s", setup)
        for metric, unit, kind, value_of in NAMED[name]:
            values = [value_of(s) for s in samples if kind is None or s.kind == kind]
            say(name, metric, statistics.median(values), unit, values)
        points = sum(s.info.get("points", 0) for s in samples)
        if points:
            dropped = sum(s.info["failed_points"] for s in samples)
            say(name, "sweep_failed_frac", dropped / points, "frac")
            print(f"[{name}] {dropped} of {points} sweep points failed the truncation checks"
                  " and were dropped from the output; the reference expects exactly these")
        if not trace:
            for key in ("mix_s", "peak_rss_mb"):
                say(name, key, metrics[key]["value"], metrics[key]["unit"])
        correct = not problems
        print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                          "metrics": metrics}))
        return correct
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-grid", "sweep-cold", "synth", "magic-compare", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gkpphase" / "__init__.py").is_file():
        print(f"error: no gkpphase package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        rc = 0
        for name in ("sweep-grid", "sweep-cold", "synth", "magic-compare"):
            rc = max(rc, subprocess.call([sys.executable, __file__, "--workload", name,
                                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                                          "--trace", str(args.trace)]))
        return rc
    return 0 if run_workload(args.workload, args.seed, args.seconds, bool(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
