"""The oxcim benchmark: one workload per run, untraced or traced.

    python3 benchmarks/run.py --workload hw-tnn-hrs --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, taken from one traced pass
over the workload's units after an untraced loop of the same length as an
end-to-end run, and the traced outputs must equal the untraced ones.
Spans of the traced pass are written to ``benchmarks/out/``.  Every time is
host time: the simulator does not model the array's own latency.

Set-up is timed as the import of ``oxcim`` in a fresh interpreter plus the
workload's own set-up in this process (corpus generation, image encoding
and ``weightfile.load_network``), repeated ``SETUP_REPEATS`` times; the
median is reported.  ``images_per_s`` is the median over the timed calls.
Both are host times rescaled to the reference host speed of
``calibration.py``; the raw host figures are printed on the ``# run``
line.  The exit code is 1 when a correctness gate fails and 2 when the
package sources are missing.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Single-threaded BLAS: the workloads measure threads=1, and the gates that
# compare thread counts must not see BLAS reductions split differently.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5


def metric_units():
    """Units of the end-to-end and the per-layer metrics, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _import_seconds():
    """Wall time of ``import oxcim`` in a fresh interpreter."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "t0 = time.perf_counter()\n"
            "import oxcim\n"
            "print(time.perf_counter() - t0)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _metadata():
    import numpy
    import scipy

    lines = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    lines += fh.read().count(b"\n")
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
                 "HEAD"], capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {v: os.environ[v] for v in BLAS_VARS},
        "src_py_lines": lines,
    }


def timed_loop(workload, state, seconds, calibration):
    """Repeat the units until ``seconds`` pass, running each at least once.

    A calibration sample precedes every call.  Returns per-call rates
    (items/s), the first output of every unit, and the items attempted and
    failed: a repeat whose output differs from the unit's first output
    fails for the items that moved.
    """
    rates, outputs = [], {}
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < workload.chunks or time.perf_counter() - start < seconds:
        k = i % workload.chunks
        calibration.sample()
        t0 = time.perf_counter()
        out = workload.run_unit(state, k)
        rates.append(workload.unit_items / (time.perf_counter() - t0))
        attempted += workload.unit_items
        if k in outputs:
            failed += workload.same(outputs[k], out)
        else:
            outputs[k] = out
        i += 1
    return rates, outputs, attempted, failed


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def run(workload, seed, seconds, trace):
    """Run one workload; returns the result object printed as JSON."""
    import calibration
    import tracing

    cal = calibration.Calibration()
    setup_times = []
    setup_tracer = tracing.Tracer()
    for _ in range(SETUP_REPEATS):
        cal.sample()
        import_s = _import_seconds()
        with setup_tracer if trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            state = workload.setup(seed)
            setup_times.append(import_s + time.perf_counter() - t0)
    workload.prepare(state)

    rates, outputs, attempted, failed = timed_loop(workload, state, seconds,
                                                   cal)
    report = {"workload": workload.name, "seed": seed,
              "calls": len(rates), "host_rate_quartiles": quartiles(rates),
              "host_setup_s": setup_times, "host_speed": cal.speed(),
              "calibration_samples": len(cal.rates)}
    if trace:
        tracer = tracing.Tracer()
        traced_rates = []
        with tracer:
            for k in range(workload.chunks):
                t0 = time.perf_counter()
                out = workload.run_unit(state, k)
                traced_rates.append(workload.unit_items
                                    / (time.perf_counter() - t0))
                attempted += workload.unit_items
                failed += workload.same(outputs[k], out)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_csv(os.path.join(
            OUT_DIR, f"{workload.name}-seed{seed}.spans.csv"))
        overhead = 100.0 * (statistics.median(rates)
                            / statistics.median(traced_rates) - 1.0)
        metrics = tracing.layer_metrics(
            tracing.SpanIndex(setup_tracer.spans),
            tracing.SpanIndex(tracer.spans), workload.items, overhead)
        report["spans"] = len(tracer.spans)
    gate_attempted, gate_failed, info = workload.gates(state, outputs, seed)
    attempted += gate_attempted
    failed += gate_failed
    report["gates"] = {"attempted": gate_attempted, "failed": gate_failed,
                       **info}
    if not trace:
        metrics = {
            "images_per_s": statistics.median(rates) / cal.speed(),
            "setup_s": statistics.median(setup_times) * cal.speed(),
            "agreement_pct": workload.agreement_pct(state, outputs),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = metric_units()[trace]
    if set(metrics) != set(units):
        raise RuntimeError("metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print("# run " + json.dumps(report, default=float))
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oxcim", "__init__.py")):
        print(f"error: no oxcim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import oxcim

    if os.path.dirname(os.path.dirname(os.path.abspath(oxcim.__file__))) \
            != SRC:
        print(f"error: imported oxcim from {oxcim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    print("# meta " + json.dumps(_metadata()))
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                 args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
