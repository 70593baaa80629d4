"""Benchmark of the e2el entity linker; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run generates its inputs from
the seed in a child process, loads them through the public loaders, runs
the workload closed-loop from one caller for at least S seconds, checks
every op's output and prints two JSON lines: a report (input digest and
shapes, thread count, workload metrics, and with --trace 1 the span table)
and, last, the result: ``{"correct", "attempted", "failed", "metrics"}``.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from traced passes over the ops for
S seconds, after one untraced pass that gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUPS = 5  # set-ups per run; setup_s is their median
# The kernel multiplies single vectors; on 2 cores one OpenBLAS thread ran a
# train-paper op in 11.8 s against 13.9 s with two.
BLAS_THREADS = 1


def generate(workload: str, seed: int, out: str, tiny: bool) -> str:
    """Write the inputs in a child process, so its memory stays out of peak RSS."""
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out", out] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["digest"]


def measure(w, seconds: float, min_ops: int, tracer=None) -> list[tuple]:
    """Closed loop of whole passes over the workload's ops, for `seconds`
    and at least `min_ops` ops; whole passes keep the mix of ops the same.

    Returns (label, seconds, ok, output) per op. With a tracer each op is
    recorded as an ``op`` span, so time no layer span covers is its self time.
    """
    records = []
    start = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        for label in w.op_labels():
            span = tracer.open("op") if tracer is not None else None
            t0 = time.perf_counter()
            out = w.run_op(label)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            records.append((label, dt, w.check_op(label, out), out))
    return records


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    """Run one workload; returns (report, result) dictionaries."""
    import resource

    import inputs
    import tracer as tracing
    import workloads

    profile = (inputs.TINY if tiny else inputs.PROFILES)[workload]
    directory = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(WORK, exist_ok=True)
    try:
        digest = generate(workload, seed, directory, tiny)
        setup_tracer = tracing.Tracer() if trace else None
        setup_times = []
        for _ in range(SETUPS):
            w = None  # free the previous set-up first, as a fresh process would
            gc.collect()
            w = workloads.WORKLOADS[workload](directory, profile, seed)
            if setup_tracer is not None:
                setup_tracer.install()
            t0 = time.perf_counter()
            try:
                w.setup()
            finally:
                if setup_tracer is not None:
                    setup_tracer.uninstall()
            setup_times.append(time.perf_counter() - t0)
        report = {"workload": workload, "seed": seed, "openblas_threads": BLAS_THREADS,
                  "inputs_sha256": digest, "input_shapes": w.shapes(),
                  "setup_s_each": setup_times}

        gc.collect()
        if not trace:
            records = measure(w, seconds, profile.min_ops)
            summary = w.summary(records)
            attempted = sum(w.attempted(r[0]) for r in records)
            failed = sum(w.attempted(r[0]) for r in records if not r[2])
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
                "tokens_per_s": (summary["tokens_per_s"], "tokens/s"),
            }
            report["workload_metrics"] = summary
        else:
            plain = measure(w, 0.0, 1)
            t = tracing.Tracer()
            with t:
                traced = measure(w, seconds, 1, tracer=t)
            records = plain + traced
            attempted = sum(w.attempted(r[0]) for r in records)
            failed = sum(w.attempted(r[0]) for r in records if not r[2])
            units = sum(w.units(r[0]) for r in traced)
            table = t.table()
            layers = tracing.layer_metrics(table, t.count, setup_tracer.table(), SETUPS, units)
            # both are whole passes, so their mean op times compare like for like
            layers["trace.overhead_ratio"] = (statistics.mean(r[1] for r in traced)
                                              / statistics.mean(r[1] for r in plain))
            layers["trace.unattributed_s"] = table["op"]["self_s"] / units
            metrics = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}
            report["unit"] = w.unit
            report["units_traced"] = units
            report["spans_per_unit"] = {name: {k: v / units for k, v in row.items()}
                                        for name, row in sorted(table.items())}
            report["setup_spans_per_setup"] = {
                name: {k: v / SETUPS for k, v in row.items()}
                for name, row in sorted(setup_tracer.table().items())}
            report["counters"] = dict(t.count)
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            with open(os.path.join(WORK, "traces", f"{workload}-{seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"setup": setup_tracer.spans, "measured": t.spans}, fh)
        report["ops_attempted"] = attempted
        report["ops_failed"] = failed
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": float(v), "unit": u}
                              for name, (v, u) in metrics.items()}}
        return report, result
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="e2el benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("train-paper", "annotate-toy", "threshold-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "e2el", "__init__.py")):
        print(f"error: no e2el sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
