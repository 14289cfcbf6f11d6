#!/usr/bin/env python3
"""Run one workload of the chebauth benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload login-mix --seed 1 --seconds 15 --trace 0

Workloads: login-mix, guess-scan, cli-runs (see perfbench/README.md). The
library is imported from ``src/`` of the checkout this file sits in; the
run fails with exit code 2 when there is none.

Standard output ends with two JSON lines. The first is the run report: the
run's metadata (Python version, kernel backend, nproc, seed), every
workload-specific metric by name with its unit, the sample counts, and, in
a traced run, the tracing overhead. The last line is the result object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced measurement.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

import tracer
from speed import REFERENCE_US, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent  # as workloads.ROOT, which needs src/ importable
SETUP_REPEATS = 5
IMPORT_PAIRS = 5

#: With --trace 1, half of the run is measured untraced and half traced; the
#: difference between the halves is the reported tracing overhead.
TRACED_SHARE = 0.5

PROTOCOL_SPANS = ("server_setup", "registration", "user_login_start", "server_handle_login",
                  "user_handle_response", "change_password", "run_login_session")
PRIMITIVE_SPANS = ("hash_h", "hash_H", "xor", "concat")


def end_to_end(workload, setup_s: list, measurement) -> dict:
    """The bounded metrics: times scaled to the reference host speed (speed.py)."""
    from workloads import percentiles  # needs src/ on sys.path, as in run()

    p50, p90 = percentiles(measurement.scaled_us(workload.PRIMARY))
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "throughput_per_s": (measurement.completed / measurement.scaled_s, "1/s"),
        "latency_p50_us": (p50, "us"),
        "latency_p90_us": (p90, "us"),
    }


def per_layer(tracers, import_ms: float, cli_report_bytes: float) -> dict:
    """Per-layer metrics of the traced measurement ``tracers[-1]``.

    ``adversary.Dictionary.from_file.ms`` also counts the traced set-up in
    ``tracers[0]``, where guess-scan loads its dictionary.
    """
    t = tracers[-1]
    metrics = {}
    calls = t.calls("chaotic.cheb_eval")
    metrics["chaotic.cheb_eval.calls"] = (calls, "count")
    metrics["chaotic.cheb_eval.self_us"] = (t.self_ns("chaotic.cheb_eval") / 1e3, "us")
    mean_us = t.total_ns("chaotic.cheb_eval") / calls / 1e3 if calls else 0.0
    metrics["chaotic.cheb_eval.mean_us"] = (mean_us, "us")
    for name in PRIMITIVE_SPANS:
        metrics[f"primitives.{name}.calls"] = (t.calls(f"primitives.{name}"), "count")
        metrics[f"primitives.{name}.self_us"] = (t.self_ns(f"primitives.{name}") / 1e3, "us")
    metrics["primitives.BitString.calls"] = (t.calls(tracer.BITSTRING), "count")
    for name in PROTOCOL_SPANS:
        metrics[f"protocol.{name}.self_us"] = (t.self_ns(f"protocol.{name}") / 1e3, "us")
    handled = t.calls("protocol.server_handle_login")
    metrics["protocol.server_accept_share"] = (
        t.calls(tracer.SERVER_ACCEPTED) / handled if handled else 0.0, "ratio")
    metrics["adversary.guess_predicate.calls"] = (t.calls("adversary.guess_predicate"), "count")
    metrics["adversary.guess_predicate.self_us"] = (t.self_ns("adversary.guess_predicate") / 1e3, "us")
    metrics["adversary.offline_guess.self_us"] = (t.self_ns("adversary.offline_guess") / 1e3, "us")
    loads = sum(x.calls(tracer.DICTIONARY_FROM_FILE) for x in tracers)
    load_ns = sum(x.total_ns(tracer.DICTIONARY_FROM_FILE) for x in tracers)
    metrics["adversary.Dictionary.from_file.ms"] = (load_ns / loads / 1e6 if loads else 0.0, "ms")
    mains = t.calls("cli.main")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.self_ms"] = (t.self_ns("cli.main") / mains / 1e6 if mains else 0.0, "ms")
    metrics["cli.report_bytes"] = (cli_report_bytes, "bytes")
    return metrics


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    # Imported here, not at the top: they import chebauth, which main() puts on sys.path.
    import workloads
    from chebauth import backend_name

    tally = workloads.Tally()
    probe = SpeedProbe()
    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    raw_setup_s, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts without the garbage of the one before
        probe.calibrate()
        probe.calibrate()
        position = probe.position
        start = perf_counter_ns()
        workload.setup(tally)
        raw_setup_s.append((perf_counter_ns() - start) / 1e9)
        probe.calibrate()
        probe.calibrate()
        setup_s.append(raw_setup_s[-1] * probe.scale_at(position))
    workloads.kernel_agreement(seed, tally)

    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "backend": backend_name,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
    if not trace:
        measurement = workload.measure(seconds, tally, probe)
        metrics = end_to_end(workload, setup_s, measurement)
        named = {**workload.named_metrics(measurement),
                 "setup_s": (statistics.median(raw_setup_s), "s")}
        report["samples"] = {kind: len(measurement.raw_us(kind)) for kind in measurement.samples}
    else:
        if workload_name == "cli-runs":
            workload.in_process = True
        untraced = workload.measure(seconds * (1 - TRACED_SHARE), tally, probe)
        setup_tracer, measure_tracer = tracer.Tracer(), tracer.Tracer()
        with setup_tracer:
            workload.setup(tally)
        with measure_tracer:
            traced = workload.measure(seconds * TRACED_SHARE, tally, probe)
        is_cli = workload_name == "cli-runs"
        import_ms = workload.import_ms(IMPORT_PAIRS) if is_cli else 0.0
        report_bytes = statistics.median(workload.report_bytes) if is_cli else 0
        metrics = per_layer([setup_tracer, measure_tracer], import_ms, report_bytes)
        before = end_to_end(workload, setup_s, untraced)
        after = end_to_end(workload, setup_s, traced)
        report["trace_overhead"] = {
            name: {"untraced": before[name][0], "traced": after[name][0],
                   "traced_minus_untraced": after[name][0] - before[name][0], "unit": before[name][1]}
            for name in ("throughput_per_s", "latency_p50_us", "latency_p90_us")
        }
        named = workload.named_metrics(untraced)
        report["samples"] = {kind: len(untraced.raw_us(kind)) for kind in untraced.samples}

    report["metrics"] = as_json(named)
    report["speed"] = {"reference_us": REFERENCE_US,
                       "calibration_median_us": statistics.median(probe.samples_us),
                       "calibrations": len(probe.samples_us)}
    report["attempted"] = tally.attempted
    report["failed"] = tally.failed
    report["failed_share"] = tally.failed / tally.attempted
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": as_json(metrics),
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chebauth benchmark: run one workload")
    parser.add_argument("--workload", required=True, choices=("login-mix", "guess-scan", "cli-runs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "chebauth" / "__init__.py").is_file():
        print(f"perfbench: no chebauth sources at {ROOT / 'src' / 'chebauth'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
