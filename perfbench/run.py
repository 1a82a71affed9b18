"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload batch-5x20 --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``batch-5x20``       five domains x 20 interfaces, one domain run per op
- ``registry-ingest``  persisted registry adds, one add per op
- ``service-mixed``    one closed-loop client driving a MatchingService

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; its times are in reference seconds, wall times scaled by the
host speed sampled while they ran (``hostspeed.py``). With ``--trace 1`` it installs the tracing wrappers, runs the
set-up and one unit traced, reports the per-layer metrics (with
``trace.overhead_s``, the estimated cost of the wrappers) and writes the
spans to ``.bench_build/perfbench/``. Report lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import hostspeed  # noqa: E402
    import oracle  # noqa: E402 — needs src/ on the path
    import spans  # noqa: E402
    import workloads  # noqa: E402
except ModuleNotFoundError as exc:
    raise SystemExit(f"perfbench: no program to measure under {ROOT}/src: "
                     f"{exc}") from exc

#: the untraced run's metrics, in BENCHMARK.json order, with units
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "f1": "ratio",
    "sim_overhead_s": "s",
    "peak_rss_mb": "MB",
}

#: set-up is repeated at least this often, and until this long is spent:
#: a set-up of a millisecond otherwise lands in whichever of the host's
#: fast or slow periods the run happens to start in
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0


def timed_setup(workload, speed):
    """Median set-up time, in reference seconds, over repeats; returns it
    and the last inputs."""
    times = []
    spent = 0.0
    while len(times) < SETUP_REPEATS or spent < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        inputs = workload.setup()
        end = time.perf_counter()
        spent += end - start
        times.append((end - start) * speed.factor(start, end))
    return statistics.median(times), inputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(out, setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(out.walls),
        "f1": statistics.fmean(out.f1s) if out.f1s else 0.0,
        "sim_overhead_s": statistics.median(out.sim_seconds),
        "peak_rss_mb": rss_mb,
    }


def issue_extras(name: str, out) -> dict:
    """Metrics printed in the report but not gated in BENCHMARK.json:
    they are zero on some workload, or spread wider than any bound
    across seeds (the latency percentiles)."""
    extras = {
        "failed_share": (out.failed / out.attempted, "ratio"),
        "ops_raw_s": (out.raw_seconds, "s"),
        "host.speed": (out.speed.mean(), "ratio"),
        "request_s.p50": (workloads.percentile(out.latencies, 0.5), "s"),
        "request_s.p90": (workloads.percentile(out.latencies, 0.9), "s"),
    }
    if name == "registry-ingest":
        extras["add_s.p50"] = (workloads.percentile(out.latencies, 0.5), "s")
        extras["add_s.p90"] = (workloads.percentile(out.latencies, 0.9), "s")
    if name == "service-mixed":
        extras["request_s.p95"] = (
            workloads.percentile(out.latencies, 0.95), "s")
        for key in ("raised", "mismatched", "diverged", "own_warm_mismatched",
                    "law_violations", "unexplained"):
            extras[f"service.{key}"] = (out.counts.get(key, 0), "count")
    return extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    hostspeed.pin_to_one_cpu()
    try:
        if args.trace:
            metrics, extras, out = traced_run(workload, args.seed)
        else:
            metrics, extras, out = untraced_run(workload)
    finally:
        shutil.rmtree(workloads.WORKDIR, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{out.attempted} operations, {out.failed} failed, "
          f"{len(out.latencies)} latency samples, {len(out.walls)} units")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name:<44} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced_run(workload):
    with hostspeed.HostSpeed() as speed:
        setup_s, inputs = timed_setup(workload, speed)
        out = workloads.Outcome(speed=speed)
        for index in range(workload.units):
            workload.unit(inputs, index, out)
    rss = peak_rss_mb()
    workload.finish(out)
    values = end_to_end(out, setup_s, rss)
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, issue_extras(workload.name, out), out


def traced_run(workload, seed: int):
    costs = spans.wrapper_costs()
    recorder = spans.install()
    try:
        recorder.active = True
        inputs = workload.setup()
        recorder.active = False
        out = workloads.Outcome(recorder=recorder)
        workload.unit(inputs, 0, out)
    finally:
        recorder.restore()
    workload.finish(out)
    recorder.write(os.path.join(
        oracle.OUTPUT_DIR, f"spans-{workload.name}-seed{seed}.json"))
    extra = dict(out.counts)
    extra["trace_overhead_s"] = recorder.overhead_s(costs)
    values = spans.layer_values(recorder, extra)
    metrics = {name: (values[name], unit)
               for name, unit in spans.PER_LAYER_UNITS.items()}
    return metrics, {}, out


if __name__ == "__main__":
    sys.exit(main())
