"""Self-test of the benchmark on tiny configurations of each workload.

    python3 perfbench/selftest.py

Checks two things and exits 1 if either fails:

1. every metric BENCHMARK.json names is emitted, with its unit, by the
   untraced and the traced run of each workload, and the report carries
   the workload's extra metrics;
2. the oracle turns a corrupted copy of a payload (one acquired instance
   dropped) into a failed operation and an incorrect run; on
   ``service-mixed`` both for the first request, which runs cold, and
   for the last, which runs warm. On ``service-mixed`` a warm path that
   seeds wrong answers makes the run incorrect too.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.perf.cache import CachePreload  # noqa: E402
from repro.registry.store import RegistryStore  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

LATENCY = {"failed_share", "request_s.p50", "request_s.p90"}
EXTRAS = {
    "batch-5x20": LATENCY,
    "registry-ingest": LATENCY | {"add_s.p50", "add_s.p90"},
    "service-mixed": LATENCY | {"request_s.p95", "service.raised",
                                "service.mismatched", "service.diverged",
                                "service.law_violations"},
}


SERVICE_REQUESTS = 6


def uncached_reference(domain, n_interfaces, seed):
    return oracle.cold_digest(domain, n_interfaces, seed, cache=False)


def tiny(name):
    if name == "batch-5x20":
        return workloads.Batch(0, 1, domains=("book", "job"), n_interfaces=4,
                               reference=uncached_reference)
    if name == "registry-ingest":
        return workloads.RegistryIngest(0, 1, plan=(("book", 5), ("job", 5)))
    return workloads.ServiceMixed(0, 1, domains=("book", "job"), sizes=(4,),
                                  n_requests=SERVICE_REQUESTS,
                                  reference=uncached_reference)


def expect(condition, message, failures):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_emission(name, failures):
    metrics, extras, out = run.untraced_run(tiny(name))
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {key: unit for key, (_, unit) in metrics.items()}
    expect(got == wanted, f"{name}: end-to-end metrics and units", failures)
    expect(EXTRAS[name] <= set(extras), f"{name}: report extras", failures)
    expect(out.attempted > 0 and all(
        isinstance(value, (int, float)) for value, _ in metrics.values()),
        f"{name}: numeric values, {out.attempted} operations", failures)

    metrics, _, out = run.traced_run(tiny(name), 0)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {key: unit for key, (_, unit) in metrics.items()}
    expect(got == wanted, f"{name}: per-layer metrics and units", failures)
    expect(set(wanted) == set(spans.PER_LAYER_UNITS),
           f"{name}: per-layer table matches BENCHMARK.json", failures)


def drop_one_instance(body):
    """A copy of ``body`` with one acquired instance removed."""
    body = json.loads(json.dumps(body))
    for row in body["instances"]:
        if row[2]:
            row[2].pop()
            return body
    raise AssertionError("payload has no acquired instance to drop")


def corrupt_call(function, which):
    """``function`` whose ``which``-th result (from 1) loses an instance."""
    calls = []

    def corrupted(*args, **kwargs):
        body = function(*args, **kwargs)
        calls.append(1)
        return drop_one_instance(body) if len(calls) == which else body

    return corrupted


def corrupt_load(load):
    """``RegistryStore.load`` that drops one stored attribute instance."""

    def corrupted(cls, directory):
        store = load(directory)
        for position, (interface_id, views) in enumerate(store.interfaces):
            for index, view in enumerate(views):
                if view.instances:
                    views = list(views)
                    views[index] = dataclasses.replace(
                        view, instances=view.instances[:-1])
                    store.interfaces[position] = (interface_id, views)
                    return store
        raise AssertionError("registry has no instance to drop")

    return classmethod(corrupted)


def wrong(value):
    if isinstance(value, list):
        return []
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value * 2 + 1
    return value


def corrupt_apply(apply):
    """``CachePreload.apply`` that seeds every cached answer wrong."""

    def corrupted(self, cache_engine, validation_cache=None):
        broken = CachePreload(
            engine_entries=[(key, wrong(value))
                            for key, value in self.engine_entries],
            validation=self.validation)
        return apply(broken, cache_engine, validation_cache)

    return corrupted


def corruptions(name):
    """(label, patch) pairs: one acquired instance dropped from one
    operation's payload, or, on service-mixed, wrong warm answers."""
    if name == "batch-5x20":
        return [("first run", workloads.patched(
            oracle, "payload_of_result",
            corrupt_call(oracle.payload_of_result, 1)))]
    if name == "service-mixed":
        return [(f"{label} request", workloads.patched(
            oracle, "payload_of_export",
            corrupt_call(oracle.payload_of_export, which)))
            for label, which in (("cold first", 1),
                                 ("warm last", SERVICE_REQUESTS))] + [
            ("warm path", workloads.patched(
                CachePreload, "apply", corrupt_apply(CachePreload.apply)))]
    return [("stored store", workloads.patched(
        RegistryStore, "load", corrupt_load(RegistryStore.load)))]


def check_corruption(name, failures):
    _, _, clean = run.untraced_run(tiny(name))
    for label, patch in corruptions(name):
        with patch:
            _, _, out = run.untraced_run(tiny(name))
        # The warm request may already fail by a known defect; corrupted,
        # it must fail unexplained, so the run is no longer correct.
        unexplained = [o.counts.get("unexplained", 0) for o in (clean, out)]
        expect(clean.correct and not out.correct
               and out.failed >= max(clean.failed, 1)
               and unexplained[1] > unexplained[0],
               f"{name}: corrupting the {label} is caught "
               f"({clean.failed} -> {out.failed} failed, "
               f"{unexplained[0]} -> {unexplained[1]} unexplained)", failures)


def main() -> int:
    failures = []
    try:
        for name in workloads.WORKLOADS:
            check_emission(name, failures)
            check_corruption(name, failures)
    finally:
        shutil.rmtree(workloads.WORKDIR, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
