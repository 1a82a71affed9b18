"""Record the shipped reference digests in ``digests.json``.

- ``batch``: the payload of a cold, uncached run of each domain at 20
  interfaces, for every dataset seed in the batch pool.
- ``service``: the payload of a cold standalone run, with the query
  cache on, of every (domain, n_interfaces, seed) the ``service-mixed``
  stream can request; each is checked against the uncached run first.

Re-record only when a change is meant to alter matching results, and
say so in that change::

    python3 perfbench/record_digests.py            # both parts
    python3 perfbench/record_digests.py service    # one part
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from repro.datasets import DOMAINS  # noqa: E402


def batch() -> dict:
    digests = {}
    for seed in range(workloads.BATCH_SEED_POOL):
        for domain in DOMAINS:
            key = oracle.ref_key(domain, workloads.BATCH_INTERFACES, seed)
            digests[key] = oracle.cold_digest(
                domain, workloads.BATCH_INTERFACES, seed, cache=False)
        print(f"batch seed {seed} recorded", flush=True)
    return digests


def service() -> dict:
    digests = {}
    for domain in DOMAINS:
        for size in workloads.SERVICE_SIZES:
            for seed in workloads.SERVICE_DATASET_SEEDS:
                cached = oracle.cold_digest(domain, size, seed, cache=True)
                if cached != oracle.cold_digest(domain, size, seed,
                                                cache=False):
                    raise SystemExit(f"{domain}/{size}/{seed}: the query "
                                     "cache changes the payload")
                digests[oracle.ref_key(domain, size, seed)] = cached
        print(f"service {domain} recorded", flush=True)
    return digests


def main(argv=None) -> int:
    parts = (argv if argv is not None else sys.argv[1:]) or ["batch", "service"]
    digests = oracle.load_shipped() if os.path.exists(oracle.DIGESTS_PATH) \
        else {}
    for part in parts:
        digests.update({"batch": batch, "service": service}[part]())
    with open(oracle.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
