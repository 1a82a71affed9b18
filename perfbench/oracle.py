"""Correctness oracle: every operation's payload against its reference.

The payload is the one ``tests/test_perf_equivalence.py`` compares:
acquired instances per attribute, the clusters, and P/R/F-1. An
operation whose payload digest differs from its reference digest is a
failed operation.

References:

- ``batch-5x20``: digests recorded per shipped dataset seed in
  ``digests.json`` (``record_digests.py`` writes them from cold,
  uncached runs).
- ``service-mixed``: digests, also in ``digests.json``, of cold
  standalone runs of every (domain, n_interfaces, seed) the stream can
  request, with the query cache on. On top of that each served request
  is replayed standalone from its parent epoch's warm state, the
  service's own equivalence oracle (see ``workloads.ServiceMixed``).
- ``registry-ingest`` has no payload digest: ``workloads.RegistryIngest``
  checks the induced matching against batch IceQ and the saved store's
  round trip instead.

The shipped digests do not move with the program under test: a change
that alters a payload fails the oracle until the digests are recorded
again on purpose (``record_digests.py``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Any, Dict, Iterable, Sequence

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import dataset as dataset_module
from repro.perf import CacheConfig

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS_PATH = os.path.join(HERE, "digests.json")
#: scratch registries and span files
OUTPUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def ref_key(domain: str, n_interfaces: int, seed: int) -> str:
    return f"{domain}/{n_interfaces}/{seed}"


def payload(dataset, clusters: Iterable[Sequence], metrics: Sequence) -> Dict[str, Any]:
    """The equivalence payload of one run over ``dataset``.

    ``clusters`` are lists of ``[interface_id, attribute]`` member keys;
    ``metrics`` is (precision, recall, f1, n_predicted, n_truth, n_correct).
    """
    return {
        "instances": [
            [interface.interface_id, attribute.name, list(attribute.acquired)]
            for interface in dataset.interfaces
            for attribute in interface.attributes
        ],
        "clusters": sorted(sorted([list(key) for key in members])
                           for members in clusters),
        "metrics": list(metrics),
    }


def payload_of_result(dataset, result) -> Dict[str, Any]:
    m = result.metrics
    return payload(
        dataset,
        ([member.key for member in cluster.members]
         for cluster in result.match_result.clusters),
        (m.precision, m.recall, m.f1, m.n_predicted, m.n_truth, m.n_correct),
    )


def payload_of_export(dataset, export: Dict[str, Any]) -> Dict[str, Any]:
    m = export["metrics"]
    return payload(
        dataset, export["clusters"],
        (m["precision"], m["recall"], m["f1"], m["n_predicted"],
         m["n_truth"], m["n_correct"]),
    )


def canonical(body: Dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def digest(body: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical(body).encode("utf-8")).hexdigest()


def cold_digest(domain: str, n_interfaces: int, seed: int, *,
                cache: bool) -> str:
    """Digest of a fresh standalone run (no warm state)."""
    dataset = dataset_module.build_domain_dataset(domain, n_interfaces, seed)
    config = WebIQConfig(cache=CacheConfig() if cache else None)
    result = WebIQMatcher(config).run(dataset)
    return digest(payload_of_result(dataset, result))


@functools.lru_cache(maxsize=None)
def load_shipped() -> Dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]
