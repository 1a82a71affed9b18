"""Golden digests pinning run bytes at a size where donor scoring works.

``tests/test_web_stack_golden.py`` pins book/5 and auto/4, where §5
case-2 donor scoring and the IceQ similarity matrix barely run. This
file pins the SHA-256 of the canonical export (``run_result_to_dict``
dumped with sorted keys) of every domain at 20 interfaces, seed 0,
with the query cache on, plus airfare/20 with provenance recording.
The provenance export carries every ``MatchExplanation``'s LabelSim and
DomSim floats, so a similarity kernel that drifts by one ulp anywhere
changes a digest.

The digests were recorded once and are held fixed: a rewrite of the
similarity or donor-scoring kernels must leave every one unchanged. To
re-record after an intentional change of run bytes, run this file as a
script (``PYTHONPATH=src python tests/test_kernel_golden.py``) and
paste its output over ``GOLDEN``.
"""

import hashlib
import json

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import run_result_to_dict
from repro.obs import ObsConfig
from repro.perf import CacheConfig

DOMAINS = ("airfare", "auto", "book", "job", "realestate")
N_INTERFACES = 20
SEED = 0


def digest(payload) -> str:
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_digest(domain: str, obs=None) -> str:
    dataset = build_domain_dataset(domain, N_INTERFACES, SEED)
    config = WebIQConfig(cache=CacheConfig(), obs=obs)
    return digest(run_result_to_dict(WebIQMatcher(config).run(dataset)))


def cases():
    for domain in DOMAINS:
        yield f"{domain}/20/cache"
    yield "airfare/20/cache/provenance"


def case_digest(case: str) -> str:
    domain = case.split("/")[0]
    obs = ObsConfig(provenance=True) if case.endswith("provenance") else None
    return run_digest(domain, obs)


GOLDEN = {
    'airfare/20/cache': '56066294b68305f54c32834c84af0fed566d4214492e62589843d348bf197805',
    'auto/20/cache': 'c5293402539999e3fd00e576b759d386d4f6d7cfd1b0d01fe446c157225f78d1',
    'book/20/cache': 'af904cce802dc8092f4a00cefaaf5477a2aaf2546e82352d4d548f5f24863ad0',
    'job/20/cache': '7059f42d22273b0dfc50f84de9066cabfbd4237009acc46e746763ceca9a03ac',
    'realestate/20/cache': '340fd6c6bd8d34c4225241753f98b6b47e424f5136e09962feb13fe01238d26d',
    'airfare/20/cache/provenance': 'f0b4d3f0571ae75a8c628d4d63124ecd3118e32a2cb9fe9510d7ccc9464894a2',
}


@pytest.mark.parametrize("case", list(cases()))
def test_run_digest_is_pinned(case):
    assert case_digest(case) == GOLDEN[case]


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    for case in cases():
        print(f"    {case!r}: {case_digest(case)!r},")
