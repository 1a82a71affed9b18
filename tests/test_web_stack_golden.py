"""Golden digests pinning the Web-stack composition across revisions.

Every other equivalence suite compares two layer configurations of the
*same* revision with each other. This one pins absolute bytes: the
SHA-256 of each run's canonical export (``run_result_to_dict`` dumped
with sorted keys), plus the bytes of a checkpoint journal, recorded once
and held fixed. A refactor of how the engine and source layers are
composed (entry observation, cache, transport observation, retry,
fault injection) must leave every digest unchanged.

The matrix covers two small datasets × {no cache, cache} × {no
resilience, fault rate 0, fault rate 0.2} × {obs off, ``ObsConfig()``},
plus one warm-started run and one ``kill_at=5`` + resume pair. A
second ``kill_at=5`` + resume pair runs with query budget 40 and probe
budget 5, which all three budgeted components exhaust, so the budget
spend, ``budgets_exhausted`` and ``attributes_skipped`` ledgers are
pinned inside the journal as well as in the export.

To re-record after an intentional change of run bytes, run this file as
a script (``PYTHONPATH=src python tests/test_web_stack_golden.py``) and
paste its output over ``GOLDEN``.
"""

import hashlib
import json
import os

import pytest

from repro.checkpoint import CheckpointConfig
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import run_result_to_dict
from repro.obs import ObsConfig
from repro.perf import CacheConfig
from repro.resilience import FaultProfile, ResilienceConfig
from repro.util.errors import PreemptionError

DATASETS = {"book": ("book", 5, 1), "auto": ("auto", 4, 2)}
FAULTS = {"nofault": None, "rate0": 0.0, "rate0.2": 0.2}
CACHES = {"nocache": None, "cache": CacheConfig}
OBS = {"noobs": None, "obs": ObsConfig}


def digest(payload) -> str:
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


#: the budget case's per-component caps: all three run dry
BUDGETS = {"surface_query_budget": 40, "attr_surface_query_budget": 40,
           "attr_deep_probe_budget": 5}


def config_for(fault, cache, obs, budgets=None, **extra) -> WebIQConfig:
    resilience = None
    if FAULTS[fault] is not None:
        resilience = ResilienceConfig(
            profile=FaultProfile(fault_rate=FAULTS[fault]),
            **(budgets or {}))
    make_cache, make_obs = CACHES[cache], OBS[obs]
    return WebIQConfig(
        resilience=resilience,
        cache=make_cache() if make_cache is not None else None,
        obs=make_obs() if make_obs is not None else None,
        **extra,
    )


def run(dataset_name, config, warm=None):
    domain, n_interfaces, seed = DATASETS[dataset_name]
    dataset = build_domain_dataset(domain, n_interfaces, seed)
    return WebIQMatcher(config).run(dataset, warm=warm)


def matrix_cases():
    for dataset_name in DATASETS:
        for fault in FAULTS:
            for cache in CACHES:
                for obs in OBS:
                    yield f"{dataset_name}/{fault}/{cache}/{obs}"


def matrix_digest(case: str) -> str:
    dataset_name, fault, cache, obs = case.split("/")
    return digest(run_result_to_dict(
        run(dataset_name, config_for(fault, cache, obs))))


def warm_digest() -> str:
    """A cold faulted run donates its cache content to a warm rerun."""
    config = config_for("rate0.2", "cache", "obs")
    donor = run("book", config)
    return digest(run_result_to_dict(
        run("book", config, warm=donor.cache_content)))


def journal_bytes(directory: str) -> str:
    """One digest over every journal file, in name order."""
    sha = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            sha.update(name.encode("utf-8") + b"\0" + handle.read())
    return sha.hexdigest()


def resume_digests(directory: str, budgets=None):
    """Kill at boundary 5, resume; digests of journal and resumed export."""
    def config(**checkpoint):
        return config_for("rate0.2", "cache", "noobs", budgets=budgets,
                          checkpoint=CheckpointConfig(directory, **checkpoint))

    try:
        run("book", config(kill_at=5))
    except PreemptionError:
        pass
    else:
        raise AssertionError("kill_at=5 did not preempt the run")
    killed = journal_bytes(directory)
    resumed = run("book", config(resume=True))
    return {
        "journal_at_kill": killed,
        "journal_after_resume": journal_bytes(directory),
        "resumed_export": digest(run_result_to_dict(resumed)),
    }


def budget_digest() -> str:
    """The budget case, run uninterrupted without a journal."""
    return digest(run_result_to_dict(
        run("book", config_for("rate0.2", "cache", "noobs",
                               budgets=BUDGETS))))


def checkpointed_budget_digest(directory: str) -> str:
    """The budget case, run uninterrupted with a journal."""
    return digest(run_result_to_dict(run("book", config_for(
        "rate0.2", "cache", "noobs", budgets=BUDGETS,
        checkpoint=CheckpointConfig(directory)))))


GOLDEN = {
    'book/nofault/nocache/noobs': 'f782e9074fa3ebecc01bea358c96a6e437c08ab6630e73332d75c7490425deca',
    'book/nofault/nocache/obs': '8514075794b819c3183488fda186e9474908586a008b2544870bd1988574eeab',
    'book/nofault/cache/noobs': '2eee01bfc8671fa0e3829b01f77b4b15338853f8692fe029310165466668ed28',
    'book/nofault/cache/obs': '29df28b16db12ebd72ad67c0fb40c2eac15bc8d61c79acf945bac7260c9fc35c',
    'book/rate0/nocache/noobs': 'cb156f406a57e21376eef8f704ff4046f64e814a2e7776de657fed06fbd35c95',
    'book/rate0/nocache/obs': '889999cdf0010cd6ab656f6ebb05a7989ad21a5d6a0d87561ca242ab4a94c907',
    'book/rate0/cache/noobs': 'e3303c1210bc699d49e7a361d3d87870a6f93ab36af1a3b9b7a073c546d8429c',
    'book/rate0/cache/obs': '67d60bc5ded46649ffa73e43c036d8cd7830b064c9f7e619512752efd95f5c55',
    'book/rate0.2/nocache/noobs': '0c9b20a17614a3fe63360f1651cccbe9dd9642d293ce10d503b1687185be5932',
    'book/rate0.2/nocache/obs': '8b23124c2cd08e7d5b67ee58797ee4ae29da7e6fb0bfb329f8e73131d02f611b',
    'book/rate0.2/cache/noobs': 'a65e363792d462b1a76ac3e71947f8ec183f3118a6f152030656467efcaafe10',
    'book/rate0.2/cache/obs': '11686758aece7e9372eb0a834ac91b2f4042b84a3143b03518b4d3d8c1f79139',
    'auto/nofault/nocache/noobs': '13581b8cee050563e1b51f8bcaac4cc68164d9a71bc8bc22e01b36b5f94564d6',
    'auto/nofault/nocache/obs': '4edea0df34091513c6264fc829c9db2724bbd812a5f08cd6c8b634d6d1151aae',
    'auto/nofault/cache/noobs': '659f7c9d77853b7dead8234d7e830070797297bf9b0eb3ab6ef7cc7d6b59ebd4',
    'auto/nofault/cache/obs': '36440d701b5b75dc370306328708cd2b2a960e392f7b41e5a78c90a22f827d14',
    'auto/rate0/nocache/noobs': 'e3ebd22c2efe5e7bbc6d3cf10f68975ef958b9acc4ecbbe538680b93f33a3d3e',
    'auto/rate0/nocache/obs': 'b2b2cb7cc16db82060de3f2b839b41717b8a121bc9f61e732a4ee457739e5c68',
    'auto/rate0/cache/noobs': 'cc9497b6c8643e346e24ec8fc1fdb6abe802e034101130ef2678883ed4c60a2f',
    'auto/rate0/cache/obs': '6d8d8390aa68e2f7e1696be924b3681c8e2cb4d15ddcfc99e9cccfda584115d1',
    'auto/rate0.2/nocache/noobs': 'ddeb704fe8202221cc2ba91ba80dc64d7f5b95937a47990062f3a952c4645015',
    'auto/rate0.2/nocache/obs': '347cd1b1219c07422e8be4da22f9f475fafeaea21306c76bd16ea4ad3fb90c00',
    'auto/rate0.2/cache/noobs': '60c8607590d1fd89f53de367fe66be524b66f8889146b2479179bd472961542b',
    'auto/rate0.2/cache/obs': '3704df57401ddde30e8e4edd5595d721c29883b98471bee40b72503c1ec5c14f',
    'warm': '26324a9734be5ee2a4fa8411f9cd95331679d53c29ccaba6b6fb68303d4dbca7',
    'resume/journal_at_kill': 'b53dc5565d3f080bb26cc55761b4dc83008cad068ee77eb1923cab7248c8b65f',
    'resume/journal_after_resume': '2523dcf79387365db4ccc5cec74e314146a174bdef3ed08cbde2f93498d4b30a',
    'resume/resumed_export': '03d61450797e2c34f3b705ede5c5a6a42973c74c557ea4aef4bde386693f7c2a',
    'budget/export': '5ebd088fab405c4d9bac61478cbf68c419a1cc316f712bffbab51a1f10054e1b',
    'budget/journal_at_kill': '84f4c106d8e9d183b6fa70d5aab0648bbdeca62b367945622885fb7b5ba11a4c',
    'budget/journal_after_resume': '482633825640794a4e956a6bc10f245b440883358c5e1cb64f1766c23f179f3f',
    'budget/resumed_export': 'a0460e6233ec23036e248a596dc2c1624813b944fa4bcd15dfefbc9604ff53dd',
}


@pytest.mark.parametrize("case", list(matrix_cases()))
def test_matrix_digest_is_pinned(case):
    assert matrix_digest(case) == GOLDEN[case]


def test_warm_preload_digest_is_pinned():
    assert warm_digest() == GOLDEN["warm"]


def test_kill_and_resume_bytes_are_pinned(tmp_path):
    got = resume_digests(str(tmp_path / "journal"))
    for key, value in got.items():
        assert value == GOLDEN[f"resume/{key}"], key


def test_budget_case_runs_every_budget_dry():
    result = run("book", config_for("rate0.2", "cache", "noobs",
                                    budgets=BUDGETS))
    degradation = result.degradation
    assert sorted(degradation.budgets_exhausted) == [
        "attr_deep", "attr_surface", "surface"]
    assert degradation.budget_spent_by_component == {
        "surface": 40, "attr_surface": 40, "attr_deep": 5}
    assert degradation.attributes_skipped


def test_budget_case_digest_is_pinned():
    assert budget_digest() == GOLDEN["budget/export"]


def test_budget_kill_and_resume_bytes_are_pinned(tmp_path):
    got = resume_digests(str(tmp_path / "journal"), budgets=BUDGETS)
    for key, value in got.items():
        assert value == GOLDEN[f"budget/{key}"], key
    assert got["resumed_export"] == checkpointed_budget_digest(
        str(tmp_path / "uninterrupted"))


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    import tempfile

    recorded = {case: matrix_digest(case) for case in matrix_cases()}
    recorded["warm"] = warm_digest()
    with tempfile.TemporaryDirectory() as scratch:
        for key, value in resume_digests(
                os.path.join(scratch, "journal")).items():
            recorded[f"resume/{key}"] = value
    recorded["budget/export"] = budget_digest()
    with tempfile.TemporaryDirectory() as scratch:
        for key, value in resume_digests(
                os.path.join(scratch, "journal"), budgets=BUDGETS).items():
            recorded[f"budget/{key}"] = value
    for key, value in recorded.items():
        print(f"    {key!r}: {value!r},")
