"""Report bytes pinned across commits.

A campaign report is a pure function of (config, corpus), so its sha256 at
a fixed config must not change unless a commit means to change behaviour.
A speed-up that alters rng consumption or a draw shows here at once. When a
commit changes behaviour on purpose, it updates these digests and says so.
"""

import hashlib

import pytest

from opfuzz.orchestrator import CampaignConfig, render_report, run_campaign

DIGESTS = {
    "guided": "5e971e0c21bdf75c9ea692e56c3808cd3bf30f76bf0eec27c83b8baf4a9d8138",
    "random": "c92b4eb66348e29d4b795c9c4f9a5d17754746c50bc9201e469de2c88bf2b805",
    "both": "e16c5c2f39169083b81c3a96e09d3472282d85415e5baa9f16a102897e9f9d10",
}


@pytest.mark.parametrize("strategy", sorted(DIGESTS))
def test_report_digest_is_pinned(corpus, strategy):
    cfg = CampaignConfig(seed=42, iterations=60, modes=("eager", "graph"), strategy=strategy)
    text = render_report(run_campaign(corpus, cfg))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[strategy]
