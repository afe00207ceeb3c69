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
    "random": "beff60c374bd5fd9b44689bd690299e7547c2e605dd4a82ed4842acc3652730e",
    "both": "423d42ebeef58d479112d9f5a4622956c4fe68ef8fb8ea92510cc6391573a45b",
}


@pytest.mark.parametrize("strategy", sorted(DIGESTS))
def test_report_digest_is_pinned(corpus, strategy):
    cfg = CampaignConfig(seed=42, iterations=60, modes=("eager", "graph"), strategy=strategy)
    text = render_report(run_campaign(corpus, cfg))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[strategy]
