"""Pinned output digests: a performance change must not move a byte.

The DITL digest was recorded on commit ``ac78091`` (before selection
became one pass) and nothing a campaign changes reaches it.  The
campaign digest was re-recorded when the per-pair, per-resolver and
per-selector streams became counter-based (PR 24; ``8d20f5bf…0d94d``
was the Mersenne streams' value, same 1 320 rows).  A change that means to alter
what the simulator computes — a new RNG, a selector fix that bites at
these sizes — re-records them and says so; a change that claims to be
output-neutral must leave them alone.
"""

import hashlib

from repro.core.experiment import run_combination
from repro.passive import generate_ditl_trace

DITL_12_SHA256 = "218d79800c5de092f23f156c10ad835f0da9e3394f5c1961db0eab6c9064f5b6"
CAMPAIGN_4B_40_SHA256 = (
    "02de71b4f762ddfa90303aebb7bb7e8e810028688660e8c1ec2b2ee6f7a023eb"
)


def test_ditl_trace_records_are_pinned():
    trace = generate_ditl_trace(num_recursives=12, seed=20170412)
    digest = hashlib.sha256()
    for record in trace.records:
        digest.update(
            f"{record.timestamp!r}|{record.recursive}|{record.server_id}\n".encode()
        )
    assert len(trace.records) == 5970
    assert digest.hexdigest() == DITL_12_SHA256


def test_4b_campaign_store_is_pinned():
    # No sort here: ``measure`` hands the store back in canonical order.
    store = run_combination("4B", num_probes=40, seed=20170412).run.store
    digest = hashlib.sha256()
    for row in store.iter_rows():
        digest.update(repr(row).encode())
    assert len(store) == 1320
    assert digest.hexdigest() == CAMPAIGN_4B_40_SHA256
