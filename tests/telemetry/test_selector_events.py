"""`selector_events_total` counts every family, not only the cache-less ones.

BIND, Unbound, PowerDNS and Windows used to override ``on_response``
(Unbound and Windows ``on_timeout`` too) without the base class's
counter, so the metric silently showed only random / round-robin /
sticky.  The observations are the oracle: in the testbed a resolution
is one zone's exchanges, so per family the answered attempts are the
``response`` events and the rest of ``attempts`` are ``timeout`` events.
"""

from collections import Counter

from repro.core.experiment import run_combination
from repro.netsim.latency import LatencyParameters
from repro.resolvers.population import DEFAULT_MIX
from repro.telemetry import Telemetry


def test_selector_events_match_attempts_for_every_family():
    telemetry = Telemetry.enabled_bundle()
    result = run_combination(
        "4B",
        telemetry=telemetry,
        num_probes=60,
        duration_s=600.0,
        seed=20170412,
        # Enough loss that every family also reports timeouts.
        latency_params=LatencyParameters(loss_rate=0.15),
    )

    counted = Counter()
    for sample in telemetry.registry.samples("selector_events_total"):
        counted[sample.labels["selector"], sample.labels["event"]] += int(sample.value)

    expected = Counter()
    for obs in result.observations:
        expected[obs.impl_name, "response"] += obs.succeeded
        expected[obs.impl_name, "timeout"] += obs.attempts - obs.succeeded

    assert counted == +expected
    assert {name for name, _ in counted} == set(DEFAULT_MIX)
    for name in DEFAULT_MIX:
        assert counted[name, "response"] > 0 and counted[name, "timeout"] > 0
