"""Tests for ``AtlasPlatform.measure``: the campaign as one kernel drain."""

import hashlib
import random
from collections import Counter

import pytest

from repro.atlas.platform import AtlasPlatform
from repro.atlas.probes import ProbeGenerator
from repro.core.deployment import Deployment
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.population import ResolverPopulation
from repro.telemetry import Telemetry, read_events

DOMAIN = "ourtestdomain.nl."

#: 40 probes (49 VPs) x 3 ticks, loss-free, canonically sorted.
#: Re-recorded when the per-entity streams became counter-based (PR 24).
OBSERVATIONS_SHA256 = (
    "a89a05ecd14f06304f9fe4fbc514fa5b144e2750773bd5db0a2883bb2f8940b6"
)


def build_platform(telemetry=None, loss_rate=0.0):
    network = SimNetwork(
        latency=LatencyModel(
            LatencyParameters(loss_rate=loss_rate), rng=random.Random(1)
        ),
        telemetry=telemetry,
    )
    deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
    addresses = deployment.deploy(network)
    probes = ProbeGenerator(rng=random.Random(2)).generate(40)
    platform = AtlasPlatform(
        network, probes, ResolverPopulation(rng=random.Random(3)),
        rng=random.Random(4),
        telemetry=telemetry,
    )
    platform.build_vantage_points()
    platform.configure_zone(DOMAIN, addresses)
    return platform


class TestKernelMeasure:
    def test_observation_values_are_pinned(self):
        run = build_platform().measure(
            DOMAIN.rstrip("."), interval_s=120.0, duration_s=360.0
        )
        observations = list(run.observations)
        # Handed back in canonical order, not completion order.
        assert observations == sorted(
            observations, key=lambda obs: (obs.timestamp, obs.vp_id)
        )
        digest = hashlib.sha256()
        for row in run.store.iter_rows():
            digest.update(repr(row).encode())
        assert len(run.store) == 3 * 49
        assert all(obs.succeeded and obs.attempts == 1 for obs in observations)
        assert digest.hexdigest() == OBSERVATIONS_SHA256

    def test_timestamps_are_tick_issue_times(self):
        run = build_platform().measure(
            DOMAIN.rstrip("."), interval_s=120.0, duration_s=360.0,
        )
        assert {obs.timestamp for obs in run.observations} == {
            0.0, 120.0, 240.0
        }
        per_vp = Counter(obs.vp_id for obs in run.observations)
        assert all(rows == 3 for rows in per_vp.values())

    def test_clock_ends_at_campaign_end(self):
        platform = build_platform()
        platform.measure(
            DOMAIN.rstrip("."), interval_s=120.0, duration_s=360.0,
        )
        # The drain finishes well before 360 s of virtual time (RTTs are
        # milliseconds); the mode must still advance to the nominal end.
        assert platform.network.clock.now == pytest.approx(360.0)

    def test_retries_keep_campaign_complete_under_loss(self):
        run = build_platform(loss_rate=0.3).measure(
            DOMAIN.rstrip("."), interval_s=120.0, duration_s=240.0,
        )
        per_vp = Counter(obs.vp_id for obs in run.observations)
        # Every VP still reports every tick — lost exchanges turn into
        # timeout events and retries, not missing observations.
        assert all(rows == 2 for rows in per_vp.values())
        assert any(obs.attempts > 1 for obs in run.observations)

    def test_heartbeats_fire_with_kernel_on(self, tmp_path):
        path = tmp_path / "kernel.events.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=path)
        platform = build_platform(telemetry=telemetry)
        platform.measure(
            DOMAIN.rstrip("."), interval_s=120.0, duration_s=360.0,
            heartbeat_every=1, shard=0,
        )
        telemetry.events.close()
        beats = [
            event for event in read_events(path)
            if event.kind == "note" and event.name == "shard.heartbeat"
        ]
        assert [beat.data["tick"] for beat in beats] == [1, 2, 3]
        # Heartbeats carry virtual timestamps on the tick boundaries.
        assert [beat.at for beat in beats] == [120.0, 240.0, 360.0]

    def test_kernel_mode_counts_sched_events(self):
        from repro.telemetry import CostLedger

        telemetry = Telemetry.enabled_bundle(costs=True)
        assert isinstance(telemetry.costs, CostLedger)
        platform = build_platform(telemetry=telemetry)
        run = platform.measure(
            DOMAIN.rstrip("."), interval_s=120.0, duration_s=240.0,
        )
        totals = telemetry.costs.totals()
        assert totals["timer_event"] == 2
        # Loss-free: exactly one delivery event per observation, plus
        # the two ticks — no retry timer ever fires.
        assert all(obs.attempts == 1 for obs in run.observations)
        assert totals["sched_event"] == len(run.observations) + 2
