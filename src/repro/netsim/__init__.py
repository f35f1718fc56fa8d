"""Network simulation substrate: virtual time, geography, latency, anycast."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "anycast": "AnycastGroup AnycastSite",
    "clock": "SimClock",
    "faults": "BUILTIN_SCENARIOS ActiveFaults Brownout FaultEvent FaultPlan "
    "LatencySpike LossRate NsOutage Scenario ScenarioError SiteWithdrawal "
    "builtin_scenario load_scenario resolve_scenario",
    "geo": "ATLAS_CONTINENT_WEIGHTS DATACENTERS PROBE_CITIES Continent GeoPoint "
    "Location cities_by_continent great_circle_km",
    "latency": "FIBER_KM_PER_SECOND LatencyModel LatencyParameters",
    "network": "DeliveryError RoundTrip SimNetwork UnicastHost",
    "sched": "EventKernel",
})
