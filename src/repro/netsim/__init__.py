"""Network simulation substrate: virtual time, geography, latency, anycast."""

from .anycast import AnycastGroup, AnycastSite
from .clock import SimClock
from .sched import EventKernel
from .geo import (
    ATLAS_CONTINENT_WEIGHTS,
    DATACENTERS,
    PROBE_CITIES,
    Continent,
    GeoPoint,
    Location,
    cities_by_continent,
    great_circle_km,
)
from .faults import (
    BUILTIN_SCENARIOS,
    ActiveFaults,
    Brownout,
    FaultEvent,
    FaultPlan,
    LatencySpike,
    LossRate,
    NsOutage,
    Scenario,
    ScenarioError,
    SiteWithdrawal,
    builtin_scenario,
    load_scenario,
    resolve_scenario,
)
from .latency import FIBER_KM_PER_SECOND, LatencyModel, LatencyParameters
from .network import DeliveryError, RoundTrip, SimNetwork, UnicastHost

__all__ = [
    "ATLAS_CONTINENT_WEIGHTS",
    "ActiveFaults",
    "AnycastGroup",
    "AnycastSite",
    "BUILTIN_SCENARIOS",
    "Brownout",
    "Continent",
    "DATACENTERS",
    "DeliveryError",
    "EventKernel",
    "FaultEvent",
    "FaultPlan",
    "FIBER_KM_PER_SECOND",
    "GeoPoint",
    "LatencyModel",
    "LatencyParameters",
    "LatencySpike",
    "Location",
    "LossRate",
    "NsOutage",
    "PROBE_CITIES",
    "RoundTrip",
    "Scenario",
    "ScenarioError",
    "SimClock",
    "SimNetwork",
    "SiteWithdrawal",
    "UnicastHost",
    "builtin_scenario",
    "cities_by_continent",
    "great_circle_km",
    "load_scenario",
    "resolve_scenario",
]
