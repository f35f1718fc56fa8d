"""Vantage-point platform: probes, recursives, measurement campaigns."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "catchment": "CatchmentEntry CatchmentReport map_catchment",
    "platform": "AtlasPlatform MeasurementRun QueryObservation VantagePoint",
    "probes": "Probe ProbeGenerator",
    "public": "PublicResolverService",
})
