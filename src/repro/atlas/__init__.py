"""Vantage-point platform: probes, recursives, measurement campaigns."""

from .catchment import CatchmentEntry, CatchmentReport, map_catchment
from .platform import AtlasPlatform, MeasurementRun, QueryObservation, VantagePoint
from .probes import Probe, ProbeGenerator
from .public import PublicResolverService

__all__ = [
    "AtlasPlatform",
    "CatchmentEntry",
    "CatchmentReport",
    "MeasurementRun",
    "Probe",
    "ProbeGenerator",
    "PublicResolverService",
    "QueryObservation",
    "VantagePoint",
    "map_catchment",
]
