"""Geography: coordinates, great-circle distance, datacenters, probe cities.

The paper's experiment deploys authoritatives in AWS datacenters named by
airport code and groups RIPE Atlas vantage points by continent; this
module provides both location sets.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0


class Continent(str, enum.Enum):
    """Continent codes as used in the paper's Table 2 and Figure 4."""

    AF = "AF"
    AS = "AS"
    EU = "EU"
    NA = "NA"
    OC = "OC"
    SA = "SA"

    def __str__(self) -> str:  # keep table rendering terse
        return self.value


@dataclass(frozen=True)
class GeoPoint:
    """A position on the globe in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of range")


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine great-circle distance in kilometers."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


@dataclass(frozen=True)
class Location:
    """A named place: datacenter site or probe city."""

    code: str
    city: str
    country: str
    continent: Continent
    point: GeoPoint


def _loc(code, city, country, continent, lat, lon) -> Location:
    return Location(code, city, country, Continent(continent), GeoPoint(lat, lon))


# The seven AWS datacenters of the paper's Table 1, by airport code.
DATACENTERS: dict[str, Location] = {
    loc.code: loc
    for loc in [
        _loc("GRU", "São Paulo", "BR", "SA", -23.43, -46.47),
        _loc("NRT", "Tokyo", "JP", "AS", 35.76, 140.39),
        _loc("DUB", "Dublin", "IE", "EU", 53.42, -6.27),
        _loc("FRA", "Frankfurt", "DE", "EU", 50.03, 8.57),
        _loc("SYD", "Sydney", "AU", "OC", -33.95, 151.18),
        _loc("IAD", "Washington", "US", "NA", 38.95, -77.45),
        _loc("SFO", "San Francisco", "US", "NA", 37.62, -122.38),
    ]
}


# Cities probes can live in.  Codes are IATA-like and only need to be
# unique within this table.
PROBE_CITIES: dict[str, Location] = {
    loc.code: loc
    for loc in [
        # Europe — deliberately the longest list: RIPE Atlas is EU-heavy.
        _loc("AMS", "Amsterdam", "NL", "EU", 52.37, 4.89),
        _loc("LON", "London", "GB", "EU", 51.51, -0.13),
        _loc("PAR", "Paris", "FR", "EU", 48.86, 2.35),
        _loc("BER", "Berlin", "DE", "EU", 52.52, 13.40),
        _loc("MAD", "Madrid", "ES", "EU", 40.42, -3.70),
        _loc("ROM", "Rome", "IT", "EU", 41.90, 12.50),
        _loc("STO", "Stockholm", "SE", "EU", 59.33, 18.07),
        _loc("WAW", "Warsaw", "PL", "EU", 52.23, 21.01),
        _loc("VIE", "Vienna", "AT", "EU", 48.21, 16.37),
        _loc("ZRH", "Zurich", "CH", "EU", 47.38, 8.54),
        _loc("PRG", "Prague", "CZ", "EU", 50.08, 14.44),
        _loc("HEL", "Helsinki", "FI", "EU", 60.17, 24.94),
        _loc("OSL", "Oslo", "NO", "EU", 59.91, 10.75),
        _loc("CPH", "Copenhagen", "DK", "EU", 55.68, 12.57),
        _loc("LIS", "Lisbon", "PT", "EU", 38.72, -9.14),
        _loc("ATH", "Athens", "GR", "EU", 37.98, 23.73),
        _loc("BUD", "Budapest", "HU", "EU", 47.50, 19.04),
        _loc("BRU", "Brussels", "BE", "EU", 50.85, 4.35),
        _loc("DUBC", "Dublin", "IE", "EU", 53.35, -6.26),
        _loc("FRAC", "Frankfurt", "DE", "EU", 50.11, 8.68),
        _loc("MOW", "Moscow", "RU", "EU", 55.76, 37.62),
        _loc("KBP", "Kyiv", "UA", "EU", 50.45, 30.52),
        _loc("BUH", "Bucharest", "RO", "EU", 44.43, 26.10),
        _loc("SOF", "Sofia", "BG", "EU", 42.70, 23.32),
        _loc("ZAG", "Zagreb", "HR", "EU", 45.81, 15.98),
        # North America.
        _loc("NYC", "New York", "US", "NA", 40.71, -74.01),
        _loc("LAX", "Los Angeles", "US", "NA", 34.05, -118.24),
        _loc("CHI", "Chicago", "US", "NA", 41.88, -87.63),
        _loc("YYZ", "Toronto", "CA", "NA", 43.65, -79.38),
        _loc("YVR", "Vancouver", "CA", "NA", 49.28, -123.12),
        _loc("MEX", "Mexico City", "MX", "NA", 19.43, -99.13),
        _loc("DFW", "Dallas", "US", "NA", 32.78, -96.80),
        _loc("SEA", "Seattle", "US", "NA", 47.61, -122.33),
        _loc("MIA", "Miami", "US", "NA", 25.76, -80.19),
        _loc("YUL", "Montreal", "CA", "NA", 45.50, -73.57),
        _loc("ATL", "Atlanta", "US", "NA", 33.75, -84.39),
        _loc("DEN", "Denver", "US", "NA", 39.74, -104.99),
        # Asia.
        _loc("TYO", "Tokyo", "JP", "AS", 35.68, 139.69),
        _loc("SIN", "Singapore", "SG", "AS", 1.35, 103.82),
        _loc("HKG", "Hong Kong", "HK", "AS", 22.32, 114.17),
        _loc("BOM", "Mumbai", "IN", "AS", 19.08, 72.88),
        _loc("DEL", "Delhi", "IN", "AS", 28.61, 77.21),
        _loc("SEL", "Seoul", "KR", "AS", 37.57, 126.98),
        _loc("BJS", "Beijing", "CN", "AS", 39.90, 116.41),
        _loc("SHA", "Shanghai", "CN", "AS", 31.23, 121.47),
        _loc("BKK", "Bangkok", "TH", "AS", 13.76, 100.50),
        _loc("JKT", "Jakarta", "ID", "AS", -6.21, 106.85),
        _loc("TPE", "Taipei", "TW", "AS", 25.03, 121.57),
        _loc("TLV", "Tel Aviv", "IL", "AS", 32.09, 34.78),
        _loc("DXB", "Dubai", "AE", "AS", 25.20, 55.27),
        _loc("IST", "Istanbul", "TR", "AS", 41.01, 28.98),
        _loc("MNL", "Manila", "PH", "AS", 14.60, 120.98),
        # South America.
        _loc("SAO", "São Paulo", "BR", "SA", -23.55, -46.63),
        _loc("BUE", "Buenos Aires", "AR", "SA", -34.60, -58.38),
        _loc("SCL", "Santiago", "CL", "SA", -33.45, -70.67),
        _loc("LIM", "Lima", "PE", "SA", -12.05, -77.04),
        _loc("BOG", "Bogotá", "CO", "SA", 4.71, -74.07),
        _loc("RIO", "Rio de Janeiro", "BR", "SA", -22.91, -43.17),
        _loc("MVD", "Montevideo", "UY", "SA", -34.90, -56.19),
        # Oceania.
        _loc("SYDC", "Sydney", "AU", "OC", -33.87, 151.21),
        _loc("MEL", "Melbourne", "AU", "OC", -37.81, 144.96),
        _loc("AKL", "Auckland", "NZ", "OC", -36.85, 174.76),
        _loc("BNE", "Brisbane", "AU", "OC", -27.47, 153.03),
        _loc("PER", "Perth", "AU", "OC", -31.95, 115.86),
        _loc("WLG", "Wellington", "NZ", "OC", -41.29, 174.78),
        # Africa.
        _loc("JNB", "Johannesburg", "ZA", "AF", -26.20, 28.05),
        _loc("CAI", "Cairo", "EG", "AF", 30.04, 31.24),
        _loc("LOS", "Lagos", "NG", "AF", 6.52, 3.38),
        _loc("NBO", "Nairobi", "KE", "AF", -1.29, 36.82),
        _loc("CMN", "Casablanca", "MA", "AF", 33.57, -7.59),
        _loc("ACC", "Accra", "GH", "AF", 5.60, -0.19),
        _loc("TUN", "Tunis", "TN", "AF", 36.81, 10.18),
        _loc("CPT", "Cape Town", "ZA", "AF", -33.92, 18.42),
    ]
}


def cities_by_continent(continent: Continent) -> list[Location]:
    return [loc for loc in PROBE_CITIES.values() if loc.continent == continent]


# RIPE Atlas probe density by continent — heavily Europe-skewed, matching
# the paper's §3.1 observation and prior Atlas studies [4, 5].  Rough
# shares derived from the VP counts in Figure 5 (2B: EU 6221, NA 1181,
# AS 692, OC 245, AF 215, SA 131 of 8685 total).
ATLAS_CONTINENT_WEIGHTS: dict[Continent, float] = {
    Continent.EU: 0.716,
    Continent.NA: 0.136,
    Continent.AS: 0.080,
    Continent.OC: 0.028,
    Continent.AF: 0.025,
    Continent.SA: 0.015,
}
