"""DITL-style Root DNS traffic synthesis (§3.2, Figure 7 top).

The Root zone is served by 13 letters (a–m), each its own anycast
service with a very different footprint — from a couple of sites to
globally distributed networks.  The paper's DITL-2017 slice covers 10
letters (B, G and L were missing), and analyzes recursives sending at
least 250 queries in the hour.

The busy-recursive population at the Root skews toward large, long-lived
resolver farms with latency-driven selection (small CPE forwarders do
not hit the Root hundreds of times an hour — they sit behind those
farms).  ``ROOT_MIX`` encodes that skew; it is the generator knob that
makes the synthetic trace reproduce the paper's headline Figure 7 (top)
numbers: ~20 % of recursives on a single letter, ~60 % touching six or
more, and only a few percent touching all ten observed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..netsim.geo import PROBE_CITIES, Location
from .generator import GeneratorConfig, PassiveTraceGenerator, ServerSet

if TYPE_CHECKING:
    from .trace import Trace

ROOT_LETTERS = tuple("abcdefghijklm")
MISSING_LETTERS = ("b", "g", "l")  # absent from the paper's DITL slice
OBSERVED_LETTERS = tuple(x for x in ROOT_LETTERS if x not in MISSING_LETTERS)


def _cities(*codes: str) -> tuple[Location, ...]:
    return tuple(PROBE_CITIES[code] for code in codes)


#: Stylized per-letter anycast footprints: site counts and geography vary
#: the way the real letters' do (a couple of sites up to global meshes).
ROOT_LETTER_SITES: dict[str, tuple[Location, ...]] = {
    "a": _cities("NYC", "LAX", "FRAC", "TYO", "LON", "SIN"),
    "b": _cities("LAX", "MIA"),
    "c": _cities("NYC", "CHI", "LON", "FRAC", "MAD", "TYO"),
    "d": _cities("NYC", "LON", "AMS", "SIN", "SAO", "JNB", "SYDC", "TYO",
                 "CHI", "DFW", "PAR", "STO", "BOM", "HKG", "MEX", "WAW"),
    "e": _cities("LAX", "NYC", "AMS", "TYO", "SIN", "LON", "FRAC", "SEA",
                 "BUE", "NBO", "AKL", "DEL"),
    "f": _cities("SEA", "YYZ", "AMS", "LON", "PRG", "TYO", "HKG", "SAO",
                 "JNB", "SYDC", "DXB", "MAD"),
    "g": _cities("DFW", "CHI", "FRAC", "SEL"),
    "h": _cities("NYC", "CHI"),
    "i": _cities("STO", "LON", "AMS", "HEL", "TYO", "SIN", "JNB", "MIA",
                 "SYDC", "HKG", "ZRH", "WAW"),
    "j": _cities("NYC", "LAX", "LON", "AMS", "STO", "TYO", "SIN", "SAO",
                 "SYDC", "BOM", "SEL", "MIA", "VIE", "PRG", "DUBC", "CAI",
                 "NBO", "MEX", "SCL", "AKL"),
    "k": _cities("AMS", "LON", "FRAC", "TYO", "DEL", "DXB", "MIA", "NBO",
                 "BUD", "ATH", "MOW", "SIN"),
    "l": _cities("LAX", "MIA", "AMS", "FRAC", "SIN", "TYO", "SYDC", "JNB",
                 "SAO", "BOM", "LON", "PRG", "WAW", "SEL", "HKG", "YYZ",
                 "SEA", "MAD", "ROM", "STO", "CAI", "SCL", "AKL", "DEL"),
    "m": _cities("TYO", "SEL", "PAR", "SEA", "HKG", "SIN", "NYC"),
}

#: Resolver mix of Root-busy recursives (see module docstring).
ROOT_MIX: dict[str, float] = {
    "bind": 0.54,
    "powerdns": 0.12,
    "windows": 0.02,
    "sticky": 0.20,
    "unbound": 0.05,
    "random": 0.05,
    "roundrobin": 0.02,
}

#: Root-scale overrides: SRTT decay is much slower relative to query
#: volume (letters are re-probed on ADB refresh cycles, not per burst),
#: and PowerDNS speed-tests are a smaller fraction of its traffic.
ROOT_SELECTOR_OVERRIDES: dict[str, dict] = {
    "bind": {"decay_factor": 0.999},
    "powerdns": {"explore_probability": 1.0 / 32.0},
}

#: Fraction of each letter's anycast sites present in the capture: DITL
#: never covers every instance (B, G and L are missing entirely; other
#: letters contribute only part of their sites).
ROOT_CAPTURE_COVERAGE = 0.75


def root_server_set() -> ServerSet:
    return ServerSet(
        zone="root",
        sites_by_server=dict(ROOT_LETTER_SITES),
        observed=OBSERVED_LETTERS,
    )


def generate_ditl_trace(
    num_recursives: int = 400,
    seed: int = 0,
    mean_queries_per_hour: float = 400.0,
    **config_overrides,
) -> Trace:
    """A one-hour DITL-like Root capture over the 10 observed letters."""
    config_overrides.setdefault("peering_sigma", 1.0)
    config_overrides.setdefault("capture_coverage", ROOT_CAPTURE_COVERAGE)
    config = GeneratorConfig(
        num_recursives=num_recursives,
        seed=seed,
        mean_queries_per_hour=mean_queries_per_hour,
        resolver_mix=ROOT_MIX,
        selector_overrides=ROOT_SELECTOR_OVERRIDES,
        **config_overrides,
    )
    return PassiveTraceGenerator(root_server_set(), config).generate()
