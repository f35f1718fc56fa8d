"""Work floors: Python calls per unit of work, a host-free reading.

cProfile counts every Python and builtin call a piece of work makes.
For fixed inputs the count is the same in every run and on every host
(timings are not), and on a flat profile it moves with CPython time.
Each bound is this tree's reading plus 2 %, on CPython 3.11 under
``PYTHONHASHSEED=0``: a change that adds work per query fails here
whatever the machine's minute is like, and one that removes work
tightens the bound in the same change.  A CPython version that reads
differently gets its own reading in the table.
"""

import cProfile
import pstats
import sys

from repro.atlas.platform import AtlasPlatform
from repro.core.deployment import build_zone
from repro.core.experiment import run_combination
from repro.dns import AuthoritativeServer
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import A
from repro.dns.types import RRType
from repro.passive import generate_ditl_trace

#: calls per unit of work, by CPython version: (campaign observation,
#: served query, captured query)
READINGS = {(3, 11): (172.89, 32.68, 66.19)}
SLACK = 1.02

ORIGIN = Name.from_text("ourtestdomain.nl.")


def reading(index: int) -> float:
    return READINGS.get(sys.version_info[:2], READINGS[3, 11])[index] * SLACK


def calls_in(fn, *args, **kwargs) -> tuple[int, object]:
    profile = cProfile.Profile()
    profile.enable()
    try:
        out = fn(*args, **kwargs)
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls, out


def test_calls_per_campaign_observation(monkeypatch):
    """What ``measure`` calls per observation of a 4B campaign."""
    counted = []
    measure = AtlasPlatform.measure

    def measure_counted(platform, *args, **kwargs):
        calls, run = calls_in(measure, platform, *args, **kwargs)
        counted.append(calls)
        return run

    monkeypatch.setattr(AtlasPlatform, "measure", measure_counted)
    result = run_combination(
        "4B", num_probes=60, interval_s=120.0, duration_s=10 * 120.0, seed=1
    )
    (calls,) = counted
    per_observation = calls / len(result.observations)
    assert per_observation <= reading(0), per_observation


def served_wires() -> list[bytes]:
    """80 template-path TXT queries (half with EDNS) and 20 slow-path
    ones: NXDOMAIN A, apex NS with EDNS, a host's A, apex SOA with EDNS."""
    plans = [
        (f"w{index}.probe.{ORIGIN}", RRType.TXT, 1232 if index % 2 else None)
        for index in range(80)
    ]
    for index in range(20):
        plans.append([
            (f"nx{index}.{ORIGIN}", RRType.A, None),
            (str(ORIGIN), RRType.NS, 1232),
            (f"www.{ORIGIN}", RRType.A, None),
            (str(ORIGIN), RRType.SOA, 4096),
        ][index % 4])
    wires = []
    for index, (qname, qtype, edns) in enumerate(plans):
        query = Message.make_query(
            qname, qtype, msg_id=index, recursion_desired=False
        )
        if edns is not None:
            query.use_edns(edns)
        wires.append(query.to_wire())
    return wires


def test_calls_per_served_query():
    """What the authoritative engine calls per query, on the mix the
    ``serve`` path answers: mostly response templates, some full
    decode / lookup / encode."""
    ns_names = [Name.from_text(f"ns{i}").concatenate(ORIGIN) for i in range(1, 5)]
    zone = build_zone(ORIGIN, ns_names, "floor-site")
    zone.add(Name.from_text("www").concatenate(ORIGIN), RRType.A, A("192.0.2.80"), ttl=300)
    engine = AuthoritativeServer("floor", [zone])
    wires = served_wires()
    engine.handle_wire(wires[0], "127.0.0.1:53000")  # build the template

    def serve() -> list:
        return [engine.handle_wire(wire, "127.0.0.1:53000") for wire in wires]

    calls, answers = calls_in(serve)
    assert None not in answers
    per_query = calls / len(wires)
    assert per_query <= reading(1), per_query


def test_calls_per_captured_query():
    """What the passive generator calls per record of a DITL capture."""
    calls, trace = calls_in(
        generate_ditl_trace, num_recursives=30, seed=1, mean_queries_per_hour=200.0
    )
    assert len(trace) > 1000
    per_record = calls / len(trace)
    assert per_record <= reading(2), per_record
