"""``serve_mixed``: the real-socket ``repro serve`` path under load.

One server process (``python -m repro serve`` on a free loopback port)
beside one client process — this one — with one thread and one UDP
socket; traffic crosses the host's loopback interface, not a link.

Phase A is a *closed* loop (a sliding window of ``WINDOW`` outstanding
queries: the next is sent only when an answer comes back), which finds
the saturation throughput.  Phase B is an *open* loop at a fixed
``OPEN_RATE_QPS`` (far under saturation): queries leave on a schedule,
not when the last answer came, and each latency is taken from the
instant the query was *due*, so a stall is charged to every query it
delayed.

Every answer is compared, id-masked, byte for byte against an
in-process ``AuthoritativeServer.handle_wire`` oracle over the same
zone text.
"""

from __future__ import annotations

import gc
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from common import OUT, ledger_bundle, sized, start_tracer, trace_report

ORIGIN = "ourtestdomain.nl."
WINDOW = 8
#: A quarter of saturation (≈ 20 k qps closed-loop here), as the issue asks.
OPEN_RATE_QPS = 5000
#: The server's default socket buffer held 194 queries of this mix when
#: tried, and an open loop catches up after a stall by sending everything
#: that fell due at once: unbounded, one 60 ms stall of this shared host
#: — one run in eight had one — overflowed it and lost 66 queries of
#: 12 000.  With at most this many unanswered the buffer cannot overflow;
#: the held-back queries pay in latency, and no operation fails, as the
#: contract asks.
MAX_IN_FLIGHT = 128
#: A query unanswered this long counts as failed.  Loopback answers take
#: well under a millisecond; the margin is for host stalls, which are
#: not failures of the program.
TIMEOUT_S = 1.0
#: how long the open loop waits for stragglers after its last send
GRACE_S = 1.0
#: serve's bound on `failed_share`: (timeouts + lost + wrong) ÷ sent
MAX_FAILED_SHARE = 0.001

#: Both phases send a fixed *number* of queries, not for a fixed time,
#: so the server allocates the same amount whatever the machine's speed
#: and its peak RSS repeats.  At the default scale: 18 000 closed-loop
#: queries (≈ 1 s) and 12 000 open-loop ones (2.4 s), so that the open
#: loop's p99 has 120 samples beyond it and p999 twelve.
CLOSED_PASSES = 3
OPEN_PASSES = 2

FAST, SLOW = 0, 1


# -- inputs -----------------------------------------------------------------


def zone_text() -> str:
    """The testbed's own zone (wildcard probe TXT) plus a ``www`` host."""
    from repro.core.deployment import build_zone
    from repro.dns.name import Name
    from repro.dns.rdata import A
    from repro.dns.types import RRType
    from repro.dns.zonefile import zone_to_text

    origin = Name.from_text(ORIGIN)
    ns_names = [Name.from_text(f"ns{i}").concatenate(origin) for i in range(1, 5)]
    zone = build_zone(origin, ns_names, "bench-site")
    zone.add(Name.from_text("www").concatenate(origin), RRType.A, A("192.0.2.80"), ttl=300)
    return zone_to_text(zone)


def build_queries(seed: int, count: int) -> tuple[list[bytes], list[int]]:
    """``count`` pre-encoded queries (id bytes stripped) and their class.

    80 % unique ``<label>.probe.<origin> TXT`` (half advertising EDNS
    1232) — the response-template fast path; 20 % slow path in four
    equal parts: NXDOMAIN A, apex NS + EDNS, ``www`` A, apex SOA + EDNS
    4096.  Order is shuffled so the classes interleave on the wire.
    """
    from repro.dns.message import Message
    from repro.dns.types import RRType

    rng = random.Random(seed)
    plans: list[tuple[int, str, RRType, int | None]] = []
    fast = count * 4 // 5
    for index in range(fast):
        label = f"b{rng.getrandbits(40):010x}-{index}"
        plans.append(
            (FAST, f"{label}.probe.{ORIGIN}", RRType.TXT, 1232 if index % 2 else None)
        )
    for index in range(count - fast):
        kind = index % 4
        if kind == 0:
            plans.append(
                (SLOW, f"nx{rng.getrandbits(40):010x}.{ORIGIN}", RRType.A, None)
            )
        elif kind == 1:
            plans.append((SLOW, ORIGIN, RRType.NS, 1232))
        elif kind == 2:
            plans.append((SLOW, f"www.{ORIGIN}", RRType.A, None))
        else:
            plans.append((SLOW, ORIGIN, RRType.SOA, 4096))
    rng.shuffle(plans)
    tails, classes = [], []
    for klass, qname, qtype, edns in plans:
        query = Message.make_query(qname, qtype, recursion_desired=False)
        if edns is not None:
            query.use_edns(edns)
        tails.append(query.to_wire()[2:])
        classes.append(klass)
    return tails, classes


def make_engine(text: str, telemetry=None):
    """The engine exactly as ``repro serve`` builds it."""
    from repro.dns import AuthoritativeServer, parse_zone_text

    zone = parse_zone_text(text, ORIGIN)
    zone.validate()
    return AuthoritativeServer("repro-authoritative", [zone], telemetry=telemetry)


def oracle_tails(text: str, tails: list[bytes]) -> list[bytes]:
    engine = make_engine(text)
    answers = []
    for tail in tails:
        wire = engine.handle_wire(b"\x00\x00" + tail, client="127.0.0.1:0")
        if wire is None:
            raise SystemExit("oracle could not answer a generated query")
        answers.append(wire[2:])
    return answers


# -- the server process -----------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """User+system CPU the process (all threads) has used so far."""
    try:
        total_ns = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total_ns += int(fh.read().split()[0])
        return total_ns / 1e9
    except (OSError, ValueError, IndexError):
        # No scheduler statistics: fall back to clock-tick accounting.
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """``python -m repro serve`` as a child process on a free port."""

    def __init__(self, zone_path: Path):
        self.zone_path = zone_path
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self._spawned = 0.0
        #: spawn → first correct answer, set by :meth:`wait_ready`
        self.setup_s = 0.0

    def __enter__(self) -> "Server":
        # One CPU each when there are two: left to the scheduler, client
        # and server now share a CPU and now do not, and closed-loop
        # throughput between identical runs spread twice as wide.  The
        # server inherits the CPU this process is on when it spawns.
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[-1]})
        self._spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--zone", str(self.zone_path), "--origin", ORIGIN,
                "--host", "127.0.0.1", "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[0]})
        try:
            # "serving <origin> on <host>:<port> (udp+tcp)"
            line = self.process.stdout.readline()
            port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        except BaseException:
            self._stop()
            raise
        self.address = ("127.0.0.1", port)
        return self

    def wait_ready(self, sock, tail: bytes, answer: bytes) -> None:
        """Poll with one query until the right answer comes back."""
        sock.settimeout(TIMEOUT_S)
        for _ in range(40):
            sock.send(b"\xbe\xef" + tail)
            try:
                data = sock.recv(65535)
            except socket.timeout:
                continue
            if data[:2] == b"\xbe\xef" and data[2:] == answer:
                self.setup_s = time.perf_counter() - self._spawned
                return
        raise SystemExit("server never answered correctly")

    def _stop(self) -> None:
        process = self.process
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process is not None and process.stdout is not None:
            process.stdout.close()

    def __exit__(self, *exc_info) -> None:
        self._stop()


# -- load phases ------------------------------------------------------------


def closed_loop(sock, tails, answers, total: int, sequence: int) -> dict:
    """Phase A: ``total`` queries, ``WINDOW`` of them outstanding at a time."""
    clock = time.perf_counter
    count = len(tails)
    outstanding: dict[int, tuple[int, float]] = {}
    latencies: list[float] = []
    sent = wrong = timeouts = 0
    sock.settimeout(TIMEOUT_S)
    started = clock()

    def send_next() -> None:
        nonlocal sequence, sent
        index = sequence % count
        ident = sequence & 0xFFFF
        sequence += 1
        outstanding[ident] = (index, clock())
        sock.send(ident.to_bytes(2, "big") + tails[index])
        sent += 1

    for _ in range(min(WINDOW, total)):
        send_next()
    while outstanding:
        try:
            data = sock.recv(65535)
        except socket.timeout:
            timeouts += len(outstanding)
            outstanding.clear()
            for _ in range(min(WINDOW, total - sent)):
                send_next()
            continue
        now = clock()
        entry = outstanding.pop((data[0] << 8) | data[1], None)
        if entry is None:
            continue  # a straggler from an earlier phase or timeout
        if data[2:] == answers[entry[0]]:
            latencies.append(now - entry[1])
        else:
            wrong += 1
        if sent < total:
            send_next()
    return {
        "sent": sent, "correct": len(latencies), "wrong": wrong,
        "timeouts": timeouts, "elapsed_s": clock() - started,
        "latencies": latencies, "sequence": sequence,
    }


def open_loop(sock, tails, answers, total: int, sequence: int) -> dict:
    """Phase B: ``total`` queries sent on an ``OPEN_RATE_QPS`` schedule.

    A query leaves when it falls due, unless ``MAX_IN_FLIGHT`` are
    already unanswered: then it waits for an answer, and the wait counts
    in its latency, which runs from the instant it was due.
    """
    clock = time.perf_counter
    count = len(tails)
    interval = 1.0 / OPEN_RATE_QPS
    outstanding: dict[int, tuple[int, float]] = {}
    latencies: list[float] = []
    wrong = lost = 0
    max_late = 0.0
    sock.setblocking(False)
    started = clock() + 0.002
    issued = 0
    end_of_sends = None
    while True:
        now = clock()
        while issued < total and len(outstanding) < MAX_IN_FLIGHT:
            due = started + issued * interval
            if due > now:
                break
            index = sequence % count
            ident = sequence & 0xFFFF
            sequence += 1
            outstanding[ident] = (index, due)
            sock.send(ident.to_bytes(2, "big") + tails[index])
            issued += 1
            now = clock()
            if now - due > max_late:
                max_late = now - due
        try:
            while True:
                data = sock.recv(65535)
                now = clock()
                entry = outstanding.pop((data[0] << 8) | data[1], None)
                if entry is None:
                    continue
                if data[2:] == answers[entry[0]]:
                    latencies.append(now - entry[1])
                else:
                    wrong += 1
        except BlockingIOError:
            pass
        if issued == total:
            if end_of_sends is None:
                end_of_sends = clock()
            if not outstanding:
                break
            wait = end_of_sends + GRACE_S - clock()
            if wait <= 0:
                break
        elif len(outstanding) < MAX_IN_FLIGHT:
            wait = started + issued * interval - clock()
        else:
            wait = TIMEOUT_S
        if wait > 0:
            readable, _, _ = select.select([sock], [], [], wait)
            if not readable and len(outstanding) >= MAX_IN_FLIGHT:
                # A full window and a second of silence: none is coming.
                lost += len(outstanding)
                outstanding.clear()
    return {
        "sent": issued, "correct": len(latencies), "wrong": wrong,
        "lost": lost + len(outstanding), "elapsed_s": clock() - started,
        "latencies": latencies, "gen_late_s": max_late, "sequence": sequence,
    }


def quantile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- in-process replay ------------------------------------------------------


REPLAY_CLIENT = "127.0.0.1:53000"


def replay_timed(engine, tails, classes) -> dict:
    """The load phases' exact wires through ``handle_wire``, untraced.

    Each call is timed and billed to its class: fast = template path,
    slow = full decode / lookup / encode.
    """
    clock = time.perf_counter
    handle = engine.handle_wire
    totals = [0.0, 0.0]
    calls = [0, 0]
    started = clock()
    for tail, klass in zip(tails, classes):
        before = clock()
        handle(b"\x12\x34" + tail, REPLAY_CLIENT, 0.0)
        totals[klass] += clock() - before
        calls[klass] += 1
    return {
        "wall_s": clock() - started,
        "fast_us": totals[FAST] / max(1, calls[FAST]) * 1e6,
        "slow_us": totals[SLOW] / max(1, calls[SLOW]) * 1e6,
        "handle_us": sum(totals) / max(1, sum(calls)) * 1e6,
    }


def replay_traced(engine, tails, tracer) -> float:
    """The same wires under one root span; returns the loop's wall time."""
    handle = engine.handle_wire

    def replay() -> None:
        for tail in tails:
            handle(b"\x12\x34" + tail, REPLAY_CLIENT, 0.0)

    started = time.perf_counter()
    tracer.wrap(replay, "suite")()
    return time.perf_counter() - started


# -- the repetition ---------------------------------------------------------


def run_serve(args) -> dict:
    count = sized("serve_mixed", args.scale)
    text = zone_text()
    tails, classes = build_queries(args.seed, count)
    answers = oracle_tails(text, tails)
    OUT.mkdir(exist_ok=True)
    zone_path = OUT / "serve_mixed.zone"
    zone_path.write_text(text)

    # The load generator must not stall itself: nothing built above is
    # garbage, so park it outside the collector and switch that off.
    gc.collect()
    gc.freeze()
    gc.disable()
    with Server(zone_path) as server, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        # Room for every answer a stall of this process leaves unread.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        sock.connect(server.address)
        server.wait_ready(sock, tails[0], answers[0])
        pid = server.process.pid
        closed = closed_loop(sock, tails, answers, CLOSED_PASSES * count, 0)
        cpu_before = cpu_seconds(pid)
        opened = open_loop(
            sock, tails, answers, OPEN_PASSES * count, closed["sequence"]
        )
        server_cpu_s = cpu_seconds(pid) - cpu_before
        rss = peak_rss_mib(pid)

    sent = closed["sent"] + opened["sent"]
    failed = (
        closed["wrong"] + closed["timeouts"] + opened["wrong"] + opened["lost"]
    )
    open_lat = sorted(opened["latencies"])
    out = {
        "ops": sent,
        "queries": count,
        "setup_s": server.setup_s,
        "measure_s": closed["elapsed_s"],
        "serve_qps": closed["correct"] / closed["elapsed_s"],
        "closed_p50_us": median(closed["latencies"]) * 1e6,
        "open_p50_us": quantile(open_lat, 0.50) * 1e6,
        "open_p99_us": quantile(open_lat, 0.99) * 1e6,
        "open_p999_us": quantile(open_lat, 0.999) * 1e6,
        "server_cpu_us_per_query": server_cpu_s / opened["correct"] * 1e6,
        "gen_late_us": opened["gen_late_s"] * 1e6,
        "lost": opened["lost"] + closed["timeouts"],
        "failed": failed,
        "failure_detail": {
            "closed_timeouts": closed["timeouts"], "closed_wrong": closed["wrong"],
            "open_lost": opened["lost"], "open_wrong": opened["wrong"],
        },
        "peak_rss_mib": rss,
        "fast_share": classes.count(FAST) / count,
        "checks": {
            "every_answer_matches_oracle": closed["wrong"] + opened["wrong"] == 0,
            "failed_share_within_bound": failed <= MAX_FAILED_SHARE * sent,
        },
    }

    if args.mode == "traced":
        out["replay"] = replay_timed(make_engine(text), tails, classes)
        tracer = start_tracer()
        telemetry = ledger_bundle()
        traced_wall_s = replay_traced(make_engine(text, telemetry), tails, tracer)
        out["replay_traced_wall_s"] = traced_wall_s
        out["ledger"] = telemetry.costs.totals()
        out["trace"] = trace_report(
            tracer, "serve_mixed", ("suite", "replay"), phase_s=traced_wall_s
        )
    return out
