"""Run profiling: phase timers, a sampling stack profiler, allocations.

Where the registry and tracer measure the *simulated* system, this
module measures the *simulator itself*, in three instruments:

:class:`RunProfiler`
    Wall-clock phase timers and component counters (deploy, build VPs,
    measure, analyze).  Every run carries the result as
    ``ExperimentResult.profile``; the benchmark suite reads its phases.

:class:`SamplingProfiler`
    A stack profiler attributing self/cumulative time to *subsystems*
    (codec, netsim, resolvers, selectors, telemetry, platform).  Two
    modes: ``trace`` hooks ``sys.setprofile`` and partitions the whole
    profiled window exactly — subsystem shares sum to the window by
    construction, which is what the per-query decomposition in
    ``repro-dns costs`` needs; ``sample`` polls ``sys._current_frames``
    from a background thread at a fixed interval — near-zero overhead,
    and its collapsed stacks export straight into flamegraph tooling.

:class:`AllocationObservatory`
    Per-phase ``tracemalloc`` snapshot diffs (top allocators) and GC
    pause accounting via ``gc.callbacks``, behind ``--profile-alloc``.

All three have null twins that cost one attribute check when disabled.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import tracemalloc

#: resolver modules that implement selection algorithms — attributed to
#: the "selectors" subsystem rather than "resolvers".
_SELECTOR_FILES = frozenset(
    {"base.py", "bind.py", "naive.py", "powerdns.py", "unbound.py", "windows.py"}
)

_PACKAGE_SUBSYSTEM = {
    "dns": "codec",
    "netsim": "netsim",
    "telemetry": "telemetry",
    "atlas": "platform",
    "core": "platform",
}


def subsystem_of_path(filename: str) -> str:
    """Map a source filename onto the subsystem it belongs to."""
    norm = filename.replace("\\", "/")
    idx = norm.rfind("/repro/")
    if idx < 0:
        return "other"
    package, _, tail = norm[idx + len("/repro/"):].partition("/")
    if package == "resolvers":
        return "selectors" if tail in _SELECTOR_FILES else "resolvers"
    return _PACKAGE_SUBSYSTEM.get(package, "other")


class _PhaseTimer:
    __slots__ = ("profiler", "name", "_started")

    def __init__(self, profiler: "RunProfiler", name: str):
        self.profiler = profiler
        self.name = name
        self._started = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.profiler._record_phase(
            self.name, time.perf_counter() - self._started
        )


class RunProfiler:
    """Accumulates phase wall-clock times, counters, and free-form values.

    Phases nest and repeat: re-entering a phase name adds to its total
    and bumps its invocation count.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._created = clock()
        self.phases: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = {}
        self.values: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def phase(self, name: str) -> _PhaseTimer:
        """Time a phase: ``with profiler.phase("measure"): ...``"""
        return _PhaseTimer(self, name)

    def _record_phase(self, name: str, elapsed_s: float) -> None:
        entry = self.phases.setdefault(name, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += elapsed_s
        entry["calls"] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def record(self, name: str, value: object) -> None:
        """Attach a free-form value (config knobs, result sizes)."""
        self.values[name] = value

    # -- export ------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Wall-clock lifetime of this profiler so far."""
        return self._clock() - self._created

    def as_dict(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "phases": {
                name: dict(entry) for name, entry in sorted(self.phases.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "values": dict(sorted(self.values.items(), key=lambda kv: kv[0])),
        }

    def to_events(self) -> list:
        """The phase/counter profile as one event-log record."""
        from .events import ProfileEvent

        return [ProfileEvent(profile=self.as_dict())]

    def render(self) -> str:
        """A short human-readable phase table."""
        lines = ["phase                    seconds   calls"]
        for name, entry in sorted(
            self.phases.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"{name:<24} {entry['seconds']:>8.3f} {int(entry['calls']):>7}"
            )
        return "\n".join(lines)


class NullProfiler:
    """Same surface as :class:`RunProfiler`, all no-ops."""

    enabled = False
    phases: dict = {}
    counters: dict = {}
    values: dict = {}
    total_seconds = 0.0

    class _NullPhase:
        __slots__ = ()

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass

    _NULL_PHASE = _NullPhase()

    def phase(self, name: str) -> "_NullPhase":
        return self._NULL_PHASE

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def record(self, name: str, value: object) -> None:
        pass

    def as_dict(self) -> dict:
        return {}

    def to_events(self) -> list:
        return []

    def render(self) -> str:
        return ""


# ---------------------------------------------------------------------------
# Sampling stack profiler


class _SamplingWindow:
    """Context manager bounding one profiled window."""

    __slots__ = ("_profiler", "_started")

    def __init__(self, profiler: "SamplingProfiler"):
        self._profiler = profiler
        self._started = False

    def __enter__(self) -> "_SamplingWindow":
        self._started = self._profiler._start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._started:
            self._profiler._stop()


class SamplingProfiler:
    """Attribute run time to subsystems; trace-exact or sampled.

    ``mode="trace"`` installs a ``sys.setprofile`` hook: every call and
    return charges the elapsed interval to the subsystem on top of the
    stack, so the window is partitioned *exactly* (self times sum to the
    window duration up to float error).  Heavier, but the right tool for
    the per-query decomposition — shares are trustworthy.

    ``mode="sample"`` polls the activating thread's stack from a daemon
    thread every ``interval_s``.  Overhead is near zero (one stack walk
    per interval, on another thread) and every sample records a collapsed
    stack, exported via :meth:`collapsed` in flamegraph format.

    Neither mode touches simulation state: a profiled campaign produces
    byte-identical observations to a plain one (tested).
    """

    enabled = True

    def __init__(
        self,
        mode: str = "trace",
        interval_s: float = 0.005,
        clock=time.perf_counter,
        max_stack: int = 64,
    ):
        if mode not in ("trace", "sample"):
            raise ValueError(f"unknown sampling mode: {mode!r}")
        self.mode = mode
        self.interval_s = interval_s
        self.max_stack = max_stack
        self._clock = clock
        #: results — estimated (sample) or exact (trace) seconds.
        self.self_s: dict[str, float] = {}
        self.cum_s: dict[str, float] = {}
        #: collapsed stack -> sample count (sample mode only).
        self.stacks: dict[str, int] = {}
        self.samples = 0
        self.window_s = 0.0
        self.windows = 0
        self._code_subsystem: dict[object, str] = {}
        self._active = False
        # trace-mode state
        self._stack: list[str] = []
        self._depth: dict[str, int] = {}
        self._cum_open: dict[str, float] = {}
        self._last = 0.0
        self._window_started = 0.0
        # sample-mode state
        self._thread: threading.Thread | None = None
        self._halt: threading.Event | None = None
        self._target_ident: int | None = None
        self._self_samples: dict[str, int] = {}
        self._cum_samples: dict[str, int] = {}

    def activate(self) -> _SamplingWindow:
        """Profile a window: ``with sampler.activate(): ...``

        Windows accumulate; re-entering while active is a no-op, so
        nested activation never double-counts.
        """
        return _SamplingWindow(self)

    # -- lifecycle ---------------------------------------------------------

    def _start(self) -> bool:
        if self._active:
            return False
        self._active = True
        self._window_started = self._clock()
        if self.mode == "trace":
            self._start_trace()
        else:
            self._start_sample()
        return True

    def _stop(self) -> None:
        if self.mode == "trace":
            self._stop_trace()
        else:
            self._stop_sample()
        self.window_s += self._clock() - self._window_started
        self.windows += 1
        self._active = False

    def _subsystem_of(self, code) -> str:
        cache = self._code_subsystem
        try:
            return cache[code]
        except KeyError:
            sub = cache[code] = subsystem_of_path(code.co_filename)
            return sub

    # -- trace mode --------------------------------------------------------

    def _start_trace(self) -> None:
        now = self._clock()
        # Seed the subsystem stack from the frames already live, so the
        # returns of frames entered before activation stay balanced.
        frames = []
        frame = sys._getframe()
        while frame is not None:
            frames.append(frame)
            frame = frame.f_back
        frames.reverse()
        self._stack = [self._subsystem_of(f.f_code) for f in frames]
        self._depth = {}
        self._cum_open = {}
        for sub in self._stack:
            if self._depth.get(sub, 0) == 0:
                self._cum_open[sub] = now
            self._depth[sub] = self._depth.get(sub, 0) + 1
        self._last = now
        sys.setprofile(self._trace_callback)

    def _trace_callback(self, frame, event, arg) -> None:
        now = self._clock()
        stack = self._stack
        top = stack[-1] if stack else "other"
        self.self_s[top] = self.self_s.get(top, 0.0) + (now - self._last)
        self._last = now
        if event == "call":
            sub = self._subsystem_of(frame.f_code)
            depth = self._depth
            if depth.get(sub, 0) == 0:
                self._cum_open[sub] = now
            depth[sub] = depth.get(sub, 0) + 1
            stack.append(sub)
        elif event == "return":
            if stack:
                sub = stack.pop()
                depth = self._depth
                left = depth.get(sub, 1) - 1
                if left <= 0:
                    depth.pop(sub, None)
                    opened = self._cum_open.pop(sub, now)
                    self.cum_s[sub] = self.cum_s.get(sub, 0.0) + (now - opened)
                else:
                    depth[sub] = left
        # c_call/c_return/c_exception: C time accrues to the calling
        # subsystem at the top of the stack — nothing to push or pop.

    def _stop_trace(self) -> None:
        sys.setprofile(None)
        now = self._clock()
        top = self._stack[-1] if self._stack else "other"
        self.self_s[top] = self.self_s.get(top, 0.0) + (now - self._last)
        for sub, opened in self._cum_open.items():
            self.cum_s[sub] = self.cum_s.get(sub, 0.0) + (now - opened)
        self._stack = []
        self._depth = {}
        self._cum_open = {}

    # -- sample mode -------------------------------------------------------

    def _start_sample(self) -> None:
        self._target_ident = threading.get_ident()
        self._halt = threading.Event()
        self._self_samples = {}
        self._cum_samples = {}
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-sampler", daemon=True
        )
        self._thread.start()

    def _sample_loop(self) -> None:
        halt = self._halt
        interval = self.interval_s
        target = self._target_ident
        while not halt.wait(interval):
            frame = sys._current_frames().get(target)
            if frame is None:
                continue
            parts = []
            subs = []
            depth = 0
            while frame is not None and depth < self.max_stack:
                code = frame.f_code
                sub = self._subsystem_of(code)
                parts.append(f"{sub}:{code.co_name}")
                subs.append(sub)
                frame = frame.f_back
                depth += 1
            leaf = subs[0]
            parts.reverse()
            key = ";".join(parts)
            self.stacks[key] = self.stacks.get(key, 0) + 1
            self.samples += 1
            self._self_samples[leaf] = self._self_samples.get(leaf, 0) + 1
            for sub in set(subs):
                self._cum_samples[sub] = self._cum_samples.get(sub, 0) + 1

    def _stop_sample(self) -> None:
        self._halt.set()
        self._thread.join()
        self._thread = None
        # Weight each sample by the window's *effective* period: the
        # poll loop's own latency stretches the nominal interval, so
        # `count * interval_s` would systematically under-attribute.
        # elapsed / samples makes self-times sum to the window again.
        taken = sum(self._self_samples.values())
        if taken:
            weight = (self._clock() - self._window_started) / taken
            for sub, count in self._self_samples.items():
                self.self_s[sub] = self.self_s.get(sub, 0.0) + count * weight
            for sub, count in self._cum_samples.items():
                self.cum_s[sub] = self.cum_s.get(sub, 0.0) + count * weight
        self._self_samples = {}
        self._cum_samples = {}

    # -- export ------------------------------------------------------------

    @property
    def attributed_share(self) -> float:
        """Fraction of the profiled window the self-times account for."""
        if not self.window_s:
            return 0.0
        return sum(self.self_s.values()) / self.window_s

    def collapsed(self) -> str:
        """Collapsed-stack flamegraph lines (``frame;frame count``)."""
        return "\n".join(
            f"{stack} {count}" for stack, count in sorted(self.stacks.items())
        )

    def as_dict(self) -> dict:
        window = self.window_s
        subsystems = {}
        for sub in sorted(set(self.self_s) | set(self.cum_s)):
            self_s = self.self_s.get(sub, 0.0)
            subsystems[sub] = {
                "self_s": self_s,
                "cum_s": self.cum_s.get(sub, 0.0),
                "share": (self_s / window) if window else 0.0,
            }
        return {
            "mode": self.mode,
            "interval_s": self.interval_s,
            "window_s": window,
            "windows": self.windows,
            "samples": self.samples,
            "attributed_share": self.attributed_share,
            "subsystems": subsystems,
        }

    def render(self) -> str:
        window = self.window_s
        lines = [
            f"{'subsystem':<12} {'self(s)':>9} {'cum(s)':>9} {'share':>7}"
        ]
        ranked = sorted(
            self.self_s.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for sub, self_s in ranked:
            share = (self_s / window * 100.0) if window else 0.0
            lines.append(
                f"{sub:<12} {self_s:>9.3f} "
                f"{self.cum_s.get(sub, 0.0):>9.3f} {share:>6.1f}%"
            )
        lines.append(
            f"attributed {sum(self.self_s.values()):.3f}s of "
            f"{window:.3f}s window ({self.attributed_share * 100.0:.1f}%)"
        )
        return "\n".join(lines)


class NullSamplingProfiler:
    """Zero-cost stand-in: attaching it changes nothing, measurably."""

    enabled = False
    mode = "off"
    self_s: dict = {}
    cum_s: dict = {}
    stacks: dict = {}
    samples = 0
    window_s = 0.0
    windows = 0
    attributed_share = 0.0

    _NULL_WINDOW = NullProfiler._NULL_PHASE

    def activate(self):
        return self._NULL_WINDOW

    def collapsed(self) -> str:
        return ""

    def as_dict(self) -> dict:
        return {}

    def render(self) -> str:
        return ""


#: shared zero-cost default — ``NULL_TELEMETRY.sampler``.
NULL_SAMPLER = NullSamplingProfiler()


# ---------------------------------------------------------------------------
# Allocation observatory


class _AllocWindow:
    __slots__ = ("_observatory", "_started")

    def __init__(self, observatory: "AllocationObservatory"):
        self._observatory = observatory
        self._started = False

    def __enter__(self) -> "_AllocWindow":
        self._started = self._observatory._start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._started:
            self._observatory._stop()


class _AllocPhase:
    __slots__ = ("_observatory", "_name", "_before")

    def __init__(self, observatory: "AllocationObservatory", name: str):
        self._observatory = observatory
        self._name = name
        self._before = None

    def __enter__(self) -> "_AllocPhase":
        if self._observatory._active:
            self._before = tracemalloc.take_snapshot()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._before is not None:
            self._observatory._record_phase(self._name, self._before)


class AllocationObservatory:
    """Per-phase allocation diffs and GC pause accounting.

    Activate around a run (``with observatory.activate():``), then each
    ``observatory.phase(name)`` the experiment enters records a
    ``tracemalloc`` snapshot diff: net KiB allocated and the top
    allocating source lines.  GC pauses are timed via ``gc.callbacks``
    for the whole activation window.  Outside an activation window the
    phase contexts are no-ops, so the observatory can stay wired into
    the experiment unconditionally.
    """

    enabled = True

    def __init__(self, top: int = 5, clock=time.perf_counter):
        self.top = top
        self._clock = clock
        #: phase name -> {"allocated_kib", "top": ["file:line +N KiB"]}
        self.phases: dict[str, dict] = {}
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._active = False
        self._started_tracing = False
        self._gc_started = 0.0

    def activate(self) -> _AllocWindow:
        return _AllocWindow(self)

    def _start(self) -> bool:
        if self._active:
            return False
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        gc.callbacks.append(self._gc_callback)
        self._active = True
        return True

    def _stop(self) -> None:
        try:
            gc.callbacks.remove(self._gc_callback)
        except ValueError:
            pass
        if self._started_tracing:
            tracemalloc.stop()
            self._started_tracing = False
        self._active = False

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self._clock()
        else:
            self.gc_collections += 1
            self.gc_pause_s += self._clock() - self._gc_started

    def phase(self, name: str) -> _AllocPhase:
        return _AllocPhase(self, name)

    def _record_phase(self, name: str, before) -> None:
        after = tracemalloc.take_snapshot()
        stats = after.compare_to(before, "lineno")
        allocated_kib = sum(s.size_diff for s in stats if s.size_diff > 0) / 1024
        movers = sorted(stats, key=lambda s: -s.size_diff)[: self.top]
        entry = self.phases.setdefault(name, {"allocated_kib": 0.0, "top": []})
        entry["allocated_kib"] += allocated_kib
        entry["top"] = [
            f"{s.traceback[0].filename}:{s.traceback[0].lineno} "
            f"{s.size_diff / 1024:+.1f} KiB"
            for s in movers
            if s.size_diff
        ]

    def as_dict(self) -> dict:
        return {
            "gc_collections": self.gc_collections,
            "gc_pause_s": self.gc_pause_s,
            "phases": {
                name: dict(entry) for name, entry in sorted(self.phases.items())
            },
        }

    def render(self) -> str:
        lines = [
            f"GC: {self.gc_collections} collections, "
            f"{self.gc_pause_s * 1000.0:.1f} ms paused"
        ]
        for name, entry in sorted(self.phases.items()):
            lines.append(f"{name}: {entry['allocated_kib']:+.1f} KiB net")
            for mover in entry["top"]:
                lines.append(f"  {mover}")
        return "\n".join(lines)


class NullAllocationObservatory:
    """No-op twin of :class:`AllocationObservatory`."""

    enabled = False
    phases: dict = {}
    gc_collections = 0
    gc_pause_s = 0.0
    _active = False

    _NULL_WINDOW = NullProfiler._NULL_PHASE

    def activate(self):
        return self._NULL_WINDOW

    def phase(self, name: str):
        return self._NULL_WINDOW

    def as_dict(self) -> dict:
        return {}

    def render(self) -> str:
        return ""


#: shared zero-cost default — ``NULL_TELEMETRY.alloc``.
NULL_ALLOC = NullAllocationObservatory()


__all__ = [
    "AllocationObservatory",
    "NULL_ALLOC",
    "NULL_SAMPLER",
    "NullAllocationObservatory",
    "NullProfiler",
    "NullSamplingProfiler",
    "RunProfiler",
    "SamplingProfiler",
    "subsystem_of_path",
]
