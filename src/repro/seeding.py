"""Hierarchical seed derivation: one root seed, many independent streams.

The simulator used to thread randomness through components by drawing
``root.randrange(2**63)`` sequentially — which makes every stream a
function of *construction order*.  Reordering components, skipping one,
or running a subset of the probe population in a worker process silently
changes every stream after the edit.  Worse, several modules defaulted
to ``random.Random(0)``, handing byte-identical streams to components
that are supposed to be independent.

This module replaces both patterns with SeedSequence-style *path
derivation*: a child seed is a pure function of the root seed and a
hierarchical path of tokens::

    derive(seed, "platform")                  # component stream
    derive(seed, "resolver", probe_id, 0)     # per-entity stream

Two properties make the sharded experiment engine
(:mod:`repro.core.parallel`) correct:

* **Layout invariance** — a stream depends only on its path, never on
  how many other streams exist or in which order they were created, so
  partitioning the probe population over K workers cannot perturb any
  draw.
* **Platform stability** — derivation is SHA-256 over canonical token
  bytes, not Python's randomized ``hash()``, so every process (and
  every ``PYTHONHASHSEED``) derives identical seeds.

Only the standard library is used and nothing from ``repro`` is
imported, so any layer may depend on this module without cycles.
"""

from __future__ import annotations

import hashlib
import math
import random

#: derived seeds are 63-bit non-negative ints (fits ``randrange(2**63)``)
SEED_BITS = 63

#: token-type domain separators: "city" must never collide with b"city"
#: or 0x63697479, so each token is tagged before hashing.
_TAG_INT = b"i"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_SEPARATOR = b"\x1f"

Token = "int | str | bytes"


def _token_bytes(token) -> bytes:
    """Canonical, collision-safe byte encoding of one path token."""
    if isinstance(token, bool):  # bool is an int subclass; be explicit
        return _TAG_INT + str(int(token)).encode("ascii")
    if isinstance(token, int):
        return _TAG_INT + str(token).encode("ascii")
    if isinstance(token, str):
        return _TAG_STR + token.encode("utf-8")
    if isinstance(token, bytes):
        return _TAG_BYTES + token
    raise TypeError(
        f"seed-path tokens must be int, str, or bytes, got {type(token).__name__}"
    )


def derive(root: int, *path) -> int:
    """A child seed: a pure function of ``root`` and the token ``path``.

    The same (root, path) always yields the same seed on every platform
    and in every process; distinct paths yield independent seeds (SHA-256
    collision resistance).  At least one path token is required — a
    derivation with no path would be indistinguishable from the root.
    """
    if not path:
        raise ValueError("derive() needs at least one path token")
    digest = hashlib.sha256()
    digest.update(_TAG_INT + str(int(root)).encode("ascii"))
    for token in path:
        digest.update(_SEPARATOR)
        digest.update(_token_bytes(token))
    return int.from_bytes(digest.digest()[:8], "big") >> (64 - SEED_BITS)


def derive_rng(root: int, *path) -> random.Random:
    """A :class:`random.Random` seeded by :func:`derive`."""
    return random.Random(derive(root, *path))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's Weyl increment: 2**64 / phi, odd


class CounterStream:
    """A deterministic stream whose whole state is one 64-bit integer.

    For streams kept per entity for a whole run — one per (client,
    destination) pair, resolver and selector — where a Mersenne state
    is 2.5 KiB.  The n-th output is splitmix64's finaliser over
    ``seed + n * _GAMMA``, a pure function of ``(seed, n)``: ``state``
    can live as a bare int in a table, and ``CounterStream(state)``
    resumes where it left off.  Every draw but :meth:`shuffle` consumes
    exactly one output, whatever its value.  Only what those call sites
    use is provided; shared and transient streams stay
    :class:`random.Random`.
    """

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state

    def _next(self) -> int:
        self.state = z = (self.state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self._next() >> 11) * 2.0**-53

    def randrange(self, stop: int) -> int:
        return (self._next() * stop) >> 64  # bias < stop / 2**64

    def choice(self, seq):
        return seq[(self._next() * len(seq)) >> 64]

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def shuffle(self, x: list) -> None:
        for i in range(len(x) - 1, 0, -1):  # Fisher-Yates
            j = self.randrange(i + 1)
            x[i], x[j] = x[j], x[i]

    def gauss(self, mu: float, sigma: float) -> float:
        """Box-Muller on the two 32-bit halves of one output."""
        z = self._next()
        radius = math.sqrt(-2.0 * math.log(((z >> 32) + 1) * 2.0**-32))
        return mu + sigma * radius * math.cos((z & 0xFFFFFFFF) * (math.tau / 2**32))


def derive_stream(root: int, *path) -> CounterStream:
    """A :class:`CounterStream` seeded by :func:`derive`."""
    return CounterStream(derive(root, *path))


def default_rng(*path) -> random.Random:
    """The stream a component falls back to when no rng/seed is given.

    Replaces the old ``random.Random(0)`` defaults: still deterministic,
    but namespaced per component so two different components that both
    omit an rng no longer share one stream (the synchronization bug the
    old defaults caused).  Components should pass their qualified name,
    e.g. ``default_rng("resolvers.forwarder")``.
    """
    return derive_rng(0, "default", *path)


__all__ = ["SEED_BITS", "CounterStream", "default_rng", "derive",
           "derive_rng", "derive_stream"]
