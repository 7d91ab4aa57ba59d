"""Seeded randomness for reproducible experiments.

Every scenario owns exactly one :class:`SeededRng`; components that need
randomness receive either the shared instance or a named child stream.
Child streams are derived deterministically from the parent seed and a
string label, so adding a new consumer never perturbs existing streams —
the property that keeps regression comparisons meaningful.

The integer draws (:meth:`SeededRng.randint`, :meth:`SeededRng.random_ipv4`,
and :meth:`SeededRng.choice` through ``randint``) and
:meth:`SeededRng.expovariate` are the stdlib's own algorithms written out
in one frame: ``getrandbits(k)`` with ``k`` the width's ``bit_length()``
and the same rejection loop as ``Random._randbelow``, so they return the
same values and consume the same Mersenne Twister words as the stdlib
calls — a spoofed SYN makes four such draws, and the three stdlib frames
per draw were most of their cost.  ``tests/test_sim_rng_trace.py`` holds
the equivalence against :class:`random.Random`.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from math import log


@lru_cache(maxsize=256)
def _parse_prefix(prefix: str) -> tuple[str, int]:
    """``(leading dotted octets, octets still to draw)`` of an address prefix."""
    have = [p for p in prefix.split(".") if p != ""]
    return ".".join(have[:4]), 4 - len(have)


class SeededRng:
    """A thin, explicitly-seeded wrapper over :class:`random.Random`."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._random = random.Random(self.seed)
        self._getrandbits = self._random.getrandbits

    def child(self, label: str) -> "SeededRng":
        """Derive an independent, reproducible stream named ``label``."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return SeededRng(int.from_bytes(digest[:8], "big"))

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi]."""
        return self._random.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (mean ``1/rate``)."""
        return -log(1.0 - self._random.random()) / rate

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        n = hi - lo + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({lo}, {hi})")
        getrandbits = self._getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        n = len(seq)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        return seq[self.randint(0, n - 1)]

    def sample(self, seq, k: int):
        """Sample ``k`` distinct elements from ``seq``."""
        return self._random.sample(seq, k)

    def shuffle(self, seq) -> None:
        """Shuffle ``seq`` in place."""
        self._random.shuffle(seq)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal variate."""
        return self._random.gauss(mu, sigma)

    def random_ipv4(self, prefix: str = "") -> str:
        """Draw a random dotted-quad IPv4 address.

        With ``prefix`` (e.g. ``"10.0."``), only the missing octets are
        randomized — handy for spoofed-source generation inside or outside
        a victim's network.  Each missing octet is ``randint(1, 254)``.
        """
        head, need = _parse_prefix(prefix)
        getrandbits = self._getrandbits
        octets = [head] if head else []
        for _ in range(need):
            r = getrandbits(8)
            while r >= 254:
                r = getrandbits(8)
            octets.append(str(r + 1))
        return ".".join(octets)
