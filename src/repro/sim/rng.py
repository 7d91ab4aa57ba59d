"""Seeded randomness for reproducible experiments.

Every scenario owns exactly one :class:`SeededRng`; components that need
randomness receive either the shared instance or a named child stream.
Child streams are derived deterministically from the parent seed and a
string label, so adding a new consumer never perturbs existing streams —
the property that keeps regression comparisons meaningful.
"""

from __future__ import annotations

import hashlib
import random


class SeededRng:
    """A thin, explicitly-seeded wrapper over :class:`random.Random`."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._random = random.Random(self.seed)

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
        return self._random.expovariate(rate)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return self._random.randint(lo, hi)

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        return self._random.choice(seq)

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
        a victim's network.
        """
        have = [p for p in prefix.split(".") if p != ""]
        need = 4 - len(have)
        octets = have + [str(self._random.randint(1, 254)) for _ in range(need)]
        return ".".join(octets[:4])
