"""The monitors' windowed source-entropy accumulator.

:class:`EntropyAccumulator` tracks a categorical key distribution
(source IPs) over one window and reports its normalized entropy.
"""

from __future__ import annotations

import math
import sys
from collections import Counter


class EntropyAccumulator:
    """Shannon entropy of a categorical distribution, normalized to [0, 1].

    A SYN flood with spoofed sources pushes the source-IP entropy toward
    1 (every packet a new address); a flash crowd of real users sits
    lower because legitimate clients send multiple packets each.
    """

    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()
        self._total = 0

    def add(self, key: str, amount: int = 1) -> None:
        """Observe ``key``."""
        self._counts[key] += amount
        self._total += amount

    def add_counts(self, counts: dict[str, int]) -> None:
        """Merge a whole per-key count mapping in its iteration order.

        ``Counter.update`` inserts unseen keys in the mapping's own
        order, so a first-touch-ordered mapping reproduces the exact
        insertion order — and therefore the exact ``entropy()`` float
        summation order — of equivalent sequential :meth:`add` calls.
        """
        self._counts.update(counts)
        self._total += sum(counts.values())

    @property
    def total(self) -> int:
        """Total observations this window."""
        return self._total

    @property
    def distinct(self) -> int:
        """Distinct keys this window."""
        return len(self._counts)

    def entropy(self) -> float:
        """Normalized Shannon entropy (0 = single key, 1 = uniform)."""
        n = self._total
        k = len(self._counts)
        if n == 0 or k <= 1:
            return 0.0
        raw = 0.0
        for count in self._counts.values():
            p = count / n
            raw -= p * math.log2(p)
        return raw / math.log2(k)

    def top(self, n: int = 1) -> list[tuple[str, int]]:
        """The ``n`` most frequent keys and their counts."""
        return self._counts.most_common(n)

    def state_bytes(self) -> int:
        """Resident bytes of the key counter — O(distinct keys)."""
        counts = self._counts
        return sys.getsizeof(counts) + sum(
            sys.getsizeof(k) + sys.getsizeof(v) for k, v in counts.items()
        )

    def reset(self) -> None:
        """Clear for the next window."""
        self._counts.clear()
        self._total = 0
