"""Tests for seeded RNG streams and the tracer."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import SeededRng
from repro.sim.trace import Tracer


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(7)
        b = SeededRng(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRng(1)
        b = SeededRng(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_child_streams_are_deterministic(self):
        a = SeededRng(7).child("net")
        b = SeededRng(7).child("net")
        assert a.random() == b.random()

    def test_child_streams_are_independent(self):
        parent = SeededRng(7)
        net = parent.child("net")
        app = parent.child("app")
        assert net.seed != app.seed

    def test_child_independent_of_parent_consumption(self):
        one = SeededRng(7)
        one.random()
        two = SeededRng(7)
        assert one.child("x").seed == two.child("x").seed

    def test_randint_bounds(self):
        rng = SeededRng(1)
        values = [rng.randint(3, 5) for _ in range(100)]
        assert set(values) <= {3, 4, 5}

    def test_uniform_bounds(self):
        rng = SeededRng(1)
        for _ in range(100):
            v = rng.uniform(2.0, 3.0)
            assert 2.0 <= v <= 3.0

    def test_expovariate_positive(self):
        rng = SeededRng(1)
        assert all(rng.expovariate(10.0) > 0 for _ in range(100))

    def test_choice_and_sample(self):
        rng = SeededRng(1)
        seq = ["a", "b", "c", "d"]
        assert rng.choice(seq) in seq
        picked = rng.sample(seq, 2)
        assert len(picked) == 2 and len(set(picked)) == 2

    def test_shuffle_preserves_elements(self):
        rng = SeededRng(1)
        seq = list(range(10))
        rng.shuffle(seq)
        assert sorted(seq) == list(range(10))

    def test_random_ipv4_shape(self):
        rng = SeededRng(1)
        ip = rng.random_ipv4()
        parts = ip.split(".")
        assert len(parts) == 4
        assert all(1 <= int(p) <= 254 for p in parts)

    def test_random_ipv4_prefix_respected(self):
        rng = SeededRng(1)
        for _ in range(20):
            assert rng.random_ipv4("198.18.").startswith("198.18.")

    def test_random_ipv4_full_prefix(self):
        rng = SeededRng(1)
        assert rng.random_ipv4("1.2.3.4") == "1.2.3.4"

    @pytest.mark.parametrize("prefix", ["1.2.3.4.5", "1..2.", ".10.", "1.2.3.4.."])
    def test_random_ipv4_refuses_a_malformed_prefix(self, prefix):
        with pytest.raises(ValueError, match="malformed IPv4 prefix"):
            SeededRng(1).random_ipv4(prefix)


def _stdlib_ipv4(rnd: random.Random, prefix: str) -> str:
    """The spoofed-address draw written against the stdlib calls."""
    have = [p for p in prefix.split(".") if p != ""]
    octets = have + [str(rnd.randint(1, 254)) for _ in range(4 - len(have))]
    return ".".join(octets)


# One call of the draw layer: (method, args) on SeededRng, and the same
# draw through the stdlib on a random.Random.
_widths = st.one_of(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=70).map(lambda b: 2**b),
    st.integers(min_value=0, max_value=70).map(lambda b: 2**b + 1),
    st.integers(min_value=0, max_value=70).map(lambda b: max(1, 2**b - 1)),
    st.integers(min_value=2**32, max_value=2**70),
)
_calls = st.one_of(
    st.tuples(st.integers(-2**40, 2**40), _widths).map(
        lambda c: ("randint", (c[0], c[0] + c[1] - 1))
    ),
    st.integers(min_value=1, max_value=300).map(
        lambda n: ("choice", (list(range(n)),))
    ),
    st.sampled_from(["", "10.", "198.18.", "10.0.0.7", "1.2.3.4."]).map(
        lambda p: ("random_ipv4", (p,))
    ),
    st.floats(min_value=1e-3, max_value=1e5).map(lambda r: ("expovariate", (r,))),
    st.just(("random", ())),
)


class TestDrawEquivalence:
    """SeededRng's one-frame draws are the stdlib's draws, word for word.

    The ``reference`` twin goes through the same SeededRng, so this is
    the oracle: a stdlib change to ``_randbelow`` fails here instead of
    silently re-drawing every golden.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        calls=st.lists(_calls, max_size=40),
    )
    def test_same_values_and_state_as_stdlib(self, seed, calls):
        ours = SeededRng(seed)
        theirs = random.Random(seed)
        for name, args in calls:
            if name == "random_ipv4":
                expected = _stdlib_ipv4(theirs, *args)
            else:
                expected = getattr(theirs, name)(*args)
            assert getattr(ours, name)(*args) == expected, (name, args)
        assert ours._random.getstate() == theirs.getstate()

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(1).randint(5, 4)
        with pytest.raises(IndexError):
            SeededRng(1).choice([])


class TestTracer:
    def _tracer(self, clock_value=0.0):
        state = {"t": clock_value}
        tracer = Tracer(lambda: state["t"])
        return tracer, state

    def test_emit_records_time_and_data(self):
        tracer, state = self._tracer()
        state["t"] = 3.0
        entry = tracer.emit("cat", "msg", key="value")
        assert entry.time == 3.0
        assert entry.data == {"key": "value"}

    def test_entries_filter_by_category(self):
        tracer, _ = self._tracer()
        tracer.emit("a", "1")
        tracer.emit("b", "2")
        tracer.emit("a", "3")
        assert len(tracer.entries("a")) == 2
        assert len(tracer.entries()) == 3

    def test_first_respects_after(self):
        tracer, state = self._tracer()
        tracer.emit("x", "early")
        state["t"] = 10.0
        tracer.emit("x", "late")
        found = tracer.first("x", after=5.0)
        assert found is not None and found.message == "late"

    def test_first_missing_returns_none(self):
        tracer, _ = self._tracer()
        assert tracer.first("nothing") is None

    def test_count(self):
        tracer, _ = self._tracer()
        for _ in range(3):
            tracer.emit("c", "x")
        assert tracer.count("c") == 3
        assert tracer.count("other") == 0

    def test_iter_between(self):
        tracer, state = self._tracer()
        for t in (1.0, 2.0, 3.0):
            state["t"] = t
            tracer.emit("w", str(t))
        window = list(tracer.iter_between(1.5, 3.0))
        assert [e.message for e in window] == ["2.0"]

    def test_subscribe_listener_called(self):
        tracer, _ = self._tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit("c", "hello")
        assert len(seen) == 1 and seen[0].message == "hello"

    def test_clear_drops_entries_keeps_listeners(self):
        tracer, _ = self._tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit("c", "1")
        tracer.clear()
        assert len(tracer) == 0
        tracer.emit("c", "2")
        assert len(seen) == 2

    def test_len(self):
        tracer, _ = self._tracer()
        assert len(tracer) == 0
        tracer.emit("c", "x")
        assert len(tracer) == 1
