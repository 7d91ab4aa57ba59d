"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.net.host import Host
from repro.net.link import Link
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.tcp.stack import TcpStack


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> SeededRng:
    """A deterministic RNG."""
    return SeededRng(42)


class HostPair:
    """Two directly-cabled hosts with TCP stacks (no switch)."""

    def __init__(self, sim: Simulator, rng: SeededRng, **link_kwargs) -> None:
        self.sim = sim
        self.a = Host(sim, "a", "10.0.0.1", "00:00:00:00:00:01")
        self.b = Host(sim, "b", "10.0.0.2", "00:00:00:00:00:02")
        defaults = dict(bandwidth_bps=100e6, delay_s=0.001, queue_packets=100)
        defaults.update(link_kwargs)
        self.link = Link(sim, self.a.port, self.b.port, **defaults)
        self.a.arp_table[self.b.ip] = self.b.mac
        self.b.arp_table[self.a.ip] = self.a.mac
        self.stack_a = TcpStack(self.a, rng.child("a"))
        self.stack_b = TcpStack(self.b, rng.child("b"))


@pytest.fixture
def host_pair(sim: Simulator, rng: SeededRng) -> HostPair:
    """Two directly-linked hosts with TCP."""
    return HostPair(sim, rng)
