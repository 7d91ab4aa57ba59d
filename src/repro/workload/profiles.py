"""Standard workload mix: wire servers, clients and attackers to a topology.

``StandardWorkload`` is the one-call composition the harness and the
examples use: given a topology's role assignment, it starts a web server
on every server host, a request loop on every client host, and a SYN or
UDP flood from every attacker host, all driven by independent child RNG
streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.builder import Network
from repro.topology.standard import Roles
from repro.workload.attacker import (
    AttackSchedule,
    SynFloodAttacker,
    SynFloodConfig,
    UdpFloodAttacker,
    UdpFloodConfig,
)
from repro.workload.clients import WebClient
from repro.workload.servers import WebServer


@dataclass(frozen=True)
class WorkloadConfig:
    """Mix parameters shared across the experiment suite.

    Servers listen on port 80 and every request/response exchange uses
    the :class:`WebServer` / :class:`WebClient` defaults.
    """

    server_backlog: int = 128
    attack_kind: str = "syn"  # "syn" or "udp"
    attack_rate_pps: float = 200.0
    attack_start_s: float = 5.0
    attack_duration_s: float = float("inf")
    attack_ramp_s: float = 0.0
    attack_pulse_on_s: float = 0.0
    attack_pulse_off_s: float = 0.0
    udp_payload_bytes: int = 512
    spoof: bool = True
    spoof_pool_size: int = 0

    def __post_init__(self) -> None:
        if self.attack_kind not in ("syn", "udp"):
            raise ValueError("attack_kind must be 'syn' or 'udp'")


class StandardWorkload:
    """Servers + clients + flood bound to one topology's roles.

    Clients request from the first server.  Attacker *i* floods server
    ``i % len(servers)``, so one server is the one victim and several
    servers are flooded round-robin; the attack rate is split evenly
    over the attackers.
    """

    def __init__(self, net: Network, roles: Roles, config: WorkloadConfig | None = None) -> None:
        self.net = net
        self.roles = roles
        self.config = config or WorkloadConfig()
        self.servers: dict[str, WebServer] = {}
        self.clients: dict[str, WebClient] = {}
        self.attackers: dict[str, SynFloodAttacker | UdpFloodAttacker] = {}
        self._build()

    @property
    def victim_ip(self) -> str:
        """The first server's address: the clients' server and the
        first attacker's victim."""
        return self.net.hosts[self.roles.servers[0]].ip

    def _build(self) -> None:
        cfg = self.config
        for name in self.roles.servers:
            self.servers[name] = WebServer(
                self.net.stack(name), backlog=cfg.server_backlog
            )
        for name in self.roles.clients:
            self.clients[name] = WebClient(
                self.net.stack(name),
                server_ip=self.victim_ip,
                rng=self.net.rng.child(f"client.{name}"),
            )
        per_attacker_rate = (
            cfg.attack_rate_pps / len(self.roles.attackers) if self.roles.attackers else 0.0
        )
        schedule = AttackSchedule(
            start_s=cfg.attack_start_s,
            duration_s=cfg.attack_duration_s,
            ramp_s=cfg.attack_ramp_s,
            pulse_on_s=cfg.attack_pulse_on_s,
            pulse_off_s=cfg.attack_pulse_off_s,
        )
        # The Network owns the fast/reference switch: a reference network
        # schedules every arrival as its own event.
        burst = not self.net.reference
        servers = self.roles.servers
        for i, name in enumerate(self.roles.attackers):
            host = self.net.hosts[name]
            victim_ip = self.net.hosts[servers[i % len(servers)]].ip
            rng = self.net.rng.child(f"attacker.{name}")
            if cfg.attack_kind == "udp":
                self.attackers[name] = UdpFloodAttacker(
                    host,
                    rng,
                    UdpFloodConfig(
                        victim_ip=victim_ip,
                        rate_pps=per_attacker_rate,
                        payload_bytes=cfg.udp_payload_bytes,
                        spoof=cfg.spoof,
                        spoof_pool_size=cfg.spoof_pool_size,
                        schedule=schedule,
                    ),
                    burst=burst,
                )
            else:
                self.attackers[name] = SynFloodAttacker(
                    host,
                    rng,
                    SynFloodConfig(
                        victim_ip=victim_ip,
                        rate_pps=per_attacker_rate,
                        spoof=cfg.spoof,
                        spoof_pool_size=cfg.spoof_pool_size,
                        schedule=schedule,
                    ),
                    burst=burst,
                )

    def start(self, with_attack: bool = True) -> None:
        """Start clients (immediately) and attackers (per their schedule)."""
        for client in self.clients.values():
            client.start()
        if with_attack:
            for attacker in self.attackers.values():
                attacker.start()

    def stop(self) -> None:
        """Stop all generators."""
        for client in self.clients.values():
            client.stop()
        for attacker in self.attackers.values():
            attacker.stop()

    # ----------------------------------------------------------- queries

    def client_successes(self, start: float = 0.0, end: float = float("inf")) -> int:
        """Completed benign requests across all clients in a phase."""
        return sum(c.stats.successes(start, end) for c in self.clients.values())

    def client_failures(self, start: float = 0.0, end: float = float("inf")) -> int:
        """Failed benign attempts across all clients in a phase."""
        return sum(c.stats.failures(start, end) for c in self.clients.values())

    def client_success_rate(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Benign success fraction within a phase (1.0 when idle)."""
        good = self.client_successes(start, end)
        bad = self.client_failures(start, end)
        total = good + bad
        return good / total if total else 1.0

    def started_success_rate(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Fraction of attempts started in the phase that succeeded.

        Attributes outcomes to attempt start time (the figure view);
        pending attempts count against success.
        """
        ok = failed = pending = 0
        for client in self.clients.values():
            o, f, p = client.stats.started_outcomes(start, end)
            ok += o
            failed += f
            pending += p
        total = ok + failed + pending
        return ok / total if total else 1.0

    def client_latencies(self, start: float = 0.0, end: float = float("inf")) -> list[float]:
        """All successful request latencies within a phase."""
        latencies: list[float] = []
        for client in self.clients.values():
            latencies.extend(client.stats.request_latencies(start, end))
        return latencies

    def attack_packets_sent(self) -> int:
        """Total flood packets (SYN or UDP) emitted by all attackers."""
        return sum(a.packets_sent for a in self.attackers.values())
