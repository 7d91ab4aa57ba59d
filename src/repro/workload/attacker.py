"""Flood attack generators (the hping3 stand-in).

``SynFloodAttacker`` crafts raw SYN segments below the TCP stack —
spoofed source addresses from a configurable pool, random source ports
and sequence numbers, at a configurable rate with optional ramp-up —
exactly the packet stream ``hping3 -S --flood --rand-source`` produces on
a testbed.  ``UdpFloodAttacker`` provides the volumetric comparison
workload, drawing its sources the same way.

Arrivals come from the one Poisson process, :class:`repro.sim.process.Interval`,
with ``_craft`` as its ``draw`` and ``_emit`` as its callback; the
simulator picks the twin.  On the fast simulator arrivals are
pre-generated a burst at a time (overdrawing the attacker's RNG past the
attack end is harmless: the stream is an exclusive ``rng.child`` nobody
else reads) and crafted through a :class:`repro.net.packet.FloodTemplate`
(fields only; bytes are packed if and when something reads them), built
at the first draw, once the static ARP tables are final.  The reference
twin never builds a template: every arrival is its own event and goes
out through the per-packet ``send_tcp``/``send_udp`` path, with the same
draws and the same packets.  When the victim's MAC does not resolve (no
static ARP entry, no gateway), the fast path falls back to that
per-packet path too, so every such send is counted in the host's
``arp_failures``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import validate_ip
from repro.net.headers import PROTO_TCP, PROTO_UDP, TCP_SYN, TcpHeader, UdpHeader
from repro.net.host import Host
from repro.net.packet import FloodTemplate
from repro.sim.process import Interval
from repro.sim.rng import SeededRng

_new = tuple.__new__  # headers are built positionally: every field, in order


@dataclass(frozen=True)
class AttackSchedule:
    """When the attack runs, in absolute simulated time.

    ``pulse_on_s``/``pulse_off_s`` turn the flood into a pulsing (on-off)
    attack — the classic evasion against duty-cycled inspection, used in
    experiment E8.  ``ramp_s`` ramps the rate linearly from zero at
    onset, the low-and-slow shape CUSUM-style detectors exist for.
    """

    start_s: float = 0.0
    duration_s: float = float("inf")
    ramp_s: float = 0.0  # linear rate ramp from 0 to full over this period
    pulse_on_s: float = 0.0  # 0 = continuous
    pulse_off_s: float = 0.0

    def __post_init__(self) -> None:
        if (self.pulse_on_s > 0) != (self.pulse_off_s > 0):
            raise ValueError("pulsing needs both pulse_on_s and pulse_off_s")

    def rate_multiplier(self, now: float) -> float:
        """Fraction of the nominal rate active at ``now``."""
        if now < self.start_s or now >= self.start_s + self.duration_s:
            return 0.0
        if self.pulse_on_s > 0:
            phase = (now - self.start_s) % (self.pulse_on_s + self.pulse_off_s)
            if phase >= self.pulse_on_s:
                return 0.0
        if self.ramp_s > 0 and now < self.start_s + self.ramp_s:
            return (now - self.start_s) / self.ramp_s
        return 1.0


def _check_spoof_prefix(prefix: str) -> None:
    """Refuse a prefix that ``random_ipv4`` refuses (``"1.2.3.4.5"``,
    ``"1..2."``) or whose draws are not canonical IPv4 (``"198.018."``).
    Drawn octets are 1–254, so one draw stands for all."""
    try:
        validate_ip(SeededRng(0).random_ipv4(prefix))
    except ValueError:
        raise ValueError(f"spoof prefix {prefix!r} draws malformed IPv4 addresses") from None


@dataclass(frozen=True)
class SynFloodConfig:
    """SYN flood parameters."""

    victim_ip: str = ""
    victim_port: int = 80
    rate_pps: float = 200.0
    spoof: bool = True
    spoof_prefix: str = "198.18."  # RFC 2544 benchmark range: never real hosts
    spoof_pool_size: int = 0  # 0 = unbounded random (hping3 --rand-source)
    schedule: AttackSchedule = field(default_factory=AttackSchedule)

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError("rate must be positive")
        if self.spoof_pool_size < 0:
            raise ValueError("spoof pool size must be >= 0")
        _check_spoof_prefix(self.spoof_prefix)


class _FloodAttacker:
    """Shared flood machinery around one :class:`Interval` arrival process.

    Subclasses define ``_kind`` plus three hooks: ``_build_template()``
    (may return ``None`` to keep per-packet sends), ``_craft(t)`` (draws
    one arrival's randomness and returns a finished packet, a per-packet
    send tuple, or ``None`` for a suppressed arrival) and ``_emit(item)``
    (puts one crafted item on the wire).
    """

    _kind = "flood"

    def __init__(self, host: Host, rng: SeededRng, config) -> None:
        if not config.victim_ip:
            raise ValueError("victim_ip is required")
        self.host = host
        self.rng = rng
        self.config = config
        self.packets_sent = 0
        # Sends the host refused: link queue full, or no MAC for the victim.
        self.packets_rejected = 0
        self._arrivals = Interval(
            host.sim, rng, config.rate_pps, self._emit,
            f"{self._kind}.{host.name}", draw=self._craft,
        )
        # The template is built at the first draw: at start() time the
        # static ARP tables are not yet final, so the victim's MAC (baked
        # into the template) cannot be resolved.
        self._template = None
        self._template_ready = False
        self._spoof_pool: list[str] = []
        if config.spoof and config.spoof_pool_size > 0:
            self._spoof_pool = [
                rng.random_ipv4(config.spoof_prefix) for _ in range(config.spoof_pool_size)
            ]

    def start(self) -> None:
        """Arm the generator; packets flow from ``schedule.start_s`` until
        the schedule ends.  Armed after its end, it sends nothing."""
        sim = self.host.sim
        schedule = self.config.schedule
        end = schedule.start_s + schedule.duration_s
        if self._arrivals.running or end <= sim.now:
            return
        self._arrivals.start(schedule.start_s)
        if end != float("inf"):
            sim.schedule_at(end, self.stop, f"{self._kind}.end")

    def stop(self) -> None:
        """Cease fire."""
        self._arrivals.stop()

    def _ready_template(self) -> None:
        self._template_ready = True
        if self._arrivals.coalesced:
            self._template = self._build_template()

    # Hooks ------------------------------------------------------------

    def _build_template(self):
        raise NotImplementedError

    def _resolve_victim_mac(self) -> Optional[str]:
        """Victim's next-hop MAC, or None when the fast path must stand down."""
        try:
            return self.host.resolve_mac(self.config.victim_ip)
        except KeyError:
            return None

    def _craft(self, t: float):
        raise NotImplementedError

    def _emit(self, item) -> None:
        raise NotImplementedError

    def _source_ip(self) -> Optional[str]:
        if not self.config.spoof:
            return None  # use the host's real address
        if self._spoof_pool:
            return self.rng.choice(self._spoof_pool)
        return self.rng.random_ipv4(self.config.spoof_prefix)


class SynFloodAttacker(_FloodAttacker):
    """Raw SYN generator attached to one attacking host."""

    _kind = "synflood"

    def _build_template(self) -> Optional[FloodTemplate]:
        dst_mac = self._resolve_victim_mac()
        if dst_mac is None:
            return None
        return FloodTemplate(
            self.host.mac, dst_mac, self.config.victim_ip,
            self.config.victim_port, PROTO_TCP,
        )

    def _craft(self, t: float):
        if not self._template_ready:
            self._ready_template()
        multiplier = self.config.schedule.rate_multiplier(t)
        if multiplier <= 0.0:
            return None
        rng = self.rng
        if multiplier < 1.0 and rng.random() > multiplier:
            return None
        src_port = rng.randint(1024, 65535)
        seq = rng.randint(0, 0xFFFFFFFF)
        src_ip = self._source_ip()
        header = _new(TcpHeader, (src_port, self.config.victim_port, seq, 0, TCP_SYN, 65535))
        template = self._template
        if template is not None:
            return template.stamp(
                src_ip if src_ip is not None else self.host.ip, header
            )
        return (src_ip, header)

    def _emit(self, item) -> None:
        if type(item) is tuple:
            src_ip, header = item
            sent = self.host.send_tcp(self.config.victim_ip, header, src_ip=src_ip)
        else:
            sent = self.host.send_packet(item)
        if sent:
            self.packets_sent += 1
        else:
            self.packets_rejected += 1


@dataclass(frozen=True)
class UdpFloodConfig:
    """UDP flood parameters."""

    victim_ip: str = ""
    victim_port: int = 53
    rate_pps: float = 500.0
    payload_bytes: int = 512
    spoof: bool = True
    spoof_prefix: str = "198.18."
    spoof_pool_size: int = 0  # 0 = unbounded random
    schedule: AttackSchedule = field(default_factory=AttackSchedule)

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError("rate must be positive")
        if self.payload_bytes < 0:
            raise ValueError("payload must be >= 0 bytes")
        if self.spoof_pool_size < 0:
            raise ValueError("spoof pool size must be >= 0")
        _check_spoof_prefix(self.spoof_prefix)


class UdpFloodAttacker(_FloodAttacker):
    """Volumetric UDP generator attached to one attacking host."""

    _kind = "udpflood"

    def _build_template(self) -> Optional[FloodTemplate]:
        dst_mac = self._resolve_victim_mac()
        if dst_mac is None:
            return None
        return FloodTemplate(
            self.host.mac, dst_mac, self.config.victim_ip,
            self.config.victim_port, PROTO_UDP,
            payload=bytes(self.config.payload_bytes),
        )

    def _craft(self, t: float):
        if not self._template_ready:
            self._ready_template()
        # Deliberately no thinning draw — the UDP flood fires at full
        # rate whenever the schedule multiplier is positive.
        if self.config.schedule.rate_multiplier(t) <= 0.0:
            return None
        src_port = self.rng.randint(1024, 65535)
        src_ip = self._source_ip()
        header = _new(UdpHeader, (src_port, self.config.victim_port))
        template = self._template
        if template is not None:
            return template.stamp(
                src_ip if src_ip is not None else self.host.ip, header
            )
        return (src_ip, header)

    def _emit(self, item) -> None:
        if type(item) is tuple:
            src_ip, header = item
            sent = self.host.send_udp(
                self.config.victim_ip, header,
                bytes(self.config.payload_bytes), src_ip=src_ip,
            )
        else:
            sent = self.host.send_packet(item)
        if sent:
            self.packets_sent += 1
        else:
            self.packets_rejected += 1
