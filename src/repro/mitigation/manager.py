"""Mitigation: translate a confirmed verdict into flow rules.

Three granularities, ablated in E7 and selectable per scenario:

* ``BLOCK_SOURCES`` — one drop rule per identified attacker source, on
  every datapath, with a hard timeout.  Right answer for non-spoofed or
  small-pool attacks; breaks down when sources are random-spoofed.
* ``BLOCK_PREFIX`` — when the attacker population exceeds the per-source
  rule budget, find covering prefixes that contain many attackers and no
  whitelisted source, and install one CIDR drop per prefix.
* ``SHIELD_VICTIM`` — a token-bucket rate limit in front of the victim
  plus high-priority pass rules for sources that completed handshakes
  during inspection (the verified-good whitelist).

``HYBRID`` (the default) starts with per-source rules and escalates to
prefix blocks when the population is too large.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.controller.base import Controller
from repro.controller.l2 import L2LearningSwitch
from repro.monitor.detectors import retune_number
from repro.net.addresses import canonical_cidr, int_to_ip, ip_in_subnet, ip_to_int
from repro.net.headers import ETHERTYPE_IPV4
from repro.openflow.actions import Drop, Output, RateLimit
from repro.openflow.match import Match
from repro.sim.trace import Tracer

MITIGATION_COOKIE = 0xD05
#: Operator-initiated blocks (the control-plane ``block`` API) carry
#: their own cookie so they can be lifted without disturbing the rules a
#: confirmed verdict installed.
OPERATOR_COOKIE = 0xD06
PRIORITY_WHITELIST = 320
PRIORITY_MITIGATION = 300
#: Width of the covering prefixes ``BLOCK_PREFIX`` installs (a /16).
AGGREGATE_PREFIX_LEN = 16
_AGGREGATE_MASK = (0xFFFFFFFF << (32 - AGGREGATE_PREFIX_LEN)) & 0xFFFFFFFF
#: Token-bucket rate ``SHIELD_VICTIM`` lets through to the victim.
SHIELD_PPS = 50.0


class MitigationMode(enum.Enum):
    """Mitigation granularity."""

    BLOCK_SOURCES = "block_sources"
    BLOCK_PREFIX = "block_prefix"
    SHIELD_VICTIM = "shield_victim"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class MitigationConfig:
    """Mitigation tuning."""

    mode: MitigationMode = MitigationMode.HYBRID
    rule_hard_timeout_s: float = 30.0
    max_source_rules: int = 64
    # A prefix is blockable only if it contains at least this many
    # zero-completion sources (spoofed floods put hundreds in one /16;
    # a handful of unlucky benign clients never reach this density).
    prefix_min_sources: int = 8

    def __post_init__(self) -> None:
        if self.rule_hard_timeout_s <= 0:
            raise ValueError("rule timeout must be positive")
        if self.max_source_rules < 1:
            raise ValueError("need at least one source rule")


def _check_duration(duration_s: object, what: str) -> None:
    """Refuse an operator duration that is neither None nor a positive number."""
    if duration_s is not None and not retune_number(f"{what} duration", duration_s) > 0:
        raise ValueError(f"{what} duration must be a positive number (or None), got {duration_s!r}")


def _operator_match(src_ip: object, victim_ip: object) -> Match:
    """The drop rule an operator block installs.  Its canonical
    ``(ip_src, ip_dst)`` text keys the block, so every spelling of one
    address or prefix names the same block."""
    if src_ip is None:
        raise ValueError("an operator block needs a source address or prefix")
    return Match(eth_type=ETHERTYPE_IPV4, ip_src=src_ip, ip_dst=victim_ip)


@dataclass(frozen=True)
class BlockEntry:
    """One active block (source or prefix) with its expiry; ``ip`` and
    ``victim_ip`` are canonical text."""

    ip: str
    victim_ip: Optional[str]
    installed_at: float
    expires_at: Optional[float]  # None = permanent
    origin: str  # "verdict" or "operator"

    @property
    def permanent(self) -> bool:
        """True when the block never expires on its own."""
        return self.expires_at is None

    def describe(self) -> dict:
        """Plain-data form (service API, E3 report)."""
        return {
            "ip": self.ip,
            "victim_ip": self.victim_ip,
            "installed_at": self.installed_at,
            "expires_at": self.expires_at,
            "permanent": self.permanent,
            "origin": self.origin,
        }


@dataclass(frozen=True)
class WhitelistEntry:
    """One never-block whitelist member with its expiry."""

    ip: str
    added_at: float
    expires_at: Optional[float]  # None = permanent
    origin: str  # "verified-good" or "operator"

    @property
    def permanent(self) -> bool:
        """True when the entry never expires on its own."""
        return self.expires_at is None

    def describe(self) -> dict:
        """Plain-data form (service API, E3 report)."""
        return {
            "ip": self.ip,
            "added_at": self.added_at,
            "expires_at": self.expires_at,
            "permanent": self.permanent,
            "origin": self.origin,
        }


@dataclass
class MitigationRecord:
    """What was installed for one confirmed attack."""

    victim_ip: str
    installed_at: float
    mode: MitigationMode
    blocked_sources: list[str] = field(default_factory=list)
    blocked_prefixes: list[str] = field(default_factory=list)
    shielded: bool = False
    whitelisted: list[str] = field(default_factory=list)

    @property
    def rule_count(self) -> int:
        """Rules installed per datapath."""
        return (
            len(self.blocked_sources)
            + len(self.blocked_prefixes)
            + (1 if self.shielded else 0)
            + len(self.whitelisted)
        )


class MitigationManager:
    """Installs and retires mitigation flow rules."""

    def __init__(
        self,
        controller: Controller,
        config: MitigationConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.controller = controller
        self.config = config or MitigationConfig()
        # Explicit None check: an empty Tracer is falsy (len() == 0).
        self.tracer = tracer if tracer is not None else controller.tracer
        self.records: list[MitigationRecord] = []
        self.active: dict[str, MitigationRecord] = {}
        # Never-block members by canonical address, with expiry and origin.
        self.whitelist: dict[str, WhitelistEntry] = {}
        self._operator_blocks: dict[tuple[str, Optional[str]], BlockEntry] = {}
        self._victim_macs: dict[str, str] = {}

    # ------------------------------------------------------------- public

    def mitigate(
        self,
        victim_ip: str,
        attacker_sources: Iterable[str],
        suspect_sources: Iterable[str] = (),
        completed_sources: Iterable[str] = (),
    ) -> MitigationRecord:
        """Apply the configured mitigation for a confirmed attack.

        ``attacker_sources`` are heavy hitters safe to block one by one;
        ``suspect_sources`` are the low-volume zero-completion population
        that is only blockable in aggregate (dense prefixes);
        ``completed_sources`` join the never-block whitelist.
        """
        attackers = [ip for ip in attacker_sources if ip not in self.whitelist]
        suspects = [ip for ip in suspect_sources if ip not in self.whitelist]
        now = self.controller.sim.now
        for ip in completed_sources:
            if ip not in self.whitelist:
                self.whitelist[ip] = WhitelistEntry(
                    ip=ip, added_at=now, expires_at=None, origin="verified-good"
                )
        record = MitigationRecord(
            victim_ip=victim_ip, installed_at=now, mode=self.config.mode
        )
        mode = self.config.mode
        if mode in (MitigationMode.HYBRID, MitigationMode.BLOCK_SOURCES):
            self._drop_from(
                victim_ip, attackers[: self.config.max_source_rules],
                record.blocked_sources,
            )
        if mode in (MitigationMode.HYBRID, MitigationMode.BLOCK_PREFIX):
            self._drop_from(
                victim_ip, self._covering_prefixes(suspects), record.blocked_prefixes
            )
        if mode is MitigationMode.SHIELD_VICTIM:
            self._shield(victim_ip, record)
        self.records.append(record)
        self.active[victim_ip] = record
        # The flow rules carry a hard timeout; the manager's view must
        # expire with them or re-detection of a persistent attack would
        # be suppressed forever.
        self.controller.sim.schedule(
            self.config.rule_hard_timeout_s,
            lambda: self._expire_record(victim_ip, record),
            "mitigation.expiry",
        )
        self.tracer.emit(
            "mitigation.installed",
            f"victim={victim_ip} mode={mode.value} rules={record.rule_count}",
            victim=victim_ip,
            mode=mode.value,
            sources=len(record.blocked_sources),
            prefixes=list(record.blocked_prefixes),
        )
        return record

    def lift(self, victim_ip: str) -> None:
        """Remove all mitigation rules for a victim (manual or post-attack)."""
        record = self.active.pop(victim_ip, None)
        if record is None:
            return
        self._delete_everywhere(
            Match(eth_type=ETHERTYPE_IPV4, ip_dst=victim_ip), MITIGATION_COOKIE
        )
        self.tracer.emit("mitigation.lifted", f"victim={victim_ip}", victim=victim_ip)

    def is_active(self, victim_ip: str) -> bool:
        """True while mitigation rules for this victim are installed."""
        return victim_ip in self.active

    # ------------------------------------------------- operator block API

    def block_source(
        self,
        src_ip: str,
        victim_ip: Optional[str] = None,
        duration_s: Optional[float] = None,
    ) -> BlockEntry:
        """Install an operator drop rule for ``src_ip``.

        ``duration_s=None`` makes the block *permanent* (the flow rules
        carry no hard timeout and the entry never expires); a positive
        duration makes it *temporary* — both the rules and the manager's
        view expire together.  With ``victim_ip`` the drop is scoped to
        one destination, otherwise all traffic from the source drops.
        ``src_ip`` may be a CIDR prefix; a block covering any whitelisted
        address is refused.  The block is keyed by its rule's canonical
        text, so any spelling of the same address or prefix replaces or
        lifts it.
        """
        match = _operator_match(src_ip, victim_ip)
        _check_duration(duration_s, "block")
        src_ip, victim_ip = match.ip_src, match.ip_dst
        for ip in sorted(self.whitelist):
            if ip_in_subnet(ip, src_ip):
                raise ValueError(f"{src_ip!r} covers whitelisted {ip!r}; remove it first")
        now = self.controller.sim.now
        entry = BlockEntry(
            ip=src_ip,
            victim_ip=victim_ip,
            installed_at=now,
            expires_at=None if duration_s is None else now + duration_s,
            origin="operator",
        )
        self._install_everywhere(
            match, (Drop(),), PRIORITY_MITIGATION,
            0.0 if duration_s is None else duration_s, OPERATOR_COOKIE,
        )
        key = (src_ip, victim_ip)
        self._operator_blocks[key] = entry
        if duration_s is not None:
            self.controller.sim.schedule(
                duration_s,
                lambda: self._expire_operator_block(key, entry),
                "mitigation.block_expiry",
            )
        self.tracer.emit(
            "mitigation.blocked",
            f"src={src_ip} victim={victim_ip or '*'} "
            f"{'permanent' if entry.permanent else f'for {duration_s:g}s'}",
            src=src_ip,
            victim=victim_ip,
            permanent=entry.permanent,
        )
        return entry

    def unblock_source(self, src_ip: str, victim_ip: Optional[str] = None) -> bool:
        """Lift an operator block spelled any way; returns False when none
        was active."""
        match = _operator_match(src_ip, victim_ip)
        src_ip, victim_ip = match.ip_src, match.ip_dst
        if self._operator_blocks.pop((src_ip, victim_ip), None) is None:
            return False
        self._delete_everywhere(match, OPERATOR_COOKIE)
        self.tracer.emit(
            "mitigation.unblocked",
            f"src={src_ip} victim={victim_ip or '*'}",
            src=src_ip,
            victim=victim_ip,
        )
        return True

    def _expire_operator_block(
        self, key: tuple[str, Optional[str]], entry: BlockEntry
    ) -> None:
        # The flow rules expire on the datapath via their hard timeout;
        # only the manager's view needs retiring (and only if the entry
        # was not replaced or lifted in the meantime).
        if self._operator_blocks.get(key) is entry:
            del self._operator_blocks[key]

    def add_whitelist(
        self, src_ip: str, duration_s: Optional[float] = None
    ) -> WhitelistEntry:
        """Add ``src_ip`` to the never-block whitelist.

        ``duration_s=None`` is permanent; a positive duration expires the
        entry.  Every active operator block covering the source, address
        or prefix, is lifted.  ``src_ip`` must be one address (a bare
        dotted quad or its /32), not a prefix.
        """
        ip = canonical_cidr(src_ip)
        if "/" in ip:
            raise ValueError(f"malformed IPv4 address {src_ip!r}: a whitelist entry is one address")
        src_ip = ip
        _check_duration(duration_s, "whitelist")
        now = self.controller.sim.now
        entry = WhitelistEntry(
            ip=src_ip,
            added_at=now,
            expires_at=None if duration_s is None else now + duration_s,
            origin="operator",
        )
        for key in [k for k in self._operator_blocks if ip_in_subnet(src_ip, k[0])]:
            self.unblock_source(*key)
        self.whitelist[src_ip] = entry
        if duration_s is not None:
            self.controller.sim.schedule(
                duration_s,
                lambda: self._expire_whitelist(src_ip, entry),
                "mitigation.whitelist_expiry",
            )
        self.tracer.emit(
            "mitigation.whitelisted",
            f"src={src_ip} "
            f"{'permanent' if entry.permanent else f'for {duration_s:g}s'}",
            src=src_ip,
            permanent=entry.permanent,
        )
        return entry

    def remove_whitelist(self, src_ip: str) -> bool:
        """Drop a whitelist member spelled any way; returns False when absent."""
        return self.whitelist.pop(canonical_cidr(src_ip), None) is not None

    def _expire_whitelist(self, src_ip: str, entry: WhitelistEntry) -> None:
        if self.whitelist.get(src_ip) is entry:
            del self.whitelist[src_ip]

    # ------------------------------------------------------- introspection

    def active_blocks(self) -> list[BlockEntry]:
        """Every block currently installed, verdict- and operator-driven.

        Verdict blocks expire with their record (the flow rules' hard
        timeout); operator blocks carry their own expiry.  Sorted for a
        stable listing.
        """
        entries: list[BlockEntry] = list(self._operator_blocks.values())
        timeout = self.config.rule_hard_timeout_s
        for victim_ip, record in self.active.items():
            for ip in record.blocked_sources + record.blocked_prefixes:
                entries.append(
                    BlockEntry(
                        ip=ip,
                        victim_ip=victim_ip,
                        installed_at=record.installed_at,
                        expires_at=record.installed_at + timeout,
                        origin="verdict",
                    )
                )
        return sorted(entries, key=lambda e: (e.ip, e.victim_ip or ""))

    def whitelist_entries(self) -> list[WhitelistEntry]:
        """Every whitelist member with its expiry, sorted by address."""
        return [self.whitelist[ip] for ip in sorted(self.whitelist)]

    def _expire_record(self, victim_ip: str, record: MitigationRecord) -> None:
        if self.active.get(victim_ip) is record:
            del self.active[victim_ip]
            self.tracer.emit(
                "mitigation.expired", f"victim={victim_ip}", victim=victim_ip
            )

    # ----------------------------------------------------------- internals

    def _install_everywhere(
        self, match: Match, actions: tuple, priority: int, hard_timeout: float, cookie: int
    ) -> None:
        for datapath_id in self.controller.datapaths:
            self.controller.add_flow(
                datapath_id,
                match=match,
                actions=actions,
                priority=priority,
                hard_timeout=hard_timeout,
                cookie=cookie,
            )

    def _delete_everywhere(self, match: Match, cookie: int) -> None:
        for datapath_id in self.controller.datapaths:
            self.controller.delete_flows(datapath_id, match, cookie=cookie)

    def _drop_from(self, victim_ip: str, sources: list[str], blocked: list[str]) -> None:
        """Install a verdict drop rule per source or prefix, noting each in ``blocked``."""
        for src in sources:
            self._install_everywhere(
                Match(eth_type=ETHERTYPE_IPV4, ip_src=src, ip_dst=victim_ip),
                (Drop(),), PRIORITY_MITIGATION,
                self.config.rule_hard_timeout_s, MITIGATION_COOKIE,
            )
            blocked.append(src)

    def _covering_prefixes(self, suspects: list[str]) -> list[str]:
        """Dense suspect prefixes safe to block.

        A prefix qualifies only if it holds at least
        ``prefix_min_sources`` zero-completion sources and contains no
        whitelisted (verified-good) source.
        """
        groups: Counter[int] = Counter()
        for ip in suspects:
            groups[ip_to_int(ip) & _AGGREGATE_MASK] += 1
        prefixes = []
        for network, count in groups.items():
            if count < self.config.prefix_min_sources:
                continue
            cidr = f"{int_to_ip(network)}/{AGGREGATE_PREFIX_LEN}"
            if any(ip_in_subnet(w, cidr) for w in self.whitelist):
                continue
            prefixes.append(cidr)
        return sorted(prefixes)

    def _shield(self, victim_ip: str, record: MitigationRecord) -> None:
        l2 = self._l2_app()
        victim_port_actions = self._victim_forward_actions(victim_ip, l2)
        # Verified-good sources bypass the policer.
        for src in sorted(self.whitelist):
            for datapath_id, actions in victim_port_actions.items():
                self.controller.add_flow(
                    datapath_id,
                    match=Match(eth_type=ETHERTYPE_IPV4, ip_src=src, ip_dst=victim_ip),
                    actions=actions,
                    priority=PRIORITY_WHITELIST,
                    hard_timeout=self.config.rule_hard_timeout_s,
                    cookie=MITIGATION_COOKIE,
                )
            record.whitelisted.append(src)
        for datapath_id, actions in victim_port_actions.items():
            self.controller.add_flow(
                datapath_id,
                match=Match(eth_type=ETHERTYPE_IPV4, ip_dst=victim_ip),
                actions=(RateLimit(SHIELD_PPS),) + actions,
                priority=PRIORITY_MITIGATION,
                hard_timeout=self.config.rule_hard_timeout_s,
                cookie=MITIGATION_COOKIE,
            )
        record.shielded = True

    def _l2_app(self) -> Optional[L2LearningSwitch]:
        try:
            return self.controller.app(L2LearningSwitch)  # type: ignore[return-value]
        except KeyError:
            return None

    def _victim_forward_actions(
        self, victim_ip: str, l2: Optional[L2LearningSwitch]
    ) -> dict[int, tuple]:
        """Per-datapath forward actions toward the victim.

        Uses the learning table when it knows the victim's MAC; falls
        back to flooding (correct, if wasteful, L2 behaviour).
        """
        from repro.openflow.actions import Flood  # local to avoid cycle noise

        actions: dict[int, tuple] = {}
        victim_mac = self._victim_mac(victim_ip, l2)
        for datapath_id in self.controller.datapaths:
            port = l2.port_for(datapath_id, victim_mac) if (l2 and victim_mac) else None
            actions[datapath_id] = (Output(port),) if port is not None else (Flood(),)
        return actions

    def _victim_mac(self, victim_ip: str, l2: Optional[L2LearningSwitch]) -> Optional[str]:
        # The controller has no ARP view in this model; the SPI app records
        # victim MACs as it observes punted packets and shares them here.
        return self._victim_macs.get(victim_ip)

    def note_victim_mac(self, victim_ip: str, mac: str) -> None:
        """Record an IP->MAC binding observed on the data plane."""
        self._victim_macs[victim_ip] = mac
