"""MAC and IPv4 address helpers.

Addresses travel through the library as canonical strings
(``"aa:bb:cc:dd:ee:ff"``, ``"10.0.0.1"``) because that is what flow-table
matches, traces and reports display; these helpers convert to and from the
integer / byte forms the wire codecs need.
"""

from __future__ import annotations

import re
from functools import lru_cache
from socket import AF_INET, inet_pton

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

# Two ASCII hex digits per octet: ``int(part, 16)`` alone would also take
# a sign, surrounding whitespace or non-ASCII digits.
_MAC = re.compile(r"[0-9a-fA-F]{2}(?::[0-9a-fA-F]{2}){5}")


def validate_mac(mac: str) -> str:
    """Return the MAC lower-cased, raising ``ValueError`` if malformed."""
    if _MAC.fullmatch(mac) is None:
        raise ValueError(f"malformed MAC address {mac!r}")
    return mac.lower()


@lru_cache(maxsize=4096)
def mac_to_bytes(mac: str) -> bytes:
    """Pack a colon-separated MAC into 6 bytes (memoized: a scenario has
    a handful of MACs, packed once per transmitted frame)."""
    return bytes(int(part, 16) for part in validate_mac(mac).split(":"))


@lru_cache(maxsize=4096)
def bytes_to_mac(raw: bytes) -> str:
    """Unpack 6 bytes into a colon-separated MAC string (memoized: the
    shard codec parses the Ethernet header of every frame it carries)."""
    if len(raw) != 6:
        raise ValueError(f"MAC must be 6 bytes, got {len(raw)}")
    return ":".join(f"{b:02x}" for b in raw)


def validate_ip(ip: str) -> str:
    """Return ``ip`` unchanged, raising ``ValueError`` unless it is a
    canonical dotted quad (the form ``ip_to_int`` accepts)."""
    ip_to_int(ip)
    return ip


def ip_to_int(ip: str) -> int:
    """Convert a dotted quad to a 32-bit integer, raising ``ValueError``
    if malformed.

    ``inet_pton`` is strict: four decimal octets, no leading zeros, sign,
    whitespace or non-ASCII digits.  Nothing is memoized: a spoofing
    attacker chooses the address population, so a cache keyed on it would
    grow with the attack instead of with the topology.
    """
    try:
        return int.from_bytes(inet_pton(AF_INET, ip), "big")
    except (OSError, TypeError, ValueError):
        raise ValueError(f"malformed IPv4 address {ip!r}") from None


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


# An address, then optionally ``/`` and one or two ASCII digits: ``int()``
# alone would also take a sign, whitespace, underscores or non-ASCII digits.
_CIDR = re.compile(r"([^/]*)(?:/([0-9]{1,2}))?")


def parse_cidr(cidr: str) -> tuple[int, int]:
    """Parse ``"a.b.c.d"`` or ``"a.b.c.d/len"`` to (network, mask) ints.

    A bare address is a /32.  The length is one or two ASCII digits in
    0–32; anything else, a non-string included, raises ``ValueError``.
    Host bits are masked off.
    """
    parsed = _CIDR.fullmatch(cidr) if isinstance(cidr, str) else None
    if parsed is None:
        raise ValueError(f"malformed CIDR {cidr!r}")
    prefix = int(parsed[2] or 32)
    if prefix > 32:
        raise ValueError(f"bad prefix length in {cidr!r}")
    mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
    return ip_to_int(parsed[1]) & mask, mask


def canonical_cidr(cidr: str) -> str:
    """The one spelling of an address or prefix: ``"a.b.c.d"`` for a /32,
    ``"a.b.c.d/len"`` with the host bits cleared otherwise.

    Flow-rule matches and the mitigation state keyed on them both spell
    addresses this way, so ``"10.0.0.1/32"`` and ``"10.0.0.1"`` name one
    rule, and ``"10.9.9.9/16"`` is ``"10.9.0.0/16"``.
    """
    network, mask = parse_cidr(cidr)
    text = int_to_ip(network)
    return text if mask == 0xFFFFFFFF else f"{text}/{mask.bit_count()}"


def ip_in_subnet(ip: str, cidr: str) -> bool:
    """True if ``ip`` falls within ``cidr`` (e.g. ``"10.0.0.0/24"``)."""
    network, mask = parse_cidr(cidr)
    return ip_to_int(ip) & mask == network
