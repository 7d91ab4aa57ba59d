"""MAC and IPv4 address helpers.

Addresses travel through the library as canonical strings
(``"aa:bb:cc:dd:ee:ff"``, ``"10.0.0.1"``) because that is what flow-table
matches, traces and reports display; these helpers convert to and from the
integer / byte forms the wire codecs need.
"""

from __future__ import annotations

from functools import lru_cache

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"


def validate_mac(mac: str) -> str:
    """Return the MAC lower-cased, raising ``ValueError`` if malformed."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC address {mac!r}")
    for part in parts:
        if len(part) != 2:
            raise ValueError(f"malformed MAC address {mac!r}")
        int(part, 16)
    return mac.lower()


@lru_cache(maxsize=4096)
def mac_to_bytes(mac: str) -> bytes:
    """Pack a colon-separated MAC into 6 bytes (memoized: a scenario has
    a handful of MACs, packed once per transmitted frame)."""
    return bytes(int(part, 16) for part in validate_mac(mac).split(":"))


@lru_cache(maxsize=4096)
def bytes_to_mac(raw: bytes) -> str:
    """Unpack 6 bytes into a colon-separated MAC string (memoized: DPI
    re-parses every inspected frame's Ethernet header)."""
    if len(raw) != 6:
        raise ValueError(f"MAC must be 6 bytes, got {len(raw)}")
    return ":".join(f"{b:02x}" for b in raw)


def validate_ip(ip: str) -> str:
    """Return ``ip`` unchanged, raising ``ValueError`` if malformed."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {ip!r}")
    for part in parts:
        value = int(part)
        if not 0 <= value <= 255:
            raise ValueError(f"malformed IPv4 address {ip!r}")
    return ip


@lru_cache(maxsize=65536)
def ip_to_int(ip: str) -> int:
    """Convert dotted-quad to a 32-bit integer (memoized: the address
    population of a scenario is bounded, and hot paths convert the same
    strings millions of times)."""
    total = 0
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {ip!r}")
    for part in parts:
        value = int(part)
        if not 0 <= value <= 255:
            raise ValueError(f"malformed IPv4 address {ip!r}")
        total = (total << 8) | value
    return total


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def ip_in_subnet(ip: str, cidr: str) -> bool:
    """True if ``ip`` falls within ``cidr`` (e.g. ``"10.0.0.0/24"``)."""
    network, _, prefix_str = cidr.partition("/")
    prefix = int(prefix_str) if prefix_str else 32
    if not 0 <= prefix <= 32:
        raise ValueError(f"bad prefix length in {cidr!r}")
    if prefix == 0:
        return True
    mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
    return (ip_to_int(ip) & mask) == (ip_to_int(network) & mask)
