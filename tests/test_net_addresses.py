"""Tests for MAC/IPv4 address helpers, including property tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import (
    bytes_to_mac,
    int_to_ip,
    ip_in_subnet,
    ip_to_int,
    mac_to_bytes,
    parse_cidr,
    validate_ip,
    validate_mac,
)

#: Prefix lengths ``int()`` would take (or an empty one it would read as
#: /32) that are not one or two ASCII digits in 0-32.
MALFORMED_CIDRS = [
    "10.0.0.0/ 8", "10.0.0.0/+8", "10.0.0.0/\u0668", "10.0.0.0/0_8",
    "10.0.0.0/8\n", "10.0.0.0/", "10.0.0.0/33", "10.0.0.0/008",
    "10.0.0.0/-1", "10.0.0.0/8/8", "10.0.0.0 /8",
]


class TestMac:
    def test_roundtrip(self):
        mac = "00:1a:2b:3c:4d:5e"
        assert bytes_to_mac(mac_to_bytes(mac)) == mac

    def test_validate_lowercases(self):
        assert validate_mac("AA:BB:CC:DD:EE:FF") == "aa:bb:cc:dd:ee:ff"

    @pytest.mark.parametrize(
        "bad", ["", "aa:bb:cc:dd:ee", "aa:bb:cc:dd:ee:ff:00", "zz:bb:cc:dd:ee:ff", "aabbccddeeff"]
    )
    def test_validate_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_mac(bad)

    # ``int(part, 16)`` takes each of these octets; a MAC octet is two hex digits.
    @pytest.mark.parametrize(
        "bad", ["+a:bb:cc:dd:ee:ff", " a:bb:cc:dd:ee:ff", "aa:bb:cc:dd:ee:f ", "aa:bb:cc:dd:ee:-f",
                "aa:bb:cc:dd:ee:\u0661\u0661", "aa:bb:cc:dd:ee:ff\n"]
    )
    def test_validate_requires_two_hex_digits_per_octet(self, bad):
        with pytest.raises(ValueError):
            validate_mac(bad)

    def test_bytes_to_mac_wrong_length(self):
        with pytest.raises(ValueError):
            bytes_to_mac(b"\x00\x01\x02")

    @given(st.binary(min_size=6, max_size=6))
    def test_bytes_roundtrip_property(self, raw):
        assert mac_to_bytes(bytes_to_mac(raw)) == raw


class TestIp:
    def test_roundtrip_known_values(self):
        assert ip_to_int("10.0.0.1") == 0x0A000001
        assert int_to_ip(0x0A000001) == "10.0.0.1"

    @pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"])
    def test_validate_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_ip(bad)

    # ``int()`` takes each of these octets; only the canonical dotted quad
    # matches the address a packet header carries.
    @pytest.mark.parametrize(
        "bad", [" 1.2.3.4", "1_0.0.0.1", "+1.2.3.4", "\u0661.2.3.4", "010.0.0.1", "1.2.3.4\n",
                "1.2.3.4\x00"]
    )
    def test_validate_and_convert_reject_non_canonical(self, bad):
        with pytest.raises(ValueError):
            validate_ip(bad)
        with pytest.raises(ValueError):
            ip_to_int(bad)

    def test_ip_to_int_rejects_non_strings_as_value_error(self):
        with pytest.raises(ValueError):
            ip_to_int(None)

    def test_int_to_ip_range_check(self):
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(2**32)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_int_roundtrip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    def test_boundaries(self):
        assert int_to_ip(0) == "0.0.0.0"
        assert int_to_ip(2**32 - 1) == "255.255.255.255"


class TestSubnet:
    def test_exact_host_prefix(self):
        assert ip_in_subnet("10.0.0.5", "10.0.0.5/32")
        assert not ip_in_subnet("10.0.0.6", "10.0.0.5/32")

    def test_slash_24(self):
        assert ip_in_subnet("192.168.1.200", "192.168.1.0/24")
        assert not ip_in_subnet("192.168.2.1", "192.168.1.0/24")

    def test_slash_16(self):
        assert ip_in_subnet("198.18.200.7", "198.18.0.0/16")
        assert not ip_in_subnet("198.19.0.1", "198.18.0.0/16")

    def test_slash_zero_matches_everything(self):
        assert ip_in_subnet("1.2.3.4", "0.0.0.0/0")

    def test_no_prefix_means_host(self):
        assert ip_in_subnet("10.0.0.1", "10.0.0.1")
        assert not ip_in_subnet("10.0.0.2", "10.0.0.1")

    def test_bad_prefix_length(self):
        with pytest.raises(ValueError):
            ip_in_subnet("10.0.0.1", "10.0.0.0/33")

    @pytest.mark.parametrize("cidr", MALFORMED_CIDRS)
    def test_malformed_cidr_rejected(self, cidr):
        with pytest.raises(ValueError):
            parse_cidr(cidr)
        with pytest.raises(ValueError):
            ip_in_subnet("10.0.0.1", cidr)

    @pytest.mark.parametrize("cidr,network,mask", [
        ("10.1.2.3", 0x0A010203, 0xFFFFFFFF),
        ("10.1.2.3/8", 0x0A000000, 0xFF000000),
        ("10.1.2.3/08", 0x0A000000, 0xFF000000),
        ("10.1.2.3/0", 0, 0),
    ])
    def test_parse_cidr_masks_host_bits(self, cidr, network, mask):
        assert parse_cidr(cidr) == (network, mask)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=32))
    def test_every_ip_is_in_its_own_prefix(self, value, prefix):
        ip = int_to_ip(value)
        assert ip_in_subnet(ip, f"{ip}/{prefix}")
