"""PCAP export: write simulated traffic in libpcap format.

Because packets serialize to genuine wire bytes, a tap's traffic can be
dumped to a classic pcap file and opened in Wireshark/tcpdump/scapy —
handy for debugging scenarios and for demonstrating that the simulated
frames are byte-realistic.  The writer implements the original libpcap
format (magic 0xa1b2c3d4, microsecond timestamps, LINKTYPE_ETHERNET).
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from repro.net.packet import Packet

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_ETHERNET = 1


class PcapWriter:
    """Stream packets into a pcap file or buffer."""

    def __init__(self, stream: BinaryIO, snaplen: int = 65535) -> None:
        self._stream = stream
        self.snaplen = snaplen
        self.packets_written = 0
        self._write_global_header()

    @classmethod
    def to_file(cls, path: str, snaplen: int = 65535) -> "PcapWriter":
        """Open ``path`` for writing and emit the global header."""
        return cls(open(path, "wb"), snaplen=snaplen)

    def _write_global_header(self) -> None:
        self._stream.write(
            struct.pack(
                "<IHHiIII",
                PCAP_MAGIC,
                PCAP_VERSION[0],
                PCAP_VERSION[1],
                0,  # thiszone
                0,  # sigfigs
                self.snaplen,
                LINKTYPE_ETHERNET,
            )
        )

    def write(self, packet: Packet, timestamp_s: float) -> None:
        """Append one packet at the given simulated time."""
        raw = packet.to_bytes()
        captured = raw[: self.snaplen]
        seconds = int(timestamp_s)
        micros = int(round((timestamp_s - seconds) * 1e6))
        if micros >= 1_000_000:
            seconds += 1
            micros -= 1_000_000
        self._stream.write(
            struct.pack("<IIII", seconds, micros, len(captured), len(raw))
        )
        self._stream.write(captured)
        self.packets_written += 1

    def close(self) -> None:
        """Flush and close the underlying stream."""
        self._stream.flush()
        self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PcapTap:
    """Attach a :class:`PcapWriter` to a switch as a capture tap.

    Captures every ingress frame of the switch (all ports), like running
    ``tcpdump`` on a SPAN of the whole datapath::

        tap = PcapTap.on_switch(switch, "capture.pcap")
        ... run the scenario ...
        tap.close()
    """

    def __init__(self, writer: PcapWriter, clock) -> None:
        self._writer = writer
        self._clock = clock

    @classmethod
    def on_switch(cls, switch, path: str, snaplen: int = 65535) -> "PcapTap":
        """Create a file-backed capture of every packet entering ``switch``."""
        tap = cls(PcapWriter.to_file(path, snaplen=snaplen), lambda: switch.sim.now)
        switch.attach_tap(tap._capture)
        return tap

    def _capture(self, packet: Packet) -> None:
        self._writer.write(packet, self._clock())

    @property
    def packets_captured(self) -> int:
        """Frames written so far."""
        return self._writer.packets_written

    def close(self) -> None:
        """Finish the capture file."""
        self._writer.close()


def read_pcap(stream: BinaryIO) -> list[tuple[float, bytes]]:
    """Parse a pcap byte stream into (timestamp, frame-bytes) records.

    A minimal reader used by the test suite to verify round-trips; it
    accepts exactly the dialect :class:`PcapWriter` produces.
    """
    header = stream.read(24)
    if len(header) < 24:
        raise ValueError("truncated pcap global header")
    magic = struct.unpack("<I", header[:4])[0]
    if magic != PCAP_MAGIC:
        raise ValueError(f"unexpected pcap magic 0x{magic:08x}")
    records: list[tuple[float, bytes]] = []
    while True:
        record_header = stream.read(16)
        if not record_header:
            break
        if len(record_header) < 16:
            raise ValueError("truncated pcap record header")
        seconds, micros, captured_len, _orig_len = struct.unpack("<IIII", record_header)
        data = stream.read(captured_len)
        if len(data) < captured_len:
            raise ValueError("truncated pcap record body")
        records.append((seconds + micros / 1e6, data))
    return records
