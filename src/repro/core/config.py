"""Top-level SPI configuration, composing the subsystem configs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.budget import BudgetConfig
from repro.core.signatures import SynFloodSignatureConfig, UdpFloodSignatureConfig
from repro.mitigation.manager import MitigationConfig
from repro.monitor.monitor import MonitorConfig

SPI_MIRROR_COOKIE = 0x5B1
PRIORITY_MIRROR = 200


@dataclass(frozen=True)
class SpiConfig:
    """Everything tunable about the SPI pipeline in one place."""

    # Verification windows: how long DPI watches before scoring, and how
    # many times an inconclusive verdict may extend the watch.
    verification_window_s: float = 1.0
    max_window_extensions: int = 2

    # Composed subsystem configs.
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    signature: SynFloodSignatureConfig = field(default_factory=SynFloodSignatureConfig)
    udp_signature: UdpFloodSignatureConfig = field(default_factory=UdpFloodSignatureConfig)
    mitigation: MitigationConfig = field(default_factory=MitigationConfig)

    def __post_init__(self) -> None:
        if self.verification_window_s <= 0:
            raise ValueError("verification window must be positive")
        if self.max_window_extensions < 0:
            raise ValueError("extensions must be >= 0")
