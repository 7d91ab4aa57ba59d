"""Traffic workloads: benign web traffic, flood attackers, flash crowds."""

from repro.workload.servers import WebServer, WebServerStats
from repro.workload.clients import WebClient, WebClientStats
from repro.workload.attacker import (
    AttackSchedule,
    SynFloodAttacker,
    SynFloodConfig,
    UdpFloodAttacker,
    UdpFloodConfig,
)
from repro.workload.flashcrowd import FlashCrowd, FlashCrowdSpec
from repro.workload.profiles import StandardWorkload, WorkloadConfig

__all__ = [
    "WebServer",
    "WebServerStats",
    "WebClient",
    "WebClientStats",
    "SynFloodAttacker",
    "SynFloodConfig",
    "UdpFloodAttacker",
    "UdpFloodConfig",
    "AttackSchedule",
    "FlashCrowd",
    "FlashCrowdSpec",
    "StandardWorkload",
    "WorkloadConfig",
]
