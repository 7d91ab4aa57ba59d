"""SDN controller framework (Ryu/POX stand-in).

A :class:`Controller` owns control channels to every datapath and
dispatches southbound events to registered apps in priority order.  The
bundled apps are the ones any Ryu deployment of the paper would run:
L2 learning forwarding and topology discovery.  The paper's own logic is
the SPI app in :mod:`repro.core`.
"""

from repro.controller.base import App, Controller, DatapathHandle
from repro.controller.discovery import TopologyDiscovery
from repro.controller.l2 import L2LearningSwitch

__all__ = [
    "App",
    "Controller",
    "DatapathHandle",
    "L2LearningSwitch",
    "TopologyDiscovery",
]
