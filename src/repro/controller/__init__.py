"""SDN controller framework (Ryu/POX stand-in).

A :class:`Controller` owns control channels to every datapath and
dispatches southbound events to registered apps in priority order.  The
bundled app is the one any Ryu deployment of the paper would run beneath
its detection logic: L2 learning forwarding.  The paper's own logic is
the SPI app in :mod:`repro.core`.
"""

from repro.controller.base import App, Controller, DatapathHandle
from repro.controller.l2 import L2LearningSwitch

__all__ = [
    "App",
    "Controller",
    "DatapathHandle",
    "L2LearningSwitch",
]
