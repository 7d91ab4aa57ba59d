"""Topology construction: the GENI-slice builder and standard shapes."""

from repro.topology.builder import LinkSpec, Network
from repro.topology.standard import (
    dumbbell,
    fat_tree,
    linear,
    random_tree,
    single_switch,
    star,
    tree,
)

__all__ = [
    "Network",
    "LinkSpec",
    "single_switch",
    "dumbbell",
    "star",
    "linear",
    "tree",
    "fat_tree",
    "random_tree",
]
