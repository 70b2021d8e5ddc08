"""Interconnect topologies: 3-D torus, collective tree, barrier network,
process mappings, and the allocation/fragmentation model."""

from .barrier import BarrierNetwork, software_barrier_time
from .mapping import (
    coords_of_rank,
    Mapping,
    PAPER_FIG2_MAPPINGS,
    PREDEFINED_MAPPINGS,
    rank_of_coords,
)
from .partition import allocate, Partition
from .torus import Coord, LinkKey, NoRouteError, Torus3D
from .tree import TreeNetwork

__all__ = [
    "Torus3D",
    "Coord",
    "LinkKey",
    "NoRouteError",
    "TreeNetwork",
    "BarrierNetwork",
    "software_barrier_time",
    "Mapping",
    "PREDEFINED_MAPPINGS",
    "PAPER_FIG2_MAPPINGS",
    "coords_of_rank",
    "rank_of_coords",
    "Partition",
    "allocate",
]
