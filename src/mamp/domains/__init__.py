from .base import DomainStats, LatticeDomain, get_successors
from .grid import GridDomain
from .arm import ArmDomain, ArmSpec, Disc, Segment, forward_kinematics

__all__ = [
    "ArmDomain",
    "ArmSpec",
    "Disc",
    "DomainStats",
    "GridDomain",
    "LatticeDomain",
    "Segment",
    "forward_kinematics",
    "get_successors",
]
