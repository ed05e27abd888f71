"""Exact Weil-Petersson volume polynomials and intersection numbers."""

from .poly import Poly
from .volume import (
    ConsistencyError,
    InvariantError,
    UnstableSurfaceError,
    VolumePolynomial,
    is_stable,
    seed_volume,
)
from .symmetric import LiftError, stratified_lift
from .stringdilaton import closed_volume, lift, relation_defect, string_rhs
from .mirzakhani import mirzakhani_volume
from .store import VolumeStore, resolve_cache_dir
from .compute import ensure_volume, lift_volume
from .intersections import psi_kappa

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "VolumePolynomial",
    "VolumeStore",
    "ConsistencyError",
    "InvariantError",
    "LiftError",
    "UnstableSurfaceError",
    "closed_volume",
    "ensure_volume",
    "is_stable",
    "lift",
    "lift_volume",
    "mirzakhani_volume",
    "psi_kappa",
    "relation_defect",
    "resolve_cache_dir",
    "seed_volume",
    "stratified_lift",
    "string_rhs",
]
