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
from .symmetric import LiftError, Stratum, stratified_lift, sym_lift_zero
from .stringdilaton import (
    boundary_cofactor,
    check_dilaton,
    check_second_derivative,
    check_string,
    closed_volume,
    genus0_lift,
    genus1_lift,
    string_rhs,
)
from .mirzakhani import kernel_H, mirzakhani_volume, moment_F
from .store import VolumeStore, resolve_cache_dir
from .compute import ensure_volume, lift_volume
from .intersections import genus0_psi, psi_kappa

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "VolumePolynomial",
    "VolumeStore",
    "ConsistencyError",
    "InvariantError",
    "LiftError",
    "UnstableSurfaceError",
    "Stratum",
    "boundary_cofactor",
    "check_dilaton",
    "check_second_derivative",
    "check_string",
    "closed_volume",
    "ensure_volume",
    "genus0_lift",
    "genus0_psi",
    "genus1_lift",
    "is_stable",
    "kernel_H",
    "lift_volume",
    "mirzakhani_volume",
    "moment_F",
    "psi_kappa",
    "resolve_cache_dir",
    "seed_volume",
    "stratified_lift",
    "string_rhs",
    "sym_lift_zero",
]
