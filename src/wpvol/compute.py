"""Volume computation dispatch shared by the CLI and intersection queries.

Two independent generators are available: the lift chain (string/dilaton
recursions, genus 0 and 1 only) and Mirzakhani's kernel recursion (any
stable (g, n)).  ``ensure_volume`` picks one, or runs both and insists on
exact agreement.
"""

from __future__ import annotations

from .mirzakhani import mirzakhani_volume
from .store import VolumeStore
from .stringdilaton import closed_volume, genus0_lift, genus1_lift
from .volume import (
    ConsistencyError,
    VolumePolynomial,
    is_seed,
    require_stable,
    seed_volume,
)

METHODS = ("auto", "lift", "mirzakhani", "both")


def lift_volume(store: VolumeStore, g: int, n: int) -> VolumePolynomial:
    """V(g, n) for g <= 1 by chaining lifts up from the seed."""
    require_stable(g, n)
    if g > 1:
        raise ValueError("the lift chain only generates genus 0 and 1 volumes")
    if is_seed(g, n):
        vol = store.get(g, n, provenance="seed")
        if vol is None:
            vol = seed_volume(g, n)
            store.put(vol, "seed")
        return vol
    provenance = "genus0_lift" if g == 0 else "genus1_lift"
    cached = store.get(g, n, provenance=provenance)
    if cached is not None:
        return cached
    smaller = lift_volume(store, g, n - 1)
    if g == 0:
        vol = genus0_lift(smaller)
    else:
        vol, _ = genus1_lift(smaller)
    store.put(vol, provenance)
    return vol


def ensure_volume(
    store: VolumeStore, g: int, n: int, method: str = "auto"
) -> VolumePolynomial:
    """Fetch or compute V(g, n) with the requested method.

    ``auto`` uses the lift chain for genus 0 and 1 and the kernel recursion
    otherwise.  ``both`` computes through the two paths and raises
    ConsistencyError (with the difference polynomial) on any mismatch.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    require_stable(g, n)
    if n == 0:
        # closed surface (g >= 2 by stability): factor the one-boundary
        # volume and evaluate at the root, the only route with no boundary
        cached = store.get(g, 0)
        if cached is not None:
            return cached
        closed = closed_volume(mirzakhani_volume(g, 1, store))
        vol = VolumePolynomial(g, 0, closed.orbit_coefficients())
        store.put(vol, "mirzakhani")
        return vol
    if method == "auto":
        method = "lift" if g <= 1 else "mirzakhani"
    if method == "lift":
        return lift_volume(store, g, n)
    if method == "mirzakhani":
        return mirzakhani_volume(g, n, store)
    lifted = lift_volume(store, g, n)
    recursed = mirzakhani_volume(g, n, store)
    if lifted.orbits != recursed.orbits:
        raise ConsistencyError(
            f"lift and kernel recursion disagree for V({g},{n})",
            defect=lifted.poly - recursed.poly,
        )
    return lifted
