"""Volume computation dispatch shared by the CLI and intersection queries.

Two independent generators are available: the lift chain (string/dilaton
recursions, genus 0 and 1 only) and Mirzakhani's kernel recursion (any
stable (g, n)).  ``ensure_volume`` picks one, or runs both; the store then
insists on exact agreement, as it does for any two provenances of a volume.
"""

from __future__ import annotations

from .mirzakhani import mirzakhani_volume
from .store import VolumeStore
from .stringdilaton import closed_volume, lift
from .volume import VolumePolynomial, is_seed, require_stable

METHODS = ("auto", "lift", "mirzakhani", "both")


def lift_volume(store: VolumeStore, g: int, n: int) -> VolumePolynomial:
    """V(g, n) for g <= 1 by chaining lifts up from the seed."""
    require_stable(g, n)
    if g > 1:
        raise ValueError("the lift chain only generates genus 0 and 1 volumes")
    if is_seed(g, n):
        return store.seed(g, n)
    provenance = f"genus{g}_lift"
    cached = store.get(g, n, provenance=provenance)
    if cached is not None:
        return cached
    vol = lift(lift_volume(store, g, n - 1))
    store.put(vol, provenance)
    return vol


def ensure_volume(
    store: VolumeStore, g: int, n: int, method: str = "auto"
) -> VolumePolynomial:
    """Fetch or compute V(g, n) with the requested method.

    ``auto`` uses the lift chain for genus 0 and 1 and the kernel recursion
    otherwise.  ``both`` stores the volume by both paths, so ``put`` raises
    ProvenanceConflictError on any mismatch, and returns the lift.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    require_stable(g, n)
    if n == 0:
        # closed surface (g >= 2 by stability): the string and dilaton
        # relations at n = 0 read V(g, 0) off the one-boundary volume at
        # L = 2*pi*i, the only route with no boundary
        cached = store.get(g, 0)
        if cached is not None:
            return cached
        vol = closed_volume(mirzakhani_volume(g, 1, store))
        store.put(vol, "mirzakhani")
        return vol
    if method == "auto":
        method = "lift" if g <= 1 else "mirzakhani"
    if method == "lift":
        return lift_volume(store, g, n)
    if method == "mirzakhani":
        return mirzakhani_volume(g, n, store)
    # the second put is the check: it raises ProvenanceConflictError on a mismatch
    lifted = lift_volume(store, g, n)
    mirzakhani_volume(g, n, store)
    return lifted
