"""Volume computation dispatch shared by the CLI and intersection queries.

Two independent generators are available: the lift chain (string/dilaton
recursions, genus 0 and 1 only) and Mirzakhani's kernel recursion (any
stable (g, n)).  ``ensure_volume`` picks one, or runs both.  Each generator
memoizes through ``VolumeStore.memo``, which serves the seeds and insists on
exact agreement between any two provenances of a volume.
"""

from __future__ import annotations

from .mirzakhani import mirzakhani_volume
from .store import VolumeStore
from .stringdilaton import closed_volume, lift
from .volume import VolumePolynomial, require_stable

METHODS = ("auto", "lift", "mirzakhani", "both")


def lift_volume(store: VolumeStore, g: int, n: int) -> VolumePolynomial:
    """V(g, n) for g <= 1 by chaining lifts up from the seed."""
    require_stable(g, n)
    if g > 1:
        raise ValueError("the lift chain only generates genus 0 and 1 volumes")
    return store.memo(g, n, f"genus{g}_lift", _lift_from_below, store, g, n)


def _lift_from_below(store: VolumeStore, g: int, n: int) -> VolumePolynomial:
    return lift(lift_volume(store, g, n - 1))


def _closed(store: VolumeStore, g: int) -> VolumePolynomial:
    # the string and dilaton relations at n = 0 read V(g, 0) off the
    # one-boundary volume at L = 2*pi*i, the only route with no boundary
    return closed_volume(mirzakhani_volume(g, 1, store))


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
        # a closed surface, g >= 2 by stability
        return store.memo(g, 0, "mirzakhani", _closed, store, g)
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
