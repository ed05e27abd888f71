"""The lift chain and the kernel recursion agree, orbit for orbit.

The two generators share no code.  The acceptance range stops at V(0,8)
and V(1,5), and the cross-path range test at V(0,10) and V(1,8); this
test goes on to V(0,16) and V(1,12).
"""

from wpvol.compute import lift_volume
from wpvol.mirzakhani import mirzakhani_volume
from wpvol.store import VolumeStore


def test_lift_matches_kernel_on_larger_volumes():
    lift_store, kernel_store = VolumeStore(), VolumeStore()
    signatures = [(0, n) for n in range(11, 17)] + [(1, n) for n in range(9, 13)]
    for g, n in signatures:
        lifted = lift_volume(lift_store, g, n)
        recursed = mirzakhani_volume(g, n, kernel_store)
        assert lifted.orbits == recursed.orbits, (g, n)
