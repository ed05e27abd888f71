"""psi and kappa_1 intersection numbers read off volume coefficients.

The coefficient of L^(2 alpha) in V(g, n) equals

    pi^(2m) * 2^(m - |alpha|) / (alpha! * m!) * integral of psi^alpha kappa_1^m

with m = 3g - 3 + n - |alpha|, so each intersection number is an exact
rational multiple of one stored coefficient.  The numbers are always
extracted this way, never from a separate intersection engine; the
generalized string and dilaton identities checked here are therefore honest
cross-checks of the volume pipeline:

  string:   sum_j (-1)^j C(m,j) <psi^a psi_*^j k^(m-j)>_(n+1)
                = sum_k <psi_1^a1 .. psi_k^(ak-1) .. psi_n^an k^m>_n
  dilaton:  sum_j (-1)^j C(m,j) <psi^a psi_*^(j+1) k^(m-j)>_(n+1)
                = (2g - 2 + n) <psi^a k^m>_n

where terms with a negative exponent are dropped and * marks the extra
point.  Cases whose dimensions cannot balance are vacuous (both sides 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .compute import ensure_volume
from .store import VolumeStore
from .volume import require_stable

def psi_kappa(
    g: int,
    n: int,
    alpha: Sequence[int],
    kappa: int,
    store: VolumeStore,
) -> Fraction:
    """The integral of psi_1^a1 .. psi_n^an kappa_1^kappa over the
    compactified moduli space; 0 when any exponent is negative or the
    dimension does not balance."""
    require_stable(g, n)
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise ValueError(f"alpha must have length n = {n}")
    if any(a < 0 for a in alpha) or kappa < 0:
        return Fraction(0)
    weight = sum(alpha)
    if weight + kappa != 3 * g - 3 + n:
        return Fraction(0)
    vol = ensure_volume(store, g, n)
    pattern = tuple(sorted((2 * a for a in alpha), reverse=True))
    rational = vol.orbits.get((pattern, 2 * kappa), Fraction(0))
    for a in alpha:
        rational *= math.factorial(a)
    rational *= math.factorial(kappa)
    return rational * Fraction(2 ** weight, 2 ** kappa)


def genus0_psi(alpha: Sequence[int]) -> Fraction:
    """Closed form for genus-0 pure psi numbers: the multinomial
    (n-3)! / (a1! .. an!) when |alpha| = n - 3."""
    alpha = tuple(alpha)
    n = len(alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("psi exponents must be nonnegative")
    if sum(alpha) != n - 3:
        raise ValueError(f"expected |alpha| = n - 3 = {n - 3}, got {sum(alpha)}")
    value = math.factorial(n - 3)
    for a in alpha:
        value //= math.factorial(a)
    return Fraction(value)


@dataclass(frozen=True)
class CheckCase:
    """Outcome of one identity instance; vacuous means 0 = 0 by dimension."""

    g: int
    n: int
    alpha: tuple[int, ...]
    m: int
    lhs: Fraction
    rhs: Fraction
    vacuous: bool

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def string2_case(
    g: int, n: int, alpha: Sequence[int], m: int, store: VolumeStore
) -> CheckCase:
    alpha = tuple(alpha)
    lhs = Fraction(0)
    for j in range(m + 1):
        sign = -1 if j % 2 else 1
        lhs += sign * math.comb(m, j) * psi_kappa(
            g, n + 1, alpha + (j,), m - j, store
        )
    rhs = Fraction(0)
    for k in range(n):
        lowered = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
        rhs += psi_kappa(g, n, lowered, m, store)
    vacuous = sum(alpha) + m != 3 * g - 2 + n
    return CheckCase(g, n, alpha, m, lhs, rhs, vacuous)


def dilaton2_case(
    g: int, n: int, alpha: Sequence[int], m: int, store: VolumeStore
) -> CheckCase:
    alpha = tuple(alpha)
    lhs = Fraction(0)
    for j in range(m + 1):
        sign = -1 if j % 2 else 1
        lhs += sign * math.comb(m, j) * psi_kappa(
            g, n + 1, alpha + (j + 1,), m - j, store
        )
    rhs = (2 * g - 2 + n) * psi_kappa(g, n, alpha, m, store)
    vacuous = sum(alpha) + m != 3 * g - 3 + n
    return CheckCase(g, n, alpha, m, lhs, rhs, vacuous)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def admissible_string2(g: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every (alpha, m) at (g, n) for which the string identity is nontrivial."""
    budget = 3 * g - 2 + n
    for m in range(budget + 1):
        for alpha in compositions(budget - m, n):
            yield alpha, m


def admissible_dilaton2(g: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    budget = 3 * g - 3 + n
    for m in range(budget + 1):
        for alpha in compositions(budget - m, n):
            yield alpha, m
