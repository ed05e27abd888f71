"""psi and kappa_1 intersection numbers read off volume coefficients.

The coefficient of L^(2 alpha) in V(g, n) equals

    pi^(2m) * 2^(m - |alpha|) / (alpha! * m!) * integral of psi^alpha kappa_1^m

with m = 3g - 3 + n - |alpha|, so each intersection number is an exact
rational multiple of one stored coefficient.  The numbers are always
extracted this way, never from a separate intersection engine; the
generalized string and dilaton identities that ``identity_cases`` reads off
V(g, n+1) and V(g, n) are therefore honest cross-checks of the volume
pipeline:

  string:   sum_j (-1)^j C(m,j) <psi^a psi_*^j k^(m-j)>_(n+1)
                = sum_k <psi_1^a1 .. psi_k^(ak-1) .. psi_n^an k^m>_n
  dilaton:  sum_j (-1)^j C(m,j) <psi^a psi_*^(j+1) k^(m-j)>_(n+1)
                = (2g - 2 + n) <psi^a k^m>_n

where terms with a negative exponent are dropped and * marks the extra
point.  The cases are the (alpha, m) whose classes fill the dimension of
M(g, n+1) for string and of M(g, n) for dilaton.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement

from .compute import ensure_volume
from .store import VolumeStore
from .volume import VolumePolynomial, require_stable


def balanced(g: int, n: int, alpha: Sequence[int], kappa: int) -> bool:
    """Whether psi^alpha kappa_1^kappa can integrate to nonzero over M(g, n):
    nonnegative exponents whose degrees sum to the dimension 3g - 3 + n."""
    nonnegative = min(alpha, default=0) >= 0 and kappa >= 0
    return nonnegative and sum(alpha) + kappa == 3 * g - 3 + n


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
    if not balanced(g, n, alpha, kappa):
        return Fraction(0)
    return volume_coefficient(ensure_volume(store, g, n), alpha, kappa)


def volume_coefficient(vol: VolumePolynomial, alpha: tuple, kappa: int) -> Fraction:
    """psi_kappa read off V(g, n) itself; 0 unless (alpha, kappa) is balanced."""
    if len(alpha) != vol.n:
        raise ValueError(f"alpha must have length n = {vol.n}")
    if not balanced(vol.g, vol.n, alpha, kappa):
        return Fraction(0)
    den, numerators = _numerators(vol)
    return Fraction(_read(numerators, alpha, kappa), den)


def identity_cases(
    bigger: VolumePolynomial, smaller: VolumePolynomial, order: int
) -> Iterator[tuple[tuple[int, ...], int, Fraction, Fraction]]:
    """(alpha, m, lhs, rhs) of the string (order 0) or dilaton (order 1)
    identity of V(g, n+1) against V(g, n) in ``admissible`` order, read one
    coefficient at a time: a check independent of ``relation_defect``.  Both
    sides are symmetric in alpha, so each (sorted alpha, m) is read once."""
    g, n = smaller.g, smaller.n
    if bigger.g != g or bigger.n != n + 1 or order not in (0, 1):
        raise ValueError(
            f"expected (g, n+1) against (g, n) at order 0 or 1, got "
            f"({bigger.g},{bigger.n}) and ({g},{n}) at order {order}"
        )
    d_bigger, bigger_at = _numerators(bigger)
    d_smaller, smaller_at = _numerators(smaller)
    sides = {}  # (alpha sorted descending, m) -> (lhs, rhs)
    for alpha, m in admissible(3 * g - 2 + n - order, n):
        key = tuple(sorted(alpha, reverse=True)), m
        if key not in sides:
            lhs = sum(
                (-1) ** j * math.comb(m, j) * _read(bigger_at, alpha + (j + order,), m - j)
                for j in range(m + 1)
            )
            if order:
                rhs = (2 * g - 2 + n) * _read(smaller_at, alpha, m)
            else:
                rhs = sum(
                    _read(smaller_at, alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:], m)
                    for k in range(n) if alpha[k]
                )
            sides[key] = Fraction(lhs, d_bigger), Fraction(rhs, d_smaller)
        yield alpha, m, *sides[key]


def _numerators(vol: VolumePolynomial) -> tuple[int, dict]:
    """(D, {(alpha sorted descending, kappa): N}): each psi/kappa_1 number of
    vol as an integer N over one denominator D, the LCD times 2^dimension,
    since 2^(|alpha| - kappa) = 4^|alpha| / 2^dimension.  Built once per
    volume and kept in its ``__dict__``, as the kernel recursion's index is."""
    if "_psi_numerators" not in vol.__dict__:
        lcd = math.lcm(*(c.denominator for c in vol.orbits.values()))
        numerators = {}
        for (pattern, pi_exp), c in vol.orbits.items():
            alpha, kappa = tuple(e // 2 for e in pattern), pi_exp // 2
            num = c.numerator * (lcd // c.denominator) * math.factorial(kappa)
            for a in alpha:
                num *= math.factorial(a)
            numerators[alpha, kappa] = num << 2 * sum(alpha)
        vol.__dict__["_psi_numerators"] = (lcd << vol.dimension, numerators)
    return vol.__dict__["_psi_numerators"]


def _read(numerators: dict, alpha: tuple, kappa: int) -> int:
    return numerators.get((tuple(sorted(alpha, reverse=True)), kappa), 0)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order.  By stars and bars: the partial sums of the first
    parts - 1 entries are a nondecreasing tuple in [0, total], and those
    tuples come out of ``combinations_with_replacement`` in the same order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for sums in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, sums + (total,), (0,) + sums))


def admissible(budget: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every (alpha, m) with n entries in alpha and |alpha| + m = budget: the
    nontrivial cases of an identity whose classes fill that dimension."""
    for m in range(budget + 1):
        for alpha in compositions(budget - m, n):
            yield alpha, m
