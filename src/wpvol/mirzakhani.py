"""Mirzakhani's recursion for volume polynomials, with exact kernel moments.

The recursion expresses d(L1 * V(g,n))/dL1 through integral transforms of
lower volumes against the kernel

    H(x, y) = 1/2 * ( 1/(1 + e^((x+y)/2)) + 1/(1 + e^((x-y)/2)) ).

All integrals reduce to the odd moments F_{2k+1}(t) = integral_0^inf of
x^(2k+1) H(x, t) dx, which are even polynomials in t with coefficients in
Q * pi^(2i):

    F_{2k+1}(t) = (2k+1)! * sum_{i=0}^{k+1}
                  zeta(2i) (2^(2i) - 2) t^(2k+2-2i) / (2k+2-2i)!

where zeta(0) = -1/2 and zeta(2i) is the even zeta value, a rational
multiple of pi^(2i) through the Bernoulli numbers.  The leading term is
t^(2k+2)/(4k+4); the quadrature oracle pins these coefficients (a common
alternative convention doubles the kernel and with it every moment).  The
double transform with kernel H(x+y, t) against x^(2a+1) y^(2b+1) reduces by
the Euler beta integral to

    (2a+1)! (2b+1)! / (2a+2b+3)!  *  F_{2a+2b+3}(t).

Runtime arithmetic is entirely exact; ``kernel_H`` itself is float and
exists only as the quadrature oracle for the moment polynomials.

Normalization: with the one-half inside H, the transform terms enter the
recursion with no further prefactor; the disconnected sum runs over ordered
stable pairs, and every appearance of the one-holed torus uses the halved
orbifold volume.  (Doubling the kernel instead would put the familiar
explicit 1/2 in front of each transform; the assembled recursion is the
same.)  This convention is pinned by reproducing the independently lifted
V(0,4) and V(1,2) and is frozen (see the README).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .poly import Poly
from .volume import (
    ConsistencyError,
    VolumePolynomial,
    is_seed,
    is_stable,
    require_stable,
    seed_volume,
)


def kernel_H(x: float, y: float) -> float:
    """Float kernel value, overflow-safe for large arguments (oracle only)."""
    return 0.5 * (_logistic((x + y) / 2.0) + _logistic((x - y) / 2.0))


def _logistic(u: float) -> float:
    # 1 / (1 + e^u) without overflow for large positive u
    if u > 0:
        t = math.exp(-u)
        return t / (1.0 + t)
    return 1.0 / (1.0 + math.exp(u))


@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention)."""
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if m == 0:
        return Fraction(1)
    total = Fraction(0)
    for k in range(m):
        total += math.comb(m + 1, k) * bernoulli_number(k)
    return -total / (m + 1)


@lru_cache(maxsize=None)
def zeta_even_coeff(i: int) -> Fraction:
    """The rational r with zeta(2i) = r * pi^(2i); zeta(0) = -1/2."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    sign = -1 if i % 2 == 0 else 1
    return sign * bernoulli_number(2 * i) * Fraction(2 ** (2 * i), 2 * math.factorial(2 * i))


@lru_cache(maxsize=None)
def moment_F(k: int) -> Poly:
    """Exact F_{2k+1}(t): even in t, homogeneous of degree 2k+2, leading
    term t^(2k+2)/(4k+4)."""
    if k < 0:
        raise ValueError("moment index must be nonnegative")
    fac = math.factorial(2 * k + 1)
    terms = {}
    for i in range(k + 2):
        c = fac * zeta_even_coeff(i) * (2 ** (2 * i) - 2)
        c /= math.factorial(2 * k + 2 - 2 * i)
        terms[(2 * k + 2 - 2 * i, 2 * i)] = c
    return Poly.from_terms(1, terms)


@lru_cache(maxsize=None)
def double_moment(a: int, b: int) -> Poly:
    """integral over x, y > 0 of x^(2a+1) y^(2b+1) H(x+y, t) dx dy, in t."""
    if a < 0 or b < 0:
        raise ValueError("moment indices must be nonnegative")
    beta = Fraction(
        math.factorial(2 * a + 1) * math.factorial(2 * b + 1),
        math.factorial(2 * a + 2 * b + 3),
    )
    return moment_F(a + b + 1).scale(beta)


@lru_cache(maxsize=None)
def pair_moment(k: int) -> Poly:
    """F_{2k+1}(u + v) + F_{2k+1}(u - v) as a two-variable polynomial.

    Odd powers of v cancel, so the result is even in both variables; this is
    the x^(2k+1) transform of the kernel H(x, u+v) + H(x, u-v).
    """
    out = {}
    for key, c in moment_F(k).terms.items():
        s, pi_exp = key
        for r in range(0, s + 1, 2):
            coeff = c * (2 * math.comb(s, r))
            nkey = (s - r, r, pi_exp)
            out[nkey] = out.get(nkey, 0) + coeff
    return Poly(2, out)


def stable_splits(
    g: int, labels: tuple[int, ...], reverse: bool = False
) -> list[tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]]]:
    """Ordered stable splittings ((g1, I1), (g2, I2)) with g1+g2 = g and
    I1, I2 partitioning the labels; each part must satisfy
    2*g_i - 2 + (|I_i| + 1) > 0."""
    out = []
    label_set = set(labels)
    for g1 in range(g + 1):
        g2 = g - g1
        for size in range(len(labels) + 1):
            for chosen in combinations(sorted(labels), size):
                rest = tuple(sorted(label_set - set(chosen)))
                if is_stable(g1, len(chosen) + 1) and is_stable(g2, len(rest) + 1):
                    out.append(((g1, chosen), (g2, rest)))
    if reverse:
        out.reverse()
    return out


def disconnected_terms(g: int, n: int):
    """The pieces of the possibly-disconnected transform input for (g, n).

    Returns (include_connected, splits): whether the connected volume
    V(g-1, n+1) is stable, plus the ordered stable splits of the remaining
    boundary labels 2..n.
    """
    include_connected = is_stable(g - 1, n + 1)
    return include_connected, stable_splits(g, tuple(range(2, n + 1)))


def mirzakhani_volume(
    g: int,
    n: int,
    store=None,
    split_reverse: bool = False,
) -> VolumePolynomial:
    """Compute V(g, n) by the kernel recursion, memoizing through a store.

    The recursion privileges L1; symmetry of the output is a theorem and is
    re-verified on every produced polynomial.  ``split_reverse`` reverses
    the enumeration order of the disconnected splits (the result must not
    depend on it).
    """
    require_stable(g, n)
    if n < 1:
        raise ValueError(
            "the kernel recursion needs a distinguished boundary; closed "
            "volumes come from the one-boundary factorization"
        )
    if store is None:
        from .store import VolumeStore

        store = VolumeStore()
    if is_seed(g, n):
        vol = store.get(g, n, provenance="seed")
        if vol is None:
            vol = seed_volume(g, n)
            store.put(vol, "seed")
        return vol
    cached = store.get(g, n, provenance="mirzakhani")
    if cached is not None:
        return cached

    def recurse(gg: int, nn: int) -> Poly:
        return mirzakhani_volume(gg, nn, store, split_reverse).poly

    acc: dict = {}
    width = n + 1

    def add_transformed(moment: Poly, slots: tuple[int, ...], rest_key: tuple[int, ...], c) -> None:
        # rest_key: full-width exponent tuple holding the untransformed part
        for mkey, mc in moment.terms.items():
            key = list(rest_key)
            for idx, e in enumerate(mkey[:-1]):
                key[slots[idx] - 1] += e
            key[-1] += mkey[-1]
            key = tuple(key)
            s = acc.get(key)
            v = c * mc
            s = v if s is None else s + v
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)

    # A-term: double transform of the possibly-disconnected volumes
    include_connected, splits = disconnected_terms(g, n)
    if split_reverse:
        splits = list(reversed(splits))
    if include_connected:
        # variables of V(g-1, n+1): 1 -> x, 2 -> y, 2+t -> label t+1 (t>=1)
        inner = recurse(g - 1, n + 1)
        for key, c in inner.terms.items():
            a, b = key[0] // 2, key[1] // 2
            rest = [0] * width
            for t in range(2, n + 1):
                rest[t - 1] = key[t]
            rest[-1] = key[-1]
            add_transformed(double_moment(a, b), (1,), tuple(rest), c)
    for (g1, labels1), (g2, labels2) in splits:
        p1 = recurse(g1, len(labels1) + 1)
        p2 = recurse(g2, len(labels2) + 1)
        for key1, c1 in p1.terms.items():
            a = key1[0] // 2
            base = [0] * width
            for t, label in enumerate(labels1):
                base[label - 1] = key1[1 + t]
            base[-1] = key1[-1]
            for key2, c2 in p2.terms.items():
                b = key2[0] // 2
                rest = list(base)
                for t, label in enumerate(labels2):
                    rest[label - 1] = key2[1 + t]
                rest[-1] += key2[-1]
                add_transformed(double_moment(a, b), (1,), tuple(rest), c1 * c2)

    # B-term: single transform pairing L1 with each other boundary
    if n >= 2:
        inner = recurse(g, n - 1)
        for j in range(2, n + 1):
            others = [t for t in range(2, n + 1) if t != j]
            for key, c in inner.terms.items():
                k_exp = key[0] // 2
                rest = [0] * width
                for t, label in enumerate(others):
                    rest[label - 1] = key[1 + t]
                rest[-1] = key[-1]
                add_transformed(pair_moment(k_exp), (1, j), tuple(rest), c)

    derivative = Poly(n, acc)
    try:
        poly = derivative.integrate_from_zero(1).divide_by_var(1)
    except ValueError as exc:
        raise ConsistencyError(f"recursion output for ({g},{n}): {exc}") from exc
    vol = VolumePolynomial.checked(g, n, poly)
    store.put(vol, "mirzakhani")
    return vol
