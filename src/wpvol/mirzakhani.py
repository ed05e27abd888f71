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

Representatives.  The output is symmetric in L2..Ln, so only coefficients
at (a1; beta), beta the exponents of L2..Ln in descending order, are
computed.  Each lower volume is indexed once per call, from its orbits, by
its sorted tail (the exponents after the transformed slots); a sub-multiset
of a sorted beta is sorted, so each read is one lookup.  The disconnected
term splits the multiset beta, weighting a split that takes nu_v of the
mu_v copies of each value v by prod C(mu_v, nu_v), its number of label
subsets; the B-term pairs L1 with each distinct value of beta, weighted by
its multiplicity.
Orbit agreement: every orbit (sorted exponents, pi power) must be reached
from each of its distinct values in the L1 slot, all with one coefficient,
or ConsistencyError is raised and nothing is stored; the agreed
coefficients are the stored volume.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .poly import Poly
from .volume import (
    ConsistencyError,
    VolumePolynomial,
    is_seed,
    is_stable,
    require_stable,
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
    return Poly(1, {key: c * beta for key, c in moment_F(a + b + 1).terms.items()})


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


def _tails(length: int, budget: int, top: int):
    """Descending tuples of `length` even exponents, each <= top, sum <= budget."""
    if length == 0:
        yield ()
        return
    for e in range(min(budget, top), -1, -2):
        for rest in _tails(length - 1, budget - e, e):
            yield (e,) + rest


def mirzakhani_volume(g: int, n: int, store) -> VolumePolynomial:
    """Compute V(g, n) by the kernel recursion, memoizing through a store.

    Runs on representatives and checks orbit agreement (module docstring).
    """
    require_stable(g, n)
    if n < 1:
        raise ValueError(
            "the kernel recursion needs a distinguished boundary; closed "
            "volumes come from the one-boundary factorization"
        )
    if is_seed(g, n):
        return store.seed(g, n)
    cached = store.get(g, n, provenance="mirzakhani")
    if cached is not None:
        return cached

    def index(gg: int, nn: int, head: int) -> dict:
        # sorted tail -> [(head exponents, pi exponent, coefficient)], one
        # entry per way of taking `head` ordered values out of an orbit
        out: dict = {}
        if is_stable(gg, nn):
            for (pattern, p), c in mirzakhani_volume(gg, nn, store).orbits.items():
                for heads, tail in _take(pattern, head):
                    out.setdefault(tail, []).append((heads, p, c))
        return out

    connected = index(g - 1, n + 1, 2)
    lower = {
        (gg, nn): index(gg, nn, 1)
        for gg in range(g + 1)
        for nn in range(1, n + 1)
        if (gg, nn) != (g, n)
    }
    reps: dict = {}  # (a1, beta, pi exponent) -> coefficient of d(L1 V)/dL1
    degree = 6 * g - 6 + 2 * n
    for beta in _tails(n - 1, degree, degree):
        mult = Counter(beta)
        values = sorted(mult, reverse=True)
        # double-moment inputs (a, b, pi) and pair-moment inputs (k, v, pi)
        doubles, pairs = {}, {}
        for (x, y), p, c in connected.get(beta, ()):
            key = (x // 2, y // 2, p)
            doubles[key] = doubles.get(key, 0) + c
        for g1, nu in product(range(g + 1), product(*(range(mult[v] + 1) for v in values))):
            beta1 = tuple(v for v, k in zip(values, nu) for _ in range(k))
            beta2 = tuple(v for v, k in zip(values, nu) for _ in range(mult[v] - k))
            left = lower.get((g1, len(beta1) + 1), {}).get(beta1)
            right = lower.get((g - g1, len(beta2) + 1), {}).get(beta2)
            if not left or not right:
                continue
            # label subsets of L2..Ln that carry this sub-multiset
            weight = math.prod(math.comb(mult[v], k) for v, k in zip(values, nu))
            for (x1,), p1, c1 in left:
                for (x2,), p2, c2 in right:
                    key = (x1 // 2, x2 // 2, p1 + p2)
                    doubles[key] = doubles.get(key, 0) + weight * c1 * c2
        for v in values:
            i = beta.index(v)
            for (x,), p, c in lower.get((g, n - 1), {}).get(beta[:i] + beta[i + 1:], ()):
                key = (x // 2, v, p)
                pairs[key] = pairs.get(key, 0) + mult[v] * c
        for (a, b, p), c in doubles.items():
            for (t, q), mc in double_moment(a, b).terms.items():
                key = (t, beta, p + q)
                reps[key] = reps.get(key, 0) + c * mc
        for (k, v, p), c in pairs.items():
            for (t, w, q), mc in pair_moment(k).terms.items():
                if w == v:
                    key = (t, beta, p + q)
                    reps[key] = reps.get(key, 0) + c * mc

    # integrate from 0 in L1 and divide by L1, then check every orbit
    orbits: dict = {}
    for (a1, beta, p), c in reps.items():
        if c:
            sig = (tuple(sorted((a1,) + beta, reverse=True)), p)
            orbits.setdefault(sig, {})[a1] = c / (a1 + 1)
    result = {}
    for (pattern, p), reach in orbits.items():
        coeffs = set(reach.values())
        if set(reach) != set(pattern) or len(coeffs) != 1:
            raise ConsistencyError(
                f"recursion output for ({g},{n}) fails the orbit-agreement "
                f"check at exponents {pattern}, pi^{p}: L1 exponent -> "
                f"coefficient {dict(sorted(reach.items()))}"
            )
        result[(pattern, p)] = coeffs.pop()
    vol = VolumePolynomial(g, n, result)
    store.put(vol, "mirzakhani")
    return vol


def _take(pattern: tuple, head: int):
    """Yield (ordered head values, sorted rest) for each way of taking
    `head` values one by one out of a descending pattern."""
    if head == 0:
        yield (), pattern
        return
    for v in set(pattern):
        i = pattern.index(v)
        for heads, tail in _take(pattern[:i] + pattern[i + 1:], head - 1):
            yield (v,) + heads, tail
