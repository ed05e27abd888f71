"""Dense reference implementations of the polynomial ring, of the relations
at L = 2*pi*i, and of rendering.

The package keeps every polynomial by symmetry orbit.  ``Dense`` is the
other form, the term map ``{exponents: coefficient}`` with the L1..Ln
exponents and then the pi exponent, and ``expand`` lists the monomials of
an orbit map (a ``Poly`` or a volume) into it.  The ring here (``const``,
``var``, ``pi``, ``add``, ``scale``, ``mul``) builds and combines term maps
through ``Dense.from_terms``, which sums repeated keys and drops zeros.  The
tests state expected polynomials with it and use it as the reference
arithmetic.

The package evaluates at 2*pi*i only by symmetry orbit
(``symmetric.at_two_pi_i``).  The functions here do the same work on the
term map, one monomial at a time, with no orbit code at all, so the tests
can hold the orbit code against them.  They also carry the dense calculus
and inspection helpers the tests use to state properties of polynomials.
Variable indices are 1-based (L1..Ln).

The exact moments (Bernoulli numbers, F_{2k+1}(t) and F_{2k+1}(u+v) +
F_{2k+1}(u-v)) are here as the ``Fraction`` recurrences they were first
computed by, and the reference kernel below reads only these; the package
builds its moment rows in integers and must give the same values.

The kernel half is the recursion as it ran on ``Fraction`` coefficients,
one double moment per (a, b) and one product per term, with the connected
term read by taking two ordered heads out of each orbit; the package's
integer recursion, which reads it through the one-head index, must give
the same orbit maps.

The closed volume here divides V(g, 1) by (L^2 + 4 pi^2) densely and
evaluates the cofactor at 2*pi*i; the package reads it off the dilaton
relation at n = 0 instead, so the two are different methods.  ``kernel_H``
is the float kernel for the quadrature oracle of the moments, and
``genus0_psi`` the multinomial closed form of genus-0 psi numbers; the
package does no float arithmetic and computes no intersection number in
closed form.

The rendering half is the straightforward printer: the canonical order by
a key function, one term formatted at a time, and a recursive generator
of arrangements.  The package's orbit walk, which prints volumes and lists
the terms of their cache documents, must match it byte for byte.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product

from wpvol.mirzakhani import _tails
from wpvol.poly import Poly
from wpvol.store import SCHEMA_VERSION
from wpvol.volume import (
    ConsistencyError,
    VolumePolynomial,
    is_seed,
    is_stable,
    require_stable,
    seed_volume,
)

_F0 = Fraction(0)


def _check_index(n: int, k: int) -> int:
    if not 1 <= k <= n:
        raise IndexError(f"variable index {k} out of range 1..{n}")
    return k - 1


# ----------------------------------------------------------------------
# the term map


class Dense:
    """Sparse exact polynomial in L1..Ln and pi as its term map.

    ``terms`` maps exponent tuples (length ``n_vars + 1``, pi last) to
    nonzero Fraction coefficients, so two polynomials are equal iff their
    term maps are.  The constructor takes ownership of the dict and trusts
    it to be canonical; ``from_terms`` and ``from_orbits`` build values
    safely.
    """

    __slots__ = ("n_vars", "terms")
    __hash__ = None

    def __init__(self, n_vars: int, terms: dict):
        self.n_vars = n_vars
        self.terms = terms

    @classmethod
    def from_terms(cls, n_vars: int, items: dict | Iterable) -> "Dense":
        """Build from ``{exponent tuple: coefficient}``; drops zeros, copies."""
        pairs = items.items() if isinstance(items, dict) else items
        terms = {}
        for key, value in pairs:
            key = tuple(key)
            if len(key) != n_vars + 1 or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {key} for n_vars={n_vars}")
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"cannot use {value!r} as a polynomial coefficient")
            if value:
                terms[key] = terms.get(key, _F0) + value
        return cls(n_vars, {k: v for k, v in terms.items() if v})

    @classmethod
    def from_orbits(cls, n_vars: int, orbits: dict) -> "Dense":
        """Every monomial of ``{(pattern, pi_exp): coefficient}``: each
        distinct rearrangement of a pattern carries its orbit's coefficient.
        Inverse of ``orbit_coefficients``."""
        return cls(n_vars, {
            head + (pi_exp,): c
            for (pattern, pi_exp), c in orbits.items()
            for head in arrangements(pattern)
        })

    def orbit_coefficients(self) -> dict:
        """Coefficients by symmetry orbit, or raise ValueError if asymmetric.

        The orbit of a monomial under permutations of L1..Ln is identified by
        its sorted exponent pattern together with the pi exponent.  For a
        symmetric polynomial every orbit is fully present with one shared
        coefficient; returns {(pattern, pi_exp): coefficient}.
        """
        groups: dict = {}
        for key, c in self.terms.items():
            sig = (tuple(sorted(key[:-1], reverse=True)), key[-1])
            groups.setdefault(sig, []).append(c)
        out = {}
        for (pattern, pi_exp), coeffs in groups.items():
            if len(set(coeffs)) > 1:
                raise ValueError(f"not symmetric: orbit {(pattern, pi_exp)} carries distinct coefficients")
            expected = len(set(arrangements(pattern)))
            if len(coeffs) != expected:
                raise ValueError(
                    f"not symmetric: orbit {(pattern, pi_exp)} has {len(coeffs)} of "
                    f"{expected} monomials"
                )
            out[(pattern, pi_exp)] = coeffs[0]
        return out

    def embed(self, new_n_vars: int) -> "Dense":
        """Reinterpret in new_n_vars >= n_vars variables (new ones absent)."""
        if new_n_vars < self.n_vars:
            raise ValueError("embed can only extend the variable count")
        pad = (0,) * (new_n_vars - self.n_vars)
        return Dense(
            new_n_vars,
            {key[:-1] + pad + (key[-1],): c for key, c in self.terms.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dense):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Dense({self.n_vars}, {render(self)})"


def expand(p: Poly | VolumePolynomial) -> Dense:
    """The term map of an orbit map: a ``Poly`` or a volume."""
    return Dense.from_orbits(p.n_vars if isinstance(p, Poly) else p.n, p.orbits)


# ----------------------------------------------------------------------
# the ring: monomials, sums, products and scaling of term maps; adding or
# multiplying polynomials in different variable counts raises ValueError


def const(n: int, value) -> Dense:
    return Dense.from_terms(n, {(0,) * (n + 1): value})


def var(n: int, k: int, power: int = 1) -> Dense:
    """The monomial L_k**power in n variables."""
    key = [0] * (n + 1)
    key[_check_index(n, k)] = power
    return Dense.from_terms(n, {tuple(key): 1})


def pi(n: int, power: int = 1) -> Dense:
    return Dense.from_terms(n, {(0,) * n + (power,): 1})


def add(*ps: Dense) -> Dense:
    return Dense.from_terms(ps[0].n_vars, [item for p in ps for item in p.terms.items()])


def scale(p: Dense, c) -> Dense:
    return Dense.from_terms(p.n_vars, {key: c * v for key, v in p.terms.items()})


def mul(p: Dense, q: Dense) -> Dense:
    return Dense.from_terms(
        p.n_vars,
        [
            (tuple(a + b for a, b in zip(ka, kb, strict=True)), ca * cb)
            for ka, ca in p.terms.items()
            for kb, cb in q.terms.items()
        ],
    )


# ----------------------------------------------------------------------
# inspection


def coeff_monomial(p: Dense, l_exps: Iterable[int], pi_exp: int = 0) -> Fraction:
    return p.terms.get(tuple(l_exps) + (pi_exp,), _F0)


def l_degree(p: Dense) -> int:
    """Max over terms of the sum of L exponents alone; -1 if zero."""
    if not p.terms:
        return -1
    return max(sum(key[:-1]) for key in p.terms)


def is_homogeneous(p: Dense, degree: int) -> bool:
    """True iff every term has total degree (L exponents plus pi) equal."""
    return all(sum(key) == degree for key in p.terms)


def has_even_l_exponents(p: Dense) -> bool:
    return all(all(e % 2 == 0 for e in key[:-1]) for key in p.terms)


def is_symmetric(p: Dense) -> bool:
    """True iff invariant under every permutation of L1..Ln."""
    if p.n_vars <= 1:
        return True
    try:
        p.orbit_coefficients()
    except ValueError:
        return False
    return True


# ----------------------------------------------------------------------
# calculus and substitution


def ddx(p: Dense, k: int) -> Dense:
    """Exact partial derivative with respect to L_k."""
    i = _check_index(p.n_vars, k)
    out: dict = {}
    for key, c in p.terms.items():
        e = key[i]
        if e == 0:
            continue
        out[key[:i] + (e - 1,) + key[i + 1:]] = c * e
    return Dense(p.n_vars, out)


def eval_two_pi_i(p: Dense, k: int) -> Dense:
    """Substitute L_k = 2*pi*i exactly.

    Each L_k**j, j even, becomes (-4)**(j/2) * pi**j folded into the
    coefficient and the pi exponent; the result keeps n_vars variables with
    L_k absent.  An odd power of L_k would leave an imaginary value, so it
    raises ValueError.
    """
    i = _check_index(p.n_vars, k)
    out: dict = {}
    for key, c in p.terms.items():
        j = key[i]
        if j & 1:
            raise ValueError(f"odd power of L{k} in {key} has no real value at 2*pi*i")
        if j:
            c = c * (-4) ** (j >> 1)
            key = key[:i] + (0,) + key[i + 1:-1] + (key[-1] + j,)
        s = out.get(key, _F0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return Dense(p.n_vars, out)


def eval_zero(p: Dense, k: int) -> Dense:
    """Substitute L_k = 0 (keeps the variable count)."""
    i = _check_index(p.n_vars, k)
    return Dense(p.n_vars, {key: c for key, c in p.terms.items() if not key[i]})


def coeff_pi(p: Dense, pi_exp: int) -> Dense:
    """The pi-free coefficient polynomial of pi**pi_exp."""
    if pi_exp < 0:
        raise IndexError("pi exponent must be nonnegative")
    return Dense(
        p.n_vars,
        {key[:-1] + (0,): c for key, c in p.terms.items() if key[-1] == pi_exp},
    )


def drop_var(p: Dense, k: int) -> Dense:
    """Remove variable k, which must be absent from every monomial."""
    i = _check_index(p.n_vars, k)
    out = {}
    for key, c in p.terms.items():
        if key[i]:
            raise ValueError(f"variable {k} still occurs in {key}")
        out[key[:i] + key[i + 1:]] = c
    return Dense(p.n_vars - 1, out)


def divide_by_var(p: Dense, k: int) -> Dense:
    """Exact division by L_k; every monomial must contain L_k."""
    i = _check_index(p.n_vars, k)
    out = {}
    for key, c in p.terms.items():
        if not key[i]:
            raise ValueError(f"term {key} is not divisible by L{k}")
        out[key[:i] + (key[i] - 1,) + key[i + 1:]] = c
    return Dense(p.n_vars, out)


def euler_poly(p: Dense) -> Dense:
    """sum_j L_j * dp/dL_j; scales a term of L-degree 2d by 2d."""
    n = p.n_vars
    return add(Dense(n, {}), *(mul(var(n, k), ddx(p, k)) for k in range(1, n + 1)))


def divide_boundary_quadratic(p: Dense, k: int) -> Dense:
    """Exact division by (L_k^2 + 4 pi^2); raises on a nonzero remainder."""
    i = _check_index(p.n_vars, k)
    work = dict(p.terms)
    quotient: dict = {}
    max_e = max((key[i] for key in work), default=0)
    for e in range(max_e, 1, -1):
        for key in [key for key in work if key[i] == e]:
            c = work.pop(key)
            qkey = key[:i] + (e - 2,) + key[i + 1:]
            s = quotient.get(qkey, _F0) + c
            if s:
                quotient[qkey] = s
            else:
                quotient.pop(qkey, None)
            skey = qkey[:-1] + (qkey[-1] + 2,)
            s = work.get(skey, _F0) - 4 * c
            if s:
                work[skey] = s
            else:
                work.pop(skey, None)
    if work:
        raise ConsistencyError(
            f"nonzero remainder dividing by (L{k}^2 + 4*pi^2)",
            defect=Dense(p.n_vars, work),
        )
    return Dense(p.n_vars, quotient)


# ----------------------------------------------------------------------
# the relations, on the dense view of each volume


def string_defect(bigger: VolumePolynomial, smaller: VolumePolynomial) -> Dense:
    """V(g, n+1)(L, 2*pi*i) minus sum_k integral_0^{L_k} L_k V(g, n) dL_k."""
    m = bigger.n
    n = smaller.n
    parts = (_integrate_times_var(expand(smaller), k) for k in range(1, n + 1))
    rhs = add(Dense(n, {}), *parts)
    return add(eval_two_pi_i(expand(bigger), m), scale(rhs.embed(m), -1))


def _integrate_times_var(p: Dense, k: int) -> Dense:
    """integral_0^{L_k} L_k p dL_k: L_k**e becomes L_k**(e+2) / (e+2)."""
    i = k - 1
    return Dense(
        p.n_vars,
        {
            key[:i] + (key[i] + 2,) + key[i + 1:]: c / (key[i] + 2)
            for key, c in p.terms.items()
        },
    )


def dilaton_defect(bigger: VolumePolynomial, smaller: VolumePolynomial) -> Dense:
    m = bigger.n
    lhs = eval_two_pi_i(divide_by_var(ddx(expand(bigger), m), m), m)
    factor = 2 * smaller.g - 2 + smaller.n
    return add(lhs, scale(expand(smaller), -factor).embed(m))


def second_derivative_defect(bigger: VolumePolynomial, smaller: VolumePolynomial) -> Dense:
    m = bigger.n
    lhs = eval_two_pi_i(ddx(ddx(expand(bigger), m), m), m)
    factor = 4 * smaller.g - 4 + smaller.n
    rhs = add(euler_poly(expand(smaller)), scale(expand(smaller), -factor))
    return add(lhs, scale(rhs.embed(m), -1))


def boundary_cofactor(vol: VolumePolynomial) -> Dense:
    """The cofactor P with V(g, 1) = (L^2 + 4 pi^2) * P, by dense division."""
    return divide_boundary_quadratic(expand(vol), 1)


def closed_volume(vol: VolumePolynomial) -> Dense:
    """V(g, 0) as the cofactor at L = 2*pi*i over g - 1: the division route
    the package's ``closed_volume`` (dilaton at n = 0) must agree with."""
    cofactor = boundary_cofactor(vol)
    return scale(drop_var(eval_two_pi_i(cofactor, 1), 1), Fraction(1, vol.g - 1))


# ----------------------------------------------------------------------
# float and closed-form references


def kernel_H(x: float, y: float) -> float:
    """Float kernel value, overflow-safe for large arguments (quadrature oracle)."""
    return 0.5 * (_logistic((x + y) / 2.0) + _logistic((x - y) / 2.0))


def _logistic(u: float) -> float:
    # 1 / (1 + e^u) without overflow for large positive u
    if u > 0:
        t = math.exp(-u)
        return t / (1.0 + t)
    return 1.0 / (1.0 + math.exp(u))


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


def reference_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The tuples of `parts` nonnegative integers summing to `total`, by
    recursion on the first entry, which ascends."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in reference_compositions(total - head, parts - 1):
            yield (head,) + tail


# ----------------------------------------------------------------------
# the exact moments by their Fraction recurrences


@lru_cache(maxsize=None)
def reference_bernoulli_number(m: int) -> Fraction:
    """B_m (B_1 = -1/2) by the O(m^2) recurrence sum_k C(m+1, k) B_k = 0."""
    if m == 0:
        return Fraction(1)
    total = Fraction(0)
    for k in range(m):
        total += math.comb(m + 1, k) * reference_bernoulli_number(k)
    return -total / (m + 1)


def reference_zeta_even_coeff(i: int) -> Fraction:
    sign = -1 if i % 2 == 0 else 1
    return sign * reference_bernoulli_number(2 * i) * Fraction(2 ** (2 * i), 2 * math.factorial(2 * i))


@lru_cache(maxsize=None)
def reference_moment_F(k: int) -> dict:
    """F_{2k+1}(t) term by term in Fraction arithmetic; the map is shared
    by every caller and must not be changed."""
    fac = math.factorial(2 * k + 1)
    terms = {}
    for i in range(k + 2):
        c = fac * reference_zeta_even_coeff(i) * (2 ** (2 * i) - 2)
        c /= math.factorial(2 * k + 2 - 2 * i)
        terms[(2 * k + 2 - 2 * i, 2 * i)] = c
    return terms


@lru_cache(maxsize=None)
def reference_pair_moment(k: int) -> dict:
    """F_{2k+1}(u + v) + F_{2k+1}(u - v), summed term by term, shared like
    ``reference_moment_F``."""
    out = {}
    for (s, pi_exp), c in reference_moment_F(k).items():
        for r in range(0, s + 1, 2):
            nkey = (s - r, r, pi_exp)
            out[nkey] = out.get(nkey, 0) + c * (2 * math.comb(s, r))
    return out


# ----------------------------------------------------------------------
# the kernel recursion, one Fraction product per term


@lru_cache(maxsize=None)
def double_moment(a: int, b: int) -> Dense:
    """integral over x, y > 0 of x^(2a+1) y^(2b+1) H(x+y, t) dx dy, in t."""
    if a < 0 or b < 0:
        raise ValueError("moment indices must be nonnegative")
    beta = Fraction(
        math.factorial(2 * a + 1) * math.factorial(2 * b + 1),
        math.factorial(2 * a + 2 * b + 3),
    )
    return Dense(1, {key: c * beta for key, c in reference_moment_F(a + b + 1).items()})


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


def reference_volume(g: int, n: int, store) -> VolumePolynomial:
    """V(g, n) by the kernel recursion on Fraction coefficients, with every
    lower volume from this function too; stored as ``mirzakhani``."""
    require_stable(g, n)
    if n < 1:
        raise ValueError("the kernel recursion needs a distinguished boundary")
    if is_seed(g, n):
        return store.memo(g, n, "seed", seed_volume, g, n)
    cached = store.get(g, n, provenance="mirzakhani")
    if cached is not None:
        return cached

    def index(gg: int, nn: int, head: int) -> dict:
        # sorted tail -> [(head exponents, pi exponent, coefficient)]
        out: dict = {}
        if is_stable(gg, nn):
            for (pattern, p), c in reference_volume(gg, nn, store).orbits.items():
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
            for (t, w, q), mc in reference_pair_moment(k).items():
                if w == v:
                    key = (t, beta, p + q)
                    reps[key] = reps.get(key, 0) + c * mc

    orbits: dict = {}
    for (a1, beta, p), c in reps.items():
        if c:
            sig = (tuple(sorted((a1,) + beta, reverse=True)), p)
            orbits.setdefault(sig, {})[a1] = c / (a1 + 1)
    result = {}
    for (pattern, p), reach in orbits.items():
        coeffs = set(reach.values())
        if set(reach) != set(pattern) or len(coeffs) != 1:
            raise ConsistencyError(f"reference recursion fails orbit agreement for ({g},{n})")
        result[(pattern, p)] = coeffs.pop()
    vol = VolumePolynomial(g, n, result)
    store.put(vol, "mirzakhani")
    return vol


# ----------------------------------------------------------------------
# rendering, one term at a time


def sorted_terms(p: Dense | Poly) -> list:
    """Ascending pi exponent, then descending lexicographic L exponents; a
    ``Poly`` is expanded first."""
    if isinstance(p, Poly):
        p = expand(p)
    return sorted(
        p.terms.items(),
        key=lambda kv: (kv[0][-1],) + tuple(-e for e in kv[0][:-1]),
    )


def render(p: Dense | Poly) -> str:
    return _join_terms(_term_plain(key, c) for key, c in sorted_terms(p)) or "0"


def render_latex(p: Dense | Poly) -> str:
    return _join_terms(_term_latex(key, c) for key, c in sorted_terms(p)) or "0"


def serialize_entry(vol: VolumePolynomial, provenance: str) -> str:
    """The JSON export of vol (``cli.export_document``), one ``str`` per term."""
    return document(vol.g, vol.n, expand(vol), provenance)


def document(g: int, n: int, p: Dense, provenance: str = "seed") -> str:
    """A dense document, the JSON export's schema 1, that lists the term map
    p as V(g, n), one ``str`` per term, whether or not p is a valid volume."""
    terms = [
        {"l": list(key[:-1]), "pi": key[-1], "re": str(c), "im": "0"}
        for key, c in sorted_terms(p)
    ]
    doc = {"schema": 1, "g": g, "n": n, "provenance": provenance, "terms": terms}
    return json.dumps(doc, separators=(",", ":")) + "\n"


# V(1,1) as schema 1 of the cache wrote it, and the JSON export still does:
# one dense term per monomial
SCHEMA_1_V11 = (
    '{"schema":1,"g":1,"n":1,"provenance":"seed","terms":[{"l":[2],"pi":0,'
    '"re":"1/48","im":"0"},{"l":[0],"pi":2,"re":"1/12","im":"0"}]}\n'
)


def orbit_document(g: int, n: int, orbits: dict, provenance: str = "seed") -> str:
    """A cache document that lists the orbit map as V(g, n), in descending
    (pattern, pi) order, whether or not it is a valid volume."""
    entries = [
        {"l": list(pattern), "pi": pi_exp, "c": str(c)}
        for (pattern, pi_exp), c in sorted(orbits.items(), reverse=True)
    ]
    doc = {"schema": SCHEMA_VERSION, "g": g, "n": n, "provenance": provenance,
           "orbits": entries}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _join_terms(rendered) -> str:
    parts = []
    for term in rendered:
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts)


def _coeff_plain(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    if r < 0:
        return f"-({-r})"
    return f"({r})"


def _term_plain(key: tuple[int, ...], c: Fraction) -> str:
    parts = []
    for i, e in enumerate(key[:-1]):
        if e == 1:
            parts.append(f"L{i + 1}")
        elif e:
            parts.append(f"L{i + 1}^{e}")
    if key[-1] == 1:
        parts.append("pi")
    elif key[-1]:
        parts.append(f"pi^{key[-1]}")
    if not parts:
        return _coeff_plain(c)
    if c == 1:
        return "*".join(parts)
    if c == -1:
        return "-" + "*".join(parts)
    return _coeff_plain(c) + "*" + "*".join(parts)


def _coeff_latex(r: Fraction) -> str:
    sign = "-" if r < 0 else ""
    r = abs(r)
    if r.denominator == 1:
        return f"{sign}{r.numerator}"
    return f"{sign}\\frac{{{r.numerator}}}{{{r.denominator}}}"


def _term_latex(key: tuple[int, ...], c: Fraction) -> str:
    parts = []
    for i, e in enumerate(key[:-1]):
        if e == 1:
            parts.append(f"L_{{{i + 1}}}")
        elif e:
            parts.append(f"L_{{{i + 1}}}^{{{e}}}")
    if key[-1] == 1:
        parts.append("\\pi")
    elif key[-1]:
        parts.append(f"\\pi^{{{key[-1]}}}")
    body = _coeff_latex(c)
    if parts and c == 1:
        body = ""
    elif parts and c == -1:
        body = "-"
    return body + " ".join(parts) if parts else body


def arrangements(pattern: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Yield the distinct rearrangements of a multiset, one slot per level."""
    items = sorted(pattern, reverse=True)
    counter = Counter(items)
    values = sorted(counter)
    out = [0] * len(items)

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == len(items):
            yield tuple(out)
            return
        for v in values:
            if counter[v]:
                counter[v] -= 1
                out[pos] = v
                yield from rec(pos + 1)
                counter[v] += 1

    yield from rec(0)
