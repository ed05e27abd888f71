"""Volume recursions through the boundary specialization L = 2*pi*i.

Setting one boundary length to 2*pi*i turns the volume of the (n+1)-holed
surface into data of the n-holed one:

  string:   V(g, n+1)(L, 2*pi*i) = sum_k  integral_0^{L_k} L_k V(g, n) dL_k
  dilaton:  W(L, 2*pi*i) = (2g - 2 + n) * V(g, n)

where W = (dV(g, n+1)/dL_{n+1}) / L_{n+1}.  The dilaton relation is usually
written dV/dL_{n+1} (L, 2*pi*i) = 2*pi*i * (2g - 2 + n) * V(g, n); dividing
both sides by L_{n+1} = 2*pi*i gives the form above.  Because every volume
is even in each L_k, W is even too, so both sides are real and every
computation here stays over the rationals.

Together with the stratified lift these generate all genus 0 and genus 1
volumes from the two seeds.  The second derivative satisfies

  d2 V(g, n+1)/dL_{n+1}^2 (L, 2*pi*i) = E.V(g, n) - (4g - 4 + n) V(g, n)

with E the Euler vector field sum L_j d/dL_j.  All checks here are exact:
a check returns True only on literal equality of canonical term maps, and
the *_defect variants expose the difference polynomial for diagnostics.
The lifts work by symmetry orbit; the checks work on the dense view
``vol.poly``, so they stay independent of the orbit code they check.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .symmetric import stratified_lift
from .volume import ConsistencyError, VolumePolynomial

_HALF = Fraction(1, 2)


def string_rhs(vol: VolumePolynomial) -> dict:
    """sum_k of the integral from 0 to L_k of L_k * V, by orbit in n variables.

    Equals the one-more-boundary volume evaluated at L_{n+1} = 2*pi*i.  The
    integral raises one exponent v to v + 2 and divides by v + 2; on orbits,
    raising one copy of v reaches each monomial of the target orbit once per
    slot holding v + 2.
    """
    out: dict = {}
    for (pattern, pi_exp), c in vol.orbits.items():
        for v in set(pattern):
            i = pattern.index(v)
            target = tuple(sorted(pattern[:i] + (v + 2,) + pattern[i + 1:], reverse=True))
            key = (target, pi_exp)
            out[key] = out.get(key, 0) + c * Fraction(target.count(v + 2), v + 2)
    return {key: c for key, c in out.items() if c}


def _check_pair(bigger: VolumePolynomial, smaller: VolumePolynomial) -> None:
    if bigger.g != smaller.g or bigger.n != smaller.n + 1:
        raise ValueError(
            f"expected (g, n+1) against (g, n), got ({bigger.g},{bigger.n}) "
            f"and ({smaller.g},{smaller.n})"
        )


def string_defect(bigger: VolumePolynomial, smaller: VolumePolynomial) -> Poly:
    """LHS minus RHS of the string relation; zero iff the relation holds."""
    _check_pair(bigger, smaller)
    m = bigger.n
    lhs = bigger.poly.eval_two_pi_i(m)
    rhs = Poly.from_orbits(smaller.n, string_rhs(smaller)).embed(m)
    return lhs - rhs


def check_string(bigger: VolumePolynomial, smaller: VolumePolynomial) -> bool:
    return not string_defect(bigger, smaller)


def dilaton_defect(bigger: VolumePolynomial, smaller: VolumePolynomial) -> Poly:
    """LHS minus RHS of the dilaton relation in its real form W(2*pi*i)."""
    _check_pair(bigger, smaller)
    m = bigger.n
    lhs = bigger.poly.ddx(m).divide_by_var(m).eval_two_pi_i(m)
    factor = 2 * smaller.g - 2 + smaller.n
    rhs = smaller.poly.scale(factor).embed(m)
    return lhs - rhs


def check_dilaton(bigger: VolumePolynomial, smaller: VolumePolynomial) -> bool:
    return not dilaton_defect(bigger, smaller)


def euler_poly(p: Poly) -> Poly:
    """sum_j L_j * dp/dL_j; scales a term of L-degree 2d by 2d."""
    total = Poly.zero(p.n_vars)
    for k in range(1, p.n_vars + 1):
        total = total + Poly.var(p.n_vars, k) * p.ddx(k)
    return total


def second_derivative_defect(bigger: VolumePolynomial, smaller: VolumePolynomial) -> Poly:
    _check_pair(bigger, smaller)
    m = bigger.n
    lhs = bigger.poly.ddx(m).ddx(m).eval_two_pi_i(m)
    factor = 4 * smaller.g - 4 + smaller.n
    rhs = (euler_poly(smaller.poly) - smaller.poly.scale(factor)).embed(m)
    return lhs - rhs


def check_second_derivative(bigger: VolumePolynomial, smaller: VolumePolynomial) -> bool:
    return not second_derivative_defect(bigger, smaller)


def genus0_lift(vol: VolumePolynomial) -> VolumePolynomial:
    """The unique next genus-0 volume: V(0, n) -> V(0, n+1).

    V(0, n+1) has squared degree n - 2 < n + 1, so the evaluation at 2*pi*i
    determines it outright and the stratified lift is the whole story.
    """
    if vol.g != 0 or vol.n < 3:
        raise ValueError("genus0_lift needs a genus-0 volume with n >= 3")
    _, candidate = stratified_lift(string_rhs(vol), vol.n - 2)
    lifted = VolumePolynomial(0, vol.n + 1, candidate)
    if not check_string(lifted, vol):
        raise ConsistencyError(
            "lifted genus-0 volume fails the string relation",
            defect=string_defect(lifted, vol),
        )
    return lifted


def genus1_lift(vol: VolumePolynomial) -> tuple[VolumePolynomial, Fraction]:
    """The next genus-1 volume and the correction constant: V(1, n) -> V(1, n+1).

    Here the squared degree equals the variable count, so the lift only pins
    the volume up to c * prod_j (L_j^2 + 4 pi^2) over all n+1 variables.
    The dilaton relation determines c: the correction adds
    2c * prod_{j<=n} (L_j^2 + 4 pi^2) to W(L, 2*pi*i), so
    (2g - 2 + n) V(1, n) minus the candidate's W(L, 2*pi*i) must be q times
    that product, q its ((2,)*n, 0) coefficient, and c = q / 2.
    """
    if vol.g != 1 or vol.n < 1:
        raise ValueError("genus1_lift needs a genus-1 volume with n >= 1")
    n = vol.n
    _, candidate = stratified_lift(string_rhs(vol), n + 1)

    # less the candidate's W(L, 2*pi*i): L_{n+1}**v gives v * (2*pi*i)**(v-2)
    rest = {key: (2 * vol.g - 2 + n) * c for key, c in vol.orbits.items()}
    for (pattern, pi_exp), c in candidate.items():
        for v in set(pattern) - {0}:
            i = pattern.index(v)
            key = (pattern[:i] + pattern[i + 1:], pi_exp + v - 2)
            rest[key] = rest.get(key, 0) - c * v * (-4) ** (v // 2 - 1)
    quotient = rest.get(((2,) * n, 0), 0)
    for key, c in _boundary_product(n).items():
        rest[key] = rest.get(key, 0) - quotient * c
    defect = {key: c for key, c in rest.items() if c}
    if defect:
        raise ConsistencyError(
            "dilaton correction is not a constant", defect=Poly.from_orbits(n, defect)
        )
    constant = quotient * _HALF

    lifted_orbits = dict(candidate)
    for key, c in _boundary_product(n + 1).items():
        lifted_orbits[key] = lifted_orbits.get(key, 0) + constant * c
    lifted = VolumePolynomial(
        1, n + 1, {key: c for key, c in lifted_orbits.items() if c}
    )
    if not check_string(lifted, vol):
        raise ConsistencyError(
            "lifted genus-1 volume fails the string relation",
            defect=string_defect(lifted, vol),
        )
    if not check_dilaton(lifted, vol):
        raise ConsistencyError(
            "lifted genus-1 volume fails the dilaton relation",
            defect=dilaton_defect(lifted, vol),
        )
    return lifted, constant


def _boundary_product(m: int) -> dict:
    """prod_{j<=m} (L_j^2 + 4 pi^2) by orbit: 4^(m-s) pi^(2(m-s)) m_(2^s)."""
    return {
        ((2,) * s + (0,) * (m - s), 2 * (m - s)): Fraction(4 ** (m - s))
        for s in range(m + 1)
    }


def divide_boundary_quadratic(p: Poly, k: int) -> Poly:
    """Exact division by (L_k^2 + 4 pi^2); raises on a nonzero remainder."""
    if not 1 <= k <= p.n_vars:
        raise IndexError(f"variable index {k} out of range 1..{p.n_vars}")
    i = k - 1
    four = Fraction(4)
    work = dict(p.terms)
    quotient: dict = {}
    max_e = max((key[i] for key in work), default=0)
    for e in range(max_e, 1, -1):
        for key in [key for key in work if key[i] == e]:
            c = work.pop(key)
            qkey = key[:i] + (e - 2,) + key[i + 1:]
            prev = quotient.get(qkey)
            prev = c if prev is None else prev + c
            if prev:
                quotient[qkey] = prev
            else:
                quotient.pop(qkey, None)
            skey = qkey[:-1] + (qkey[-1] + 2,)
            s = work.get(skey)
            d = c * four
            s = -d if s is None else s - d
            if s:
                work[skey] = s
            else:
                work.pop(skey, None)
    if work:
        raise ConsistencyError(
            f"nonzero remainder dividing by (L{k}^2 + 4*pi^2)",
            defect=Poly(p.n_vars, work),
        )
    return Poly(p.n_vars, quotient)


def boundary_cofactor(vol: VolumePolynomial) -> Poly:
    """The cofactor P with V(g, 1) = (L^2 + 4 pi^2) * P, by exact division."""
    if vol.n != 1 or vol.g < 1:
        raise ValueError("boundary cofactor needs a one-boundary volume of genus >= 1")
    return divide_boundary_quadratic(vol.poly, 1)


def closed_volume(vol: VolumePolynomial) -> Poly:
    """The volume of the closed genus-g moduli space, from V(g, 1).

    Evaluates the boundary cofactor at L = 2*pi*i and divides by g - 1;
    the result is a single positive rational multiple of pi**(6g-6),
    returned as a zero-variable polynomial.  Needs g >= 2.
    """
    if vol.g < 2:
        raise ValueError("closed volume via the cofactor needs genus >= 2")
    cofactor = boundary_cofactor(vol)
    value = cofactor.eval_two_pi_i(1).drop_var(1).scale(Fraction(1, vol.g - 1))
    if len(value) != 1:
        raise ConsistencyError("closed volume is not a single rational pi power")
    return value
