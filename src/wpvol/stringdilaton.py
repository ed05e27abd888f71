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
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .symmetric import stratified_lift
from .volume import ConsistencyError, VolumePolynomial

_HALF = Fraction(1, 2)


def string_rhs(vol: VolumePolynomial) -> Poly:
    """sum_k of the integral from 0 to L_k of L_k * V, an n-variable polynomial.

    Equals the one-more-boundary volume evaluated at L_{n+1} = 2*pi*i.
    """
    p = vol.poly
    total = Poly.zero(p.n_vars)
    for k in range(1, p.n_vars + 1):
        total = total + (Poly.var(p.n_vars, k) * p).integrate_from_zero(k)
    return total


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
    rhs = string_rhs(smaller).embed(m)
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


def euler_field(vol: VolumePolynomial) -> Poly:
    return euler_poly(vol.poly)


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
    lifted = VolumePolynomial.checked(0, vol.n + 1, candidate)
    if not check_string(lifted, vol):
        raise ConsistencyError(
            "lifted genus-0 volume fails the string relation",
            defect=string_defect(lifted, vol),
        )
    return lifted


def genus1_lift(vol: VolumePolynomial) -> tuple[VolumePolynomial, Fraction]:
    """The next genus-1 volume and the correction constant: V(1, n) -> V(1, n+1).

    Here the squared degree equals the variable count, so the lift only pins
    the volume up to a rational multiple of prod_j (L_j^2 + 4 pi^2) over all
    n+1 variables; the dilaton relation determines that constant.
    """
    if vol.g != 1 or vol.n < 1:
        raise ValueError("genus1_lift needs a genus-1 volume with n >= 1")
    n = vol.n
    _, candidate = stratified_lift(string_rhs(vol), n + 1)

    # W(L, 2*pi*i) of the candidate, the left side of the dilaton relation
    w = candidate.ddx(n + 1).divide_by_var(n + 1)
    residue = w.eval_two_pi_i(n + 1).drop_var(n + 1)
    numerator = vol.poly.scale(2 * vol.g - 2 + vol.n) - residue
    quotient = numerator
    for j in range(1, n + 1):
        quotient = divide_boundary_quadratic(quotient, j)
    if quotient.l_degree() > 0 or quotient.total_degree() > 0:
        raise ConsistencyError(
            "dilaton correction is not a constant", defect=quotient
        )
    constant = quotient.coeff_monomial((0,) * n, 0) * _HALF

    correction = Poly.one(n + 1)
    for j in range(1, n + 1 + 1):
        correction = correction * (
            Poly.var(n + 1, j, 2) + Poly.pi(n + 1, 2).scale(4)
        )
    lifted_poly = candidate + correction.scale(constant)
    lifted = VolumePolynomial.checked(1, n + 1, lifted_poly)
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
