"""Volume recursions through the boundary specialization L = 2*pi*i.

Setting one boundary length to 2*pi*i turns the volume of the (n+1)-holed
surface into data of the n-holed one:

  string:   V(g, n+1)(L, 2*pi*i) = sum_k  integral_0^{L_k} L_k V(g, n) dL_k
  dilaton:  W(L, 2*pi*i) = (2g - 2 + n) * V(g, n)

where W = (dV(g, n+1)/dL_{n+1}) / L_{n+1}.  The dilaton relation is usually
written dV/dL_{n+1} (L, 2*pi*i) = 2*pi*i * (2g - 2 + n) * V(g, n); dividing
both sides by L_{n+1} = 2*pi*i gives the form above.  Because every volume
is even in each L_k, W is even too, so both sides are real and every
computation here stays over the rationals.  At n = 0 they read
V(g, 1)(2*pi*i) = 0 and W(2*pi*i) = (2g - 2) * V(g, 0), which is how
``closed_volume`` gets the closed volume.

Together with the stratified lift these generate all genus 0 and genus 1
volumes from the two seeds, one step of ``lift`` at a time.  The second
derivative satisfies

  d2 V(g, n+1)/dL_{n+1}^2 (L, 2*pi*i) = E.V(g, n) - (4g - 4 + n) V(g, n)

with E the Euler vector field sum L_j d/dL_j, which scales an orbit by the
sum of its pattern.  ``relation_defect`` returns the orbit difference of
any of the three relations, empty iff it holds.  ``lift`` needs no
re-check: ``stratified_lift`` returns only on a zero residual, which is
the string relation, and the dilaton step, run at both genera, raises
unless its correction cancels the dilaton defect.

Arithmetic.  ``lift`` and ``relation_defect`` run on int, over one
denominator per step: den = 2 * D * L, with D the LCD of V(g, n) and L the
lcm of its string weights v + 2.  Every numerator of V over den is then a
multiple of 2L, so ``string_rhs`` divides by v + 2 exactly, and the dilaton
constant, half of -(2g - 2 + n) times such a numerator, is an integer.  One
Fraction is built per orbit of a result or of a defect, and none per term.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Poly
from .symmetric import LiftError, add, at_two_pi_i, stratified_lift
from .volume import ConsistencyError, VolumePolynomial, is_stable

NONZERO_REMAINDER = "nonzero remainder dividing by (L1^2 + 4*pi^2)"


def _numerators(vol: VolumePolynomial) -> tuple[int, dict]:
    """(den, V's integer numerators over den), den = 2 * D * L (module docstring)."""
    weights = {v + 2 for pattern, _ in vol.orbits for v in pattern}
    den = 2 * math.lcm(*(c.denominator for c in vol.orbits.values())) * math.lcm(*weights)
    return den, {key: c.numerator * (den // c.denominator) for key, c in vol.orbits.items()}


def _over(numerators: dict, den: int) -> dict:
    """The rational orbits of integer numerators over den: one Fraction each."""
    return {key: Fraction(c, den) for key, c in numerators.items()}


def string_rhs(vol: VolumePolynomial, step: tuple[int, dict] | None = None) -> tuple[int, dict]:
    """sum_k of the integral from 0 to L_k of L_k * V, by orbit in n variables,
    as (den, integer numerators over den); ``step`` is ``_numerators(vol)``.

    Equals the one-more-boundary volume evaluated at L_{n+1} = 2*pi*i, the
    relation ``stratified_lift`` inverts.  The integral raises one exponent
    v to v + 2 and divides by v + 2; on orbits, raising one copy of v
    reaches each monomial of the target orbit once per slot holding v + 2.
    The exponents are even, so raising the first copy keeps the pattern
    descending, and the target holds one more v + 2 than the pattern.
    """
    den, numerators = step or _numerators(vol)
    out: dict = {}
    for (pattern, pi_exp), c in numerators.items():
        for v in set(pattern):
            i = pattern.index(v)
            key = (pattern[:i] + (v + 2,) + pattern[i + 1:], pi_exp)
            out[key] = out.get(key, 0) + c // (v + 2) * (pattern.count(v + 2) + 1)
    return den, {key: c for key, c in out.items() if c}


def _defect(bigger: dict, smaller: VolumePolynomial, step: tuple, order: int, den: int) -> dict:
    """``relation_defect`` on numerators over den, a multiple of step's denominator."""
    g, n = smaller.g, smaller.n
    step_den, rhs = string_rhs(smaller, step) if order == 0 else step
    if order:
        rhs = {(p, q): (2 * g - 2 + n if order == 1 else sum(p) - 4 * g + 4 - n) * c
               for (p, q), c in rhs.items()}
    return add(at_two_pi_i(bigger, order), rhs, -(den // step_den))


def relation_defect(bigger: VolumePolynomial, smaller: VolumePolynomial, order: int) -> dict:
    """LHS minus RHS, by orbit in n variables, of the relation with ``order``
    derivatives in L_{n+1}: 0 string, 1 dilaton (real form), 2 second
    derivative.  Empty iff the relation holds."""
    g, n = smaller.g, smaller.n
    if bigger.g != g or bigger.n != n + 1:
        raise ValueError(
            f"expected (g, n+1) against (g, n), got ({bigger.g},{bigger.n}) and ({g},{n})"
        )
    step = _numerators(smaller)
    den = math.lcm(step[0], *(c.denominator for c in bigger.orbits.values()))
    numerators = {key: c.numerator * (den // c.denominator) for key, c in bigger.orbits.items()}
    return _over(_defect(numerators, smaller, step, order, den), den)


def lift(vol: VolumePolynomial) -> VolumePolynomial:
    """The next volume of genus 0 or 1: V(g, n) -> V(g, n+1).

    The string relation gives V(g, n+1) at L_{n+1} = 2*pi*i, and the
    stratified lift rebuilds it from there up to a symmetric polynomial
    vanishing at that point: P_{n+1} = prod_{j<=n+1} (L_j^2 + 4 pi^2) times
    one of squared degree 3g - 3, so c * P_{n+1} with c constant at genus 1
    and nothing at genus 0.  The correction adds 2c * P_n to W(L, 2*pi*i),
    so the dilaton relation holds only if the candidate's dilaton defect is
    exactly -2c * P_n; c is read off its all-variable orbit.  At genus 0,
    where c is 0, this step only checks the relation.
    """
    g, n = vol.g, vol.n
    if g > 1 or not is_stable(g, n):
        raise ValueError("lift needs a stable volume of genus 0 or 1")
    step = _numerators(vol)
    den, rhs = string_rhs(vol, step)
    try:
        _, candidate = stratified_lift(rhs, 3 * g - 2 + n)
    except LiftError as exc:
        exc.residual = exc.residual and _over(exc.residual, den)
        raise
    defect = _defect(candidate, vol, step, 1, den)
    # -(2g - 2 + n) times an even numerator: the candidate has no all-variable orbit
    constant = -defect.get(((2,) * n, 0), 0) // 2
    rest = add(defect, _boundary_product(n), 2 * constant)
    if rest:
        raise ConsistencyError("dilaton correction is not a constant", Poly(n, _over(rest, den)))
    out = add(candidate, _boundary_product(n + 1), constant)
    return VolumePolynomial(g, n + 1, _over(out, den))


def _boundary_product(m: int) -> dict:
    """prod_{j<=m} (L_j^2 + 4 pi^2) by orbit: 4^(m-s) pi^(2(m-s)) m_(2^s)."""
    return {((2,) * s + (0,) * (m - s), 2 * (m - s)): 4 ** (m - s) for s in range(m + 1)}


def closed_volume(vol: VolumePolynomial) -> VolumePolynomial:
    """The volume of the closed genus-g moduli space, from V(g, 1).

    The string relation at n = 0 says V(g, 1) vanishes at L = 2*pi*i, so it
    is divisible by L^2 + 4 pi^2; the dilaton relation at n = 0 gives
    W(2*pi*i) = (2g - 2) * V(g, 0).  The result is a single positive
    rational multiple of pi**(6g-6).  Needs n = 1 and g >= 2.
    """
    if vol.n != 1 or vol.g < 2:
        raise ValueError("closed volume needs a one-boundary volume of genus >= 2")
    remainder = at_two_pi_i(vol.orbits)
    if remainder:
        # the remainder holds no L; it is printed as a polynomial in L1
        defect = Poly(1, {((0,), p): c for (_, p), c in remainder.items()})
        raise ConsistencyError(NONZERO_REMAINDER, defect=defect)
    value = at_two_pi_i(vol.orbits, 1)
    if len(value) != 1:
        raise ConsistencyError("closed volume is not a single rational pi power")
    return VolumePolynomial(vol.g, 0, {key: c / (2 * vol.g - 2) for key, c in value.items()})
