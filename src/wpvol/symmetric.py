"""Symmetric extension by one variable and pi-stratified reconstruction.

Both work on symmetric polynomials by orbit, ``{(pattern, pi_exp): c}``
with ``pattern`` the L exponents sorted descending (see ``poly``).

``sym_lift_zero`` solves: given a symmetric polynomial f in n variables
with even L exponents, produce the symmetric polynomial S in n+1 variables
that restricts to f at L_{n+1} = 0 and carries no monomial involving all
n+1 variables.  Those two conditions pin S down uniquely: two candidates
differ by a symmetric polynomial vanishing at L_{n+1} = 0, hence divisible
by the product of all variables, and the no-all-variables condition kills
that difference.  When the degree of f in the squared variables is below
n+1 the extension of that degree is unique outright and the convention is
vacuous.  On orbits the lift appends a zero exponent to every pattern,
which is the closed form of the 2**n inclusion-exclusion sum over subsets
of zeroed variables.

``stratified_lift`` rebuilds a symmetric, even, homogeneous polynomial V in
n+1 variables of total degree 2D from its evaluation E = V(L1,...,Ln, 2*pi*i),
peeling one pi stratum at a time: the pi**2k coefficient of the running
residual is exactly stratum k restricted to L_{n+1} = 0, so lift it, subtract
its own evaluation, and continue.  A nonzero final residual means E is not
such an evaluation.  At L_{n+1} = 2*pi*i an orbit splits by the exponent v
its last slot takes: each distinct v of the pattern leaves the pattern
without v, times (2*pi*i)**v = (-4)**(v/2) * pi**v.
"""

from __future__ import annotations

from dataclasses import dataclass


class LiftError(Exception):
    """The lift input is malformed or inconsistent with its claimed shape."""

    def __init__(self, message: str, residual: dict | None = None):
        super().__init__(message)
        self.residual = residual


def sym_lift_zero(orbits: dict) -> dict:
    """Extend a symmetric even polynomial from n to n+1 variables, by orbit.

    Raises LiftError if an L exponent is odd.
    """
    if any(e % 2 for pattern, _ in orbits for e in pattern):
        raise LiftError("lift input has an odd L exponent")
    return {(pattern + (0,), pi_exp): c for (pattern, pi_exp), c in orbits.items()}


@dataclass(frozen=True)
class Stratum:
    """One pi stratum of a reconstruction: V = sum_k pi**2k * w_k.

    ``w`` is pi-free and homogeneous in L of degree 2*(D - k), by orbit.
    """

    k: int
    w: dict


def stratified_lift(evaluation: dict, target_half_degree: int) -> tuple[list[Stratum], dict]:
    """Reconstruct V in n+1 variables, by orbit, from V(L1..Ln, 2*pi*i).

    ``evaluation`` is by orbit in n variables; the unknown V is symmetric,
    even and homogeneous of total degree ``2 * target_half_degree``.
    Returns the strata and the reassembled candidate, whose evaluation at
    L_{n+1} = 2*pi*i is ``evaluation`` exactly.  When the squared degree of
    V reaches n+1 the candidate is the representative with no all-variable
    orbit; callers needing a different representative add a correction
    downstream.
    """
    D = target_half_degree
    if D < 0:
        raise ValueError("target half degree must be nonnegative")
    residual = dict(evaluation)
    strata: list[Stratum] = []
    total: dict = {}
    for k in range(D + 1):
        layer = {(p, 0): c for (p, pi_exp), c in residual.items() if pi_exp == 2 * k}
        if any(sum(p) != 2 * (D - k) for p, _ in layer):
            raise LiftError(
                f"stratum {k} is not homogeneous of degree {2 * (D - k)}",
                residual=residual,
            )
        w = sym_lift_zero(layer)
        strata.append(Stratum(k, w))
        for (pattern, _), c in w.items():
            total[(pattern, 2 * k)] = c
            for v in set(pattern):
                i = pattern.index(v)
                key = (pattern[:i] + pattern[i + 1:], 2 * k + v)
                residual[key] = residual.get(key, 0) - c * (-4) ** (v // 2)
        residual = {key: c for key, c in residual.items() if c}
    if residual:
        raise LiftError(
            "nonzero residual: the input is not the evaluation of any "
            "symmetric even homogeneous polynomial of this degree",
            residual=residual,
        )
    return strata, total
