"""The specialization at 2*pi*i and pi-stratified reconstruction, which
extends a symmetric polynomial by one variable.

Both work on symmetric polynomials by orbit, ``{(pattern, pi_exp): c}``
with ``pattern`` the L exponents sorted descending (see ``poly``) and c a
Fraction or an int, which comes out as it went in (the lift's numerators).

``at_two_pi_i`` evaluates a polynomial or its first or second derivative at
2*pi*i: the dilaton step of a lift, the relation checks and the closed volume.

``stratified_lift`` rebuilds a symmetric, even, homogeneous polynomial V in
n+1 variables of total degree 2D from its evaluation E = V(L1,...,Ln, 2*pi*i),
peeling one pi stratum at a time: the pi**2k layer of the residual, a copy of
E filed once by pi exponent, is exactly stratum k restricted to L_{n+1} = 0,
so lift it and subtract in place each part of its evaluation with a nonzero
power v of L_{n+1} from layer 2k + v (the v = 0 part is the layer itself).
"""

from __future__ import annotations

from .poly import Poly


class LiftError(Exception):
    """The lift input is malformed or inconsistent with its claimed shape."""

    def __init__(self, message: str, residual: dict | None = None):
        super().__init__(message)
        self.residual = residual

    @property
    def defect(self) -> Poly | None:
        """The residual as a polynomial in the variable count of its patterns."""
        if self.residual:
            return Poly(len(next(iter(self.residual))[0]), self.residual)


def at_two_pi_i(orbits: dict, derivatives: int = 0) -> dict:
    """Set the last of n+1 variables to 2*pi*i, by orbit in n variables.

    ``derivatives`` (0, 1 or 2) differentiates in it first; one derivative
    is also divided by it, the real form (dV/dL)/L of the dilaton relation.
    Each distinct exponent v of a pattern leaves the pattern without v, the
    coefficient times (2*pi*i)**v = (-4)**(v/2) * pi**v, or after one or two
    derivatives v or v*(v-1) times (2*pi*i)**(v-2), a weight computed once
    per distinct v.  Odd v raise ValueError.
    """
    drop = 2 if derivatives else 0
    weights: dict = {}
    out: dict = {}
    for (pattern, pi_exp), c in orbits.items():
        for v in set(pattern):
            if v & 1:
                raise ValueError(f"odd power L^{v} has no real value at 2*pi*i")
            if v < drop:
                continue
            weight = weights.get(v)
            if weight is None:
                weight = weights[v] = (1, v, v * (v - 1))[derivatives] * (-4) ** ((v - drop) >> 1)
            i = pattern.index(v)
            key = (pattern[:i] + pattern[i + 1:], pi_exp + v - drop)
            out[key] = out.get(key, 0) + c * weight
    return {key: c for key, c in out.items() if c}


def add(a: dict, b: dict, scale=1) -> dict:
    """a + scale * b, by orbit, with zero coefficients dropped."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


def stratified_lift(evaluation: dict, target_half_degree: int) -> tuple[list[dict], dict]:
    """Reconstruct V in n+1 variables, by orbit, from V(L1..Ln, 2*pi*i).

    ``evaluation`` is by orbit in n variables; the unknown V is symmetric,
    even and homogeneous of total degree ``2 * target_half_degree``.
    Returns the strata, V = sum_k pi**2k * strata[k] with ``strata[k]``
    pi-free and homogeneous in L of degree 2*(D - k), by orbit, and the
    reassembled candidate, whose evaluation at L_{n+1} = 2*pi*i is
    ``evaluation`` exactly.  When the squared degree of V reaches n+1 the
    candidate is the representative with no all-variable orbit; callers
    needing a different representative add a correction downstream.

    Each stratum extends by a zero exponent appended to every pattern: two
    extensions restricting to it at L_{n+1} = 0 differ by a multiple of
    L1...L_{n+1}, so the one with no all-variable orbit is unique.  Its
    evaluation is subtracted here, not by ``at_two_pi_i``.  An odd L
    exponent, an inhomogeneous stratum or a nonzero residual raises LiftError.
    """
    D = target_half_degree
    if D < 0:
        raise ValueError("target half degree must be nonnegative")
    layers: dict = {}  # the residual by pi exponent; ``evaluation`` is left as given
    for (pattern, pi_exp), c in evaluation.items():
        layers.setdefault(pi_exp, {})[pattern] = c
    weights: dict = {}  # (2*pi*i)**v / pi**v by v
    strata, total = [], {}
    for k in range(D + 1):
        layer = {p: c for p, c in layers.get(2 * k, {}).items() if c}
        if any(sum(p) != 2 * (D - k) for p in layer):
            raise LiftError(
                f"stratum {k} is not homogeneous of degree {2 * (D - k)}",
                residual=_nonzero(layers),
            )
        if any(e % 2 for p in layer for e in p):
            raise LiftError("lift input has an odd L exponent")
        layers.pop(2 * k, None)
        strata.append({(p + (0,), 0): c for p, c in layer.items()})
        total.update({(p + (0,), 2 * k): c for p, c in layer.items()})
        for p, c in layer.items():
            for v in set(p):
                if v > 0:
                    weight = weights.get(v) or weights.setdefault(v, (-4) ** (v >> 1))
                    i = p.index(v)
                    bucket = layers.setdefault(2 * k + v, {})
                    key = p[:i] + p[i + 1:] + (0,)
                    bucket[key] = bucket.get(key, 0) - c * weight
    residual = _nonzero(layers)
    if residual:
        raise LiftError(
            "nonzero residual: the input is not the evaluation of any "
            "symmetric even homogeneous polynomial of this degree",
            residual=residual,
        )
    return strata, total


def _nonzero(layers: dict) -> dict:
    """The filed residual by orbit, zero coefficients dropped."""
    return {(p, e): c for e, layer in layers.items() for p, c in layer.items() if c}
