"""Volume polynomials of moduli spaces of bordered hyperbolic surfaces.

A genus-g surface with n geodesic boundary components has a moduli space
whose symplectic volume is a polynomial in the boundary lengths.  The
structural facts used everywhere in this package:

  * every L exponent is even (the volume is a polynomial in the L_k**2),
  * the polynomial is symmetric under relabeling of the boundaries,
  * it is homogeneous of total degree 6g - 6 + 2n once deg pi = deg L = 1.

Coefficients are plain rationals (times the pi power), so realness needs no
check: the coefficient type guarantees it.

``VolumePolynomial`` is a plain wrapper; ``validate``/``checked`` enforce
the invariants.  Production code always goes through ``checked`` so that a
convention or arithmetic slip anywhere in a recursion surfaces immediately
as an ``InvariantError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly


class VolumeError(Exception):
    """Base class for volume computation failures."""


class InvariantError(VolumeError):
    """A polynomial violates the structural invariants for its (g, n)."""


class UnstableSurfaceError(VolumeError):
    """Raised for (g, n) with 2g - 2 + n <= 0, where no moduli space exists."""


class ConsistencyError(VolumeError):
    """Two computation paths disagree, or an exact division left a remainder.

    Carries the difference polynomial when one is available.
    """

    def __init__(self, message: str, defect: Poly | None = None):
        super().__init__(message)
        self.defect = defect


def is_stable(g: int, n: int) -> bool:
    return g >= 0 and n >= 0 and 2 * g - 2 + n > 0


def require_stable(g: int, n: int) -> None:
    if not is_stable(g, n):
        raise UnstableSurfaceError(f"(g, n) = ({g}, {n}) is not stable")


@dataclass(frozen=True)
class VolumePolynomial:
    """A volume polynomial tagged with its genus and boundary count."""

    g: int
    n: int
    poly: Poly

    @property
    def dimension(self) -> int:
        """Complex dimension 3g - 3 + n of the moduli space."""
        return 3 * self.g - 3 + self.n

    @property
    def degree(self) -> int:
        """Homogeneous total degree 6g - 6 + 2n."""
        return 6 * self.g - 6 + 2 * self.n

    def validate(self) -> None:
        require_stable(self.g, self.n)
        problems = []
        if self.poly.n_vars != self.n:
            problems.append(
                f"polynomial has {self.poly.n_vars} variables, expected {self.n}"
            )
        else:
            if not self.poly.has_even_l_exponents():
                problems.append("odd L exponent present")
            if not self.poly.is_homogeneous(self.degree):
                problems.append(f"not homogeneous of degree {self.degree}")
            if not self.poly.is_symmetric():
                problems.append("not symmetric in the boundary variables")
        if problems:
            raise InvariantError(
                f"V({self.g},{self.n}) invariant failure: " + "; ".join(problems)
            )

    @classmethod
    def checked(cls, g: int, n: int, poly: Poly) -> "VolumePolynomial":
        vp = cls(g, n, poly)
        vp.validate()
        return vp


def seed_volume(g: int, n: int) -> VolumePolynomial:
    """The two base volumes every recursion starts from.

    The thrice-holed sphere has a one-point moduli space, so its volume is 1.
    The one-holed torus volume uses the orbifold convention, half the naive
    integral:  V(1,1) = (L1^2 + 4 pi^2) / 48.
    """
    if (g, n) == (0, 3):
        return VolumePolynomial(0, 3, Poly.one(3))
    if (g, n) == (1, 1):
        poly = Poly.from_terms(
            1, {(2, 0): Fraction(1, 48), (0, 2): Fraction(1, 12)}
        )
        return VolumePolynomial(1, 1, poly)
    raise ValueError(f"({g}, {n}) is not a base case")


SEED_KEYS = ((0, 3), (1, 1))


def is_seed(g: int, n: int) -> bool:
    return (g, n) in SEED_KEYS
