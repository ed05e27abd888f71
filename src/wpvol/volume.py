"""Volume polynomials of moduli spaces of bordered hyperbolic surfaces.

A genus-g surface with n geodesic boundary components has a moduli space
whose symplectic volume is a polynomial in the boundary lengths.  The
structural facts used everywhere in this package:

  * every L exponent is even (the volume is a polynomial in the L_k**2),
  * the polynomial is symmetric under relabeling of the boundaries,
  * it is homogeneous of total degree 6g - 6 + 2n once deg pi = deg L = 1.

Coefficients are plain rationals (times the pi power), so realness needs no
check: the coefficient type guarantees it.

``VolumePolynomial`` holds the canonical form of a volume, its coefficients
by symmetry orbit: ``{(L exponents sorted descending, pi exponent): c}``.
Symmetry holds by construction, and ``validate`` checks the rest on the
orbit keys alone.  ``poly``, the dense view, is built on first use for
rendering, export and the relation checks.  Every produced volume is
validated once, by ``VolumeStore.put`` before anyone can read it; dense
input (a cache document, a test polynomial) enters through ``checked``,
which also rejects an asymmetric polynomial.  A convention or arithmetic
slip anywhere in a recursion therefore surfaces as an ``InvariantError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    """A volume polynomial by symmetry orbit, tagged with (g, n)."""

    g: int
    n: int
    orbits: dict

    @cached_property
    def poly(self) -> Poly:
        """The dense view: every monomial of every orbit."""
        return Poly.from_orbits(self.n, self.orbits)

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
        keys = list(self.orbits)
        checks = (
            (all(len(p) == self.n for p, _ in keys),
             f"orbit key without {self.n} L exponents"),
            (all(all(a >= b for a, b in zip(p, p[1:])) for p, _ in keys),
             "orbit key not sorted descending"),
            (all(e % 2 == 0 for p, _ in keys for e in p), "odd L exponent present"),
            (all(sum(p) + q == self.degree for p, q in keys),
             f"not homogeneous of degree {self.degree}"),
            (all(self.orbits.values()), "zero coefficient stored"),
        )
        problems = [message for ok, message in checks if not ok]
        if problems:
            raise InvariantError(
                f"V({self.g},{self.n}) invariant failure: " + "; ".join(problems)
            )

    @classmethod
    def checked(cls, g: int, n: int, poly: Poly) -> "VolumePolynomial":
        """Validate dense input and keep it as the dense view."""
        if poly.n_vars != n:
            raise InvariantError(
                f"V({g},{n}) invariant failure: polynomial has {poly.n_vars} "
                f"variables, expected {n}"
            )
        try:
            orbits = poly.orbit_coefficients()
        except ValueError as exc:
            raise InvariantError(f"V({g},{n}) invariant failure: {exc}") from exc
        vol = cls(g, n, orbits)
        vol.validate()
        vol.__dict__["poly"] = poly
        return vol


def seed_volume(g: int, n: int) -> VolumePolynomial:
    """The two base volumes every recursion starts from.

    The thrice-holed sphere has a one-point moduli space, so its volume is 1.
    The one-holed torus volume uses the orbifold convention, half the naive
    integral:  V(1,1) = (L1^2 + 4 pi^2) / 48.
    """
    if (g, n) == (0, 3):
        return VolumePolynomial(0, 3, {((0, 0, 0), 0): Fraction(1)})
    if (g, n) == (1, 1):
        return VolumePolynomial(
            1, 1, {((2,), 0): Fraction(1, 48), ((0,), 2): Fraction(1, 12)}
        )
    raise ValueError(f"({g}, {n}) is not a base case")


SEED_KEYS = ((0, 3), (1, 1))


def is_seed(g: int, n: int) -> bool:
    return (g, n) in SEED_KEYS
