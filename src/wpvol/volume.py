"""Volume polynomials of moduli spaces of bordered hyperbolic surfaces.

A genus-g surface with n geodesic boundary components has a moduli space
whose symplectic volume is a polynomial in the boundary lengths.  The
structural facts used everywhere in this package:

  * every L exponent is even (the volume is a polynomial in the L_k**2),
  * the polynomial is symmetric under relabeling of the boundaries,
  * it is homogeneous of total degree 6g - 6 + 2n once deg pi = deg L = 1,
  * every coefficient, a positive multiple of a psi/kappa_1 number, is
    positive: every orbit of n even L exponents with sum <= 6g-6+2n is present.

Coefficients are plain rationals (times the pi power), so realness needs no
check: the coefficient type guarantees it.

``VolumePolynomial`` holds the canonical form of a volume, its coefficients
by symmetry orbit: ``{(L exponents sorted descending, pi exponent): c}``.
Symmetry holds by construction, and ``validate`` checks the rest on the orbit
map alone.  ``poly``, the text form, is a ``Poly`` on the same orbits, built
on first use for printing; it renders by the orbit walk, never lists the
monomials, and keeps its ``str`` and LaTeX once printed, as long as the
volume lives, but not the walk.  Every produced volume is validated once, by ``VolumeStore.put``
before anyone can read it, and every stored one as ``store`` parses it.  A
convention or arithmetic slip anywhere in a recursion therefore surfaces as
an ``InvariantError``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property

from .poly import Poly


class VolumeError(Exception):
    """Base class for volume computation failures."""


class InvariantError(VolumeError):
    """A polynomial violates the structural invariants for its (g, n)."""


class UnstableSurfaceError(VolumeError):
    """Raised for (g, n) with 2g - 2 + n <= 0, where no moduli space exists."""


class ConsistencyError(VolumeError):
    """An exact step of a recursion failed: a division left a remainder, a
    correction was not a constant, or one orbit got two coefficients.

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


class VolumePolynomial:
    """A volume polynomial by symmetry orbit, tagged with (g, n).

    A read-only value: assigning or deleting an attribute raises
    AttributeError, ``==`` compares (g, n, orbits), and the dict of orbits
    makes it unhashable.  Written by hand, not as a frozen dataclass, so
    that the CLI does not pay for importing ``dataclasses`` at every start.
    """

    __hash__ = None

    def __init__(self, g: int, n: int, orbits: dict) -> None:
        self.__dict__.update(g=g, n=n, orbits=orbits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to VolumePolynomial.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete VolumePolynomial.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.g, self.n, self.orbits) == (other.g, other.n, other.orbits)

    def __repr__(self) -> str:
        return f"VolumePolynomial(g={self.g!r}, n={self.n!r}, orbits={self.orbits!r})"

    @cached_property
    def poly(self) -> Poly:
        """The text form, built on first use: it prints by the orbit walk and
        keeps each text it prints, as long as this volume lives."""
        return Poly(self.n, self.orbits)

    @property
    def dimension(self) -> int:
        """Complex dimension 3g - 3 + n of the moduli space."""
        return 3 * self.g - 3 + self.n

    @property
    def degree(self) -> int:
        """Homogeneous total degree 6g - 6 + 2n."""
        return 6 * self.g - 6 + 2 * self.n

    def validate(self) -> None:
        g, n, orbits, degree = self.g, self.n, self.orbits, self.degree
        require_stable(g, n)
        numerators = [c.numerator for c in orbits.values()]
        checks = (
            ({len(p) for p, _ in orbits} <= {n}, f"orbit key without {n} L exponents"),
            (all(p == tuple(sorted(p, reverse=True)) for p, _ in orbits),
             "orbit key not sorted descending"),
            (all(e % 2 == 0 for e in {e for p, _ in orbits for e in p}), "odd L exponent present"),
            ({sum(p) + q for p, q in orbits} <= {degree}, f"not homogeneous of degree {degree}"),
            (all(numerators), "zero coefficient stored"),
            (min(numerators, default=0) >= 0, "negative coefficient stored"),
            # V(g, n)(0) is the Weil-Petersson volume of M(g, n)
            (orbits.get(((0,) * n, degree), 0) > 0, "constant term is not positive"),
            (len(orbits) == (count := admissible_orbits(n, self.dimension)),
             f"orbit count {len(orbits)} is not {count}"),
        )
        problems = [message for ok, message in checks if not ok]
        if problems:
            raise InvariantError(f"V({g},{n}) invariant failure: " + "; ".join(problems))


@cache
def admissible_orbits(n: int, top: int) -> int:
    """The orbit keys of a volume with n boundaries and dimension top (multisets
    of n halves of L exponents, sum <= top): partitions of top into 1..n, 1'."""
    ways = [1] * (top + 1)  # the part 1' alone
    for part in range(1, n + 1):
        for s in range(part, top + 1):
            ways[s] += ways[s - part]
    return ways[top]


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
