"""Exact sparse polynomial arithmetic in boundary lengths L1..Ln and a formal pi.

Coefficients are exact rationals (``fractions.Fraction``).  Volumes are even
in every L_k, so substituting L_k = 2*pi*i turns each L_k**(2j) into the real
(-4*pi**2)**j and no complex number is ever needed.  The symbol pi is never a
float: it is carried as an extra exponent slot on every monomial, so the
pi-grading of a polynomial can be inspected and compared exactly.

Representation.  A polynomial in ``n_vars`` variables is a term map

    {exponents: coefficient}

where ``exponents`` is a tuple of length ``n_vars + 1``.  Entries
``0 .. n_vars-1`` are the exponents of L1..Ln and the last entry is the
exponent of pi.  Zero coefficients are never stored, so two polynomials are
equal iff their term maps are equal.  Variable indices in the public API are
1-based, matching the L1..Ln naming used everywhere else.

Symmetric polynomials, volumes among them, are stored elsewhere by symmetry
orbit, ``{(L exponents sorted descending, pi exponent): coefficient}``.
``orbit_coefficients`` and ``from_orbits`` convert between the two forms.

All values are immutable after construction and every operation returns a
fresh polynomial, so values can be shared freely between threads.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator

_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as a polynomial coefficient")


class Poly:
    """Sparse exact polynomial in L1..Ln and pi.

    ``terms`` maps exponent tuples (length ``n_vars + 1``, pi last) to
    nonzero Fraction coefficients.  The constructor takes ownership
    of the dict and trusts it to be canonical; use the classmethod builders
    or ``from_terms`` to construct values safely.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: dict | None = None):
        self.n_vars = n_vars
        self.terms = terms if terms is not None else {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def zero(cls, n_vars: int) -> "Poly":
        return cls(n_vars, {})

    @classmethod
    def const(cls, n_vars: int, value) -> "Poly":
        c = _as_coeff(value)
        if not c:
            return cls(n_vars, {})
        return cls(n_vars, {(0,) * (n_vars + 1): c})

    @classmethod
    def one(cls, n_vars: int) -> "Poly":
        return cls.const(n_vars, 1)

    @classmethod
    def var(cls, n_vars: int, k: int, power: int = 1) -> "Poly":
        """The monomial L_k**power (k is 1-based)."""
        if not 1 <= k <= n_vars:
            raise IndexError(f"variable index {k} out of range 1..{n_vars}")
        key = [0] * (n_vars + 1)
        key[k - 1] = power
        return cls(n_vars, {tuple(key): _F1})

    @classmethod
    def pi(cls, n_vars: int, power: int = 1) -> "Poly":
        """The monomial pi**power."""
        key = (0,) * n_vars + (power,)
        return cls(n_vars, {key: _F1})

    @classmethod
    def from_terms(cls, n_vars: int, items: dict | Iterable) -> "Poly":
        """Build from ``{exponent tuple: coefficient}``; drops zeros, copies."""
        pairs = items.items() if isinstance(items, dict) else items
        terms = {}
        for key, value in pairs:
            key = tuple(key)
            if len(key) != n_vars + 1 or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {key} for n_vars={n_vars}")
            c = _as_coeff(value)
            if c:
                terms[key] = terms.get(key, _F0) + c
        return cls(n_vars, {k: v for k, v in terms.items() if v})

    @classmethod
    def from_orbits(cls, n_vars: int, orbits: dict) -> "Poly":
        """Expand ``{(pattern, pi_exp): coefficient}`` over symmetry orbits.

        Each pattern holds the ``n_vars`` L exponents of the orbit; every
        distinct rearrangement becomes one monomial with the orbit's
        coefficient.  Inverse of ``orbit_coefficients``.
        """
        terms = {}
        for (pattern, pi_exp), c in orbits.items():
            for arrangement in arrangements(pattern):
                terms[arrangement + (pi_exp,)] = c
        return cls(n_vars, terms)

    # ------------------------------------------------------------------
    # predicates and inspection

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n_vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def coeff_monomial(self, l_exps: Iterable[int], pi_exp: int = 0) -> Fraction:
        key = tuple(l_exps) + (pi_exp,)
        return self.terms.get(key, _F0)

    def l_degree(self) -> int:
        """Max over terms of the sum of L exponents alone; -1 if zero."""
        if not self.terms:
            return -1
        return max(sum(key[:-1]) for key in self.terms)

    def is_homogeneous(self, degree: int) -> bool:
        """True iff every term has total degree (L exponents plus pi) equal."""
        return all(sum(key) == degree for key in self.terms)

    def has_even_l_exponents(self) -> bool:
        return all(all(e % 2 == 0 for e in key[:-1]) for key in self.terms)

    def orbit_coefficients(self) -> dict:
        """Coefficients by symmetry orbit, or raise ValueError if asymmetric.

        The orbit of a monomial under permutations of L1..Ln is identified by
        its sorted exponent pattern together with the pi exponent.  For a
        symmetric polynomial every orbit is fully present with one shared
        coefficient; returns {(pattern, pi_exp): coefficient}.
        """
        n = self.n_vars
        groups: dict = {}
        for key, c in self.terms.items():
            sig = (tuple(sorted(key[:-1], reverse=True)), key[-1])
            entry = groups.get(sig)
            if entry is None:
                groups[sig] = [1, c]
            else:
                entry[0] += 1
                if entry[1] != c:
                    raise ValueError(
                        f"not symmetric: orbit {sig} carries distinct coefficients"
                    )
        out = {}
        for (pattern, pi_exp), (count, c) in groups.items():
            expected = _arrangement_count(pattern, n)
            if count != expected:
                raise ValueError(
                    f"not symmetric: orbit {(pattern, pi_exp)} has {count} of "
                    f"{expected} monomials"
                )
            out[(pattern, pi_exp)] = c
        return out

    def is_symmetric(self) -> bool:
        """True iff invariant under every permutation of L1..Ln."""
        if self.n_vars <= 1:
            return True
        try:
            self.orbit_coefficients()
        except ValueError:
            return False
        return True

    # ------------------------------------------------------------------
    # ring operations

    def _check_arity(self, other: "Poly") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError(
                f"mismatched variable counts {self.n_vars} != {other.n_vars}"
            )

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n_vars, other)
        self._check_arity(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Poly(self.n_vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.n_vars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n_vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_arity(other)
        out: dict = {}
        width = self.n_vars + 1
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(ka[i] + kb[i] for i in range(width))
                c = ca * cb
                s = out.get(key)
                s = c if s is None else s + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly(self.n_vars, out)

    __rmul__ = __mul__

    def scale(self, value) -> "Poly":
        c = _as_coeff(value)
        if not c:
            return Poly.zero(self.n_vars)
        return Poly(self.n_vars, {k: v * c for k, v in self.terms.items()})

    # ------------------------------------------------------------------
    # calculus

    def ddx(self, k: int) -> "Poly":
        """Exact partial derivative with respect to L_k (1-based)."""
        if not 1 <= k <= self.n_vars:
            raise IndexError(f"variable index {k} out of range 1..{self.n_vars}")
        i = k - 1
        out: dict = {}
        for key, c in self.terms.items():
            e = key[i]
            if e == 0:
                continue
            nk = key[:i] + (e - 1,) + key[i + 1:]
            out[nk] = c * e
        return Poly(self.n_vars, out)

    # ------------------------------------------------------------------
    # substitution

    def eval_two_pi_i(self, k: int) -> "Poly":
        """Substitute L_k = 2*pi*i exactly.

        Each L_k**j, j even, becomes (-4)**(j/2) * pi**j folded into the
        coefficient and the pi exponent; the result still has n_vars
        variables with variable k absent from every monomial.  An odd power
        of L_k would leave an imaginary value, so it raises ValueError.
        """
        if not 1 <= k <= self.n_vars:
            raise IndexError(f"variable index {k} out of range 1..{self.n_vars}")
        i = k - 1
        out: dict = {}
        for key, c in self.terms.items():
            j = key[i]
            if j & 1:
                raise ValueError(f"odd power of L{k} in {key} has no real value at 2*pi*i")
            if j:
                c = c * (-4) ** (j >> 1)
                key = key[:i] + (0,) + key[i + 1:-1] + (key[-1] + j,)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Poly(self.n_vars, out)

    def eval_zero(self, k: int) -> "Poly":
        """Substitute L_k = 0 (keeps the variable count)."""
        if not 1 <= k <= self.n_vars:
            raise IndexError(f"variable index {k} out of range 1..{self.n_vars}")
        i = k - 1
        return Poly(self.n_vars, {key: c for key, c in self.terms.items() if not key[i]})

    def coeff_pi(self, pi_exp: int) -> "Poly":
        """The pi-free coefficient polynomial of pi**pi_exp."""
        if pi_exp < 0:
            raise IndexError("pi exponent must be nonnegative")
        out = {}
        for key, c in self.terms.items():
            if key[-1] == pi_exp:
                out[key[:-1] + (0,)] = c
        return Poly(self.n_vars, out)

    def embed(self, new_n_vars: int) -> "Poly":
        """Reinterpret in new_n_vars >= n_vars variables (new ones absent)."""
        if new_n_vars < self.n_vars:
            raise ValueError("embed can only extend the variable count")
        pad = (0,) * (new_n_vars - self.n_vars)
        return Poly(
            new_n_vars,
            {key[:-1] + pad + (key[-1],): c for key, c in self.terms.items()},
        )

    def drop_var(self, k: int) -> "Poly":
        """Remove variable k, which must be absent from every monomial."""
        if not 1 <= k <= self.n_vars:
            raise IndexError(f"variable index {k} out of range 1..{self.n_vars}")
        i = k - 1
        out = {}
        for key, c in self.terms.items():
            if key[i]:
                raise ValueError(f"variable {k} still occurs in {key}")
            out[key[:i] + key[i + 1:]] = c
        return Poly(self.n_vars - 1, out)

    def divide_by_var(self, k: int) -> "Poly":
        """Exact division by L_k; every monomial must contain L_k."""
        if not 1 <= k <= self.n_vars:
            raise IndexError(f"variable index {k} out of range 1..{self.n_vars}")
        i = k - 1
        out = {}
        for key, c in self.terms.items():
            if not key[i]:
                raise ValueError(f"term {key} is not divisible by L{k}")
            out[key[:i] + (key[i] - 1,) + key[i + 1:]] = c
        return Poly(self.n_vars, out)

    # ------------------------------------------------------------------
    # ordering and formatting

    def sorted_terms(self) -> list:
        """Terms in the canonical order.

        Ascending pi exponent, then descending lexicographic L exponents, so
        L1-heavy monomials print first and pure pi powers last.
        """
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][-1],) + tuple(-e for e in kv[0][:-1]),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return _join_terms(_term_plain(key, c) for key, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self.n_vars}, {self})"

    def to_latex(self) -> str:
        if not self.terms:
            return "0"
        return _join_terms(_term_latex(key, c) for key, c in self.sorted_terms())


def _arrangement_count(pattern: tuple[int, ...], n: int) -> int:
    """Distinct rearrangements of an exponent pattern over n slots."""
    count = math.factorial(n)
    for mult in Counter(pattern).values():
        count //= math.factorial(mult)
    return count


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
    """Yield the distinct rearrangements of a multiset of exponents."""
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
