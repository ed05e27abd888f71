"""Exact sparse polynomials in boundary lengths L1..Ln and a formal pi.

Coefficients are exact rationals (``fractions.Fraction``).  The symbol pi
is never a float: it is carried as an extra exponent slot on every
monomial, so the pi-grading of a polynomial can be inspected and compared
exactly.

Representation.  A polynomial in ``n_vars`` variables is a term map

    {exponents: coefficient}

where ``exponents`` is a tuple of length ``n_vars + 1``.  Entries
``0 .. n_vars-1`` are the exponents of L1..Ln and the last entry is the
exponent of pi.  Zero coefficients are never stored, so two polynomials are
equal iff their term maps are equal.

This type is the text and parse edge of the package: rendering and
export, parsing a cache document, the kernel moments, and the difference
polynomials that diagnostics print.  It has no ring operations.  Symmetric
polynomials, volumes among them, are stored and computed by symmetry orbit,
``{(L exponents sorted descending, pi exponent): coefficient}``;
``orbit_coefficients`` and ``from_orbits`` convert between the two forms,
and the evaluation at L = 2*pi*i lives on orbits in ``symmetric``.
``from_orbits`` gives all the monomials of an orbit one shared coefficient.
The tests keep a dense ring (sum, product, scaling, the monomials) on term
maps as a reference, in ``tests/dense_oracle.py``.

Rendering.  The canonical order is ascending pi exponent, then descending
lexicographic L exponents: keys are bucketed by pi exponent and each bucket
sorted in native tuple order, reversed.  ``str`` and ``to_latex`` share one
renderer.  A term is one join over per-variable fragment tables (``*L3^4``,
`` L_{3}^{4}``), filled on first use and kept across calls, and each
coefficient object is formatted once per call: once per orbit for a volume.

A polynomial is never changed after construction, so values can be shared
freely between threads.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Iterable
from fractions import Fraction
from operator import getitem

_F0 = Fraction(0)


class Poly:
    """Sparse exact polynomial in L1..Ln and pi.

    ``terms`` maps exponent tuples (length ``n_vars + 1``, pi last) to
    nonzero Fraction coefficients.  The constructor takes ownership
    of the dict and trusts it to be canonical; ``from_terms`` and
    ``from_orbits`` construct values safely.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: dict):
        self.n_vars = n_vars
        self.terms = terms

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_terms(cls, n_vars: int, items: dict | Iterable) -> "Poly":
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
    def from_orbits(cls, n_vars: int, orbits: dict) -> "Poly":
        """Expand ``{(pattern, pi_exp): coefficient}`` over symmetry orbits.

        Each pattern holds the ``n_vars`` L exponents of the orbit; every
        distinct rearrangement becomes one monomial with the orbit's
        coefficient object.  The orbits share one ``arrangements`` memo.
        Inverse of ``orbit_coefficients``.
        """
        terms = {}
        memo: dict = {}
        for (pattern, pi_exp), c in orbits.items():
            tail = (pi_exp,)
            for head in arrangements(pattern, memo):
                terms[head + tail] = c
        return cls(n_vars, terms)

    # ------------------------------------------------------------------
    # predicates and inspection

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

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

    def embed(self, new_n_vars: int) -> "Poly":
        """Reinterpret in new_n_vars >= n_vars variables (new ones absent)."""
        if new_n_vars < self.n_vars:
            raise ValueError("embed can only extend the variable count")
        pad = (0,) * (new_n_vars - self.n_vars)
        return Poly(
            new_n_vars,
            {key[:-1] + pad + (key[-1],): c for key, c in self.terms.items()},
        )

    # ------------------------------------------------------------------
    # ordering and formatting

    def sorted_terms(self) -> list:
        """(key, coefficient) pairs in the canonical order (see above)."""
        terms = self.terms
        if len(terms) < 2:
            return list(terms.items())
        buckets = defaultdict(list)
        for key in terms:
            buckets[key[-1]].append(key)
        out = []
        for pi_exp in sorted(buckets):
            bucket = buckets[pi_exp]
            bucket.sort(reverse=True)
            out += bucket
        return [(key, terms[key]) for key in out]

    def __str__(self) -> str:
        return _render(self, False)

    def __repr__(self) -> str:
        return f"Poly({self.n_vars}, {self})"

    def to_latex(self) -> str:
        return _render(self, True)


def _arrangement_count(pattern: tuple[int, ...], n: int) -> int:
    """Distinct rearrangements of an exponent pattern over n slots."""
    count = math.factorial(n)
    for mult in Counter(pattern).values():
        count //= math.factorial(mult)
    return count


def arrangements(pattern: Iterable[int], memo: dict | None = None) -> list:
    """The distinct rearrangements of a multiset, in descending lexicographic
    order: each distinct value, largest first, heads every arrangement of
    the rest.  ``memo`` maps each proper sub-multiset, sorted descending, to
    its arrangements; one dict shared across patterns reuses the sub-multisets
    they have in common.  The list returned is the caller's own.
    """
    items = tuple(sorted(pattern, reverse=True))
    memo = {} if memo is None else memo
    found = [] if items else [()]
    for i, v in enumerate(items):
        if not i or v != items[i - 1]:
            rest = items[:i] + items[i + 1:]
            rests = memo.get(rest)
            if rests is None:
                rests = memo[rest] = arrangements(rest, memo)
            found += [(v,) + tail for tail in rests]
    return found


class _Powers(dict):
    """Exponent -> printed factor of one variable (``*L3^4``, `` L_{3}^{4}``),
    each entry built on first use.  Every factor starts with its separator."""

    def __init__(self, factor: str, power: str, close: str):
        super().__init__({0: "", 1: factor})
        self.head, self.tail = factor + power, close

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self.head}{e}{self.tail}"
        return text


# (n_vars, latex) -> the _Powers of L1..Ln and of pi, kept across calls
_TABLES: dict = {}


def _tables(n_vars: int, latex: bool) -> list:
    if latex:
        names = [f" L_{{{i}}}" for i in range(1, n_vars + 1)] + [" \\pi"]
        power = ("^{", "}")
    else:
        names = [f"*L{i}" for i in range(1, n_vars + 1)] + ["*pi"]
        power = ("^", "")
    tables = _TABLES[(n_vars, latex)] = [_Powers(name, *power) for name in names]
    return tables


def _coefficient(c: Fraction, latex: bool) -> tuple[str, int, str]:
    """How c prints: the text before the factors, how many characters of the
    factors to drop, and the term with no factor.  Both texts open with the
    sign, " + " or " - "; a magnitude of 1 prints no digits before a factor."""
    num, den = c.numerator, c.denominator
    sign = " - " if num < 0 else " + "
    num = abs(num)
    if den == 1:
        digits = str(num)
    elif latex:
        digits = f"\\frac{{{num}}}{{{den}}}"
    else:
        digits = f"({num}/{den})"
    if num == den == 1:
        return sign, 1, sign + digits
    return sign + digits, int(latex), sign + digits


def _render(p: Poly, latex: bool) -> str:
    if not p.terms:
        return "0"
    tables = _TABLES.get((p.n_vars, latex)) or _tables(p.n_vars, latex)
    done: dict = {}  # id(coefficient) -> form; p.terms keeps every id alive
    pieces = []
    for key, c in p.sorted_terms():
        form = done.get(id(c))
        if form is None:
            form = done[id(c)] = _coefficient(c, latex)
        factors = "".join(map(getitem, tables, key))
        pieces.append(form[0] + factors[form[1]:] if factors else form[2])
    text = "".join(pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]
