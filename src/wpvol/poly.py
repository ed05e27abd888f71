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
and the evaluation at L = 2*pi*i lives on orbits in ``symmetric``.  A
``Poly`` from ``from_orbits`` keeps the orbits, which ``len`` and ``bool``
read; its term map is built only when read (equality, ``embed``,
``sorted_terms``, ``orbit_coefficients``).  A single monomial, such as a
closed volume, is kept as a term map, which renders it faster.  The tests
keep a dense ring (sum, product, scaling, the monomials) on term maps as a
reference, in ``tests/dense_oracle.py``.

Rendering.  The canonical order is ascending pi exponent, then descending
lexicographic L exponents.  ``str`` and ``to_latex`` share one renderer: a
term is its coefficient's form, each distinct one formatted once per call,
in front of factors from per-variable tables (``*L3^4``, `` L_{3}^{4}``)
filled on first use and kept.  A term map is bucketed by pi exponent and
each bucket sorted in native tuple order, reversed.  Orbits are rendered by
a walk over prefix multisets from L_n back to L_1 (``_build_plan``) that
builds no term map; its plan is built on the first render and kept.

A polynomial is never changed after construction, so values can be shared
freely between threads; the term map and plan filled in on first use come
out the same whichever thread builds them.
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

    __slots__ = ("n_vars", "_terms", "_orbits", "_plan")

    def __init__(self, n_vars: int, terms: dict):
        self.n_vars = n_vars
        self._terms = terms
        self._orbits = self._plan = None

    @property
    def terms(self) -> dict:
        if self._terms is None:
            memo: dict = {}  # one ``arrangements`` memo for all the orbits
            self._terms = {
                head + (pi_exp,): c
                for (pattern, pi_exp), c in self._orbits.items()
                for head in arrangements(pattern, memo)
            }
        return self._terms

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
        """The polynomial of ``{(pattern, pi_exp): coefficient}``, kept by
        orbit.  Each pattern holds the ``n_vars`` L exponents of the orbit,
        sorted descending; every distinct rearrangement is one monomial with
        the orbit's coefficient object.  Inverse of ``orbit_coefficients``.
        """
        if len(orbits) == 1:
            ((pattern, pi_exp), c), = orbits.items()
            if len(set(pattern)) < 2:  # one monomial (see the module docstring)
                return cls(n_vars, {pattern + (pi_exp,): c})
        p = cls(n_vars, None)
        p._orbits = dict(orbits)
        return p

    # ------------------------------------------------------------------
    # predicates and inspection

    def __bool__(self) -> bool:
        return bool(self._terms if self._orbits is None else self._orbits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __len__(self) -> int:
        if self._orbits is None:
            return len(self._terms)
        return sum(_arrangement_count(pattern, self.n_vars) for pattern, _ in self._orbits)

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


def _build_plan(orbits: dict, n: int) -> tuple:
    """The walk that renders an orbit map: (pi exponents, levels,
    coefficients, order).

    A node at depth k stands for the term prefixes of k L exponents with one
    pi exponent and one multiset, which alone fixes the suffixes that follow.
    The leaves, at depth n, are the orbits, taken by ascending pi exponent so
    that the roots come in that order.  ``levels`` lists the nodes of depth
    n - 1 up to 0, each as its children (value of L_{k+1}, index one level
    down) by descending value.  ``order`` holds, for every term in canonical
    order, the index of its coefficient among the distinct values.
    """
    items = sorted(orbits.items(), key=lambda item: item[0][1])
    slots: dict = {}  # coefficient -> index among the distinct values
    order = [[slots.setdefault(c, len(slots))] for _, c in items]
    level = {(pi_exp, pattern): i for i, ((pattern, pi_exp), _) in enumerate(items)}
    levels = []
    for _ in range(n):
        parents: dict = {}
        for (pi_exp, ms), i in level.items():
            for k, v in enumerate(ms):
                if not k or v != ms[k - 1]:
                    parents.setdefault((pi_exp, ms[:k] + ms[k + 1:]), []).append((v, i))
        for children in parents.values():
            children.sort(reverse=True)
        levels.append(list(parents.values()))
        level = {key: i for i, key in enumerate(parents)}
    for nodes in levels:
        order = [[j for _, i in node for j in order[i]] for node in nodes]
    pis = [pi_exp for (_, pi_exp), _ in items]
    return pis, levels, list(slots), [j for root in order for j in root]


def _walk(plan: tuple, tables: list) -> list:
    """The factor text of every term in canonical order: bottom-up from L_n
    to L_1, each node puts the fragment of its value in front of its
    children's suffixes."""
    pis, levels = plan[:2]
    suffixes = [[tables[len(levels)][pi_exp]] for pi_exp in pis]
    for table, nodes in zip(reversed(tables[:len(levels)]), levels):
        suffixes = [
            [f + s for v, i in node for f in [table[v]] for s in suffixes[i]]
            for node in nodes
        ]
    return [s for root in suffixes for s in root]


def _render(p: Poly, latex: bool) -> str:
    tables = _TABLES.get((p.n_vars, latex)) or _tables(p.n_vars, latex)
    if p._orbits is None:
        done: dict = {}  # id(coefficient) -> form; p.terms keeps every id alive
        pieces = []
        for key, c in p.sorted_terms():
            form = done.get(id(c))
            if form is None:
                form = done[id(c)] = _coefficient(c, latex)
            factors = "".join(map(getitem, tables, key))
            pieces.append(form[0] + factors[form[1]:] if factors else form[2])
    else:
        plan = p._plan = p._plan or _build_plan(p._orbits, p.n_vars)
        forms = [_coefficient(c, latex) for c in plan[2]]
        # a generator, so neither the walk's text nor the pieces outlive the join
        pieces = (f[0] + s[f[1]:] if s else f[2]
                  for s, f in zip(_walk(plan, tables), map(forms.__getitem__, plan[3])))
    text = "".join(pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]
