"""Symmetric polynomials in boundary lengths L1..Ln and a formal pi, by
symmetry orbit, and their text form.

Coefficients are exact rationals (``fractions.Fraction``).  The symbol pi
is never a float: it is carried as an extra exponent, so the pi-grading of
a polynomial can be inspected and compared exactly.

Representation.  A ``Poly`` in ``n_vars`` variables holds an orbit map

    {(L exponents sorted descending, pi exponent): coefficient}

as volumes are stored and computed: every distinct rearrangement of an
orbit's L exponents is one monomial with the orbit's coefficient.  This
type is the text edge of the package: printing a volume and the difference
polynomials that diagnostics print.  It has no arithmetic, and the
evaluation at L = 2*pi*i lives on orbits in ``symmetric``.  ``len`` counts
the monomials without listing them.  The tests keep a dense term map with
a ring (sum, product, scaling, the monomials) as a reference, in
``tests/dense_oracle.py``.

Rendering.  The canonical order is ascending pi exponent, then descending
lexicographic L exponents.  ``str``, ``to_latex`` and the cache writer share
one walk over prefix multisets from L_n back to L_1 (``_build_plan``,
``block_pieces``) that lists no monomial.  Each orbit is one leaf block:
its coefficient's printed form, a marker, and its pi factor.  A node's
block joins its children's, each after one ``str.replace`` that puts the
child's factor (``*L3^4``, `` L_{3}^{4}``) after the marker in all its
terms.  The plan and each kind's leaf blocks are built on first use and
kept, so a warm render formats no coefficient.

A polynomial is never changed after construction, so values can be shared
freely between threads; the plan filled in on first use comes out the same
whichever thread builds it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction


class Poly:
    """Symmetric exact polynomial in L1..Ln and pi, by orbit: ``orbits``
    maps ``(pattern, pi_exp)``, the pattern the ``n_vars`` L exponents
    sorted descending, to a nonzero Fraction.  Keeps a copy of the map."""

    __slots__ = ("n_vars", "orbits", "_plan")

    def __init__(self, n_vars: int, orbits: dict):
        self.n_vars = n_vars
        self.orbits = dict(orbits)
        self._plan = None

    def __bool__(self) -> bool:
        return bool(self.orbits)

    def __len__(self) -> int:
        return sum(_arrangement_count(pattern, self.n_vars) for pattern, _ in self.orbits)

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
    names = [f" L_{{{i}}}" if latex else f"*L{i}" for i in range(1, n_vars + 1)]
    names.append(" \\pi" if latex else "*pi")
    power = ("^{", "}") if latex else ("^", "")
    tables = _TABLES[(n_vars, latex)] = [_Powers(name, *power) for name in names]
    return tables


def _coefficient(c: Fraction, latex: bool) -> tuple[str, str]:
    """How c prints: the text before the factors, which ends in DROP where
    the first factor loses its separator (always in LaTeX, and after a bare
    sign), and the term with no factor.  Both open with " + " or " - "."""
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
        return sign + DROP, sign + digits
    return sign + digits + (DROP if latex else ""), sign + digits


def _build_plan(orbits: dict, n: int) -> tuple:
    """The walk that renders an orbit map: (orbits, levels, roots, leaves).

    A node at depth k stands for the term prefixes of k L exponents with one
    pi exponent and one multiset, which alone fixes the suffixes that follow.
    The leaves, at depth n, are the orbits, listed as (orbit, coefficient) by
    ascending pi exponent so that the roots come in that order.  ``levels``
    lists, for k = n - 1 down to 1, (k, the nodes of depth k), each node as
    its children (value of L_{k+1}, index one level down) by descending
    value; ``roots`` lists the roots' children alike, or each leaf with value
    0 when n = 0.  ``leaves`` keeps each text kind's leaf blocks.
    """
    items = sorted(orbits.items(), key=lambda item: item[0][1])
    level = {(pi_exp, pattern): i for i, ((pattern, pi_exp), _) in enumerate(items)}
    levels = []
    for k in reversed(range(n)):
        parents: dict = {}
        for (pi_exp, ms), i in level.items():
            for j, v in enumerate(ms):
                if not j or v != ms[j - 1]:
                    parents.setdefault((pi_exp, ms[:j] + ms[j + 1:]), []).append((v, i))
        for children in parents.values():
            children.sort(reverse=True)
        levels.append((k, list(parents.values())))
        level = {key: i for i, key in enumerate(parents)}
    roots = [(0, i) for i in level.values()]  # each leaf, when n = 0
    if n:
        roots = [edge for node in levels.pop()[1] for edge in node]
    return items, levels, roots, {}


# MARK stands in each term where the next factor goes; DROP marks a term
# whose first factor loses its separator
MARK, DROP = "\x00", "\x01"


def block_pieces(p: Poly, kind: str, leaf, tables: list) -> list:
    """Pieces whose join is every term of p in canonical order.

    The leaves, kept in the plan by ``kind``, are ``leaf(pattern, pi_exp, c)``
    for each orbit: MARK in front of the pi factor, or the bare term.  From
    L_n back to L_2, each node's block joins its children's, and one
    ``str.replace`` puts a child's factor from ``tables[k]`` after MARK in all
    of its terms; a child whose factor is empty is reused.  The pieces are
    the roots' children, with L_1's factor in place of MARK."""
    if p._plan is None:
        p._plan = _build_plan(p.orbits, p.n_vars)
    items, levels, roots, leaves = p._plan
    blocks = leaves.get(kind)
    if blocks is None:
        blocks = leaves[kind] = [leaf(*orbit, c) for orbit, c in items]
    for k, nodes in levels:
        table = tables[k]
        blocks = [
            "".join([
                blocks[i].replace(MARK, MARK + f) if f else blocks[i]
                for v, i in node for f in [table[v]]
            ])
            for node in nodes
        ]
    table = tables[0] if p.n_vars else ("",)
    return [blocks[i].replace(MARK, table[v]) for v, i in roots]


def _render(p: Poly, latex: bool) -> str:
    tables = _TABLES.get((p.n_vars, latex)) or _tables(p.n_vars, latex)
    powers_of_pi, drop = tables[-1], DROP + (" " if latex else "*")

    def leaf(pattern: tuple, pi_exp: int, c: Fraction) -> str:
        head, bare = _coefficient(c, latex)
        return head + MARK + powers_of_pi[pi_exp] if pi_exp or any(pattern) else bare

    pieces = block_pieces(p, "latex" if latex else "str", leaf, tables)
    for j, piece in enumerate(pieces):
        if DROP in piece:  # a memchr scan, far faster than a replace's
            pieces[j] = piece.replace(drop, "")
    if not pieces:
        return "0"
    first = pieces[0]
    pieces[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(pieces)
