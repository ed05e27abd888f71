"""Mirzakhani's recursion for volume polynomials, with exact kernel moments.

The recursion expresses d(L1 * V(g,n))/dL1 through integral transforms of
lower volumes against the kernel

    H(x, y) = 1/2 * ( 1/(1 + e^((x+y)/2)) + 1/(1 + e^((x-y)/2)) ).

All integrals reduce to the odd moments F_{2k+1}(t) = integral_0^inf of
x^(2k+1) H(x, t) dx, which are even polynomials in t with coefficients in
Q * pi^(2i):

    F_{2k+1}(t) = (2k+1)! * sum_{i=0}^{k+1}
                  zeta(2i) (2^(2i) - 2) t^(2k+2-2i) / (2k+2-2i)!

where zeta(0) = -1/2 and zeta(2i) is the even zeta value, a rational
multiple of pi^(2i).  The leading term is t^(2k+2)/(4k+4); the quadrature
oracle pins these coefficients (a common alternative convention doubles
the kernel and with it every moment).  The
double transform with kernel H(x+y, t) against x^(2a+1) y^(2b+1) reduces by
the Euler beta integral to

    (2a+1)! (2b+1)! / (2a+2b+3)!  *  F_{2a+2b+3}(t).

All arithmetic here is exact.  H itself is evaluated in floats only by the
quadrature oracle for the moment polynomials, in ``tests/dense_oracle.py``.

Normalization: with the one-half inside H, the transform terms enter the
recursion with no further prefactor; the disconnected sum runs over ordered
stable pairs, and every appearance of the one-holed torus uses the halved
orbifold volume.  (Doubling the kernel instead would put the familiar
explicit 1/2 in front of each transform; the assembled recursion is the
same.)  This convention is pinned by reproducing the independently lifted
V(0,4) and V(1,2) and is frozen (see the README).

Representatives.  The output is symmetric in L2..Ln, so only coefficients
at (a1; beta), beta the exponents of L2..Ln in descending order, are
computed.  Every lower volume is read through one index kind, built from
its orbits: for each distinct value 2a of an orbit's pattern, the rest of
the pattern (the tail) maps to a and the orbit's numerator, times (2a+1)!;
a sub-multiset of a sorted beta is sorted, so each read is one lookup.  The
splits and the B-term of every node above a volume read its index, so it is
kept on the volume object.  The connected term takes a second head 2b out of
V(g-1, n+1) by reading that volume's index at the tail beta + (2b,), sorted,
weighted by (2b+1)!; V(g, n) is the only node that reads V(g-1, n+1) so,
and it reads the index that volume keeps, or builds one and does not keep
it.  The disconnected term splits the multiset beta, weighting a split
that takes nu_v of the mu_v copies of each value v by prod C(mu_v, nu_v),
its number of label subsets, with each mu_v counted in the sorted beta.
The stable splits (g1, n1 | g - g1, n + 1 - n1) at g1 <= g - g1 are filed
by the tail length n1 - 1; a split of beta reads only those of its first
part's length, and only when its part sums fit the degrees of both
halves, so it looks up only tails the two indexes hold.  A split
(g1, beta1 | g - g1, beta2) and its mirror (g - g1, beta2 | g1, beta1) have
the same product and weight, so each unordered pair is convolved once, with
weight 2, or 1 on the diagonal g1 = g - g1, beta1 = beta2.  The B-term pairs
L1 with each distinct value of beta, weighted by its multiplicity.
Orbit agreement: every orbit (sorted exponents, pi power) must be reached
from each of its distinct values in the L1 slot, all with one coefficient,
or ConsistencyError is raised and nothing is stored; the agreed
coefficients are the stored volume.

Arithmetic.  The inner loops run on int, over one denominator per node.
Each lower volume enters as integer numerators over the least common
denominator of its coefficients, with (2a+1)! folded in for each
transformed exponent 2a.  The A-term inputs (the connected term and each
disconnected split, a product of two lower volumes) are rescaled by one
integer each onto a common denominator, summed by s = a + b, and met with
row s, F_{2s+3}/(2s+3)!, once per s instead of once per (a, b); the B-term
inputs meet row k, (F_{2k+1}(u+v) + F_{2k+1}(u-v))/(2k+1)!, the x^(2k+1)
transform of H(x, u+v) + H(x, u-v).  One table is kept across nodes and
grown on demand: the constants c_i = zeta(2i)(4^i - 2)/pi^(2i), from the
tangent numbers in integers, and the B rows, integers over the least
denominator of each, built from the closed form.  A row s is B row s + 1
at v^0 over twice its denominator.  One integer per row and node takes an
input times its row onto the node denominator.  Every term is homogeneous,
so the output accumulates by L1 exponent alone and the pi exponent
follows.  The orbit-agreement check compares the integer numerators
c / (a1 + 1) by cross-multiplication; one Fraction per orbit is built once
it passes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .volume import ConsistencyError, VolumePolynomial, is_stable, require_stable


def _tails(length: int, budget: int, top: int):
    """Descending tuples of `length` even exponents, each <= top, sum <= budget."""
    if length == 0:
        yield ()
        return
    for e in range(min(budget, top), -1, -2):
        for rest in _tails(length - 1, budget - e, e):
            yield (e,) + rest


def mirzakhani_volume(g: int, n: int, store) -> VolumePolynomial:
    """Compute V(g, n) by the kernel recursion, memoizing through ``store.memo``.

    Runs on representatives and checks orbit agreement, in integer
    arithmetic over one denominator (module docstring).
    """
    require_stable(g, n)
    if n < 1:
        raise ValueError(
            "the kernel recursion needs a distinguished boundary; closed "
            "volumes come from V(g, 1) by the dilaton relation at n = 0, "
            "through ensure_volume"
        )
    return store.memo(g, n, "mirzakhani", _node, g, n, store)


def _node(g: int, n: int, store) -> VolumePolynomial:
    """V(g, n) from the lower volumes, which ``mirzakhani_volume`` fetches."""

    def index(gg: int, nn: int) -> tuple[int, dict]:
        # the index, kept in the volume's __dict__ as ``poly`` is:
        # it lives and dies with that object, and two stores holding
        # different volumes for one (gg, nn) each read their own
        if nn < 1 or not is_stable(gg, nn):
            return 1, {}
        vol = mirzakhani_volume(gg, nn, store)
        if "_kernel_index" not in vol.__dict__:
            vol.__dict__["_kernel_index"] = _build_index(vol.orbits)
        return vol.__dict__["_kernel_index"]

    # only this node reads V(g-1, n+1) for its connected term, so it keeps
    # no index of that volume, but reads the one that volume already keeps
    d_conn, connected = 1, {}
    if is_stable(g - 1, n + 1):
        vol = mirzakhani_volume(g - 1, n + 1, store)
        d_conn, connected = vol.__dict__.get("_kernel_index") or _build_index(vol.orbits)
    # the two lower indexes of each stable split (g1, n1 | g - g1, n + 1 - n1)
    # at g1 <= g - g1; V(g, n-1) and V(g, n) have no stable partner
    halves = {
        (g1, n1): (index(g1, n1), index(g - g1, n + 1 - n1))
        for g1, n1 in product(range(g // 2 + 1), range(1, n + 1))
        if is_stable(g1, n1) and is_stable(g - g1, n + 1 - n1)
    }
    d_pair, pair_lower = index(g, n - 1)
    # one denominator for the A-term inputs: each disconnected split, a
    # product of two lower volumes, is rescaled by one integer
    d_a = math.lcm(d_conn, *(d1 * d2 for (d1, _), (d2, _) in halves.values()))
    # the splits by the tail length n1 - 1 of their first half, with its degree
    lower: dict = {}
    for (g1, n1), ((d1, left), (d2, right)) in halves.items():
        lower.setdefault(n1 - 1, []).append(
            (g1 == g - g1, d_a // (d1 * d2), left, right, 6 * g1 - 6 + 2 * n1)
        )
    degree = 6 * g - 6 + 2 * n
    half = degree // 2
    # the connected term's weight (2b+1)! for each second head 2b, onto d_a
    conn_weight = [math.factorial(2 * b + 1) * (d_a // d_conn) for b in range(half - 1)]
    b_rows = _moment_rows(half)
    # A row s is B row s + 1 at v^0 over twice its denominator (_moment_rows)
    a_rows = [(2 * den, row[0]) for den, row in b_rows[1:half]]
    # the node denominator, and per row one integer taking an input onto it
    d_node = math.lcm(
        *(d_a * den for den, _ in a_rows), *(d_pair * den for den, _ in b_rows[:half])
    )
    a_scale = [d_node // (d_a * den) for den, _ in a_rows]
    b_scale = [d_node // (d_pair * den) for den, _ in b_rows[:half]]

    orbits: dict = {}  # (pattern, pi) -> {a1: c}, coefficient c / (d_node * (a1 + 1))
    for beta in _tails(n - 1, degree, degree):
        # the distinct values of the sorted tail, descending, each with its
        # first index and its multiplicity
        runs = [(v, beta.index(v), beta.count(v)) for v in dict.fromkeys(beta)]
        rest = degree - sum(beta)  # L1 and pi degree of the output at beta
        # A-term inputs by s = a + b, over d_a, at pi exponent rest - 4 - 2s
        grouped = [0] * (half - 1)
        # the connected term: its second head 2b comes out of the tail
        for b in range(rest // 2 - 1):
            tail = tuple(sorted(beta + (2 * b,), reverse=True))
            weight = conn_weight[b]
            for a, c in connected.get(tail, ()):
                grouped[a + b] += c * weight
        # each split of the multiset beta, taking k of the m copies of each
        # value, with its number of label subsets of L2..Ln, prod C(m, k),
        # and the sum of its first part; none below rest = 4, where the
        # degrees of two halves leave no room for the heads
        splits = [((), (), 1, 0)] if rest >= 4 else []
        for v, _, m in runs:
            splits = [
                (beta1 + (v,) * k, beta2 + (v,) * (m - k), subsets * math.comb(m, k), sum1 + k * v)
                for (beta1, beta2, subsets, sum1), k in product(splits, range(m + 1))
            ]
        # a split and its mirror (g - g1, beta2 | g1, beta1) convolve to the
        # same terms, so each unordered pair is taken once, at g1 <= g - g1,
        # and counted twice, or once on the diagonal
        for beta1, beta2, subsets, sum1 in splits:
            for diagonal, scale, left_index, right_index, deg1 in lower.get(len(beta1), ()):
                # a half holds tails up to its degree; both sum to degree - 4
                if not deg1 + 4 - rest <= sum1 <= deg1:
                    continue
                fold = 2
                if diagonal:
                    if beta1 < beta2:
                        continue  # its mirror is taken
                    if beta1 == beta2:
                        fold = 1
                left, right = left_index.get(beta1), right_index.get(beta2)
                if not left or not right:
                    continue
                weight = scale * subsets * fold
                for a1, c1 in left:
                    c1 *= weight
                    for a2, c2 in right:
                        grouped[a1 + a2] += c1 * c2
        # numerators of d(L1 V)/dL1 over d_node by L1 exponent a1; every
        # term is homogeneous, so its pi exponent is rest - a1
        reps: dict = {}
        for s, c in enumerate(grouped):
            if c:
                c *= a_scale[s]
                for t, mom in a_rows[s][1]:
                    reps[t] = reps.get(t, 0) + c * mom
        # B-term inputs (k, v) over d_pair, carrying (2k+1)! as the splits do
        for v, i, m in runs:
            for k, c in pair_lower.get(beta[:i] + beta[i + 1:], ()):
                c *= m * b_scale[k]
                for t, mom in b_rows[k][1].get(v, ()):
                    reps[t] = reps.get(t, 0) + c * mom
        # integrating from 0 in L1 and dividing by L1 divides by a1 + 1
        for a1, c in reps.items():
            if c:
                sig = (tuple(sorted((a1,) + beta, reverse=True)), rest - a1)
                orbits.setdefault(sig, {})[a1] = c
    del connected  # freed before the output is built, unless V(g-1, n+1) keeps it

    # check every orbit: c / (a1 + 1) must agree over its reach, compared
    # by cross-multiplication; one Fraction per orbit, over d_node
    result = {}
    for (pattern, p), reach in orbits.items():
        a0, c0 = next(iter(reach.items()))
        if reach.keys() != set(pattern) or any(
            c * (a0 + 1) != c0 * (a1 + 1) for a1, c in reach.items()
        ):
            coeffs = {a1: Fraction(c, d_node * (a1 + 1)) for a1, c in sorted(reach.items())}
            raise ConsistencyError(
                f"recursion output for ({g},{n}) fails the orbit-agreement "
                f"check at exponents {pattern}, pi^{p}: L1 exponent -> "
                f"coefficient {coeffs}"
            )
        result[(pattern, p)] = Fraction(c0, d_node * (a0 + 1))
    return VolumePolynomial(g, n, result)


# [c_i, B rows]: the constants c_i = zeta(2i) (4^i - 2) / pi^(2i) and the
# rows built from them, both grown on demand
_rows: tuple = ([], [])


def _moment_rows(half: int) -> list:
    """The kept B rows, at least half of them.

    Row k is (F_{2k+1}(u+v) + F_{2k+1}(u-v)) / (2k+1)! = sum_i sum_{r even}
    2 c_i u^(m-r) v^r / (r! (m-r)!), m = 2k+2-2i, odd powers of v
    cancelling, as (den, {r: [(m - r, numerator)]}) over its least
    denominator; the pi exponent follows, as the moments are homogeneous.
    At v^0 row s + 1 is twice A row s, F_{2s+3}(t) / (2s+3)!, whose term
    t^(2s+4) / (2 (2s+4)!) keeps its least denominator even: A row s is
    row s + 1 at r = 0 over twice its denominator.
    """
    cs, b_rows = _rows
    if len(b_rows) >= half:
        return b_rows
    # c_0 = 1/2 and c_i = T_i (4^i - 2) / (2 (4^i - 1) (2i - 1)!), T_i the
    # tangent numbers 1, 2, 16, 272, ..., by the Knuth-Buckholtz recurrence
    tangent = [0] + [math.factorial(i - 1) for i in range(1, half + 1)]
    for k in range(2, half + 1):
        for i in range(k, half + 1):
            tangent[i] = (i - k) * tangent[i - 1] + (i - k + 2) * tangent[i]
    cs += [Fraction(tangent[i] * (4 ** i - 2), 2 * (4 ** i - 1) * math.factorial(2 * i - 1))
           if i else Fraction(1, 2) for i in range(len(cs), half + 1)]
    # row k holds 2 c_i for i <= k + 1; over q * top!, q the lcm of their
    # denominators, term (i, r) has the numerator 2 c_i q top! / m! C(m, r)
    for k in range(len(b_rows), half):
        top = 2 * k + 2
        q = math.lcm(*(c.denominator for c in cs[:k + 2]))
        den = q * math.factorial(top)
        nums = [2 * c.numerator * (q // c.denominator) * math.perm(top, 2 * i)
                for i, c in enumerate(cs[:k + 2])]
        # every numerator is a multiple of these, the row at r = 0, so one
        # gcd takes the row onto its least denominator
        g = math.gcd(den, *nums)
        row = [(top - 2 * i, c // g) for i, c in enumerate(nums)]
        b_rows.append((den // g, {r: [(m - r, c * math.comb(m, r)) for m, c in row if m >= r]
                                  for r in range(0, top + 1, 2)}))
    return b_rows


def _build_index(orbits: dict) -> tuple[int, dict]:
    """(LCD of the orbits, sorted tail -> [(a, numerator)]): for each
    distinct value 2a of an orbit's pattern, the orbit's numerator over the
    LCD times (2a+1)!, filed under the pattern with one 2a taken out.  The
    tail and a fix the orbit, and with it the pi exponent."""
    den = math.lcm(*(c.denominator for c in orbits.values()))
    out: dict = {}
    for (pattern, _), c in orbits.items():
        num = c.numerator * (den // c.denominator)
        for v in set(pattern):
            i = pattern.index(v)
            out.setdefault(pattern[:i] + pattern[i + 1:], []).append(
                (v // 2, num * math.factorial(v + 1))
            )
    return den, {tail: tuple(terms) for tail, terms in out.items()}
