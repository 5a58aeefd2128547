"""Output checks of the catalog benchmark.

Every check compares a program output with an independent computation or
with a property the method must have, never with a stored copy of an
earlier output.  The exponent matrix E of W is the only input the B-model
checks take from the catalog entry besides the marginal data; the A-model
and GW checks read the literature values frozen in the catalog.
"""

from __future__ import annotations

from fractions import Fraction

from ises.numcore import MultiPoly, RatFun, UniPoly

UNIT, POINT = (0, 1), (0, 2)


def inverse3(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a 3x3 integer matrix by its adjugate."""
    m = [[Fraction(v) for v in row] for row in rows]

    def minor(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        return m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]

    det = sum((-1) ** j * m[0][j] * minor(0, j) for j in range(3))
    return tuple(
        tuple((-1) ** (i + j) * minor(j, i) / det for j in range(3)) for i in range(3)
    )


def charges(entry) -> tuple[Fraction, ...]:
    """q = E^{-1} (1, 1, 1)."""
    inv = inverse3(entry.polynomial.exponents)
    return tuple(sum(row) for row in inv)


def degree(entry, r) -> Fraction:
    return sum((Fraction(e) * q for e, q in zip(r, charges(entry))), Fraction(0))


def invariant(entry, exps) -> bool:
    """Is x^exps fixed by every diagonal symmetry of W?  The group
    {theta : E theta in Z^3} is generated by the columns of E^{-1}."""
    inv = inverse3(entry.polynomial.exponents)
    return all(
        sum(exps[i] * inv[i][j] for i in range(3)).denominator == 1 for j in range(3)
    )


# -- B-model -----------------------------------------------------------------


def weight_row_ok(entry, r, weights, certified) -> bool:
    """Certified, and alpha + beta - gamma - prefactor = deg phi_r (first
    order: alpha - prefactor = deg phi_r)."""
    if not certified:
        return False
    shift = weights.alpha - weights.prefactor
    if not weights.first_order:
        shift += weights.beta - weights.gamma
    return shift == degree(entry, r)


def _order_key(q):
    return lambda e: (q[0] * e[0] + q[1] * e[1] + q[2] * e[2], -e[2], -e[1], -e[0])


def reduces_to_zero(f: MultiPoly, basis, q) -> bool:
    """Division of ``f`` by ``basis`` in graded reverse-lexicographic order
    (weights q, X1 > X2 > X3) leaves no remainder."""
    key = _order_key(q)
    leads = [(max(g.terms, key=key), g) for g in basis]
    while f:
        e = max(f.terms, key=key)
        for lead, g in leads:
            if all(a <= b for a, b in zip(lead, e)):
                shift = tuple(b - a for a, b in zip(lead, e))
                f = f - g * MultiPoly.monomial(shift, f.terms[e] / g.terms[lead])
                break
        else:
            return False
    return True


def sigma_partials(entry, m) -> tuple[MultiPoly, ...]:
    """The partials of W_sigma = W + sigma * x^m over Q(sigma)."""
    w = MultiPoly.monomial(tuple(m), RatFun.variable())
    for row in entry.polynomial.exponents:
        w = w + MultiPoly.monomial(tuple(row), RatFun.const(1))
    return tuple(w.partial(i) for i in range(3))


def algebra_ok(entry, m, staircase, groebner_basis) -> bool:
    """The staircase has prod (1 - q_i) / q_i monomials and every
    d_i W_sigma reduces to zero under the Groebner basis."""
    q = charges(entry)
    mu = Fraction(1)
    for qi in q:
        mu *= (1 - qi) / qi
    if len(staircase) != mu:
        return False
    return all(reduces_to_zero(p, groebner_basis, q) for p in sigma_partials(entry, m))


def decomposition_ok(entry, marginal, r, gs) -> bool:
    """sum_i g_i d_i W_sigma = (1 - C sigma^l) x^{r+m}."""
    lhs = MultiPoly.zero()
    for g, p in zip(gs, sigma_partials(entry, marginal.m)):
        lhs = lhs + g * p
    factor = RatFun(UniPoly([1] + [0] * (marginal.l - 1) + [-marginal.C]))
    rm = tuple(a + b for a, b in zip(r, marginal.m))
    return lhs == MultiPoly.monomial(rm, factor)


def fourpoint_ok(entry, m, triple, value) -> bool:
    """A nonzero value needs x^{r1+r2+r3+m} (x1 x2 x3)^2 to be invariant."""
    if not value:
        return True
    exps = [sum(r[i] for r in triple) + m[i] + 2 for i in range(3)]
    return invariant(entry, exps)


# -- A-model -----------------------------------------------------------------


def literature_words(entry) -> dict[tuple[int, ...], Fraction]:
    return {
        tuple(w["exps"]): Fraction(w["value"]) for w in entry.fjrw.get("deg1Words", [])
    }


def word_ok(entry, word, value) -> bool:
    """A resolved word equals its literature value in ``deg1Words``."""
    padded = tuple(word) + (0,) * (3 - len(word))
    expected = literature_words(entry).get(padded)
    return expected is not None and value == expected


def oracle_values(entry):
    """(insertion indices, value) pairs of the catalog's four-point oracles."""
    block = (entry.fjrw or {}).get("oracles", {})
    return [(o["insertions"], Fraction(o["value"])) for o in block.get("fourPoint", [])]


# -- GW of P^1_{a,b,c} ---------------------------------------------------------


def series_coefficient(series, d) -> Fraction:
    """Coefficient of q^d in a catalog series listed as [exponent, value]."""
    for exponent, value in series:
        if exponent == d:
            return Fraction(value)
    return Fraction(0)
