"""Tests for the exact arithmetic substrate."""

import copy
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from ises.isespoly import get_entry, load_catalog
from ises.jacobi import groebner
from ises.numcore import (
    DomainError,
    MultiPoly,
    NoSolution,
    PoleError,
    RatFun,
    UniPoly,
    inverse,
    monomials_of_weighted_degree,
    nullspace,
    parse_rat,
    scaled_ints,
    solve_columns,
    solve_linear,
)

F = Fraction

small_rats = st.fractions(min_value=-12, max_value=12, max_denominator=7)


def upoly(*cs):
    return UniPoly(tuple(F(c) for c in cs))


# Euclid over Q[s] on UniPoly, the reference that the RatFun oracles below
# cancel with; the package's RatFun runs its own gcd on int tuples.


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    lead = b.coeffs[-1]
    if len(rem) <= db:
        return UniPoly(), a
    quo = [F(0)] * (len(rem) - db)
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db] / lead
        quo[k] = c
        if c:
            for j, v in enumerate(b.coeffs):
                rem[k + j] -= c * v
    return UniPoly(quo), UniPoly(rem[:db])


def monic(p: UniPoly) -> UniPoly:
    if not p:
        return p
    lead = p.coeffs[-1]
    return UniPoly(tuple(c / lead for c in p.coeffs))


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """The monic gcd (0 when both are 0)."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


# ---------------------------------------------------------------- parse_rat


def test_rat_roundtrip():
    assert parse_rat("-3/7") == F(-3, 7)


# ------------------------------------------------------------------ UniPoly


def test_unipoly_basic():
    p = upoly(1, 2, 1)  # 1 + 2s + s^2
    q = upoly(1, 1)
    assert p == q * q
    assert p - q * q == UniPoly()
    assert p.eval(F(3)) == 16
    assert p.deriv() == upoly(2, 2)
    assert (q**3).coeffs == (1, 3, 3, 1)


def test_unipoly_divmod_gcd():
    a = upoly(-1, 0, 0, 1)  # s^3 - 1
    b = upoly(-1, 1)  # s - 1
    quo, rem = poly_divmod(a, b)
    assert rem == UniPoly()
    assert quo == upoly(1, 1, 1)
    assert poly_gcd(a, b) == monic(b)


@given(st.lists(small_rats, max_size=5), st.lists(small_rats, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_unipoly_divmod_property(ac, bc):
    a, b = UniPoly(ac), UniPoly(bc)
    if not b:
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


# ------------------------------------------------------------------- RatFun


def test_ratfun_cancellation():
    f = RatFun(upoly(-1, 0, 1), upoly(-1, 1))  # (s^2-1)/(s-1)
    assert f == RatFun(upoly(1, 1))
    assert f.to_text() == "s + 1"
    g = RatFun(upoly(0, 2), upoly(4))
    assert g == RatFun(upoly(0, F(1, 2)))


def test_ratfun_residue_shape():
    # 1/(27(1-x)) with x = -s^3/27 equals 1/(27 + s^3)
    x = RatFun(upoly(0, 0, 0, F(-1, 27)))
    val = 1 / (27 * (1 - x))
    assert val == RatFun(upoly(1), upoly(27, 0, 0, 1))
    assert val.den.coeffs[-1] == 1
    assert poly_gcd(val.num, val.den) == 1


def test_ratfun_arithmetic_and_eval():
    s = RatFun.variable()
    f = (s + 2) / (s - 1)
    assert f.eval(F(3)) == F(5, 2)
    assert (f - f) == 0 * f
    assert (f * (s - 1)) == s + 2
    assert (1 / f) == (s - 1) / (s + 2)
    with pytest.raises(ZeroDivisionError):
        f.eval(F(1))


def test_poles_are_typed_domain_errors():
    s = RatFun.variable()
    f = (s + 2) / (s - 1)
    with pytest.raises(PoleError) as info:
        f.eval(F(1))
    assert isinstance(info.value, DomainError)
    assert isinstance(info.value, ZeroDivisionError)
    with pytest.raises(PoleError):
        f / (s - s)
    with pytest.raises(PoleError):
        1 / RatFun.const(0)
    with pytest.raises(PoleError):
        (s - s) ** -2
    with pytest.raises(PoleError):
        RatFun(upoly(1), UniPoly())


def test_scaled_ints_puts_rationals_on_one_grid():
    assert scaled_ints([F(1, 4), 0, F(-5, 6), 2]) == ((3, 0, -10, 24), 12)
    assert scaled_ints((F(1, 3), F(2, 3)), 12) == ((4, 8), 12)
    assert scaled_ints(()) == ((), 1)
    assert all(type(v) is int for v in scaled_ints([F(1, 2), 1])[0])


def test_equal_values_hash_alike_across_coefficient_types():
    assert 1 in {RatFun.const(1)} and F(1, 2) in {RatFun.const(F(1, 2))}
    assert hash(RatFun.const(0)) == hash(RatFun(UniPoly())) == hash(UniPoly()) == 0
    assert hash(UniPoly.const(F(-2, 3))) == hash(F(-2, 3))
    x = UniPoly([0, 1])
    assert RatFun.variable() == x == RatFun.variable() and hash(RatFun.variable()) == hash(x)
    assert RatFun.variable() in {x} and x in {RatFun.variable()}
    assert x != RatFun(UniPoly(), x + 1) and x != "s"
    assert hash(RatFun(x * x - 1, 2)) == hash(UniPoly([F(-1, 2), 0, F(1, 2)]))
    two = MultiPoly.const(F(2)), MultiPoly.const(RatFun.const(2))
    assert two[0] == two[1] and hash(two[0]) == hash(two[1])


@given(small_rats, small_rats, small_rats, small_rats)
@settings(max_examples=40, deadline=None)
def test_ratfun_field_axioms(a, b, c, d):
    s = RatFun.variable()
    f = a * s + b
    g = c * s + d
    h = s * s + 1
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    if g:
        assert (f / g) * g == f


# Pairwise coprime irreducibles over Q: s, s - 1, s + 2, s^2 + 1, 2s + 3.
FACTORS = (upoly(0, 1), upoly(-1, 1), upoly(2, 1), upoly(1, 0, 1), upoly(3, 2))
POWERS = st.lists(
    st.integers(min_value=0, max_value=2), min_size=len(FACTORS), max_size=len(FACTORS)
)
nonzero_rats = small_rats.filter(bool)


def factor_product(scale, powers) -> UniPoly:
    p = UniPoly.const(scale)
    for f, k in zip(FACTORS, powers):
        p = p * f**k
    return p


def reference_canonical(num: UniPoly, den: UniPoly) -> tuple:
    """Canonical (num, den) coefficient tuples by the full route: divide by
    the monic Euclidean gcd, then make the denominator monic."""
    g = poly_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    lead = den.coeffs[-1]
    return (num * (1 / lead)).coeffs, monic(den).coeffs


def structure(f: RatFun) -> tuple:
    return f.num.coeffs, f.den.coeffs


@st.composite
def ratfun_operands(draw):
    """Two rational functions built from FACTORS.  The first one's numerator
    and denominator may share factors (so the constructor must cancel); the
    second one shares the first one's canonical denominator half the time,
    and either numerator may be zero or a constant."""
    a = RatFun(
        factor_product(draw(small_rats), draw(POWERS)),
        factor_product(draw(nonzero_rats), draw(POWERS)),
    )
    if draw(st.booleans()):
        # Same canonical denominator: numerator powers only on factors that
        # do not divide it, so (num, a.den) is already coprime.
        free = [bool(poly_divmod(a.den, f)[1]) for f in FACTORS]
        powers = [k if ok else 0 for k, ok in zip(draw(POWERS), free)]
        b = RatFun(factor_product(draw(small_rats), powers), a.den)
        # a zero numerator scale makes b zero, whose canonical denominator is 1
        assert b.den == a.den or not b
    else:
        b = RatFun(
            factor_product(draw(small_rats), draw(POWERS)),
            factor_product(draw(nonzero_rats), draw(POWERS)),
        )
    return a, b


_S = RatFun.variable()


@example(((1 / ((_S - 1) * (_S + 2))), (_S + 1) / ((_S - 1) * (_S + 2))))
@example((RatFun.const(F(2, 3)), RatFun.const(0)))
@example((_S * _S + 1, _S - 4))
@given(ratfun_operands())
@seed(6862)
@settings(max_examples=120, deadline=None)
def test_ratfun_fast_paths_match_the_full_gcd_route(operands):
    a, b = operands
    for f in (a, b):
        assert structure(f) == reference_canonical(f.num, f.den)
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    cases = [
        (a + b, an * bd + bn * ad, ad * bd),
        (a - b, an * bd - bn * ad, ad * bd),
        (a * b, an * bn, ad * bd),
        (a.deriv(), an.deriv() * ad - an * ad.deriv(), ad * ad),
        (a**2, an * an, ad * ad),
    ]
    if b:
        cases.append((a / b, an * bd, ad * bn))
        cases.append((b**-1, bd, bn))
    for got, num, den in cases:
        assert structure(got) == reference_canonical(num, den)
        assert got.den.coeffs[-1] == 1
        assert poly_gcd(got.num, got.den) == 1
        assert all(type(c) is F for c in got.num.coeffs + got.den.coeffs)


@example(RatFun.const(0), 5)
@example(_S + 1, 0)
@example(1 / (_S - 1), -1)
@given(
    st.builds(
        lambda c, p, e, q: RatFun(factor_product(c, p), factor_product(e, q)),
        small_rats, POWERS, nonzero_rats, POWERS,
    ),
    st.integers(min_value=-(10**6), max_value=10**6),
)
@seed(6862)
@settings(max_examples=120, deadline=None)
def test_ratfun_times_an_int_matches_the_coerce_route(f, k):
    # the int path scales the numerator; the coerce route cancels k against d
    expected = f * RatFun.coerce(k)
    for got in (f * k, k * f):
        assert (got.n, got.d) == (expected.n, expected.d)
        assert structure(got) == reference_canonical(f.num * UniPoly.const(k), f.den)


class FractionRatFun:
    """The ``Fraction`` kernel that the int ``RatFun`` replaced, kept as a
    reference: a ``UniPoly`` pair with coprime numerator and monic
    denominator, cancelled by the ``UniPoly`` Euclidean gcd, with the same
    constant, shared-denominator and Henrici shortcuts."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, F)):
            num = UniPoly.const(num)
        if den is None:
            den = ONE
        elif isinstance(den, (int, F)):
            den = UniPoly.const(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            num, den = _cancel(num, den)
            lead = den.coeffs[-1]
            if lead != 1:
                num = num * (1 / lead)
                den = monic(den)
        else:
            den = ONE
        self.num, self.den = num, den

    @classmethod
    def _canonical(cls, num, den):
        out = object.__new__(cls)
        out.num, out.den = num, den if num else ONE
        return out

    @classmethod
    def const(cls, c):
        return cls(UniPoly.const(c))

    @classmethod
    def variable(cls):
        return cls(UniPoly([0, 1]))

    @staticmethod
    def coerce(v):
        if isinstance(v, FractionRatFun):
            return v
        if isinstance(v, UniPoly):
            return FractionRatFun(v)
        return FractionRatFun.const(v)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, F, UniPoly)):
            other = FractionRatFun.coerce(other)
        return (
            isinstance(other, FractionRatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, F, UniPoly)):
            other = FractionRatFun.coerce(other)
        if not isinstance(other, FractionRatFun):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return FractionRatFun(self.num + other.num, self.den)
        return FractionRatFun(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return FractionRatFun._canonical(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, F, UniPoly)):
            other = FractionRatFun.coerce(other)
        if not isinstance(other, FractionRatFun):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, F, UniPoly)):
            other = FractionRatFun.coerce(other)
        if not isinstance(other, FractionRatFun):
            return NotImplemented
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return FractionRatFun._canonical(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, F, UniPoly)):
            other = FractionRatFun.coerce(other)
        if not isinstance(other, FractionRatFun):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        lead = 1 / other.num.coeffs[-1]
        return self * FractionRatFun._canonical(other.den * lead, other.num * lead)

    def __rtruediv__(self, other):
        return FractionRatFun.coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            return FractionRatFun.const(1) / self ** (-n)
        return FractionRatFun._canonical(self.num**n, self.den**n)

    def eval(self, v):
        d = self.den.eval(v)
        if isinstance(d, (int, F)) and d == 0:
            raise ZeroDivisionError("pole of rational function")
        return self.num.eval(v) / d

    def deriv(self):
        if self.den.degree == 0:
            return FractionRatFun._canonical(self.num.deriv(), ONE)
        return FractionRatFun(
            self.num.deriv() * self.den - self.num * self.den.deriv(),
            self.den * self.den,
        )

    def to_text(self, var="s"):
        n = self.num.to_text(var)
        if self.den.degree == 0:
            return n
        return f"({n})/({self.den.to_text(var)})"


ONE = UniPoly.const(1)


def _cancel(num, den):
    """Divide num and den by their monic gcd; no Euclid step runs when
    either side is a constant."""
    if num.degree > 0 and den.degree > 0:
        g = poly_gcd(num, den)
        if g.degree > 0:
            return poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    return num, den


@st.composite
def unipoly_pairs(draw):
    """A (numerator, nonzero denominator) pair of ``UniPoly``s: products of
    FACTORS, which share factors to cancel, or short random coefficient
    lists."""
    if draw(st.booleans()):
        return (
            factor_product(draw(small_rats), draw(POWERS)),
            factor_product(draw(nonzero_rats), draw(POWERS)),
        )
    num = UniPoly(draw(st.lists(small_rats, max_size=4)))
    den = UniPoly(draw(st.lists(small_rats, min_size=1, max_size=4)))
    return num, den if den else UniPoly.const(draw(nonzero_rats))


def assert_same(got: RatFun, want: FractionRatFun):
    """``got`` is the reference's ``want``: the same ``num`` and ``den`` down
    to their ``Fraction`` coefficients, and the canonical int pair, so that
    ``==`` and ``hash`` agree with a fresh construction."""
    assert structure(got) == (want.num.coeffs, want.den.coeffs)
    assert all(type(c) is F for c in got.num.coeffs + got.den.coeffs)
    assert math.gcd(*got.n, *got.d) == 1 and got.d[-1] > 0
    fresh = RatFun(want.num, want.den)
    assert got == fresh and hash(got) == hash(fresh)
    assert got.to_text() == want.to_text()


@example((upoly(2), upoly(-4)), (upoly(0, -3), upoly(6, 6)), F(-1, 2), -2, [0] * 5)
@example((upoly(-1, 0, 1), upoly(-2, 2)), (UniPoly(), upoly(3)), F(0), -1, [1, 0, 0, 0, 0])
@given(unipoly_pairs(), unipoly_pairs(), small_rats, st.integers(-3, 3), POWERS)
@seed(1210)
@settings(max_examples=150, deadline=None)
def test_int_kernel_matches_the_fraction_reference(p, q, c, k, powers):
    a, b = RatFun(*p), RatFun(*q)
    ra, rb = FractionRatFun(*p), FractionRatFun(*q)
    assert_same(a, ra)
    assert_same(b, rb)
    # the same function by another route: both sides times one polynomial
    g = factor_product(c or 1, powers)
    assert_same(RatFun(p[0] * g, p[1] * g), ra)
    cases = [
        (a + b, ra + rb),
        (a - b, ra - rb),
        (a * b, ra * rb),
        (a + c, ra + c),
        (c - a, c - ra),
        (a * c, ra * c),
        (a * p[1], ra * p[1]),
        (a.deriv(), ra.deriv()),
    ]
    if b:
        cases += [(a / b, ra / rb), (c / b, c / rb), (b**-1, rb**-1), ((a * b) / b, ra)]
    else:
        with pytest.raises(PoleError):
            a / b
    if a or k >= 0:
        cases.append((a**k, ra**k))
    for got, want in cases:
        assert_same(got, want)
    assert (a == b) == (ra == rb)
    assert (a == c) == (ra == c)
    assert (a == p[0]) == (ra == p[0])
    for v in (F(0), F(1), F(-1), c):
        try:
            want = ra.eval(v)
        except ZeroDivisionError:
            with pytest.raises(PoleError):
                a.eval(v)
        else:
            got = a.eval(v)
            assert got == want and type(got) is F


CATALOG = load_catalog()
CATALOG_PAIRS = [(e.name, tuple(mar.m)) for e in CATALOG for mar in e.marginals]


@pytest.mark.parametrize("name,m", CATALOG_PAIRS)
def test_groebner_over_the_int_kernel_matches_the_fraction_reference(name, m):
    entry = get_entry(CATALOG, name)
    bases = []
    for ring in (RatFun, FractionRatFun):
        w = entry.polynomial.polynomial().map_coeffs(ring.coerce)
        w = w + MultiPoly.monomial(m, ring.variable())
        basis, staircase, table = groebner([w.partial(i) for i in range(3)], entry.polynomial.charges, name)
        cells = [{e: (c.num.coeffs, c.den.coeffs) for e, c in row.items()} for row in table.values()]
        bases.append(
            ([{e: (c.num.coeffs, c.den.coeffs) for e, c in g.terms.items()} for g in basis], staircase, cells)
        )
    assert len(CATALOG_PAIRS) == 25
    assert bases[0] == bases[1]


def test_unipoly_keeps_fraction_coefficients():
    p = UniPoly([1, F(1, 2), 0])
    assert p.coeffs == (F(1), F(1, 2))
    assert all(type(c) is F for c in p.coeffs)


# ---------------------------------------------------------------- MultiPoly


def x(i):
    return MultiPoly.monomial(tuple(int(j == i) for j in range(3)))


def test_multipoly_ring():
    w = x(0) ** 3 + x(1) ** 3 + x(2) ** 3
    assert w.partial(0) == 3 * x(0) ** 2
    assert w.terms.get((3, 0, 0)) == 1
    assert (w - w) == MultiPoly.zero()


def hessian_det(f: MultiPoly) -> MultiPoly:
    """det Hess(f), by the Laplace expansion along the first row: the
    reference that the tests of ``jacobi`` compare Hessians with."""
    h = [[f.partial(i).partial(j) for j in range(3)] for i in range(3)]
    return (
        h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
        - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
        + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
    )


def test_multipoly_hessian_fermat():
    w = x(0) ** 3 + x(1) ** 3 + x(2) ** 3
    assert hessian_det(w) == 216 * (x(0) * x(1) * x(2))


@seed(0)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)), max_size=6),
       st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
def test_hessian_layers_are_the_sigma_layers_of_the_hessian(terms, m):
    # det Hess(w + sigma*phi) is cubic in sigma; its sigma^0 layer is
    # det Hess(w), and its sigma^1 layer is the odd part at sigma = +-1
    # less the sigma^3 layer det Hess(phi), by the Laplace reference
    w = MultiPoly([((a, b, c), k) for a, b, c, k in terms])
    phi = MultiPoly.monomial(m, 1)
    d0, d1 = w.hessian_layers(phi)
    odd = hessian_det(w + phi) - hessian_det(w - phi)
    assert d0 == hessian_det(w)
    assert d1 == odd.map_coeffs(lambda c: c // 2) - hessian_det(phi)
    assert all(type(c) is int for c in [*d0.terms.values(), *d1.terms.values()])


def test_multipoly_merges_a_repeated_exponent():
    # the coefficients of a repeated exponent add up, and a term whose
    # coefficients cancel is dropped
    assert MultiPoly([((1, 0, 0), F(1, 2)), ((1, 0, 0), F(1, 3))]).terms == {(1, 0, 0): F(5, 6)}
    cancelled = MultiPoly([((1, 0, 0), 2), ((0, 1, 0), 1), ((1, 0, 0), -2)])
    assert cancelled.terms == {(0, 1, 0): 1}


def test_multipoly_times_a_scalar():
    w = x(0) ** 2 + x(1)
    assert w * F(1, 2) == F(1, 2) * w == w.scale(F(1, 2))
    assert (w * F(1, 2)).terms == {(2, 0, 0): F(1, 2), (0, 1, 0): F(1, 2)}
    assert w * 0 == w.scale(0) == MultiPoly.zero()
    assert not w.scale(0).terms


def test_multipoly_is_immutable_and_adds_only_polynomials():
    w = x(0) + x(1)
    with pytest.raises(AttributeError, match="^MultiPoly is immutable$"):
        w.terms = {}
    for other in (1, F(1, 2)):
        with pytest.raises(TypeError):
            w + other
        with pytest.raises(TypeError):
            w - other
    assert w.terms == {(1, 0, 0): 1, (0, 1, 0): 1}


def test_multipoly_text():
    w = x(0) ** 2 * x(2) - F(2, 3) * x(1) + MultiPoly.const(F(-5, 2))
    assert w.to_text() == "X1^2*X3 + (-2/3)*X2 + (-5/2)"
    assert repr(w) == "MultiPoly(X1^2*X3 + (-2/3)*X2 + (-5/2))"
    assert MultiPoly.const(4).to_text() == "(4)"
    assert MultiPoly.zero().to_text() == "0"


def test_monomials_of_weighted_degree():
    ms = monomials_of_weighted_degree((F(1, 3), F(1, 3), F(1, 3)), F(1))
    assert (1, 1, 1) in ms and (3, 0, 0) in ms
    assert all(sum(e) == 3 for e in ms)


# ------------------------------------------------------------ linear algebra


def test_solve_linear():
    rows = [[F(1), F(2)], [F(3), F(4)]]
    sol = solve_linear(rows, [F(5), F(6)])
    assert sol == [F(-4), F(9, 2)]
    with pytest.raises(NoSolution):
        solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])


def test_solve_linear_underdetermined():
    sol = solve_linear([[F(1), F(1)]], [F(3)])
    assert sol[0] + sol[1] == 3


def test_nullspace():
    ns = nullspace([[F(1), F(1), F(0)], [F(0), F(0), F(1)]], 3)
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] == 0 and v[2] == 0


@given(st.lists(st.lists(small_rats, min_size=3, max_size=3), min_size=2, max_size=3), st.lists(small_rats, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solve_linear_property(rows, xvec):
    # build a consistent system, solve it, check the residual
    rhs = [sum(r[j] * xvec[j] for j in range(3)) for r in rows]
    sol = solve_linear([list(r) for r in rows], rhs)
    for r, b in zip(rows, rhs):
        assert sum(r[j] * sol[j] for j in range(3)) == b


def test_int_pivots_give_exact_fractions():
    sol = solve_linear([[2, 1], [0, 3]], [1, 1])
    assert sol == [F(1, 3), F(1, 3)]
    assert all(type(x) is F for x in sol)
    ns = nullspace([[2, 1]], 2)
    assert ns == [[F(-1, 2), 1]]
    assert type(ns[0][0]) is F


def test_nullspace_of_no_rows_is_the_unit_basis():
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _dense_rref(rows, ncols):
    """Dense Gauss-Jordan elimination, the reference for the sparse kernel:
    returns the reduced rows and the pivot columns."""
    m = len(rows)
    a = [list(r) for r in rows]
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv if v else v for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [vi - f * vr if vr else vi for vi, vr in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return a, piv_cols


def _reference_solve(rows, rhs, ncols):
    """Particular solution with free variables 0, or None if inconsistent."""
    a, piv_cols = _dense_rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in a[len(piv_cols):]):
        return None
    x = [0] * ncols
    for i, c in enumerate(piv_cols):
        x[c] = a[i][ncols]
    return x


def _reference_nullspace(rows, ncols):
    a, piv_cols = _dense_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in piv_cols:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, c in enumerate(piv_cols):
            v[c] = -a[i][fc]
        basis.append(v)
    return basis


def _sparse_system(seed):
    """A seeded sparse rational system of up to 12 x 14, some rows copies or
    combinations of others, with a consistent or an arbitrary right side."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 12), rng.randint(1, 14)
    density = rng.choice((0.1, 0.25, 0.5))

    def cell():
        if rng.random() >= density:
            return F(0)
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.2:
            u, w = rng.choice(rows), rng.choice(rows)
            k = F(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([x + k * y for x, y in zip(u, w)])
        else:
            rows.append([cell() for _ in range(n)])
    if rng.random() < 0.5:
        x = [cell() for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = [cell() for _ in range(m)]
    return rows, rhs, n


def _growth_system(seed):
    """A seeded int system with entries up to 10**6 and a right side whose
    denominators are coprime, with all-zero rows inserted and, half the
    time, a row that is zero on A but not on b."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 9), rng.randint(1, 9)
    primes = (1, 2, 3, 5, 7, 11, 13)

    def big():
        return rng.randint(-(10**6), 10**6)

    rows = [[big() if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x = [F(big(), rng.choice(primes)) for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = [F(big(), rng.choice(primes)) for _ in range(m)]
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(rows) + 1)
        rows.insert(k, [0] * n)
        rhs.insert(k, F(0))
    if rng.random() < 0.5:
        k = rng.randrange(len(rows) + 1)
        rows.insert(k, [0] * n)
        rhs.insert(k, F(1, rng.choice(primes)))
    return rows, rhs, n


def assert_kernel_matches_dense_reference(rows, rhs, n):
    """``solve_linear`` and ``nullspace`` equal the dense ``Fraction``
    elimination, every solution cell is a ``Fraction`` or 0, and the inputs
    are left unchanged."""
    before = copy.deepcopy((rows, rhs))
    exact = [[F(v) for v in row] for row in rows]
    want = _reference_solve(exact, rhs, n)
    if want is None:
        with pytest.raises(NoSolution):
            solve_linear(rows, rhs, n)
    else:
        got = solve_linear(rows, rhs, n)
        assert got == want
        assert all(type(v) is F for v in got if v)
    kernel = nullspace(rows, n)
    assert kernel == _reference_nullspace(exact, n)
    # One elimination of [A | -b] gives both: the solution is the last
    # kernel vector when its last coordinate is 1, the rest is ker A.
    augmented = nullspace([row + [-b] for row, b in zip(rows, rhs)], n + 1)
    if want is None:
        assert not any(v[n] for v in augmented)
        assert [v[:n] for v in augmented] == kernel
    else:
        assert augmented[-1][n] == 1
        assert augmented[-1][:n] == want
        assert [v[:n] for v in augmented[:-1]] == kernel
    assert (rows, rhs) == before


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_sparse_kernel_matches_dense_reference(seed):
    assert_kernel_matches_dense_reference(*_sparse_system(seed))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@seed(6862)
@settings(max_examples=100, deadline=None)
def test_large_int_rows_match_dense_reference(seed):
    assert_kernel_matches_dense_reference(*_growth_system(seed))


def test_inverse_of_int_rows_is_exact():
    inv = inverse([[2, 1], [0, 3]])
    assert inv == [[F(1, 2), F(-1, 6)], [0, F(1, 3)]]
    assert type(inv[0][0]) is F
    with pytest.raises(NoSolution):
        inverse([[1, 2], [2, 4]])


@pytest.mark.parametrize(
    "rows",
    [[[1, 2]], [[1], [2]], [{0: 1, 1: 2}], [[1, 2, 0], [0, 1, 0]]],
    ids=["wide", "tall", "wide-dict", "zero-column"],
)
def test_inverse_of_a_non_square_matrix_is_a_domain_error(rows):
    # unchecked, [[1, 2]] would put its identity column on column 1 of A
    # and invert to [[1]]
    with pytest.raises(DomainError, match=rf"^inverse: the matrix is not square: {len(rows)} row\(s\), one of them "):
        inverse(rows)


@pytest.mark.parametrize(
    "call, cell",
    [
        (lambda: solve_linear([[F(3, 2), 1]], [1.5]), "1.5"),
        (lambda: solve_columns([[1, 2]], [[0.5]]), "0.5"),
        (lambda: nullspace([[F(1, 2), 0.25]], 2), "0.25"),
        (lambda: inverse([[RatFun.variable()]]), re.escape(repr(RatFun.variable()))),
    ],
    ids=["solve_linear", "solve_columns", "nullspace", "inverse-ratfun"],
)
def test_a_cell_that_is_not_an_int_or_a_fraction_is_a_domain_error(call, cell):
    with pytest.raises(DomainError, match=rf"^matrix cell {cell} is not an int or a Fraction$"):
        call()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_inverse_matches_one_solve_per_column(seed):
    rows, _, n = _sparse_system(seed)
    k = min(len(rows), n)
    square = [row[:k] for row in rows[:k]]
    # most sparse squares are singular; a shifted diagonal is mostly not
    shifted = [
        [x + (seed % 7 + 1) * (i == j) for j, x in enumerate(row)]
        for i, row in enumerate(square)
    ]
    for matrix in (square, shifted):
        before = copy.deepcopy(matrix)
        columns = [
            _reference_solve(matrix, [F(int(i == j)) for i in range(k)], k)
            for j in range(k)
        ]
        if None in columns:
            with pytest.raises(NoSolution):
                inverse(matrix)
        else:
            assert inverse(matrix) == [[col[i] for col in columns] for i in range(k)]
        assert matrix == before


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_dict_rows_solve_like_list_rows(seed):
    rows, rhs, n = _sparse_system(seed)
    # {column: value} rows of the nonzero cells, some with explicit zeros
    dict_rows = [
        {c: v for c, v in enumerate(row) if v or c % 3 == seed % 3} for row in rows
    ]
    before = copy.deepcopy(dict_rows)
    try:
        want = solve_linear(rows, rhs, n)
    except NoSolution:
        with pytest.raises(NoSolution):
            solve_linear(dict_rows, rhs, n)
    else:
        assert solve_linear(dict_rows, rhs, n) == want
    assert nullspace(dict_rows, n) == nullspace(rows, n)
    k = min(len(rows), n)
    shifted = [
        [x + (i == j) for j, x in enumerate(row[:k])] for i, row in enumerate(rows[:k])
    ]
    try:
        want_inv = inverse(shifted)
    except NoSolution:
        want_inv = None
    dict_shifted = [{c: v for c, v in enumerate(row) if v} for row in shifted]
    if want_inv is None:
        with pytest.raises(NoSolution):
            inverse(dict_shifted)
    else:
        assert inverse(dict_shifted) == want_inv
    assert dict_rows == before
