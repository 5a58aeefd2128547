"""Milnor algebras, residues, Jacobian-ideal decompositions, flat sections,
and the genus-zero correlators of the deformed singularities at sigma = 0."""

import hashlib
import json
import random
import re
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from ises import jacobi
from ises.isespoly import (
    CatalogEntry,
    MarginalData,
    SchemaError,
    _default_catalog_text,
    get_entry,
    load_catalog,
)
from ises.jacobi import (
    FlatSectionApprox,
    IntegralDegree,
    JacobianAlgebra,
    groebner,
    order_key,
)
from ises.numcore import (
    DomainError,
    MultiPoly,
    NoSolution,
    RatFun,
    UniPoly,
    monomials_of_weighted_degree,
    nullspace,
    scaled_ints,
    solve_columns,
    solve_linear,
)
from ises.pfsolve import weight_report
from test_numcore import _reference_nullspace, _reference_solve

CATALOG = load_catalog()

_ALGEBRAS: dict[tuple[str, tuple[int, int, int]], JacobianAlgebra] = {}


def algebra(name: str, m=None) -> JacobianAlgebra:
    entry = get_entry(CATALOG, name)
    mvec = tuple(m if m is not None else entry.marginals[0].m)
    key = (name, mvec)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = JacobianAlgebra(entry, mvec)
    return _ALGEBRAS[key]


def mono(exps, c=F(1)) -> MultiPoly:
    return MultiPoly.monomial(tuple(exps), RatFun.coerce(c))


def sigma_poly(coeffs) -> RatFun:
    return RatFun(UniPoly([F(c) for c in coeffs]))


def build(parts) -> MultiPoly:
    """A polynomial from {exponents: sigma-coefficient list}."""
    g = MultiPoly.zero()
    for exps, coeffs in parts.items():
        g = g + MultiPoly.monomial(tuple(exps), sigma_poly(coeffs))
    return g


ALL_PAIRS = [
    (entry.name, tuple(mar.m)) for entry in CATALOG for mar in entry.marginals
]


def degree(alg: JacobianAlgebra, e) -> F:
    """The weighted degree of X^e under the charges of ``alg``."""
    return sum((w * x for w, x in zip(alg.weights, e)), F(0))


# ---------------------------------------------------------------------------
# The Q(sigma) reference route: normal forms by division over the Groebner
# basis of W_sigma, the Grothendieck residue read off them, and coordinates
# over the display basis by the inverse change of basis.  The package reads
# residues and coordinates from int eliminations instead; these are what it
# is compared with.
# ---------------------------------------------------------------------------


def normal_form(f: MultiPoly, basis, weights) -> MultiPoly:
    """Remainder of multivariate division of ``f`` by ``basis``, by the
    plain division ``_ref_reduce`` below.  Every term of the result is
    divisible by no leading monomial of ``basis``; over a Groebner basis it
    is the unique normal form.  Coefficients follow the coefficient field of
    the inputs."""
    return _ref_reduce(f, basis, order_key(weights))


def q_sigma_nf(alg: JacobianAlgebra, f: MultiPoly) -> MultiPoly:
    """The normal form of ``f`` modulo the Jacobian ideal of W_sigma over
    Q(sigma), over the staircase of ``alg.groebner_basis``."""
    return normal_form(f, alg.groebner_basis, alg.weights)


# the socle coefficient of each algebra's Hessian, held while the algebra lives
_HESSIAN_SOCLE: "weakref.WeakKeyDictionary[JacobianAlgebra, RatFun]" = weakref.WeakKeyDictionary()


def reference_residue(alg: JacobianAlgebra, f: MultiPoly) -> RatFun:
    """The Grothendieck residue of ``f`` over Q(sigma): the coefficient of
    its normal form on the socle (the last standard monomial), normalized
    so that the Hessian determinant has residue mu."""
    socle = alg.staircase[-1]
    if alg not in _HESSIAN_SOCLE:
        hessian = q_sigma_nf(alg, alg.w_sigma.hessian_det())
        assert set(hessian.terms) == {socle}  # the Hessian spans the socle
        _HESSIAN_SOCLE[alg] = hessian.terms[socle]
    c = RatFun.coerce(q_sigma_nf(alg, f).terms.get(socle, 0))
    return c * len(alg.staircase) / _HESSIAN_SOCLE[alg]


def reference_threepoint(alg: JacobianAlgebra, xi: MultiPoly) -> RatFun:
    """The three-point function at the product ``xi`` over Q(sigma): the
    reference residue times K (exact at sigma = 0 through first order)."""
    return reference_residue(alg, xi) * alg.k_constant


def reference_coords(alg: JacobianAlgebra, f: MultiPoly) -> dict:
    """The coordinates of ``f`` modulo the Jacobian ideal over the display
    basis, over Q(sigma): its staircase coordinates solved against those of
    the display basis, a basis at sigma = 0 and so invertible over Q(sigma)."""
    zero = RatFun.const(0)
    columns = [q_sigma_nf(alg, mono(b)).terms for b in alg.basis]
    rows = [[col.get(e, zero) for col in columns] for e in alg.staircase]
    nf = q_sigma_nf(alg, f).terms
    x = _reference_solve(rows, [RatFun.coerce(nf.get(e, 0)) for e in alg.staircase], len(alg.basis))
    return {b: c for b, c in zip(alg.basis, x) if c}


def flat_polynomial(flat: FlatSectionApprox) -> MultiPoly:
    """The flat section phi_r + sigma * sum c' phi_r' over Q(sigma)."""
    out = mono(flat.r)
    for e, c in flat.corrections:
        out = out + mono(e, RatFun.variable() * c)
    return out


# ---------------------------------------------------------------------------
# Groebner engine and quotient structure
# ---------------------------------------------------------------------------


def test_groebner_keeps_an_already_reduced_triple():
    gens = [mono((2, 0, 0)), mono((0, 2, 0)) + mono((0, 0, 2), F(-3)), mono((0, 0, 3))]
    assert set(groebner(gens, (F(1, 3), F(1, 3), F(1, 3)), "triple")[0]) == set(gens)


def test_groebner_refuses_two_generators():
    # the degree bound lies below both generators' degree, so the
    # elimination would return no member where the basis is (X2, X3)
    gens = [mono((0, 1, 0), F(-1)) + mono((0, 0, 1), F(-3)), mono((0, 1, 0), F(-3))]
    q = (F(1, 3), F(1, 3), F(1, 3))
    assert reference_groebner(gens, q) == (mono((0, 0, 1)), mono((0, 1, 0)))
    with pytest.raises(DomainError, match="^groebner needs 3 nonzero weighted-homogeneous generators$"):
        groebner(gens, q, "pair")


@pytest.mark.parametrize(
    "gens",
    [
        pytest.param([mono((2, 0, 0)), mono((0, 2, 0)), mono((0, 0, 2)), mono((1, 1, 1))], id="four"),
        pytest.param([mono((2, 0, 0)), mono((0, 2, 0)), mono((0, 0, 2)) + mono((0, 0, 1))], id="inhomogeneous"),
        pytest.param([mono((2, 0, 0)), mono((0, 2, 0)), MultiPoly.zero()], id="zero"),
    ],
)
def test_groebner_refuses_generators_outside_its_precondition(gens):
    with pytest.raises(DomainError, match="^groebner needs 3 nonzero weighted-homogeneous generators$"):
        groebner(gens, (F(1, 3), F(1, 3), F(1, 3)), "gens")


def test_groebner_refuses_three_generators_that_are_no_regular_sequence():
    # (X1X2, X2X3, X1X3) leaves every power of each variable standard: with
    # the socle degree 6 - 3 = 3 and the largest weight 1, the elimination
    # reaches degree 4, where X1^4, X2^4 and X3^4 are standard, and counts
    # 1 + 3 + 3 + 3 + 3 = 13 standard monomials where a regular sequence of
    # three quadrics has 8
    gens = [mono(e, F(1)) for e in ((1, 1, 0), (0, 1, 1), (1, 0, 1))]
    q = get_entry(CATALOG, "e6-fermat").polynomial.charges
    message = (
        "^e6-fermat: the staircase has 13 monomials, 3 above the socle degree, "
        "not 8 and none: the generators are no regular sequence$"
    )
    with pytest.raises(DomainError, match=message):
        groebner(gens, q, "e6-fermat")


@pytest.mark.parametrize("cell", [3, 3.0], ids=["int", "float"])
def test_groebner_refuses_int_and_float_cells(cell):
    # an int cell would divide to a float; the entry and the cell are named
    q = get_entry(CATALOG, "e6-fermat").polynomial.charges
    gens = [MultiPoly.monomial((2, 0, 0), cell), mono((0, 2, 0), F(3)), mono((0, 0, 2), F(3))]
    kind, shown = type(cell).__name__, re.escape(repr(cell))
    message = rf"^e6-fermat: groebner needs cells in a field, not the {kind} {shown} at \(2, 0, 0\)$"
    with pytest.raises(DomainError, match=message):
        groebner(gens, q, "e6-fermat")


def test_order_prefers_fewer_powers_of_late_variables():
    key = order_key((F(1, 3), F(1, 3), F(1, 3)))
    # Same degree: X1^2 > X1*X2 > X2^2 > X1*X3 > X2*X3 > X3^2.
    ordered = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(ordered, key=key, reverse=True) == ordered


# Plain Buchberger, the reference for ``groebner``: pairs in index order,
# only the coprime criterion, members scaled to monic only at the end.  The
# reduced Groebner basis of an ideal under a fixed order is unique, so the
# two must agree exactly.


def _ref_leading(f, key):
    e = max(f.terms, key=key)
    return e, f.terms[e]


def _ref_reduce(f, basis, key):
    remainder = MultiPoly.zero()
    while f:
        le, lc = _ref_leading(f, key)
        for g in basis:
            ge, gc = _ref_leading(g, key)
            if all(a <= b for a, b in zip(ge, le)):
                shift = tuple(b - a for a, b in zip(ge, le))
                f = f - g * MultiPoly.monomial(shift, lc / gc)
                break
        else:
            mono = MultiPoly.monomial(le, lc)
            remainder = remainder + mono
            f = f - mono
    return remainder


def reference_groebner(gens, weights):
    """Buchberger's algorithm with pairs taken in index order and only the
    coprime-leading-term criterion; the result is reduced, monic, sorted."""
    key = order_key(weights)
    basis = [g for g in gens if g]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    while pairs:
        i, j = min(pairs)
        pairs.discard((i, j))
        fe, fc = _ref_leading(basis[i], key)
        ge, gc = _ref_leading(basis[j], key)
        lcm = tuple(map(max, fe, ge))
        if lcm == tuple(a + b for a, b in zip(fe, ge)):
            continue
        s = basis[i] * MultiPoly.monomial(
            tuple(a - b for a, b in zip(lcm, fe)), 1 / fc
        ) - basis[j] * MultiPoly.monomial(tuple(a - b for a, b in zip(lcm, ge)), 1 / gc)
        s = _ref_reduce(s, basis, key)
        if s:
            pairs.update((len(basis), k) for k in range(len(basis)))
            basis.append(s)
    lts = [_ref_leading(g, key)[0] for g in basis]
    kept = [
        g
        for i, g in enumerate(basis)
        if not any(
            j != i
            and all(a <= b for a, b in zip(lts[j], lts[i]))
            and (lts[j] != lts[i] or j < i)
            for j in range(len(basis))
        )
    ]
    out = []
    for i, g in enumerate(kept):
        r = _ref_reduce(g, kept[:i] + kept[i + 1 :], key)
        out.append(r.scale(1 / _ref_leading(r, key)[1]))
    out.sort(key=lambda g: key(_ref_leading(g, key)[0]))
    return tuple(out)


def reference_staircase(basis, weights):
    """The exponents that no leading monomial of the Groebner basis
    ``basis`` divides, in ascending ``order_key``: the complement of its
    leading monomials in the box that their least pure powers bound."""
    key = order_key(weights)
    lts = [_ref_leading(g, key)[0] for g in basis]
    bounds = [min(t[i] for t in lts if not any(t[:i] + t[i + 1 :])) for i in range(3)]
    box = [(a, b, c) for a in range(bounds[0]) for b in range(bounds[1]) for c in range(bounds[2])]
    return tuple(sorted((e for e in box if not any(all(map(int.__le__, t, e)) for t in lts)), key=key))


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_groebner_equals_plain_buchberger_on_the_catalog(name, m):
    alg = algebra(name, m)
    want = reference_groebner(alg.partials, alg.weights)
    assert groebner(alg.partials, alg.weights, name) == (want, reference_staircase(want, alg.weights))
    assert (alg.groebner_basis, alg.staircase) == (want, reference_staircase(want, alg.weights))
    w = alg.entry.polynomial.polynomial().map_coeffs(F)
    want = reference_groebner([w.partial(i) for i in range(3)], alg.weights)
    assert groebner([w.partial(i) for i in range(3)], alg.weights, name)[0] == want
    assert alg.basis == reference_staircase(want, alg.weights)


def random_deformation(rng):
    """The partials over Q of W + s*X^m for a catalog pair (W, X^m) and a
    small random rational s, with the pair's constants C and l."""
    entry = get_entry(CATALOG, rng.choice(ALL_PAIRS)[0])
    mar = rng.choice(entry.marginals)
    s = F(rng.randint(-9, 9), rng.randint(1, 9))
    w = entry.polynomial.polynomial().map_coeffs(F) + MultiPoly.monomial(mar.m, s)
    return [w.partial(i) for i in range(3)], entry.polynomial.charges, 1 - mar.C * s**mar.l


@given(st.integers(min_value=0, max_value=2**32 - 1))
@seed(1210)
@settings(max_examples=80, deadline=None)
def test_groebner_equals_plain_buchberger_on_random_ideals(s):
    # Off the discriminant 1 - C*s^l = 0 the fibre W + s*X^m is a
    # nondegenerate singularity, so its partials form a regular sequence.
    gens, weights, discriminant = random_deformation(random.Random(s))
    assume(discriminant != 0)
    want = reference_groebner(gens, weights)
    assert groebner(gens, weights, "random") == (want, reference_staircase(want, weights))


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_quotient_dimension_is_the_milnor_number(name, m):
    alg = algebra(name, m)
    mu = get_entry(CATALOG, name).polynomial.milnor_number
    assert len(alg.staircase) == len(alg.basis) == mu


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_hessian_residue_is_the_milnor_number(name, m):
    # The Hessian as a sum of degree-one monomials with coefficients
    # h_e(sigma): its residue sum_e h_e * R_e, read through first order from
    # the monomials' jets, is mu, and so is the reference residue.
    alg = algebra(name, m)
    hessian = alg.w_sigma.hessian_det()
    value = derivative = 0
    for e, h in hessian.terms.items():
        r0, r1 = alg._jets[e]
        value += h.num.coeff(0) * r0
        derivative += h.num.coeff(0) * r1 + h.num.coeff(1) * r0
    assert (value, derivative) == (len(alg.basis), 0)
    assert reference_residue(alg, hessian) == RatFun.const(len(alg.staircase))


def test_normal_form_fixes_standard_monomials():
    for name in ("e6-fermat", "e8-chain32"):
        alg = algebra(name)
        for e in alg.staircase:
            assert q_sigma_nf(alg, mono(e)) == mono(e)


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_the_normal_form_table_equals_division(name, m):
    # The elimination of a degree holds, at each leading monomial t, the row
    # t minus the normal form of t: so each member of the Q(sigma) basis is
    # t - normal_form(t) under plain division.  And division over the basis
    # leaves one remainder whatever the order of the divisors, as over any
    # Groebner basis, on every monomial up to the socle degree plus the
    # largest weight and on the Hessian.
    alg = algebra(name, m)
    basis, key = alg.groebner_basis, order_key(alg.weights)
    for g in basis:
        t = mono(max(g.terms, key=key))
        assert g == t - q_sigma_nf(alg, t)
    w, scale = scaled_ints(alg.weights)
    top = scale + max(w)
    exps = [
        (a, b, c)
        for a in range(top // w[0] + 1)
        for b in range(top // w[1] + 1)
        for c in range(top // w[2] + 1)
        if w[0] * a + w[1] * b + w[2] * c <= top
    ]
    for f in [mono(e) for e in exps] + [alg.w_sigma.hessian_det()]:
        assert q_sigma_nf(alg, f) == _ref_reduce(f, basis[::-1], key)


def test_the_staircase_of_a_monomial_ideal_is_its_complement():
    entry = get_entry(CATALOG, "e6-fermat")
    q = entry.polynomial.charges
    squares = [MultiPoly.monomial(e, F(1)) for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
    basis, cube = groebner(squares, q, entry.name)
    assert basis == tuple(squares[::-1])  # ascending leading monomials
    assert sorted(cube) == [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    assert list(cube) == sorted(cube, key=order_key(q))


def test_a_constant_in_the_basis_leaves_an_empty_staircase():
    # the constant generator 1 spans every degree: the basis is (1) and its
    # staircase is empty, as the product 0 * 1 * 1 of the degrees asks
    q = get_entry(CATALOG, "e6-fermat").polynomial.charges
    gens = [MultiPoly.const(F(1)), MultiPoly.monomial((0, 1, 0), F(1)), MultiPoly.monomial((0, 0, 1), F(1))]
    assert groebner(gens, q, "e6-fermat") == ((MultiPoly.const(F(1)),), ())


@pytest.mark.parametrize("over", ["Q(sigma)", "Q"])
def test_a_short_staircase_fails_its_certification_when_it_is_built(over, monkeypatch):
    # An elimination that also pivots on the one standard monomial of the
    # socle degree leaves a staircase one monomial short of mu: over Q it
    # fails at construction, and over Q(sigma), which construction never
    # builds, at its first read.  A column up to the last one that the rows
    # reach is a monomial of their degree, standard if no pivot is on it;
    # for e6-fermat the socle degree is the only one with rows that leaves
    # exactly one such column, over Q and over Q(sigma).
    real, perturbed = jacobi._monic_rref, []
    field = RatFun if over == "Q(sigma)" else F

    def pivots_once_more(rows):
        ours = any(isinstance(c, field) for row in rows for c in row.values())
        last = max((k for row in rows for k in row), default=0)
        pivots = real(rows)
        free = [c for c in range(last + 1) if c not in pivots]
        if ours and len(free) == 1 and not perturbed:
            perturbed.append(free[0])
            pivots[free[0]] = {free[0]: 1}
        return pivots

    monkeypatch.setattr(jacobi, "_monic_rref", pivots_once_more)
    entry = get_entry(CATALOG, "e6-fermat")
    error = (
        f"^e6-fermat over {re.escape(over)}: the staircase has 7 monomials, 0 above the socle degree, "
        "not 8 and none: the generators are no regular sequence$"
    )
    if over == "Q":
        with pytest.raises(DomainError, match=error):
            JacobianAlgebra(entry)
    else:
        alg = JacobianAlgebra(entry)
        with pytest.raises(DomainError, match=error):
            alg.staircase


def test_coords_are_dual_to_the_display_basis():
    for name in ("e6-fermat", "e7-chain34", "e8-chain32"):
        alg = algebra(name)
        for b in alg.basis:
            assert reference_coords(alg, mono(b)) == {b: RatFun.const(1)}


def test_unique_top_monomial_per_display_basis():
    for name, m in ALL_PAIRS:
        alg = algebra(name, m)
        tops = [e for e in alg.basis if degree(alg, e) == 1]
        assert tops == [alg.top_monomial]


# ---------------------------------------------------------------------------
# Residue values
# ---------------------------------------------------------------------------


def test_e6_residue_of_the_marginal_monomial():
    alg = algebra("e6-fermat")
    got = reference_residue(alg, mono((1, 1, 1)))
    assert got == RatFun(UniPoly([1]), UniPoly([27, 0, 0, 1]))
    # Same value assembled from the family constants: 1/(K*(1 - C*sigma^l)).
    mar = alg.marginal
    one_minus_x = sigma_poly([1] + [0] * (mar.l - 1) + [-mar.C])
    assert got == 1 / (one_minus_x * 27)


def test_the_marginal_monomial_has_residue_one_over_k_times_one_minus_x():
    # On every pair the Q(sigma) residue of X^m is 1/(K*(1 - C*sigma^l)),
    # with K the package's constant from the residue jets.  The top monomial
    # of the display basis has this residue only where it is X^m (10 of the
    # 25 pairs): on e6-loop22 with m = (1, 1, 1) it is -(2/9 + sigma^3/81)
    # over 1 - C*sigma^3.
    tops = 0
    for name, m in ALL_PAIRS:
        alg = algebra(name, m)
        mar = alg.marginal
        one_minus_x = sigma_poly([1] + [0] * (mar.l - 1) + [-mar.C])
        assert reference_residue(alg, mono(m)) == 1 / (one_minus_x * alg.k_constant)
        tops += reference_residue(alg, mono(alg.top_monomial)) == 1 / (one_minus_x * alg.k_constant)
    assert tops == sum(m == algebra(name, m).top_monomial for name, m in ALL_PAIRS) == 10


def test_the_residue_jets_equal_the_q_sigma_reference():
    # (R_e(0), R_e'(0)) of the one int elimination mod sigma^2 equals the
    # 1-jet of the reference residue on every degree-one monomial.
    count = 0
    for name, m in ALL_PAIRS:
        alg = algebra(name, m)
        monomials = alg.entry.polynomial.degree_one_monomials()
        assert set(alg._jets) == set(monomials)
        for e in monomials:
            r = reference_residue(alg, mono(e))
            assert alg._jets[e] == (r.eval(0), r.deriv().eval(0)), (name, m, e)
        count += len(monomials)
    assert count == 225


def test_e7_residue_values():
    alg = algebra("e7-fermat")
    mar = alg.marginal
    one_minus_x = sigma_poly([1] + [0] * (mar.l - 1) + [-mar.C])
    assert reference_residue(alg, mono((2, 2, 0))) == 1 / (one_minus_x * 32)
    assert reference_residue(alg, mono((3, 1, 0))) == RatFun.const(0)
    assert reference_residue(alg, mono((0, 0, 2))) == RatFun.const(0)
    # X1^4 and X2^4 pair with a half-integral power of x = sigma^2/4: the
    # residue is odd in sigma, with value -(sigma/2)/(32*(1-x)).
    odd = sigma_poly([0, F(-1, 2)]) / (one_minus_x * 32)
    assert reference_residue(alg, mono((4, 0, 0))) == odd
    assert reference_residue(alg, mono((0, 4, 0))) == odd


def test_ideal_members_have_zero_residue():
    for name in ("e6-fermat", "e7-loop33", "e8-chain43"):
        alg = algebra(name)
        for i in range(3):
            f = alg.partials[i] * mono((1, 1, 0))
            assert reference_residue(alg, f) == RatFun.const(0)


def test_k_constant_matches_catalog_where_stored():
    for name, expected in [("e6-fermat", 27), ("e7-fermat", 32), ("e8-fermat", 36)]:
        assert algebra(name).k_constant == expected
    # The unit pairs to one against the marginal monomial at sigma = 0.
    for name, m in ALL_PAIRS:
        alg = algebra(name, m)
        pairing = reference_threepoint(alg, mono(alg.marginal.m))
        assert pairing.eval(0) == 1


@pytest.mark.parametrize("name", [e.name for e in CATALOG])
def test_gram_matrix_is_nondegenerate(name):
    alg = algebra(name)
    rows = [
        [reference_threepoint(alg, mono(a) * mono(b)) for b in alg.basis] for a in alg.basis
    ]
    assert _reference_nullspace(rows, len(alg.basis)) == []
    for i in range(len(alg.basis)):
        for j in range(i):
            assert rows[i][j] == rows[j][i]


def test_the_sigma_zero_basis_status_of_every_pair():
    """The matrix K residue(a b)(0) over the display basis is invertible
    for all 25 pairs: the display basis is the staircase of W over Q, a
    basis of the algebra at sigma = 0."""
    singular = set()
    for name, m in ALL_PAIRS:
        alg = algebra(name, m)
        rows = [
            [reference_threepoint(alg, mono(a) * mono(b)).eval(0) for b in alg.basis]
            for a in alg.basis
        ]
        if nullspace(rows, len(alg.basis)):
            singular.add((name, m))
    assert singular == set()
    assert len(ALL_PAIRS) == 25


# ---------------------------------------------------------------------------
# Jacobian-ideal decompositions
# ---------------------------------------------------------------------------

# Frozen reference decompositions: r -> three {exponents: sigma-coefficients}.
REFERENCE_DECOMPOSITIONS = {
    ("e6-fermat", (1, 0, 0)): (
        {(0, 1, 1): [F(1, 3)]},
        {(0, 0, 2): [0, F(-1, 9)]},
        {(1, 0, 1): [0, 0, F(1, 27)]},
    ),
    ("e7-fermat", (1, 0, 0)): (
        {(0, 2, 0): [F(1, 4)]},
        {(1, 1, 0): [0, F(-1, 8)]},
        {},
    ),
    ("e8-chain32", (1, 0, 0)): (
        {(0, 0, 1): [F(1, 3)], (2, 0, 0): [0, 0, F(-1, 54)]},
        {(1, 1, 0): [0, 0, F(1, 18)]},
        {(0, 1, 0): [0, F(-1, 9)]},
    ),
    ("e8-chain32", (0, 1, 0)): (
        {(2, 0, 1): [F(-1, 6)], (1, 1, 0): [0, 0, F(1, 27)]},
        {(1, 1, 1): [F(1, 2)]},
        {(2, 1, 0): [0, F(-1, 9)]},
    ),
    ("e8-chain32", (0, 0, 1)): (
        {(0, 1, 0): [0, F(-1, 9)], (1, 0, 1): [0, 0, F(-1, 54)]},
        {(0, 1, 1): [0, 0, F(1, 18)]},
        {(1, 1, 0): [F(1, 3)]},
    ),
    ("e8-fermat", (1, 0, 0)): (
        {(0, 1, 0): [F(1, 6)], (2, 0, 0): [0, 0, F(1, 27)]},
        {(3, 0, 0): [0, F(-2, 9)]},
        {},
    ),
    ("e8-fermat", (0, 1, 0)): (
        {(3, 0, 0): [0, F(-1, 18)], (1, 1, 0): [0, 0, F(1, 27)]},
        {(4, 0, 0): [F(1, 3)]},
        {},
    ),
}


def defining_sides(alg: JacobianAlgebra, r, gs):
    mar = alg.marginal
    rm = tuple(a + b for a, b in zip(r, mar.m))
    lhs = MultiPoly.monomial(rm, sigma_poly([1] + [0] * (mar.l - 1) + [-mar.C]))
    total = MultiPoly.zero()
    for g, p in zip(gs, alg.partials):
        total = total + g * p
    return lhs, total


@pytest.mark.parametrize("key", sorted(REFERENCE_DECOMPOSITIONS))
def test_reference_decompositions_satisfy_the_identity(key):
    name, r = key
    alg = algebra(name)
    gs = [build(parts) for parts in REFERENCE_DECOMPOSITIONS[key]]
    lhs, total = defining_sides(alg, r, gs)
    assert total == lhs


@pytest.mark.parametrize("key", sorted(REFERENCE_DECOMPOSITIONS))
def test_solver_decompositions_satisfy_the_identity(key):
    name, r = key
    alg = algebra(name)
    gs = alg.decompose(r)
    lhs, total = defining_sides(alg, r, gs)
    assert total == lhs


def test_solver_reproduces_reference_decompositions_where_unique_enough():
    for key in [
        ("e7-fermat", (1, 0, 0)),
        ("e8-chain32", (1, 0, 0)),
        ("e8-fermat", (1, 0, 0)),
        ("e8-fermat", (0, 1, 0)),
    ]:
        name, r = key
        got = algebra(name).decompose(r)
        want = tuple(build(parts) for parts in REFERENCE_DECOMPOSITIONS[key])
        assert got == want


def test_decompositions_cover_every_nonunit_basis_monomial():
    for name in ("e6-fermat", "e7-fermat", "e8-chain32", "e8-fermat"):
        alg = algebra(name)
        for r in alg.basis:
            if r == (0, 0, 0):
                continue
            lhs, total = defining_sides(alg, r, alg.decompose(r))
            assert total == lhs


def batch_hooks(monkeypatch, tamper=None):
    """Record the (labels, bound) of every sigma-layered decomposition system
    that ``_solve`` solves, and let ``tamper(labels, bound, sols)`` edit its
    solved columns in place.  The residue-jet system of ``__init__`` is not
    solved per degree, and the sigma^0 systems of the flat sections are cut
    below sigma^1, so neither is recorded or tampered with."""
    calls = []
    layered = []  # the (labels, bound) of the per-degree solve in progress
    real_degree, real_solve = JacobianAlgebra._solve_degree, jacobi._solve

    def solve_degree(self, deg, labels, bound, below):
        layered[:] = [(tuple(labels), bound)] if below > 1 else []
        return real_degree(self, deg, labels, bound, below)

    def solve(cells, rhs_maps, ncols):
        sols = real_solve(cells, rhs_maps, ncols)
        if layered:
            calls.append(layered.pop())
            if tamper is not None:
                tamper(*calls[-1], sols)
        return sols

    monkeypatch.setattr(JacobianAlgebra, "_solve_degree", solve_degree)
    monkeypatch.setattr(jacobi, "_solve", solve)
    return calls


E6_THIRDS = ((0, 0, 1), (0, 1, 0), (1, 0, 0))  # the e6-fermat labels of degree 1/3


def test_one_elimination_decomposes_every_label_of_a_degree(monkeypatch):
    calls = batch_hooks(monkeypatch)
    alg = JacobianAlgebra(get_entry(CATALOG, "e6-fermat"))
    got = {r: alg.decompose(r) for r in E6_THIRDS}
    assert calls == [(E6_THIRDS, 2)]
    assert got == {r: algebra("e6-fermat").decompose(r) for r in E6_THIRDS}


def test_unsolvable_decomposition_names_the_entry(monkeypatch):
    # Every ansatz shrunk to sigma-degree 0 misses the sigma^l term.
    entry = get_entry(CATALOG, "e8-fermat")
    alg = JacobianAlgebra(entry)
    real = JacobianAlgebra._ansatz
    monkeypatch.setattr(
        JacobianAlgebra,
        "_ansatz",
        lambda self, deg, bound, below: real(self, deg, 0, below),
    )
    label = re.escape(f"e8-fermat, m={entry.marginals[0].m}")
    with pytest.raises(NoSolution, match=label + r": no decomposition of \(1, 0, 0\)"):
        alg.decompose((1, 0, 0))


def test_an_unsolvable_label_raises_only_when_asked_for(monkeypatch):
    entry = get_entry(CATALOG, "e6-fermat")
    mar = entry.marginals[0]
    victim = (0, 1, 0)

    def drop_always(labels, bound, sols):
        if victim in labels:
            sols[labels.index(victim)] = None

    calls = batch_hooks(monkeypatch, drop_always)
    alg = JacobianAlgebra(entry, mar.m)
    for r in E6_THIRDS:
        if r != victim:
            assert alg.decompose(r) == algebra("e6-fermat").decompose(r)
    message = re.escape(
        f"e6-fermat, m={mar.m}: no decomposition of {victim} "
        f"with sigma-degree {mar.l - 1}"
    )
    for _ in range(2):  # memoised: asking again raises again, without a solve
        with pytest.raises(NoSolution, match=message):
            alg.decompose(victim)
    assert calls == [(E6_THIRDS, mar.l - 1)]


def test_a_wrong_solution_cell_fails_verification(monkeypatch):
    victim = (0, 1, 0)

    def plant(labels, bound, sols):
        numerators, _ = sols[labels.index(victim)]
        c = next(c for c, v in enumerate(numerators) if v)
        numerators[c] += 1

    batch_hooks(monkeypatch, plant)
    entry = get_entry(CATALOG, "e6-fermat")
    alg = JacobianAlgebra(entry)
    label = re.escape(f"e6-fermat, m={entry.marginals[0].m}")
    with pytest.raises(
        DomainError, match=label + r": decomposition of \(0, 1, 0\) failed verification"
    ):
        alg.decompose(victim)


def bside_dump() -> list[str]:
    """Every B-side output of the 25 pairs, one line each, in catalog order:
    the weight rows that the bmodel-catalog bench reports (r = 0 for each
    marginal, and the twisted rows on the first), then the staircase,
    Groebner basis and K of the algebra, each flat section of a weight-one
    triple with its decomposition, and the four-point table.
    Every value is written in a deterministic text form."""
    lines = []
    for entry in CATALOG:
        for mar in entry.marginals:
            pair = f"{entry.name} m={tuple(mar.m)}"
            rows = [(0, 0, 0)]
            if mar.m == entry.marginals[0].m:
                rows += [tuple(r) for r, _ in entry.twisted]
            for r in rows:
                lines.append(f"{pair} weight {r} {weight_report(entry, mar.m, r)!r}")
            alg = algebra(entry.name, mar.m)
            lines.append(f"{pair} staircase {alg.staircase} basis {alg.basis}")
            lines.append(f"{pair} groebner {[g.to_text() for g in alg.groebner_basis]}")
            lines.append(f"{pair} K {alg.k_constant}")
            for r in sorted({r for trip in alg.weight_one_triples() for r in trip}):
                flat = alg.flat_first_order(r)
                gs = [g.to_text() for g in alg.decompose(r)]
                lines.append(f"{pair} flat {flat!r} decomposition {gs}")
            lines.extend(
                f"{pair} fourpoint {trip} {value}"
                for trip, value in sorted(alg.fourpoint_table().items())
            )
    return lines


def test_the_bside_outputs_are_pinned():
    """The SHA-256 of ``bside_dump`` pins every B-side value: a faster path
    must leave each weight row, Groebner basis, decomposition, flat section
    and four-point value byte-identical."""
    lines = bside_dump()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        463,
        "6cf3e383bc161a9a341c3ca74e6f51e382d613f8fd0736f47807e24b5b043d7c",
    )


# The sigma^0 systems that the four-point tables of the 25 pairs solve: two
# for each of the 50 fractional degrees of a flat label, the decompositions
# and the B0 coordinates of their p(0), each with a right-hand column for
# each of the 115 basis labels of those degrees.
SIGMA_ZERO_SYSTEMS, SIGMA_ZERO_COLUMNS, FLAT_LABELS = 100, 230, 115


def test_every_catalog_decomposition_system_solves_like_the_dense_reference(
    monkeypatch,
):
    # Real traffic for the fraction-free kernel: every system that the
    # four-point tables of all 25 pairs build, the residue jets of each
    # algebra and the two sigma^0 systems of each degree of its flat
    # sections, each right-hand column solved again by the dense Fraction
    # elimination.
    systems = {"jets": [], "flats": []}
    phase = ["jets"]
    real_solve = jacobi.solve_columns

    def solve(rows, rhs, ncols):
        sols = real_solve(rows, rhs, ncols)
        systems[phase[0]].append((rows, rhs, ncols, sols))
        return sols

    monkeypatch.setattr(jacobi, "solve_columns", solve)
    for name, m in ALL_PAIRS:
        phase[0] = "jets"
        alg = JacobianAlgebra(get_entry(CATALOG, name), m)
        phase[0] = "flats"
        alg.fourpoint_table()
    assert len(ALL_PAIRS) == 25

    def shape(kind):
        return len(systems[kind]), sum(len(rhs) for _, rhs, _, _ in systems[kind])

    # one jet system per algebra: a column per degree-one monomial, and the Hessian
    assert shape("jets") == (25, 225 + 25)
    # two sigma^0 systems per fractional degree: a column per basis label each
    assert shape("flats") == (SIGMA_ZERO_SYSTEMS, SIGMA_ZERO_COLUMNS)
    for rows, rhs, n, sols in systems["jets"] + systems["flats"]:
        dense = [[F(row.get(c, 0)) for c in range(n)] for row in rows]
        for column, (x, den) in zip(rhs, sols):
            b = [F(column.get(i, 0)) for i in range(len(rows))]
            want = _reference_solve(dense, b, n)
            assert [F(v, den) for v in x] == want
            # int numerators over the lcm of the solution's denominators
            assert all(type(v) is int for v in x)
            assert (tuple(x), den) == scaled_ints(want)


def test_no_flat_correction_names_its_own_label():
    # c_{r,r}(0) = 0 by the group character (flat_first_order): X^m is never
    # invariant under the diagonal symmetries of W, as E^-T m is not integral
    flats = 0
    for name, m in ALL_PAIRS:
        entry = get_entry(CATALOG, name)
        assert any(x.denominator != 1 for x in entry.polynomial.solve_transposed(m)), (name, m)
        alg = algebra(name, m)
        alg.fourpoint_table()
        for label, flat in alg._flats.items():
            assert label not in [b for b, _ in flat.corrections], (name, m, label)
            flats += 1
    assert len(ALL_PAIRS) == 25
    assert flats == FLAT_LABELS


def test_four_point_tables_build_no_sigma_layered_decomposition(monkeypatch):
    # The flats read the sigma^0 layer only, so every ansatz that the tables
    # of all 25 pairs build has sigma-degree 0 and rows cut below sigma^1,
    # no sigma-layered decomposition system is solved, and each basis label
    # of a solved degree gets its flat memoised.
    algebras = [JacobianAlgebra(get_entry(CATALOG, name), m) for name, m in ALL_PAIRS]
    cuts, columns = [], []
    real_ansatz, real_solve = JacobianAlgebra._ansatz, jacobi._solve

    def ansatz(self, deg, bound, below):
        cuts.append((bound, below))
        return real_ansatz(self, deg, bound, below)

    def solve(cells, rhs_maps, ncols):
        columns.append(len(rhs_maps))
        return real_solve(cells, rhs_maps, ncols)

    monkeypatch.setattr(JacobianAlgebra, "_ansatz", ansatz)
    monkeypatch.setattr(jacobi, "_solve", solve)
    for alg in algebras:
        alg.fourpoint_table()
    assert set(cuts) == {(0, 1)} and len(cuts) == SIGMA_ZERO_SYSTEMS
    assert (len(columns), sum(columns)) == (SIGMA_ZERO_SYSTEMS, SIGMA_ZERO_COLUMNS)
    assert sum(len(alg._flats) for alg in algebras) == FLAT_LABELS


def test_the_q_sigma_layer_is_built_on_first_read_only(monkeypatch):
    # On all 25 pairs (the bench's 24 among them), an algebra, its flats and
    # its four-point table take one Groebner basis, of W over Q, and make no
    # RatFun; the first read of the staircase builds the one over Q(sigma),
    # and later reads of it or of its basis build nothing.
    fields, made = [], []
    real_groebner, real_make = jacobi.groebner, RatFun.__dict__["_make"].__func__

    def counted_groebner(gens, weights, name):
        fields.append({type(c) for g in gens for c in g.terms.values()})
        return real_groebner(gens, weights, name)

    def counted_make(cls, n, d):
        made.append((n, d))
        return real_make(cls, n, d)

    monkeypatch.setattr(jacobi, "groebner", counted_groebner)
    monkeypatch.setattr(RatFun, "_make", classmethod(counted_make))
    for name, m in ALL_PAIRS:
        alg = JacobianAlgebra(get_entry(CATALOG, name), m)
        for r in sorted({r for trip in alg.weight_one_triples() for r in trip}):
            alg.flat_first_order(r)
        assert alg.fourpoint_table()
        assert fields == [{F}] and not made, (name, m)
        stairs = alg.staircase
        assert fields == [{F}, {RatFun}] and made, (name, m)
        assert alg.staircase is stairs and alg.groebner_basis is alg.groebner_basis
        assert len(fields) == 2, (name, m)
        fields.clear()
        made.clear()


def sigma_zero_hooks(monkeypatch, tamper):
    """Let ``tamper(sols)`` edit the solved columns of every system solved
    from now on in place; an algebra built before the call keeps its jets."""
    real_solve = jacobi.solve_columns

    def solve(rows, rhs, ncols):
        sols = real_solve(rows, rhs, ncols)
        tamper(sols)
        return sols

    monkeypatch.setattr(jacobi, "solve_columns", solve)


def test_a_wrong_sigma_zero_solution_cell_fails_verification(monkeypatch):
    victim = (0, 1, 0)
    entry = get_entry(CATALOG, "e6-fermat")
    alg = JacobianAlgebra(entry)

    def plant(sols):
        numerators, _ = sols[E6_THIRDS.index(victim)]
        c = next(c for c, v in enumerate(numerators) if v)
        numerators[c] += 1

    sigma_zero_hooks(monkeypatch, plant)
    label = re.escape(f"e6-fermat, m={entry.marginals[0].m}")
    with pytest.raises(
        DomainError, match=label + r": decomposition of \(0, 1, 0\) failed verification"
    ):
        alg.flat_first_order(victim)


def test_an_unsolved_sigma_zero_column_is_a_typed_domain_error(monkeypatch):
    victim = (0, 1, 0)
    entry = get_entry(CATALOG, "e6-fermat")
    alg = JacobianAlgebra(entry)
    sigma_zero_hooks(monkeypatch, lambda sols: sols.__setitem__(E6_THIRDS.index(victim), None))
    label = re.escape(f"e6-fermat, m={entry.marginals[0].m}")
    with pytest.raises(DomainError, match=label + r": .* r = \(0, 1, 0\) is not in J\(W\)"):
        alg.flat_first_order((1, 0, 0))


def test_an_unsolved_coordinate_column_is_a_typed_domain_error(monkeypatch):
    # the second sigma^0 system of a degree reads the B0 coordinates of p(0)
    victim = (0, 1, 0)
    entry = get_entry(CATALOG, "e6-fermat")
    alg = JacobianAlgebra(entry)
    calls = []

    def drop_second(sols):
        calls.append(len(sols))
        if len(calls) == 2:
            sols[E6_THIRDS.index(victim)] = None

    sigma_zero_hooks(monkeypatch, drop_second)
    label = re.escape(f"e6-fermat, m={entry.marginals[0].m}")
    with pytest.raises(DomainError, match=label + r": p\(0\) of \(0, 1, 0\) has no coordinates on B0$"):
        alg.flat_first_order((1, 0, 0))
    assert calls == [3, 3]


def test_flat_first_order_rejects_non_basis_exponents():
    # x^2 has degree 2/3 but lies in the Jacobian ideal of x^3 + y^3 + z^3
    with pytest.raises(DomainError, match=r"e6-fermat, m=\(1, 1, 1\): \(2, 0, 0\) is not a basis"):
        algebra("e6-fermat").flat_first_order((2, 0, 0))


def test_every_catalog_label_solves_at_sigma_degree_l_minus_1(monkeypatch):
    # The one ansatz, sigma-degree l - 1, solves the decompositions of all
    # 115 labels in the degrees of the flat labels of the four-point tables,
    # and none of them needs a lower degree.
    calls = batch_hooks(monkeypatch)
    labels_by_l = {}
    for name, m in ALL_PAIRS:
        alg = JacobianAlgebra(get_entry(CATALOG, name), m)
        seen = len(calls)
        for r in {r for trip in alg.weight_one_triples() for r in trip}:
            alg.decompose(r)
        l = alg.marginal.l
        for labels, bound in calls[seen:]:
            assert bound == l - 1
            for r in labels:
                gs = alg.decompose(r)
                assert max(len(c.n) - 1 for g in gs for c in g.terms.values()) == l - 1
            labels_by_l[l] = labels_by_l.get(l, 0) + len(labels)
    assert labels_by_l == {3: 67, 2: 48}
    assert sum(labels_by_l.values()) == FLAT_LABELS


def test_decompose_rejects_non_basis_exponents():
    with pytest.raises(DomainError, match=r"e6-fermat, m=\(1, 1, 1\): \(5, 5, 5\)"):
        algebra("e6-fermat").decompose((5, 5, 5))


def test_decompose_rejects_the_unit_label():
    # phi_m itself has nonzero residue, so no decomposition can exist.
    with pytest.raises(DomainError, match=r"e6-fermat, m=\(1, 1, 1\): phi_m"):
        algebra("e6-fermat").decompose((0, 0, 0))


# The greedy route that the ordered solve replaced, kept as its reference:
# one elimination of [A | -b] for a solution and the nullspace of A, then a
# scan from the highest-ranked column down that zeroes each coordinate the
# remaining nullspace can still move.


def _pin_zeros(sol, kernel, priority):
    """Scan coordinates in ``priority`` order and zero each one when the
    remaining affine freedom allows, freezing it for later steps."""
    sol = list(sol)
    kernel = [list(v) for v in kernel]
    for c in priority:
        pivot = next((k for k, v in enumerate(kernel) if v[c]), None)
        if pivot is None:
            continue
        pv = kernel.pop(pivot)
        if sol[c]:
            f = sol[c] / pv[c]
            sol = [s - f * x for s, x in zip(sol, pv)]
        kernel = [
            [x - (v[c] / pv[c]) * y for x, y in zip(v, pv)] if v[c] else v
            for v in kernel
        ]
    return sol


def pinned_solution(rows, rhs, ncols, priority):
    """A solution of rows x = rhs from the nullspace of [A | -b], pinned to 0
    by a greedy scan in ``priority`` order."""
    kernel = nullspace([list(row) + [-b] for row, b in zip(rows, rhs)], ncols + 1)
    if not (kernel and kernel[-1][-1]):
        raise NoSolution("inconsistent linear system")
    sol = kernel.pop()[:-1]
    return _pin_zeros(sol, [v[:-1] for v in kernel], priority)


def greedy_decomposition_system(self, rvec, rm, layers, bound):
    """One label's decomposition system by the greedy route: columns in
    (partial i, monomial, sigma-degree) order, scanned from the highest
    (sigma-degree, partial i, monomial order) down.  Returns (solution,
    column labels)."""
    deg_r = degree(self, rvec)
    cols = []
    for i in range(3):
        target = deg_r + self.weights[i]
        for e in monomials_of_weighted_degree(self.weights, target):
            cols += [(i, e, d) for d in range(bound + 1)]
    entries = {}
    for ci, (i, e, d) in enumerate(cols):
        for shift, layer in enumerate(layers[i]):
            for pe, pc in layer.items():
                te = tuple(a + b for a, b in zip(e, pe))
                row = entries.setdefault((te, d + shift), {})
                row[ci] = row.get(ci, F(0)) + pc
    rhs_map = {(rm, 0): F(1), (rm, self.marginal.l): F(-self.marginal.C)}
    keys = sorted(set(entries) | set(rhs_map))
    rows = [[entries.get(k, {}).get(ci, F(0)) for ci in range(len(cols))] for k in keys]
    rhs = [rhs_map.get(k, F(0)) for k in keys]
    priority = sorted(
        range(len(cols)),
        key=lambda c: (cols[c][2], cols[c][0], self._key(cols[c][1])),
        reverse=True,
    )
    return pinned_solution(rows, rhs, len(cols), priority), cols


def greedy_decomposition(alg, r, bound=2):
    """The g_i of ``greedy_decomposition_system`` at one sigma-degree bound,
    with the partials' sigma-layers read off W and phi_m."""
    w_plain = alg.entry.polynomial.polynomial()
    phi_m = MultiPoly.monomial(alg.marginal.m, F(1))
    layers = [
        (dict(w_plain.partial(i).terms), dict(phi_m.partial(i).terms))
        for i in range(3)
    ]
    rm = tuple(a + b for a, b in zip(r, alg.marginal.m))
    sol, cols = greedy_decomposition_system(alg, r, rm, layers, bound)
    parts = [{}, {}, {}]
    for value, (i, e, d) in zip(sol, cols):
        if value:
            parts[i].setdefault(e, [F(0)] * (bound + 1))[d] = value
    return tuple(build(p) for p in parts)


@pytest.mark.parametrize("name, m", ALL_PAIRS)
def test_ordered_solve_equals_the_greedy_route(name, m):
    alg = algebra(name, m)
    labels = [r for r in alg.basis if r != (0, 0, 0)]
    got = {r: alg.decompose(r) for r in labels}
    assert {r: greedy_decomposition(alg, r) for r in labels} == got


def dependent_system(rng):
    """A sparse consistent rational system with dependent columns: some
    columns are multiples or sums of earlier ones, and b = A x0."""
    m, n = rng.randint(1, 8), rng.randint(1, 8)

    def cell():
        if rng.random() >= 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.randint(1, 4))

    columns = [[cell() for _ in range(m)] for _ in range(n)]
    for _ in range(rng.randint(1, 6)):
        u, w = rng.choice(columns), rng.choice(columns)
        k = F(rng.randint(-3, 3), rng.randint(1, 3))
        columns.insert(rng.randrange(len(columns) + 1), [x + k * y for x, y in zip(u, w)])
    rows = [list(row) for row in zip(*columns)]
    x0 = [cell() for _ in columns]
    rhs = [sum((a * b for a, b in zip(row, x0)), F(0)) for row in rows]
    return rows, rhs, len(columns)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@seed(6862)
@settings(max_examples=150, deadline=None)
def test_ascending_solve_equals_the_descending_greedy_scan(s):
    rng = random.Random(s)
    rows, rhs, n = dependent_system(rng)
    order = list(range(n))
    rng.shuffle(order)  # the columns in ascending rank
    x = solve_linear([[row[c] for c in order] for row in rows], rhs, n)
    got = [F(0)] * n
    for c, value in zip(order, x):
        got[c] = value
    assert got == pinned_solution(rows, rhs, n, order[::-1])


@given(st.integers(min_value=0, max_value=2**32 - 1))
@seed(6862)
@settings(max_examples=150, deadline=None)
def test_several_columns_solve_like_one_column_each(s):
    rng = random.Random(s)
    rows, rhs, n = dependent_system(rng)
    columns = [rhs]
    for _ in range(rng.randint(0, 3)):
        x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        columns.append([sum((a * b for a, b in zip(row, x)), F(0)) for row in rows])
    inconsistent = [False] * len(columns)
    # b + y with y^T A = 0 and y != 0 is inconsistent: y^T (b + y) = y^T y.
    for y in nullspace([list(col) for col in zip(*rows)], len(rows))[:2]:
        k = rng.randrange(len(columns) + 1)
        columns.insert(k, [b + v for b, v in zip(rng.choice(columns), y)])
        inconsistent.insert(k, True)
    # half of the columns as sparse {row: value} dicts
    given_columns = [
        {i: b for i, b in enumerate(col) if b} if rng.random() < 0.5 else col
        for col in columns
    ]
    got = solve_columns(rows, given_columns, n)
    assert len(got) == len(columns)
    for col, bad, x in zip(columns, inconsistent, got):
        if bad:
            assert x is None
            with pytest.raises(NoSolution):
                solve_linear(rows, col, n)
        else:
            numerators, den = x
            assert [F(v, den) for v in numerators] == solve_linear(rows, col, n)
    consistent = [col for col, bad in zip(columns, inconsistent) if not bad]
    assert solve_columns(rows, consistent, n) == [
        x for x, bad in zip(got, inconsistent) if not bad
    ]


# ---------------------------------------------------------------------------
# First-order flat sections
# ---------------------------------------------------------------------------


def test_flat_corrections_match_frozen_first_order_data():
    e6 = algebra("e6-fermat")
    for r in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
        assert e6.flat_first_order(r).corrections == ()

    e7 = algebra("e7-fermat")
    assert e7.flat_first_order((1, 0, 0)).corrections == ()
    assert e7.flat_first_order((2, 0, 0)).corrections == (((0, 2, 0), F(1, 4)),)
    assert e7.flat_first_order((0, 2, 0)).corrections == (((2, 0, 0), F(1, 4)),)

    chain = algebra("e8-chain32")
    for r in [(1, 0, 0), (0, 0, 1), (1, 1, 0)]:
        assert chain.flat_first_order(r).corrections == ()

    e8 = algebra("e8-fermat")
    for r in [(1, 0, 0), (0, 1, 0)]:
        assert e8.flat_first_order(r).corrections == ()
    assert e8.flat_first_order((4, 0, 0)).corrections == (((2, 1, 0), F(1, 2)),)


def test_flat_corrections_do_not_depend_on_the_decomposition():
    # Two inequivalent decompositions for the same label must induce the
    # same first-order data; check through the reference decomposition that
    # differs from the solver's output.
    alg = algebra("e8-chain32")
    r = (0, 0, 1)
    ref = tuple(build(p) for p in REFERENCE_DECOMPOSITIONS[("e8-chain32", r)])
    assert ref != alg.decompose(r)
    p_ref = MultiPoly.zero()
    p_own = MultiPoly.zero()
    for i in range(3):
        p_ref = p_ref - ref[i].partial(i)
        p_own = p_own - alg.decompose(r)[i].partial(i)
    assert q_sigma_nf(alg, p_ref) == q_sigma_nf(alg, p_own)


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_sigma_zero_flats_equal_the_q_sigma_coordinates_at_zero(name, m):
    # The Q(sigma) route: the display-basis coordinates of p = -sum_i d_i g_i
    # over Q(sigma), by the inverse change of basis of ``reference_coords``, each
    # evaluated at sigma = 0, give the corrections that the flat section
    # reads off p(0) over Q.
    alg = algebra(name, m)
    labels = [r for r in alg.basis if degree(alg, r).denominator != 1]
    assert labels
    for r in labels:
        p = MultiPoly.zero()
        for i, g in enumerate(alg.decompose(r)):
            p = p - g.partial(i)
        expected = tuple(
            (e, -c.eval(0))
            for e, c in sorted(
                reference_coords(alg, p).items(), key=lambda t: order_key(alg.weights)(t[0])
            )
            if e != r and c.eval(0)
        )
        assert alg.flat_first_order(r).corrections == expected


def test_flat_polynomial_form():
    flat = algebra("e7-fermat").flat_first_order((2, 0, 0))
    poly = flat_polynomial(flat)
    assert poly.terms.get((2, 0, 0)) == RatFun.const(1)
    assert poly.terms.get((0, 2, 0)) == RatFun.variable() * F(1, 4)


def test_integral_degree_labels_are_rejected():
    alg = algebra("e6-fermat")
    label = r"e6-fermat, m=\(1, 1, 1\): phi_\(0, 0, 0\)"
    with pytest.raises(IntegralDegree, match=label):
        alg.flat_first_order((0, 0, 0))
    with pytest.raises(IntegralDegree, match="e6-fermat"):
        alg.flat_first_order(alg.top_monomial)


# ---------------------------------------------------------------------------
# Correlators at sigma = 0
# ---------------------------------------------------------------------------


def test_fourpoint_values_with_marginal_insertion():
    assert algebra("e6-fermat").fourpoint((1, 0, 0), (1, 0, 0), (1, 0, 0)) == F(-1, 3)
    assert algebra("e7-fermat").fourpoint((1, 0, 0), (1, 0, 0), (2, 0, 0)) == F(-1, 4)
    chain = algebra("e8-chain32")
    assert chain.fourpoint((1, 0, 0), (1, 0, 0), (1, 1, 0)) == F(-1, 3)
    assert chain.fourpoint((0, 0, 1), (0, 0, 1), (0, 0, 1)) == F(-1, 3)
    e8 = algebra("e8-fermat")
    assert e8.fourpoint((1, 0, 0), (1, 0, 0), (4, 0, 0)) == F(-1, 6)
    assert e8.fourpoint((0, 1, 0), (0, 1, 0), (0, 1, 0)) == F(-1, 3)


# Off-row exception: a product of flat insertions can rewrite onto the
# marginal with a nonzero first-order sigma coefficient even when the
# sigma=0 monomial is not a monomial of W.  Among the four families below
# this happens exactly once: on e8-chain32, X1^6 = (2X2 + sigma*X1*X3)^2
# reduces to (8/3*sigma + sigma^4/9)*X1X2X3, and the flat correction
# delta_200 = X1^2 + sigma/3*X3 lowers the raw 8/3 to 2/3 (hand-checked).
OFF_ROW_FOURPOINTS = {
    ("e8-chain32", ((2, 0, 0), (2, 0, 0), (2, 0, 0))): F(2, 3),
}


@pytest.mark.parametrize("name", ["e6-fermat", "e7-fermat", "e8-chain32", "e8-fermat"])
def test_fourpoint_table_is_supported_on_the_polynomial_monomials(name):
    # A weight-one product of flat insertions pairs to -q_i^T against the
    # marginal when its monomial equals the i-th monomial of W, and to 0
    # otherwise except for the frozen exceptions above.
    alg = algebra(name)
    entry = get_entry(CATALOG, name)
    rows = [tuple(row) for row in entry.polynomial.exponents]
    qt = entry.polynomial.mirror_charges
    table = alg.fourpoint_table()
    assert table
    hits = 0
    for (r1, r2, r3), value in table.items():
        total = tuple(a + b + c for a, b, c in zip(r1, r2, r3))
        if total in rows:
            assert value == -qt[rows.index(total)]
            hits += 1
        else:
            assert value == OFF_ROW_FOURPOINTS.get((name, (r1, r2, r3)), 0)
    assert hits > 0


def fourpoint_raw(alg: JacobianAlgebra, exps) -> F:
    """Four-point function with a single raw monomial insertion (no flat
    correction) and one marginal: K * R'(0) for R = residue(X^exps)."""
    return alg.k_constant * alg._jets[tuple(int(e) for e in exps)][1]


def raw_marginal_vector(alg: JacobianAlgebra) -> tuple:
    """The raw four-point values at the three monomials of W itself."""
    return tuple(fourpoint_raw(alg, row) for row in alg.entry.polynomial.exponents)


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_raw_fourpoint_vector(name, m):
    alg = algebra(name, m)
    entry = get_entry(CATALOG, name)
    vec = raw_marginal_vector(alg)
    # Route 1: the catalog's integer vector l_vec with l_vec = l * E^{-T} m.
    mar = alg.marginal
    assert vec == tuple(-F(li, mar.l) for li in mar.l_vector)
    # Route 2: solve E^T x = m afresh.
    et = [[F(entry.polynomial.exponents[j][i]) for j in range(3)] for i in range(3)]
    x = solve_linear(et, [F(v) for v in m], 3)
    assert vec == tuple(-xi for xi in x)


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_raw_fourpoint_values_equal_the_coordinate_derivative(name, m):
    # Each monomial of W equals h_i(sigma) * phi_top plus lower-weight terms
    # in the algebra, with h_i(0) = 0; only the weight-one coordinate has a
    # residue, so the raw four-point value is the derivative at 0 of h_i
    # times the three-point function of the top monomial.
    alg = algebra(name, m)
    top = alg.top_monomial
    for row in get_entry(CATALOG, name).polynomial.exponents:
        h = reference_coords(alg, mono(row)).get(top, RatFun.const(0))
        product = h * reference_threepoint(alg, mono(top))
        # At sigma=0 every monomial of W lies in the undeformed Jacobian
        # ideal (the exponent matrix is invertible), so its residue there
        # vanishes even when the top coordinate h itself does not.
        assert product.eval(0) == 0
        assert fourpoint_raw(alg, row) == product.deriv().eval(0)


def reference_fourpoint(alg: JacobianAlgebra, flats) -> F:
    """The four-point value by the full Q(sigma) route: the normal form of
    the product of the flat sections, differentiated at sigma = 0."""
    xi = MultiPoly.const(RatFun.const(1))
    for flat in flats:
        xi = xi * flat_polynomial(flat)
    return reference_threepoint(alg, xi).deriv().eval(0)


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_jet_fourpoints_equal_the_full_normal_form_route(name, m):
    alg = algebra(name, m)
    triples = alg.weight_one_triples()
    assert triples
    for trip in triples:
        flats = [alg.flat_first_order(r) for r in trip]
        expected = reference_fourpoint(alg, flats)
        assert alg.fourpoint(*trip) == expected
    rows = get_entry(CATALOG, name).polynomial.exponents
    assert raw_marginal_vector(alg) == tuple(
        reference_threepoint(alg, mono(row)).deriv().eval(0) for row in rows
    )


def test_jet_fourpoint_uses_both_jet_terms():
    # The value term R'(0) and the first-order term R(0) both contribute on
    # e8-chain32's off-row triple: the raw 8/3 is lowered to 2/3 by the
    # sigma/3 * X3 correction of delta_200.
    # A bare flat, planted in the memo of a fresh algebra, drops that term.
    trip = ((2, 0, 0), (2, 0, 0), (2, 0, 0))
    raw = fourpoint_raw(algebra("e8-chain32"), (6, 0, 0))
    assert raw == F(8, 3)
    assert algebra("e8-chain32").fourpoint(*trip) == F(2, 3) != raw
    alg = JacobianAlgebra(get_entry(CATALOG, "e8-chain32"))
    alg._flats[(2, 0, 0)] = FlatSectionApprox(r=(2, 0, 0), corrections=())
    assert alg.fourpoint(*trip) == raw


def test_residue_pole_at_sigma_zero_is_a_typed_domain_error(monkeypatch):
    # det Hess(W) planted as 0 is a zero sigma^0 layer D_0 of the Hessian,
    # so its coordinate on the top monomial is 0 at sigma = 0 and every
    # R_e = mu*c_e/c_Hess would have a pole there.
    entry = get_entry(CATALOG, "e6-fermat")
    w = entry.polynomial.polynomial()
    real = MultiPoly.hessian_det
    monkeypatch.setattr(MultiPoly, "hessian_det", lambda f: MultiPoly.zero() if f == w else real(f))
    label = re.escape(f"e6-fermat, m={entry.marginals[0].m}")
    with pytest.raises(DomainError, match=f"^{label}: .*pole at sigma = 0") as info:
        JacobianAlgebra(entry)
    assert not isinstance(info.value, ZeroDivisionError)


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_the_int_hessian_layers_equal_the_q_sigma_hessian(name, m, monkeypatch):
    # The jet system's Hessian column, from int determinants, is the sigma^0
    # and sigma^1 layers of det Hess(W_sigma) over Q(sigma).
    columns = []
    real = jacobi._solve
    monkeypatch.setattr(
        jacobi, "_solve", lambda cells, maps, ncols: columns.append(maps[-1]) or real(cells, maps, ncols)
    )
    alg = JacobianAlgebra(get_entry(CATALOG, name), m)
    want = {}
    for e, c in alg.w_sigma.hessian_det().terms.items():
        assert c.d == (1,)  # an int polynomial in sigma, low degree first
        want.update({(e, d): v for d, v in enumerate(c.n[:2]) if v})
    assert columns == [want]


def test_a_marginal_in_the_jacobian_ideal_is_a_typed_error(tmp_path):
    # x^3 has degree one but lies in the Jacobian ideal of x^3 + y^3 + z^3:
    # derive rejects it, so a catalog given by path that lists it does not
    # load; a hand-built row still meets the algebra's certificate, a zero
    # residue, as a typed error
    e = get_entry(CATALOG, "e6-fermat")
    with pytest.raises(DomainError) as info:
        MarginalData.derive(e.polynomial, (3, 0, 0))
    assert str(info.value) == "monomial (3, 0, 0) lies in the Jacobian ideal of W"
    doc = json.loads(_default_catalog_text())
    next(d for d in doc["entries"] if d["name"] == "e6-fermat")["marginals"].append({"m": [3, 0, 0]})
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as info:
        load_catalog(str(path))
    assert str(info.value) == (
        "entry e6-fermat marginal [3, 0, 0]: monomial (3, 0, 0) lies in the Jacobian ideal of W"
    )
    entry = CatalogEntry(**{**vars(e), "marginals": (MarginalData((3, 0, 0), (1, 0, 0), 1, F(-1)),)})
    with pytest.raises(DomainError, match=r"^e6-fermat, m=\(3, 0, 0\): .*Jacobian ideal") as info:
        JacobianAlgebra(entry, (3, 0, 0))
    assert not isinstance(info.value, ZeroDivisionError)


# The degree-one monomials of the 13 polynomials that JacobianAlgebra takes
# as a marginal beside the 25 catalog pairs; every other one lies in J(W).
ACCEPTED_VARIANTS = {
    ("e6-loop22", (0, 2, 1)),
    ("e6-loop222", (0, 0, 3)),
    ("e6-loop222", (0, 3, 0)),
    ("e7-loop33", (0, 4, 0)),
}


def test_every_degree_one_marginal_builds_or_is_a_typed_rejection():
    # Each of the 116 degree-one monomials of the catalog's polynomials:
    # derive rejects exactly the 87 that lie in J(W) by the test-side
    # Buchberger reference, and each of the 29 it accepts, made the only
    # marginal of a variant entry, decomposes every non-unit label (224)
    # at sigma-degree l - 1 and builds its four-point table.
    accepted, rejected, labels = set(), 0, 0
    for e in CATALOG:
        poly = e.polynomial
        key = order_key(poly.charges)
        w = poly.polynomial().map_coeffs(F)
        ideal = reference_groebner([w.partial(i) for i in range(3)], poly.charges)
        for m in poly.degree_one_monomials():
            in_ideal = not _ref_reduce(MultiPoly.monomial(m, F(1)), ideal, key)
            try:
                marginal = MarginalData.derive(poly, m)
            except DomainError as exc:
                assert in_ideal, (e.name, m)
                assert str(exc) == f"monomial {m} lies in the Jacobian ideal of W"
                rejected += 1
                continue
            assert not in_ideal, (e.name, m)
            alg = JacobianAlgebra(CatalogEntry(**{**vars(e), "marginals": (marginal,)}), m)
            accepted.add((e.name, m))
            l = alg.marginal.l
            for r in alg.basis:
                if r == (0, 0, 0):
                    continue
                gs = alg.decompose(r)
                assert max(len(c.n) - 1 for g in gs for c in g.terms.values()) <= l - 1
                labels += 1
            assert alg.fourpoint_table()
    assert (len(accepted) + rejected, rejected, labels) == (116, 87, 224)
    assert accepted == set(ALL_PAIRS) | ACCEPTED_VARIANTS


def fraction_order_key(weights):
    """The graded reverse-lexicographic key on Fraction weighted degrees."""
    w1, w2, w3 = weights
    return lambda e: (w1 * e[0] + w2 * e[1] + w3 * e[2], -e[2], -e[1], -e[0])


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_integer_order_key_sorts_like_the_fraction_key(name, m):
    alg = algebra(name, m)
    ref = fraction_order_key(alg.weights)
    assert list(alg.staircase) == sorted(alg.staircase, key=ref)
    assert list(alg.basis) == sorted(alg.basis, key=ref)
    box = [(a, b, c) for a in range(7) for b in range(7) for c in range(7)]
    assert sorted(box, key=order_key(alg.weights)) == sorted(box, key=ref)


@pytest.mark.parametrize(
    "weights",
    [(F(1, 4), F(1, 6), F(1, 2)), (F(2, 9), F(1, 6), F(5, 8)), (1, 2, 3)],
)
def test_integer_order_key_scales_by_the_lcm_of_the_denominators(weights):
    # In the first two the largest denominator (6, 9) is not the lcm
    # (12, 72); the last one has int weights.
    box = [(a, b, c) for a in range(7) for b in range(7) for c in range(7)]
    ref = fraction_order_key(tuple(F(w) for w in weights))
    assert sorted(box, key=order_key(weights)) == sorted(box, key=ref)


@pytest.mark.parametrize("name,m", ALL_PAIRS)
def test_weight_one_triples_match_fraction_degrees(name, m):
    alg = algebra(name, m)
    key = fraction_order_key(alg.weights)

    def deg(e):
        return sum(w * k for w, k in zip(alg.weights, e))

    frac = [e for e in alg.basis if deg(e).denominator != 1]
    expected = tuple(
        (a, b, c)
        for a in frac
        for b in frac
        for c in frac
        if key(a) <= key(b) <= key(c) and deg(a) + deg(b) + deg(c) == 1
    )
    assert alg.weight_one_triples() == expected
    assert alg.weight_one_triples() is alg.weight_one_triples()


def test_cubic_power_rewrites_into_the_marginal_line():
    alg = algebra("e6-fermat")
    sigma = RatFun.variable()
    assert reference_coords(alg, mono((3, 0, 0))) == {(1, 1, 1): sigma * F(-1, 3)}


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

EXPS = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)


@settings(max_examples=40, deadline=None)
@given(e1=EXPS, e2=EXPS)
def test_normal_form_is_linear_and_idempotent(e1, e2):
    alg = algebra("e6-fermat")
    f, g = mono(e1), mono(e2, F(2))
    nf = q_sigma_nf(alg, f + g)
    assert nf == q_sigma_nf(alg, f) + q_sigma_nf(alg, g)
    assert q_sigma_nf(alg, nf) == nf


@settings(max_examples=25, deadline=None)
@given(e=EXPS, i=st.integers(min_value=0, max_value=2))
def test_ideal_shifts_never_change_normal_forms(e, i):
    alg = algebra("e8-chain32")
    f = mono(e)
    assert q_sigma_nf(alg, f + alg.partials[i] * f) == q_sigma_nf(alg, f)
