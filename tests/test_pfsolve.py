"""Period operators: root multisets, reduction, weight certification."""

import json
import re
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ises.isespoly import (
    NVARS,
    CatalogEntry,
    MarginalData,
    UnknownMarginal,
    _default_catalog_text,
    get_entry,
    load_catalog,
)
from ises.numcore import DomainError, parse_rat, scaled_ints, solve_linear
from ises.pfsolve import (
    DeltaOperator,
    HGWeights,
    NotSecondOrder,
    ResonantBasis,
    annihilation_check,
    build_gkz,
    reduce_left_divisors,
    to_hg_weights,
    weight_report,
)

CATALOG = load_catalog()

# The hypergeometric weights that the catalog freezes for each marginal row,
# a test oracle that the loader does not read.
FROZEN_WEIGHTS = {
    (d["name"], tuple(row["m"])): tuple(parse_rat(w) for w in row["weights"])
    for d in json.loads(_default_catalog_text())["entries"]
    for row in d["marginals"]
}


def entry(name):
    return get_entry(CATALOG, name)


# ---------------------------------------------------------------------------
# operator construction
# ---------------------------------------------------------------------------


def test_an_uncatalogued_marginal_is_a_typed_error():
    # x^3 has degree one but lies in the Jacobian ideal of x^3 + y^3 + z^3
    with pytest.raises(UnknownMarginal, match=r"e6-fermat .* \(3, 0, 0\)") as info:
        weight_report(entry("e6-fermat"), (3, 0, 0))
    assert isinstance(info.value, DomainError)
    assert isinstance(info.value, KeyError)
    assert str(info.value) == "e6-fermat has no catalogued marginal (3, 0, 0)"


def test_fermat_e6_root_multisets():
    op = build_gkz(entry("e6-fermat"), (1, 1, 1))
    assert op.left_roots == (F(-2), F(-1), F(0))
    assert op.right_roots == (F(1), F(1), F(1))
    assert op.step == 3 and entry("e6-fermat").marginal((1, 1, 1)).C == F(-1, 27)


def test_negative_l_contributes_left_roots():
    op = build_gkz(entry("e6-chain23"), (2, 0, 1))
    assert op.left_roots == (F(-2), F(-1), F(-1, 2), F(0))
    assert op.right_roots == (F(1, 2), F(1), F(3, 2), F(5, 2))
    assert entry("e6-chain23").marginal((2, 0, 1)).C == F(1)


def test_left_and_right_orders_always_match():
    for e in CATALOG:
        for marg in e.marginals:
            op = build_gkz(e, marg.m)
            assert len(op.left_roots) == len(op.right_roots)
            assert op.step == marg.l


# ---------------------------------------------------------------------------
# reduction and weight extraction
# ---------------------------------------------------------------------------


def test_fermat_e6_reduction_steps():
    op = build_gkz(entry("e6-fermat"), (1, 1, 1))
    red = reduce_left_divisors(op)
    assert red.left_roots == (F(-1), F(0))
    assert red.right_roots == (F(1), F(1))
    w = to_hg_weights(red, F(0))
    assert (w.alpha, w.beta, w.gamma) == (F(1, 3), F(1, 3), F(2, 3)) and w.prefactor == 0


def test_all_marginal_rows_reduce_to_frozen_weights():
    for e in CATALOG:
        for marg in e.marginals:
            op = build_gkz(e, marg.m)
            w = to_hg_weights(reduce_left_divisors(op), F(0))
            assert (w.alpha, w.beta, w.gamma) == FROZEN_WEIGHTS[e.name, marg.m], (e.name, marg.m)
            assert w.prefactor == 0
            assert annihilation_check(op, w, 12), (e.name, marg.m)


def test_marginal_weights_sum_rule():
    for e in CATALOG:
        for marg in e.marginals:
            a, b, g = FROZEN_WEIGHTS[e.name, marg.m]
            assert a + b == g == 1 - F(1, marg.l)


def pairs_of(left, right, step):
    """The left roots c whose partner c + l is among the right roots."""
    return {c for c in left if c + step in right}


def without(roots, c):
    """The sorted root tuple ``roots`` with one copy of ``c`` removed."""
    i = roots.index(c)
    return roots[:i] + roots[i + 1 :]


def all_reductions(op) -> set:
    """Final sorted (left, right) root tuples over every order of
    cancelling pairs (c, c + l)."""
    results = set()
    stack = [(op.left_roots, op.right_roots)]
    while stack:
        left, right = stack.pop()
        pairs = pairs_of(left, right, op.step)
        if not pairs:
            results.add((left, right))
            continue
        stack.extend((without(left, c), without(right, c + op.step)) for c in pairs)
    return results


def test_reduction_is_confluent_on_catalog():
    for e in CATALOG:
        family_m = e.marginals[0].m
        cases = [(marg.m, (0, 0, 0)) for marg in e.marginals]
        cases += [(family_m, r) for r, _ in e.twisted]
        for m, r in cases:
            op = build_gkz(e, m, r)
            red = reduce_left_divisors(op)
            assert all_reductions(op) == {(red.left_roots, red.right_roots)}, (e.name, m, r)


def greedy_reduction(op):
    """The greedy loop, on Counters of roots: cancel the smallest left root
    c whose partner c + l is among the right roots, until none is; the
    sorted (left, right) roots that remain."""
    left, right = Counter(op.left_roots), Counter(op.right_roots)
    while pairs := pairs_of(+left, +right, op.step):
        c = min(pairs)
        left[c] -= 1
        right[c + op.step] -= 1
    return tuple(sorted((+left).elements())), tuple(sorted((+right).elements()))


def test_one_pass_reduction_matches_the_greedy_loop():
    assert len(_CASES) == 25
    for name, m in _CASES:
        e = entry(name)
        for r in product(range(6), repeat=3):
            op = build_gkz(e, m, r)
            red = reduce_left_divisors(op)
            assert red.step == op.step
            assert (red.left_roots, red.right_roots) == greedy_reduction(op), (name, m, r)


def test_interior_weights_for_quartic_pair():
    e7 = entry("e7-fermat")
    m = e7.marginals[0].m
    op = build_gkz(e7, m, (2, 0, 0))
    w = to_hg_weights(reduce_left_divisors(op), F(1, 2))
    assert (w.alpha, w.beta, w.gamma) == (F(1, 4), F(3, 4), F(1, 2))
    assert annihilation_check(op, w, 12)
    op = build_gkz(e7, m, (2, 2, 0))
    w = to_hg_weights(reduce_left_divisors(op), F(1))
    assert (w.alpha, w.beta, w.gamma) == (F(3, 4), F(3, 4), F(1, 2))
    assert annihilation_check(op, w, 12)


def test_first_order_rows_match_degree():
    for name, r in [
        ("e6-fermat", (1, 0, 0)),
        ("e6-fermat", (1, 1, 0)),
        ("e7-fermat", (1, 1, 0)),
    ]:
        e = entry(name)
        op = build_gkz(e, e.marginals[0].m, r)
        deg = sum(F(x) * q for x, q in zip(r, e.polynomial.charges))
        w = to_hg_weights(reduce_left_divisors(op), deg)
        assert w.first_order and w.alpha == deg
        assert annihilation_check(op, w, 12)


def test_wrong_degree_is_rejected():
    e = entry("e6-fermat")
    red = reduce_left_divisors(build_gkz(e, (1, 1, 1), (1, 0, 0)))
    with pytest.raises(DomainError):
        to_hg_weights(red, F(3, 4))
    # a second-order operator: alpha + beta - gamma is 0, not 1/2
    red = reduce_left_divisors(build_gkz(e, (1, 1, 1)))
    with pytest.raises(DomainError, match=r"violate alpha\+beta-gamma = deg phi_r = 1/2$"):
        to_hg_weights(red, F(1, 2))


def test_unreduced_operator_is_not_second_order():
    op = build_gkz(entry("e6-chain23"), (2, 0, 1))
    with pytest.raises(NotSecondOrder):
        to_hg_weights(op, F(0))


def test_an_order_zero_reduction_is_not_second_order():
    # every root of the phi_(0,1,2) operator of e6-fermat cancels
    red = reduce_left_divisors(build_gkz(entry("e6-fermat"), (1, 1, 1), (0, 1, 2)))
    assert red.order == 0
    with pytest.raises(NotSecondOrder, match=r"^operator has order 0$"):
        to_hg_weights(red, F(1))


def test_weight_report_errors_name_the_row():
    e = entry("e6-fermat")
    with pytest.raises(NotSecondOrder) as info:
        weight_report(e, (1, 1, 1), (0, 1, 2))
    assert str(info.value) == "e6-fermat m=(1, 1, 1) r=(0, 1, 2): operator has order 0"
    # the message prints the exponent alpha - s that is compared
    with pytest.raises(DomainError) as info:
        weight_report(e, (1, 1, 1), (0, 0, 2))
    assert type(info.value) is DomainError
    assert str(info.value) == (
        "e6-fermat m=(1, 1, 1) r=(0, 0, 2): "
        "first-order exponent 1/3 does not match deg phi_r = 2/3"
    )


def test_weight_report_names_a_marginal_in_the_jacobian_ideal():
    # X1^3 = (X1 / 3) d1 W lies in (dW) for the Fermat cubic, so derive
    # rejects it; a hand-built row still reaches weight_report, whose
    # reduction ends at first order with the wrong exponent, and that
    # derivation error comes back as its own class with the row in front
    e = entry("e6-fermat")
    extra = MarginalData((3, 0, 0), (1, 0, 0), 1, F(-1))
    e = CatalogEntry(**{**vars(e), "marginals": e.marginals + (extra,)})
    with pytest.raises(DomainError) as info:
        weight_report(e, (3, 0, 0))
    assert type(info.value) is DomainError
    assert isinstance(info.value.__cause__, DomainError)
    assert str(info.value) == (
        "e6-fermat m=(3, 0, 0) r=(0, 0, 0): first-order exponent 1/3 does not match deg phi_r = 0"
    )


def unchecked_row(poly, m):
    """The row that ``MarginalData.derive`` builds for ``X^m``, without its
    test that ``X^m`` is nonzero in Jac(W)."""
    lvec, ell = scaled_ints(poly.solve_transposed(m))
    return MarginalData(m, lvec, ell, prod((F(-li, ell) ** li for li in lvec if li), start=F(1)))


def test_derive_rejects_the_marginals_in_the_jacobian_ideal_that_weight_report_would_certify():
    # Of the 116 degree-one monomials, derive rejects 87 (those in J(W)).
    # Hand-built past derive, 56 of them fail the derivation or its check
    # (None below), but 31 reduce to weights that annihilation_check
    # certifies, so only the up-front test keeps them out of the weight rows.
    certified = {}
    for e in CATALOG:
        for m in e.polynomial.degree_one_monomials():
            row = unchecked_row(e.polynomial, m)
            try:
                assert MarginalData.derive(e.polynomial, m) == row
            except DomainError:
                variant = CatalogEntry(**{**vars(e), "marginals": (row,)})
                try:
                    certified[e.name, m] = weight_report(variant, m)[1]
                except DomainError:
                    certified[e.name, m] = None
    assert Counter(certified.values()) == Counter({None: 56, True: 31})
    assert all(certified["e6-chain23", m] for m in [(0, 1, 2), (1, 0, 2), (1, 1, 1)])


# ---------------------------------------------------------------------------
# derived weights against the frozen catalog rows
# ---------------------------------------------------------------------------


def frozen_rows():
    """(entry, m, r, frozen triple): every marginal row, and the twisted rows,
    which the catalog freezes for the family marginal (the first listed)."""
    for e in CATALOG:
        for marg in e.marginals:
            yield e, marg.m, (0, 0, 0), FROZEN_WEIGHTS[e.name, marg.m]
        for r, triple in e.twisted:
            yield e, e.marginals[0].m, r, triple


def test_derived_weights_match_the_frozen_rows():
    rows = list(frozen_rows())
    assert len(rows) == 33
    first_order = []
    for e, m, r, (a, b, g) in rows:
        w, verified = weight_report(e, m, r)
        assert verified, (e.name, m, r)
        # the frozen triple solves the full operator too
        assert annihilation_check(build_gkz(e, m, r), HGWeights(a, b, g)), (e.name, m, r)
        if g in (a, b):
            # 2F1(a, b; b; x) = (1 - x)^(-a): the canonical form is first order
            assert w == HGWeights.of_first_order(b if g == a else a), (e.name, m, r)
            first_order.append((e.name, r))
        else:
            assert w == HGWeights(a, b, g), (e.name, m, r)
    assert first_order == [("e8-fermat", (1, 0, 0)), ("e8-fermat", (3, 1, 0))]


def test_twisted_table_certified():
    e8 = entry("e8-fermat")
    m = e8.marginals[0].m
    assert len(e8.twisted) == 8
    for r, tab in e8.twisted:
        w, verified = weight_report(e8, m, r)
        assert verified, r
        assert annihilation_check(build_gkz(e8, m, r), HGWeights(*tab)), r


def test_steering_overrides_greedy_overcancellation():
    # two of the twisted rows reduce greedily to first order; no frozen
    # triple steers the report any more, so the first-order form is kept and
    # the frozen degenerate 2F1 (the same function) is certified alongside it
    e8 = entry("e8-fermat")
    m = e8.marginals[0].m
    frozen = dict(e8.twisted)
    for r, alpha in [((1, 0, 0), F(1, 6)), ((3, 1, 0), F(5, 6))]:
        op = build_gkz(e8, m, r)
        assert reduce_left_divisors(op).order == 1
        w, verified = weight_report(e8, m, r)
        assert w.first_order and verified
        assert w == HGWeights.of_first_order(alpha)
        assert annihilation_check(op, HGWeights(*frozen[r]))


def test_weight_report_without_frozen_row_uses_greedy():
    e7 = entry("e7-fermat")
    w, verified = weight_report(e7, e7.marginals[0].m, (2, 0, 0))
    assert (w.alpha, w.beta, w.gamma) == (F(1, 4), F(3, 4), F(1, 2)) and verified


# ---------------------------------------------------------------------------
# the annihilation oracle itself
# ---------------------------------------------------------------------------


def test_both_frobenius_solutions_are_checked():
    # a triple that solves only a *different* equation with the same local
    # exponents at 0 must fail: keep gamma, break alpha
    op = build_gkz(entry("e6-fermat"), (1, 1, 1))
    assert annihilation_check(op, HGWeights(F(1, 3), F(1, 3), F(2, 3)), 30)
    assert not annihilation_check(op, HGWeights(F(1, 3) + F(1, 5), F(1, 3), F(2, 3)), 30)
    assert not annihilation_check(op, HGWeights(F(1, 3), F(1, 3), F(2, 3) + F(1, 7)), 30)


@pytest.mark.parametrize(
    "weights,field",
    [
        ((1 / 3, 1 / 3, 2 / 3), "alpha"),
        ((F(1, 3), True, F(2, 3)), "beta"),
        ((F(1, 3), F(1, 3), 2 / 3), "gamma"),
        ((F(1, 3), F(1, 3), F(2, 3), 0.0), "prefactor"),
        ((None, None, None, F(0), True), "alpha"),
    ],
)
def test_a_weight_that_is_not_an_int_or_a_fraction_is_a_typed_error(weights, field):
    with pytest.raises(DomainError, match=rf"^HGWeights {field} .* is not an int or a Fraction$"):
        HGWeights(*weights)


@pytest.mark.parametrize(
    "misuse, message",
    [
        pytest.param(
            lambda: HGWeights(F(1, 3), F(1, 3), None, F(0), True),
            "^first-order data carries a single exponent$",
            id="first-order-with-beta",
        ),
        pytest.param(
            lambda: HGWeights(F(1, 3), F(1, 3), None),
            "^second-order data needs beta and gamma$",
            id="second-order-without-gamma",
        ),
        pytest.param(
            lambda: DeltaOperator((F(0),), (F(1, 3), F(2, 3)), 1),
            "^operator must have equally many left and right roots$",
            id="unequal-root-counts",
        ),
        # roots are ints or Fractions, read through numcore.rat, and the
        # step is an int >= 1: step 0 once reached to_hg_weights and
        # divided by zero there
        pytest.param(
            lambda: DeltaOperator((0.5,), (1,), 1),
            r"^operator left root 0 is 0\.5, not an int or a Fraction$",
            id="float-root",
        ),
        pytest.param(
            lambda: DeltaOperator((0,), ("1/2",), 1),
            "^operator right root 0 is '1/2', not an int or a Fraction$",
            id="string-root",
        ),
        *(
            pytest.param(
                lambda step=step: DeltaOperator((F(0), F(-1)), (F(1, 3), F(2, 3)), step),
                rf"^operator step {re.escape(repr(step))} is not an int >= 1$",
                id=f"step-{kind}",
            )
            for kind, step in (("zero", 0), ("negative", -2), ("float", 1.0), ("bool", True))
        ),
    ],
)
def test_misshapen_period_data_is_a_typed_error(misuse, message):
    with pytest.raises(DomainError, match=message):
        misuse()


def test_resonant_exponents_raise():
    op = build_gkz(entry("e6-fermat"), (1, 1, 1))
    with pytest.raises(ResonantBasis):
        annihilation_check(op, HGWeights(F(1, 3), F(1, 3), F(1)), 5)
    with pytest.raises(ResonantBasis):
        annihilation_check(op, HGWeights(F(1, 3), F(1, 3), F(-1)), 5)


@pytest.mark.parametrize("order", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_an_annihilation_order_is_an_int_at_least_zero(order):
    # below order 0 no identity is checked, so any weights would pass
    op = build_gkz(entry("e6-fermat"), (1, 1, 1))
    with pytest.raises(DomainError, match=rf"^annihilation order {order!r} is not an int >= 0$"):
        annihilation_check(op, HGWeights(F(1, 3), F(1, 3), F(2, 3)), order)


def test_annihilation_certifies_at_order_thirty():
    for name in ["e6-fermat", "e7-fermat", "e8-fermat"]:
        e = entry(name)
        marg = e.marginals[0]
        op = build_gkz(e, marg.m)
        assert annihilation_check(op, HGWeights(*FROZEN_WEIGHTS[name, marg.m]), 30)


# ---------------------------------------------------------------------------
# the int kernel against its Fraction form
# ---------------------------------------------------------------------------


class FractionStream:
    """Exact coefficients of 2F1(a, b; c; x) (or of (1-x)^{-a} when b is None)."""

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def coeffs(self, order):
        out = [F(1)]
        for k in range(order):
            if self.b is None:
                ratio = (self.a + k) / (1 + k)
            else:
                den = (self.c + k) * (1 + k)
                if den == 0:
                    raise ResonantBasis(f"lower parameter {self.c} hits a nonpositive integer")
                ratio = (self.a + k) * (self.b + k) / den
            out.append(out[-1] * ratio)
        return out


def fraction_annihilation_check(op, w, order=30):
    """The Fraction form of :func:`annihilation_check`: both Frobenius
    series substituted into the unreduced operator term by term."""
    if w.first_order:
        solutions = [(w.prefactor, FractionStream(w.alpha, None, None))]
    else:
        exp2 = w.prefactor + 1 - w.gamma
        if (w.prefactor - exp2).denominator == 1:
            raise ResonantBasis(f"exponents {w.prefactor} and {exp2} differ by an integer")
        solutions = [
            (w.prefactor, FractionStream(w.alpha, w.beta, w.gamma)),
            (exp2, FractionStream(w.alpha - w.gamma + 1, w.beta - w.gamma + 1, 2 - w.gamma)),
        ]
    l = op.step
    for exponent, stream in solutions:
        f = stream.coeffs(order)
        for k in range(order + 1):
            lhs = f[k]
            for c in op.left_roots:
                lhs *= l * (exponent + k) + c
            rhs = F(0)
            if k > 0:
                rhs = f[k - 1]
                for c in op.right_roots:
                    rhs *= l * (exponent + k - 1) + c
            if lhs != rhs:
                return False
    return True


def check_outcome(check, op, w, order):
    """The verdict of a check, or the class of the DomainError it raises."""
    try:
        return check(op, w, order)
    except DomainError as exc:
        return type(exc)


def mutants(w):
    """``w`` and weights near it that the operator of ``w`` should reject.

    A first-order row also yields the degenerate 2F1(alpha, c; c; x) =
    (1 - x)^{-alpha}: its first solution is right and its second is not."""
    yield w
    s = w.prefactor
    if w.first_order:
        yield HGWeights.of_first_order(w.alpha + F(1, 5), s)
        yield HGWeights(w.alpha, F(1, 2), F(1, 2), s)
        yield HGWeights(w.alpha, F(1, 7), F(1, 7), s)
        return
    a, b, g = w.alpha, w.beta, w.gamma
    yield HGWeights(a + F(1, 7), b, g, s)
    yield HGWeights(a, b - F(1, 5), g, s)
    yield HGWeights(a, b, g + F(1, 3), s)
    yield HGWeights(a, b, g, s + F(1, 2))


def test_annihilation_check_matches_the_fraction_form_on_the_catalog():
    verdicts = set()
    for e, m, r, _ in frozen_rows():
        op = build_gkz(e, m, r)
        for w in mutants(weight_report(e, m, r)[0]):
            for order in (0, 1, 5, 12, 30):
                got = check_outcome(annihilation_check, op, w, order)
                assert got == check_outcome(fraction_annihilation_check, op, w, order), (
                    e.name, m, r, w, order,
                )
                verdicts.add((got, order))
    # every order both certifies and rejects
    assert {(v, order) for v in (True, False) for order in (0, 1, 5, 12, 30)} <= verdicts


def test_annihilation_check_matches_the_fraction_form_on_resonant_weights():
    op = build_gkz(entry("e6-fermat"), (1, 1, 1))
    for gamma in (F(1), F(-1)):
        w = HGWeights(F(1, 3), F(1, 3), gamma)
        assert check_outcome(annihilation_check, op, w, 5) is ResonantBasis
        assert check_outcome(fraction_annihilation_check, op, w, 5) is ResonantBasis


_small = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@seed(0)
@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(
        [
            ("e6-fermat", (1, 1, 1), (0, 0, 0)),
            ("e6-chain23", (2, 0, 1), (0, 0, 0)),
            ("e7-fermat", None, (2, 0, 0)),
            ("e8-fermat", None, (1, 0, 0)),
        ]
    ),
    params=st.tuples(_small, _small, _small, _small),
    first_order=st.booleans(),
    order=st.sampled_from([0, 1, 5, 12]),
)
def test_annihilation_check_matches_the_fraction_form_on_small_weights(
    case, params, first_order, order
):
    name, m, r = case
    e = entry(name)
    op = build_gkz(e, m or e.marginals[0].m, r)
    a, b, g, s = params
    w = HGWeights.of_first_order(a, s) if first_order else HGWeights(a, b, g, s)
    got = check_outcome(annihilation_check, op, w, order)
    assert got == check_outcome(fraction_annihilation_check, op, w, order)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

_CASES = [(e.name, marg.m) for e in CATALOG for marg in e.marginals]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(_CASES),
    r=st.tuples(*(st.integers(min_value=0, max_value=5) for _ in range(3))),
)
def test_beta_sum_rule(case, r):
    # sum of right betas minus sum of (1 + left beta) over the true variables
    # equals 1 + deg(phi_r), corrected by the skipped (l_i = 0) rows and the
    # spread of the step vector
    name, m = case
    e = entry(name)
    poly = e.polynomial
    marg = e.marginal(m)
    # E^T u = r + 1; solve_linear leaves a zero coordinate as the int 0
    u = [F(x) for x in solve_linear(list(zip(*poly.exponents)), [x + 1 for x in r], NVARS)]
    s_right = sum(
        (u[i] + k) / marg.l_vector[i]
        for i in range(NVARS)
        if marg.l_vector[i] > 0
        for k in range(marg.l_vector[i])
    )
    s_left = sum(
        1 + (u[i] + k) / marg.l_vector[i]
        for i in range(NVARS)
        if marg.l_vector[i] < 0
        for k in range(-marg.l_vector[i])
    )
    deg = sum(F(x) * q for x, q in zip(r, poly.charges))
    skipped = sum(u[i] for i in range(NVARS) if marg.l_vector[i] == 0)
    spread = F(marg.l - sum(1 for li in marg.l_vector if li != 0), 2)
    assert s_right - s_left == 1 + deg - skipped + spread


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(_CASES),
    r=st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3))),
)
def test_greedy_reduction_leaves_no_pairs(case, r):
    name, m = case
    red = reduce_left_divisors(build_gkz(entry(name), m, r))
    assert not pairs_of(red.left_roots, red.right_roots, red.step)
    assert len(red.left_roots) == len(red.right_roots)
