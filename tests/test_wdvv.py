"""Correlator tables, WDVV propagation and the GW seed of P^1_{a,b,c}."""

import random
import re
from collections import Counter
from fractions import Fraction as F
from functools import cache
from itertools import combinations_with_replacement

import pytest

import ises.fjrw
import ises.wdvv
from ises.isespoly import get_entry, load_catalog
from ises.numcore import DomainError, inverse
from ises.wdvv import (
    CorrelatorTable,
    InconsistentSystem,
    MissingPairing,
    UnknownLabel,
    apply_divisor_rule,
    check_residuals,
    elliptic_orbifold_basis,
    gw_seed_table,
    propagate,
)

CATALOG = load_catalog()
FJRW_NAMES = [e.name for e in CATALOG if e.fjrw and not e.fjrw.get("excluded")]

UNIT, POINT = (0, 1), (0, 2)
ORBIFOLDS = [(3, 3, 3), (4, 4, 2), (6, 3, 2)]


@cache
def fjrw_theory(name):
    """One FJRW theory per entry of CATALOG, shared by the tests."""
    return ises.fjrw.FjrwTheory(get_entry(CATALOG, name))


def scan_instances(table, extra_slots, degrees, admissible):
    """The instances (first pairing, other pairing, extra, degree) of the
    relation groups of ``ises.wdvv._groups``, one by one in scan order."""
    for (first, *others), extra, degree in ises.wdvv._groups(table, extra_slots, degrees, admissible):
        yield from ((first, other, extra, degree) for other in others)


# Two phase-vector labels listed against their natural order, so that basis
# order and sorted order differ.
HIGH = (F(2, 3), F(2, 3), F(2, 3))
LOW = (F(1, 3), F(1, 3), F(1, 3))


def phase_table() -> CorrelatorTable:
    # every three-point key is on the budget of these gradings
    return CorrelatorTable((HIGH, LOW), {(HIGH, LOW): 1}, degrees={HIGH: F(1, 3), LOW: F(1, 3)})


def gw_unknowns(table: CorrelatorTable, top_degree: int) -> CorrelatorTable:
    """Declare every budget-admissible three-point key at degrees 1..D and
    four-point key at degrees 0..D unknown."""
    for n, low in ((3, 1), (4, 0)):
        for insertions in combinations_with_replacement(table.labels, n):
            if table.budget_ok(insertions):
                for d in range(low, top_degree + 1):
                    table.declare_unknown(insertions, degree=d)
    return table


# ---------------------------------------------------------------------------
# labels in, labels out
# ---------------------------------------------------------------------------


def test_phase_vector_labels_round_trip():
    table = phase_table()
    table.set([LOW, HIGH, HIGH], F(5, 2))
    table.declare_unknown([LOW, LOW, HIGH])
    assert table.value([HIGH, LOW, HIGH]) == F(5, 2)
    assert table.value([HIGH, LOW, LOW]) is None
    assert table.value([LOW, LOW, LOW]) == 0
    # keys list their insertions in basis order, not sorted order
    assert table.known_items() == (((HIGH, HIGH, LOW), F(5, 2)),)
    assert table.unknown_keys == ((HIGH, LOW, LOW),)
    table.set([LOW, LOW, HIGH], 3)
    assert table.unknown_keys == ()
    # in the repr order of the (key, value) pairs
    assert table.known_items() == (((HIGH, LOW, LOW), F(3)), ((HIGH, HIGH, LOW), F(5, 2)))


def test_gw_labels_round_trip():
    table = gw_seed_table((3, 3, 3))
    assert table.value([(1, 1), (2, 1), (3, 1)], degree=1) == 1
    table.declare_unknown([(2, 2), (1, 1), (2, 1), (1, 2)], degree=1)
    table.declare_unknown([(1, 1), (1, 1), (1, 1)], degree=1)
    assert table.unknown_keys == (
        (((1, 1), (1, 1), (1, 1)), 1),
        (((1, 1), (1, 2), (2, 1), (2, 2)), 1),
    )
    assert table.value([(1, 1)] * 3, degree=1) is None
    table.set([(1, 1)] * 3, F(1, 3), degree=1)
    assert (((1, 1), (1, 1), (1, 1)), 1) not in table.unknown_keys
    assert ((((1, 1), (1, 1), (1, 1)), 1), F(1, 3)) in table.known_items()
    for key, value in table.known_items():
        insertions, degree = key
        assert table.value(insertions, degree=degree) == value


def test_singular_pairing_is_rejected():
    with pytest.raises(MissingPairing, match="singular"):
        CorrelatorTable((HIGH, LOW), {(HIGH, HIGH): 1}, degrees={HIGH: F(1, 3), LOW: F(1, 3)})


def test_a_label_without_a_grading_is_named():
    with pytest.raises(DomainError, match="^basis label 'b' has no grading in degrees$") as info:
        CorrelatorTable(("a", "b"), {("a", "b"): 1}, degrees={"a": 0})
    assert not isinstance(info.value, KeyError)


def test_keys_need_three_insertions_and_a_grading_for_degrees():
    table = phase_table()
    with pytest.raises(ValueError):
        table.value([HIGH, LOW])
    with pytest.raises(ValueError):
        table.set([HIGH, HIGH, LOW], 1, degree=1)


def test_conflicting_set_is_inconsistent():
    table = phase_table()
    table.set([HIGH, HIGH, LOW], 1)
    table.set([HIGH, LOW, HIGH], 1)
    with pytest.raises(InconsistentSystem, match="versus"):
        table.set([LOW, HIGH, HIGH], 2)


def test_nonzero_value_off_the_degree_budget_is_rejected():
    table = gw_seed_table((3, 3, 3))
    off = [(1, 2), (1, 2), (2, 2)]
    assert not table.budget_ok(off)
    table.set(off, 0)
    with pytest.raises(DomainError, match="degree-budget"):
        table.set(off, 1)
    table.declare_unknown(off, degree=1)
    assert table.value(off, degree=1) == 0
    assert table.unknown_keys == ()


def test_a_label_outside_the_basis_is_named():
    table = gw_seed_table((3, 3, 3))
    bad = (9, 9)
    calls = [
        lambda: table.value([bad, UNIT, POINT]),
        lambda: table.set([UNIT, bad, POINT], 1),
        lambda: table.declare_unknown([UNIT, POINT, bad], degree=1),
        lambda: table.pairing(UNIT, bad),
        lambda: table.budget_ok([bad, UNIT, POINT]),
    ]
    for call in calls:
        with pytest.raises(UnknownLabel) as info:
            call()
        assert isinstance(info.value, KeyError)
        assert isinstance(info.value, DomainError)
        assert str(info.value) == "(9, 9) is not a basis label of this table"


def test_frozen_table_rejects_writes():
    table = phase_table().freeze()
    with pytest.raises(ValueError, match="frozen"):
        table.set([HIGH, HIGH, LOW], 1)
    assert table.copy().set([HIGH, HIGH, LOW], 1) is None


@pytest.mark.parametrize(
    "misuse, message",
    [
        pytest.param(
            lambda: CorrelatorTable((HIGH, HIGH), {(HIGH, HIGH): 1}, degrees={HIGH: F(1, 2)}),
            "^duplicate basis labels$",
            id="duplicate-labels",
        ),
        pytest.param(
            lambda: CorrelatorTable(([0, 1], POINT), {}, degrees={POINT: 1}),
            r"^basis labels \(\[0, 1\], \(0, 2\)\) are not all hashable$",
            id="unhashable-label",
        ),
        pytest.param(
            lambda: CorrelatorTable((UNIT, POINT), [((UNIT, POINT), 1)], degrees={UNIT: 0, POINT: 1}),
            r"^pairing \[\(\(\(0, 1\), \(0, 2\)\), 1\)\] is not a mapping$",
            id="pairing-not-a-mapping",
        ),
        pytest.param(
            lambda: CorrelatorTable((UNIT, POINT), {(UNIT, POINT): 1}, degrees=None),
            "^degrees None is not a mapping$",
            id="degrees-none",
        ),
        # gradings, pairing values and set values are ints or Fractions: a
        # string is not parsed, a float is not read as its binary fraction,
        # and a bool is not read as 0 or 1
        *(
            pytest.param(
                lambda v=v: CorrelatorTable((UNIT, POINT), {(UNIT, POINT): 1}, degrees={UNIT: 0, POINT: v}),
                rf"^the grading of \(0, 2\) is {re.escape(repr(v))}, not an int or a Fraction$",
                id=f"grading-{kind}",
            )
            for kind, v in (("string", "x"), ("float", 1.0), ("bool", True))
        ),
        *(
            pytest.param(
                lambda v=v: CorrelatorTable((UNIT, POINT), {(UNIT, POINT): v}, degrees={UNIT: 0, POINT: 1}),
                rf"^the pairing at \(\(0, 1\), \(0, 2\)\) is {re.escape(repr(v))}, not an int or a Fraction$",
                id=f"pairing-{kind}",
            )
            for kind, v in (("string", "1"), ("float", 0.1), ("bool", True))
        ),
        # a pairing on a label outside the basis, or with two values at one
        # unordered pair, is a MissingPairing
        pytest.param(
            lambda: CorrelatorTable((UNIT, POINT), {(UNIT, (9, 9)): 1}, degrees={UNIT: 0, POINT: 1}),
            r"^pairing on unknown label \(\(0, 1\), \(9, 9\)\)$",
            id="pairing-unknown-label",
        ),
        pytest.param(
            lambda: CorrelatorTable(
                (UNIT, POINT), {(UNIT, POINT): 1, (POINT, UNIT): 2}, degrees={UNIT: 0, POINT: 1}
            ),
            r"^pairing not symmetric at \(\(0, 2\), \(0, 1\)\)$",
            id="pairing-asymmetric",
        ),
        *(
            pytest.param(
                lambda v=v: gw_seed_table((3, 3, 3)).set([(3, 1), (1, 1), (2, 1)], v, degree=1),
                rf"^the value at \(\(\(1, 1\), \(2, 1\), \(3, 1\)\), 1\) is {re.escape(repr(v))}, "
                "not an int or a Fraction$",
                id=f"set-{kind}",
            )
            for kind, v in (("string", "1/2"), ("float", 0.5), ("bool", True))
        ),
        # the orders of P^1_{a1,a2,a3} are three ints >= 2
        *(
            pytest.param(
                lambda orders=orders: gw_seed_table(orders),
                rf"^orbifold orders {re.escape(repr(orders))} are not three ints >= 2$",
                id=f"orders-{kind}",
            )
            for kind, orders in (
                ("two", (3, 3)),
                ("four", (3, 3, 3, 3)),
                ("zero", (0, 3, 3)),
                ("one", (3, 1, 3)),
                ("float", (3, 3, 3.0)),
                ("bool", (True, 3, 3)),
                ("string", "333"),
            )
        ),
        pytest.param(
            lambda: elliptic_orbifold_basis((3, 3)),
            r"^orbifold orders \(3, 3\) are not three ints >= 2$",
            id="basis-orders",
        ),
        pytest.param(lambda: phase_table().value([HIGH, LOW]), "at least 3 insertions", id="two-insertions"),
        # insertions that are no iterable of hashable labels are an
        # UnknownLabel, not a bare TypeError
        pytest.param(
            lambda: gw_seed_table((3, 3, 3)).value([[1], [2], [3]]),
            r"^\[\[1\], \[2\], \[3\]\] is not an iterable of basis labels of this table$",
            id="unhashable-insertions",
        ),
        pytest.param(
            lambda: gw_seed_table((3, 3, 3)).value(5),
            "^5 is not an iterable of basis labels of this table$",
            id="non-iterable-insertions",
        ),
        pytest.param(
            lambda: phase_table().set([HIGH, HIGH, LOW], 1, degree=1), "degree grading", id="ungraded-degree"
        ),
        pytest.param(lambda: phase_table().freeze().set([HIGH, HIGH, LOW], 1), "frozen", id="frozen-set"),
        pytest.param(
            lambda: phase_table().freeze().declare_unknown([HIGH, HIGH, LOW]), "frozen", id="frozen-declare"
        ),
        pytest.param(lambda: apply_divisor_rule(phase_table()), "degree-graded", id="ungraded-divisor-rule"),
        # a curve degree is an int: 1.7 and True are not read as degree 1
        pytest.param(
            lambda: gw_seed_table((3, 3, 3)).value([(1, 1), (2, 1), (3, 1)], degree=1.7),
            r"^curve degree 1\.7 is not an int$",
            id="fractional-degree",
        ),
        pytest.param(
            lambda: gw_seed_table((3, 3, 3)).value([(1, 1), (2, 1), (3, 1)], degree=True),
            "^curve degree True is not an int$",
            id="bool-degree",
        ),
        # the arguments of a scan are checked before it starts, also where a
        # table without unknowns needs no scan: an extra_slots of True is not
        # read as 1, nor a degree 1.5 as a degree of 17 empty instances
        pytest.param(
            lambda: check_residuals(gw_seed_table((3, 3, 3)), extra_slots=1.5),
            r"^extra_slots 1\.5 is not an int >= 0$",
            id="fractional-extra-slots",
        ),
        pytest.param(
            lambda: propagate(gw_unknowns(gw_seed_table((3, 3, 3)), 1), extra_slots=-1, degrees=range(2)),
            "^extra_slots -1 is not an int >= 0$",
            id="negative-extra-slots",
        ),
        pytest.param(
            lambda: propagate(gw_seed_table((3, 3, 3)), extra_slots=1.5),
            r"^extra_slots 1\.5 is not an int >= 0$",
            id="closed-table-extra-slots",
        ),
        pytest.param(
            lambda: check_residuals(gw_seed_table((3, 3, 3)), extra_slots=True),
            "^extra_slots True is not an int >= 0$",
            id="bool-extra-slots",
        ),
        pytest.param(
            lambda: propagate(gw_unknowns(gw_seed_table((3, 3, 3)), 1), degrees=5),
            "^degrees 5 is not a sequence of curve degrees$",
            id="int-degrees",
        ),
        pytest.param(
            lambda: check_residuals(gw_seed_table((3, 3, 3)), extra_slots=0, degrees=(0, 1.5)),
            r"^curve degree 1\.5 is not an int$",
            id="fractional-scan-degree",
        ),
        pytest.param(
            lambda: check_residuals(
                fjrw_theory("e6-fermat").correlator_table(),
                degrees=(0, 5),
                admissible=fjrw_theory("e6-fermat").narrow_nodes,
            ),
            "^degree grading not enabled for this table$",
            id="ungraded-scan-degree",
        ),
        pytest.param(
            # a repeated degree would scan, and count, its relations twice
            lambda: check_residuals(gw_seed_table((3, 3, 3)), degrees=(0, 1, 1)),
            r"^curve degree 1 is repeated in degrees \(0, 1, 1\)$",
            id="repeated-scan-degree",
        ),
    ],
)
def test_table_misuse_is_a_typed_domain_error(misuse, message):
    with pytest.raises(DomainError, match=message) as info:
        misuse()
    # a fault of the pairing is a MissingPairing, and no other misuse is
    assert isinstance(info.value, MissingPairing) == message.startswith("^pairing ")


# ---------------------------------------------------------------------------
# residuals and propagation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=ORBIFOLDS, ids=str)
def gw_seeded(request):
    return apply_divisor_rule(gw_unknowns(gw_seed_table(request.param), 1))


@pytest.fixture(scope="module")
def gw_solved(gw_seeded):
    return gw_seeded, propagate(gw_seeded, degrees=range(2))


def test_the_divisor_rule_extends_only_three_point_keys(gw_seeded):
    # applied to its own output, the rule skips the four-point keys that it
    # added, so the table does not change
    assert any(len(insertions) == 4 for (insertions, _), _ in gw_seeded.known_items())
    again = apply_divisor_rule(gw_seeded)
    assert again is not gw_seeded
    assert again.known_items() == gw_seeded.known_items()
    assert again.unknown_keys == gw_seeded.unknown_keys


def test_propagate_solves_and_checks_the_gw_tables(gw_solved):
    seeded, solved = gw_solved
    solved_keys = set(seeded.unknown_keys) - set(solved.unknown_keys)
    assert solved_keys
    assert set(solved.unknown_keys) <= set(seeded.unknown_keys)
    assert check_residuals(solved, degrees=range(2)) > 0


def test_propagate_rejects_a_contradiction():
    table = gw_seed_table((3, 3, 3))
    table.set([(1, 1), (1, 1), (1, 1), POINT], 5, degree=0)
    table.declare_unknown([(2, 1), (2, 1), (2, 1)], degree=1)
    with pytest.raises(InconsistentSystem, match="residual"):
        propagate(table, degrees=range(2))


def test_string_and_divisor_equations(gw_solved):
    for table in gw_solved:
        items = table.known_items()
        assert items
        for (insertions, d), value in items:
            if len(insertions) == 3 and d == 0 and UNIT in insertions:
                rest = list(insertions)
                rest.remove(UNIT)
                assert value == table.pairing(*rest)
            if len(insertions) != 4:
                continue
            if UNIT in insertions:
                assert value == 0
            if POINT in insertions:
                rest = list(insertions)
                rest.remove(POINT)
                three = table.value(rest, degree=d)
                if three is not None:
                    assert value == d * three


def test_admissible_sees_positions_once_per_half_and_extra():
    # LOW is the unit of the algebra Q[x]/(x^2 - 2) with x = HIGH
    table = phase_table()
    table.set([LOW, LOW, HIGH], 1)
    table.set([HIGH, HIGH, HIGH], 2)
    calls = []

    def admissible(half, extra):
        calls.append((half, extra))
        return True

    checked = check_residuals(table, admissible=admissible)
    assert checked > 0
    assert len(calls) == len(set(calls))
    positions = set(range(len(table.labels)))
    for half, extra in calls:
        assert len(half) == 2 and set(half) <= positions
        assert set(extra) <= positions


def test_propagate_ignores_shuffle_seed(monkeypatch):
    theory = ises.fjrw.FjrwTheory(get_entry(CATALOG, "e7-loop33"))
    inputs = []
    original = ises.fjrw.propagate

    def capture(table, **kwargs):
        inputs.append(table)
        return original(table, **kwargs)

    monkeypatch.setattr(ises.fjrw, "propagate", capture)
    reference = theory.correlator_table()
    (table,) = inputs
    assert table.unknown_keys
    for seed in (1, 2):
        shuffled = propagate(table, admissible=theory.narrow_nodes, shuffle_seed=seed)
        assert shuffled.known_items() == reference.known_items()
        assert shuffled.unknown_keys == reference.unknown_keys


def residual(table, instance, memo):
    """The int kernel's residual of one instance, as a scan forms it from
    the first pairing's sum, over the product lists ``memo`` of that scan."""
    pair1, pair2, extra, degree = instance
    first = ises.wdvv._pair_sum(table, pair1, extra, degree, memo)
    if first is None:
        return None
    return ises.wdvv._residual(table, first, pair2, extra, degree, memo)


def exact(table, form):
    """A residual or pair sum of the int kernel as exact rationals: the
    constant over D^2 E and each coefficient over D E, D and E being the
    table's denominators of values and of the inverse pairing; None stays
    None."""
    if form is None:
        return None
    constant, terms = form
    scale = table._den * table._eta_den
    return F(constant, scale * table._den), {key: F(c, scale) for key, c in terms.items()}


def rescanning_propagate(table, degrees):
    """Reference for :func:`propagate`: every pass evaluates every instance,
    until a pass solves nothing.  Returns the closed table and the number
    of passes."""
    work = table.copy()
    instances = list(scan_instances(work, 1, degrees, None))
    memo = ises.wdvv._ScanMemo(work, 1, degrees)
    passes = 0
    progress = True
    while progress and work._unknown:
        progress = False
        passes += 1
        for instance in instances:
            form = exact(work, residual(work, instance, memo))
            if form is not None and len(form[1]) == 1:
                constant, terms = form
                (key, coeff), = terms.items()
                work._set_key(key, -constant / coeff)
                progress = True
    return work, passes, len(instances)


def test_propagate_rescans_only_open_instances(monkeypatch):
    degrees = range(2)
    seeded = apply_divisor_rule(gw_unknowns(gw_seed_table((3, 3, 3)), 1))
    reference, passes, instances = rescanning_propagate(seeded, degrees)
    assert passes > 1
    calls = []
    original = ises.wdvv._residual

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(ises.wdvv, "_residual", counted)
    solved = propagate(seeded, degrees=degrees)
    assert instances <= len(calls) < passes * instances
    assert solved.known_items() == reference.known_items()
    assert solved.unknown_keys == reference.unknown_keys
    monkeypatch.undo()
    for seed in (1, 2):
        shuffled = propagate(seeded, degrees=degrees, shuffle_seed=seed)
        assert shuffled.known_items() == solved.known_items()
        assert shuffled.unknown_keys == solved.unknown_keys


def test_propagate_skips_the_instances_of_a_closed_table(monkeypatch):
    def unexpected(*args):
        raise AssertionError("relation groups listed for a table without unknowns")

    monkeypatch.setattr(ises.wdvv, "_groups", unexpected)
    table = gw_seed_table((3, 3, 3))
    assert propagate(table, degrees=range(2)).known_items() == table.known_items()


# ---------------------------------------------------------------------------
# the routed residual against the full k-loop
# ---------------------------------------------------------------------------


def reference_eta(table):
    """Rows of the inverse pairing, inverted from the pairing itself."""
    matrix = [[table.pairing(a, b) for b in table.labels] for a in table.labels]
    return [tuple((l, v) for l, v in enumerate(row) if v) for row in inverse(matrix)]


class FractionTable:
    """The state of the ``Fraction``-only references: a table's known values
    as read through ``known_items`` and keyed by internal key, its unknown
    keys, and its inverse pairing inverted from the pairing itself."""

    def __init__(self, table):
        self.values = {
            table._key(*key) if table.graded else table._key(key): value
            for key, value in table.known_items()
        }
        self.unknown = set(table._unknown)
        self.eta = reference_eta(table)


def leibniz_splits(extra):
    """Every way to send each extra slot to the left or the right factor, as
    (left extras, right extras): 2^n splits for n slots, a repeated label
    giving the same split more than once."""
    return [
        (
            tuple(x for i, x in enumerate(extra) if mask >> i & 1),
            tuple(x for i, x in enumerate(extra) if not mask >> i & 1),
        )
        for mask in range(1 << len(extra))
    ]


def reference_pair_sum(ref, left_pair, right_pair, extra, degree):
    """The pair sum over every k of the inverse pairing, with the Leibniz
    and degree splits computed per call; (constant, terms), or None when
    quadratic."""
    eta, values, unknown = ref.eta, ref.values, ref.unknown
    splits = [(d1, degree - d1) for d1 in range(degree + 1)]
    leibniz = leibniz_splits(extra)
    constant = F(0)
    terms = {}
    for k, duals in enumerate(eta):
        if not duals:
            continue
        for left_extra, right_extra in leibniz:
            left_ins = tuple(sorted(left_pair + (k,) + left_extra))
            right_tail = right_pair + right_extra
            for d1, d2 in splits:
                left_key = (left_ins, d1)
                left_unknown = left_key in unknown
                left = None if left_unknown else values.get(left_key)
                if not (left_unknown or left):
                    continue
                acc = F(0)
                acc_terms = {}
                for l, eta_kl in duals:
                    right_ins = tuple(sorted((l,) + right_tail))
                    right_key = (right_ins, d2)
                    if right_key in unknown:
                        acc_terms[right_key] = acc_terms.get(right_key, 0) + eta_kl
                    else:
                        right = values.get(right_key)
                        if right:
                            acc += eta_kl * right
                acc_terms = {key: c for key, c in acc_terms.items() if c}
                if left_unknown:
                    if acc_terms:
                        return None
                    if acc:
                        terms[left_key] = terms.get(left_key, 0) + acc
                else:
                    if acc:
                        constant += left * acc
                    for key, c in acc_terms.items():
                        terms[key] = terms.get(key, 0) + left * c
    return constant, terms


def reference_residual(ref, pair1, pair2, extra, degree):
    first = reference_pair_sum(ref, *pair1, extra, degree)
    second = reference_pair_sum(ref, *pair2, extra, degree)
    if first is None or second is None:
        return None
    terms = dict(first[1])
    for key, c in second[1].items():
        terms[key] = terms.get(key, 0) - c
    return first[0] - second[0], {key: c for key, c in terms.items() if c}


def assert_routed_residuals(table, degrees, admissible=None, instances=None):
    """The routed residual of every instance (of the scan, unless given)
    equals the reference; returns how many were quadratic, nonzero
    constants and linear in unknowns."""
    ref = FractionTable(table)
    memo = ises.wdvv._ScanMemo(table, 1, degrees)
    shapes = {"quadratic": 0, "constant": 0, "linear": 0}
    if instances is None:
        instances = scan_instances(table, 1, degrees, admissible)
    for instance in instances:
        form = exact(table, residual(table, instance, memo))
        expected = reference_residual(ref, *instance)
        if expected is None:
            assert form is None, instance
            shapes["quadratic"] += 1
            continue
        assert form == expected, instance
        constant, terms = form
        if terms:
            shapes["linear"] += 1
        elif constant:
            shapes["constant"] += 1
    return shapes


def test_routed_residuals_on_the_seeded_gw_tables(gw_seeded):
    shapes = assert_routed_residuals(gw_seeded, range(2))
    assert shapes["quadratic"] and shapes["linear"]


def test_routed_residuals_on_the_solved_gw_tables(gw_solved):
    seeded, solved = gw_solved
    assert solved._eta is seeded._eta
    assert assert_routed_residuals(solved, range(2))["linear"]


@pytest.mark.parametrize("name", FJRW_NAMES)
def test_routed_residuals_on_the_fjrw_tables(name):
    theory = fjrw_theory(name)
    table = theory.correlator_table()
    shapes = assert_routed_residuals(table, (0,), theory.narrow_nodes)
    assert shapes["constant"] == 0
    assert bool(table.unknown_keys) == bool(shapes["linear"])


def test_routed_residuals_without_the_node_filter():
    # e7-chain322's narrow table keeps 4 unknowns
    table = fjrw_theory("e7-chain322").correlator_table()
    assert len(table.unknown_keys) == 4
    assert table.copy()._eta is table._eta
    shapes = assert_routed_residuals(table, (0,))
    assert shapes == {"quadratic": 0, "constant": 0, "linear": 10}
    # the scan takes each relation once; the full scan, repeats included,
    # still routes the rest, here two more linear ones
    full = reference_instances(table, 1, (0,), None)
    shapes = assert_routed_residuals(table, (0,), instances=full)
    assert shapes == {"quadratic": 0, "constant": 0, "linear": 12}


def budget_tables():
    # a largest denominator, 3, that is not the lcm of the denominators, 6
    degrees = dict(zip("uphHtT", (F(0), F(1), F(1, 2), F(1, 2), F(1, 3), F(2, 3))))
    pairing = {("u", "p"): 1, ("h", "H"): 1, ("t", "T"): 1}
    yield CorrelatorTable(tuple(degrees), pairing, degrees=degrees), degrees
    for orders in ORBIFOLDS:
        yield gw_seed_table(orders), elliptic_orbifold_basis(orders)[1]
    for name in FJRW_NAMES:
        theory = fjrw_theory(name)
        table = theory.correlator_table()
        yield table, {label: theory.sectors[label].degree for label in table.labels}


def test_int_budget_matches_the_fraction_sum():
    for table, degrees in budget_tables():
        hits = 0
        for n in (3, 4):
            for insertions in combinations_with_replacement(table.labels, n):
                expected = sum(degrees[x] for x in insertions) == n - 2
                assert table.budget_ok(insertions) == expected, insertions
                hits += expected
        assert hits


def test_budget_keys_are_the_budget_multisets_in_combinations_order():
    for table, _ in budget_tables():
        basis = range(len(table.labels))
        for n in (3, 4, 5):
            expected = [ins for ins in combinations_with_replacement(basis, n) if table._budget_ok(ins)]
            assert list(table._budget_keys(n)) == expected, (table.labels, n)
            assert expected or n == 5


# ---------------------------------------------------------------------------
# the routed instance scan against the filtered full scan
# ---------------------------------------------------------------------------


def reference_budget_filter(table):
    """Predicate selecting instances whose terms can pass the degree budget:
    the weights of the quad and the extras must sum to (2 + n_extra) L - c,
    with c the weight sum shared by all pairing-dual pairs.  None when the
    pairing is not degree-homogeneous."""
    weight, scale = table._weight, table._scale
    sums = {weight[i] + weight[j] for (i, j), v in table._pairing.items() if v}
    if len(sums) != 1:
        return None
    offset = 2 * scale - sums.pop()

    def ok(quad, extra):
        total = sum(weight[i] for i in quad) + sum(weight[i] for i in extra)
        return total == offset + len(extra) * scale

    return ok


def reference_groups(table, extra_slots, degrees, admissible):
    """Every (quad, extra) of the basis that passes the budget predicate, as
    (pairings, verdicts, extra, degree list): the quad's pairings ab|cd,
    ac|bd and ad|bc with their admissible verdicts, a pairing's verdict
    being that both of its halves are admissible; ``admissible(half,
    extra)`` receives labels."""
    degree_list = list(degrees) if table.graded else [0]
    budget = reference_budget_filter(table)
    basis = range(len(table.labels))
    for quad in combinations_with_replacement(basis, 4):
        a, b, c, d = quad
        pairings = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
        for n_extra in range(extra_slots + 1):
            for extra in combinations_with_replacement(basis, n_extra):
                if budget is not None and not budget(quad, extra):
                    continue
                verdicts = [
                    admissible is None
                    or all(admissible(table._names(half), table._names(extra)) for half in p)
                    for p in pairings
                ]
                yield pairings, verdicts, extra, degree_list


def reference_instances(table, extra_slots, degrees, admissible):
    """The full instance scan: when ab|cd is admissible, ab|cd against each
    admissible one of ac|bd and ad|bc as written, repeats included."""
    for pairings, verdicts, extra, degree_list in reference_groups(
        table, extra_slots, degrees, admissible
    ):
        if not verdicts[0]:
            continue
        others = [p for p, ok in zip(pairings[1:], verdicts[1:]) if ok]
        for degree in degree_list:
            for pair2 in others:
                yield pairings[0], pair2, extra, degree


def one_relation_each(table, extra_slots, degrees, admissible):
    """The full scan filtered to each relation once: the pairings deduped by
    their unordered halves, the admissible ones kept, and the first of them
    against each of the others."""
    for pairings, verdicts, extra, degree_list in reference_groups(
        table, extra_slots, degrees, admissible
    ):
        distinct = []
        for p, ok in zip(pairings, verdicts):
            if set(p) not in [set(q) for q, _ in distinct]:
                distinct.append((p, ok))
        kept = [p for p, ok in distinct if ok]
        for degree in degree_list:
            for pair2 in kept[1:]:
                yield kept[0], pair2, extra, degree


def named_nodes(theory):
    """``theory.narrow_nodes`` on labels of its correlator table."""
    position = {label: i for i, label in enumerate(theory.correlator_table().labels)}

    def named(half, extra):
        return theory.narrow_nodes(
            tuple(position[x] for x in half),
            tuple(position[x] for x in extra),
        )

    return named


def assert_same_scan(table, extra_slots, degrees, admissible=None, named=None):
    """The routed scan yields each relation of the reference scan once, in
    the same order; ``named`` is ``admissible`` in labels, for the
    reference."""
    expected = list(one_relation_each(table, extra_slots, degrees, named))
    assert expected
    routed = scan_instances(table, extra_slots, degrees, admissible)
    assert list(routed) == expected


def test_the_pairing_rule_is_the_dedupe_of_unordered_halves():
    # six self-dual labels of grading 1/3: every quad has weight 4/3 = 2 - 2/3,
    # the budget of the empty extra, so the scan meets every quad
    labels = tuple("abcdef")
    table = CorrelatorTable(labels, {(x, x): 1 for x in labels}, degrees=dict.fromkeys(labels, F(1, 3)))
    listed = {}
    for pairings, extra, degree in ises.wdvv._groups(table, 0, (0,), None):
        assert (extra, degree) == ((), 0)
        (left, right), *_ = pairings
        listed[tuple(sorted(left + right))] = pairings
    sizes = Counter()
    for a, b, c, d in combinations_with_replacement(range(6), 4):
        distinct = {}
        for pair in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            distinct.setdefault(frozenset(pair), pair)
        expected = list(distinct.values())
        # a quad left with one pairing yields no group
        assert listed.pop((a, b, c, d), expected[:1]) == expected, (a, b, c, d)
        sizes[len(expected)] += 1
    assert not listed
    assert sizes == {1: 36, 2: 75, 3: 15}


def test_routed_scan_on_the_gw_tables(gw_seeded):
    assert reference_budget_filter(gw_seeded) is not None
    assert_same_scan(gw_seeded, 1, range(2))


def test_routed_scan_with_two_extra_slots():
    table = gw_seed_table((4, 4, 2))
    assert_same_scan(table, 2, range(2))


@pytest.mark.parametrize("name", FJRW_NAMES)
def test_routed_scan_on_the_fjrw_tables(name):
    theory = fjrw_theory(name)
    table = theory.correlator_table()
    assert table.labels == tuple(t for t, s in theory.sectors.items() if s.narrow)
    assert reference_budget_filter(table) is not None
    assert_same_scan(table, 1, (0,), theory.narrow_nodes, named_nodes(theory))


def test_routed_scan_without_the_node_filter():
    table = fjrw_theory("e6-chain233").correlator_table()
    assert_same_scan(table, 1, (0,))


def test_a_pairing_that_is_not_homogeneous_is_rejected():
    # u.p and h.h have grading sum 1, t.t has 2/3
    degrees = {"u": F(0), "p": F(1), "h": F(1, 2), "t": F(1, 3)}
    pairing = {("u", "p"): 1, ("h", "h"): 1, ("t", "t"): 1}
    with pytest.raises(MissingPairing, match="dual grading sums 2/3, 1$"):
        CorrelatorTable(tuple(degrees), pairing, degrees=degrees)
    # with t.T for t.t every dual pair sums to 1, and the explicit zeros of a
    # pairing listed over all label pairs are not read
    degrees["T"] = F(2, 3)
    pairing = {(a, b): 0 for a in degrees for b in degrees}
    for a, b in (("u", "p"), ("h", "h"), ("t", "T")):
        pairing[a, b] = pairing[b, a] = 1
    table = CorrelatorTable(tuple(degrees), pairing, degrees=degrees)
    assert table.pairing("T", "t") == 1


@pytest.mark.parametrize("name", FJRW_NAMES)
def test_a_second_scan_adds_no_node_data(name):
    theory = ises.fjrw.FjrwTheory(get_entry(CATALOG, name))
    halves, blocked = theory._half_nodes, theory._blocked
    assert blocked == {}
    table = theory.correlator_table()
    first = check_residuals(table, admissible=theory.narrow_nodes)
    assert first > 0
    # every ordered half of the narrow basis, built with the theory, and the
    # empty and one-slot extras, whose node sets the closure and the first
    # scan built on first use
    n = len(table.labels)
    assert len(halves) == n * n
    assert set(blocked) == {(), *((i,) for i in range(n))}
    built = (dict(halves), dict(blocked))
    assert check_residuals(table, admissible=theory.narrow_nodes) == first
    assert theory._half_nodes is halves and theory._blocked is blocked
    assert (halves, blocked) == built


# ---------------------------------------------------------------------------
# the product lists of a scan
# ---------------------------------------------------------------------------


def gw_closed(orders):
    """The GW table of P^1_orders at D = 1, seeded and closed by propagate."""
    seeded = apply_divisor_rule(gw_unknowns(gw_seed_table(orders), 1))
    return seeded, propagate(seeded, degrees=range(2))


def scan_tables():
    """The 13 tables of the bench scans with their degrees and filters: the
    three GW tables at D = 1, seeded and closed, and the 10 FJRW tables."""
    for orders in ORBIFOLDS:
        for table in gw_closed(orders):
            yield f"gw{orders}", table, range(2), None
    for name in FJRW_NAMES:
        theory = fjrw_theory(name)
        yield name, theory.correlator_table(), (0,), theory.narrow_nodes


def group(instance):
    """The (quad, extra, degree) of an instance."""
    (left, right), _, extra, degree = instance
    return tuple(sorted(left + right)), extra, degree


def test_the_scan_drops_no_relation_of_the_full_scan():
    for name, table, degrees, admissible in scan_tables():
        named = None if admissible is None else named_nodes(fjrw_theory(name))
        ref = FractionTable(table)
        kept = {}
        for instance in scan_instances(table, 1, degrees, admissible):
            residual = reference_residual(ref, *instance)
            kept.setdefault(group(instance), []).append(residual)
        repeats = 0
        for instance in reference_instances(table, 1, degrees, named):
            pair1, pair2, extra, degree = instance
            if set(pair1) == set(pair2):
                # S(L|R) = S(R|L), so the residual is zero on every table
                first, second = (
                    normal(reference_pair_sum(ref, *pair, extra, degree))
                    for pair in (pair1, pair2)
                )
                assert first == second, (name, instance)
                repeats += 1
            else:
                residual = reference_residual(ref, *instance)
                assert residual in kept[group(instance)], (name, instance)
        assert repeats, name


def random_gw_table(orders):
    """P^1_orders with every budget key of 3 to 5 insertions at degrees 0
    and 1 set to a random positive value, so no relation holds by accident."""
    labels, degrees = elliptic_orbifold_basis(orders)
    seed = gw_seed_table(orders)
    pairing = {(a, b): seed.pairing(a, b) for a in labels for b in labels}
    table = CorrelatorTable(labels, pairing, degrees=degrees, graded=True)
    rng = random.Random(str(orders))
    for n in (3, 4, 5):
        for insertions in combinations_with_replacement(labels, n):
            if table.budget_ok(insertions):
                for d in range(2):
                    value = F(rng.randint(1, 1000), rng.randint(1, 1000))
                    table.set(insertions, value, degree=d)
    return table


@pytest.mark.parametrize(
    "orders, instances", zip(ORBIFOLDS, (858, 1170, 1318)), ids=str
)
def test_every_scanned_instance_is_nonzero_on_a_random_table(orders, instances):
    table = random_gw_table(orders)
    scanned = list(scan_instances(table, 1, range(2), None))
    assert len(scanned) == instances
    memo = ises.wdvv._ScanMemo(table, 1, range(2))
    for instance in scanned:
        form = residual(table, instance, memo)
        assert form is not None and form[0] and not form[1], instance


def test_relations_behind_an_inadmissible_first_pairing_are_scanned():
    # ab|cd fails the node check, ac|bd and ad|bc pass: the full scan, which
    # anchors on ab|cd, never checks this relation
    anchored = {}
    for name in FJRW_NAMES:
        theory = fjrw_theory(name)
        table = theory.correlator_table()
        memo = ises.wdvv._ScanMemo(table, 1, (0,))
        for instance in scan_instances(table, 1, (0,), theory.narrow_nodes):
            (a, b, c, d), extra, _ = group(instance)
            if instance[0] != ((a, b), (c, d)):
                assert not (theory.narrow_nodes((a, b), extra) and theory.narrow_nodes((c, d), extra))
                assert residual(table, instance, memo) == (0, {}), (name, instance)
                anchored[name] = anchored.get(name, 0) + 1
    assert anchored == {
        "e7-chain34": 11,
        "e7-loop33": 3,
        "e7-chain322": 15,
        "e8-chain32": 17,
        "e8-chain43": 11,
    }


def normal(pair_sum):
    """A pair sum with its zero coefficients dropped, or None."""
    if pair_sum is None:
        return None
    constant, terms = pair_sum
    return constant, {key: c for key, c in terms.items() if c}


def test_pair_sums_are_symmetric_and_check_residuals_counts_the_known_zeros():
    for name, table, degrees, admissible in scan_tables():
        memo = ises.wdvv._ScanMemo(table, 1, degrees)
        ref = FractionTable(table)
        instances = list(scan_instances(table, 1, degrees, admissible))
        swapped = 0
        for pair1, pair2, extra, degree in instances:
            for pair in (pair1, pair2):
                left = ises.wdvv._pair_sum(table, pair, extra, degree, memo)
                right = ises.wdvv._pair_sum(table, pair[::-1], extra, degree, memo)
                assert normal(left) == normal(right), (name, pair, extra, degree)
                swapped += left is not None
        assert swapped, name
        known_zeros = 0
        for instance in instances:
            expected = reference_residual(ref, *instance)
            known_zeros += expected is not None and expected == (0, {})
        checked = check_residuals(table, degrees=degrees, admissible=admissible)
        assert checked == known_zeros, name


def memo_key(pair, extra, degree):
    """The key of a pair sum's product list: the halves in order."""
    left, right = sorted(pair)
    return left, right, extra, degree


def listed(table, memo, key):
    """The products of one list of ``memo`` as a Counter of (the two keys in
    order, coefficient as a rational)."""
    flat = memo.get(key, [])
    return Counter(
        (tuple(sorted(flat[i : i + 2])), F(flat[i + 2], table._eta_den))
        for i in range(0, len(flat), 3)
    )


def reference_products(ref, key):
    """The products of the pair sum S(left | right) on the live keys, as
    ``listed`` gives them: each term <left + E1, k> eta^{kl} <l, right + E2>
    of ``reference_pair_sum`` whose keys are both live, the terms of one pair
    of cuts (k, E1) and (l, E2) summed, over the Leibniz splits that send the
    same extras left and, when the halves are equal, over the two
    orientations."""
    left, right, extra, degree = key
    live = {k for k, v in ref.values.items() if v} | ref.unknown
    products: dict = {}
    for k, duals in enumerate(ref.eta):
        for left_extra, right_extra in leibniz_splits(extra):
            for d1 in range(degree + 1):
                a = (tuple(sorted(left + (k,) + left_extra)), d1)
                if a not in live:
                    continue
                for l, eta in duals:
                    b = (tuple(sorted(right + (l,) + right_extra)), degree - d1)
                    if b in live:
                        cuts = frozenset(
                            {(a, k, tuple(sorted(left_extra))), (b, l, tuple(sorted(right_extra)))}
                        )
                        keys = tuple(sorted((a, b)))
                        products[cuts, keys] = products.get((cuts, keys), 0) + eta
    return Counter((keys, c) for (_, keys), c in products.items())


# the lists and the products of the join that the check_residuals scan of each
# closed GW table at D = 1 builds, the scan's set-up work as counts
JOIN = {(3, 3, 3): (317, 378), (4, 4, 2): (507, 628), (6, 3, 2): (757, 1022)}


@pytest.mark.parametrize("orders", ORBIFOLDS, ids=str)
def test_check_residuals_joins_each_product_once(orders, monkeypatch):
    _, solved = gw_closed(orders)
    memos = []
    memo_class = ises.wdvv._ScanMemo

    def built(*args):
        memos.append(memo_class(*args))
        return memos[-1]

    monkeypatch.setattr(ises.wdvv, "_ScanMemo", built)
    assert check_residuals(solved, degrees=range(2)) > 0
    (memo,) = memos
    assert (len(memo), sum(len(flat) // 3 for flat in memo.values())) == JOIN[orders]
    assert all(left <= right for left, right, _, _ in memo)
    # each list holds every product of the reference once, in one orientation
    ref = FractionTable(solved)
    keys = {
        memo_key(pair, extra, degree)
        for instance in scan_instances(solved, 1, range(2), None)
        for pair, extra, degree in ((instance[0], *instance[2:]), instance[1:])
    }
    for key in keys | set(memo):
        assert listed(solved, memo, key) == reference_products(ref, key), key


def test_a_two_slot_memo_gives_the_reference_pair_sums():
    # unknowns among the random values give linear and quadratic sums
    table = random_gw_table((4, 4, 2))
    unknown = list(table._values)[::7]
    for key in unknown:
        table._values.pop(key)
        table._unknown.add(key)
    memo = ises.wdvv._ScanMemo(table, 2, range(2))
    # keys solved after the join, some to 0, which then adds nothing
    for key, value in zip(unknown[::5], (0, 3) * len(unknown)):
        table._unknown.discard(key)
        table._values[key] = value
    ref = FractionTable(table)
    keys = {
        memo_key(pair, extra, degree)
        for pairs, extra, degree in ises.wdvv._groups(table, 2, range(2), None)
        for pair in pairs
    }
    shapes = Counter()
    for key in keys | set(memo):
        left, right, extra, degree = key
        got = exact(table, ises.wdvv._pair_sum(table, (left, right), extra, degree, memo))
        expected = normal(reference_pair_sum(ref, left, right, extra, degree))
        assert normal(got) == expected, key
        repeated = len(extra) == 2 and extra[0] == extra[1]
        shapes[repeated, "quadratic" if got is None else "linear" if got[1] else "constant"] += 1
    # a repeated extra label meets each shape of sum, so its slot count is read
    assert all(shapes[True, shape] for shape in ("quadratic", "linear", "constant")), shapes


@pytest.mark.parametrize("orders", ORBIFOLDS, ids=str)
def test_the_supports_of_the_closed_table_are_inside_the_seeded_ones(orders):
    # the support of a pair sum is its product list: the products of the
    # keys live when the scan started, and keys solved to 0 stay in it
    seeded, solved = gw_closed(orders)
    solved_zero = [key for key in seeded._unknown if solved._values.get(key) == 0]
    assert solved_zero
    stale = ises.wdvv._ScanMemo(seeded, 1, range(2))
    closed = ises.wdvv._ScanMemo(solved, 1, range(2))
    assert set(closed) <= set(stale)
    smaller = 0
    for key in stale:
        after, before = listed(solved, closed, key), listed(seeded, stale, key)
        assert after <= before, key
        smaller += after < before
    assert smaller
    # so the lists of the seeded table give the closed table's residuals
    for instance in scan_instances(solved, 1, range(2), None):
        expected = exact(solved, residual(solved, instance, closed))
        assert exact(solved, residual(solved, instance, stale)) == expected, instance


@pytest.mark.parametrize("orders", ORBIFOLDS, ids=str)
def test_propagate_never_names_a_solved_key(orders, monkeypatch):
    degrees = range(2)
    seeded = apply_divisor_rule(gw_unknowns(gw_seed_table(orders), 1))
    reference = rescanning_propagate(seeded, degrees)[0]
    residual = ises.wdvv._residual
    stale = []

    def checked(table, *args):
        # a residual never names a key that an earlier instance solved
        form = residual(table, *args)
        if form is not None:
            stale.extend(key for key in form[1] if key not in table._unknown)
        return form

    monkeypatch.setattr(ises.wdvv, "_residual", checked)
    for seed in (None, 1, 2, 3):
        solved = propagate(seeded, degrees=degrees, shuffle_seed=seed)
        assert stale == []
        assert solved.known_items() == reference.known_items()
        assert solved.unknown_keys == reference.unknown_keys


# ---------------------------------------------------------------------------
# the int kernel against the Fraction-only reference
# ---------------------------------------------------------------------------


def reference_propagate(table, degrees):
    """Reference for :func:`propagate` on ``Fraction``s only: every pass
    evaluates every instance of the scan by :func:`reference_residual`,
    solves each that is linear in one unknown and raises InconsistentSystem
    on a known instance with a nonzero residual, until a pass solves
    nothing.  Returns the closed :class:`FractionTable`."""
    ref = FractionTable(table)
    instances = list(scan_instances(table, 1, degrees, None))
    progress = True
    while progress and ref.unknown:
        progress = False
        for instance in instances:
            form = reference_residual(ref, *instance)
            if form is None or len(form[1]) > 1:
                continue
            constant, terms = form
            if not terms:
                if constant:
                    raise InconsistentSystem(f"has residual {constant}")
                continue
            (key, coeff), = terms.items()
            ref.values[key] = -constant / coeff
            ref.unknown.discard(key)
            progress = True
    return ref


def scaled_gw(orders, scale):
    """The seeded GW table of P^1_orders at D = 1 with its pairing and every
    seeded value multiplied by ``scale``.  A WDVV term is a correlator times
    an inverse-pairing entry times a correlator, so each residual scales by
    ``scale`` and the closed table is ``scale`` times the unscaled one."""
    seed = gw_seed_table(orders)
    labels, degrees = elliptic_orbifold_basis(orders)
    pairing = {(a, b): scale * seed.pairing(a, b) for a in labels for b in labels}
    table = CorrelatorTable(labels, pairing, degrees=degrees, graded=True)
    for (insertions, d), value in seed.known_items():
        table.set(insertions, scale * value, degree=d)
    return apply_divisor_rule(gw_unknowns(table, 1))


# scale -> (D of the seeded table, D of the closed table, E): at scale 1 the
# solved keys bring the denominator 9 into a table over 3; 2 makes the inverse
# pairing 3/2 on the twisted sectors; the prime 999983 puts numerators near
# 10^6 on the values and into the denominator of the inverse pairing
SCALES = {1: (3, 9, 1), 2: (3, 9, 2), 999983: (3, 9, 999983)}


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_the_int_kernel_closes_like_the_fraction_reference(scale):
    seeded = scaled_gw((3, 3, 3), scale)
    solved = propagate(seeded, degrees=range(2))
    assert (seeded._den, solved._den, solved._eta_den) == SCALES[scale]
    if scale > 10**5:
        assert max(map(abs, seeded._values.values())) >= scale
    ref = reference_propagate(seeded, range(2))
    assert FractionTable(solved).values == ref.values
    assert solved._unknown == ref.unknown
    assert dict(solved.known_items()) == {
        key: scale * value for key, value in gw_closed((3, 3, 3))[1].known_items()
    }
    assert check_residuals(solved, degrees=range(2)) > 0


@pytest.mark.parametrize("scale", [1, 999983])
def test_a_planted_value_raises_with_its_exact_residual(scale):
    seeded = scaled_gw((3, 3, 3), scale)
    seeded.set([(1, 1), (1, 1), (2, 2), (2, 2)], scale * F(5, 7), degree=0)
    with pytest.raises(InconsistentSystem) as expected:
        reference_propagate(seeded, range(2))
    residual = str(expected.value).removeprefix("has residual ")
    assert F(residual).denominator > 1
    with pytest.raises(InconsistentSystem) as info:
        propagate(seeded, degrees=range(2))
    assert str(info.value).startswith("known instance ")
    assert str(info.value).endswith(f" has residual {residual}")
    # check_residuals names the first known instance of the scan
    ref = FractionTable(seeded)
    forms = (
        reference_residual(ref, *instance)
        for instance in scan_instances(seeded, 1, range(2), None)
    )
    first = next(constant for constant, terms in filter(None, forms) if constant and not terms)
    with pytest.raises(InconsistentSystem) as info:
        check_residuals(seeded, degrees=range(2))
    assert str(info.value).startswith("known instance ")
    assert str(info.value).endswith(f" has residual {first}")


# ---------------------------------------------------------------------------
# degree-two reconstruction at the cusps
# ---------------------------------------------------------------------------


# (orders, D) -> keys solved, keys still open, residuals checked and
# three-point values resolved by the graded reconstruction at degrees 0..D;
# the D = 1 sums, 295 / 135 / 3,063, are the counts of the gw-reconstruct
# workload
RECONSTRUCTION = {
    ((3, 3, 3), 1): (96, 34, 831, 3),
    ((4, 4, 2), 1): (103, 49, 1079, 4),
    ((6, 3, 2), 1): (96, 52, 1153, 7),
    ((3, 3, 3), 2): (122, 94, 1058, 3),
    ((4, 4, 2), 2): (128, 121, 1330, 4),
    ((6, 3, 2), 2): (118, 124, 1371, 7),
}


@pytest.mark.parametrize("orders", ORBIFOLDS, ids=str)
def test_degree_two_reconstruction_meets_the_catalog_q_expansions(orders):
    (entry,) = [e for e in CATALOG if e.qexp and tuple(e.qexp.get("orbifold", ())) == orders]
    for top in (1, 2):
        degrees = range(top + 1)
        seeded = apply_divisor_rule(gw_unknowns(gw_seed_table(orders), top))
        solved = propagate(seeded, degrees=degrees)
        checked = check_residuals(solved, degrees=degrees)
        resolved = 0
        for block in entry.qexp["gw"]:
            label = [tuple(x) for x in block["label"]]
            for d in degrees:
                value = solved.value(label, degree=d)
                if value is not None:
                    # the coefficient of q^d; an exponent the series omits is 0
                    expected = next((F(v) for e, v in block["series"] if e == d), F(0))
                    assert value == expected, (label, d)
                    resolved += 1
        solved_keys = len(seeded.unknown_keys) - len(solved.unknown_keys)
        counts = (solved_keys, len(solved.unknown_keys), checked, resolved)
        assert counts == RECONSTRUCTION[orders, top]


# ---------------------------------------------------------------------------
# the scan work of the A-side workloads
# ---------------------------------------------------------------------------


# calls of _pair_sum (those made inside _residual included) and of _residual
# in one pass of each A-side bench workload: the ten FJRW correlator_table()
# builds with their check_residuals (amodel-catalog), and the three GW tables
# at D = 1 through propagate and check_residuals (gw-reconstruct); a change
# that makes the scan do more work moves these without a timer
SCAN_WORK = {"amodel-catalog": (8059, 4489), "gw-reconstruct": (13688, 7359)}


# calls of FjrwTheory.narrow_nodes in one amodel-catalog pass: a scan asks
# about every sorted half of the basis, once, when it first meets an extra
NODE_CHECKS = 5613


def test_the_node_checks_of_the_amodel_workload(monkeypatch):
    calls = []
    original = ises.fjrw.FjrwTheory.narrow_nodes

    def counted(self, half, extra):
        calls.append((half, extra))
        return original(self, half, extra)

    monkeypatch.setattr(ises.fjrw.FjrwTheory, "narrow_nodes", counted)
    for name in FJRW_NAMES:
        theory = ises.fjrw.FjrwTheory(get_entry(CATALOG, name))  # not the shared one: build anew
        check_residuals(theory.correlator_table(), admissible=theory.narrow_nodes)
    assert len(calls) == NODE_CHECKS


def test_the_scan_work_of_the_a_side_workloads(monkeypatch):
    calls = {"_pair_sum": 0, "_residual": 0}

    def counting(name):
        original = getattr(ises.wdvv, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(ises.wdvv, name, counting(name))
    work = {}
    for name in FJRW_NAMES:
        theory = ises.fjrw.FjrwTheory(get_entry(CATALOG, name))  # not the shared one: build anew
        check_residuals(theory.correlator_table(), admissible=theory.narrow_nodes)
    work["amodel-catalog"] = tuple(calls.values())
    calls.update(dict.fromkeys(calls, 0))
    for orders in ORBIFOLDS:
        seeded = apply_divisor_rule(gw_unknowns(gw_seed_table(orders), 1))
        check_residuals(propagate(seeded, degrees=range(2)), degrees=range(2))
    work["gw-reconstruct"] = tuple(calls.values())
    assert work == SCAN_WORK
