"""Correlator tables, WDVV propagation and the GW seed of P^1_{a,b,c}."""

from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

import ises.fjrw
from ises.isespoly import get_entry, load_catalog
from ises.numcore import DomainError, NoSolution
from ises.wdvv import (
    CorrelatorTable,
    InconsistentSystem,
    LinearForm,
    apply_divisor_rule,
    check_residuals,
    gw_seed_table,
    propagate,
    wdvv_residual,
)

CATALOG = load_catalog()

UNIT, POINT = (0, 1), (0, 2)
ORBIFOLDS = [(3, 3, 3), (4, 4, 2), (6, 3, 2)]

# Two phase-vector labels listed against their natural order, so that basis
# order and sorted order differ.
HIGH = (F(2, 3), F(2, 3), F(2, 3))
LOW = (F(1, 3), F(1, 3), F(1, 3))


def phase_table() -> CorrelatorTable:
    return CorrelatorTable((HIGH, LOW), {(HIGH, LOW): 1})


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
    assert table.lookup([LOW, HIGH, LOW]) == LinearForm(0, {(HIGH, LOW, LOW): 1})
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


def test_frozen_table_rejects_writes():
    table = phase_table().freeze()
    with pytest.raises(ValueError, match="frozen"):
        table.set([HIGH, HIGH, LOW], 1)
    assert table.copy().set([HIGH, HIGH, LOW], 1) is None


# ---------------------------------------------------------------------------
# residuals and propagation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=ORBIFOLDS, ids=str)
def gw_solved(request):
    seeded = apply_divisor_rule(gw_unknowns(gw_seed_table(request.param), 1))
    return seeded, propagate(seeded, degrees=range(2))


def test_wdvv_residual_is_a_label_keyed_form(gw_solved):
    seeded, solved = gw_solved
    a = b = c = (1, 1)
    d = (1, 2)
    assert wdvv_residual(solved, a, b, c, d, extra=[POINT], degree=1) == 0
    # some instance is a linear relation among the unknowns, keyed by labels
    forms = (
        wdvv_residual(seeded, *quad, extra=[POINT], degree=1)
        for quad in combinations_with_replacement(seeded.labels, 4)
    )
    form = next(f for f in forms if f.terms)
    assert set(form.terms) <= set(seeded.unknown_keys)
    with pytest.raises(ValueError, match="total degree"):
        wdvv_residual(seeded, a, b, c, d)


def test_propagate_solves_and_checks_the_gw_tables(gw_solved):
    seeded, solved = gw_solved
    solved_keys = set(seeded.unknown_keys) - set(solved.unknown_keys)
    assert solved_keys
    assert set(solved.unknown_keys) <= set(seeded.unknown_keys)
    assert check_residuals(solved, degrees=range(2)) > 0
    # resolved targets pass; a target left unknown raises with its label key
    propagate(seeded, sorted(solved_keys, key=repr), degrees=range(2))
    missing = solved.unknown_keys[0]
    with pytest.raises(NoSolution) as info:
        propagate(seeded, [missing], degrees=range(2))
    assert repr(missing) in str(info.value)


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


def test_admissible_sees_labels_once_per_pairing_and_extra():
    # LOW is the unit of the algebra Q[x]/(x^2 - 2) with x = HIGH
    table = phase_table()
    table.set([LOW, LOW, HIGH], 1)
    table.set([HIGH, HIGH, HIGH], 2)
    calls = []

    def admissible(pair, extra):
        calls.append((pair, extra))
        return True

    checked = check_residuals(table, admissible=admissible)
    assert checked > 0
    assert len(calls) == len(set(calls))
    labels = {HIGH, LOW}
    for pair, extra in calls:
        assert {x for half in pair for x in half} <= labels
        assert set(extra) <= labels


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
