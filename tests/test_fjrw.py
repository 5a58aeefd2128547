"""FJRW sectors, the narrow correlator tables and weight-one words."""

from fractions import Fraction as F
from functools import cache
from itertools import product

import pytest

import ises.fjrw
from ises.fjrw import FjrwTheory, NeedsBroadFixture, NotConcave
from ises.isespoly import get_entry, load_catalog
from ises.numcore import DomainError
from ises.wdvv import _instances, check_residuals

CATALOG = load_catalog()
ENTRIES = [e for e in CATALOG if e.fjrw and not e.fjrw.get("excluded")]
NAMES = [e.name for e in ENTRIES]

# FJRW gives -2/3 for this word where the catalog's deg1Words has 0; the
# disagreement is open (CHANGES.md, FOUND line on e7-chain322 word (0,4,0)).
KNOWN_WORD_FAULT = ("e7-chain322", (0, 4, 0))


@cache
def theory(name):
    """One theory per entry of CATALOG, shared by the tests."""
    return FjrwTheory(get_entry(CATALOG, name))


def literature_words(entry):
    return {tuple(w["exps"]): F(w["value"]) for w in entry.fjrw["deg1Words"]}


def padded(word):
    return tuple(word) + (0,) * (3 - len(word))


def test_the_ten_reconstructible_entries():
    assert len(ENTRIES) == 10
    for entry in CATALOG:
        if entry not in ENTRIES:
            with pytest.raises(NeedsBroadFixture):
                FjrwTheory(entry)


@pytest.mark.parametrize("name", NAMES)
def test_resolved_words_match_the_literature(name):
    expected = literature_words(get_entry(CATALOG, name))
    words = theory(name).fourpoint_words()
    resolved = {w: v for w, v in words.items() if v is not None}
    assert resolved
    for word, value in resolved.items():
        if (name, word) == KNOWN_WORD_FAULT:
            continue
        assert value == expected[padded(word)], word


@pytest.mark.xfail(strict=True, reason="open A-model/catalog disagreement")
def test_e7_chain322_word_040_matches_the_literature():
    name, word = KNOWN_WORD_FAULT
    expected = literature_words(get_entry(CATALOG, name))[padded(word)]
    assert theory(name).fourpoint_words()[word] == expected


def test_known_word_fault_value():
    name, word = KNOWN_WORD_FAULT
    assert theory(name).fourpoint_words()[word] == F(-2, 3)


def test_e6_loop222_fourpoint_oracles():
    th = theory("e6-loop222")
    table = th.correlator_table()
    oracles = th.entry.fjrw["oracles"]["fourPoint"]
    assert len(oracles) == 2
    for oracle in oracles:
        insertions = [th.sector(ix).theta for ix in oracle["insertions"]]
        assert table.value(insertions) == F(oracle["value"])


def test_e6_loop222_concave_oracle_is_the_riemann_roch_value(monkeypatch):
    th = FjrwTheory(get_entry(CATALOG, "e6-loop222"))
    oracles = {
        o["route"]: ([th.sector(ix) for ix in o["insertions"]], F(o["value"]))
        for o in th.entry.fjrw["oracles"]["fourPoint"]
    }
    assert set(oracles) == {"concave", "wdvv"}
    sectors, value = oracles["concave"]
    assert th.fourpoint_breakdown(sectors).value == value == F(-2, 9)
    # the wdvv oracle is not concave, so the seed leaves it to propagate
    sectors, value = oracles["wdvv"]
    with pytest.raises(NotConcave):
        th.fourpoint_breakdown(sectors)
    seeded = []
    original = ises.fjrw.propagate

    def capture(table, **kwargs):
        seeded.append(table)
        return original(table, **kwargs)

    monkeypatch.setattr(ises.fjrw, "propagate", capture)
    thetas = [s.theta for s in sectors]
    assert th.correlator_table().value(thetas) == value == F(1, 3)
    assert seeded[0].value(thetas) is None


def test_residual_checks_on_all_tables():
    total = 0
    for name in NAMES:
        th = theory(name)
        checked = check_residuals(th.correlator_table(), admissible=th.narrow_nodes)
        assert checked > 0, name
        total += checked
    assert total == 5494


# ---------------------------------------------------------------------------
# narrow_nodes on scaled int phases against its Fraction form


def fraction_narrow_nodes(th, pair, extra):
    """The Fraction form of ``FjrwTheory.narrow_nodes``: every node phase
    (|S|+1) q - sum(half) - sum(S) mod 1, looked up among the sectors."""
    q = th.mirror_charges
    for half in pair:
        base = [sum(t[j] for t in half) for j in range(3)]
        for subset in product((0, 1), repeat=len(extra)):
            picked = [x for x, flag in zip(extra, subset) if flag]
            node = tuple(
                ((len(picked) + 1) * q[j] - base[j] - sum(t[j] for t in picked)) % 1
                for j in range(3)
            )
            if not th.sectors[node].narrow and th.broad_dims.get(node):
                return False
    return True


def position(th, theta):
    """The basis position of a narrow sector in the theory's table."""
    return [s.theta for s in th.narrow_sectors()].index(theta)


@pytest.mark.parametrize("name", NAMES)
def test_narrow_nodes_matches_the_fraction_form(name):
    th = theory(name)
    labels = th.correlator_table().labels
    offered = set()

    def record(pair, extra):
        offered.add((pair, extra))
        return True

    for _ in _instances(th.correlator_table(), 1, (0,), record):
        pass
    assert offered
    verdicts = set()
    for pair, extra in offered:
        verdict = th.narrow_nodes(pair, extra)
        named_pair = tuple(tuple(labels[i] for i in half) for half in pair)
        named_extra = tuple(labels[i] for i in extra)
        assert verdict == fraction_narrow_nodes(th, named_pair, named_extra), (pair, extra)
        verdicts.add(verdict)
    if not th.broad_dims:
        assert verdicts == {True}


def test_a_node_in_a_broad_sector_with_states_is_rejected():
    th = theory("e7-loop33")
    a = (F(1, 8), F(5, 8), F(1, 2))
    node = (F(0), F(0), F(1, 2))  # q - 2a mod 1, with q = (1/4, 1/4, 1/2)
    assert th.sectors[a].narrow and th.broad_dims[node] == 2
    a = position(th, a)
    other = (position(th, th.identity.theta), position(th, th.top.theta))
    assert th.narrow_nodes((other, other), ()) is True
    assert th.narrow_nodes(((a, a), other), ()) is False
    assert th.narrow_nodes((other, (a, a)), ()) is False


def test_a_node_in_a_broad_sector_without_states_is_harmless():
    th = theory("e6-fermat")
    a, b = (F(1, 3), F(1, 3), F(2, 3)), (F(2, 3), F(2, 3), F(2, 3))
    node = (F(1, 3), F(1, 3), F(0))  # q - a - b mod 1, with q = (1/3, 1/3, 1/3)
    assert th.sectors[a].narrow and th.sectors[b].narrow
    assert not th.sectors[node].narrow and th.sectors[node].dim == 0
    a, b = position(th, a), position(th, b)
    assert th.narrow_nodes(((a, b), (a, b)), ()) is True


def test_a_sector_index_longer_than_the_chart_is_rejected():
    th = theory("e7-chain322")
    assert th.orders == (12,)
    with pytest.raises(DomainError, match="e7-chain322"):
        th.sector((1, 2, 3, 4))


@pytest.mark.parametrize("name", ["e6-fermat", "e7-fermat", "e8-fermat", "e8-chain32"])
def test_a_sector_index_shorter_than_the_chart_is_rejected(name):
    th = theory(name)
    assert len(th.orders) > 1
    with pytest.raises(DomainError, match=name):
        th.sector((1,))
