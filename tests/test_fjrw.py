"""FJRW sectors, the narrow correlator tables and weight-one words."""

import copy
import hashlib
import re
from fractions import Fraction as F
from functools import cache
from itertools import combinations_with_replacement, permutations, product
from math import lcm

import pytest

import ises.fjrw
import ises.jacobi
from ises.fjrw import FjrwTheory, NeedsBroadFixture, sector_dimension
from ises.isespoly import CatalogEntry, get_entry, load_catalog
from ises.jacobi import JacobianAlgebra, groebner
from ises.numcore import DomainError, MultiPoly, nullspace
from ises.wdvv import InconsistentSystem, MissingKey, _groups, check_residuals, propagate
from test_jacobi import normal_form, q_sigma_nf, reference_groebner, reference_residue

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


# A ring relation that no sign convention touches.  On e7-chain322, W = x^3 y +
# y^2 z + z^2 and d_z W_sigma = y^2 + 2z whenever the marginal phi_m has no z,
# so y^4 + 2 y^2 z = y^2 d_z W_sigma vanishes in the Jacobian algebra; on
# e8-chain32, W = x^3 y + y^2 + z^3 and d_y W_sigma = x^3 + 2y likewise gives
# x^6 + 2 x^3 y = 0.  Since a word value is linear in the ring class,
# word(0,4,0) = -2 word(0,2,1) and word(6,0,0) = -2 word(3,1,0).  The catalog's
# deg1Words give both halves 1/3 and both doubled words 0.
RING_RELATIONS = {
    # name: (variable missing from phi_m, word, half word, FJRW values of both)
    "e7-chain322": (2, (0, 4, 0), (0, 2, 1), (F(-2, 3), F(1, 3))),
    "e8-chain32": (1, (6, 0, 0), (3, 1, 0), (None, None)),
}


@pytest.mark.parametrize("name", sorted(RING_RELATIONS))
def test_a_ring_relation_doubles_the_disputed_words(name):
    variable, word, half, fjrw = RING_RELATIONS[name]
    entry = get_entry(CATALOG, name)
    relation = MultiPoly.monomial(word, F(1)) + MultiPoly.monomial(half, F(2))
    # the relation holds for every marginal but m = (1, 1, 1), whose phi_m
    # holds the variable
    holds = {
        mar.m: not q_sigma_nf(JacobianAlgebra(entry, mar.m), relation)
        for mar in entry.marginals
    }
    assert holds == {m: not m[variable] for m in holds}
    words = theory(name).fourpoint_words()
    assert (words[word], words[half]) == fjrw
    if fjrw[0] is not None:
        assert words[word] == -2 * words[half]
    # the catalog's own half word forces -2/3 where it freezes 0
    frozen = literature_words(entry)
    assert frozen[half] == F(1, 3) and frozen[word] == 0
    assert -2 * frozen[half] == F(-2, 3)


# The words that FJRW leaves None and the B side fills, with the B values.
# The first two equal the catalog's deg1Words; e8-chain32 (6,0,0) is the
# disputed word that the catalog freezes at 0.
B_FILLED = {
    ("e7-chain322", (3, 1, 0)): F(1, 3),
    ("e8-chain32", (3, 1, 0)): F(1, 3),
    ("e8-chain32", (6, 0, 0)): F(-2, 3),
}


def test_the_sigma_zero_mirror_comparison():
    # each weight-one triple (r1, r2, r3) of a B table is the word r1 + r2 + r3;
    # under word = -(B value) every word that FJRW resolves agrees
    agree, disagree, filled = 0, [], {}
    for name in NAMES:
        entry = get_entry(CATALOG, name)
        words = {padded(w): v for w, v in theory(name).fourpoint_words().items()}
        for mar in entry.marginals:
            table = JacobianAlgebra(entry, mar.m).fourpoint_table()
            for trip, value in table.items():
                word = tuple(map(sum, zip(*trip)))
                fjrw = words[word]
                if fjrw is None:
                    filled.setdefault((name, word), set()).add(-value)
                elif fjrw == -value:
                    agree += 1
                else:
                    disagree.append((name, mar.m, trip))
    assert (agree, disagree) == (170, [])
    assert filled == {key: {value} for key, value in B_FILLED.items()}
    for (name, word), value in B_FILLED.items():
        frozen = literature_words(get_entry(CATALOG, name))[word]
        assert frozen == (0 if word == (6, 0, 0) else value)


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
        o["route"]: ([th.sector(ix).theta for ix in o["insertions"]], F(o["value"]))
        for o in th.entry.fjrw["oracles"]["fourPoint"]
    }
    assert set(oracles) == {"concave", "wdvv"}
    seeded = []
    original = ises.fjrw.propagate

    def capture(table, **kwargs):
        seeded.append(table)
        return original(table, **kwargs)

    monkeypatch.setattr(ises.fjrw, "propagate", capture)
    table = th.correlator_table()
    # the seed holds the concave oracle and leaves the other one to propagate
    thetas, value = oracles["concave"]
    assert seeded[0].value(thetas) == value == F(-2, 9)
    thetas, value = oracles["wdvv"]
    assert seeded[0].value(thetas) is None
    assert table.value(thetas) == value == F(1, 3)


# (known keys, unknown keys, resolved words) of each closed table, as the
# amodel-catalog bench reads them
TABLE_COUNTS = {
    "e6-fermat": (86, 0, 10),
    "e6-chain233": (31, 0, 10),
    "e6-loop222": (86, 0, 10),
    "e7-fermat": (97, 0, 5),
    "e7-chain34": (60, 0, 5),
    "e7-loop33": (35, 0, 5),
    "e7-chain322": (56, 4, 7),
    "e8-fermat": (94, 0, 4),
    "e8-chain32": (39, 3, 4),
    "e8-chain43": (64, 0, 4),
}


def test_the_closed_tables_keep_every_key():
    counts = {}
    for name in NAMES:
        th = theory(name)
        table = th.correlator_table()
        words = th.fourpoint_words()
        resolved = sum(v is not None for v in words.values())
        counts[name] = (len(table.known_items()), len(table.unknown_keys), resolved)
    assert counts == TABLE_COUNTS
    assert tuple(map(sum, zip(*counts.values()))) == (648, 7, 64)


def aside_dump(build=lambda entry: theory(entry.name)) -> list[str]:
    """Every A-side output of the 10 theories, one line each, in catalog
    order: each sector's phases, narrow flag, degree and dimension; rho,
    the identity and the top sector; the closed table's known values and
    open keys; the weight-one words and the residual count.  Then the
    NeedsBroadFixture message of each of the 3 broad entries.  Every value
    is written by its repr.  ``build`` makes the theory of a catalog
    entry."""
    lines = []
    for name in NAMES:
        th = build(get_entry(CATALOG, name))
        for s in th.sectors.values():
            lines.append(f"{name} sector {s.theta!r} {s.narrow} {s.degree!r} {s.dim}")
        lines.append(f"{name} rho {sorted((k, s.theta) for k, s in th.rho.items())!r}")
        lines.append(f"{name} identity {th.identity.theta!r} top {th.top.theta!r}")
        table = th.correlator_table()
        lines.extend(f"{name} known {key!r} {value!r}" for key, value in table.known_items())
        lines.extend(f"{name} unknown {key!r}" for key in table.unknown_keys)
        lines.extend(f"{name} word {w!r} {v!r}" for w, v in th.fourpoint_words().items())
        checked = check_residuals(table, admissible=th.narrow_nodes)
        lines.append(f"{name} residuals {checked}")
    for entry in CATALOG:
        if entry.name not in NAMES:
            with pytest.raises(NeedsBroadFixture) as exc:
                build(entry)
            lines.append(f"{entry.name} broad {exc.value}")
    return lines


def test_the_aside_outputs_are_pinned():
    """The SHA-256 of ``aside_dump`` pins every A-side value: a change to
    the state space, the seed or the closure must leave each sector, table
    value, open key, word and residual count byte-identical."""
    lines = aside_dump()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        967,
        "39e48f05968bc0b626c0081695c4a52e53b6dfcd1e5115ece38a035beb3235a2",
    )


# Each key of the catalog's fjrw blocks, and of their scheme and fixtures as
# dotted paths: READ when FjrwTheory reads it, else the test that checks it,
# as a frozen oracle, against what FjrwTheory derives
READ = "read"
FJRW_KEYS = {
    "scheme": READ,
    "scheme.offset": READ,
    "scheme.steps": READ,
    "scheme.orders": "test_every_chart_order_is_the_order_of_its_step",
    "fixtures": READ,
    "fixtures.threePoint": "test_the_frozen_threepoint_rows_are_the_derived_seed",
    "fixtures.fourPoint": READ,
    "excluded": READ,
    "reason": READ,
    "J": "test_the_frozen_state_space_fields_match_the_derived_ones",
    "rho": "test_the_frozen_state_space_fields_match_the_derived_ones",
    "narrow": "test_the_frozen_state_space_fields_match_the_derived_ones",
    "broad": "test_the_frozen_state_space_fields_match_the_derived_ones",
    "deg1Words": "test_resolved_words_match_the_literature",
    "oracles": "test_e6_loop222_fourpoint_oracles",
}


NESTED = ("scheme", "fixtures")


def test_the_fjrw_key_table_covers_every_catalog_key():
    keys = set()
    for entry in CATALOG:
        block = entry.fjrw or {}
        keys |= set(block) | {f"{key}.{sub}" for key in NESTED for sub in block.get(key, {})}
    assert keys == set(FJRW_KEYS)
    for check in set(FJRW_KEYS.values()) - {READ}:
        assert callable(globals()[check]), check


def test_a_theory_reads_only_the_read_keys():
    def stripped(entry):
        block = {key: value for key, value in entry.fjrw.items() if FJRW_KEYS[key] == READ}
        for key in set(NESTED) & set(block):
            block[key] = {sub: value for sub, value in block[key].items() if FJRW_KEYS[f"{key}.{sub}"] == READ}
        return FjrwTheory(CatalogEntry(**{**vars(entry), "fjrw": block}))

    assert aside_dump(stripped) == aside_dump()


def test_residual_checks_on_all_tables():
    total = 0
    for name in NAMES:
        th = theory(name)
        checked = check_residuals(th.correlator_table(), admissible=th.narrow_nodes)
        assert checked > 0, name
        total += checked
    assert total == 3066


def test_a_scan_past_the_seeded_keys_names_the_missing_point_count():
    # The tables are seeded with three- and four-point keys only.  A scan
    # with two extra slots reads five-point keys, which the closed-world
    # table would read as 0 and report as a false contradiction.
    with_unknowns = 0
    for name in NAMES:
        th = theory(name)
        table = th.correlator_table()
        with pytest.raises(MissingKey, match="reads 5-point keys"):
            check_residuals(table, extra_slots=2, admissible=th.narrow_nodes)
        if table.unknown_keys:
            with_unknowns += 1
            with pytest.raises(MissingKey, match="reads 5-point keys"):
                propagate(table, extra_slots=2, admissible=th.narrow_nodes)
    assert with_unknowns > 0


# The five-point keys that WDVV with two extra slots leaves open on each table
FIVE_POINT_OPEN = {
    "e6-fermat": 0,
    "e6-chain233": 0,
    "e6-loop222": 0,
    "e7-fermat": 0,
    "e7-chain34": 3,
    "e7-loop33": 8,
    "e7-chain322": 12,
    "e8-fermat": 0,
    "e8-chain32": 12,
    "e8-chain43": 1,
}


def five_point_layer(th):
    """A copy of the closed table with every five-point key on the degree
    budget: 0 when its line bundle degrees are not integral, else declared
    unknown.  Returns the table and the (on budget, zero) counts."""
    table = th.correlator_table().copy()
    on_budget = zero = 0
    for thetas in combinations_with_replacement(table.labels, 5):
        if not table.budget_ok(thetas):
            continue
        on_budget += 1
        if line_bundle_degrees(th.mirror_charges, thetas)[1]:
            table.declare_unknown(thetas)
        else:
            table.set(thetas, 0)
            zero += 1
    return table, on_budget, zero


def test_wdvv_closes_the_five_point_layer():
    totals = dict.fromkeys(("on budget", "zero", "open", "solved", "nonzero", "residuals"), 0)
    left = {}
    for name in NAMES:
        th = theory(name)
        closed = th.correlator_table()
        seeded, on_budget, zero = five_point_layer(th)
        opened = {key for key in seeded.unknown_keys if len(key) == 5}
        solved = propagate(seeded, extra_slots=2, admissible=th.narrow_nodes)
        still_open = {key for key in solved.unknown_keys if len(key) == 5}
        values = dict(solved.known_items())
        # the four-point layer is untouched: its values and its open keys
        assert {k: v for k, v in values.items() if len(k) < 5} == dict(closed.known_items())
        assert set(solved.unknown_keys) - still_open == set(closed.unknown_keys)
        counts = (
            on_budget,
            zero,
            len(opened),
            len(opened - still_open),
            sum(bool(values[key]) for key in opened - still_open),
            check_residuals(solved, extra_slots=2, admissible=th.narrow_nodes),
        )
        for total, count in zip(totals, counts):
            totals[total] += count
        left[name] = len(still_open)
    assert totals == {
        "on budget": 878,
        "zero": 579,
        "open": 299,
        "solved": 263,
        "nonzero": 157,
        "residuals": 17767,
    }
    assert left == FIVE_POINT_OPEN


def test_a_two_slot_scan_builds_each_node_set_once(monkeypatch):
    th = FjrwTheory(get_entry(CATALOG, "e7-loop33"))
    assert th._blocked == {}
    table = five_point_layer(th)[0]
    one_slot = dict(th._blocked)
    assert {len(extra) for extra in one_slot} == {0, 1}
    built = []
    original = th._blocked_nodes

    def counted(extra):
        built.append(extra)
        return original(extra)

    monkeypatch.setattr(th, "_blocked_nodes", counted)
    first = check_residuals(table, extra_slots=2, admissible=th.narrow_nodes)
    # closing the table built the empty and one-slot extras' sets on first
    # use; the scan adds each two-slot extra's set once
    assert built and {len(extra) for extra in built} == {2}
    assert len(built) == len(set(built))
    assert set(th._blocked) == set(one_slot) | set(built)
    assert all(th._blocked[extra] is blocked for extra, blocked in one_slot.items())
    built.clear()
    assert check_residuals(table, extra_slots=2, admissible=th.narrow_nodes) == first
    assert built == []


# ---------------------------------------------------------------------------
# narrow_nodes on scaled int phases against its Fraction form


def fraction_narrow_nodes(th, pair, extra):
    """The Fraction form of ``FjrwTheory.narrow_nodes`` on every half of
    ``pair``: each node phase (|S|+1) q - sum(half) - sum(S) mod 1, looked
    up among the sectors."""
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
    return th.correlator_table().labels.index(theta)


@pytest.mark.parametrize("name", NAMES)
def test_narrow_nodes_matches_the_fraction_form(name):
    # two extra slots offer the one-slot extras and the two-slot ones, whose
    # node sets are built on first use; only the verdicts are compared (the
    # five-point keys are never declared, so these scans close no table)
    th = theory(name)
    labels = th.correlator_table().labels
    offered = set()

    def record(half, extra):
        offered.add((half, extra))
        return True

    for _ in _groups(th.correlator_table(), 2, (0,), record):
        pass
    assert {len(extra) for _, extra in offered} == {0, 1, 2}

    verdicts = set()
    for half, extra in offered:
        verdict = th.narrow_nodes(half, extra)
        # the Fraction verdict of the half, in labels
        expected = fraction_narrow_nodes(th, (tuple(labels[i] for i in half),), tuple(labels[i] for i in extra))
        assert verdict == expected, (half, extra)
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
    assert th.narrow_nodes(other, ()) is True
    assert th.narrow_nodes((a, a), ()) is False


def test_a_node_in_a_broad_sector_without_states_is_harmless():
    th = theory("e6-fermat")
    a, b = (F(1, 3), F(1, 3), F(2, 3)), (F(2, 3), F(2, 3), F(2, 3))
    node = (F(1, 3), F(1, 3), F(0))  # q - a - b mod 1, with q = (1/3, 1/3, 1/3)
    assert th.sectors[a].narrow and th.sectors[b].narrow
    assert not th.sectors[node].narrow and th.sectors[node].dim == 0
    a, b = position(th, a), position(th, b)
    assert th.narrow_nodes((a, b), ()) is True


def test_a_sector_index_longer_than_the_chart_is_rejected():
    th = theory("e7-chain322")
    assert len(th._steps) == 1
    with pytest.raises(DomainError, match="e7-chain322"):
        th.sector((1, 2, 3, 4))


@pytest.mark.parametrize("name", ["e6-fermat", "e7-fermat", "e8-fermat", "e8-chain32"])
def test_a_sector_index_shorter_than_the_chart_is_rejected(name):
    th = theory(name)
    assert len(th._steps) > 1
    with pytest.raises(DomainError, match=name):
        th.sector((1,))


@pytest.mark.parametrize("name", NAMES)
def test_every_chart_order_is_the_order_of_its_step(name):
    # the order of a step in the group is the lcm of its phase denominators,
    # and sector() is periodic in each index with exactly that period
    th = theory(name)
    scheme = get_entry(CATALOG, name).fjrw["scheme"]
    derived = [lcm(*(F(x).denominator for x in step)) for step in scheme["steps"]]
    assert scheme["orders"] == derived
    zero = [0] * len(derived)
    for k, order in enumerate(derived):
        index = zero[:k] + [order] + zero[k + 1 :]
        assert th.sector(index) is th.sector(zero)
        for n in range(1, order):
            assert th.sector(zero[:k] + [n] + zero[k + 1 :]) is not th.sector(zero)


def test_an_edited_chart_order_does_not_alias_chart_points():
    # the orders are not read: an index is reduced by its step's order in the
    # group, so [2, 0, 0] stays twice the step (1/3, 0, 0) under orders [2, 3, 3]
    th = FjrwTheory(with_fjrw("e6-fermat", lambda block: block["scheme"].update(orders=[2, 3, 3])))
    assert th.sector([2, 0, 0]).theta == (F(2, 3), F(0), F(0))
    assert th.sector([3, 0, 0]) is th.sector([0, 0, 0])


# ---------------------------------------------------------------------------
# the int-scaled kernels against their Fraction forms


def bernoulli_b2(y):
    """The second Bernoulli polynomial y^2 - y + 1/6."""
    return y * y - y + F(1, 6)


def line_bundle_degrees(q, thetas):
    """Genus-zero degrees d_j = q_j (n - 2) - sum_k Theta_j(h_k), and
    whether they are all integers."""
    n = len(thetas)
    degrees = tuple(qj * (n - 2) - sum(t[j] for t in thetas) for j, qj in enumerate(q))
    return degrees, all(d.denominator == 1 for d in degrees)


def frac3(vec):
    return tuple(F(x) % 1 for x in vec)


def fraction_threepoint(th, thetas):
    """The seeded three-point value of narrow sectors, in Fractions: 1 when
    every line bundle degree is -1; when the degrees are 0, -1 and -2, -a by
    Index Zero if the monomial of W^T that x_j (degree 0) leads is x_j^a x_k
    (degree -2), read from column j of E; None when neither decides."""
    if sum(th.sectors[t].degree for t in thetas) != 1:
        return F(0)
    d, feasible = line_bundle_degrees(th.mirror_charges, thetas)
    if not feasible:
        return F(0)
    if all(dj == -1 for dj in d):
        return F(1)
    if all(dj <= -1 for dj in d):
        return F(0)
    if sorted(d) == [-2, -1, 0]:
        j, k = d.index(0), d.index(-2)
        column = [row[j] for row in th.entry.polynomial.exponents]
        if column[k] == 1:
            return F(-column[j])
    return None


def fraction_fourpoint(th, thetas):
    """The seeded four-point value of narrow sectors on the degree budget
    whose main degrees are integral, in Fractions: Bernoulli sums over the
    main component and the three channels, or None when some degree on a
    component exceeds -1."""
    q = th.mirror_charges
    main, feasible = line_bundle_degrees(q, thetas)
    assert feasible and sum(th.sectors[t].degree for t in thetas) == 2, thetas
    if any(dj > -1 for dj in main):
        return None
    nodes = []
    for split in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        (a, b), (c, d) = ([thetas[k] for k in half] for half in split)
        node = frac3(q[j] - a[j] - b[j] for j in range(3))
        for side_thetas in ([a, b, node], [c, d, frac3(-t for t in node)]):
            degrees, ok = line_bundle_degrees(q, side_thetas)
            # the node makes the sides integral, so the kernel skips this test
            assert ok, (thetas, split)
            if any(dj > -1 for dj in degrees):
                return None
        nodes.append(node)
    return sum(
        (
            bernoulli_b2(q[i])
            - sum(bernoulli_b2(t[i]) for t in thetas)
            + sum(bernoulli_b2(node[i]) for node in nodes)
        )
        / 2
        for i in range(3)
    )


def fraction_word_feasible(th, word):
    """Line bundle integrality of a word with the top sector, in Fractions:
    2 q_j minus the phases of the word's three insertions and the top."""
    q = th.mirror_charges
    for j in range(3):
        content = sum(v * th.rho[g].theta[j] for v, g in zip(word, th.generators))
        content += th.top.theta[j] - (sum(word) - 3) * q[j]
        if (2 * q[j] - content).denominator != 1:
            return False
    return True


@pytest.mark.parametrize("name", NAMES)
def test_word_feasible_matches_the_fraction_form(name):
    th = theory(name)
    verdicts = set()
    for word in product(range(5), repeat=len(th.generators)):
        verdict = th.word_feasible(word)
        assert verdict == fraction_word_feasible(th, word), word
        verdicts.add(verdict)
    assert verdicts == {True, False}


def fraction_word_sectors(th, word):
    """The sectors of rho^word by the product rule theta_a + theta_b - q mod
    1, in Fractions, folded from the identity over every order of the
    word's letters."""
    q = th.mirror_charges
    letters = [g for count, g in zip(word, th.generators) for _ in range(count)]
    sectors = set()
    for order in set(permutations(letters)):
        theta = q
        for g in order:
            theta = tuple((a + b - qj) % 1 for a, b, qj in zip(theta, th.rho[g].theta, q))
        sectors.add(theta)
    return sectors


@pytest.mark.parametrize("name", NAMES)
def test_every_reduction_order_lands_on_the_group_point(name):
    th = theory(name)
    subwords = {
        sub for word in th.weight_one_words() for sub in product(*(range(v + 1) for v in word))
    }
    for sub in subwords:
        assert fraction_word_sectors(th, sub) == {th._labels[th._point(sub)]}, sub


def planted(name, key, shift, monkeypatch):
    """A fresh theory of ``name`` whose closed table reads the value at the
    label key ``key`` moved by ``shift``."""
    th = FjrwTheory(get_entry(CATALOG, name))
    table = th.correlator_table()
    true_value = table.value
    key = sorted(key)

    def value(insertions, degree=0):
        found = true_value(insertions, degree)
        return found + shift if sorted(insertions) == key else found

    monkeypatch.setattr(table, "value", value)
    return th


def test_reduction_orders_that_disagree_raise(monkeypatch):
    # e8-fermat's rho_1^2 rho_2 reduces as rho_1 rho_2 times rho_1 and as
    # rho_1^2 times rho_2, through two different three-point keys
    name, word = "e8-fermat", (2, 1)
    th = theory(name)
    first, second = (th.rho[g].theta for g in th.generators)
    dual = th.inverse_theta(th.reduce_word(word)[1])
    keys = [(th.reduce_word((1, 1))[1], first, dual), (th.reduce_word((2, 0))[1], second, dual)]
    assert all(th.correlator_table().value(key) for key in keys)
    assert len({tuple(sorted(key)) for key in keys}) == 2
    th = planted(name, keys[1], 1, monkeypatch)
    with pytest.raises(InconsistentSystem, match=rf"^{name}: word \(2, 1\) reduces ambiguously"):
        th.reduce_word(word)


def test_factorizations_that_disagree_raise(monkeypatch):
    # e8-fermat's word rho_1^6 factorizes as rho_1^2 rho_1^2 rho_1^2 and
    # through other sectors, whose four-point keys differ
    name, word = "e8-fermat", (6, 0)
    th = theory(name)
    assert th.word_value(word) is not None
    half = th.reduce_word((2, 0))[1]
    key = (half, half, half, th.top.theta)
    assert th.correlator_table().value(key)
    th = planted(name, key, 1, monkeypatch)
    with pytest.raises(InconsistentSystem, match=rf"^{name}: word \(6, 0\) factorizations disagree"):
        th.word_value(word)


# Words that are not one nonnegative int exponent per ring generator: too
# short, too long, with a float, a negative or a bool exponent, or a string
BAD_WORDS = [
    ("e6-fermat", (3,)),
    ("e6-fermat", (3, 0, 0, 0)),
    ("e6-fermat", (1.5, 1.5, 0)),
    ("e6-fermat", (-1, 2, 2)),
    ("e6-fermat", (True, 1, 1)),
    ("e6-fermat", "300"),
    ("e7-fermat", (4,)),
    ("e7-fermat", (4, 0, 0)),
]


@pytest.mark.parametrize("name, word", BAD_WORDS)
@pytest.mark.parametrize("method", ["word_value", "reduce_word", "word_feasible"])
def test_a_malformed_word_is_rejected_naming_the_entry(name, word, method):
    th = theory(name)
    count = len(th.generators)
    with pytest.raises(DomainError, match=f"^{name}: word .* needs {count} nonnegative integer exponents$"):
        getattr(th, method)(word)


@pytest.mark.parametrize("name", NAMES)
def test_on_budget_narrow_triples_have_degree_sum_minus_three(name, monkeypatch):
    # so all d_j <= -1 forces every d_j = -1, and _threepoint needs no case
    # for all d_j <= -1 with some d_j <= -2; narrow phases put each d_j in
    # (-3, 1), so integral degrees are (-1, -1, -1) or a permutation of
    # (0, -1, -2), both decided, and the seed holds no three-point unknown
    th = theory(name)
    scale = th._scale
    labels = th.correlator_table().labels
    on_budget = [
        trip
        for trip in combinations_with_replacement(labels, 3)
        if sum(th.sectors[t].degree for t in trip) == 1
    ]
    assert on_budget
    patterns = set()
    for trip in on_budget:
        d = th._degrees([th._scaled[t] for t in trip])
        assert sum(d) == -3 * scale, trip
        assert all(-3 * scale < dj < scale for dj in d), trip
        if not any(dj % scale for dj in d):
            patterns.add(tuple(sorted(dj // scale for dj in d)))
    assert (-1, -1, -1) in patterns
    assert patterns <= {(-1, -1, -1), (-2, -1, 0)}
    seed, _ = seeded_table(name, monkeypatch)
    assert [key for key in seed.unknown_keys if len(key) == 3] == []


@pytest.mark.parametrize("name", NAMES)
def test_table_seed_matches_the_fraction_form(name, monkeypatch):
    th = FjrwTheory(get_entry(CATALOG, name))
    seeded = []
    original = ises.fjrw.propagate

    def capture(table, **kwargs):
        seeded.append((dict(table.known_items()), set(table.unknown_keys)))
        return original(table, **kwargs)

    monkeypatch.setattr(ises.fjrw, "propagate", capture)
    labels = th.correlator_table().labels
    known, unknown = {}, set()
    for n in (3, 4):
        for ins in combinations_with_replacement(labels, n):
            if sum(th.sectors[t].degree for t in ins) != n - 2:
                continue
            if n == 3:
                value = fraction_threepoint(th, ins)
            elif not line_bundle_degrees(th.mirror_charges, ins)[1]:
                value = F(0)
            else:
                value = fraction_fourpoint(th, ins)
            if value is None:
                unknown.add(ins)
            else:
                known[ins] = value
    assert seeded == [(known, unknown)]


def seeded_table(name, monkeypatch):
    """The seed that a new theory of ``name`` hands to propagate, and the
    closed table."""
    seeded = []
    original = ises.fjrw.propagate

    def capture(table, **kwargs):
        seeded.append(table.copy())
        return original(table, **kwargs)

    monkeypatch.setattr(ises.fjrw, "propagate", capture)
    closed = FjrwTheory(get_entry(CATALOG, name)).correlator_table()
    monkeypatch.setattr(ises.fjrw, "propagate", original)
    return seeded[0], closed


def index_zero_keys(th):
    """The on-budget narrow triples with degrees 0, -1 and -2 and their
    Index Zero values, by ``fraction_threepoint``."""
    keys = {}
    for trip in combinations_with_replacement(th.correlator_table().labels, 3):
        d, feasible = line_bundle_degrees(th.mirror_charges, trip)
        if feasible and sum(th.sectors[t].degree for t in trip) == 1 and sorted(d) == [-2, -1, 0]:
            keys[trip] = fraction_threepoint(th, trip)
    return keys


# Every Index Zero key of each theory with its value; e6-chain233's key was
# open before the rule
INDEX_ZERO = {"e6-chain233": [-3], "e6-loop222": [-2, -2, -2], "e7-chain322": [-2], "e8-chain43": [-3]}


def test_the_index_zero_keys_of_every_theory():
    found = {}
    for name in NAMES:
        keys = index_zero_keys(theory(name))
        if keys:
            found[name] = sorted(keys.values())
            closed = theory(name).correlator_table()
            assert all(closed.value(key) == value for key, value in keys.items())
    assert found == INDEX_ZERO


@pytest.mark.parametrize("name, value", [("e7-chain322", -2), ("e8-chain43", -3)])
def test_wdvv_solves_the_index_zero_keys_from_concave_data(name, value, monkeypatch):
    # with the Index Zero branch off (its values -a, a >= 2, become
    # unknowns), associativity alone solves these keys to the rule's value;
    # the shared theory is read before the patch
    [(key, rule)] = index_zero_keys(theory(name)).items()
    known = dict(theory(name).correlator_table().known_items())
    original = FjrwTheory._threepoint

    def without_index_zero(self, phases):
        derived = original(self, phases)
        return derived if derived in (0, 1) else None

    monkeypatch.setattr(FjrwTheory, "_threepoint", without_index_zero)
    seed, closed = seeded_table(name, monkeypatch)
    assert rule == value
    assert seed.value(key) is None and key in seed.unknown_keys
    assert closed.value(key) == value
    assert dict(closed.known_items()) == known


def test_the_frozen_threepoint_rows_are_the_derived_seed(monkeypatch):
    rows = {
        name: get_entry(CATALOG, name).fjrw.get("fixtures", {}).get("threePoint", [])
        for name in NAMES
    }
    assert {name for name, frozen in rows.items() if frozen} == {"e6-loop222"}
    th = theory("e6-loop222")
    seed, _ = seeded_table("e6-loop222", monkeypatch)
    frozen = {
        tuple(sorted(th.sector(ix).theta for ix in row["insertions"])): F(row["value"])
        for row in rows["e6-loop222"]
    }
    assert len(frozen) == 3
    assert frozen == {key: seed.value(key) for key in frozen} == index_zero_keys(th)


@pytest.mark.parametrize("m", [(1, 1, 1), (3, 0, 0)], ids=str)
def test_the_bside_residue_ratios_are_the_index_zero_values(m):
    # at sigma = 0 the Jacobian relation of x^2 y + y^2 z + z^2 x gives
    # Res(x^3) = Res(y^3) = Res(z^3) = -2 Res(xyz), the A-side -2
    alg = JacobianAlgebra(get_entry(CATALOG, "e6-loop222"), m)

    def residue(exps):
        return reference_residue(alg, MultiPoly.monomial(exps, F(1))).eval(0)

    cubes = [residue(e) for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3))]
    assert residue((1, 1, 1)) != 0
    assert cubes == [-2 * residue((1, 1, 1))] * 3
    assert set(index_zero_keys(theory("e6-loop222")).values()) == {cubes[0] / residue((1, 1, 1))}


# ---------------------------------------------------------------------------
# sector dimensions: the trace average against a character nullspace


def phase_group(poly):
    """The diagonal symmetries of ``poly`` as Fraction phase vectors, in
    group order."""
    scale, _, group = poly.group()
    return [tuple(F(k, scale) for k in g) for g in group]


def group_sector_dimension(mirror_rows, charges, group, theta):
    """The dimension of the sector ``theta`` by linear algebra over Q: per
    weighted degree, the invariant monomials of the fixed coordinates
    modulo the invariant multiples of the restricted partials, testing
    every character on every element of ``group``."""
    fixed = tuple(j for j in range(3) if theta[j] == 0)
    if not fixed:
        return 1
    rows = [r for r in mirror_rows if all(r[j] == 0 for j in range(3) if j not in fixed)]

    def char_zero(exps, shift_idx=None):
        for gamma in group:
            total = sum((exps[k] + 1) * gamma[j] for k, j in enumerate(fixed))
            if shift_idx is not None:
                total -= gamma[shift_idx]
            if total % 1:
                return False
        return True

    socle = sum(1 - 2 * charges[j] for j in fixed)
    by_weight = {}

    def enumerate_monomials(pos, prefix, weight):
        if pos == len(fixed):
            by_weight.setdefault(weight, []).append(tuple(prefix))
            return
        q = charges[fixed[pos]]
        e = 0
        while weight + e * q <= socle:
            enumerate_monomials(pos + 1, prefix + [e], weight + e * q)
            e += 1

    enumerate_monomials(0, [], F(0))
    dim = 0
    for weight, monomials in by_weight.items():
        columns = {m: k for k, m in enumerate(m for m in monomials if char_zero(m))}
        if not columns:
            continue
        relations = []
        for j in fixed:
            for mono in by_weight.get(weight - (1 - charges[j]), ()):
                if not char_zero(mono, shift_idx=j):
                    continue
                vector = [F(0)] * len(columns)
                for row in rows:
                    if row[j] == 0:
                        continue
                    shifted = list(mono)
                    for k, jj in enumerate(fixed):
                        shifted[k] += row[jj] - (1 if jj == j else 0)
                    vector[columns[tuple(shifted)]] += row[j]
                relations.append(vector)
        dim += len(nullspace(relations, len(columns)))
    return dim


def test_sector_dimension_on_generators_matches_the_whole_group():
    assert len(CATALOG) == 13
    dims = []
    for entry in CATALOG:
        mirror = entry.polynomial.transpose()
        charges = entry.polynomial.mirror_charges
        group = phase_group(mirror)
        assert len(mirror.group()[1]) == 3
        for theta in group:
            fixed = tuple(j for j in range(3) if theta[j] == 0)
            dim = sector_dimension(entry.name, mirror, mirror.group(), fixed)
            assert dim == group_sector_dimension(mirror.exponents, charges, group, theta), (
                entry.name,
                theta,
            )
            if not all(theta):
                dims.append(dim)
    assert 0 in dims and max(dims) > 1


def test_the_state_space_of_every_entry_has_the_milnor_number():
    """Narrow sectors plus broad dimensions give mu on all 13 entries, also
    the three that FjrwTheory excludes; their broad sectors with states
    are the ones ROADMAP item 7 lists (dimension times count)."""
    broad = {}
    for entry in CATALOG:
        mirror = entry.polynomial.transpose()
        group = mirror.group()
        labels = dict(zip(group[2], phase_group(mirror)))
        sectors = ises.fjrw._sector_list(entry.name, mirror, group, labels)
        states = sum(s.dim for s in sectors)
        assert states == entry.polynomial.milnor_number, entry.name
        broad[entry.name] = sorted(s.dim for s in sectors if not s.narrow and s.dim)
    assert {name: dims for name, dims in broad.items() if name not in NAMES} == {
        "e6-chain23": [1, 1],
        "e6-loop22": [2, 2],
        "e7-chain22": [1, 1, 1],
    }


def test_a_set_that_is_not_a_group_has_no_trace_average():
    """The identity and the element (1/3, 1/3, 1/3), which moves every
    coordinate, without its square: on all three coordinates the traces
    (1/q - 1)^3 = 8 and (-1)^3 average to 7/2, which counts no states."""
    mirror = get_entry(CATALOG, "e6-fermat").polynomial.transpose()
    assert mirror.charges == (F(1, 3),) * 3
    not_closed = (3, mirror.group()[1], ((0, 0, 0), (1, 1, 1)))
    message = r"^e6-fermat: the trace average 7/2 on coordinates \(0, 1, 2\) is not a dimension$"
    with pytest.raises(DomainError, match=message):
        sector_dimension("e6-fermat", mirror, not_closed, (0, 1, 2))
    labels = {g: tuple(F(k, 3) for k in g) for g in not_closed[2]}
    with pytest.raises(DomainError, match=message):
        ises.fjrw._sector_list("e6-fermat", mirror, not_closed, labels)


def test_the_a_side_builds_no_groebner_basis_and_no_polynomial(monkeypatch):
    """Fresh theories, tables, words and residual checks of all 10 entries
    with Buchberger and every polynomial constructor made to fail give the
    pinned A-side outputs."""
    expected = aside_dump()

    def forbidden(*args, **kwargs):
        raise AssertionError("the A side built a polynomial")

    monkeypatch.setattr(ises.jacobi, "groebner", forbidden)
    monkeypatch.setattr(MultiPoly, "__init__", forbidden)
    monkeypatch.setattr(MultiPoly, "_wrap", forbidden)
    assert aside_dump(FjrwTheory) == expected


# ---------------------------------------------------------------------------
# broad sectors by Groebner bases, without sector_dimension


def invariant_classes(entry, theta):
    """Exponents a of the standard monomials x^a of the Milnor algebra of
    W^T restricted to the coordinates that ``theta`` fixes, for which
    x^a times the volume form on those coordinates is invariant: (a + 1)
    theta' is integral for every theta' of the group of W^T."""
    mirror = entry.polynomial.transpose()
    q = entry.polynomial.mirror_charges
    group = phase_group(mirror)
    fixed = [j for j in range(3) if theta[j] == 0]
    moved = [j for j in range(3) if j not in fixed]
    restricted = MultiPoly(
        {e: F(c) for e, c in mirror.polynomial().terms.items() if not any(e[j] for j in moved)}
    )
    partials = [restricted.partial(j) for j in fixed]
    # fewer than three partials are no regular sequence in three variables
    basis = groebner(partials, q, entry.name)[0] if len(fixed) == 3 else reference_groebner(partials, q)
    bound = [int(1 / q[j]) + 1 if j in fixed else 0 for j in range(3)]
    standard = [
        a
        for a in product(*(range(b + 1) for b in bound))
        if normal_form(MultiPoly.monomial(a, F(1)), basis, q) == MultiPoly.monomial(a, F(1))
    ]
    return [
        a for a in standard if all(sum((a[j] + 1) * g[j] for j in fixed) % 1 == 0 for g in group)
    ]


def test_e7_chain322_broad_class_is_in_the_z_twisted_sector():
    entry = get_entry(CATALOG, "e7-chain322")
    mirror = entry.polynomial.transpose()
    assert mirror.polynomial().to_text() == "X1^3 + X1*X2^2 + X2*X3^2"
    q = entry.polynomial.mirror_charges
    group = phase_group(mirror)
    # the untwisted sector: x^a dV is invariant iff (a + 1) theta is integral
    candidates = [
        a
        for a in product(range(4), repeat=3)
        if sum(ai * qi for ai, qi in zip(a, q)) <= 1
        and all(sum((ai + 1) * t for ai, t in zip(a, g)) % 1 == 0 for g in group)
    ]
    assert candidates == [(0, 2, 1), (2, 0, 1)]  # y^2 z and x^2 z
    # groebner refuses int cells, which would divide to floats
    jacobian = groebner([mirror.polynomial().map_coeffs(F).partial(j) for j in range(3)], q, entry.name)[0]
    for a in candidates:
        assert not normal_form(MultiPoly.monomial(a, F(1)), jacobian, q)
    assert invariant_classes(entry, (F(0), F(0), F(0))) == []
    # on z = 0, the sector (0, 0, 1/2) keeps y dx^dy and nothing else
    assert invariant_classes(entry, (F(0), F(0), F(1, 2))) == [(0, 1, 0)]
    th = theory("e7-chain322")
    assert th.broad_dims == {(F(0), F(0), F(1, 2)): 1}
    frozen = {th.sector(b["index"]).theta: b["dim"] for b in entry.fjrw["broad"]}
    assert frozen == th.broad_dims


@pytest.mark.parametrize("name", NAMES)
def test_broad_dims_are_the_invariant_standard_classes(name):
    th, entry = theory(name), get_entry(CATALOG, name)
    derived = {}
    for theta, sector in th.sectors.items():
        if not sector.narrow:
            assert len(invariant_classes(entry, theta)) == sector.dim, theta
            if sector.dim:
                derived[theta] = sector.dim
    assert derived == th.broad_dims


# ---------------------------------------------------------------------------
# the frozen fjrw fields are oracles for the derived state space


@pytest.mark.parametrize("name", NAMES)
def test_the_frozen_state_space_fields_match_the_derived_ones(name):
    th = theory(name)
    block = get_entry(CATALOG, name).fjrw
    assert th.sector(block["J"]) is th.identity
    assert th.identity.theta == th.mirror_charges
    assert th.sector(block["rho"]["top"]) is th.top
    assert th.top.degree == 1
    frozen = {int(k): th.sector(ix) for k, ix in block["rho"].items() if k != "top"}
    if name == "e6-loop222":
        # Krawitz's map composed with the symmetry x -> y -> z of x^2 y + y^2 z + z^2 x
        assert frozen != th.rho
        assert frozen == {i: th.rho[i % 3 + 1] for i in th.rho}
    else:
        assert frozen == th.rho
    assert block["narrow"] == sum(s.narrow for s in th.sectors.values())
    frozen = {th.sector(b["index"]).theta: b["dim"] for b in block["broad"]}
    assert frozen == th.broad_dims


def test_the_generators_are_the_variables_outside_the_jacobian_ideal():
    dropped = {}
    for name in NAMES:
        poly = get_entry(CATALOG, name).polynomial
        basis = groebner([poly.polynomial().map_coeffs(F).partial(i) for i in range(3)], poly.charges, name)[0]
        variables = [MultiPoly.monomial(tuple(int(j == i) for j in range(3))) for i in range(3)]
        outside = tuple(i + 1 for i, x in enumerate(variables) if normal_form(x, basis, poly.charges))
        assert theory(name).generators == outside, name
        if outside != (1, 2, 3):
            dropped[name] = (outside, poly.exponents)
    # each dropped variable is z, and W holds it only in a lone Morse term z^2
    assert sorted(dropped) == ["e7-chain34", "e7-fermat", "e7-loop33", "e8-chain43", "e8-fermat"]
    for outside, rows in dropped.values():
        assert outside == (1, 2) and rows[2] == (0, 0, 2) and rows[0][2] == rows[1][2] == 0


def with_fjrw(name, edit):
    """The catalog entry ``name`` with ``edit`` applied to a copy of its
    fjrw block."""
    entry = get_entry(CATALOG, name)
    block = copy.deepcopy(dict(entry.fjrw))
    edit(block)
    return CatalogEntry(**{**vars(entry), "fjrw": block})


@pytest.mark.parametrize("block", [None, {}])
def test_an_entry_without_state_space_data_needs_a_broad_fixture(block):
    entry = CatalogEntry(**{**vars(get_entry(CATALOG, "e6-fermat")), "fjrw": block})
    with pytest.raises(NeedsBroadFixture, match="^e6-fermat: no state-space data$"):
        FjrwTheory(entry)


@pytest.mark.parametrize("step", [["1/3", "5/6", "1/6"], ["1/5", "0", "0"]])
def test_a_scheme_step_that_is_not_a_symmetry_is_rejected(step):
    def edit(block):
        block["scheme"]["steps"] = [step]

    with pytest.raises(DomainError, match="e7-chain322: chart .* not (a )?symmetr"):
        FjrwTheory(with_fjrw("e7-chain322", edit))


@pytest.mark.parametrize("key", ["scheme"])
def test_an_fjrw_block_without_its_chart_is_rejected(key):
    def edit(block):
        del block[key]

    with pytest.raises(DomainError, match=f"e6-fermat: the fjrw block has no '{key}'"):
        FjrwTheory(with_fjrw("e6-fermat", edit))


@pytest.mark.parametrize("key, value", [("scheme", 5)])
def test_an_fjrw_chart_that_is_not_an_object_is_rejected(key, value):
    def edit(block):
        block[key] = value

    with pytest.raises(DomainError, match=f"^e6-fermat: the fjrw {key} must be an object"):
        FjrwTheory(with_fjrw("e6-fermat", edit))


def fixture_row(value):
    """A four-point fixture row of e6-fermat on real sector indices."""
    return {"insertions": [[1, 1, 1], [1, 1, 1], [1, 1, 1], [2, 2, 2]], "value": value}


def bad_row(row):
    """The message pattern that rejects the four-point fixture ``row``."""
    return re.escape(
        f"the fjrw fixtures fourPoint row {row!r} needs a list of "
        "sector indices as insertions and a rational string as value"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda block: block.update(fixtures=5), "the fjrw fixtures must be an object, got 5"),
        (
            lambda block: block.update(fixtures={"fourPoint": 5}),
            "the fjrw fixtures fourPoint must be a list of objects, got 5",
        ),
        (
            lambda block: block["scheme"].update(offset=["x", "0", "0"]),
            re.escape("chart offset ['x', '0', '0'] is not a symmetry"),
        ),
        (lambda block: block["scheme"].update(offset=5), "chart offset 5 is not a symmetry"),
        (
            lambda block: block["scheme"].update(steps=5),
            "chart steps 5 must be a list",
        ),
        (
            lambda block: block["scheme"].update(steps=[["1/0", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/3"]]),
            re.escape("chart step ['1/0', '0', '0'] is not a symmetry"),
        ),
        (
            lambda block: block.update(fixtures={"fourPoint": [{}]}),
            bad_row({}),
        ),
        (
            lambda block: block.update(fixtures={"fourPoint": [{"insertions": 5, "value": "1"}]}),
            bad_row({"insertions": 5, "value": "1"}),
        ),
        (
            lambda block: block.update(fixtures={"fourPoint": [fixture_row("x")]}),
            bad_row(fixture_row("x")),
        ),
        (
            lambda block: block.update(fixtures={"fourPoint": [fixture_row([])]}),
            bad_row(fixture_row([])),
        ),
    ],
    ids=[
        "fixtures",
        "fourPoint",
        "offset-x",
        "offset-int",
        "steps-int",
        "step-zero-denominator",
        "row-empty",
        "insertions-int",
        "value-x",
        "value-list",
    ],
)
def test_a_malformed_fjrw_block_is_rejected_naming_the_entry(edit, message):
    with pytest.raises(DomainError, match=f"^e6-fermat: {message}$"):
        FjrwTheory(with_fjrw("e6-fermat", edit))
