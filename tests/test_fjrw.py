"""FJRW sectors, the narrow correlator tables and weight-one words."""

from fractions import Fraction as F
from functools import cache
from itertools import combinations_with_replacement, product

import pytest

import ises.fjrw
from ises.fjrw import (
    Channel,
    FjrwTheory,
    FourPointBreakdown,
    Infeasible,
    NeedsBroadFixture,
    NotConcave,
    sector_dimension,
)
from ises.isespoly import enumerate_group, get_entry, group_generators, load_catalog
from ises.numcore import DomainError, nullspace
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
    """The Fraction form of ``FjrwTheory.threepoint`` on narrow sectors."""
    if sum(th.sectors[t].degree for t in thetas) != 1:
        return F(0)
    d, feasible = line_bundle_degrees(th.mirror_charges, thetas)
    if not feasible:
        return F(0)
    if all(dj == -1 for dj in d):
        return F(1)
    if all(dj <= -1 for dj in d):
        return F(0)
    return th._fixture3.get(tuple(sorted(thetas)))


def fraction_fourpoint(th, thetas):
    """The Fraction form of ``FjrwTheory.fourpoint_breakdown`` on narrow
    sectors: Bernoulli sums over the main component and the three channels."""
    q = th.mirror_charges
    main, feasible = line_bundle_degrees(q, thetas)
    if not feasible:
        raise Infeasible(f"{th.name}: degrees {main} not integral")
    if sum(th.sectors[t].degree for t in thetas) != 2:
        raise Infeasible(f"{th.name}: degree budget violated")
    if any(dj > -1 for dj in main):
        raise NotConcave(f"{th.name}: main component degrees {main}")
    channels = []
    for split in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        (a, b), (c, d) = ([thetas[k] for k in half] for half in split)
        node = frac3(q[j] - a[j] - b[j] for j in range(3))
        sides = []
        for side_thetas in ([a, b, node], [c, d, frac3(-t for t in node)]):
            degrees, ok = line_bundle_degrees(q, side_thetas)
            if not ok:
                raise Infeasible(f"{th.name}: channel degrees {degrees}")
            if any(dj > -1 for dj in degrees):
                raise NotConcave(f"{th.name}: channel {split} degrees {degrees}")
            sides.append(degrees)
        channels.append(Channel(split, node, tuple(sides)))
    parts = tuple(
        (
            bernoulli_b2(q[i])
            - sum(bernoulli_b2(t[i]) for t in thetas)
            + sum(bernoulli_b2(ch.node_theta[i]) for ch in channels)
        )
        / 2
        for i in range(3)
    )
    return FourPointBreakdown(tuple(thetas), main, tuple(channels), parts)


def outcome(call, *args):
    """The value of a call, or the class and message of its DomainError."""
    try:
        return call(*args)
    except DomainError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", NAMES)
def test_fourpoint_kernel_matches_the_fraction_form(name):
    th = theory(name)
    labels = [s.theta for s in th.narrow_sectors()]
    kinds = set()
    for quad in combinations_with_replacement(labels, 4):
        got = outcome(th.fourpoint_breakdown, quad)
        assert got == outcome(fraction_fourpoint, th, quad), quad
        if isinstance(got, FourPointBreakdown):
            assert type(got.value) is F
            kinds.add(FourPointBreakdown)
        else:
            kinds.add(got[0])
    assert {FourPointBreakdown, Infeasible} <= kinds


@pytest.mark.parametrize("name", NAMES)
def test_threepoint_matches_the_fraction_form(name):
    th = theory(name)
    labels = [s.theta for s in th.narrow_sectors()]
    for trip in combinations_with_replacement(labels, 3):
        assert th.threepoint(*trip) == fraction_threepoint(th, trip), trip


@pytest.mark.parametrize("name", NAMES)
def test_on_budget_narrow_triples_have_degree_sum_minus_three(name):
    # so all d_j <= -1 forces every d_j = -1, and _threepoint needs no case
    # for all d_j <= -1 with some d_j <= -2
    th = theory(name)
    labels = [s.theta for s in th.narrow_sectors()]
    on_budget = [
        trip
        for trip in combinations_with_replacement(labels, 3)
        if sum(th.sectors[t].degree for t in trip) == 1
    ]
    assert on_budget
    for trip in on_budget:
        assert sum(th._degrees([th._scaled[t] for t in trip])) == -3 * th._scale, trip


@pytest.mark.parametrize("name", NAMES)
def test_table_seed_matches_the_fraction_form(name, monkeypatch):
    th = FjrwTheory(get_entry(CATALOG, name))
    seeded = []
    original = ises.fjrw.propagate

    def capture(table, **kwargs):
        seeded.append((dict(table.known_items()), set(table.unknown_keys)))
        return original(table, **kwargs)

    monkeypatch.setattr(ises.fjrw, "propagate", capture)
    th.correlator_table()
    known, unknown = {}, set()
    labels = [s.theta for s in th.narrow_sectors()]
    for n in (3, 4):
        for ins in combinations_with_replacement(labels, n):
            if sum(th.sectors[t].degree for t in ins) != n - 2:
                continue
            if n == 3:
                value = fraction_threepoint(th, ins)
            elif not line_bundle_degrees(th.mirror_charges, ins)[1]:
                value = F(0)
            else:
                value = outcome(fraction_fourpoint, th, ins)
                if isinstance(value, FourPointBreakdown):
                    value = value.value
                else:
                    assert value[0] is NotConcave
                    value = None
            if value is None:
                unknown.add(ins)
            else:
                known[ins] = value
    assert seeded == [(known, unknown)]


# ---------------------------------------------------------------------------
# sector dimensions: characters on the generators against the whole group


def group_sector_dimension(mirror_rows, charges, group, theta):
    """The Fraction form of ``sector_dimension``, testing every character on
    every element of ``group``."""
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
        group = enumerate_group(mirror.exponents)
        generators = group_generators(mirror.exponents)
        assert len(generators) == 3
        for theta in group:
            dim = sector_dimension(mirror.exponents, charges, generators, theta)
            assert dim == group_sector_dimension(mirror.exponents, charges, group, theta), (
                entry.name,
                theta,
            )
            if not all(theta):
                dims.append(dim)
    assert 0 in dims and max(dims) > 1
