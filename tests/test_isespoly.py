"""Catalog loading and invertible-polynomial combinatorics."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ises.numcore import DomainError, inverse
from ises.isespoly import (
    CatalogEntry,
    InvertiblePolynomial,
    MarginalData,
    SchemaError,
    UnknownEntry,
    _default_catalog_text,
    charge_vector,
    enumerate_group,
    get_entry,
    load_catalog,
    mirror_weights,
)

ALL_NAMES = [
    "e6-fermat",
    "e6-chain23",
    "e6-loop22",
    "e6-chain233",
    "e6-loop222",
    "e7-fermat",
    "e7-chain34",
    "e7-chain22",
    "e7-loop33",
    "e7-chain322",
    "e8-fermat",
    "e8-chain32",
    "e8-chain43",
]


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_names_and_order(catalog):
    assert [e.name for e in catalog] == ALL_NAMES


def test_counts_by_family(catalog):
    fams = {}
    for e in catalog:
        fams.setdefault(e.family, []).append(e)
    assert len(fams["e6"]) == 5
    assert len(fams["e7"]) == 5
    assert len(fams["e8"]) == 3


def test_milnor_numbers(catalog):
    by_family = {"e6": 8, "e7": 9, "e8": 10}
    for e in catalog:
        assert e.milnor == by_family[e.family]
        assert e.polynomial.milnor_number == e.milnor


def test_weight_systems(catalog):
    e = get_entry(catalog, "e8-chain32")
    assert e.charges == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    assert e.mirror_charges == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    e = get_entry(catalog, "e7-chain34")
    assert e.charges == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert e.mirror_charges == (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))


def test_atoms():
    fermat = InvertiblePolynomial([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    assert fermat.atoms() == (("fermat", (0,)), ("fermat", (1,)), ("fermat", (2,)))
    chain = InvertiblePolynomial([[2, 1, 0], [0, 2, 1], [0, 0, 3]])
    assert chain.atoms() == (("chain", (0, 1, 2)),)
    loop = InvertiblePolynomial([[2, 1, 0], [1, 2, 0], [0, 0, 3]])
    assert loop.atoms() == (("loop", (0, 1)), ("fermat", (2,)))
    full_loop = InvertiblePolynomial([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
    assert full_loop.atoms() == (("loop", (0, 1, 2)),)


def test_invertible_polynomial_is_immutable():
    poly = InvertiblePolynomial([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    with pytest.raises(AttributeError):
        poly.exponents = ((2, 1, 0), (0, 2, 1), (0, 0, 3))
    assert poly.exponents == ((3, 0, 0), (0, 3, 0), (0, 0, 3))


def test_transpose_matches_matrix():
    poly = InvertiblePolynomial([[2, 1, 0], [0, 3, 0], [0, 0, 3]])
    assert poly.transpose().exponents == ((2, 0, 0), (1, 3, 0), (0, 0, 3))


def test_group_orders(catalog):
    for e in catalog:
        group = enumerate_group(e.polynomial.exponents)
        assert len(group) == abs(e.polynomial.determinant)
        # every element must leave each monomial invariant
        for theta in group:
            for row in e.polynomial.exponents:
                total = sum(a * t for a, t in zip(row, theta))
                assert total.denominator == 1


def test_marginal_normalisations(catalog):
    expected = {
        ("e6-fermat", (1, 1, 1)): Fraction(-1, 27),
        ("e6-chain23", (2, 0, 1)): Fraction(1),
        ("e6-chain23", (0, 2, 1)): Fraction(-4, 27),
        ("e6-chain233", (0, 3, 0)): Fraction(-27, 4),
        ("e7-chain34", (4, 0, 0)): Fraction(256, 27),
        ("e7-loop33", (4, 0, 0)): Fraction(-27, 4),
        ("e7-chain322", (1, 3, 0)): Fraction(-64, 27),
        ("e8-fermat", (4, 1, 0)): Fraction(-4, 27),
        ("e8-chain43", (6, 0, 0)): Fraction(-27, 4),
    }
    for (name, m), c in expected.items():
        entry = get_entry(catalog, name)
        assert entry.marginal(m).C == c


def test_marginal_relation_is_exact(catalog):
    # E^T lvec = l*m for every catalogued marginal row.
    for e in catalog:
        E = e.polynomial.exponents
        for row in e.marginals:
            for j in range(3):
                lhs = sum(E[i][j] * row.l_vector[i] for i in range(3))
                assert lhs == row.l * row.m[j]
            assert sum(row.l_vector) == row.l


def test_weights_sum_rule(catalog):
    for e in catalog:
        for row in e.marginals:
            a, b, g = row.weights
            assert a + b == g
            assert 0 < a <= b < 1


def test_modular_identity(catalog):
    e = get_entry(catalog, "e7-fermat")
    # j(sigma) at sigma = 0 equals 1728 and the numerator is 16*P.
    assert e.j_numerator.coeffs == tuple(16 * c for c in e.P.coeffs)
    assert e.j_zero == 1728
    e6 = get_entry(catalog, "e6-fermat")
    assert e6.j_numerator.eval(Fraction(0)) == 0
    assert e6.punctures.radicand == Fraction(-27)
    assert e6.punctures.count == 3


def test_charge_helpers():
    E = [[6, 0, 0], [0, 3, 0], [0, 0, 2]]
    assert charge_vector(E) == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    assert mirror_weights(E) == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    E = [[3, 1, 0], [0, 2, 0], [0, 0, 3]]
    assert mirror_weights(E) == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_get_entry_unknown(catalog):
    with pytest.raises(KeyError):
        get_entry(catalog, "e9-fermat")


def test_an_unknown_entry_name_is_a_typed_error(catalog):
    with pytest.raises(UnknownEntry) as info:
        get_entry(catalog, "e9-fermat")
    assert isinstance(info.value, DomainError)
    assert isinstance(info.value, KeyError)
    assert str(info.value) == "no catalog entry named 'e9-fermat'"


def test_schema_error_on_bad_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_catalog(str(bad))
    missing = tmp_path / "missing.json"
    with pytest.raises(SchemaError):
        load_catalog(str(missing))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"entries": []}))
    with pytest.raises(SchemaError):
        load_catalog(str(empty))


def test_schema_error_on_wrong_data(tmp_path):
    doc = {
        "entries": [
            {
                "name": "bogus",
                "family": "e6",
                "E": [[3, 0, 0], [0, 3, 0], [0, 0, 3]],
                "milnor": 8,
                "L": 3,
                "jZero": "0",
                "marginals": [
                    {
                        "m": [1, 1, 1],
                        "l": [1, 1, 1],
                        "lcm": 3,
                        "C": "-1/26",
                        "weights": ["1/3", "1/3", "2/3"],
                    }
                ],
            }
        ]
    }
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="C should be"):
        load_catalog(str(path))


@pytest.mark.parametrize("field", ["phi", "referencePhi"])
def test_schema_error_on_an_uncatalogued_gepner_marginal(tmp_path, field):
    doc = json.loads(_default_catalog_text())
    (entry,) = [e for e in doc["entries"] if e["name"] == "e6-chain23"]
    entry["gepner"][field] = [3, 0, 0]
    path = tmp_path / "bad-phi.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"entry e6-chain23 gepner: .* \(3, 0, 0\)"):
        load_catalog(str(path))


def test_env_variable_override(tmp_path, monkeypatch):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"entries": []}))
    monkeypatch.setenv("ISES_CATALOG", str(path))
    with pytest.raises(SchemaError):
        load_catalog()
    monkeypatch.delenv("ISES_CATALOG")
    assert len(load_catalog()) == 13


def test_fjrw_blocks_present(catalog):
    excluded = {"e6-chain23", "e6-loop22", "e7-chain22"}
    for e in catalog:
        assert e.fjrw is not None
        if e.name in excluded:
            assert e.fjrw.get("excluded") is True
        else:
            assert "scheme" in e.fjrw
            total = e.fjrw["narrow"] + sum(b["dim"] for b in e.fjrw["broad"])
            assert total == e.milnor


def test_class_reference_data(catalog):
    refs = {}
    for e in catalog:
        block = e.gepner
        assert block is not None
        key = (e.milnor, e.j_zero)
        if block.get("reference") is None:
            assert key not in refs
            refs[key] = e.name
    assert refs == {
        (8, 0): "e6-fermat",
        (8, 1728): "e6-chain233",
        (9, 1728): "e7-fermat",
        (9, 0): "e7-chain34",
        (10, 0): "e8-fermat",
        (10, 1728): "e8-chain43",
    }
    for e in catalog:
        ref_name = e.gepner.get("reference")
        if ref_name is not None:
            assert refs[(e.milnor, e.j_zero)] == ref_name


@st.composite
def invertible_matrices(draw):
    """Random atom-structured exponent matrices (not necessarily elliptic)."""
    kind = draw(st.sampled_from(["fermat", "chain", "loop", "mixed"]))
    a = draw(st.integers(2, 6))
    b = draw(st.integers(2, 6))
    c = draw(st.integers(2, 6))
    if kind == "fermat":
        return [[a, 0, 0], [0, b, 0], [0, 0, c]]
    if kind == "chain":
        return [[a, 1, 0], [0, b, 1], [0, 0, c]]
    if kind == "loop":
        return [[a, 1, 0], [0, b, 1], [1, 0, c]]
    return [[a, 1, 0], [1, b, 0], [0, 0, c]]


def fraction_group(exponents):
    """The Fraction form of ``enumerate_group``: a breadth-first search over
    the columns of E^-1 mod 1, adding Fraction phases mod 1."""
    inv = inverse(exponents)
    generators = [tuple(Fraction(inv[i][j]) % 1 for i in range(3)) for j in range(3)]
    seen = {(Fraction(0), Fraction(0), Fraction(0))}
    frontier = list(seen)
    while frontier:
        theta = frontier.pop()
        for gen in generators:
            new = tuple((a + b) % 1 for a, b in zip(theta, gen))
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return tuple(sorted(seen))


def test_enumerate_group_matches_the_fraction_search(catalog):
    assert len(catalog) == 13
    for e in catalog:
        for poly in (e.polynomial, e.polynomial.transpose()):
            group = enumerate_group(poly.exponents)
            assert group == fraction_group(poly.exponents), e.name
            assert all(type(t) is Fraction for theta in group for t in theta)


@given(invertible_matrices())
def test_group_elements_fix_monomials(E):
    poly = InvertiblePolynomial(E)
    group = enumerate_group(poly.exponents)
    assert len(group) == abs(poly.determinant)
    for theta in group:
        for row in poly.exponents:
            assert sum(a * t for a, t in zip(row, theta)).denominator == 1


@given(invertible_matrices())
def test_transpose_involution(E):
    poly = InvertiblePolynomial(E)
    assert poly.transpose().transpose() == poly
    # both weight systems solve their defining linear systems
    q = poly.charges
    for row, target in zip(poly.exponents, (1, 1, 1)):
        assert sum(e * w for e, w in zip(row, q)) == target
    qt = poly.mirror_charges
    for row, target in zip(poly.transpose().exponents, (1, 1, 1)):
        assert sum(e * w for e, w in zip(row, qt)) == target


@given(invertible_matrices())
def test_milnor_number_is_integer(E):
    poly = InvertiblePolynomial(E)
    mu = poly.milnor_number
    assert isinstance(mu, int)
    assert mu >= 1


def test_marginal_derive_rejects_non_marginal():
    poly = InvertiblePolynomial([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    with pytest.raises(DomainError):
        MarginalData.derive(poly, (1, 0, 0), (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)))


def test_entry_is_hashable_identity(catalog):
    e = get_entry(catalog, "e6-fermat")
    assert isinstance(e, CatalogEntry)
    assert e.polynomial == InvertiblePolynomial([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    assert hash(e.polynomial) == hash(InvertiblePolynomial([[3, 0, 0], [0, 3, 0], [0, 0, 3]]))
