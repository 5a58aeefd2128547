"""Catalog loading and invertible-polynomial combinatorics."""

from __future__ import annotations

import copy
import json
import pickle
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ises.numcore import DomainError, MultiPoly, UniPoly, inverse, parse_rat, scaled_ints
from ises.isespoly import (
    CatalogEntry,
    InvertiblePolynomial,
    MarginalData,
    SchemaError,
    UnknownEntry,
    _default_catalog_text,
    _parse_entry,
    get_entry,
    load_catalog,
)
from ises.jacobi import JacobianAlgebra, groebner, order_key
from ises.pfsolve import build_gkz, weight_report

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


# The bundled catalog as parsed JSON: every frozen value that the loader
# does not read is checked here, against a derivation from E.
FROZEN = {d["name"]: d for d in json.loads(_default_catalog_text())["entries"]}


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def load_doc(tmp_path, doc):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return load_catalog(str(path))


def rats(values):
    return tuple(parse_rat(str(v)) for v in values)


# ---------------------------------------------------------------------------
# the oracle for the frozen reference data
# ---------------------------------------------------------------------------

MILNOR_BY_FAMILY = {"e6": 8, "e7": 9, "e8": 10}
MODULAR_KEYS = ("N", "jNumerator", "jDenominator", "P", "PAtPuncture", "punctures")


def check_modular_block(where, d, fam):
    """j = jNumerator/jDenominator = P/(1 - C sigma^l)^N, jZero = j(0), and
    the punctures x(p_k) = 1: p_k^l = 1/C, with P(p_k) = PAtPuncture."""
    present = [key for key in MODULAR_KEYS if d.get(key) is not None]
    if not present:
        return
    if len(present) != len(MODULAR_KEYS):
        raise SchemaError(f"{where}: the modular block needs all of {MODULAR_KEYS}")
    jnum, jden, P = (UniPoly(rats(d[key])) for key in ("jNumerator", "jDenominator", "P"))
    one_minus = UniPoly([Fraction(1)] + [Fraction(0)] * (fam.l - 1) + [-fam.C])
    if jnum * one_minus ** d["N"] != P * jden:
        raise SchemaError(f"{where}: jNumerator/jDenominator does not match P/(1 - C sigma^l)^N")
    if jden.eval(Fraction(0)) == 0:
        raise SchemaError(f"{where}: j has a pole at sigma = 0")
    j0 = jnum.eval(Fraction(0)) / jden.eval(Fraction(0))
    if j0 != parse_rat(d["jZero"]):
        raise SchemaError(f"{where}: j(0) = {j0} disagrees with jZero {d['jZero']}")
    pun = d["punctures"]
    radicand = parse_rat(pun["radicand"])
    # the count points p_k are the l-th roots of the radicand
    if pun["index"] != fam.l or pun["count"] != fam.l:
        raise SchemaError(f"{where}: puncture index and count must equal the marginal index l")
    if radicand != 1 / fam.C:
        raise SchemaError(f"{where}: puncture radicand must equal 1/C")
    # P must be a polynomial in sigma^l; evaluate it at sigma^l = radicand
    value = Fraction(0)
    for k, c in enumerate(P.coeffs):
        if c and k % fam.l:
            raise SchemaError(f"{where}: P is not a polynomial in sigma^l")
        value += c * radicand ** (k // fam.l)
    if value != parse_rat(d["PAtPuncture"]):
        raise SchemaError(f"{where}: P at the puncture is {value}, not {d['PAtPuncture']}")


# A local exponent difference 1/k of the period's 2F1 with k = 3 or 2 is a
# finite monodromy of that order in SL2(Z), which fixes tau = e^(2 pi i/3)
# (j = 0) or tau = i (j = 1728): an FJRW limit.  A difference of 0 is a
# logarithm, a cusp with j = infinity: a GW limit.
FINITE_MONODROMY = {Fraction(1, 3): 0, Fraction(1, 2): 1728}


def exponent_differences(entry, m):
    """The local exponent differences |1 - gamma|, |gamma - alpha - beta| and
    |alpha - beta| at x = 0, 1 and infinity of the certified 2F1 weights of
    (entry, m), x = C sigma^l, keyed by the catalog's names for those
    limits."""
    w, certified = weight_report(entry, m)
    if not certified:
        raise SchemaError(f"entry {entry.name} marginal {m}: weights not certified")
    return {
        "zero": abs(1 - w.gamma),
        "puncture": abs(w.gamma - w.alpha - w.beta),
        "infinity": abs(w.alpha - w.beta),
    }


def check_limits(where, d):
    """jZero and every frozen limit of ``d`` against the exponent
    differences of its first marginal."""
    diffs = exponent_differences(_parse_entry(d), d["marginals"][0]["m"])
    j = FINITE_MONODROMY.get(diffs["zero"])
    if parse_rat(d["jZero"]) != j:
        raise SchemaError(f"{where}: jZero {d['jZero']} should be {j}, by the difference {diffs['zero']} at 0")
    for point, limit in d.get("limits", {}).items():
        derived = "gw" if diffs[point] == 0 else "fjrw" if diffs[point] in FINITE_MONODROMY else None
        if limit != derived:
            raise SchemaError(f"{where}: limits.{point} {limit} should be {derived}, by the difference {diffs[point]}")


def check_gepner_block(name, entries):
    """A Gepner reference lies in the member's (milnor, jZero) class, and
    phi and referencePhi are catalogued marginals of member and reference."""
    block = entries[name].get("gepner") or {}
    ref_name = block.get("reference")
    if ref_name is None:
        return
    where = f"entry {name} gepner"
    if ref_name not in entries:
        raise SchemaError(f"{where}: unknown reference {ref_name!r}")
    d, ref = entries[name], entries[ref_name]
    if (ref["milnor"], parse_rat(ref["jZero"])) != (d["milnor"], parse_rat(d["jZero"])):
        raise SchemaError(f"{where}: reference lies in a different (milnor, j(0)) class")
    for key, owner in (("phi", d), ("referencePhi", ref)):
        if block[key] not in [row["m"] for row in owner["marginals"]]:
            raise SchemaError(
                f"{where}: {owner['name']} has no catalogued marginal {tuple(block[key])}"
            )


def check_frozen_values(doc):
    """Check every frozen value of ``doc`` that the loader does not read
    against its derivation from E; raise a SchemaError naming the entry at
    the first disagreement."""
    entries = {d["name"]: d for d in doc["entries"]}
    for name, d in entries.items():
        where = f"entry {name}"
        poly = InvertiblePolynomial(d["E"])
        mu = poly.milnor_number
        if (MILNOR_BY_FAMILY.get(d["family"]), d["milnor"]) != (mu, mu):
            raise SchemaError(
                f"{where}: family {d['family']} and milnor {d['milnor']} "
                f"do not match the Milnor number {mu}"
            )
        if d["L"] != scaled_ints(poly.charges)[1]:
            raise SchemaError(f"{where}: L must be the lcm of the weight denominators")
        for row in d["marginals"]:
            mwhere = f"{where} marginal {row['m']}"
            derived = MarginalData.derive(poly, row["m"])
            a, b, g = rats(row["weights"])
            if a + b != g:
                raise SchemaError(f"{mwhere}: expected gamma = alpha + beta")
            if tuple(row["l"]) != derived.l_vector:
                raise SchemaError(f"{mwhere}: l vector should be {derived.l_vector}")
            if row["lcm"] != derived.l:
                raise SchemaError(f"{mwhere}: index l should be {derived.l}")
            if parse_rat(row["C"]) != derived.C:
                raise SchemaError(f"{mwhere}: C should be {derived.C}")
        for row in d.get("twisted", []):
            a, b, g = rats(row["weights"])
            deg = poly.weighted_degree(row["r"])
            if a + b - g != deg:
                twhere = f"{where} twisted {row['r']}"
                raise SchemaError(f"{twhere}: expected alpha + beta - gamma = {deg}")
        check_modular_block(where, d, MarginalData.derive(poly, d["marginals"][0]["m"]))
        check_limits(where, d)
        if "K" in d:
            # K of the algebra of the first marginal, which is the default one
            k = JacobianAlgebra(_parse_entry(d)).k_constant
            if parse_rat(d["K"]) != k:
                raise SchemaError(f"{where}: K {d['K']} does not match the algebra's K = {k}")
        # the display basis is the staircase of W over Q, in the monomial order
        w = poly.polynomial().map_coeffs(Fraction)
        staircase = groebner([w.partial(i) for i in range(3)], poly.charges, name)[1]
        basis = sorted(map(tuple, d.get("basis", staircase)), key=order_key(poly.charges))
        if basis != list(staircase):
            raise SchemaError(f"{where}: basis should be the staircase of W, {staircase}")
        if "topMonomial" in d and tuple(d["topMonomial"]) != staircase[-1]:
            raise SchemaError(f"{where}: topMonomial should be {staircase[-1]}")
    for name in entries:
        check_gepner_block(name, entries)


def test_the_frozen_reference_data_matches_the_derivations():
    check_frozen_values(json.loads(_default_catalog_text()))


def edited(name, edit):
    """The bundled catalog with ``edit`` applied to entry ``name``."""
    doc = json.loads(_default_catalog_text())
    edit(next(d for d in doc["entries"] if d["name"] == name))
    return doc


@pytest.mark.parametrize(
    "name, edit, message",
    [
        pytest.param("e6-fermat", lambda d: d.update(family="e7"), "family e7", id="family"),
        pytest.param("e6-chain23", lambda d: d.update(milnor=9), "milnor 9", id="milnor"),
        pytest.param("e8-chain32", lambda d: d.update(L=3), "L must be", id="L"),
        pytest.param(
            "e7-chain322",
            lambda d: d["marginals"][1].update(l=[4, 0, 0]),
            "l vector should be",
            id="l",
        ),
        pytest.param(
            "e6-chain23", lambda d: d["marginals"][0].update(lcm=5), "index l should be", id="lcm"
        ),
        pytest.param(
            "e7-fermat",
            lambda d: d["marginals"][0]["weights"].__setitem__(2, "2/3"),
            r"gamma = alpha \+ beta",
            id="weights",
        ),
        pytest.param(
            "e8-fermat",
            lambda d: d["twisted"][0]["weights"].__setitem__(2, "1/3"),
            r"alpha \+ beta - gamma",
            id="twisted-weights",
        ),
        pytest.param("e6-fermat", lambda d: d.pop("N"), "modular block needs", id="N"),
        pytest.param(
            "e7-fermat", lambda d: d["P"].__setitem__(0, "1"), "does not match P", id="P"
        ),
        pytest.param(
            "e7-fermat", lambda d: d.update(jZero="0"), "disagrees with jZero", id="jZero"
        ),
        pytest.param(
            "e6-chain233", lambda d: d.update(jZero="0"), "jZero 0 should be 1728", id="jZero-derived"
        ),
        pytest.param(
            "e6-fermat",
            lambda d: d["limits"].update(infinity="fjrw"),
            "limits.infinity fjrw should be gw",
            id="limits-infinity",
        ),
        pytest.param(
            "e8-fermat",
            lambda d: d["limits"].update(infinity="gw"),
            "limits.infinity gw should be fjrw",
            id="limits-fjrw",
        ),
        pytest.param(
            "e6-chain23",
            lambda d: d["limits"].update(zero="gw"),
            "limits.zero gw should be fjrw",
            id="limits-zero",
        ),
        pytest.param(
            "e6-fermat",
            lambda d: d["punctures"].update(radicand="27"),
            "radicand must equal 1/C",
            id="radicand",
        ),
        pytest.param(
            "e8-fermat", lambda d: d["punctures"].update(count=2), "index and count", id="count"
        ),
        pytest.param(
            "e6-fermat", lambda d: d.update(PAtPuncture="1"), "P at the puncture", id="PAtPuncture"
        ),
        pytest.param(
            "e7-chain322",
            lambda d: d["gepner"].update(reference="e7-fermat"),
            r"different \(milnor, j\(0\)\) class",
            id="reference",
        ),
        pytest.param("e8-fermat", lambda d: d.update(K="35"), "K 35 does not match", id="K"),
        pytest.param(
            "e6-fermat",
            lambda d: d["basis"].__setitem__(7, [3, 0, 0]),
            "basis should be the staircase of W",
            id="basis",
        ),
        pytest.param(
            "e6-chain23",
            lambda d: d.update(topMonomial=[0, 0, 3]),
            r"topMonomial should be \(0, 2, 1\)",
            id="topMonomial",
        ),
    ],
)
def test_the_oracle_flags_a_changed_frozen_value(name, edit, message):
    with pytest.raises(SchemaError, match=f"^entry {name}.*{message}"):
        check_frozen_values(edited(name, edit))


# The pairs whose difference at infinity is not that of their entry's first
# marginal, against a frozen limits.infinity of gw (CHANGES.md, FOUND on
# limits.infinity): the catalog's entry-level limit holds for the first
# marginal only
INFINITY_NOT_GW = [("e7-chain322", (1, 3, 0)), ("e7-chain322", (4, 0, 0)), ("e8-chain32", (4, 0, 1))]


def test_every_pair_is_classified_at_each_limit(catalog):
    not_gw = []
    for entry in catalog:
        first = exponent_differences(entry, entry.marginals[0].m)
        for mar in entry.marginals:
            diffs = exponent_differences(entry, mar.m)
            # j(0) and the cusp at the puncture do not depend on the marginal
            assert (diffs["zero"], diffs["puncture"]) == (first["zero"], 0), (entry.name, mar.m)
            assert diffs["infinity"] in {0, *FINITE_MONODROMY}, (entry.name, mar.m)
            if FROZEN[entry.name].get("limits", {}).get("infinity") == "gw" and diffs["infinity"]:
                not_gw.append((entry.name, mar.m))
    assert not_gw == INFINITY_NOT_GW


# Each key of a bundled entry, of its marginal and twisted rows and of its
# gepner and punctures blocks, with what checks it: the loader, a named
# oracle test, or nothing yet, with the ROADMAP item that will check it.
LOADER = "load_catalog"
ORACLE = "test_the_frozen_reference_data_matches_the_derivations"
KEY_CHECKS = {
    **dict.fromkeys(
        ["name", "E", "marginals.m", "twisted.r", "twisted.weights", "fjrw", "qexp"],
        LOADER,
    ),
    **dict.fromkeys(
        ["family", "milnor", "L", "K", "basis", "topMonomial"]
        + ["marginals.l", "marginals.lcm", "marginals.C", "marginals.weights"]
        + ["jZero", "limits", "N", "jNumerator", "jDenominator", "P", "PAtPuncture"]
        + ["punctures.radicand", "punctures.index", "punctures.count"]
        + ["gepner.reference", "gepner.phi", "gepner.referencePhi"],
        ORACLE,
    ),
    "gepner.psi": "unchecked: ROADMAP item 15",
    "gepner.cells": "unchecked: ROADMAP item 15",
    "infinityFjrw": "unchecked: ROADMAP item 11",
    "notes": "unchecked: free text",
}
NESTED = ("marginals", "twisted", "gepner", "punctures")


def key_paths(doc):
    """The key paths of the entries of ``doc``: ``E``, ``marginals.C``, ..."""
    paths = set()
    for d in doc["entries"]:
        for key, value in d.items():
            if key not in NESTED:
                paths.add(key)
                continue
            for row in value if isinstance(value, list) else [value]:
                paths.update(f"{key}.{k}" for k in row)
    return paths


def without_key(doc, path):
    """A copy of ``doc`` with the key ``path`` removed wherever it occurs."""
    doc = copy.deepcopy(doc)
    head, _, tail = path.partition(".")
    for d in doc["entries"]:
        if not tail:
            d.pop(head, None)
        elif head in d:
            for row in d[head] if isinstance(d[head], list) else [d[head]]:
                row.pop(tail, None)
    return doc


def test_every_catalog_key_is_read_or_checked(tmp_path, catalog):
    doc = json.loads(_default_catalog_text())
    assert key_paths(doc) == set(KEY_CHECKS)
    assert callable(globals()[ORACLE])
    for path, check in KEY_CHECKS.items():
        assert check in (LOADER, ORACLE) or check.startswith("unchecked: "), path
        # the loaded catalog depends on exactly the keys that the loader reads
        try:
            read = load_doc(tmp_path, without_key(doc, path)) != catalog
        except SchemaError:
            read = True
        assert read == (check == LOADER), path


def test_names_and_order(catalog):
    assert [e.name for e in catalog] == ALL_NAMES


def test_counts_by_family(catalog):
    fams = {}
    for e in catalog:
        fams.setdefault(FROZEN[e.name]["family"], []).append(e)
    assert len(fams["e6"]) == 5
    assert len(fams["e7"]) == 5
    assert len(fams["e8"]) == 3


def test_milnor_numbers(catalog):
    by_family = {"e6": 8, "e7": 9, "e8": 10}
    for e in catalog:
        mu = e.polynomial.milnor_number
        assert mu == by_family[FROZEN[e.name]["family"]] == FROZEN[e.name]["milnor"]


def test_weight_systems(catalog):
    poly = get_entry(catalog, "e8-chain32").polynomial
    assert poly.charges == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    assert poly.mirror_charges == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    poly = get_entry(catalog, "e7-chain34").polynomial
    assert poly.charges == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert poly.mirror_charges == (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))


def reference_atoms(rows):
    """Decompose an exponent matrix into (kind, variable cycle/chain)
    atoms, raising a DomainError on a matrix that is not of Fermat, chain
    and loop atoms.

    Row ``i`` must be ``X_i^{a_i}`` (Fermat) or ``X_i^{a_i} X_{s(i)}``
    with unit off-diagonal exponent.  The successor map ``s`` splits the
    variables into Fermat fixed points, chains and loops.
    """
    succ = []
    for i, row in enumerate(rows):
        if row[i] < 2:
            raise DomainError(f"diagonal exponent of row {i + 1} must be >= 2")
        off = [(j, e) for j, e in enumerate(row) if j != i and e != 0]
        if not off:
            succ.append(None)
        elif len(off) == 1 and off[0][1] == 1:
            succ.append(off[0][0])
        else:
            raise DomainError(f"row {i + 1} is not of Fermat/chain/loop shape")
    preds = {i: [j for j in range(3) if succ[j] == i] for i in range(3)}
    if any(len(p) > 1 for p in preds.values()):
        raise DomainError("a variable is fed by more than one chain link")
    atoms = []
    seen = set()
    # loops: follow the successor map until it revisits the path
    for start in range(3):
        if start in seen:
            continue
        path = [start]
        node = succ[start]
        while node is not None and node not in path:
            path.append(node)
            node = succ[node]
        if node is not None:
            cycle = path[path.index(node):]
            if start in cycle:
                atoms.append(("loop", tuple(cycle)))
                seen.update(cycle)
    # chains and Fermat atoms start at variables nothing feeds into
    for start in range(3):
        if start in seen or preds[start]:
            continue
        path = [start]
        node = succ[start]
        while node is not None:
            if node in seen or node in path:
                raise DomainError("a chain link feeds a loop variable")
            path.append(node)
            node = succ[node]
        atoms.append(("fermat" if len(path) == 1 else "chain", tuple(path)))
        seen.update(path)
    if seen != set(range(3)):
        raise DomainError("unrecognised chain/loop structure")
    return tuple(sorted(atoms, key=lambda a: a[1]))


def test_reference_atoms():
    assert reference_atoms([[3, 0, 0], [0, 3, 0], [0, 0, 3]]) == (
        ("fermat", (0,)),
        ("fermat", (1,)),
        ("fermat", (2,)),
    )
    assert reference_atoms([[2, 1, 0], [0, 2, 1], [0, 0, 3]]) == (("chain", (0, 1, 2)),)
    assert reference_atoms([[2, 1, 0], [1, 2, 0], [0, 0, 3]]) == (("loop", (0, 1)), ("fermat", (2,)))
    assert reference_atoms([[2, 1, 0], [0, 2, 1], [1, 0, 2]]) == (("loop", (0, 1, 2)),)


#: how the 3^9 matrices with entries 0..2 fall; a chain link feeding a loop
#: variable, or any other unrecognised structure, never occurs
VERDICTS = {
    None: 18,
    "exponent matrix must be invertible": 6891,
    "diagonal exponent of row 1 must be >= 2": 8304,
    "diagonal exponent of row 2 must be >= 2": 948,
    "diagonal exponent of row 3 must be >= 2": 104,
    "row 1 is not of Fermat/chain/loop shape": 2974,
    "row 2 is not of Fermat/chain/loop shape": 382,
    "row 3 is not of Fermat/chain/loop shape": 53,
    "a variable is fed by more than one chain link": 9,
}


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_the_shape_check_accepts_exactly_the_atom_decompositions():
    # every 3x3 matrix with entries 0..2: the constructor's verdict and
    # message are those of the invertibility test and then the atom
    # decomposition, which it replaced
    verdicts = {}
    for cells in product(range(3), repeat=9):
        rows = [cells[0:3], cells[3:6], cells[6:9]]
        try:
            if det3(rows) == 0:
                raise DomainError("exponent matrix must be invertible")
            reference_atoms(rows)
            want = None
        except DomainError as exc:
            want = str(exc)
        try:
            InvertiblePolynomial(rows)
            got = None
        except DomainError as exc:
            got = str(exc)
        assert got == want, rows
        verdicts[want] = verdicts.get(want, 0) + 1
    assert verdicts == VERDICTS


def test_invertible_polynomial_is_immutable():
    poly = InvertiblePolynomial([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    with pytest.raises(AttributeError):
        poly.exponents = ((2, 1, 0), (0, 2, 1), (0, 0, 3))
    assert poly.exponents == ((3, 0, 0), (0, 3, 0), (0, 0, 3))


def test_a_catalog_entry_is_immutable(catalog):
    entry = get_entry(catalog, "e6-fermat")
    with pytest.raises(AttributeError, match="^CatalogEntry is immutable$"):
        entry.name = "renamed"
    with pytest.raises(AttributeError, match="^CatalogEntry is immutable$"):
        del entry.fjrw
    assert entry.name == "e6-fermat" and entry.fjrw


def test_the_repr_of_a_polynomial_rebuilds_it(catalog):
    poly = get_entry(catalog, "e6-fermat").polynomial
    assert repr(poly) == "InvertiblePolynomial([[3, 0, 0], [0, 3, 0], [0, 0, 3]])"
    for entry in catalog:
        assert eval(repr(entry.polynomial), {"InvertiblePolynomial": InvertiblePolynomial}) == entry.polynomial


def test_a_catalog_entry_can_be_copied_and_pickled():
    # the polynomial is rebuilt from E, not restored slot by slot through
    # the raising __setattr__
    entry = load_catalog()[0]
    for twin in (copy.deepcopy(entry), pickle.loads(pickle.dumps(entry))):
        assert twin == entry and twin.polynomial is not entry.polynomial
        assert twin.polynomial.charges == entry.polynomial.charges
        assert twin.polynomial.group() == entry.polynomial.group()
        with pytest.raises(AttributeError, match="InvertiblePolynomial is immutable"):
            twin.polynomial.exponents = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
    poly = entry.polynomial
    assert copy.copy(poly) == poly == pickle.loads(pickle.dumps(poly))


def test_transpose_matches_matrix():
    poly = InvertiblePolynomial([[2, 1, 0], [0, 3, 0], [0, 0, 3]])
    assert poly.transpose().exponents == ((2, 0, 0), (1, 3, 0), (0, 0, 3))


def test_group_orders(catalog):
    for e in catalog:
        scale, _, group = e.polynomial.group()
        assert len(group) == abs(e.polynomial.determinant)
        # every element theta L must leave each monomial invariant
        for theta in group:
            for row in e.polynomial.exponents:
                assert sum(a * t for a, t in zip(row, theta)) % scale == 0


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


def test_weights_sum_rule():
    for d in FROZEN.values():
        for row in d["marginals"]:
            a, b, g = rats(row["weights"])
            assert a + b == g
            assert 0 < a <= b < 1


def test_modular_identity():
    e = FROZEN["e7-fermat"]
    # j(sigma) at sigma = 0 equals 1728 and the numerator is 16*P.
    assert UniPoly(rats(e["jNumerator"])).coeffs == tuple(16 * c for c in rats(e["P"]))
    assert parse_rat(e["jZero"]) == 1728
    e6 = FROZEN["e6-fermat"]
    assert UniPoly(rats(e6["jNumerator"])).eval(Fraction(0)) == 0
    assert parse_rat(e6["punctures"]["radicand"]) == Fraction(-27)
    assert e6["punctures"]["count"] == 3


def test_charge_helpers():
    # the row sums and the column sums of E^-1
    poly = InvertiblePolynomial([[6, 0, 0], [0, 3, 0], [0, 0, 2]])
    assert poly.charges == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    assert poly.mirror_charges == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    poly = InvertiblePolynomial([[3, 1, 0], [0, 2, 0], [0, 0, 3]])
    assert poly.charges == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    assert poly.mirror_charges == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_a_singular_exponent_matrix_is_rejected():
    with pytest.raises(DomainError, match="^exponent matrix must be invertible$"):
        InvertiblePolynomial([[2, 1, 0], [4, 2, 0], [0, 0, 3]])


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
    with pytest.raises(SchemaError, match="C should be"):
        check_frozen_values(doc)
    # the loader derives C from m and E, and reads no frozen C
    (entry,) = load_doc(tmp_path, doc)
    assert entry.marginals[0].C == Fraction(-1, 27)


@pytest.mark.parametrize("field", ["phi", "referencePhi"])
def test_schema_error_on_an_uncatalogued_gepner_marginal(field):
    doc = edited("e6-chain23", lambda d: d["gepner"].update({field: [3, 0, 0]}))
    with pytest.raises(SchemaError, match=r"entry e6-chain23 gepner: .* \(3, 0, 0\)"):
        check_frozen_values(doc)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda d: d["marginals"][0].update(m=[1, 0, 0]), id="m-not-of-degree-one"),
        pytest.param(lambda d: d["marginals"].__setitem__(0, [1, 1, 1]), id="marginal-row-list"),
        pytest.param(lambda d: d["E"][0].__setitem__(0, "3x"), id="non-integer-exponent"),
        # JSON true/false are bools, which Python counts as the ints 1/0
        pytest.param(lambda d: d["E"].__setitem__(0, [3, False, False]), id="E-bool"),
        pytest.param(lambda d: d["marginals"][0].update(m=[True, True, True]), id="m-bool"),
        pytest.param(
            lambda d: d.update(twisted=[{"r": [True, False, False], "weights": ["1/3", "1/3", "2/3"]}]),
            id="r-bool",
        ),
        pytest.param(lambda d: d.update(name=["e6-fermat"]), id="name-list"),
        pytest.param(lambda d: d.update(name=6), id="name-int"),
        pytest.param(lambda d: d.update(fjrw=5), id="fjrw-int"),
        pytest.param(lambda d: d.update(qexp=["orbifold"]), id="qexp-list"),
    ],
)
def test_a_malformed_input_is_a_schema_error_that_names_the_entry(tmp_path, edit):
    doc = edited("e6-fermat", edit)
    name = doc["entries"][ALL_NAMES.index("e6-fermat")]["name"]
    with pytest.raises(SchemaError, match=f"^entry {re.escape(str(name))}[ :]"):
        load_doc(tmp_path, doc)


def fermat(doc):
    """The e6-fermat entry of a parsed catalog."""
    return doc["entries"][ALL_NAMES.index("e6-fermat")]


def twisted_weights(weights):
    return lambda doc: fermat(doc).update(twisted=[{"r": [0, 0, 0], "weights": weights}])


# One fault planted in the bundled catalog, and the loader's whole message
# ({path} is the file's path): the entry is named wherever the loader has
# read its name
@pytest.mark.parametrize(
    "plant, message",
    [
        pytest.param(
            lambda doc: doc["entries"].__setitem__(0, ["e6-fermat"]),
            "entry must be an object, got list",
            id="entry-list",
        ),
        pytest.param(
            lambda doc: fermat(doc).update(E="333"),
            "entry e6-fermat: expected a list of exponent rows, got '333'",
            id="E-string",
        ),
        pytest.param(
            lambda doc: fermat(doc).update(E=[[3, 0, 0], [0, 3, 0], [0, 3, 0]]),
            "entry e6-fermat: bad exponent matrix: exponent matrix must be invertible",
            id="E-singular",
        ),
        pytest.param(
            lambda doc: fermat(doc).update(E=[[3, 0, 0], [0, 3, 0]]),
            "entry e6-fermat: bad exponent matrix: exponent matrix must be 3x3",
            id="E-two-rows",
        ),
        pytest.param(
            lambda doc: fermat(doc).update(E=[[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
            "entry e6-fermat: weights do not sum to one",
            id="weights-sum",
        ),
        pytest.param(
            lambda doc: fermat(doc).update(marginals=[]),
            "entry e6-fermat: at least one marginal row is required",
            id="no-marginals",
        ),
        pytest.param(
            lambda doc: doc.update(items=doc.pop("entries")),
            "{path}: expected an object with an 'entries' list",
            id="no-entries-key",
        ),
        pytest.param(
            lambda doc: doc["entries"].append(dict(fermat(doc))),
            "{path}: duplicate entry name 'e6-fermat'",
            id="duplicate-name",
        ),
        pytest.param(
            twisted_weights(["1/3", 0.5, "2/3"]),
            "entry e6-fermat twisted [0, 0, 0]: expected rational string, got 0.5",
            id="weight-float",
        ),
        pytest.param(
            twisted_weights(["1/3", "x", "2/3"]),
            "entry e6-fermat twisted [0, 0, 0]: bad rational 'x': Invalid literal for Fraction: 'x'",
            id="weight-not-rational",
        ),
        pytest.param(
            twisted_weights(["1/3", "2/3"]),
            "entry e6-fermat twisted [0, 0, 0]: expected three hypergeometric weights, got ['1/3', '2/3']",
            id="two-weights",
        ),
    ],
)
def test_every_loader_fault_is_a_schema_error_with_its_message(tmp_path, plant, message):
    doc = json.loads(_default_catalog_text())
    plant(doc)
    with pytest.raises(SchemaError) as info:
        load_doc(tmp_path, doc)
    assert str(info.value) == message.format(path=tmp_path / "catalog.json")


def test_the_transpose_weights_sum_like_the_weights(catalog):
    # sum(q) adds the row sums of E^-1 and sum(q^T) its column sums, both
    # every cell once, so the loader's sum(q) = 1 check covers q^T too;
    # also off the simple elliptic locus, where the sum is not one
    polys = [e.polynomial for e in catalog] + [
        InvertiblePolynomial([[2, 1, 0], [0, 3, 0], [0, 0, 4]]),
        InvertiblePolynomial([[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
    ]
    for poly in polys:
        assert sum(poly.mirror_charges) == sum(poly.charges)
    assert sum(polys[-1].charges) == Fraction(3, 2)


# Exponent vectors that are not three nonnegative ints: floats that int()
# would truncate, bools (JSON true/false), a short and a long vector, and a
# negative exponent
MALFORMED_EXPONENTS = [
    pytest.param((1.7, 0, 0), id="float"),
    pytest.param((1.2, 1.9, 1), id="floats"),
    pytest.param([True, True, True], id="bools"),
    pytest.param((1, 0), id="short"),
    pytest.param((1, 0, 0, 0), id="long"),
    pytest.param((-1, 0, 0), id="negative"),
]


def twisted_row(v, tmp_path):
    doc = edited("e6-fermat", lambda d: d.update(twisted=[{"r": list(v), "weights": ["1/3", "1/3", "2/3"]}]))
    return load_doc(tmp_path, doc)


# every reader of an exponent vector, fed v in e6-fermat (m = (1, 1, 1)):
# (call, error class, the start of its message)
EXPONENT_READERS = {
    "InvertiblePolynomial": (
        lambda entry, v, _: InvertiblePolynomial([(3, 0, 0), (0, 3, 0), v]),
        DomainError,
        "exponent matrix row",
    ),
    "MarginalData.derive": (lambda entry, v, _: MarginalData.derive(entry.polynomial, v), DomainError, "marginal"),
    "CatalogEntry.marginal": (lambda entry, v, _: entry.marginal(v), DomainError, "e6-fermat marginal"),
    "JacobianAlgebra": (lambda entry, v, _: JacobianAlgebra(entry, v), DomainError, "e6-fermat marginal"),
    "decompose": (lambda entry, v, _: JacobianAlgebra(entry).decompose(v), DomainError, "e6-fermat, m="),
    "flat_first_order": (
        lambda entry, v, _: JacobianAlgebra(entry).flat_first_order(v),
        DomainError,
        "e6-fermat, m=",
    ),
    "build_gkz": (lambda entry, v, _: build_gkz(entry, (1, 1, 1), v), DomainError, "e6-fermat r"),
    "weight_report": (lambda entry, v, _: weight_report(entry, (1, 1, 1), v), DomainError, "e6-fermat r"),
    "load_catalog": (lambda entry, v, tmp_path: twisted_row(v, tmp_path), SchemaError, "entry e6-fermat twisted"),
    "MultiPoly": (lambda entry, v, _: MultiPoly([(v, 1)]), DomainError, "MultiPoly"),
    "MultiPoly.monomial": (lambda entry, v, _: MultiPoly.monomial(v), DomainError, "MultiPoly"),
}


@pytest.mark.parametrize("vector", MALFORMED_EXPONENTS)
@pytest.mark.parametrize("reader", EXPONENT_READERS)
def test_every_exponent_reader_rejects_a_malformed_vector(catalog, tmp_path, reader, vector):
    call, error, where = EXPONENT_READERS[reader]
    with pytest.raises(error, match=f"^{re.escape(where)}.*: expected three nonnegative integers, got "):
        call(get_entry(catalog, "e6-fermat"), vector, tmp_path)


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
            assert total == e.polynomial.milnor_number


def test_class_reference_data():
    refs = {}
    for e in FROZEN.values():
        block = e["gepner"]
        assert block is not None
        key = (e["milnor"], parse_rat(e["jZero"]))
        if block.get("reference") is None:
            assert key not in refs
            refs[key] = e["name"]
    assert refs == {
        (8, 0): "e6-fermat",
        (8, 1728): "e6-chain233",
        (9, 1728): "e7-fermat",
        (9, 0): "e7-chain34",
        (10, 0): "e8-fermat",
        (10, 1728): "e8-chain43",
    }
    for e in FROZEN.values():
        ref_name = e["gepner"].get("reference")
        if ref_name is not None:
            assert refs[(e["milnor"], parse_rat(e["jZero"]))] == ref_name


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
    """The Fraction form of ``InvertiblePolynomial.group``: a breadth-first
    search over the columns of E^-1 mod 1, adding Fraction phases mod 1."""
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


def test_the_group_matches_the_fraction_search(catalog):
    assert len(catalog) == 13
    for e in catalog:
        for poly in (e.polynomial, e.polynomial.transpose()):
            scale, generators, group = poly.group()
            phases = tuple(tuple(Fraction(t, scale) for t in theta) for theta in group)
            assert phases == fraction_group(poly.exponents), e.name
            assert all(type(t) is int and 0 <= t < scale for theta in group for t in theta)
            # L is the lcm of the denominators of E^-1, and the generators
            # are its columns mod 1
            inv = inverse(poly.exponents)
            assert scaled_ints([c for row in inv for c in row])[1] == scale
            columns = [tuple(Fraction(inv[i][j]) % 1 * scale for i in range(3)) for j in range(3)]
            assert list(generators) == columns


@given(invertible_matrices())
def test_group_elements_fix_monomials(E):
    poly = InvertiblePolynomial(E)
    scale, _, group = poly.group()
    assert len(group) == abs(poly.determinant)
    for theta in group:
        for row in poly.exponents:
            assert sum(a * t for a, t in zip(row, theta)) % scale == 0


@given(invertible_matrices(), st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_solve_transposed_solves_the_transposed_system(E, v):
    poly = InvertiblePolynomial(E)
    x = poly.solve_transposed(v)
    for j in range(3):
        assert sum(poly.exponents[i][j] * x[i] for i in range(3)) == v[j]


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
        MarginalData.derive(poly, (1, 0, 0))


def test_entry_is_hashable_identity(catalog):
    e = get_entry(catalog, "e6-fermat")
    assert isinstance(e, CatalogEntry)
    assert e.polynomial == InvertiblePolynomial([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    assert hash(e.polynomial) == hash(InvertiblePolynomial([[3, 0, 0], [0, 3, 0], [0, 0, 3]]))
