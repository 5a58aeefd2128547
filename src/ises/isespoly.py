"""Invertible simple elliptic polynomials in three variables, plus the bundled catalog.

An *invertible* polynomial has exactly as many monomials as variables; here
always three monomials

    W = X1^{E11} X2^{E12} X3^{E13} + X1^{E21} X2^{E22} X3^{E23} + X1^{E31} X2^{E32} X3^{E33}

whose exponent matrix ``E`` is invertible over the rationals.  The weight
(charge) vector ``q`` solves ``E q = (1,1,1)`` so that every monomial has
weighted degree one.  *Simple elliptic* means ``q1 + q2 + q3 = 1``.

Each such polynomial decomposes into Fermat (``x^a``), chain
(``x1^{a1} x2 + x2^{a2} x3 + ... + xk^{ak}``) and loop
(``x1^{a1} x2 + ... + xk^{ak} x1``) atoms; the Berglund--Huebsch transpose is
obtained by transposing ``E``.

A marginal deformation direction is a degree-one monomial ``X^m``.  Its
combinatorics are captured by the integer relation ``E^T lvec = l * m``:
``X^{m*l} = prod_i M_i^{lvec_i}`` where ``M_i`` are the monomials of ``W``.
The normalising constant ``C = prod_i (-lvec_i/l)^{lvec_i}`` rescales the
natural deformation coordinate to ``x = C sigma^l`` (radius of convergence
one for the associated period series).

:func:`load_catalog` reads a JSON catalog of the thirteen exponent matrices
and, of each entry, only what the program consumes: ``E``, the marginal
``m`` list, the twisted rows, the display basis, ``K``, and the fjrw and
qexp blocks.  It checks those inputs and raises a :class:`SchemaError` that
names the entry on a malformed one.  The fjrw and qexp blocks are kept as
parsed JSON; :class:`ises.fjrw.FjrwTheory` reads and checks the fjrw block.
Every other frozen value (family, Milnor number, the marginal rows' ``l``,
``C`` and weights, the j-invariant and puncture data, the Gepner block) is
reference data that the loader ignores and the test suite checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Any, Mapping, Sequence

from .numcore import (
    DomainError,
    MultiPoly,
    Rat,
    inverse,
    monomials_of_weighted_degree,
    parse_rat,
    scaled_ints,
    solve_linear,
)

__all__ = [
    "NVARS",
    "SchemaError",
    "UnknownMarginal",
    "UnknownEntry",
    "InvertiblePolynomial",
    "MarginalData",
    "CatalogEntry",
    "charge_vector",
    "mirror_weights",
    "enumerate_group",
    "group_generators",
    "load_catalog",
    "get_entry",
]

NVARS = 3

_ONES = (Fraction(1), Fraction(1), Fraction(1))


class SchemaError(ValueError):
    """A catalog file is malformed or internally inconsistent."""


class UnknownMarginal(DomainError, KeyError):
    """A degree-one monomial that is not a catalogued marginal of the entry.

    Also a KeyError, so handlers of a failed lookup keep catching it."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class UnknownEntry(DomainError, KeyError):
    """A name that no entry of the catalog carries.

    Also a KeyError, so handlers of a failed lookup keep catching it."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


# ---------------------------------------------------------------------------
# 3x3 determinant (solves and inverses call numcore directly)
# ---------------------------------------------------------------------------


def _det3(rows: Sequence[Sequence[Rat]]) -> Rat:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# invertible polynomials
# ---------------------------------------------------------------------------


def charge_vector(exponents: Sequence[Sequence[int]]) -> tuple[Rat, Rat, Rat]:
    """Weights ``q`` with ``E q = (1,1,1)``: every monomial has degree one."""
    return tuple(solve_linear(exponents, _ONES, NVARS))


def mirror_weights(exponents: Sequence[Sequence[int]]) -> tuple[Rat, Rat, Rat]:
    """Weights of the transposed polynomial: ``E^T qT = (1,1,1)``."""
    return charge_vector(list(zip(*exponents)))


class InvertiblePolynomial:
    """A three-variable invertible quasihomogeneous polynomial.

    Stored as the integer exponent matrix ``E`` whose rows are the monomials,
    with its weights ``charges`` (``E q = 1``) and ``mirror_charges``
    (``E^T q^T = 1``), solved once.  All coefficients are one; the
    classification of these singularities lets any nonzero coefficients be
    rescaled away.
    """

    __slots__ = ("exponents", "charges", "mirror_charges")

    def __init__(self, exponents: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(e) for e in row) for row in exponents)
        if len(rows) != NVARS or any(len(r) != NVARS for r in rows):
            raise DomainError("exponent matrix must be 3x3")
        if any(e < 0 for r in rows for e in r):
            raise DomainError("exponents must be nonnegative")
        if _det3(rows) == 0:
            raise DomainError("exponent matrix must be invertible")
        object.__setattr__(self, "exponents", rows)
        object.__setattr__(self, "charges", charge_vector(rows))
        object.__setattr__(self, "mirror_charges", mirror_weights(rows))
        self.atoms()  # validates the Fermat/chain/loop structure

    def __setattr__(self, *a):
        raise AttributeError("InvertiblePolynomial is immutable")

    # -- structure ---------------------------------------------------------

    def atoms(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Decompose into (kind, variable cycle/chain) atoms.

        Row ``i`` must be ``X_i^{a_i}`` (Fermat) or ``X_i^{a_i} X_{s(i)}``
        with unit off-diagonal exponent.  The successor map ``s`` splits the
        variables into Fermat fixed points, chains and loops.
        """
        succ: list[int | None] = []
        for i, row in enumerate(self.exponents):
            if row[i] < 2:
                raise DomainError(f"diagonal exponent of row {i + 1} must be >= 2")
            off = [(j, e) for j, e in enumerate(row) if j != i and e != 0]
            if not off:
                succ.append(None)
            elif len(off) == 1 and off[0][1] == 1:
                succ.append(off[0][0])
            else:
                raise DomainError(f"row {i + 1} is not of Fermat/chain/loop shape")
        preds = {i: [j for j in range(NVARS) if succ[j] == i] for i in range(NVARS)}
        if any(len(p) > 1 for p in preds.values()):
            raise DomainError("a variable is fed by more than one chain link")
        atoms: list[tuple[str, tuple[int, ...]]] = []
        seen: set[int] = set()
        # loops: follow the successor map until it revisits the path
        for start in range(NVARS):
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
        for start in range(NVARS):
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
        if seen != set(range(NVARS)):
            raise DomainError("unrecognised chain/loop structure")
        return tuple(sorted(atoms, key=lambda a: a[1]))

    # -- basic invariants ----------------------------------------------------

    @property
    def determinant(self) -> int:
        return int(_det3(self.exponents))

    @property
    def is_simple_elliptic(self) -> bool:
        return sum(self.charges) == 1

    @property
    def milnor_number(self) -> int:
        mu = Fraction(1)
        for q in self.charges:
            mu *= (1 - q) / q
        if mu.denominator != 1:
            raise DomainError("weights do not give an integral Milnor number")
        return int(mu)

    def transpose(self) -> "InvertiblePolynomial":
        return InvertiblePolynomial(
            [[self.exponents[j][i] for j in range(NVARS)] for i in range(NVARS)]
        )

    # -- polynomial views ----------------------------------------------------

    def polynomial(self) -> MultiPoly:
        p = MultiPoly.const(0)
        for row in self.exponents:
            p = p + MultiPoly.monomial(row, 1)
        return p

    def weighted_degree(self, exps: Sequence[int]) -> Rat:
        q = self.charges
        return sum(Fraction(e) * q[i] for i, e in enumerate(exps))

    def degree_one_monomials(self) -> tuple[tuple[int, int, int], ...]:
        """All monomial exponent triples of weighted degree one, sorted."""
        q = self.charges
        return tuple(monomials_of_weighted_degree(q, 1, [int(1 / qi) for qi in q]))

    # -- dunders -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InvertiblePolynomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"InvertiblePolynomial({list(map(list, self.exponents))})"

    def to_text(self) -> str:
        return self.polynomial().to_text()


def group_generators(exponents: Sequence[Sequence[int]]) -> tuple[tuple[Rat, ...], ...]:
    """The columns of ``E^-1`` mod 1: three phase vectors that generate the
    diagonal symmetries of ``W``."""
    inv = inverse(exponents)
    return tuple(tuple(Fraction(inv[i][j]) % 1 for i in range(NVARS)) for j in range(NVARS))


def enumerate_group(exponents: Sequence[Sequence[int]]) -> tuple[tuple[Rat, ...], ...]:
    """All diagonal symmetries of ``W`` as phase vectors in ``[0,1)^3``.

    ``theta`` is a symmetry iff ``E theta`` is integral; there are exactly
    ``|det E|`` of them.  The search runs over the generators scaled to ints
    by the lcm ``L`` of their denominators, on int vectors mod ``L``; the
    elements are returned as ``Fraction`` vectors, lexicographically sorted.
    """
    poly = InvertiblePolynomial(exponents)
    generators = group_generators(poly.exponents)
    scale = scaled_ints([t for gen in generators for t in gen])[1]
    steps = [scaled_ints(gen, scale)[0] for gen in generators]
    seen = {(0, 0, 0)}
    frontier = list(seen)
    while frontier:
        theta = frontier.pop()
        for step in steps:
            new = tuple((a + b) % scale for a, b in zip(theta, step))
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    if len(seen) != abs(poly.determinant):
        raise DomainError("group enumeration does not match |det E|")
    phase = [Fraction(k, scale) for k in range(scale)]
    return tuple(tuple(phase[k] for k in theta) for theta in sorted(seen))


# ---------------------------------------------------------------------------
# marginal deformation rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalData:
    """A degree-one deformation direction ``sigma * X^m`` of ``W``.

    The catalog supplies ``m``; every other part is derived from ``m`` and
    ``E``.  ``l_vector`` is the integer relation ``E^T l_vector = l * m`` (so
    ``X^{l m} = prod M_i^{l_i}``), ``l`` its positive denominator-clearing
    index, and ``C = prod (-l_i/l)^{l_i}`` the coordinate normalisation
    giving ``x = C sigma^l`` unit radius of convergence.  The rows' frozen
    ``l``, ``lcm``, ``C`` and hypergeometric ``weights`` are test oracles.
    """

    m: tuple[int, int, int]
    l_vector: tuple[int, int, int]
    l: int
    C: Rat

    @staticmethod
    def derive(poly: InvertiblePolynomial, m: Sequence[int]) -> "MarginalData":
        m = tuple(int(e) for e in m)
        if poly.weighted_degree(m) != 1:
            raise DomainError(f"monomial {m} is not of weighted degree one")
        lvec, ell = scaled_ints(solve_linear(list(zip(*poly.exponents)), m, NVARS))
        c = Fraction(1)
        for li in lvec:
            if li:
                c *= Fraction(-li, ell) ** li
        return MarginalData(m, lvec, ell, c)


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One singularity of the catalog, as the program reads it.

    The catalog supplies ``E`` (``polynomial``), the marginal ``m`` list,
    the twisted ``(r, weights)`` rows, the display ``basis`` and its
    ``top_monomial``, ``K``, and the fjrw and qexp blocks, the last two as
    parsed JSON.  ``milnor`` and the rest of each marginal row are derived
    from ``E``.  Every other value of a catalog entry is a test oracle.
    """

    name: str
    polynomial: InvertiblePolynomial
    milnor: int
    marginals: tuple[MarginalData, ...]
    twisted: tuple[tuple[tuple[int, int, int], tuple[Rat, Rat, Rat]], ...]
    basis: tuple[tuple[int, int, int], ...] | None
    top_monomial: tuple[int, int, int] | None
    K: Rat | None
    fjrw: Mapping[str, Any] | None
    qexp: Mapping[str, Any] | None

    @property
    def charges(self) -> tuple[Rat, Rat, Rat]:
        return self.polynomial.charges

    @property
    def mirror_charges(self) -> tuple[Rat, Rat, Rat]:
        return self.polynomial.mirror_charges

    def marginal(self, m: Sequence[int]) -> MarginalData:
        key = tuple(int(e) for e in m)
        for row in self.marginals:
            if row.m == key:
                return row
        raise UnknownMarginal(f"{self.name} has no catalogued marginal {key}")


# ---------------------------------------------------------------------------
# JSON parsing helpers
# ---------------------------------------------------------------------------


def _ctx(where: str, msg: str) -> SchemaError:
    return SchemaError(f"{where}: {msg}")


def _need(d: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in d:
        raise _ctx(where, f"missing key {key!r}")
    return d[key]


def _parse_rat_field(v: Any, where: str) -> Rat:
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise _ctx(where, f"expected rational string, got {v!r}")
    try:
        return parse_rat(str(v))
    except Exception as exc:  # noqa: BLE001 - rewrap for uniform error type
        raise _ctx(where, f"bad rational {v!r}: {exc}") from exc


def _parse_int_triple(v: Any, where: str) -> tuple[int, int, int]:
    if not isinstance(v, list) or len(v) != NVARS or not all(isinstance(e, int) for e in v):
        raise _ctx(where, f"expected a list of three integers, got {v!r}")
    return (v[0], v[1], v[2])


def _parse_weights(v: Any, where: str) -> tuple[Rat, Rat, Rat]:
    if not isinstance(v, list) or len(v) != 3:
        raise _ctx(where, f"expected three hypergeometric weights, got {v!r}")
    a, b, g = (_parse_rat_field(x, where) for x in v)
    return (a, b, g)


def _rows(d: Mapping[str, Any], key: str, where: str) -> list[Mapping[str, Any]]:
    rows = d.get(key, [])
    if not isinstance(rows, list) or not all(isinstance(r, Mapping) for r in rows):
        raise _ctx(where, f"{key} must be a list of objects, got {rows!r}")
    return rows


# ---------------------------------------------------------------------------
# entry parsing
# ---------------------------------------------------------------------------


def _parse_entry(d: Mapping[str, Any]) -> CatalogEntry:
    if not isinstance(d, Mapping):
        raise SchemaError(f"entry must be an object, got {type(d).__name__}")
    name = _need(d, "name", "entry")
    where = f"entry {name}"
    E = _need(d, "E", where)
    if not isinstance(E, list):
        raise _ctx(where, f"expected a list of exponent rows, got {E!r}")
    rows = [_parse_int_triple(row, f"{where} E") for row in E]
    try:
        poly = InvertiblePolynomial(rows)
        milnor = poly.milnor_number
    except DomainError as exc:
        raise _ctx(where, f"bad exponent matrix: {exc}") from exc
    if not poly.is_simple_elliptic:
        raise _ctx(where, "weights do not sum to one")
    if sum(poly.mirror_charges) != 1:
        raise _ctx(where, "transpose weights do not sum to one")

    marginals = []
    for row in _rows(d, "marginals", where):
        mwhere = f"{where} marginal {row.get('m')}"
        m = _parse_int_triple(_need(row, "m", mwhere), mwhere)
        try:
            marginals.append(MarginalData.derive(poly, m))
        except DomainError as exc:
            raise _ctx(mwhere, str(exc)) from exc
    if not marginals:
        raise _ctx(where, "at least one marginal row is required")

    twisted = []
    for row in _rows(d, "twisted", where):
        twhere = f"{where} twisted {row.get('r')}"
        r = _parse_int_triple(_need(row, "r", twhere), twhere)
        twisted.append((r, _parse_weights(_need(row, "weights", twhere), twhere)))

    basis = d.get("basis")
    if basis is not None:
        basis = tuple(_parse_int_triple(b, f"{where} basis") for b in basis)
        if len(basis) != milnor:
            raise _ctx(where, "basis length must equal the Milnor number")
        if len(set(basis)) != milnor:
            raise _ctx(where, "basis monomials must be distinct")
    top = d.get("topMonomial")
    if top is not None:
        top = _parse_int_triple(top, f"{where} topMonomial")
        if poly.weighted_degree(top) != 1:
            raise _ctx(where, "topMonomial must have weighted degree one")
        if basis is not None and top not in basis:
            raise _ctx(where, "topMonomial must lie in the basis")

    K = d.get("K")
    return CatalogEntry(
        name=name,
        polynomial=poly,
        milnor=milnor,
        marginals=tuple(marginals),
        twisted=tuple(twisted),
        basis=basis,
        top_monomial=top,
        K=None if K is None else _parse_rat_field(K, where),
        fjrw=d.get("fjrw"),
        qexp=d.get("qexp"),
    )


# ---------------------------------------------------------------------------
# catalog loading
# ---------------------------------------------------------------------------


def _default_catalog_text() -> str:
    return resources.files("ises.data").joinpath("catalog.json").read_text("utf-8")


def load_catalog(path: str | None = None) -> tuple[CatalogEntry, ...]:
    """Load a catalog and check the inputs that the program reads.

    Resolution order: explicit ``path`` argument, then the ``ISES_CATALOG``
    environment variable, then the bundled data file.
    """
    if path is None:
        path = os.environ.get("ISES_CATALOG") or None
    try:
        if path is None:
            text = _default_catalog_text()
            source = "<bundled>"
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            source = path
    except OSError as exc:
        raise SchemaError(f"cannot read catalog: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(doc, Mapping) or "entries" not in doc:
        raise SchemaError(f"{source}: expected an object with an 'entries' list")
    raw_entries = doc["entries"]
    if not isinstance(raw_entries, list) or not raw_entries:
        raise SchemaError(f"{source}: 'entries' must be a nonempty list")
    entries = []
    seen_names: set[str] = set()
    for raw in raw_entries:
        entry = _parse_entry(raw)
        if entry.name in seen_names:
            raise SchemaError(f"{source}: duplicate entry name {entry.name!r}")
        seen_names.add(entry.name)
        entries.append(entry)
    return tuple(entries)


def get_entry(catalog: Sequence[CatalogEntry], name: str) -> CatalogEntry:
    for entry in catalog:
        if entry.name == name:
            return entry
    raise UnknownEntry(f"no catalog entry named {name!r}")
