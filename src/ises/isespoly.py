"""Invertible simple elliptic polynomials in three variables, plus the bundled catalog.

An *invertible* polynomial has exactly as many monomials as variables; here
always three monomials

    W = X1^{E11} X2^{E12} X3^{E13} + X1^{E21} X2^{E22} X3^{E23} + X1^{E31} X2^{E32} X3^{E33}

whose exponent matrix ``E`` is invertible over the rationals.  The weight
(charge) vector ``q`` solves ``E q = (1,1,1)`` so that every monomial has
weighted degree one.  *Simple elliptic* means ``q1 + q2 + q3 = 1``.

An :class:`InvertiblePolynomial` checks the shape of ``E`` once, when it
is built: each row ``i`` is ``X_i^{a_i}`` with ``a_i >= 2`` times at most
one other variable to the first power, and no variable is fed by two rows.
A map in which each variable feeds at most one row and is fed by at most one
splits the polynomial into Fermat (``x^a``), chain
(``x1^{a1} x2 + x2^{a2} x3 + ... + xk^{ak}``) and loop
(``x1^{a1} x2 + ... + xk^{ak} x1``) atoms, so no decomposition is kept.  The
Berglund--Huebsch transpose is obtained by transposing ``E``.

``E`` is inverted once, exactly, at the same time, and everything it
determines is read off ``E^-1``: ``q`` (the row sums), the Milnor number
``mu = prod_i (1 - q_i) / q_i`` (8, 9 or 10 on the E6, E7 and E8
families), the weights of the transpose (the column sums), the solves of
the marginal relation below and of the hypergeometric exponents of
:mod:`ises.pfsolve` (``E^T x = v``), and the diagonal symmetry group,
generated by the columns of ``E^-1`` mod 1 and held on the int grid of the
lcm of their denominators.  ``q`` and ``mu`` are stored, and every module
reads them there.

A marginal deformation direction is a degree-one monomial ``X^m`` that is
nonzero in the Milnor ring Jac(W).  Degree one is the socle degree of
Jac(W), the line of the Hessian determinant Hess(W), so ``X^m`` is a
marginal exactly when it has the character of Hess(W) under the diagonal
symmetries: ``E^-T m + 2 q^T`` is integral, ``q^T`` the weights of the
transpose (:meth:`MarginalData.derive` gives the argument).  Its
combinatorics are captured by the integer relation ``E^T lvec = l * m``:
``X^{m*l} = prod_i M_i^{lvec_i}`` where ``M_i`` are the monomials of ``W``.
The normalising constant ``C = prod_i (-lvec_i/l)^{lvec_i}`` rescales the
natural deformation coordinate to ``x = C sigma^l`` (radius of convergence
one for the associated period series).

:func:`load_catalog` reads a JSON catalog of the thirteen exponent matrices
and, of each entry, only what the program consumes: the name, ``E``, the
marginal ``m`` list, the twisted rows, and the fjrw and qexp blocks.  It
checks those inputs and raises a :class:`SchemaError` that names the entry
on a malformed one.  Every exponent vector, of the catalog or of a call,
is read by ``_exponent_vector`` of :mod:`ises.numcore`, the reader of
:class:`~ises.numcore.MultiPoly` keys too.  The fjrw and qexp blocks are
kept as parsed JSON objects; :class:`ises.fjrw.FjrwTheory` reads and
checks the fjrw block.
Every other frozen value (family, Milnor number, ``K``, the marginal rows'
``l``, ``C`` and weights, the display basis and top monomial, the
j-invariant and puncture data, the Gepner block) is reference data that
the loader ignores and the test suite checks.

The two records are not dataclasses, so loading the catalog does not import
:mod:`dataclasses` (and :mod:`inspect` behind it): :class:`MarginalData` is
a ``typing.NamedTuple``, whose variants come from ``_replace``, and
:class:`CatalogEntry` a frozen ``types.SimpleNamespace``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from importlib import resources
from math import prod
from types import SimpleNamespace
from typing import Any, Mapping, NamedTuple, Sequence

from .numcore import (
    DomainError,
    MultiPoly,
    _exponent_vector,
    inverse,
    monomials_of_weighted_degree,
    parse_rat,
    scaled_ints,
)

__all__ = [
    "NVARS",
    "SchemaError",
    "UnknownMarginal",
    "UnknownEntry",
    "InvertiblePolynomial",
    "MarginalData",
    "CatalogEntry",
    "load_catalog",
    "get_entry",
]

NVARS = 3


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
# 3x3 determinant (the inverse comes from numcore)
# ---------------------------------------------------------------------------


def _det3(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# invertible polynomials
# ---------------------------------------------------------------------------


class InvertiblePolynomial:
    """A three-variable invertible quasihomogeneous polynomial.

    Stored as the integer exponent matrix ``E`` whose rows are the monomials,
    with its exact inverse, computed once.  The constructor checks the shape
    of ``E`` once: each row ``i`` is ``X_i^{a_i}`` with ``a_i >= 2`` times at
    most one other variable to the first power, and no variable is fed by
    two rows.  Everything ``E`` determines is read off ``E^-1``: the weights
    ``charges`` (``E q = 1``, the row sums), the Milnor number
    ``milnor_number = prod (1 - q_i) / q_i``, the weights ``mirror_charges``
    of the transpose (``E^T q^T = 1``, the column sums), the solves of
    :meth:`solve_transposed` and the symmetry group of :meth:`group`.  All
    coefficients are one; the classification of these singularities lets
    any nonzero coefficients be rescaled away.
    """

    __slots__ = ("exponents", "_inverse", "charges", "mirror_charges", "milnor_number")

    def __init__(self, exponents: Sequence[Sequence[int]]):
        rows = tuple(_exponent_vector(row, "exponent matrix row") for row in exponents)
        if len(rows) != NVARS:
            raise DomainError("exponent matrix must be 3x3")
        if _det3(rows) == 0:
            raise DomainError("exponent matrix must be invertible")
        # each variable feeds at most one row and is fed by at most one, so
        # the rows split into Fermat points, chains and loops
        fed = []
        for i, row in enumerate(rows):
            if row[i] < 2:
                raise DomainError(f"diagonal exponent of row {i + 1} must be >= 2")
            off = [j for j, e in enumerate(row) if j != i and e]
            if len(off) > 1 or any(row[j] != 1 for j in off):
                raise DomainError(f"row {i + 1} is not of Fermat/chain/loop shape")
            fed += off
        if len(set(fed)) != len(fed):
            raise DomainError("a variable is fed by more than one chain link")
        inv = tuple(map(tuple, inverse(rows)))
        charges = tuple(map(sum, inv))
        mu = prod((1 - q) / q for q in charges)
        if mu.denominator != 1:
            raise DomainError("weights do not give an integral Milnor number")
        object.__setattr__(self, "exponents", rows)
        object.__setattr__(self, "_inverse", inv)
        object.__setattr__(self, "charges", charges)
        object.__setattr__(self, "mirror_charges", tuple(map(sum, zip(*inv))))
        object.__setattr__(self, "milnor_number", int(mu))

    def __setattr__(self, *a):
        raise AttributeError("InvertiblePolynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from E: the default restore of the slots
        # would go through the raising __setattr__
        return InvertiblePolynomial, (self.exponents,)

    @property
    def determinant(self) -> int:
        return int(_det3(self.exponents))

    def transpose(self) -> "InvertiblePolynomial":
        return InvertiblePolynomial(
            [[self.exponents[j][i] for j in range(NVARS)] for i in range(NVARS)]
        )

    def solve_transposed(self, v: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
        """The ``x`` with ``E^T x = v``: ``x_i = sum_j (E^-1)_ji v_j``."""
        return tuple(sum(row[i] * vj for row, vj in zip(self._inverse, v)) for i in range(NVARS))

    def group(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """The diagonal symmetries of ``W`` on their int grid: ``(L,
        generators, elements)``.

        A phase vector ``theta`` in ``[0,1)^3`` is a symmetry iff ``E theta``
        is integral; there are exactly ``|det E|`` of them, generated by the
        columns of ``E^-1`` mod 1.  Each ``theta`` is held as the int vector
        ``theta L``, with ``L`` the lcm of the denominators of ``E^-1``.
        The search runs on int vectors mod ``L``; the elements are sorted.
        """
        cells, scale = scaled_ints([c for row in self._inverse for c in row])
        generators = tuple(
            tuple(cells[NVARS * i + j] % scale for i in range(NVARS)) for j in range(NVARS)
        )
        seen = {(0, 0, 0)}
        frontier = list(seen)
        while frontier:
            theta = frontier.pop()
            for gen in generators:
                new = tuple((a + b) % scale for a, b in zip(theta, gen))
                if new not in seen:
                    seen.add(new)
                    frontier.append(new)
        if len(seen) != abs(self.determinant):
            raise DomainError("group enumeration does not match |det E|")
        return scale, generators, tuple(sorted(seen))

    # -- polynomial views ----------------------------------------------------

    def polynomial(self) -> MultiPoly:
        p = MultiPoly.const(0)
        for row in self.exponents:
            p = p + MultiPoly.monomial(row, 1)
        return p

    def weighted_degree(self, exps: Sequence[int]) -> Fraction:
        q = self.charges
        return sum(Fraction(e) * q[i] for i, e in enumerate(exps))

    def degree_one_monomials(self) -> tuple[tuple[int, int, int], ...]:
        """All monomial exponent triples of weighted degree one, sorted,
        enumerated on the int grid of the weights."""
        w, scale = scaled_ints(self.charges)
        return tuple(monomials_of_weighted_degree(w, scale))

    # -- dunders -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InvertiblePolynomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"InvertiblePolynomial({list(map(list, self.exponents))})"


# ---------------------------------------------------------------------------
# marginal deformation rows
# ---------------------------------------------------------------------------


class MarginalData(NamedTuple):
    """A marginal deformation direction ``sigma * X^m`` of ``W``: ``X^m`` of
    weighted degree one and nonzero in Jac(W), as :meth:`derive` checks.

    The catalog supplies ``m``; every other part is derived from ``m`` and
    ``E``.  ``l_vector`` is the integer relation ``E^T l_vector = l * m`` (so
    ``X^{l m} = prod M_i^{l_i}``), ``l`` its positive denominator-clearing
    index, and ``C = prod (-l_i/l)^{l_i}`` the coordinate normalisation
    giving ``x = C sigma^l`` unit radius of convergence.  The rows' frozen
    ``l``, ``lcm``, ``C`` and hypergeometric ``weights`` are test oracles.
    A NamedTuple, so immutable; build a variant with ``_replace``.
    """

    m: tuple[int, int, int]
    l_vector: tuple[int, int, int]
    l: int
    C: Fraction

    @staticmethod
    def derive(poly: InvertiblePolynomial, m: Sequence[int]) -> "MarginalData":
        """The row of ``X^m``, or a :class:`DomainError` when ``X^m`` is not
        of weighted degree one or lies in the Jacobian ideal J(W).

        With ``x = E^-T m`` (the ``l_vector`` before scaling) and ``q^T``
        the ``mirror_charges``, ``X^m`` is nonzero in Jac(W) iff ``x + 2 q^T``
        is integral, that is iff ``X^m (X1 X2 X3)^2`` is invariant under the
        diagonal symmetries of ``W``: ``theta = E^-1 k`` (``k`` integral)
        multiplies ``X^a`` by ``exp(2 pi i k . E^-T a)``, and ``E^-T (2,2,2)
        = 2 q^T``.  For a simple elliptic ``W``, degree one is the socle
        degree of Jac(W), whose degree-one part is the line of Hess(W).

        * Necessity is equivariance.  The group preserves J(W), so the
          quotient map onto Jac(W) commutes with it.  In degree one that
          quotient is the line of Hess(W), which has the character of
          ``X^(-2,-2,-2)``, so a degree-one ``X^m`` of any other character
          maps to zero: it lies in J(W).
        * Sufficiency is checked, on all 116 degree-one monomials of the 13
          polynomials, which up to permutation are all the invertible simple
          elliptic polynomials in three variables: the test agrees with the
          normal form over a Groebner basis of J(W) on every one of them,
          and accepts 29.
        """
        m = _exponent_vector(m, "marginal")
        if poly.weighted_degree(m) != 1:
            raise DomainError(f"monomial {m} is not of weighted degree one")
        x = poly.solve_transposed(m)
        if any((xi + 2 * qi).denominator != 1 for xi, qi in zip(x, poly.mirror_charges)):
            raise DomainError(f"monomial {m} lies in the Jacobian ideal of W")
        lvec, ell = scaled_ints(x)
        c = Fraction(1)
        for li in lvec:
            if li:
                c *= Fraction(-li, ell) ** li
        return MarginalData(m, lvec, ell, c)


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------


class CatalogEntry(SimpleNamespace):
    """One singularity of the catalog, as the program reads it.

    The catalog supplies ``E`` (``polynomial``), the marginal ``m`` list,
    the twisted ``(r, weights)`` rows, and the fjrw and qexp blocks, the
    last two as parsed JSON.  The rest of each marginal row is derived from
    ``E``; the weights, the Milnor number and the group are read off
    ``polynomial``.  Every other value of a catalog entry, the display basis
    and top monomial included, is a test oracle.

    Built by keyword, immutable and equal to an entry with equal fields.  It
    is not a tuple, so callers can tell an entry from an ``(entry, marginal)``
    pair by ``isinstance(item, tuple)``; a variant entry comes from
    ``CatalogEntry(**{**vars(entry), "fjrw": block})``.
    """

    name: str
    polynomial: InvertiblePolynomial
    marginals: tuple[MarginalData, ...]
    twisted: tuple[tuple[tuple[int, int, int], tuple[Fraction, Fraction, Fraction]], ...]
    fjrw: Mapping[str, Any] | None
    qexp: Mapping[str, Any] | None

    def marginal(self, m: Sequence[int]) -> MarginalData:
        key = _exponent_vector(m, f"{self.name} marginal")
        for row in self.marginals:
            if row.m == key:
                return row
        raise UnknownMarginal(f"{self.name} has no catalogued marginal {key}")

    def __setattr__(self, *a):
        raise AttributeError("CatalogEntry is immutable")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# JSON parsing helpers
# ---------------------------------------------------------------------------


def _ctx(where: str, msg: str) -> SchemaError:
    return SchemaError(f"{where}: {msg}")


def _need(d: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in d:
        raise _ctx(where, f"missing key {key!r}")
    return d[key]


def _parse_rat_field(v: Any, where: str) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise _ctx(where, f"expected rational string, got {v!r}")
    try:
        return parse_rat(str(v))
    except Exception as exc:  # noqa: BLE001 - rewrap for uniform error type
        raise _ctx(where, f"bad rational {v!r}: {exc}") from exc


def _parse_int_triple(v: Any, where: str) -> tuple[int, int, int]:
    """A catalog exponent vector, read by ``numcore._exponent_vector``, whose
    :class:`DomainError` is raised again as a :class:`SchemaError`."""
    try:
        return _exponent_vector(v, where)
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


def _parse_weights(v: Any, where: str) -> tuple[Fraction, Fraction, Fraction]:
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
    if not isinstance(name, str):
        raise _ctx(where, f"name must be a string, got {type(name).__name__}")
    E = _need(d, "E", where)
    if not isinstance(E, list):
        raise _ctx(where, f"expected a list of exponent rows, got {E!r}")
    rows = [_parse_int_triple(row, f"{where} E") for row in E]
    try:
        poly = InvertiblePolynomial(rows)
    except DomainError as exc:
        raise _ctx(where, f"bad exponent matrix: {exc}") from exc
    if sum(poly.charges) != 1:
        raise _ctx(where, "weights do not sum to one")

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

    blocks = {key: d.get(key) for key in ("fjrw", "qexp")}
    for key, block in blocks.items():
        if block is not None and not isinstance(block, Mapping):
            raise _ctx(where, f"the {key} block must be an object, got {block!r}")
    return CatalogEntry(
        name=name,
        polynomial=poly,
        marginals=tuple(marginals),
        twisted=tuple(twisted),
        **blocks,
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
