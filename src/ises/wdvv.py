"""Genus-zero correlator tables and WDVV-based reconstruction.

A :class:`CorrelatorTable` stores genus-zero correlators of a Frobenius
algebra (pairing + graded basis) keyed by insertion multisets, optionally
graded by an integer curve degree.  Values may be known rationals or
declared unknowns.  The table is closed-world: a key that was never set
and never declared unknown reads as zero, so builders must declare every
key that can be nonzero.

Basis labels may be any hashable objects (FJRW phase vectors, GW leg and
twist pairs).  A table interns them as the ints ``0..n-1`` of their basis
position when it is built and keys every value by sorted int tuples, so
the scans below hash and sort small ints only.  The public API speaks
labels in both directions: methods take label multisets and return label
keys, and a label key is the insertion tuple in basis order (paired with
the degree on graded tables).

:func:`wdvv_residual` evaluates the associativity constraint

    sum_k <a, b, e_k> eta^{kl} <e_l, c, d>  -  (b <-> c)

together with its derivative extensions: each extra insertion x is
distributed over the two factors by the Leibniz rule, which mixes n-point
correlators with (n+1)-point ones.  With one extra slot this is the
standard identity relating four-point and three-point functions; the
result is a :class:`LinearForm` in the unknown keys.

:func:`propagate` repeatedly scans residual instances that are linear in
exactly one unknown, solves them, and enforces consistency of the fully
known instances, raising :class:`InconsistentSystem` on any conflict.
Solved values are unique when the system is consistent, so the outcome is
independent of the instance-selection order.  The ``admissible(pair,
extra)`` filter of :func:`propagate` and :func:`check_residuals` receives
labels and must be a pure function of its arguments: each scan calls it
once per distinct (pairing, extra) and reuses the answer.

The module also ships the small Gromov-Witten seed data for the elliptic
orbifold projective lines P^1_{a,b,c}: Chen-Ruan pairing, the degree-zero
three-point products, the normalized degree-one three-point correlator,
and the divisor rule that converts known three-point values into
four-point values with a divisor insertion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Iterable, Mapping, Sequence

from .numcore import DomainError, NoSolution, Rat, rat, solve_linear

__all__ = [
    "CorrelatorTable",
    "InconsistentSystem",
    "LinearForm",
    "MissingPairing",
    "apply_divisor_rule",
    "check_residuals",
    "elliptic_orbifold_basis",
    "gw_seed_table",
    "propagate",
    "wdvv_residual",
]


class InconsistentSystem(DomainError):
    """Two WDVV instances (or two assignments) force different values."""


class MissingPairing(DomainError):
    """The supplied pairing matrix is singular or incomplete."""


class LinearForm:
    """An affine-linear combination  constant + sum coeff * unknown_key."""

    __slots__ = ("constant", "terms")

    def __init__(self, constant=0, terms: Mapping | None = None):
        self.constant = rat(constant)
        self.terms: dict = {}
        if terms:
            for key, coeff in terms.items():
                c = rat(coeff)
                if c:
                    self.terms[key] = c

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def scaled(self, factor) -> "LinearForm":
        f = rat(factor)
        if not f:
            return LinearForm(0)
        return LinearForm(
            self.constant * f, {k: c * f for k, c in self.terms.items()}
        )

    def __add__(self, other: "LinearForm") -> "LinearForm":
        out = LinearForm(self.constant + other.constant, self.terms)
        for key, coeff in other.terms.items():
            c = out.terms.get(key, Fraction(0)) + coeff
            if c:
                out.terms[key] = c
            else:
                out.terms.pop(key, None)
        return out

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + other.scaled(-1)

    def __eq__(self, other) -> bool:
        if isinstance(other, LinearForm):
            return self.constant == other.constant and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant == other
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms) or bool(self.constant)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [str(self.constant)] if self.constant or not self.terms else []
        parts += [f"{c}*<{', '.join(map(str, k))}>" for k, c in self.terms.items()]
        return " + ".join(parts) if parts else "0"


class CorrelatorTable:
    """Keyed store of genus-zero correlator values with an unknown-set.

    Keys are multisets of basis labels (n >= 3 insertions), canonicalized
    by sorting in basis order; graded tables additionally key by an
    integer degree.  Internally each label is its basis position, so a key
    is a sorted int tuple, or ``(int tuple, degree)`` on a graded table;
    every public method takes labels and returns label keys.  When every
    label carries a rational grading, setting a nonzero value on a key
    violating the genus-zero degree budget (sum of degrees = n - 2) is
    rejected, and such keys read as zero.
    """

    def __init__(
        self,
        labels: Sequence,
        pairing: Mapping,
        degrees: Mapping | None = None,
        graded: bool = False,
    ):
        self.labels = tuple(labels)
        self._index = {label: i for i, label in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.graded = bool(graded)
        self._degree = None
        if degrees is not None:
            self._degree = tuple(rat(degrees[label]) for label in self.labels)
        self._pairing = self._symmetrized(pairing)
        self._eta = self._invert_pairing()
        self._values: dict = {}
        self._unknown: set = set()
        self._frozen = False

    # -- construction ------------------------------------------------

    def _symmetrized(self, pairing: Mapping) -> dict:
        out = {}
        for (a, b), value in pairing.items():
            if a not in self._index or b not in self._index:
                raise MissingPairing(f"pairing on unknown label {(a, b)!r}")
            i, j = self._index[a], self._index[b]
            v = rat(value)
            for key in ((i, j), (j, i)):
                if out.setdefault(key, v) != v:
                    raise MissingPairing(f"pairing not symmetric at {(a, b)!r}")
        return out

    def _invert_pairing(self) -> tuple:
        """Rows of the inverse pairing: row k lists (l, eta^{kl}) != 0."""
        n = len(self.labels)
        matrix = [
            [self._pairing.get((i, j), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        inverse_cols = []
        for j in range(n):
            rhs = [Fraction(int(i == j)) for i in range(n)]
            try:
                inverse_cols.append(solve_linear(matrix, rhs, n))
            except NoSolution as exc:
                raise MissingPairing("pairing matrix is singular") from exc
        return tuple(
            tuple((j, inverse_cols[j][i]) for j in range(n) if inverse_cols[j][i])
            for i in range(n)
        )

    # -- keys ----------------------------------------------------------

    def _key(self, insertions: Iterable, degree: int = 0):
        """Internal key of a label multiset."""
        ins = tuple(sorted(self._index[label] for label in insertions))
        if len(ins) < 3:
            raise ValueError("correlator keys need at least 3 insertions")
        if self.graded:
            return (ins, int(degree))
        if degree:
            raise ValueError("degree grading not enabled for this table")
        return ins

    def _key_of(self, label_key):
        """Internal key of a label key as returned by :attr:`unknown_keys`."""
        if self.graded:
            insertions, degree = label_key
            return self._key(insertions, degree)
        return self._key(label_key)

    def _names(self, ins: tuple[int, ...]) -> tuple:
        """The labels of interned insertions."""
        return tuple(self.labels[i] for i in ins)

    def _label_key(self, key):
        """Label key of an internal key."""
        if self.graded:
            ins, degree = key
            return (self._names(ins), degree)
        return self._names(key)

    def _insertions(self, key) -> tuple[int, ...]:
        return key[0] if self.graded else key

    def pairing(self, a, b) -> Rat:
        return self._pairing.get((self._index[a], self._index[b]), Fraction(0))

    def budget_ok(self, insertions) -> bool:
        """Genus-zero degree budget: sum of gradings equals n - 2."""
        return self._budget_ok(tuple(self._index[label] for label in insertions))

    def _budget_ok(self, ins: tuple[int, ...]) -> bool:
        if self._degree is None:
            return True
        degree = self._degree
        return sum(degree[i] for i in ins) == len(ins) - 2

    # -- values ----------------------------------------------------------

    def set(self, insertions, value, degree: int = 0) -> None:
        self._set_key(self._key(insertions, degree), value)

    def _set_key(self, key, value) -> None:
        if self._frozen:
            raise ValueError("table is frozen")
        v = rat(value)
        if not self._budget_ok(self._insertions(key)):
            if v:
                raise DomainError(
                    "nonzero value on degree-budget-violating key "
                    f"{self._label_key(key)!r}"
                )
            return
        old = self._values.get(key)
        if old is not None and old != v:
            raise InconsistentSystem(f"{self._label_key(key)!r}: {old} versus {v}")
        self._values[key] = v
        self._unknown.discard(key)

    def declare_unknown(self, insertions, degree: int = 0) -> None:
        if self._frozen:
            raise ValueError("table is frozen")
        key = self._key(insertions, degree)
        if not self._budget_ok(self._insertions(key)):
            return
        if key not in self._values:
            self._unknown.add(key)

    def value(self, insertions, degree: int = 0):
        """Known value, or None when the key is a declared unknown."""
        key = self._key(insertions, degree)
        if key in self._unknown:
            return None
        return self._values.get(key, Fraction(0))

    def lookup(self, insertions, degree: int = 0) -> LinearForm:
        key = self._key(insertions, degree)
        if key in self._unknown:
            return LinearForm(0, {self._label_key(key): 1})
        return LinearForm(self._values.get(key, Fraction(0)))

    @property
    def unknown_keys(self) -> tuple:
        return tuple(sorted(map(self._label_key, self._unknown), key=repr))

    def known_items(self):
        return tuple(
            sorted(
                ((self._label_key(k), v) for k, v in self._values.items()),
                key=repr,
            )
        )

    def freeze(self) -> "CorrelatorTable":
        self._frozen = True
        return self

    def copy(self) -> "CorrelatorTable":
        dup = CorrelatorTable.__new__(CorrelatorTable)
        dup.labels = self.labels
        dup._index = self._index
        dup.graded = self.graded
        dup._degree = self._degree
        dup._pairing = self._pairing
        dup._eta = self._eta
        dup._values = dict(self._values)
        dup._unknown = set(self._unknown)
        dup._frozen = False
        return dup


def _leibniz_splits(extra: tuple[int, ...]):
    """Every way to send each extra slot to the left or the right factor."""
    return [
        (
            tuple(x for i, x in enumerate(extra) if mask >> i & 1),
            tuple(x for i, x in enumerate(extra) if not mask >> i & 1),
        )
        for mask in range(1 << len(extra))
    ]


def _pair_sum(table: CorrelatorTable, left_pair, right_pair, extra, degree):
    """sum_{k,l} <left, k (+E)> eta^{kl} <l, right (+extra-E)>  as a form.

    Works on internal keys: the pairs and extras are int tuples.  Extra
    insertions are distributed over the two factors by the Leibniz rule
    (per slot, so repeated labels acquire the right multiplicities).
    Degree splits d1 + d2 = degree are summed for graded tables.
    Returns None when some contribution is quadratic in the unknowns.
    """
    graded = table.graded
    values, unknown = table._values, table._unknown
    splits = [(d1, degree - d1) for d1 in range(degree + 1)] if graded else [(0, 0)]
    leibniz = _leibniz_splits(extra)
    constant = Fraction(0)
    terms: dict = {}
    for k, duals in enumerate(table._eta):
        if not duals:
            continue
        for left_extra, right_extra in leibniz:
            left_ins = tuple(sorted(left_pair + (k,) + left_extra))
            right_tail = right_pair + right_extra
            for d1, d2 in splits:
                left_key = (left_ins, d1) if graded else left_ins
                left_unknown = left_key in unknown
                left = None if left_unknown else values.get(left_key)
                if not (left_unknown or left):
                    continue
                acc = Fraction(0)
                acc_terms: dict = {}
                for l, eta in duals:
                    right_ins = tuple(sorted((l,) + right_tail))
                    right_key = (right_ins, d2) if graded else right_ins
                    if right_key in unknown:
                        acc_terms[right_key] = acc_terms.get(right_key, 0) + eta
                    else:
                        right = values.get(right_key)
                        if right:
                            acc += eta * right
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
    return LinearForm(constant, terms)


def _residual(table: CorrelatorTable, pair1, pair2, extra, degree):
    """The residual form of one instance; None when it is quadratic."""
    first = _pair_sum(table, pair1[0], pair1[1], extra, degree)
    second = _pair_sum(table, pair2[0], pair2[1], extra, degree)
    if first is None or second is None:
        return None
    return first - second


def wdvv_residual(
    table: CorrelatorTable, a, b, c, d, extra: Sequence = (), degree: int | None = None
) -> LinearForm:
    """Associativity residual for insertions (a, b | c, d) with extras.

    Computes  sum <a,b,k,(E)> eta^{kl} <l,c,d,(extra-E)>  minus the same
    expression with b and c exchanged.  Zero on every consistent table;
    a nonzero constant flags a contradiction, a nonconstant form is a
    linear relation among the declared unknowns, keyed by label keys.
    """
    if table.graded and degree is None:
        raise ValueError("graded tables require a total degree")
    deg = 0 if degree is None else int(degree)
    a, b, c, d = (table._index[x] for x in (a, b, c, d))
    ext = tuple(table._index[x] for x in extra)
    form = _residual(table, ((a, b), (c, d)), ((a, c), (b, d)), ext, deg)
    if form is None:
        raise DomainError("residual is quadratic in the unknowns")
    return LinearForm(
        form.constant,
        {table._label_key(key): coeff for key, coeff in form.terms.items()},
    )


def _budget_filter(table: CorrelatorTable):
    """Predicate selecting instances whose terms can pass the degree budget.

    In every product <L> eta^{kl} <R> the dual insertions contribute
    deg k + deg l = chat (the common degree of pairing-dual label pairs),
    so both factors satisfy their budgets only when the quad and extras
    sum to (2 + n_extra) + 2 - 4 - chat + n_extra * 0 ... concretely:
    sum(quad) + sum(extra) == 2 + n_extra - chat.  Disabled when gradings
    are absent or the pairing is not degree-homogeneous.  Takes int
    tuples, and compares degrees scaled by their common denominator.
    """
    degree = table._degree
    if degree is None:
        return None
    sums = {degree[i] + degree[j] for (i, j), v in table._pairing.items() if v}
    if len(sums) != 1:
        return None
    chat = sums.pop()
    scale = lcm(chat.denominator, *(x.denominator for x in degree))
    weight = tuple(int(x * scale) for x in degree)
    offset = int((2 - chat) * scale)

    def ok(quad, extra) -> bool:
        total = sum(weight[i] for i in quad) + sum(weight[i] for i in extra)
        return total == offset + len(extra) * scale

    return ok


def _instances(table: CorrelatorTable, extra_slots: int, degrees, admissible):
    """Residual instances (pair1, pair2, extra, degree) over int labels.

    ``admissible(pair, extra)`` is called with labels, once per distinct
    (pairing, extra) of this scan; instances with an inadmissible pairing
    are left out.
    """
    degree_list = list(degrees) if table.graded else [0]
    budget = _budget_filter(table)
    memo: dict = {}

    def allowed(pair, extra) -> bool:
        if admissible is None:
            return True
        ok = memo.get((pair, extra))
        if ok is None:
            ok = memo[pair, extra] = bool(
                admissible(tuple(map(table._names, pair)), table._names(extra))
            )
        return ok

    basis = range(len(table.labels))
    for quad in combinations_with_replacement(basis, 4):
        a, b, c, d = quad
        pair1 = ((a, b), (c, d))
        for n_extra in range(extra_slots + 1):
            for extra in combinations_with_replacement(basis, n_extra):
                if budget is not None and not budget(quad, extra):
                    continue
                if not allowed(pair1, extra):
                    continue
                others = [
                    p
                    for p in (((a, c), (b, d)), ((a, d), (b, c)))
                    if allowed(p, extra)
                ]
                for degree in degree_list:
                    for pair2 in others:
                        yield pair1, pair2, extra, degree


def _describe(table: CorrelatorTable, pair1, pair2, extra, degree) -> str:
    """An instance in labels, for error messages."""
    first, second = (tuple(map(table._names, pair)) for pair in (pair1, pair2))
    shown = degree if table.graded else None
    return f"{first}/{second} extra={table._names(extra)} degree={shown}"


def propagate(
    table: CorrelatorTable,
    targets: Sequence | None = None,
    *,
    extra_slots: int = 1,
    degrees: Sequence[int] = (0,),
    shuffle_seed: int | None = None,
    admissible=None,
) -> CorrelatorTable:
    """Close a table under WDVV: solve instances linear in one unknown.

    Scans all residual instances built from the basis labels with up to
    ``extra_slots`` extra insertions, solves every instance that is linear
    in exactly one unknown, and repeats to a fixed point.  Fully known
    instances must vanish (InconsistentSystem otherwise).  ``targets``,
    when given, lists label keys (as in :attr:`CorrelatorTable.unknown_keys`)
    that must end up resolved; unresolved targets raise NoSolution.
    ``shuffle_seed`` randomizes the scan order, which must not change the
    outcome.

    ``admissible(pair, extra)`` filters instances: when the table's labels
    span only part of a larger state space, only pairings whose forced
    intermediate states stay inside the label set yield complete residuals,
    and the caller must reject the rest.  It receives labels and must be a
    pure function of ``(pair, extra)``, since its answers are reused.
    """
    work = table.copy()
    instance_list = None
    progress = True
    while progress and work._unknown:
        progress = False
        if instance_list is None:
            instance_list = list(_instances(work, extra_slots, degrees, admissible))
            if shuffle_seed is not None:
                random.Random(shuffle_seed).shuffle(instance_list)
        for pair1, pair2, extra, degree in instance_list:
            form = _residual(work, pair1, pair2, extra, degree)
            if form is None:
                continue
            if not form.terms:
                if form.constant:
                    raise InconsistentSystem(
                        f"known instance {_describe(work, pair1, pair2, extra, degree)}"
                        f" has residual {form.constant}"
                    )
                continue
            if len(form.terms) != 1:
                continue
            (key, coeff), = form.terms.items()
            work._set_key(key, -form.constant / coeff)
            progress = True
    if targets is not None:
        missing = [k for k in targets if work._key_of(k) in work._unknown]
        if missing:
            raise NoSolution(f"unresolved correlators: {missing!r}")
    return work


def check_residuals(
    table: CorrelatorTable,
    *,
    extra_slots: int = 1,
    degrees: Sequence[int] = (0,),
    admissible=None,
) -> int:
    """Evaluate every fully known residual instance; return the count.

    Raises InconsistentSystem on the first nonzero residual.  Instances
    involving unknowns are skipped.  ``admissible`` filters pairings as in
    :func:`propagate`.
    """
    checked = 0
    for pair1, pair2, extra, degree in _instances(
        table, extra_slots, degrees, admissible
    ):
        form = _residual(table, pair1, pair2, extra, degree)
        if form is None or form.terms:
            continue
        if form.constant:
            raise InconsistentSystem(
                f"instance {_describe(table, pair1, pair2, extra, degree)} "
                f"has residual {form.constant}"
            )
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# Elliptic orbifold projective lines P^1_{a1,a2,a3}


def elliptic_orbifold_basis(orders: Sequence[int]):
    """Cohomology labels and gradings of P^1_{a1,a2,a3}.

    Labels: (0,1) the unit, (0,2) the point class (grading 1), and (i,j)
    for leg i in {1,2,3}, twist j in 1..a_i-1 with grading j/a_i.
    """
    a1, a2, a3 = orders
    labels = [(0, 1), (0, 2)]
    degrees = {(0, 1): Fraction(0), (0, 2): Fraction(1)}
    for i, a in enumerate((a1, a2, a3), start=1):
        for j in range(1, a):
            labels.append((i, j))
            degrees[(i, j)] = Fraction(j, a)
    return tuple(labels), degrees


def gw_seed_table(orders: Sequence[int]) -> CorrelatorTable:
    """Seed correlator table of P^1_{a1,a2,a3}.

    Contains the orbifold Poincare pairing, all degree-zero three-point
    values (1/a on a single leg when the twists sum to a; pairing values
    against the unit; zero otherwise), and the normalized degree-one
    correlator <D_{1,1}, D_{2,1}, D_{3,1}>_1 = 1.
    """
    labels, degrees = elliptic_orbifold_basis(orders)
    pairing = {((0, 1), (0, 2)): Fraction(1)}
    for i, a in enumerate(orders, start=1):
        for j in range(1, a):
            pairing[((i, j), (i, a - j))] = Fraction(1, a)
    table = CorrelatorTable(labels, pairing, degrees=degrees, graded=True)
    for trip in combinations_with_replacement(labels, 3):
        if not table.budget_ok(trip):
            continue
        value = Fraction(0)
        i1, j1 = trip[0]
        if all(leg == i1 for leg, _ in trip) and i1 != 0:
            if sum(j for _, j in trip) == orders[i1 - 1]:
                value = Fraction(1, orders[i1 - 1])
        if (0, 1) in trip:
            rest = list(trip)
            rest.remove((0, 1))
            value = table.pairing(rest[0], rest[1])
        table.set(trip, value, degree=0)
    table.set([(1, 1), (2, 1), (3, 1)], 1, degree=1)
    return table


def apply_divisor_rule(table: CorrelatorTable, divisor=(0, 2)) -> CorrelatorTable:
    """Extend a graded table by  <divisor, A, B, C>_d = d * <A, B, C>_d .

    The divisor insertion integrates to the curve degree against each
    stable map, so every known three-point value at degree d yields the
    four-point value with one extra divisor insertion.
    """
    if not table.graded:
        raise ValueError("divisor rule applies to degree-graded tables")
    out = table.copy()
    for key, value in table.known_items():
        insertions, degree = key
        if len(insertions) != 3:
            continue
        out.set(insertions + (divisor,), degree * value, degree=degree)
    return out
