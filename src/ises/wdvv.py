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

One scan routine evaluates the associativity constraint

    sum_k <a, b, e_k> eta^{kl} <e_l, c, d>  -  (b <-> c)

together with its derivative extensions: each extra insertion x is
distributed over the two factors by the Leibniz rule, which mixes n-point
correlators with (n+1)-point ones.  With one extra slot this is the
standard identity relating four-point and three-point functions.  The
residual of an instance is affine-linear in the unknown keys, or quadratic
when some term multiplies two of them; a nonzero constant residual on a
fully known instance is a contradiction.

Each pair sum is a sum over the Leibniz splits of the extra slots of

    sum_{d1 + d2 = d} sum_{k,l} <head, k>_{d1} eta^{kl} <l, tail>_{d2}

with head = left pair + left extras and tail = right pair + right extras.
A scan (one :func:`check_residuals` or :func:`propagate` call, with all
of its passes) reads every pair sum from one sparse join of the keys that
are nonzero or unknown when it starts, the live keys.  Each live key is
cut at each of its distinct insertions k into a two-label half and the
extras left over.  The cuts at k are joined with the cuts at every dual l
of k (eta^{kl} != 0), bucketed by extra size and degree, so that only
cuts whose extras fit in the scan's extra slots together and whose
degrees sum to one of the scan's degrees meet.  The product of the cuts
(H1, E1) of <a> at k and (H2, E2) of <b> at l is the term <a> <b> of
S(H1 | H2) with extra E = E1 + E2 at degree d1 + d2.  Its coefficient is
eta^{kl} times the number of Leibniz slot assignments that send E1 left,
the product over labels x of binomial(x's count in E, x's count in E1),
so repeated labels acquire the right multiplicities.  The products of a
pair sum form its product list, kept as one flat tuple ``(key_a, key_b,
c, ...)`` under (left half, right half, extra, degree).

Every term of S(L|R) is a term of S(R|L) read backwards, eta being
symmetric, so S(L|R) = S(R|L) and only the lists with left half <= right
half are kept.  When the halves are equal, the join meets each product
twice, once as its mirror (b at l | a at k); it is listed once with its
coefficient doubled, or once as it is when it is its own mirror.  A pair
sum is then one dict read and one loop over its list, and a missing list
is the sum 0 with no term.  The lists are never rebuilt during a scan: no
key is added during a scan, :func:`propagate` only solves declared
unknowns and known values never change, so the live keys only shrink and
every list stays a superset of the products that can be nonzero.  Values
are read as they are used: a product of two unknowns makes a sum
quadratic, and a key solved to 0 adds nothing.

The instances of a scan come in relation groups (pairings, extra,
degree): the first pairing against each of the others.  The pairings of a
quad are those with distinct unordered halves, read off the quad's sorted
order (:func:`_groups`), and a pairing is admissible when both of its
halves are.  One pass of the
scan evaluates each pairing's pair sum once per group and forms each
residual as the first sum minus the other.  A group whose first sum is
quadratic is left whole without evaluating the others.  The pass counts
the fully known instances and raises :class:`InconsistentSystem` on one
whose residual is nonzero; that check lives in the pass alone.  A solving
pass also sets each key that one instance fixes alone, which makes the
first sum be evaluated again (it may read that key, or be over an older
D), and returns the groups of the instances still open.

:func:`propagate` runs solving passes until one solves nothing, each
after the first over the instances still open; :func:`check_residuals` is
one pass that solves nothing and collects no open group.  Solved values
are unique when the system is consistent, so the outcome is independent
of the instance-selection order.  The passes run on basis positions, and
so does the ``admissible(half, extra)`` filter, which a scan asks at most
once per (half, extra) and whose verdicts it keeps, as the rejected
halves of each extra, until it ends.  The extras are routed by the degree
budget: a table scales its gradings once by L, the lcm of their
denominators, to int weights, a scan maps each quad weight once to the
extra multisets that complete it, and each quad visits only those.

The scans run on ints.  A table holds its known values as int numerators
over one table denominator D, the lcm of their denominators, and its
inverse-pairing entries as int numerators over E, the lcm of theirs.  Every
pair-sum term is a correlator times an eta entry times a correlator, so a
residual comes out as an int constant over D^2 E against int coefficients
over D E, and a fully known instance holds when that int constant is 0.
Solving c x + C = 0 for the one unknown x gives x = -C / (D c), the only
``Fraction`` a solved key costs.  A value whose denominator does not divide
D rescales the table's numerators once, to the new lcm.

The module also ships the small Gromov-Witten seed data for the elliptic
orbifold projective lines P^1_{a,b,c}: Chen-Ruan pairing, the degree-zero
three-point products, the normalized degree-one three-point correlator,
and the divisor rule that converts known three-point values into
four-point values with a divisor insertion.
"""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .numcore import DomainError, NoSolution, inverse, rat, scaled_ints

__all__ = [
    "CorrelatorTable",
    "InconsistentSystem",
    "MissingKey",
    "MissingPairing",
    "UnknownLabel",
    "apply_divisor_rule",
    "check_residuals",
    "elliptic_orbifold_basis",
    "gw_seed_table",
    "propagate",
]


class InconsistentSystem(DomainError):
    """Two WDVV instances (or two assignments) force different values."""


class MissingKey(DomainError):
    """A scan reads keys of more insertions than the table declares."""


class MissingPairing(DomainError):
    """The supplied pairing matrix is singular or incomplete."""


class UnknownLabel(DomainError, KeyError):
    """A label that is not in the basis of a correlator table.

    Also a KeyError, so handlers of a failed lookup keep catching it."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class CorrelatorTable:
    """Keyed store of genus-zero correlator values with an unknown-set.

    Keys are multisets of basis labels (n >= 3 insertions), canonicalized
    by sorting in basis order; graded tables additionally key by an
    integer degree.  Internally each label is its basis position and every
    key is ``(sorted int tuple, degree)``, the degree 0 on a table built
    with ``graded=False``; every public method takes labels and returns
    label keys.  Values and the inverse pairing are held as ints over the
    denominators D and E of the module docstring, and the public methods
    return ``Fraction``s.

    Every label carries a rational grading (a label missing from
    ``degrees`` raises :class:`DomainError`).  Setting a nonzero value on a
    key violating the genus-zero degree budget (sum of degrees = n - 2) is
    rejected, and such keys read as zero.  The gradings of the two labels
    of every nonzero pairing entry must have one sum c for the whole table
    (c = 1 on the FJRW and GW tables), else the table raises
    :class:`MissingPairing`, as it does for a ``pairing`` that is not a
    mapping.  Misuse raises :class:`DomainError`: duplicate or unhashable
    labels, ``degrees`` that is not a mapping, a grading, pairing value or
    set value that is not an int or a ``Fraction`` (a bool or a float is
    refused, not read as a number), a key of fewer than three insertions, a
    degree on an ungraded table, or a write to a frozen one.
    """

    def __init__(
        self,
        labels: Sequence,
        pairing: Mapping,
        degrees: Mapping,
        graded: bool = False,
    ):
        self.labels = tuple(labels)
        try:
            self._index = {label: i for i, label in enumerate(self.labels)}
        except TypeError:
            raise DomainError(f"basis labels {self.labels!r} are not all hashable") from None
        if len(self._index) != len(self.labels):
            raise DomainError("duplicate basis labels")
        if not isinstance(pairing, Mapping):
            raise MissingPairing(f"pairing {pairing!r} is not a mapping")
        if not isinstance(degrees, Mapping):
            raise DomainError(f"degrees {degrees!r} is not a mapping")
        self.graded = bool(graded)
        try:
            gradings = [rat(degrees[label], "the grading of", label) for label in self.labels]
        except KeyError as exc:
            raise DomainError(f"basis label {exc.args[0]!r} has no grading in degrees") from None
        # gradings scaled to int weights by the lcm of their denominators
        self._weight, self._scale = scaled_ints(gradings)
        self._pairing = self._symmetrized(pairing)
        eta, self._eta_den = self._invert_pairing()
        sums = {self._weight[i] + self._weight[j] for (i, j), v in self._pairing.items() if v}
        if len(sums) != 1:
            shown = ", ".join(str(Fraction(c, self._scale)) for c in sorted(sums))
            raise MissingPairing(f"pairing is not degree-homogeneous: dual grading sums {shown}")
        (self._pair_weight,) = sums  # c L, the weight of every dual pair
        self._eta = eta
        self._values: dict = {}  # key -> int numerator over self._den
        self._den = 1
        self._unknown: set = set()
        self._frozen = False

    # -- construction ------------------------------------------------

    def _symmetrized(self, pairing: Mapping) -> dict:
        out = {}
        for (a, b), value in pairing.items():
            if a not in self._index or b not in self._index:
                raise MissingPairing(f"pairing on unknown label {(a, b)!r}")
            i, j = self._index[a], self._index[b]
            v = rat(value, "the pairing at", (a, b))
            for key in ((i, j), (j, i)):
                if out.setdefault(key, v) != v:
                    raise MissingPairing(f"pairing not symmetric at {(a, b)!r}")
        return out

    def _invert_pairing(self) -> tuple:
        """Rows of the inverse pairing on ints over E, and E: row k lists
        (l, E eta^{kl}) for each eta^{kl} != 0."""
        n = len(self.labels)
        matrix = [[self._pairing.get((i, j), 0) for j in range(n)] for i in range(n)]
        try:
            rows = inverse(matrix)
        except NoSolution as exc:
            raise MissingPairing("pairing matrix is singular") from exc
        scaled, den = scaled_ints([v for row in rows for v in row if v])
        cells = iter(scaled)
        return tuple(tuple((j, next(cells)) for j, v in enumerate(row) if v) for row in rows), den

    # -- keys ----------------------------------------------------------

    def _positions(self, labels: Iterable) -> tuple[int, ...]:
        """Basis positions of labels; UnknownLabel names one outside the
        basis, or ``labels`` when it is no iterable of hashable labels."""
        try:
            return tuple(self._index[label] for label in labels)
        except KeyError as exc:
            raise UnknownLabel(f"{exc.args[0]!r} is not a basis label of this table") from None
        except TypeError:
            raise UnknownLabel(f"{labels!r} is not an iterable of basis labels of this table") from None

    def _key(self, insertions: Iterable, degree: int = 0):
        """Internal key of a label multiset."""
        ins = tuple(sorted(self._positions(insertions)))
        if len(ins) < 3:
            raise DomainError("correlator keys need at least 3 insertions")
        self._check_degree(degree)
        return (ins, degree)

    def _check_degree(self, degree) -> None:
        """Raise DomainError unless ``degree`` is an int, 0 if ungraded."""
        if type(degree) is not int:
            raise DomainError(f"curve degree {degree!r} is not an int")
        if degree and not self.graded:
            raise DomainError("degree grading not enabled for this table")

    def _names(self, ins: tuple[int, ...]) -> tuple:
        """The labels of interned insertions."""
        return tuple(self.labels[i] for i in ins)

    def _label_key(self, key):
        """Label key of an internal key."""
        ins, degree = key
        return (self._names(ins), degree) if self.graded else self._names(ins)

    def pairing(self, a, b) -> Fraction:
        return self._pairing.get(self._positions((a, b)), Fraction(0))

    def budget_ok(self, insertions) -> bool:
        """Genus-zero degree budget: sum of gradings equals n - 2."""
        return self._budget_ok(self._positions(insertions))

    def _budget_ok(self, ins: tuple[int, ...]) -> bool:
        return sum(self._weight[i] for i in ins) == (len(ins) - 2) * self._scale

    def _budget_keys(self, n: int):
        """The sorted n-tuples of basis positions on the degree budget, in
        combinations order: each (n - 1)-head is completed by the positions,
        at or after its last, of the one weight that the budget leaves."""
        weight, by_weight = self._weight, {}
        for i, w in enumerate(weight):
            by_weight.setdefault(w, []).append(i)
        for head in combinations_with_replacement(range(len(weight)), n - 1):
            need = (n - 2) * self._scale - sum(weight[i] for i in head)
            yield from (head + (i,) for i in by_weight.get(need, ()) if i >= head[-1])

    # -- values ----------------------------------------------------------

    def set(self, insertions, value, degree: int = 0) -> None:
        key = self._key(insertions, degree)
        self._set_key(key, rat(value, "the value at", self._label_key(key)))

    def _set_key(self, key, v) -> None:
        """Set the internal ``key`` to ``v``, an int or a ``Fraction``."""
        if self._frozen:
            raise DomainError("table is frozen")
        if not self._budget_ok(key[0]):
            if v:
                raise DomainError(
                    "nonzero value on degree-budget-violating key "
                    f"{self._label_key(key)!r}"
                )
            return
        if self._den % v.denominator:
            # rare: a new denominator rescales every numerator once
            den = math.lcm(self._den, v.denominator)
            factor = den // self._den
            for k in self._values:
                self._values[k] *= factor
            self._den = den
        n = v.numerator * (self._den // v.denominator)
        old = self._values.get(key)
        if old is not None and old != n:
            raise InconsistentSystem(
                f"{self._label_key(key)!r}: {Fraction(old, self._den)} versus {v}"
            )
        self._values[key] = n
        self._unknown.discard(key)

    def declare_unknown(self, insertions, degree: int = 0) -> None:
        self._declare_key(self._key(insertions, degree))

    def _declare_key(self, key) -> None:
        if self._frozen:
            raise DomainError("table is frozen")
        if self._budget_ok(key[0]) and key not in self._values:
            self._unknown.add(key)

    def value(self, insertions, degree: int = 0):
        """Known value, or None when the key is a declared unknown."""
        key = self._key(insertions, degree)
        if key in self._unknown:
            return None
        return Fraction(self._values.get(key, 0), self._den)

    @property
    def unknown_keys(self) -> tuple:
        return tuple(sorted(map(self._label_key, self._unknown), key=repr))

    def known_items(self):
        den = self._den
        return tuple(
            sorted(
                ((self._label_key(k), Fraction(n, den)) for k, n in self._values.items()),
                key=repr,
            )
        )

    def freeze(self) -> "CorrelatorTable":
        self._frozen = True
        return self

    def copy(self) -> "CorrelatorTable":
        dup = copy.copy(self)
        dup._values = dict(self._values)
        dup._unknown = set(self._unknown)
        dup._frozen = False
        return dup


@cache
def _joined(left: tuple[int, ...], right: tuple[int, ...]) -> tuple:
    """The extra left + right in sorted order, and the number of ways to
    send its slots to the two factors so that ``left`` goes to the left."""
    extra = tuple(sorted(left + right))
    return extra, math.prod(math.comb(extra.count(x), left.count(x)) for x in set(left))


class _ScanMemo(dict):
    """The product lists of one scan, by (left half, right half, extra, degree).

    Each list is a flat tuple ``(key_a, key_b, c, ...)``, one entry per
    product of the join (module docstring), built once from the keys that
    are nonzero or unknown when the memo is made, with c on ints over E.
    Only halves left <= right are stored, and each product in one
    orientation.  A tuple grown by concatenation is exact in size, and the
    cuts share one tuple per half and per extra, so the memo holds little
    besides its keys and products.
    """

    __slots__ = ()

    def __init__(self, table: CorrelatorTable, extra_slots: int, degrees):
        super().__init__()
        degrees = set(degrees) if table.graded else {0}
        basis = range(len(table.labels))
        halves = [[(i, j) for j in basis] for i in basis]
        extras: dict = {}
        cuts: dict = {}  # k -> (extra size, degree) -> [(half, extra, key)]
        for key in (*(k for k, v in table._values.items() if v), *table._unknown):
            ins, degree = key
            if len(ins) > 3 + extra_slots:
                continue
            # one cut per distinct k and half: each taken at the first of
            # its equal labels in the sorted insertions
            for i, k in enumerate(ins):
                if i and ins[i - 1] == k:
                    continue
                rest = ins[:i] + ins[i + 1 :]
                bucket = cuts.setdefault(k, {}).setdefault((len(rest) - 2, degree), [])
                for j, h in combinations(range(len(rest)), 2):
                    if (j and rest[j - 1] == rest[j]) or (h > j + 1 and rest[h - 1] == rest[h]):
                        continue
                    extra = rest[:j] + rest[j + 1 : h] + rest[h + 1 :]
                    bucket.append((halves[rest[j]][rest[h]], extras.setdefault(extra, extra), key))
        for buckets in cuts.values():
            for bucket in buckets.values():
                bucket.sort(reverse=True)  # so a right half below the left one ends the row
        for k, duals in enumerate(table._eta):
            for l, eta in duals:
                for (n, d1), lefts in cuts.get(k, {}).items():
                    for (m, d2), rights in cuts.get(l, {}).items():
                        if n + m > extra_slots or d1 + d2 not in degrees:
                            continue
                        for left, left_extra, a in lefts:
                            for right, right_extra, b in rights:
                                if right < left:
                                    break
                                c = eta
                                if right == left:
                                    # (b at l | a at k) is this product mirrored
                                    this, mirror = (k, left_extra, a), (l, right_extra, b)
                                    if this > mirror:
                                        continue
                                    if this < mirror:
                                        c *= 2
                                if left_extra and right_extra:
                                    extra, count = _joined(left_extra, right_extra)
                                    c *= count
                                else:  # every slot on one side: one assignment
                                    extra = left_extra or right_extra
                                sums = (left, right, extra, d1 + d2)
                                self[sums] = self.get(sums, ()) + (a, b, c)


def _pair_sum(table: CorrelatorTable, pair, extra, degree, memo: _ScanMemo):
    """S(left | right) = sum over the Leibniz splits E of the extra slots of
    sum_{d1 + d2 = degree} sum_{k,l} <left + E, k>_{d1} eta^{kl} <l, right + extra - E>_{d2}.

    One loop over the product list of ``memo``, with values read as they
    are used; S(L|R) = S(R|L), so the list is read under the halves in
    order.  Returns ``(constant, terms)`` on ints, the constant over D^2 E
    and each coefficient over D E (module docstring), or None when some
    term is a product of two unknowns.
    """
    left, right = pair
    products = memo.get((left, right, extra, degree) if left <= right else (right, left, extra, degree))
    if products is None:
        return 0, {}
    values, unknown = table._values, table._unknown
    constant = 0
    terms: dict = {}
    entries = iter(products)
    for a, b, c in zip(entries, entries, entries):
        if a in unknown:
            if b in unknown:
                return None
            v = values[b]
            if v:
                terms[a] = terms.get(a, 0) + c * v
        elif b in unknown:
            v = values[a]
            if v:
                terms[b] = terms.get(b, 0) + c * v
        else:
            constant += c * values[a] * values[b]
    return constant, terms


def _residual(table: CorrelatorTable, first, pair, extra, degree, memo: _ScanMemo):
    """The residual first - S(pair) of one instance of a relation group, as
    ``(constant, terms)`` on ints over D^2 E and D E (module docstring),
    zero coefficients dropped; None when S(pair) is quadratic.

    ``first`` is the group's first pair sum, evaluated by the calling scan
    and not quadratic; ``memo`` is that scan's :class:`_ScanMemo`.
    """
    second = _pair_sum(table, pair, extra, degree, memo)
    if second is None:
        return None
    (constant, terms), (other, other_terms) = first, second
    if other_terms:
        terms = dict(terms)
        for key, coeff in other_terms.items():
            terms[key] = terms.get(key, 0) - coeff
    return constant - other, {key: coeff for key, coeff in terms.items() if coeff}


def _extra_routes(table: CorrelatorTable, extra_slots: int) -> dict:
    """The extras of size 0..extra_slots, routed by the degree budget.

    Every term <L> eta^{kl} <R> has dual positions k and l whose weights
    sum to c, the weight sum shared by all pairing-dual pairs, and its two
    factors meet their budgets only when the weights of the quad and of the
    n extras sum to (2 + n) L - c.  So an extra of weight w serves only the
    quads of weight (2 + n) L - c - w.  The map sends that quad weight to
    its extras, in size order and then combinations order.
    """
    weight, scale = table._weight, table._scale
    offset = 2 * scale - table._pair_weight
    basis = range(len(table.labels))
    routes: dict = {}
    for n in range(extra_slots + 1):
        for extra in combinations_with_replacement(basis, n):
            need = offset + n * scale - sum(weight[i] for i in extra)
            routes.setdefault(need, []).append(extra)
    return routes


def _groups(table: CorrelatorTable, extra_slots: int, degrees, admissible):
    """Relation groups (pairings, extra, degree) over basis positions, each
    WDVV relation of a (quad, extra, degree) once: the instances of a group
    set its first pairing against each of the others.

    A quad a <= b <= c <= d has the pairings ab|cd, ac|bd and ad|bc.  A pair
    sum depends on a pairing only as an unordered pair of halves, since
    S(L|R) = S(R|L), so a pairing whose halves equal those of an earlier one
    is dropped.  With the quad sorted, ac|bd repeats ab|cd exactly when b =
    c (its half ac is ab, or it is cd and then a = b = c), and ad|bc repeats
    one of them exactly when a = b or c = d (its half ad is ab or cd, which
    forces b = c = d or a = b = c, or it is ac or bd, which is c = d or a =
    b).  So b = c keeps ab|cd and ad|bc, a = b or c = d keeps ab|cd and
    ac|bd, four distinct labels keep all three, and a quad with b = c
    together with a = b or c = d has one pairing and yields nothing.  For
    each extra, the admissible pairings form a group when there are at
    least two of them.  Each quad visits only the extras that complete its
    degree budget (see :func:`_extra_routes`), and a quad that no extra
    completes is skipped before its pairings are built; an instance off the
    budget has only terms that read as zero.  A pairing is admissible when
    both of its halves are.  When the scan first meets an extra,
    ``admissible(half, extra)`` is called on every sorted half of the basis,
    with basis positions, ints into ``table.labels``, so once per (half,
    extra); the halves it rejects are kept for that extra until the scan
    ends.
    """
    degree_list = list(degrees) if table.graded else [0]
    weight, routes = table._weight, _extra_routes(table, extra_slots)
    basis = range(len(table.labels))
    rejected: dict = {}  # extra -> the halves that admissible rejects with it
    for a, b, c, d in combinations_with_replacement(basis, 4):
        extras = routes.get(weight[a] + weight[b] + weight[c] + weight[d])
        if extras is None or (b == c and (a == b or c == d)):
            continue
        first = ((a, b), (c, d))
        if b == c:
            pairings = [first, ((a, d), (b, c))]
        elif a == b or c == d:
            pairings = [first, ((a, c), (b, d))]
        else:
            pairings = [first, ((a, c), (b, d)), ((a, d), (b, c))]
        for extra in extras:
            ok = pairings
            if admissible is not None:
                out = rejected.get(extra)
                if out is None:
                    halves = combinations_with_replacement(basis, 2)  # the sorted ones
                    out = rejected[extra] = {h for h in halves if not admissible(h, extra)}
                if out:
                    ok = [pair for pair in pairings if pair[0] not in out and pair[1] not in out]
            if len(ok) > 1:
                for degree in degree_list:
                    yield ok, extra, degree


def _check_arguments(table: CorrelatorTable, extra_slots, degrees) -> None:
    """Raise DomainError unless ``extra_slots`` is an int >= 0 and the
    table's keys accept ``degrees``, each degree once (a repeated one would
    scan, and count, its relations twice)."""
    if type(extra_slots) is not int or extra_slots < 0:
        raise DomainError(f"extra_slots {extra_slots!r} is not an int >= 0")
    if not isinstance(degrees, Sequence):
        raise DomainError(f"degrees {degrees!r} is not a sequence of curve degrees")
    for i, degree in enumerate(degrees):
        table._check_degree(degree)
        if degree in degrees[:i]:
            raise DomainError(f"curve degree {degree} is repeated in degrees {degrees!r}")


def _require_keys(table: CorrelatorTable, extra_slots: int) -> None:
    """Raise MissingKey when a scan with ``extra_slots`` can read
    (3 + extra_slots)-point keys, some multiset of that size meeting the
    degree budget, but the table declares none, known or unknown: the
    closed-world table would read every one of them as 0."""
    n, keys = 3 + extra_slots, (*table._values, *table._unknown)
    if not any(len(key[0]) == n for key in keys) and any(table._budget_keys(n)):
        raise MissingKey(f"the scan reads {n}-point keys, but the table declares none")


def _describe(table: CorrelatorTable, instance, constant: int) -> str:
    """An instance in labels with its exact residual, for error messages."""
    pair1, pair2, extra, degree = instance
    first, second = (tuple(map(table._names, pair)) for pair in (pair1, pair2))
    shown = degree if table.graded else None
    residual = Fraction(constant, table._den**2 * table._eta_den)
    return (
        f"{first}/{second} extra={table._names(extra)} degree={shown}"
        f" has residual {residual}"
    )


def _scan(table: CorrelatorTable, groups, memo: _ScanMemo, solve: bool) -> tuple[int, list]:
    """One pass over relation groups: ``(known instances, open groups)``.

    Evaluates each group's first pair sum once and forms each residual from
    it (module docstring); a group whose first sum is quadratic is left
    whole.  A fully known instance is counted, and raises
    :class:`InconsistentSystem` when its residual is nonzero.  Only when
    ``solve`` is set, an instance linear in exactly one unknown sets that
    key, the first sum is evaluated again before the next residual (it may
    read the key, or be over an older D), and the groups are returned with
    their still-open instances, those quadratic or linear in two or more
    unknowns.  Without ``solve`` the table is left as it is and no group is
    collected.
    """
    checked, still_open = 0, []
    for group in groups:
        (head, *others), extra, degree = group
        first = _pair_sum(table, head, extra, degree, memo)
        if first is None:
            if solve:
                still_open.append(group)
            continue
        kept = [head]
        for pair in others:
            if first is None:  # a key of this group was solved
                first = _pair_sum(table, head, extra, degree, memo)
            form = _residual(table, first, pair, extra, degree, memo)
            if form is None or len(form[1]) > (1 if solve else 0):
                kept.append(pair)
                continue
            constant, terms = form
            if terms:
                (key, coeff), = terms.items()
                table._set_key(key, Fraction(-constant, table._den * coeff))
                first = None
            elif constant:
                described = _describe(table, (head, pair, extra, degree), constant)
                raise InconsistentSystem(f"known instance {described}")
            else:
                checked += 1
        if solve and len(kept) > 1:
            still_open.append((kept, extra, degree))
    return checked, still_open


def propagate(
    table: CorrelatorTable,
    *,
    extra_slots: int = 1,
    degrees: Sequence[int] = (0,),
    shuffle_seed: int | None = None,
    admissible=None,
) -> CorrelatorTable:
    """Close a table under WDVV: solve instances linear in one unknown.

    Malformed arguments raise :class:`DomainError`.  A table without
    unknowns is then returned as a copy at once, with no relation group
    listed.  Otherwise the relation groups built from the basis labels with
    up to ``extra_slots`` extra insertions are listed once, and solving
    passes of the one scan routine run over them: each pass solves every
    instance that is linear in exactly one unknown and raises
    :class:`InconsistentSystem` on a fully known instance that does not
    vanish, and the next pass rescans only the instances still open
    (quadratic, or linear in two or more unknowns).  The passes stop when
    one solves nothing or no unknown is left.  Keys that no instance
    resolves stay in the unknown-set of the returned table.  A table that
    declares no (3 + ``extra_slots``)-point key, where some key of that
    size meets the degree budget, raises :class:`MissingKey` before the
    first pass.
    ``shuffle_seed`` randomizes the order of the relation groups and of the
    other pairings inside each group, so of the solves within a group; the
    first pairing of a group stays first, so the instances are the same.
    The order must not change the outcome.

    All passes read the product lists of one join.  The residuals are ints
    over the table's denominators (module docstring), and each solved key
    costs one ``Fraction``.

    ``admissible(half, extra)`` filters instances: when the table's labels
    span only part of a larger state space, only pairings whose forced
    intermediate states stay inside the label set yield complete residuals,
    and the caller must reject the halves that leave it; a pairing is used
    when both of its halves are admissible.  It receives basis positions,
    ints into ``table.labels``, and is asked at most once per (half, extra)
    of the scan.  Each quad meets only the extras that complete its degree
    budget.
    """
    _check_arguments(table, extra_slots, degrees)
    work = table.copy()
    if not work._unknown:
        return work
    _require_keys(work, extra_slots)
    pending = list(_groups(work, extra_slots, degrees, admissible))
    if shuffle_seed is not None:
        rng = random.Random(shuffle_seed)
        pending = [([h, *rng.sample(o, len(o))], e, d) for (h, *o), e, d in pending]
        rng.shuffle(pending)
    memo = _ScanMemo(work, extra_slots, degrees)
    while work._unknown:
        # known values never change, so a constant or solved residual stays
        # settled and only the still-open instances are scanned again
        unknown = len(work._unknown)
        pending = _scan(work, pending, memo, solve=True)[1]
        if len(work._unknown) == unknown:
            break
    return work


def check_residuals(
    table: CorrelatorTable,
    *,
    extra_slots: int = 1,
    degrees: Sequence[int] = (0,),
    admissible=None,
) -> int:
    """Evaluate every fully known residual instance; return the count.

    One non-solving pass of the scan routine that :func:`propagate` runs:
    it raises InconsistentSystem on the first nonzero known residual, with
    the message that :func:`propagate` gives ("known instance ..."), and
    :class:`DomainError` and :class:`MissingKey` as :func:`propagate` does.
    Instances whose residual involves unknowns are skipped; an instance
    whose two pair sums carry the same unknown terms is fully known and
    counted.  ``admissible(half, extra)`` receives basis positions and
    filters pairings by their halves as in :func:`propagate`.  The pass
    joins the live keys once and evaluates each pairing's pair sum once per
    relation group; a group whose first sum is quadratic is skipped whole.
    The table is not changed.
    """
    _check_arguments(table, extra_slots, degrees)
    _require_keys(table, extra_slots)
    groups = _groups(table, extra_slots, degrees, admissible)
    return _scan(table, groups, _ScanMemo(table, extra_slots, degrees), solve=False)[0]


# ---------------------------------------------------------------------------
# Elliptic orbifold projective lines P^1_{a1,a2,a3}


def elliptic_orbifold_basis(orders: Sequence[int]):
    """Cohomology labels and gradings of P^1_{a1,a2,a3}.

    Labels: (0,1) the unit, (0,2) the point class (grading 1), and (i,j)
    for leg i in {1,2,3}, twist j in 1..a_i-1 with grading j/a_i.  A
    DomainError unless ``orders`` holds three ints a_i >= 2.
    """
    three = isinstance(orders, (list, tuple)) and len(orders) == 3
    if not three or not all(type(a) is int and a >= 2 for a in orders):
        raise DomainError(f"orbifold orders {orders!r} are not three ints >= 2")
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
    for trip in map(table._names, table._budget_keys(3)):
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


def apply_divisor_rule(table: CorrelatorTable) -> CorrelatorTable:
    """Extend a graded table by  <P, A, B, C>_d = d * <A, B, C>_d .

    The point class P = (0, 2) is the divisor of P^1_{a1,a2,a3}: it
    integrates to the curve degree against each stable map, so every known
    three-point value at degree d yields the four-point value with one
    extra P insertion.
    """
    if not table.graded:
        raise DomainError("divisor rule applies to degree-graded tables")
    out = table.copy()
    for key, value in table.known_items():
        insertions, degree = key
        if len(insertions) != 3:
            continue
        out.set(insertions + ((0, 2),), degree * value, degree=degree)
    return out
