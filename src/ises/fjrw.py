"""Landau-Ginzburg A-model state spaces and genus-zero correlators.

For a catalog entry with polynomial W, this module works with the
transposed polynomial W^T acted on by its maximal group of diagonal
symmetries.  Group elements h are phase vectors Theta(h) in [0,1)^3; the
state space carries one generator e_h per *narrow* sector (no phase
component vanishes) plus finitely many *broad* sectors (some component
vanishes, so the fixed locus is positive-dimensional) whose contributions
enter only through frozen fixture values.

Computed from first principles:

* sector classification, gradings deg(e_h) = sum_i (Theta_i(h) - q_i^T),
  and the pairing (e_h pairs with e_{h^-1});
* line bundle degrees d_j = q_j^T (2g - 2 + n) - sum_k Theta_j(h_k) and
  their integrality (the correlator vanishes unless all d_j are integers);
* three-point values on narrow sectors: 1 when every d_j = -1, 0 when all
  d_j <= -1 with some d_j <= -2, and a frozen fixture (or an unknown to be
  solved by associativity) when some d_j = 0;
* concave four-point values by the genus-zero Riemann-Roch formula
      sum_{i=1..3} (1/2) ( B2(q_i^T) - sum_{j=1..4} B2(Theta_i(h_j))
                           + sum_{channels} B2(Theta_i(node)) ),
  B2(y) = y^2 - y + 1/6, where each of the three boundary channels
  {a,b}|{c,d} carries the unique node decoration in [0,1)^3 that makes the
  three-pointed side degrees integral -- valid when every line bundle
  degree, on the main component and on both sides of every channel, is at
  most -1;
* the remaining four-point values by associativity propagation (module
  ``wdvv``) over the narrow sectors;
* values of weight-one words in the ring generators rho_i: each word is
  split into three insertions, every insertion is reduced to a multiple of
  a sector generator through narrow intermediate products, and all
  factorizations of a word are cross-checked to agree.

Entries whose catalog record marks the reconstruction as excluded (their
state space is generated by broad classes) raise NeedsBroadFixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .isespoly import CatalogEntry
from .numcore import DomainError, Rat, parse_rat, rat
from .wdvv import CorrelatorTable, InconsistentSystem, propagate

__all__ = [
    "BroadInsertion",
    "FjrwSector",
    "FjrwTheory",
    "FourPointBreakdown",
    "Infeasible",
    "NeedsBroadFixture",
    "NotConcave",
    "basic_fourpoint_table",
    "bernoulli_b2",
    "classify_sectors",
    "concave_fourpoint",
    "fjrw_theory",
    "line_bundle_degrees",
    "sector_table",
    "selection_rule",
]


class BroadInsertion(DomainError):
    """A correlator slot holds a broad sector where a narrow one is needed."""


class Infeasible(DomainError):
    """The line bundle degrees are not all integers."""


class NotConcave(DomainError):
    """Some line bundle degree exceeds -1 on a component, so the direct
    Riemann-Roch evaluation does not apply."""


class NeedsBroadFixture(DomainError):
    """The entry's state space is generated by broad classes; its
    correlators are not reconstructible from narrow data alone."""


def bernoulli_b2(y) -> Fraction:
    """The second Bernoulli polynomial  y^2 - y + 1/6."""
    y = rat(y)
    return y * y - y + Fraction(1, 6)


def _frac(x) -> Fraction:
    return rat(x) % 1


def _frac3(vec) -> tuple[Fraction, ...]:
    return tuple(rat(x) % 1 for x in vec)


def _rank(rows) -> int:
    """Rank of a small matrix with exact field entries."""
    work = [list(map(Fraction, r)) for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for i, row in enumerate(work):
            if i != rank and row[col]:
                factor = row[col]
                work[i] = [a - factor * b for a, b in zip(row, work[rank])]
        rank += 1
    return rank


def sector_dimension(mirror_rows, charges, group, theta) -> int:
    """State-space dimension of the sector with phase vector ``theta``.

    Narrow sectors carry exactly one class.  For the rest, restrict the
    mirror polynomial to the coordinates the sector fixes, grade the
    restricted Milnor algebra by weighted degree and by the characters of
    the full symmetry group (each group element scales a monomial class
    together with the volume form on the fixed coordinates), and count the
    classes on which every character vanishes.
    """
    fixed = tuple(j for j in range(3) if theta[j] == 0)
    if not fixed:
        return 1
    rows = [
        r
        for r in mirror_rows
        if all(r[j] == 0 for j in range(3) if j not in fixed)
    ]

    def char_zero(exps, shift_idx=None):
        for gamma in group:
            total = sum((exps[k] + 1) * gamma[j] for k, j in enumerate(fixed))
            if shift_idx is not None:
                total -= gamma[shift_idx]
            if _frac(total) != 0:
                return False
        return True

    socle = sum(1 - 2 * charges[j] for j in fixed)
    by_weight: dict[Fraction, list[tuple[int, ...]]] = {}

    def enumerate_monomials(pos, prefix, weight):
        if pos == len(fixed):
            by_weight.setdefault(weight, []).append(tuple(prefix))
            return
        q = charges[fixed[pos]]
        e = 0
        while weight + e * q <= socle:
            enumerate_monomials(pos + 1, prefix + [e], weight + e * q)
            e += 1

    enumerate_monomials(0, [], Fraction(0))

    dim = 0
    for weight, monomials in by_weight.items():
        columns = {m: k for k, m in enumerate(m for m in monomials if char_zero(m))}
        if not columns:
            continue
        relations = []
        for pos, j in enumerate(fixed):
            lower = by_weight.get(weight - (1 - charges[j]), ())
            for mono in lower:
                if not char_zero(mono, shift_idx=j):
                    continue
                vector = [Fraction(0)] * len(columns)
                for row in rows:
                    if row[j] == 0:
                        continue
                    shifted = list(mono)
                    for k, jj in enumerate(fixed):
                        shifted[k] += row[jj] - (1 if jj == j else 0)
                    vector[columns[tuple(shifted)]] += row[j]
                relations.append(vector)
        dim += len(columns) - _rank(relations)
    return dim


@dataclass(frozen=True)
class FjrwSector:
    """One group element h with its phases and classification.

    ``index`` holds the catalog chart coordinates when the element lies in
    the chart spanned by the catalog's scheme generators, else None.
    ``degree`` is the grading of the narrow generator e_h; None for broad
    sectors (their forms carry degrees the narrow data cannot see).
    ``dim`` counts the states of the sector: one for narrow, the number of
    invariant fixed-locus Milnor classes otherwise (often zero).
    """

    theta: tuple[Fraction, ...]
    narrow: bool
    degree: Fraction | None
    index: tuple[int, ...] | None = None
    dim: int = 1


def line_bundle_degrees(
    mirror_charges: Sequence[Rat], g: int, thetas: Iterable[Sequence[Rat]]
) -> tuple[tuple[Fraction, ...], bool]:
    """Degrees d_j = q_j (2g - 2 + n) - sum_k Theta_j(h_k) and integrality."""
    thetas = list(thetas)
    n = len(thetas)
    degrees = tuple(
        rat(q) * (2 * g - 2 + n) - sum(rat(t[j]) for t in thetas)
        for j, q in enumerate(mirror_charges)
    )
    feasible = all(d.denominator == 1 for d in degrees)
    return degrees, feasible


def selection_rule(g: int, degrees: Sequence[Rat], descents: Sequence[int] = ()) -> bool:
    """Degree budget: sum deg + sum descents = 2g - 2 + n."""
    degrees = list(degrees)
    return sum(map(rat, degrees)) + sum(descents) == 2 * g - 2 + len(degrees)


@dataclass(frozen=True)
class Channel:
    """One boundary channel {a,b}|{c,d} of a four-pointed rational curve."""

    split: tuple[tuple[int, int], tuple[int, int]]
    node_theta: tuple[Fraction, ...]
    side_degrees: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


@dataclass(frozen=True)
class FourPointBreakdown:
    """A concave four-point value with its per-coordinate Bernoulli sums."""

    thetas: tuple[tuple[Fraction, ...], ...]
    main_degrees: tuple[Fraction, ...]
    channels: tuple[Channel, Channel, Channel]
    coordinate_parts: tuple[Fraction, Fraction, Fraction]

    @property
    def value(self) -> Fraction:
        return sum(self.coordinate_parts, Fraction(0))


class FjrwTheory:
    """Sectors, ring generators and correlators for one catalog entry."""

    def __init__(self, entry: CatalogEntry):
        raw = entry.fjrw
        if not raw or raw.get("excluded"):
            raise NeedsBroadFixture(
                f"{entry.name}: {raw.get('reason', 'no state-space data')}"
            )
        self.entry = entry
        self.name = entry.name
        self.charges = entry.polynomial.charges
        self.mirror_charges = entry.polynomial.mirror_charges
        group = entry.polynomial.transpose().group()

        scheme = raw["scheme"]
        offset = _frac3(parse_rat(x) for x in scheme["offset"])
        steps = [_frac3(parse_rat(x) for x in step) for step in scheme["steps"]]
        self.orders = tuple(int(o) for o in scheme["orders"])
        self._chart: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
        self._chart_index: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
        for index in _index_range(self.orders):
            theta = _frac3(
                offset[j] + sum(i * step[j] for i, step in zip(index, steps))
                for j in range(3)
            )
            self._chart[index] = theta
            self._chart_index.setdefault(theta, index)

        mirror_rows = entry.polynomial.transpose().exponents
        self.sectors: dict[tuple[Fraction, ...], FjrwSector] = {}
        for theta in group:
            narrow = all(t != 0 for t in theta)
            degree = None
            dim = 1
            if narrow:
                degree = sum(
                    t - q for t, q in zip(theta, self.mirror_charges)
                )
            else:
                dim = sector_dimension(
                    mirror_rows, self.mirror_charges, group, theta
                )
            self.sectors[theta] = FjrwSector(
                theta, narrow, degree, self._chart_index.get(theta), dim
            )
        for index, theta in self._chart.items():
            if theta not in self.sectors:
                raise DomainError(
                    f"{entry.name}: chart point {index} is not a symmetry"
                )

        self.identity = self.sector(raw["J"])
        if self.identity.theta != self.mirror_charges:
            raise DomainError(f"{entry.name}: grading element mismatch")
        self.top = self.sector(raw["top"] if "top" in raw else raw["rho"]["top"])
        self.rho = {
            int(k): self.sector(v) for k, v in raw["rho"].items() if k != "top"
        }
        self.generators = tuple(sorted(self.rho))
        if self.top.degree != 1:
            raise DomainError(f"{entry.name}: top sector degree is not 1")

        narrow_count = sum(1 for s in self.sectors.values() if s.narrow)
        if narrow_count != int(raw["narrow"]):
            raise DomainError(f"{entry.name}: narrow sector count mismatch")
        self.broad_dims = {
            s.theta: s.dim
            for s in self.sectors.values()
            if not s.narrow and s.dim
        }
        if narrow_count + sum(self.broad_dims.values()) != entry.milnor:
            raise DomainError(f"{entry.name}: state space dimension mismatch")

        fixtures = raw.get("fixtures", {})
        self._fixture3 = {
            self._sector_key(f["insertions"]): parse_rat(f["value"])
            for f in fixtures.get("threePoint", [])
        }
        self._fixture4 = {
            self._sector_key(f["insertions"]): parse_rat(f["value"])
            for f in fixtures.get("fourPoint", [])
        }
        self._table: CorrelatorTable | None = None
        self._reduce_cache: dict = {}

    # -- sector helpers ------------------------------------------------

    def sector(self, index: Sequence[int]) -> FjrwSector:
        key = tuple(int(i) % o for i, o in zip(index, self.orders))
        return self.sectors[self._chart[key]]

    def _sector_key(self, indices) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(sorted(self.sector(ix).theta for ix in indices))

    def narrow_sectors(self) -> tuple[FjrwSector, ...]:
        return tuple(
            s for _, s in sorted(self.sectors.items()) if s.narrow
        )

    def inverse_theta(self, theta) -> tuple[Fraction, ...]:
        return _frac3(-t for t in theta)

    def product_theta(self, t1, t2) -> tuple[Fraction, ...]:
        """Sector of a product: phases add, minus one grading-element twist."""
        return _frac3(a + b - q for a, b, q in zip(t1, t2, self.mirror_charges))

    def pairing(self, t1, t2) -> Fraction:
        s1, s2 = self.sectors[tuple(t1)], self.sectors[tuple(t2)]
        if not (s1.narrow and s2.narrow):
            return Fraction(0)
        return Fraction(1 if self.inverse_theta(s1.theta) == s2.theta else 0)

    # -- three-point values over narrow sectors -------------------------

    def threepoint(self, t1, t2, t3) -> Fraction | None:
        """Narrow three-point value; None when only a fixture could decide.

        Zero when the degree budget or the line bundle integrality fails;
        one when every line bundle degree is -1; zero when all degrees are
        <= -1 and some is <= -2; otherwise (some degree >= 0) the value is
        a frozen fixture or unknown.
        """
        thetas = (tuple(t1), tuple(t2), tuple(t3))
        for t in thetas:
            if not self.sectors[t].narrow:
                raise BroadInsertion(f"{self.name}: broad sector {t} in slot")
        degs = [self.sectors[t].degree for t in thetas]
        if not selection_rule(0, degs):
            return Fraction(0)
        d, feasible = line_bundle_degrees(self.mirror_charges, 0, thetas)
        if not feasible:
            return Fraction(0)
        if all(dj == -1 for dj in d):
            return Fraction(1)
        if all(dj <= -1 for dj in d):
            return Fraction(0)
        return self._fixture3.get(tuple(sorted(thetas)))

    # -- concave four-point values ---------------------------------------

    def fourpoint_breakdown(self, sectors: Sequence) -> FourPointBreakdown:
        thetas = tuple(self._as_theta(s) for s in sectors)
        if len(thetas) != 4:
            raise ValueError("need exactly four insertions")
        for t in thetas:
            if not self.sectors[t].narrow:
                raise BroadInsertion(f"{self.name}: broad insertion {t}")
        q = self.mirror_charges
        main, feasible = line_bundle_degrees(q, 0, thetas)
        if not feasible:
            raise Infeasible(f"{self.name}: degrees {main} not integral")
        degs = [self.sectors[t].degree for t in thetas]
        if not selection_rule(0, degs):
            raise Infeasible(f"{self.name}: degree budget violated")
        if any(dj > -1 for dj in main):
            raise NotConcave(f"{self.name}: main component degrees {main}")
        channels = []
        for split in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            node = _frac3(
                q[j] - thetas[split[0][0]][j] - thetas[split[0][1]][j]
                for j in range(3)
            )
            sides = []
            for half, decoration in ((split[0], node), (split[1], self.inverse_theta(node))):
                side_thetas = [thetas[half[0]], thetas[half[1]], decoration]
                d, ok = line_bundle_degrees(q, 0, side_thetas)
                if not ok:
                    raise Infeasible(f"{self.name}: channel degrees {d}")
                if any(dj > -1 for dj in d):
                    raise NotConcave(
                        f"{self.name}: channel {split} degrees {d}"
                    )
                sides.append(d)
            channels.append(Channel(split, node, (sides[0], sides[1])))
        parts = []
        for i in range(3):
            total = bernoulli_b2(q[i])
            total -= sum(bernoulli_b2(t[i]) for t in thetas)
            total += sum(bernoulli_b2(ch.node_theta[i]) for ch in channels)
            parts.append(total / 2)
        return FourPointBreakdown(thetas, main, tuple(channels), tuple(parts))

    def concave_fourpoint(self, sectors: Sequence) -> Fraction:
        return self.fourpoint_breakdown(sectors).value

    def _as_theta(self, s) -> tuple[Fraction, ...]:
        if isinstance(s, FjrwSector):
            return s.theta
        s = tuple(s)
        if s in self.sectors:
            return s
        return self.sector(s).theta

    # -- the narrow correlator table --------------------------------------

    def narrow_nodes(self, pair, extra) -> bool:
        """Whether an associativity pairing only ever routes through narrow
        intermediate sectors.

        In every term <left, S, k> eta <l, right, rest> the group grading
        forces the sector of k: Theta(k) = (|S|+1) q - sum(left) - sum(S)
        mod 1 (and l lands in its inverse).  Pairings that force a node
        into a broad sector of positive dimension give residuals with
        contributions the narrow table cannot see, so they must not be
        used as identities on it.  Broad sectors of dimension zero carry
        no states and are harmless.
        """
        q = self.mirror_charges
        for half in pair:
            base = [sum(t[j] for t in half) for j in range(3)]
            for subset in _subvectors(tuple([1] * len(extra))):
                picked = [x for x, flag in zip(extra, subset) if flag]
                node = _frac3(
                    (len(picked) + 1) * q[j]
                    - base[j]
                    - sum(t[j] for t in picked)
                    for j in range(3)
                )
                if not self.sectors[node].narrow and self.broad_dims.get(node):
                    return False
        return True

    def correlator_table(self) -> CorrelatorTable:
        """Three- and four-point values over narrow sectors, closed under
        associativity; unsolved keys stay in the unknown-set."""
        if self._table is not None:
            return self._table
        narrow = self.narrow_sectors()
        labels = tuple(s.theta for s in narrow)
        degrees = {s.theta: s.degree for s in narrow}
        pairing = {
            (s.theta, self.inverse_theta(s.theta)): Fraction(1) for s in narrow
        }
        table = CorrelatorTable(labels, pairing, degrees=degrees)
        for trip in combinations_with_replacement(labels, 3):
            if not table.budget_ok(trip):
                continue
            value = self.threepoint(*trip)
            if value is None:
                table.declare_unknown(trip)
            else:
                table.set(trip, value)
        for quad in combinations_with_replacement(labels, 4):
            if not table.budget_ok(quad):
                continue
            _, feasible = line_bundle_degrees(self.mirror_charges, 0, quad)
            if not feasible:
                table.set(quad, 0)
                continue
            try:
                table.set(quad, self.fourpoint_breakdown(quad).value)
            except NotConcave:
                table.declare_unknown(quad)
        self._table = propagate(table, admissible=self.narrow_nodes).freeze()
        return self._table

    # -- ring reduction and weight-one words -------------------------------

    def reduce_word(self, word: Sequence[int]):
        """Express rho^word as (constant, sector theta); None when blocked.

        Reduction multiplies one generator at a time; every intermediate
        product must stay narrow and every step constant must be a known
        three-point value.  All reduction orders are cross-checked.
        """
        word = tuple(int(v) for v in word)
        if word in self._reduce_cache:
            return self._reduce_cache[word]
        total = sum(word)
        if total == 0:
            result = (Fraction(1), self.identity.theta)
        elif total == 1:
            gen = self.generators[word.index(1)]
            result = (Fraction(1), self.rho[gen].theta)
        else:
            table = self.correlator_table()
            candidates = set()
            for pos, count in enumerate(word):
                if not count:
                    continue
                gen_sector = self.rho[self.generators[pos]]
                if not gen_sector.narrow:
                    continue
                sub = self.reduce_word(
                    word[:pos] + (count - 1,) + word[pos + 1 :]
                )
                if sub is None:
                    continue
                c_sub, t_sub = sub
                if not self.sectors[t_sub].narrow:
                    continue
                target = self.product_theta(t_sub, gen_sector.theta)
                dual = self.inverse_theta(target)
                if not self.sectors[dual].narrow:
                    continue
                constant = table.value((t_sub, gen_sector.theta, dual))
                if constant is None:
                    continue
                candidates.add((c_sub * constant, target))
            zero = {c for c in candidates if c[0] == 0}
            if not candidates:
                result = None
            elif len(candidates - zero) > 1 or (zero and candidates - zero):
                raise InconsistentSystem(
                    f"{self.name}: word {word} reduces ambiguously: {candidates}"
                )
            else:
                result = next(iter(candidates))
        self._reduce_cache[word] = result
        return result

    def weight_one_words(self) -> tuple[tuple[int, ...], ...]:
        """Exponent words in the ring generators with total charge one."""
        ngen = len(self.generators)
        words = []
        for mono in self.entry.polynomial.degree_one_monomials():
            if any(mono[j] for j in range(ngen, 3)):
                continue
            words.append(tuple(mono[:ngen]))
        return tuple(words)

    def word_feasible(self, word: Sequence[int]) -> bool:
        """Line bundle integrality for any three-insertion factorization
        (independent of the factorization: phases differ by integers)."""
        q = self.mirror_charges
        content = []
        for j in range(3):
            s = sum(
                v * self.rho[g].theta[j]
                for v, g in zip(word, self.generators)
            )
            s -= (sum(word) - 3) * q[j]
            s += self.top.theta[j]
            content.append(s)
        return all(_frac(2 * q[j] - content[j]) == 0 for j in range(3))

    def word_value(self, word: Sequence[int]):
        """Value of <Xi(rho), rho_top> for a weight-one word Xi.

        Returns (value, route) with value None when no factorization is
        computable from narrow data and fixtures.  All computable
        factorizations must agree.
        """
        word = tuple(int(v) for v in word)
        if not self.word_feasible(word):
            return Fraction(0), "infeasible"
        table = self.correlator_table()
        candidates: dict[Fraction, str] = {}
        blocked = 0
        for parts in _three_partitions(word):
            reduced = [self.reduce_word(p) for p in parts]
            if all(
                r is not None and self.sectors[r[1]].narrow for r in reduced
            ):
                constants = [r[0] for r in reduced]
                if any(c == 0 for c in constants):
                    # a part that multiplies to zero is not a factorization
                    # of the (nonzero) monomial Xi, so this route says nothing
                    blocked += 1
                    continue
                thetas = [r[1] for r in reduced] + [self.top.theta]
                value = table.value(thetas)
                if value is None:
                    blocked += 1
                    continue
                product = constants[0] * constants[1] * constants[2] * value
                candidates.setdefault(product, "sector-table")
            elif all(sum(p) == 1 for p in parts):
                sectors = [
                    self.rho[self.generators[p.index(1)]].theta for p in parts
                ]
                key = tuple(sorted(sectors + [self.top.theta]))
                if key in self._fixture4:
                    candidates.setdefault(self._fixture4[key], "fixture")
                else:
                    blocked += 1
            else:
                blocked += 1
        if not candidates:
            return None, f"unresolved ({blocked} blocked factorizations)"
        if len(candidates) > 1:
            raise InconsistentSystem(
                f"{self.name}: word {word} factorizations disagree: {candidates}"
            )
        value, route = candidates.popitem()
        return value, route

    def fourpoint_words(self) -> dict[tuple[int, ...], Fraction | None]:
        """All weight-one words with their four-point values (None when the
        narrow data plus fixtures cannot decide)."""
        return {w: self.word_value(w)[0] for w in self.weight_one_words()}


def _index_range(orders: Sequence[int]):
    if not orders:
        yield ()
        return
    for rest in _index_range(orders[1:]):
        for i in range(orders[0]):
            yield (i,) + rest


def _three_partitions(word: tuple[int, ...]):
    """Unordered splittings of an exponent vector into three nonzero parts."""
    seen = set()
    for first in _subvectors(word):
        if not any(first):
            continue
        rest = tuple(w - f for w, f in zip(word, first))
        for second in _subvectors(rest):
            if not any(second):
                continue
            third = tuple(r - s for r, s in zip(rest, second))
            if not any(third):
                continue
            key = tuple(sorted((first, second, third)))
            if key not in seen:
                seen.add(key)
                yield key


def _subvectors(bound: tuple[int, ...]):
    if not bound:
        yield ()
        return
    for rest in _subvectors(bound[1:]):
        for i in range(bound[0] + 1):
            yield (i,) + rest


# ---------------------------------------------------------------------------
# module-level conveniences

_THEORIES: dict[int, FjrwTheory] = {}


def fjrw_theory(entry: CatalogEntry) -> FjrwTheory:
    """The shared theory of ``entry``, cached by object identity.

    Each cached theory keeps its entry; a theory cached under the same id
    for another entry object is rebuilt, so a recycled id never returns
    another entry's theory.
    """
    theory = _THEORIES.get(id(entry))
    if theory is None or theory.entry is not entry:
        theory = _THEORIES[id(entry)] = FjrwTheory(entry)
    return theory


def classify_sectors(entry: CatalogEntry) -> tuple[FjrwSector, ...]:
    """Tag every diagonal symmetry of W^T as narrow or broad.

    Works for every entry; chart coordinates are attached when the catalog
    provides a scheme for the state space.
    """
    mirror = entry.polynomial.transpose()
    charges = entry.polynomial.mirror_charges
    chart_index: Mapping = {}
    try:
        chart_index = fjrw_theory(entry)._chart_index
    except NeedsBroadFixture:
        pass
    group = mirror.group()
    out = []
    for theta in group:
        narrow = all(t != 0 for t in theta)
        degree = None
        dim = 1
        if narrow:
            degree = sum(t - q for t, q in zip(theta, charges))
        else:
            dim = sector_dimension(mirror.exponents, charges, group, theta)
        out.append(FjrwSector(theta, narrow, degree, chart_index.get(theta), dim))
    return tuple(out)


def concave_fourpoint(entry: CatalogEntry, sectors: Sequence) -> Fraction:
    return fjrw_theory(entry).concave_fourpoint(sectors)


def sector_table(entry: CatalogEntry) -> CorrelatorTable:
    return fjrw_theory(entry).correlator_table()


def basic_fourpoint_table(entry: CatalogEntry) -> dict[tuple[int, ...], Fraction | None]:
    """Four-point values <Xi(rho), rho_top> for all weight-one words Xi."""
    return fjrw_theory(entry).fourpoint_words()
