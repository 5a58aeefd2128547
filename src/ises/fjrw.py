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
* three-point values on narrow sectors: 1 when every d_j = -1, and a
  frozen fixture (or an unknown to be solved by associativity) when some
  d_j >= 0; on the degree budget sum_j d_j = -1 - 2 sum_i q_i^T = -3, so
  there is no third case;
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

Sectors are labelled by ``Fraction`` phase vectors, but the arithmetic
behind them runs on ints scaled by the lcm L of the phase denominators of
the group: a phase Theta is held as the int Theta L in [0, L), and so is
q^T (the grading element J = q^T is a group element), and a line bundle
degree d_j is held as the int d_j L, in units of 1/L, so it is integral
exactly when L divides it.  The four-point value above is then one
``Fraction``

    sum_j [ qL (qL - L) - sum_k a_k (a_k - L) + sum_channels n (n - L) ] / (2 L^2)

over the scaled phases qL, a_k and node phases n of coordinate j (the 1/6
terms cancel: 1 - 4 + 3 = 0).  Labels are turned into ``Fraction``s at the
edge only: in sector labels, and in the degrees and phases that
:class:`FourPointBreakdown` and the exception messages report.

Entries whose catalog record marks the reconstruction as excluded (their
state space is generated by broad classes) raise NeedsBroadFixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Mapping, Sequence

from .isespoly import CatalogEntry, enumerate_group, group_generators
from .numcore import DomainError, nullspace, parse_rat, rat
from .wdvv import CorrelatorTable, InconsistentSystem, propagate

__all__ = [
    "BroadInsertion",
    "FjrwSector",
    "FjrwTheory",
    "FourPointBreakdown",
    "Infeasible",
    "NeedsBroadFixture",
    "NotConcave",
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


_SPLITS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _frac3(vec) -> tuple[Fraction, ...]:
    return tuple(rat(x) % 1 for x in vec)


def _scaled(phases, scale: int) -> tuple[int, ...]:
    """Phases on the 1/scale grid, times ``scale``, as ints."""
    return tuple(t.numerator * (scale // t.denominator) for t in phases)


def sector_dimension(mirror_rows, charges, generators, theta) -> int:
    """State-space dimension of the sector with phase vector ``theta``.

    Narrow sectors carry exactly one class.  For the rest, restrict the
    mirror polynomial to the coordinates the sector fixes, grade the
    restricted Milnor algebra by weighted degree and by the characters of
    the symmetry group (each group element scales a monomial class
    together with the volume form on the fixed coordinates), and count the
    classes on which every character vanishes.  ``generators`` is any
    generating set of the group, such as the three phase vectors of
    :func:`~ises.isespoly.group_generators`: a character is a homomorphism
    into Q/Z, so it vanishes on the group when it vanishes on them.
    Charges, weights and generator phases are scaled to ints by the lcm of
    their denominators.
    """
    fixed = tuple(j for j in range(3) if theta[j] == 0)
    if not fixed:
        return 1
    rows = [
        r
        for r in mirror_rows
        if all(r[j] == 0 for j in range(3) if j not in fixed)
    ]
    scale = lcm(*(t.denominator for t in (*charges, *(t for g in generators for t in g))))
    charges = _scaled(charges, scale)
    generators = [_scaled(g, scale) for g in generators]

    def char_zero(exps, shift_idx=None):
        for gamma in generators:
            total = sum((exps[k] + 1) * gamma[j] for k, j in enumerate(fixed))
            if shift_idx is not None:
                total -= gamma[shift_idx]
            if total % scale:
                return False
        return True

    socle = sum(scale - 2 * charges[j] for j in fixed)
    by_weight: dict[int, list[tuple[int, ...]]] = {}

    def enumerate_monomials(pos, prefix, weight):
        if pos == len(fixed):
            by_weight.setdefault(weight, []).append(tuple(prefix))
            return
        q = charges[fixed[pos]]
        e = 0
        while weight + e * q <= socle:
            enumerate_monomials(pos + 1, prefix + [e], weight + e * q)
            e += 1

    enumerate_monomials(0, [], 0)

    dim = 0
    for weight, monomials in by_weight.items():
        columns = {m: k for k, m in enumerate(m for m in monomials if char_zero(m))}
        if not columns:
            continue
        relations = []
        for pos, j in enumerate(fixed):
            lower = by_weight.get(weight - (scale - charges[j]), ())
            for mono in lower:
                if not char_zero(mono, shift_idx=j):
                    continue
                vector = [0] * len(columns)
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

        # the group of W^T, its phases scaled to ints by the lcm L of their
        # denominators; q = J is a sector, so qL is an int vector too
        group = enumerate_group(entry.polynomial.transpose().exponents)
        scale = self._scale = lcm(*(t.denominator for th in group for t in th))
        self._scaled = {th: _scaled(th, scale) for th in group}
        labels = {v: th for th, v in self._scaled.items()}

        def on_grid(phases):
            scaled = [parse_rat(x) * scale for x in phases]
            if any(x.denominator != 1 for x in scaled):
                raise DomainError(f"{entry.name}: chart phases {phases} are not symmetries")
            return [int(x) for x in scaled]

        scheme = raw["scheme"]
        offset = on_grid(scheme["offset"])
        steps = [on_grid(step) for step in scheme["steps"]]
        self.orders = tuple(int(o) for o in scheme["orders"])
        self._chart: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
        self._chart_index: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
        for index in _index_range(self.orders):
            theta = labels.get(tuple(
                (offset[j] + sum(i * step[j] for i, step in zip(index, steps))) % scale
                for j in range(3)
            ))
            if theta is None:
                raise DomainError(
                    f"{entry.name}: chart point {index} is not a symmetry"
                )
            self._chart[index] = theta
            self._chart_index.setdefault(theta, index)

        self.sectors = {
            s.theta: s for s in _sector_list(entry, group, scale, self._chart_index)
        }

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

        # the group, and so the sector dict, is in sorted order
        self._narrow = tuple(s for s in self.sectors.values() if s.narrow)
        narrow_count = len(self._narrow)
        if narrow_count != int(raw["narrow"]):
            raise DomainError(f"{entry.name}: narrow sector count mismatch")
        self.broad_dims = {
            s.theta: s.dim
            for s in self.sectors.values()
            if not s.narrow and s.dim
        }
        if narrow_count + sum(self.broad_dims.values()) != entry.milnor:
            raise DomainError(f"{entry.name}: state space dimension mismatch")
        self._scaled_q = self._scaled[self.identity.theta]
        self._scaled_broad = frozenset(self._scaled[t] for t in self.broad_dims)
        self._narrow_phases = tuple(self._scaled[s.theta] for s in self._narrow)
        self._node_verdicts: dict = {}

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
        if len(index) != len(self.orders):
            raise DomainError(
                f"{self.name}: sector index {tuple(index)} needs "
                f"{len(self.orders)} coordinates"
            )
        key = tuple(int(i) % o for i, o in zip(index, self.orders))
        return self.sectors[self._chart[key]]

    def _sector_key(self, indices) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(sorted(self.sector(ix).theta for ix in indices))

    def narrow_sectors(self) -> tuple[FjrwSector, ...]:
        return self._narrow

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
        one when every line bundle degree is -1; otherwise (some degree
        >= 0) the value is a frozen fixture or unknown.
        """
        thetas = (tuple(t1), tuple(t2), tuple(t3))
        for t in thetas:
            if not self.sectors[t].narrow:
                raise BroadInsertion(f"{self.name}: broad sector {t} in slot")
        value = self._threepoint([self._scaled[t] for t in thetas])
        if value is None:
            return self._fixture3.get(tuple(sorted(thetas)))
        return Fraction(value)

    def _threepoint(self, phases) -> int | None:
        """:meth:`threepoint` on narrow phases scaled by L, before the
        fixture lookup: 0 or 1 when the degrees decide, else None.

        On the budget sum(phases) = L + 3 sum(q) and sum(q) = L (the
        charges of W^T sum to 1), so the scaled degrees sum to -3L: all
        of them <= -L forces every one to be -L."""
        scale = self._scale
        if sum(map(sum, phases)) - 3 * sum(self._scaled_q) != scale:
            return 0
        d = self._degrees(phases)
        if any(dj % scale for dj in d):
            return 0
        if all(dj == -scale for dj in d):
            return 1
        return None

    def _degrees(self, phases) -> tuple[int, ...]:
        """Genus-zero line bundle degrees d_j = (n - 2) q_j - sum_k
        Theta_j(h_k) of n insertions, all scaled by L: each is an int, and
        integral exactly when L divides it."""
        n = len(phases)
        return tuple(
            (n - 2) * qj - sum(a[j] for a in phases) for j, qj in enumerate(self._scaled_q)
        )

    def _unscaled(self, scaled) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._scale) for x in scaled)

    # -- concave four-point values ---------------------------------------

    def fourpoint_breakdown(self, sectors: Sequence) -> FourPointBreakdown:
        thetas = tuple(self._as_theta(s) for s in sectors)
        if len(thetas) != 4:
            raise ValueError("need exactly four insertions")
        for t in thetas:
            if not self.sectors[t].narrow:
                raise BroadInsertion(f"{self.name}: broad insertion {t}")
        phases = [self._scaled[t] for t in thetas]
        main = self._degrees(phases)
        if any(dj % self._scale for dj in main):
            raise Infeasible(f"{self.name}: degrees {self._unscaled(main)} not integral")
        if sum(map(sum, phases)) - 4 * sum(self._scaled_q) != 2 * self._scale:
            raise Infeasible(f"{self.name}: degree budget violated")
        channels, parts = self._fourpoint(phases, main)
        scale2 = 2 * self._scale**2
        return FourPointBreakdown(
            thetas,
            self._unscaled(main),
            tuple(
                Channel(
                    split,
                    self._unscaled(node),
                    (self._unscaled(sides[0]), self._unscaled(sides[1])),
                )
                for split, node, sides in channels
            ),
            tuple(Fraction(p, scale2) for p in parts),
        )

    def _fourpoint(self, phases, main):
        """The concave four-point kernel on narrow phases scaled by L whose
        main degrees ``main`` (scaled) are integral and meet the budget.

        Returns the three channels as (split, node, side degrees), all
        scaled, and per coordinate the Riemann-Roch numerator over 2 L^2
        (module docstring).  Raises NotConcave when a degree on the main
        component or on a side exceeds -1.  The side degrees need no
        integrality test: the node makes the first side's multiples of L,
        and the two sides add up to the main degrees minus a node phase and
        its inverse, which sum to 0 or L.
        """
        scale, q = self._scale, self._scaled_q
        if any(dj > -scale for dj in main):
            raise NotConcave(f"{self.name}: main component degrees {self._unscaled(main)}")
        channels = []
        for split in _SPLITS:
            (a, b), (c, d) = ([phases[k] for k in half] for half in split)
            node = tuple((qj - x - y) % scale for qj, x, y in zip(q, a, b))
            sides = (
                tuple(qj - x - y - n for qj, x, y, n in zip(q, a, b, node)),
                tuple(qj - x - y - (-n % scale) for qj, x, y, n in zip(q, c, d, node)),
            )
            for side in sides:
                if any(dj > -scale for dj in side):
                    raise NotConcave(
                        f"{self.name}: channel {split} degrees {self._unscaled(side)}"
                    )
            channels.append((split, node, sides))
        parts = tuple(
            qj * (qj - scale)
            - sum(a[j] * (a[j] - scale) for a in phases)
            + sum(node[j] * (node[j] - scale) for _, node, _ in channels)
            for j, qj in enumerate(q)
        )
        return channels, parts

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

        ``pair`` and ``extra`` hold basis positions: ints into
        :meth:`narrow_sectors`, which is the label order of
        :meth:`correlator_table`.  In every term <left, S, k> eta <l, right,
        rest> the group grading forces the sector of k: Theta(k) = (|S|+1) q
        - sum(left) - sum(S) mod 1 (and l lands in its inverse).  Pairings
        that force a node into a broad sector of positive dimension give
        residuals with contributions the narrow table cannot see, so they
        must not be used as identities on it.  Broad sectors of dimension
        zero carry no states and are harmless.

        A pairing is admissible when both of its halves are, and the verdict
        of each (half, extra) is computed once per theory and kept, so the
        scans of :func:`propagate` and :func:`check_residuals` share them.
        """
        for half in pair:
            verdict = self._node_verdicts.get((half, extra))
            if verdict is None:
                verdict = self._node_verdicts[half, extra] = self._nodes_narrow(half, extra)
            if not verdict:
                return False
        return True

    def _nodes_narrow(self, half, extra) -> bool:
        """The node check of one half, on phases scaled to ints by the lcm L
        of their denominators: each node is ((|S|+1) qL - sum(left L) -
        sum(S L)) mod L, looked up among the scaled broad sectors of
        positive dimension."""
        scale, q, phases = self._scale, self._scaled_q, self._narrow_phases
        nodes = [tuple(qj - sum(phases[i][j] for i in half) for j, qj in enumerate(q))]
        for x in extra:
            shift = tuple(qj - xj for qj, xj in zip(q, phases[x]))
            nodes += [tuple(n + s for n, s in zip(node, shift)) for node in nodes]
        broad = self._scaled_broad
        return not any(tuple(n % scale for n in node) in broad for node in nodes)

    def correlator_table(self) -> CorrelatorTable:
        """Three- and four-point values over narrow sectors, closed under
        associativity; unsolved keys stay in the unknown-set."""
        if self._table is not None:
            return self._table
        narrow, scale, phases = self._narrow, self._scale, self._narrow_phases
        labels = tuple(s.theta for s in narrow)
        degrees = {s.theta: s.degree for s in narrow}
        pairing = {
            (s.theta, self.inverse_theta(s.theta)): Fraction(1) for s in narrow
        }
        table = CorrelatorTable(labels, pairing, degrees=degrees)
        # deg(e_h) L, so the budget sum deg = n - 2 is checked on basis positions
        weight = [sum(p) - sum(self._scaled_q) for p in phases]

        def on_budget(n):
            for ins in combinations_with_replacement(range(len(labels)), n):
                if sum(weight[i] for i in ins) == (n - 2) * scale:
                    yield tuple(labels[i] for i in ins), [phases[i] for i in ins]

        for trip, trip_phases in on_budget(3):
            value = self._threepoint(trip_phases)
            if value is None:
                value = self._fixture3.get(trip)
            if value is None:
                table.declare_unknown(trip)
            else:
                table.set(trip, value)
        for quad, quad_phases in on_budget(4):
            main = self._degrees(quad_phases)
            if any(dj % scale for dj in main):
                table.set(quad, 0)
                continue
            try:
                _, parts = self._fourpoint(quad_phases, main)
            except NotConcave:
                table.declare_unknown(quad)
            else:
                table.set(quad, Fraction(sum(parts), 2 * scale**2))
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
        return all((2 * q[j] - content[j]).denominator == 1 for j in range(3))

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


def _sector_list(
    entry: CatalogEntry, group, scale: int, chart_index: Mapping
) -> tuple[FjrwSector, ...]:
    """The sectors of ``group``, every diagonal symmetry of W^T, in group
    order, with chart coordinates looked up in ``chart_index``; degrees are
    summed on phases scaled by ``scale``."""
    mirror = entry.polynomial.transpose()
    charges = entry.polynomial.mirror_charges
    generators = group_generators(mirror.exponents)
    q_total = sum(_scaled(charges, scale))
    out = []
    for theta in group:
        index = chart_index.get(theta)
        if all(theta):
            degree = Fraction(sum(_scaled(theta, scale)) - q_total, scale)
            out.append(FjrwSector(theta, True, degree, index))
        else:
            dim = sector_dimension(mirror.exponents, charges, generators, theta)
            out.append(FjrwSector(theta, False, None, index, dim))
    return tuple(out)

