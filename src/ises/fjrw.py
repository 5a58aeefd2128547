"""Landau-Ginzburg A-model state spaces and genus-zero correlators.

For a catalog entry with polynomial W, this module works with the
transposed polynomial W^T acted on by its maximal group of diagonal
symmetries.  Group elements h are phase vectors Theta(h) in [0,1)^3; the
state space carries one generator e_h per *narrow* sector (no phase
component vanishes) plus the classes of the *broad* sectors (some
component vanishes, so the fixed locus is positive-dimensional), whose
correlators enter only through frozen fixture values.

Computed from first principles:

* sector classification, gradings deg(e_h) = sum_i (Theta_i(h) - q_i^T),
  and the pairing (e_h pairs with e_{h^-1});
* the dimension of a broad sector h that fixes the coordinates S: the
  number of standard monomials x^a of the Milnor ring of W^T restricted to
  Fix(h), that is of the Groebner basis of (d_j W^T for j in S, X_k for k
  not in S), whose class x^a dV is invariant: (a + 1) Theta is integral on
  S for each of the three group generators Theta (Krawitz,
  arXiv:0906.0796); it depends on S only;
* line bundle degrees d_j = q_j^T (2g - 2 + n) - sum_k Theta_j(h_k) and
  their integrality (the correlator vanishes unless all d_j are integers);
* three-point values on narrow sectors, by the genus-zero axioms (Fan,
  Jarvis and Ruan, arXiv:0712.4021): on the degree budget sum_j d_j = -1 -
  2 sum_i q_i^T = -3, so either every d_j = -1 and concavity gives 1, or
  some d_j >= 0.  When the degrees are 0, -1 and -2, Index Zero gives -a,
  with x_j^a x_k the monomial of W^T led by the degree-0 variable x_j,
  where x_k is the degree -2 variable (see ``FjrwTheory._threepoint``); any
  other key is an unknown to be solved by associativity;
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
* the ring generators rho_i, by the Berglund-Huebsch-Krawitz isomorphism
  Jac(W) = FJRW(W^T, G_max): it sends the variable X_i of W to the sector
  J g_i, with g_i the i-th generator of the group of W^T (Krawitz,
  arXiv:0906.0796); X_i is a generator only when that sector holds a
  state, for a sector without states means X_i lies in the Jacobian ideal
  of W;
* values of weight-one words in the ring generators rho_i: the group
  grading puts a product e_a e_b in the one sector a + b - J, so a word's
  sector is its group point sum_i w_i rho_i - (|w| - 1) J, whatever the
  order of its letters; each word is split into three insertions, every
  insertion is reduced to a multiple of its sector's generator through
  narrow intermediate products, and only the constants of the reduction
  orders and the values of the factorizations are cross-checked to agree.

The group of W^T is read on its int grid, as
:meth:`ises.isespoly.InvertiblePolynomial.group` gives it: L is the lcm of
the denominators of the inverse exponent matrix, and a phase Theta is held
as the int Theta L in [0, L).  So is q^T (the grading element J = q^T is a
group element), and a line bundle degree d_j is held as the int d_j L, in
units of 1/L, so it is integral exactly when L divides it.  The four-point
value above is then one ``Fraction``

    sum_j [ qL (qL - L) - sum_k a_k (a_k - L) + sum_channels n (n - L) ] / (2 L^2)

over the scaled phases qL, a_k and node phases n of coordinate j (the 1/6
terms cancel: 1 - 4 + 3 = 0).  The table seed (on basis positions, the
correlator table's own keys), the node check of ``narrow_nodes``, the
broad-sector count and the mirror map (on the int generators of the
group), the chart points of ``sector`` and the group points of words run
on ints only.  The group never passes through ``Fraction``s: each int
element gets its ``Fraction`` label once, when the theory is built, and
the ints and labels are looked up by each other from then on.
``Fraction``s are made at the edge only, which is: the sector labels and
gradings of ``FjrwSector`` (the keys of ``sectors``); the labels, gradings
and pairing handed to ``CorrelatorTable`` once per theory; the correlator
values; the word reductions, which read the finished table by label; and
the degrees that the exception messages report.

Entries whose catalog record marks the reconstruction as excluded (their
state space is generated by broad classes) raise NeedsBroadFixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod
from typing import Mapping, Sequence

from . import jacobi  # groebner through its module, so a wrapper on ises.jacobi sees the calls
from .isespoly import CatalogEntry, InvertiblePolynomial
from .jacobi import standard_monomials
from .numcore import DomainError, MultiPoly, parse_rat, scaled_ints
from .wdvv import CorrelatorTable, InconsistentSystem, propagate

__all__ = [
    "FjrwSector",
    "FjrwTheory",
    "NeedsBroadFixture",
    "NotConcave",
]


class NotConcave(DomainError):
    """Some line bundle degree exceeds -1 on a component, so the direct
    Riemann-Roch evaluation does not apply."""


class NeedsBroadFixture(DomainError):
    """The entry's state space is generated by broad classes; its
    correlators are not reconstructible from narrow data alone."""


_SPLITS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def sector_dimension(name: str, mirror: InvertiblePolynomial, group, fixed: Sequence[int]) -> int:
    """State-space dimension of a sector that fixes the coordinates
    ``fixed``, by the broad-sector rule of the module docstring.  ``mirror``
    is the transposed polynomial of the entry ``name`` and ``group`` is its
    group on the int grid, as :meth:`InvertiblePolynomial.group` gives it;
    the invariance test reads the three generators theta L: (a + 1) theta L
    is a multiple of L.  With no fixed coordinate the staircase is the one
    monomial 1, so a narrow sector counts one; ``name`` is only for the
    error of a staircase that is not finite."""
    w, q = mirror.polynomial().map_coeffs(Fraction), mirror.charges
    basis = jacobi.groebner([w.partial(j) if j in fixed else MultiPoly.variable(j) for j in range(3)], q)
    scale, generators, _ = group
    return sum(
        all(sum((a[j] + 1) * g[j] for j in fixed) % scale == 0 for g in generators)
        for a in standard_monomials(basis, q, name)
    )


@dataclass(frozen=True)
class FjrwSector:
    """One group element h with its phases and classification.

    ``degree`` is the grading of the narrow generator e_h; None for broad
    sectors (their forms carry degrees the narrow data cannot see).
    ``dim`` counts the states of the sector: one for narrow, the number of
    invariant fixed-locus Milnor classes otherwise (often zero).
    """

    theta: tuple[Fraction, ...]
    narrow: bool
    degree: Fraction | None
    dim: int = 1


class FjrwTheory:
    """Sectors, ring generators and correlators for one catalog entry.

    The state space is derived from the exponent matrix alone: the sectors
    are the group of W^T, the grading element J is the sector q^T, the top
    sector is its inverse 1 - q^T, the broad dimensions are counted on the
    staircases of the fixed loci, and the ring generators rho are the
    sectors of Krawitz's mirror map, and the three-point values follow from
    the degree axioms (module docstring).  Of the catalog's fjrw block only
    the chart's offset and steps (``scheme``), the four-point fixtures and
    ``excluded`` (with its ``reason``) are read; the chart only translates
    the integer indices of the fixtures and of :meth:`sector` into phase
    vectors.
    """

    def __init__(self, entry: CatalogEntry):
        raw = entry.fjrw or {}
        if not raw or raw.get("excluded"):
            raise NeedsBroadFixture(f"{entry.name}: {raw.get('reason', 'no state-space data')}")
        self.entry = entry
        self.name = entry.name
        self.mirror_charges = entry.polynomial.mirror_charges

        # the group of W^T on its int grid and its Fraction labels (module docstring)
        mirror = entry.polynomial.transpose()
        self._mirror_rows = mirror.exponents  # the monomials of W^T, for Index Zero
        scale, generators, elements = group = mirror.group()
        self._scale = scale
        phase = [Fraction(k, scale) for k in range(scale)]
        self._labels = labels = {g: tuple(phase[k] for k in g) for g in elements}
        self._scaled = {th: g for g, th in labels.items()}

        def on_grid(key, phases):
            """The int point of the chart's ``key`` (its offset or a step),
            whose phases are ``phases``; a DomainError naming them unless
            they are three rational strings that make a symmetry."""
            try:
                point = tuple(parse_rat(x) * scale % scale for x in phases)
            except (AttributeError, TypeError, ValueError, ZeroDivisionError):
                point = None
            if not isinstance(phases, list) or point not in labels:
                raise DomainError(f"{entry.name}: chart {key} {phases!r} is not a symmetry")
            return tuple(map(int, point))

        try:
            scheme, fixtures = raw["scheme"], raw.get("fixtures", {})
            for key, block in (("scheme", scheme), ("fixtures", fixtures)):
                if not isinstance(block, Mapping):
                    raise DomainError(f"{entry.name}: the fjrw {key} must be an object, got {block!r}")
            offset, steps = scheme["offset"], scheme["steps"]
        except KeyError as exc:
            raise DomainError(f"{entry.name}: the fjrw block has no {exc}") from None
        if not isinstance(steps, list):
            raise DomainError(f"{entry.name}: chart steps {steps!r} must be a list")
        # the group is closed, so a symmetric offset and steps make every chart point one
        self._offset, self._steps = on_grid("offset", offset), [on_grid("step", step) for step in steps]

        self.sectors = {s.theta: s for s in _sector_list(entry.name, mirror, group, labels)}
        self.identity = self.sectors[self.mirror_charges]
        self.top = self.sectors[self.inverse_theta(self.mirror_charges)]
        self._scaled_q = q = self._scaled[self.identity.theta]
        # Krawitz's mirror map sends X_i to the sector J g_i, g_i the i-th
        # generator of the group of W^T; a sector without states means X_i
        # lies in the Jacobian ideal of W, and X_i is no ring generator
        images = (self.sectors[labels[tuple((a + b) % scale for a, b in zip(q, g))]] for g in generators)
        self.rho = {i: s for i, s in enumerate(images, 1) if s.dim}
        self.generators = tuple(self.rho)
        self._scaled_rho = [self._scaled[s.theta] for s in self.rho.values()]

        # the group, and so the sector dict, is in sorted order
        self._narrow = tuple(s for s in self.sectors.values() if s.narrow)
        self.broad_dims = {s.theta: s.dim for s in self.sectors.values() if not s.narrow and s.dim}
        if len(self._narrow) + sum(self.broad_dims.values()) != entry.polynomial.milnor_number:
            raise DomainError(f"{entry.name}: state space dimension mismatch")
        self._scaled_broad = frozenset(self._scaled[t] for t in self.broad_dims)
        self._narrow_phases = phases = tuple(self._scaled[s.theta] for s in self._narrow)
        # the node of every half, and the nodes that each extra rules out,
        # filled on first use (narrow_nodes)
        self._half_nodes = {
            (i, k): tuple((qj - a - b) % scale for qj, a, b in zip(q, phases[i], phases[k]))
            for i, k in product(range(len(phases)), repeat=2)
        }
        self._blocked: dict[tuple[int, ...], frozenset] = {}

        # e6-chain233's four-point value with two broad insertions stays a
        # fixture until the table covers the broad state space (ROADMAP item 7)
        rows = fixtures.get("fourPoint", [])
        if not isinstance(rows, list) or not all(isinstance(f, Mapping) for f in rows):
            raise DomainError(f"{entry.name}: the fjrw fixtures fourPoint must be a list of objects, got {rows!r}")
        self._fixture4 = dict(map(self._fixture, rows))
        self._table: CorrelatorTable | None = None
        self._reduce_cache: dict = {}

    # -- sector helpers ------------------------------------------------

    def sector(self, index: Sequence[int]) -> FjrwSector:
        """The sector at the chart index ``index``: the chart's offset plus
        index_k times its step k, mod 1, so each index_k is read mod the order
        of step k in the group; a DomainError naming the entry unless
        ``index`` holds one int per step."""
        count = len(self._steps)
        if not isinstance(index, (list, tuple)) or len(index) != count or not all(type(i) is int for i in index):
            raise DomainError(f"{self.name}: sector index {index!r} is not a list of {count} integers")
        point = tuple(
            (p + sum(i * step[j] for i, step in zip(index, self._steps))) % self._scale
            for j, p in enumerate(self._offset)
        )
        return self.sectors[self._labels[point]]

    def _fixture(self, row: Mapping) -> tuple[tuple[tuple[Fraction, ...], ...], Fraction]:
        """(sector key, value) of one row of the four-point fixtures; a
        DomainError naming the entry and the row unless it holds a list of
        sector indices and a rational string."""
        insertions, value = row.get("insertions"), row.get("value")
        if isinstance(insertions, list) and isinstance(value, str):
            sectors = tuple(sorted(self.sector(ix).theta for ix in insertions))
            try:
                return sectors, parse_rat(value)
            except (ValueError, ZeroDivisionError):
                pass
        raise DomainError(
            f"{self.name}: the fjrw fixtures fourPoint row {dict(row)!r} needs a list of "
            "sector indices as insertions and a rational string as value"
        )

    def inverse_theta(self, theta) -> tuple[Fraction, ...]:
        return tuple(-t % 1 for t in theta)

    # -- three-point values over narrow sectors -------------------------

    def _threepoint(self, phases) -> int | None:
        """The three-point value of narrow phases scaled by L on the degree
        budget, when the degrees decide it: 0 when the line bundle degrees
        are not integral, 1 when every degree is -1 (concavity), -a when
        they are 0, -1 and -2, with x_j^a x_k the monomial of W^T that the
        degree-0 variable x_j leads (Index Zero), else None (an unknown).

        On the budget sum(phases) = L + 3 sum(q) and sum(q) = L (the
        charges of W^T sum to 1), so the scaled degrees sum to -3L: all
        of them <= -L forces every one to be -L.  A monomial x^r of W^T
        has r.q = 1 and r.Theta a positive integer on each narrow
        insertion, so r.d <= 1 - 3 = -2 over three insertions; with d_j = 0
        the monomial that x_j leads must then hold the one variable x_k of
        degree -2, to the first power.  With degrees 0, -1 and -2 the
        bundles have h^0 = 1 (L_j) and h^1 = 1 (L_k) and nothing else, so
        the moduli and obstruction spaces both have rank D = 1, and the
        Index Zero axiom gives (-1)^D times the degree of the Witten map
        H^0(L_j) -> H^1(L_k).  That map is d W^T / d x_k = x_j^a, so s ->
        s^a, of degree a (Fan-Jarvis-Ruan, arXiv:0712.4021; Krawitz,
        arXiv:0906.0796)."""
        scale = self._scale
        d = self._degrees(phases)
        if any(dj % scale for dj in d):
            return 0
        if all(dj == -scale for dj in d):
            return 1
        if sorted(d) == [-2 * scale, -scale, 0]:
            j = d.index(0)
            return -self._mirror_rows[j][j]
        return None

    def _degrees(self, phases) -> tuple[int, ...]:
        """Genus-zero line bundle degrees d_j = (n - 2) q_j - sum_k
        Theta_j(h_k) of n insertions, scaled by L."""
        n = len(phases)
        return tuple(
            (n - 2) * qj - sum(a[j] for a in phases) for j, qj in enumerate(self._scaled_q)
        )

    def _unscaled(self, scaled) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._scale) for x in scaled)

    # -- concave four-point values ---------------------------------------

    def _fourpoint(self, phases, main) -> Fraction:
        """The concave four-point value of narrow phases scaled by L whose
        main degrees ``main`` (scaled) are integral and meet the budget.

        Returns the Riemann-Roch sum over 2 L^2 of the module docstring.
        Raises NotConcave when a degree on the main component or on either
        side of a channel exceeds -1.  The side degrees need no
        integrality test: the node makes the first side's multiples of L,
        and the two sides add up to the main degrees minus a node phase and
        its inverse, which sum to 0 or L.
        """
        scale, q = self._scale, self._scaled_q
        if any(dj > -scale for dj in main):
            raise NotConcave(f"{self.name}: main component degrees {self._unscaled(main)}")
        nodes = []
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
            nodes.append(node)
        total = sum(
            qj * (qj - scale)
            - sum(a[j] * (a[j] - scale) for a in phases)
            + sum(node[j] * (node[j] - scale) for node in nodes)
            for j, qj in enumerate(q)
        )
        return Fraction(total, 2 * scale**2)

    # -- the narrow correlator table --------------------------------------

    def narrow_nodes(self, pair, extra) -> bool:
        """Whether an associativity pairing only ever routes through narrow
        intermediate sectors.

        ``pair`` and ``extra`` hold basis positions: ints into the labels of
        :meth:`correlator_table`, the narrow sectors in group order; each
        half of ``pair`` is two positions.  In every term <left, S, k> eta
        <l, right, rest> the group grading forces the sector of k: Theta(k)
        = (|S|+1) q - sum(left) - sum(S) mod 1 (and l lands in its inverse).
        Pairings that force a node into a broad sector of positive dimension
        give residuals with contributions the narrow table cannot see, so
        they must not be used as identities on it.  Broad sectors of
        dimension zero carry no states and are harmless.

        The check runs on scaled int group elements: the node (q -
        sum(left)) L mod L of every half, built with the theory, and per
        extra the frozenset of those broad sectors shifted back by sum(q -
        x) L over each Leibniz subset S of the extra, which a half's node
        must avoid; each extra has its set built on first use and kept.
        """
        blocked = self._blocked.get(extra)
        if blocked is None:
            blocked = self._blocked[extra] = self._blocked_nodes(extra)
        first, second = pair
        return self._half_nodes[first] not in blocked and self._half_nodes[second] not in blocked

    def _blocked_nodes(self, extra) -> frozenset:
        """The half nodes that ``extra`` rules out (see :meth:`narrow_nodes`),
        as scaled int phase vectors."""
        scale, q, phases = self._scale, self._scaled_q, self._narrow_phases
        shifts = {(0, 0, 0)}
        for x in extra:
            step = tuple(qj - xj for qj, xj in zip(q, phases[x]))
            shifts |= {tuple((s + t) % scale for s, t in zip(shift, step)) for shift in shifts}
        broad = self._scaled_broad
        return frozenset(tuple((b - s) % scale for b, s in zip(node, shift)) for node in broad for shift in shifts)

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

        def on_budget(n):
            """Sorted basis positions on the table's degree budget, as its
            keys (module wdvv), with their scaled phases."""
            for ins in combinations_with_replacement(range(len(labels)), n):
                if table._budget_ok(ins):
                    yield (ins, 0), [phases[i] for i in ins]

        for key, trip_phases in on_budget(3):
            value = self._threepoint(trip_phases)
            if value is None:
                table._declare_key(key)
            else:
                table._set_key(key, value)
        for key, quad_phases in on_budget(4):
            main = self._degrees(quad_phases)
            if any(dj % scale for dj in main):
                table._set_key(key, 0)
                continue
            try:
                table._set_key(key, self._fourpoint(quad_phases, main))
            except NotConcave:
                table._declare_key(key)
        self._table = propagate(table, admissible=self.narrow_nodes).freeze()
        return self._table

    # -- ring reduction and weight-one words -------------------------------

    def reduce_word(self, word: Sequence[int]):
        """Express rho^word as (constant, sector theta); None when blocked.

        The sector is the group point of the word (:meth:`_point`), the same
        in every reduction order.  A word of two or more letters whose point
        is broad is blocked.  Otherwise reduction multiplies one generator
        at a time; every intermediate product must stay narrow and every
        step constant must be a known three-point value.  The constants of
        all reduction orders are cross-checked: more than one distinct
        constant raises InconsistentSystem.
        """
        word = self._word(word)
        if word in self._reduce_cache:
            return self._reduce_cache[word]
        target = self._labels[self._point(word)]
        if sum(word) < 2:
            result = (Fraction(1), target)
        elif not self.sectors[target].narrow:
            result = None
        else:
            table = self.correlator_table()
            dual = self.inverse_theta(target)
            constants = set()
            for pos, count in enumerate(word):
                gen_sector = self.rho[self.generators[pos]]
                if not count or not gen_sector.narrow:
                    continue
                sub = self.reduce_word(word[:pos] + (count - 1,) + word[pos + 1 :])
                if sub is None or not self.sectors[sub[1]].narrow:
                    continue
                constant = table.value((sub[1], gen_sector.theta, dual))
                if constant is not None:
                    constants.add(sub[0] * constant)
            if len(constants) > 1:
                raise InconsistentSystem(
                    f"{self.name}: word {word} reduces ambiguously: {constants}"
                )
            result = (constants.pop(), target) if constants else None
        self._reduce_cache[word] = result
        return result

    def _point(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """The sector of rho^word as an int point: (sum_i w_i rho_i - (|w| -
        1) q) L mod L.  It is the product rule (phases add, minus one twist
        by the grading element q) folded over the word, so every reduction
        order and every factorization of the word lands on it."""
        n, scale = sum(word), self._scale
        return tuple(
            (sum(w * r[j] for w, r in zip(word, self._scaled_rho)) - (n - 1) * qj) % scale
            for j, qj in enumerate(self._scaled_q)
        )

    def _word(self, word) -> tuple[int, ...]:
        """``word`` as a tuple; a DomainError naming the entry unless it holds
        one nonnegative int exponent per ring generator."""
        count = len(self.generators)
        if isinstance(word, (list, tuple)) and len(word) == count and all(type(v) is int and v >= 0 for v in word):
            return tuple(word)
        raise DomainError(f"{self.name}: word {word!r} needs {count} nonnegative integer exponents")

    def weight_one_words(self) -> tuple[tuple[int, ...], ...]:
        """Exponent words in the ring generators with total charge one: the
        monomials of charge one in the variables X_i with i in
        ``generators``, as their exponents of those variables."""
        return tuple(
            tuple(mono[i - 1] for i in self.generators)
            for mono in self.entry.polynomial.degree_one_monomials()
            if sum(mono[i - 1] for i in self.generators) == sum(mono)
        )

    def word_feasible(self, word: Sequence[int]) -> bool:
        """Line bundle integrality for any three-insertion factorization
        with the top sector: its degrees are d_j = q_j - point_j mod 1, with
        point the group point of the word, so it is integral exactly when
        the point is the grading element J = q."""
        return self._point(self._word(word)) == self._scaled_q

    def word_value(self, word: Sequence[int]) -> Fraction | None:
        """Value of <Xi(rho), rho_top> for a weight-one word Xi.

        None when no factorization is computable from narrow data and
        fixtures.  Every factorization lands on the word's one group point,
        so only the values are cross-checked: computable factorizations
        that disagree raise InconsistentSystem.
        """
        word = self._word(word)
        if not self.word_feasible(word):
            return Fraction(0)
        table = self.correlator_table()
        values = set()
        for parts in _three_partitions(word):
            reduced = [self.reduce_word(p) for p in parts]
            if None in reduced:
                continue
            constants, thetas = zip(*reduced)
            if all(self.sectors[t].narrow for t in thetas):
                if 0 in constants:
                    # a part that multiplies to zero is not a factorization
                    # of the (nonzero) monomial Xi, so this route says nothing
                    continue
                value = table.value(thetas + (self.top.theta,))
                if value is not None:
                    values.add(prod(constants) * value)
            elif sum(word) == 3:
                # three single letters, some broad: a four-point fixture
                key = tuple(sorted(thetas + (self.top.theta,)))
                if key in self._fixture4:
                    values.add(self._fixture4[key])
        if len(values) > 1:
            raise InconsistentSystem(
                f"{self.name}: word {word} factorizations disagree: {values}"
            )
        return values.pop() if values else None

    def fourpoint_words(self) -> dict[tuple[int, ...], Fraction | None]:
        """All weight-one words with their four-point values (None when the
        narrow data plus fixtures cannot decide)."""
        return {w: self.word_value(w) for w in self.weight_one_words()}


def _three_partitions(word: tuple[int, ...]) -> set:
    """Unordered splittings of an exponent vector into three nonzero parts."""
    splits = set()
    for first in product(*(range(w + 1) for w in word)):
        rest = tuple(w - f for w, f in zip(word, first))
        for second in product(*(range(r + 1) for r in rest)):
            split = (first, second, tuple(r - s for r, s in zip(rest, second)))
            if all(map(any, split)):
                splits.add(tuple(sorted(split)))
    return splits


def _sector_list(name: str, mirror, group, labels) -> tuple[FjrwSector, ...]:
    """The sectors of ``group``, every diagonal symmetry of ``mirror`` =
    W^T on its int grid, in group order, each keyed by its phase-vector
    label in ``labels``; degrees are summed on the int phases.  A broad
    dimension depends only on the fixed coordinates (module docstring), so
    it is counted once for each set of them."""
    scale = group[0]
    q_total = sum(scaled_ints(mirror.charges, scale)[0])
    dims: dict[tuple[int, ...], int] = {}
    out = []
    for g, theta in labels.items():
        if all(g):
            out.append(FjrwSector(theta, True, Fraction(sum(g) - q_total, scale)))
        else:
            fixed = tuple(j for j in range(3) if not g[j])
            if fixed not in dims:
                dims[fixed] = sector_dimension(name, mirror, group, fixed)
            out.append(FjrwSector(theta, False, None, dims[fixed]))
    return tuple(out)

