"""Milnor algebras of the marginal deformations W_sigma = W + sigma*phi_m.

For an invertible simple-elliptic polynomial W with a marginal monomial
phi_m, the one-parameter family W_sigma is treated exactly.  This module
computes

* reduced Groebner bases of the Jacobian ideal (d1 W_sigma, d2 W_sigma,
  d3 W_sigma) under the graded reverse-lexicographic order with
  X1 > X2 > X3, graded by the charge vector, and their staircases of
  standard monomials (monomial bases of the Milnor algebra, of size mu in
  {8, 9, 10}), both from one ``groebner`` call.  The ideal is
  weighted-homogeneous, so each of its degrees is a linear span: one
  Gauss-Jordan elimination over the coefficient field per weighted degree,
  up to the socle degree 1 plus the largest charge, pivots on the leading
  monomials of that degree and leaves its standard monomials (Lazard
  1983), and a degree that lower leading monomials already fill is
  skipped.  mu standard monomials, none of degree above 1, certify both.
  The staircase of W over Q is the display basis B0 below.  W_sigma over
  Q(sigma) (``w_sigma``), its ``partials``, their Groebner basis and its
  staircase are computed on first read: only the bench's output checks and
  the tests read them, as they do the Q(sigma)-valued ``decompose``;
* the residue jets.  With t the top monomial of B0, one elimination on the
  int sigma-layers of the partials solves

      X^e = c_e(sigma) * t + sum_i g_i(sigma) * d_i W_sigma   mod sigma^2

  for every degree-one monomial X^e, one right-hand column each, and for
  the Hessian D(sigma) = det Hess(W_sigma), by its sigma-layers.  D is
  cubic in sigma, so its layers come from int determinants: D_0 = det
  Hess(W) and D_1 = (D(1) - D(-1))/2 - det Hess(phi_m).  The g_i are the
  columns of the ansatz that the decompositions and the flats below share,
  at degree 0 and sigma-degree 1, with its rows cut below sigma^2.  c_e is
  unique: B0 is a basis of Jac(W), so c_e(0) is the coordinate of X^e on
  t; and the family is flat at sigma = 0 (the partials of W form a regular
  sequence, so every syzygy of theirs is Koszul and sum_i g_i d_i phi_m
  with sum_i g_i d_i W = 0 lies in the Jacobian ideal of W), so c_e'(0) is
  unique too.  The residue, normalized so that residue(det Hess(W_sigma))
  = mu, is then R_e = mu * c_e / c_Hess; with this normalization the
  residue of the marginal monomial X^m is 1/(K*(1-x)) with x = C*sigma^l,
  which pins the constant K = 1/R_m(0) of each family.  A residue is
  Q(sigma)-linear and vanishes on the ideal and off degree one, so it is
  R_e on X^e, and a monomial of another degree has residue 0;
* decompositions (1 - C*sigma^l) * phi_{r+m} = sum_i g_{r,i} * d_i W_sigma
  exhibiting the left-hand side as a Jacobian-ideal member, every basis
  label of one degree in one int elimination at sigma-degree l - 1, the
  per-degree solve that the flat sections share, each solution verified in
  ints (``decompose``).  No flat section or four-point value reads them;
* first-order flat deformations
  delta_r = phi_r - sigma * sum_{r' != r} c_{r,r'}(0) * phi_{r'} + O(sigma^2)
  where the c's are the coefficients of -sum_i d_i g_{r,i} over the
  monomial basis.  The display basis is a basis at sigma = 0, so
  c_{r,r'}(0) is the coordinate in Jac(W) of p(0) = -sum_i d_i g_{r,i}(0),
  read from a second int elimination with the basis labels as its last
  columns, and only the sigma^0 layer g(0) of a decomposition is read.
  Any g(0) with sum_i g_i(0) * d_i W = X^(r+m) gives the same p(0)
  mod J(W): two such differ by a syzygy of the partials of W, which form
  a regular sequence, so the syzygy is a sum of Koszul ones, g_i = d_j W*h
  and g_j = -d_i W*h, each adding d_j W * d_i h - d_i W * d_j h, a member
  of J(W), to p(0).  So the flats solve that sigma^0 system alone
  (``flat_first_order``); X^(r+m) has degree > 1, so it lies in J(W);
* the genus-zero four-point functions of the deformed singularity at
  sigma = 0, normalized so that <1, phi_m>|_{sigma=0} = 1.

The three-point normalization multiplies the residue by the constant K.
The volume factor that K approximates is constant through first order in
sigma, so values and first sigma-derivatives at sigma = 0 -- which is all
the four-point functions consume -- are exact.

Four-point functions are read off the residue jets.  If the product of
the three flat sections is sum_e (a_e + b_e*sigma + O(sigma^2)) X^e, its
four-point value is K * sum_e (a_e * R_e'(0) + b_e * R_e(0)): it reads
R_e, c_e and c_Hess mod sigma^2 only, since c_Hess(0) is nonzero, so mod
sigma^2 is exact for K and every four-point value.

The display basis is the staircase B0 of the Jacobian ideal of W itself,
from ``groebner`` over Q; its last member is the top monomial.  B0 is a
basis of Jac(W), the algebra at sigma = 0, so the sigma = 0 pairing on it is
invertible for every entry and marginal.  The staircase over Q(sigma) can
differ from it (a marginal term may promote a mixed monomial past a pure
power in the reverse-lexicographic order); nothing is read in that basis.
Once ``groebner`` has certified a staircase, the partials form a regular
sequence, so their quotient is a complete intersection and Gorenstein: its
socle is one monomial, in the top degree sum_i (1 - 2 q_i) = 1, where the
Hilbert series prod_i (1 - t^(1 - q_i)) / (1 - t^q_i) has the coefficient
1.  So the last standard monomial, in the degree-graded order, is the one
of degree one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import prod
from typing import Callable, Sequence

from .isespoly import NVARS, CatalogEntry, MarginalData
from .numcore import (
    DomainError,
    MultiPoly,
    NoSolution,
    RatFun,
    _exponent_vector,
    monomials_of_weighted_degree,
    nullspace,  # noqa: F401  (traced bench runs wrap it by name)
    scaled_ints,
    solve_columns,
    solve_linear,  # noqa: F401  (traced bench runs wrap it by name)
)

__all__ = [
    "Exps",
    "FlatSectionApprox",
    "IntegralDegree",
    "JacobianAlgebra",
    "groebner",
    "order_key",
]

Exps = tuple[int, int, int]


class IntegralDegree(DomainError):
    """First-order flat data is undefined at basis monomials of integral
    weighted degree (the unit and the top-degree monomial)."""


# ---------------------------------------------------------------------------
# Monomial order and Groebner bases
# ---------------------------------------------------------------------------


def order_key(weights: Sequence[Fraction]) -> Callable[[Exps], tuple]:
    """Sort key realizing graded reverse-lexicographic order, X1 > X2 > X3,
    graded by the weighted degree ``sum weights[i]*e[i]``.

    Larger key means larger monomial: first compare weighted degrees, then
    prefer the monomial with fewer powers of the last variable, and so on.
    The degrees are compared as ints, scaled by the lcm of the weights'
    denominators, which is the same order.
    """
    (w1, w2, w3), _ = scaled_ints(weights)

    def key(e: Exps) -> tuple:
        return (w1 * e[0] + w2 * e[1] + w3 * e[2], -e[2], -e[1], -e[0])

    return key


def _eliminate(row: dict, c: int, prow: dict) -> None:
    """row -= row[c] * prow, in place, for ``prow`` monic in column c."""
    f = row.pop(c)
    for k, v in prow.items():
        if k != c:
            x = row.get(k, 0) - f * v
            if x:
                row[k] = x
            else:
                row.pop(k, None)


def _monic_rref(rows) -> dict[int, dict]:
    """The reduced row echelon form of the sparse rows ``rows`` ({column:
    cell}) over their coefficient field, as {pivot column: row}: each row
    is monic on its pivot column, its least one, and has no cell in another
    pivot column.  A new row is cleared in the pivot columns it has, and a
    new pivot row clears its column from the others."""
    pivots: dict[int, dict] = {}
    for row in rows:
        for c in [k for k in row if k in pivots]:
            _eliminate(row, c, pivots[c])
        if row:
            c = min(row)
            p = row[c]
            if p != 1:
                row = {k: v / p for k, v in row.items()}
            for other in pivots.values():
                if c in other:
                    _eliminate(other, c, row)
            pivots[c] = row
    return pivots


def groebner(gens: Sequence[MultiPoly], weights, name: str) -> tuple[tuple[MultiPoly, ...], tuple[Exps, ...]]:
    """The reduced Groebner basis of the ideal that ``gens`` generate,
    sorted by leading monomial, and its staircase, the exponents that no
    leading monomial divides, in ascending ``order_key``: one weighted
    degree at a time (Lazard 1983).

    Precondition: three weighted-homogeneous generators, each nonzero, that
    form a regular sequence, as the partials of W and of W_sigma do, with
    cells in a field (``Fraction``, ``RatFun``).  Outside it a DomainError
    is raised: for any other number of generators or one that is zero or
    not weighted-homogeneous; for an int or float cell, which would divide
    to a float, naming ``name``; and, naming ``name``, when the staircase
    fails its certificate below.

    The degree-d part I_d of the ideal is spanned by the products X^a * g of
    degree d.  With the monomials of degree d as columns in descending
    ``order_key``, the reduced row echelon form of their rows, over the
    coefficient field with each pivot row made monic, pivots on the leading
    monomials of I_d, and its row at t is t minus the normal form of t.  It
    is the member of the reduced basis with leading monomial t exactly when
    no leading monomial of a lower degree divides t, and the monomials of
    degree d that it does not pivot on are the standard ones.  A degree in
    which lower leading monomials divide every monomial has neither, and is
    not eliminated.

    The degrees run up to the socle degree s = sum_i deg g_i - sum_i q_i
    plus the largest weight q_i, which is 1 + max q_i for the partials.
    The certificate is that the staircase has prod_i deg g_i / q_i
    monomials (mu for the partials) and none of degree above s.  It is
    exact.  A regular sequence passes: its quotient has the Hilbert series
    prod_i (1 - t^deg g_i) / (1 - t^q_i), a polynomial of degree s, so every
    monomial of degree above s lies in the ideal.  Then a minimal leading
    monomial t has some t / X_i of degree at most s, so the degrees reached
    hold every member.  Conversely, each interval (s, s + q_i] holds a
    power of X_i (the monomial 1 when s < 0), so with no standard monomial
    there the leading monomials hold a pure power of every variable: the
    quotient is finite, and three homogeneous generators with a finite
    quotient form a regular sequence.
    """
    key = order_key(weights)
    w, _ = scaled_ints(weights)
    degrees = [{sum(a * b for a, b in zip(w, e)) for e in g.terms} for g in gens]
    if len(gens) != NVARS or any(len(ds) != 1 for ds in degrees):
        raise DomainError(f"groebner needs {NVARS} nonzero weighted-homogeneous generators")
    cell = next(((e, c) for g in gens for e, c in g.terms.items() if isinstance(c, (int, float))), None)
    if cell:
        e, c = cell
        raise DomainError(f"{name}: groebner needs cells in a field, not the {type(c).__name__} {c!r} at {e}")
    degrees = [min(ds) for ds in degrees]
    gens = [g.scale(1 / g.terms[max(g.terms, key=key)]) for g in gens]  # rows X^a * g are monic
    socle = sum(degrees) - sum(w)
    of_degree = {d: monomials_of_weighted_degree(w, d) for d in range(socle + max(w) + 1)}
    leads, stairs, members = [], [], []  # Exps, Exps, MultiPoly
    for d, exps in of_degree.items():
        fresh = [e for e in exps if not any(t[0] <= e[0] and t[1] <= e[1] and t[2] <= e[2] for t in leads)]
        if not fresh:
            continue
        monomials = sorted(exps, key=key, reverse=True)
        col = {e: k for k, e in enumerate(monomials)}
        rows = [
            {col[e[0] + a[0], e[1] + a[1], e[2] + a[2]]: c for e, c in g.terms.items()}
            for dg, g in zip(degrees, gens)
            for a in of_degree.get(d - dg, ())
        ]
        pivots = _monic_rref(rows)
        for t in sorted(fresh, key=key):  # a lead of degree d divides no other
            if col[t] not in pivots:
                stairs.append(t)
            else:
                leads.append(t)
                members.append(MultiPoly._wrap({monomials[k]: v for k, v in pivots[col[t]].items()}))
    high = sum(1 for e in stairs if sum(a * b for a, b in zip(w, e)) > socle)
    if len(stairs) * prod(w) != prod(degrees) or high:
        raise DomainError(
            f"{name}: the staircase has {len(stairs)} monomials, {high} above the socle degree, "
            f"not {Fraction(prod(degrees), prod(w))} and none: the generators are no regular sequence"
        )
    return tuple(members), tuple(stairs)


def _dense(coeffs: dict[int, int]) -> tuple[int, ...]:
    """The int sigma-polynomial {degree: c}, not all c zero, as its
    coefficients, low degree first, up to the top nonzero one."""
    top = max(d for d, c in coeffs.items() if c)
    return tuple(coeffs.get(d, 0) for d in range(top + 1))


def _solve(cells, rhs_maps, ncols):
    """The solutions, as ``solve_columns`` returns them, of the rows
    ``cells`` for the right-hand columns ``rhs_maps``, all keyed by
    (exponent, sigma-degree) and put on one row index in key order: one
    elimination for every column."""
    keys = sorted(set(cells).union(*rhs_maps))
    index = {kk: k for k, kk in enumerate(keys)}
    rows = [cells.get(kk, {}) for kk in keys]
    return solve_columns(rows, [{index[kk]: v for kk, v in b.items()} for b in rhs_maps], ncols)


# ---------------------------------------------------------------------------
# Flat sections to first order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatSectionApprox:
    """First-order approximation delta_r = phi_r + sigma * sum c'_{r'} phi_{r'}.

    ``corrections`` lists the pairs (r', c') with nonzero coefficient; every
    r' has the same weighted degree as r and r' != r.
    """

    r: Exps
    corrections: tuple[tuple[Exps, Fraction], ...]


# ---------------------------------------------------------------------------
# The algebra
# ---------------------------------------------------------------------------


class JacobianAlgebra:
    """Milnor algebra Q(sigma)[X1,X2,X3]/(dW_sigma) of a marginal family.

    Construction is a pure function of the catalog entry and the marginal
    direction (defaulting to the entry's first marginal) and builds the
    sigma-layers of the partials, the display basis B0 (the staircase of
    one ``groebner`` call on the partials of W over Q) and the residue
    jets, and no RatFun.  The Q(sigma) layer (``w_sigma``,
    ``partials``, and ``groebner_basis`` and ``staircase``, which one
    ``groebner`` call gives) is computed on first read and memoised.  A
    staircase that fails the certificate of ``groebner`` raises its
    DomainError there, naming the entry and the field.  The instance is
    immutable apart from memo tables and is safe to share.
    """

    def __init__(self, entry: CatalogEntry, m: Sequence[int] | None = None):
        self.entry = entry
        self.marginal: MarginalData = entry.marginal(m if m is not None else entry.marginals[0].m)
        mvec = self.marginal.m
        self._label = f"{entry.name}, m={self.marginal.m}"
        self.weights = entry.polynomial.charges
        self._key = order_key(self.weights)
        self._w, self._scale = scaled_ints(self.weights)

        # The sigma-layers: d_i W_sigma = P_i0 + sigma*P_i1 with P_i0 = d_i W
        # and P_i1 = d_i phi_m, and _layers[i][d] is P_id.
        w, phi_m = entry.polynomial.polynomial(), MultiPoly.monomial(mvec, 1)
        partials = [w.partial(i) for i in range(NVARS)]
        self._layers = tuple((p.terms, phi_m.partial(i).terms) for i, p in enumerate(partials))

        # groebner divides, so its cells are Fractions, not ints
        self.basis = groebner([p.map_coeffs(Fraction) for p in partials], self.weights, f"{entry.name} over Q")[1]
        self.top_monomial: Exps = self.basis[-1]

        self._jets = self._residue_jets()
        residue = self._jets.get(mvec, (0, 0))[0]
        if residue == 0:  # reached only by a MarginalData that derive did not make
            raise DomainError(f"{self._label}: X^m lies in the Jacobian ideal of W")
        self.k_constant: Fraction = 1 / residue

        self._decompositions: dict[Exps, tuple[list, int] | NoSolution] = {}
        self._flats: dict[Exps, FlatSectionApprox] = {}
        self._triples: tuple[tuple[Exps, Exps, Exps], ...] | None = None

    @cached_property
    def w_sigma(self) -> MultiPoly:
        """W_sigma = W + sigma*phi_m over Q(sigma)."""
        w = self.entry.polynomial.polynomial().map_coeffs(RatFun.coerce)
        return w + MultiPoly.monomial(self.marginal.m, RatFun.variable())

    @cached_property
    def partials(self) -> tuple[MultiPoly, ...]:
        return tuple(self.w_sigma.partial(i) for i in range(NVARS))

    @cached_property
    def _q_sigma(self) -> tuple[tuple[MultiPoly, ...], tuple[Exps, ...]]:
        """The reduced Groebner basis of the partials over Q(sigma) and its
        staircase, from one certified ``groebner`` call."""
        return groebner(self.partials, self.weights, f"{self.entry.name} over Q(sigma)")

    groebner_basis = property(lambda self: self._q_sigma[0])
    staircase = property(lambda self: self._q_sigma[1])

    # -- construction helpers ------------------------------------------------

    def _degree(self, e: Exps) -> int:
        """The weighted degree of X^e times ``_scale``."""
        w = self._w
        return w[0] * e[0] + w[1] * e[1] + w[2] * e[2]

    # -- residue jets ----------------------------------------------------------

    def _residue_jets(self) -> dict[Exps, tuple[Fraction, Fraction]]:
        """(R_e(0), R_e'(0)) for each degree-one monomial X^e, from one
        elimination mod sigma^2 with c_e(sigma) * t in the last two columns
        (see the module docstring); a zero sigma^0 Hessian coordinate c_Hess(0)
        would be a pole at sigma = 0 and raises a ``DomainError``."""
        cols, cells = self._ansatz(0, 1, 2)
        n = len(cols)
        for d in (0, 1):  # the columns of c_e(0) * t and c_e'(0) * sigma * t
            cells.setdefault((self.top_monomial, d), {})[n + d] = 1
        # D_0 and D_1 of the cubic D(sigma) = det Hess(W + sigma*phi_m), on ints
        w, phi = self.entry.polynomial.polynomial(), MultiPoly.monomial(self.marginal.m, 1)
        odd = (w + phi).hessian_det() - (w - phi).hessian_det()
        layers = (w.hessian_det(), odd.map_coeffs(lambda c: c // 2) - phi.hessian_det())
        hessian = {(e, d): v for d, layer in enumerate(layers) for e, v in layer.terms.items()}
        monomials = self.entry.polynomial.degree_one_monomials()
        *sols, (hx, hden) = _solve(cells, [{(e, 0): 1} for e in monomials] + [hessian], n + 2)
        h0, h1 = Fraction(hx[n], hden), Fraction(hx[n + 1], hden)
        if not h0:
            raise DomainError(
                f"{self._label}: the Hessian has no sigma^0 coordinate on "
                f"{self.top_monomial}, so the residues have a pole at sigma = 0"
            )
        mu = len(self.basis)
        jets = {}
        for e, (x, den) in zip(monomials, sols):
            r0 = mu * Fraction(x[n], den) / h0
            jets[e] = (r0, (mu * Fraction(x[n + 1], den) - r0 * h1) / h0)
        return jets

    # -- Jacobian-ideal decompositions ----------------------------------------

    def decompose(self, r: Sequence[int]) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
        """Polynomials (g_1, g_2, g_3), coefficients in Q[sigma], with

            (1 - C*sigma^l) * phi_{r+m} = g_1*d1(W_sigma) + ... + g_3*d3(W_sigma)

        for the family constants C, l of the marginal direction.  Each g_i is
        weighted-homogeneous of degree deg(phi_r) + q_i.  Coordinates are
        ranked by (sigma-degree, partial i, monomial order), and the solution
        returned is 0 on every coordinate that lower-ranked ones can take
        over: the one a greedy scan gets by pinning coordinates to 0 from the
        highest rank down.  So its sigma-degree is as small as the system
        allows.

        The first call for a weighted degree decomposes every non-unit basis
        label of that degree in one elimination, ``_solve_degree`` at
        sigma-degree l - 1, the least that reaches the sigma^l term, and
        memoises them all.  That bound solves every label of every marginal
        that ``JacobianAlgebra`` accepts on the catalog's polynomials; a label
        it leaves unsolved raises ``NoSolution``, naming the bound, when it is
        asked for.  Each result is checked against the identity coefficient
        by coefficient in (X, sigma).
        """
        rvec = _exponent_vector(r, self._label)
        if rvec not in self._decompositions:
            if rvec not in self.basis:
                raise DomainError(f"{self._label}: {rvec} is not a basis exponent")
            if rvec == (0, 0, 0):
                raise DomainError(
                    f"{self._label}: phi_m has nonzero residue, so "
                    "(1 - C*sigma^l)*phi_m is not a Jacobian-ideal member"
                )
            l, deg = self.marginal.l, self._degree(rvec)
            labels = [e for e in self.basis if e != (0, 0, 0) and self._degree(e) == deg]
            for label, solved in zip(labels, self._solve_degree(deg, labels, l - 1, l + 1)):
                self._decompositions[label] = solved or NoSolution(
                    f"{self._label}: no decomposition of {label} with sigma-degree {l - 1}"
                )
        result = self._decompositions[rvec]
        if isinstance(result, NoSolution):
            raise result.with_traceback(None)
        gs, den = result
        return tuple(MultiPoly._wrap({e: RatFun._make(n, (den,)) for e, n in g.items()}) for g in gs)

    def _solve_degree(self, deg: int, labels: Sequence[Exps], bound: int, below: int) -> list:
        """The rows of sigma-degree < ``below`` of the decompositions of
        ``labels``, all of scaled weighted degree ``deg``, solved at
        sigma-degree ``bound`` in one elimination: for each label, its g_i
        as ``_assemble`` returns them, or None where its column is
        inconsistent.

        The matrix A, from ``_ansatz``, depends on the degree and the cut
        only; the labels move only the right-hand sides, the cells of
        (1 - C*sigma^l) * X^(r+m) below the cut.  The columns are listed in
        ascending rank (sigma-degree, partial i, monomial order), so one
        elimination gives the solutions that ``decompose`` promises.  Its
        RREF pivots on the least independent columns, the least basis of A's
        column space, and sets every other column to 0.  Those free columns
        are the complement of that basis, the greatest basis of the dual
        matroid (the column matroid of the nullspace), which is exactly the
        set a greedy scan from the highest rank down pins to 0.  The solution
        that is 0 on them is unique, so both routes agree.
        """
        cols, cells = self._ansatz(deg, bound, below)
        mar = self.marginal
        lhs = []
        for r in labels:  # (1 - C*sigma^l) * X^(r+m): 1 and -C
            rm = (r[0] + mar.m[0], r[1] + mar.m[1], r[2] + mar.m[2])
            lhs.append({(rm, 0): 1, (rm, mar.l): -mar.C} if mar.l < below else {(rm, 0): 1})
        sols = _solve(cells, lhs, len(cols))
        return [
            None if sol is None else self._assemble(r, sol, cols, b, below)
            for r, b, sol in zip(labels, lhs, sols)
        ]

    def _ansatz(self, deg: int, bound: int, below: int):
        """The columns (i, exponent, sigma-degree) of g_1, g_2, g_3 with g_i
        of scaled weighted degree ``deg`` + w_i and sigma-degree at most
        ``bound``, in ascending rank (sigma-degree, partial i, monomial
        order), and the int cells of sum_i g_i * d_i W_sigma on them in the
        rows of sigma-degree < ``below``, as {(exponent, sigma-degree):
        {column: cell}}; ``bound`` < ``below``."""
        w = self._w
        cols: list[tuple[int, Exps, int]] = []
        for i in range(NVARS):
            target = deg + w[i]
            for e in monomials_of_weighted_degree(w, target):
                for d in range(bound + 1):
                    cols.append((i, e, d))
        cols.sort(key=lambda c: (c[2], c[0], self._key(c[1])))
        cells: dict[tuple[Exps, int], dict[int, int]] = {}
        for ci, (i, e, d) in enumerate(cols):
            for shift, layer in enumerate(self._layers[i][: below - d]):
                for pe, pc in layer.items():
                    te = (e[0] + pe[0], e[1] + pe[1], e[2] + pe[2])
                    cells.setdefault((te, d + shift), {})[ci] = pc
        return cols, cells

    def _assemble(self, rvec: Exps, sol, cols, lhs, below: int) -> tuple[list, int]:
        """The g_i of a solved column on ints, checked against the identity:
        for each i, {exponent: its sigma-coefficients, low degree first}, in
        exponent order, all over the one denominator returned.

        ``sol`` is the column's solution as ``solve_columns`` returns it:
        int numerators over one denominator L.  The check multiplies the
        int g_i by the sigma-layers of the partials, not by the system's
        rows, and compares with L * ``lhs`` (cells keyed by (exponent,
        sigma-degree)) coefficient by coefficient in (X, sigma), in the
        sigma-degrees < ``below`` that the system was cut to.
        """
        scaled, den = sol
        sigma_coeffs: list[dict[Exps, dict[int, int]]] = [{}, {}, {}]
        for value, (i, e, d) in zip(scaled, cols):
            if value:
                sigma_coeffs[i].setdefault(e, {})[d] = value
        total: dict[tuple[Exps, int], int] = {}
        for i in range(NVARS):
            for e, coeffs in sigma_coeffs[i].items():
                for d, c in coeffs.items():
                    for shift, layer in enumerate(self._layers[i][: below - d]):
                        for pe, pc in layer.items():
                            kk = ((e[0] + pe[0], e[1] + pe[1], e[2] + pe[2]), d + shift)
                            total[kk] = total.get(kk, 0) + c * pc
        if {kk: v for kk, v in total.items() if v} != {kk: den * v for kk, v in lhs.items()}:
            raise DomainError(f"{self._label}: decomposition of {rvec} failed verification")
        return [{e: _dense(c) for e, c in sorted(g.items())} for g in sigma_coeffs], den

    # -- flat sections and correlators ----------------------------------------

    def flat_first_order(self, r: Sequence[int]) -> FlatSectionApprox:
        """First-order flat deformation of the basis monomial phi_r, with
        its corrections read at sigma = 0 over Q.

        The first call for a weighted degree solves sum_i g_i * d_i W =
        X^(r+m), the sigma^0 layer of the decomposition of every basis label
        r of that degree: ``_solve_degree`` at sigma-degree 0, cut below
        sigma^1, one elimination with one right-hand column per label, each
        solution checked in ints.  Any solution g(0) gives the same
        corrections, by the Koszul argument of the module docstring.  A
        second elimination reads the coordinates of every p(0) = -sum_i d_i
        g_i(0) on the labels: p(0) = sum_i h_i * d_i W + sum_b c_b * X^b,
        with the h_i from ``_ansatz`` at the degree of phi_r less one and
        the labels b as the last columns.  B0 is a basis of Jac(W), so the
        c_b are unique.  It memoises every flat of the degree.

        No correction names phi_r itself: c_{r,r}(0) = 0.  Under the
        diagonal symmetries of W, d_i W has the character of 1 / X_i, so g(0)
        stays a solution when each g_i(0) is projected onto the character of
        X^(r+m) * X_i, and any solution gives the same corrections; so p(0)
        lies in the character of X^(r+m).  The group preserves J(W), so p(0)
        has no coordinate on a label of another character, and X^r has the
        character of X^(r+m) only when X^m is invariant, i.e. when E^-T m is
        integral.  ``MarginalData.derive`` made E^-T m + 2 q^T integral, so
        2 q^T would be integral too, which sum q^T = 1 with every q^T_i > 0
        rules out.
        """
        rvec = _exponent_vector(r, self._label)
        if rvec in self._flats:
            return self._flats[rvec]
        deg_r = self._degree(rvec)
        if deg_r % self._scale == 0:
            raise IntegralDegree(
                f"{self._label}: phi_{rvec} has integral degree "
                f"{deg_r // self._scale}"
            )
        if rvec not in self.basis:
            raise DomainError(f"{self._label}: {rvec} is not a basis exponent")
        labels = [e for e in self.basis if self._degree(e) == deg_r]
        dens, rhs = [], []  # per label: den, and den * p(0) keyed as the system's rows
        for label, solved in zip(labels, self._solve_degree(deg_r, labels, 0, 1)):
            if solved is None:
                raise DomainError(f"{self._label}: X^(r+m) for r = {label} is not in J(W)")
            gs, den = solved
            p: dict = {}
            for i, g in enumerate(gs):
                for e, v in MultiPoly._wrap({e: c[0] for e, c in g.items()}).partial(i).terms.items():
                    p[e, 0] = p.get((e, 0), 0) - v
            dens.append(den)
            rhs.append({k: v for k, v in p.items() if v})
        cols, cells = self._ansatz(deg_r - self._scale, 0, 1)
        n = len(cols)
        for k, b in enumerate(labels):
            cells.setdefault((b, 0), {})[n + k] = 1
        for label, den, sol in zip(labels, dens, _solve(cells, rhs, n + len(labels))):
            if sol is None:
                raise DomainError(f"{self._label}: p(0) of {label} has no coordinates on B0")
            x, xden = sol
            corrections = tuple(
                (b, Fraction(-x[n + k], xden * den)) for k, b in enumerate(labels) if x[n + k]
            )
            self._flats[label] = FlatSectionApprox(r=label, corrections=corrections)
        return self._flats[rvec]

    def fourpoint(self, r1, r2, r3) -> Fraction:
        """Four-point function with three flat insertions, the basis
        exponents r1, r2, r3, and one marginal: the sigma-derivative at 0 of
        the three-point function of the product of their first-order flat
        representatives.

        With that product written as sum_e (a_e + b_e*sigma + O(sigma^2)) X^e,
        the value is K * sum_e (a_e * R_e'(0) + b_e * R_e(0)) for
        R_e = residue(X^e), read from the residue jets (0 off degree one).
        This is exact: the residue is Q(sigma)-linear and each R_e is regular
        at sigma = 0, where W is nondegenerate.  Here a_e is 1 at
        e = r1 + r2 + r3 and 0 elsewhere.
        """
        flats = [self.flat_first_order(r) for r in (r1, r2, r3)]
        total = tuple(sum(f.r[i] for f in flats) for i in range(NVARS))
        jets = self._jets
        value = jets.get(total, (0, 0))[1]
        for f in flats:
            rest = [t - r for t, r in zip(total, f.r)]
            for e, c in f.corrections:
                shifted = (e[0] + rest[0], e[1] + rest[1], e[2] + rest[2])
                value += c * jets.get(shifted, (0, 0))[0]
        return self.k_constant * value

    def weight_one_triples(self) -> tuple[tuple[Exps, Exps, Exps], ...]:
        """All multisets {r1, r2, r3} of basis exponents of non-integral
        degree whose degrees sum to 1 (the domain of the four-point table),
        each listed once in the order of the monomial order."""
        if self._triples is None:
            frac = [e for e in self.basis if self._degree(e) % self._scale]
            self._triples = tuple(
                t
                for t in combinations_with_replacement(frac, 3)
                if sum(map(self._degree, t)) == self._scale
            )
        return self._triples

    def fourpoint_table(self) -> dict[tuple[Exps, Exps, Exps], Fraction]:
        """Four-point values with marginal insertion on all weight-one
        triples of flat basis insertions."""
        return {trip: self.fourpoint(*trip) for trip in self.weight_one_triples()}
