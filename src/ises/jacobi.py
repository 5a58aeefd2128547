"""Milnor algebras of the marginal deformations W_sigma = W + sigma*phi_m.

For an invertible simple-elliptic polynomial W with a marginal monomial
phi_m, the one-parameter family W_sigma is treated exactly over the
rational-function field Q(sigma).  This module computes

* reduced Groebner bases of the Jacobian ideal (d1 W_sigma, d2 W_sigma,
  d3 W_sigma) under the graded reverse-lexicographic order with
  X1 > X2 > X3, graded by the charge vector, together with the staircase
  of standard monomials (a monomial basis of the Milnor algebra, of size
  mu in {8, 9, 10});
* the Grothendieck residue functional, normalized so that
  residue(det Hess(W_sigma)) = mu; with this normalization the residue of
  the top-degree monomial comes out as 1/(K*(1-x)) with x = C*sigma^l,
  which pins the constant K of each family;
* decompositions (1 - C*sigma^l) * phi_{r+m} = sum_i g_{r,i} * d_i W_sigma
  exhibiting the left-hand side as a Jacobian-ideal member;
* first-order flat deformations
  delta_r = phi_r - sigma * sum_{r' != r} c_{r,r'}(0) * phi_{r'} + O(sigma^2)
  where the c's are the coefficients of -sum_i d_i g_{r,i} over the
  monomial basis (independent of the choice of decomposition, because the
  partials form a regular sequence and all syzygies are Koszul);
* the genus-zero three- and four-point functions of the deformed
  singularity at sigma = 0, normalized so that <1, phi_m>|_{sigma=0} = 1.

The three-point normalization multiplies the residue by the constant K.
The volume factor that K approximates is constant through first order in
sigma, so values and first sigma-derivatives at sigma = 0 -- which is all
the four-point functions consume -- are exact.

Entries whose catalog record fixes a preferred monomial basis are reported
in that basis; the change of basis from the staircase is performed over
Q(sigma).  (The two can differ: a marginal term may promote a mixed
monomial past a pure power in the reverse-lexicographic order.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .isespoly import NVARS, CatalogEntry, MarginalData
from .numcore import (
    DomainError,
    MultiPoly,
    NoSolution,
    Rat,
    RatFun,
    UniPoly,
    monomials_of_weighted_degree,
    nullspace,
    solve_linear,
)

__all__ = [
    "Exps",
    "FlatSectionApprox",
    "FlatSectionPole",
    "IntegralDegree",
    "JacobianAlgebra",
    "SIGMA",
    "flat_first_order",
    "groebner",
    "jacobi_decompose",
    "normal_form",
    "order_key",
    "sg_fourpoint_marginal",
    "sg_fourpoint_raw",
    "sg_threepoint",
]

Exps = tuple[int, int, int]

#: The deformation parameter as a rational function of itself.
SIGMA = RatFun.variable()


class IntegralDegree(DomainError):
    """First-order flat data is undefined at basis monomials of integral
    weighted degree (the unit and the top-degree monomial)."""


class FlatSectionPole(DomainError):
    """A first-order flat-section coefficient has a pole at sigma = 0."""


# ---------------------------------------------------------------------------
# Monomial order and polynomial division
# ---------------------------------------------------------------------------


def order_key(weights: Sequence[Rat]) -> Callable[[Exps], tuple]:
    """Sort key realizing graded reverse-lexicographic order, X1 > X2 > X3,
    graded by the weighted degree ``sum weights[i]*e[i]``.

    Larger key means larger monomial: first compare weighted degrees, then
    prefer the monomial with fewer powers of the last variable, and so on.
    """
    w1, w2, w3 = weights

    def key(e: Exps) -> tuple:
        return (w1 * e[0] + w2 * e[1] + w3 * e[2], -e[2], -e[1], -e[0])

    return key


def _leading(f: MultiPoly, key) -> tuple[Exps, object]:
    e = max(f.terms, key=key)
    return e, f.terms[e]


def _divides(a: Exps, b: Exps) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def normal_form(f: MultiPoly, basis: Sequence[MultiPoly], weights) -> MultiPoly:
    """Remainder of multivariate division of ``f`` by ``basis``.

    Every term of the result is divisible by no leading monomial of
    ``basis``; when ``basis`` is a Groebner basis the result is the unique
    normal form.  Coefficients follow the coefficient field of the inputs.
    """
    key = order_key(weights)
    data = [(_leading(g, key)[0], _leading(g, key)[1], g) for g in basis if g]
    return _reduce(f, data, key)


def _reduce(f: MultiPoly, data, key) -> MultiPoly:
    remainder = MultiPoly.zero()
    while f:
        le, lc = _leading(f, key)
        for ge, gc, g in data:
            if _divides(ge, le):
                shift = (le[0] - ge[0], le[1] - ge[1], le[2] - ge[2])
                f = f - g * MultiPoly.monomial(shift, lc / gc)
                break
        else:
            mono = MultiPoly.monomial(le, lc)
            remainder = remainder + mono
            f = f - mono
    return remainder


def groebner(gens: Sequence[MultiPoly], weights) -> tuple[MultiPoly, ...]:
    """Reduced Groebner basis of the ideal spanned by ``gens``.

    Buchberger's algorithm with the coprime-leading-term criterion; the
    result is monic, mutually reduced, and sorted by leading monomial.  The
    coefficients may live in any exact field (rationals, rational functions).
    """
    key = order_key(weights)
    basis = [g for g in gens if g]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    while pairs:
        i, j = min(pairs)
        pairs.discard((i, j))
        fe, fc = _leading(basis[i], key)
        ge, gc = _leading(basis[j], key)
        lcm = (max(fe[0], ge[0]), max(fe[1], ge[1]), max(fe[2], ge[2]))
        if lcm == (fe[0] + ge[0], fe[1] + ge[1], fe[2] + ge[2]):
            continue  # coprime leading monomials: S-polynomial drops to zero
        s = basis[i] * MultiPoly.monomial(
            (lcm[0] - fe[0], lcm[1] - fe[1], lcm[2] - fe[2]), 1 / fc
        ) - basis[j] * MultiPoly.monomial(
            (lcm[0] - ge[0], lcm[1] - ge[1], lcm[2] - ge[2]), 1 / gc
        )
        data = [(_leading(g, key)[0], _leading(g, key)[1], g) for g in basis]
        s = _reduce(s, data, key)
        if s:
            pairs.update((len(basis), k) for k in range(len(basis)))
            basis.append(s)
    # Minimalize: drop members whose leading monomial another one divides.
    lts = [_leading(g, key)[0] for g in basis]
    kept = [
        g
        for i, g in enumerate(basis)
        if not any(
            j != i and _divides(lts[j], lts[i]) and (lts[j] != lts[i] or j < i)
            for j in range(len(basis))
        )
    ]
    # Fully reduce each member against the others and normalize to monic.
    out = []
    for i, g in enumerate(kept):
        rest = kept[:i] + kept[i + 1 :]
        data = [(_leading(h, key)[0], _leading(h, key)[1], h) for h in rest]
        r = _reduce(g, data, key)
        _, lc = _leading(r, key)
        out.append(r.scale(1 / lc))
    out.sort(key=lambda g: key(_leading(g, key)[0]))
    return tuple(out)


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
    corrections: tuple[tuple[Exps, Rat], ...]

    def polynomial(self) -> MultiPoly:
        """The approximation as a polynomial with coefficients in Q(sigma)."""
        out = MultiPoly.monomial(self.r, RatFun.const(1))
        for e, c in self.corrections:
            out = out + MultiPoly.monomial(e, SIGMA * c)
        return out


# ---------------------------------------------------------------------------
# The algebra
# ---------------------------------------------------------------------------


class JacobianAlgebra:
    """Milnor algebra Q(sigma)[X1,X2,X3]/(dW_sigma) of a marginal family.

    Construction is a pure function of the catalog entry and the marginal
    direction (defaulting to the entry's first marginal); the instance is
    immutable apart from internal memo tables and is safe to share.
    """

    def __init__(self, entry: CatalogEntry, m: Sequence[int] | None = None):
        self.entry = entry
        mvec = tuple(int(e) for e in (m if m is not None else entry.marginals[0].m))
        self.marginal: MarginalData = entry.marginal(mvec)
        self.weights = entry.charges
        self._key = order_key(self.weights)

        w_plain = entry.polynomial.polynomial()
        self.w_sigma = w_plain.map_coeffs(RatFun.coerce) + MultiPoly.monomial(
            mvec, SIGMA
        )
        self.partials = tuple(self.w_sigma.partial(i) for i in range(NVARS))
        self.groebner_basis = groebner(self.partials, self.weights)
        self._gbdata = [
            (_leading(g, self._key)[0], _leading(g, self._key)[1], g)
            for g in self.groebner_basis
        ]

        self.staircase = self._standard_monomials()
        if len(self.staircase) != entry.milnor:
            raise DomainError(
                f"{entry.name}: quotient dimension {len(self.staircase)} "
                f"!= Milnor number {entry.milnor}"
            )
        socles = [e for e in self.staircase if self._degree(e) == 1]
        if len(socles) != 1:
            raise DomainError(f"{entry.name}: top graded piece is not a line")
        self.socle: Exps = socles[0]

        hess_nf = self.normal_form(self.w_sigma.hessian_det())
        if set(hess_nf.terms) != {self.socle}:
            raise DomainError(f"{entry.name}: Hessian does not span the socle")
        self._normalizer = RatFun.const(entry.milnor) / hess_nf.terms[self.socle]

        # Display basis: the catalog's preferred monomial basis when stored;
        # else the staircase, with its weight-one monomial swapped for the
        # catalog's preferred top representative when one is recorded.
        if entry.basis is not None:
            self.basis = tuple(sorted(entry.basis, key=self._key))
        elif entry.top_monomial is not None:
            swapped = [e for e in self.staircase if self._degree(e) != 1]
            swapped.append(tuple(entry.top_monomial))
            self.basis = tuple(sorted(swapped, key=self._key))
        else:
            self.basis = self.staircase
        if self.basis != self.staircase:
            self._basis_matrix = self._change_of_basis()
            if nullspace(self._basis_matrix, len(self.basis)):
                raise DomainError(f"{entry.name}: catalog basis is degenerate")
        else:
            self._basis_matrix = None

        tops = [e for e in self.basis if self._degree(e) == 1]
        if tops != [self.basis[-1]]:
            raise DomainError(f"{entry.name}: basis has no unique top monomial")
        self.top_monomial: Exps = tops[0]
        if entry.top_monomial is not None and entry.top_monomial != tops[0]:
            raise DomainError(f"{entry.name}: top monomial disagrees with catalog")

        k = self.residue(MultiPoly.monomial(mvec, Fraction(1)))
        self.k_constant: Rat = 1 / k.eval(0)
        if entry.K is not None and entry.K != self.k_constant:
            raise DomainError(f"{entry.name}: K = {self.k_constant} != {entry.K}")

        self._decompositions: dict[Exps, tuple[MultiPoly, ...]] = {}
        self._flats: dict[Exps, FlatSectionApprox] = {}

    # -- construction helpers ------------------------------------------------

    def _degree(self, e: Exps) -> Rat:
        w = self.weights
        return w[0] * e[0] + w[1] * e[1] + w[2] * e[2]

    def _standard_monomials(self) -> tuple[Exps, ...]:
        lts = [e for e, _, _ in self._gbdata]
        standard: set[Exps] = set()
        stack: list[Exps] = [(0, 0, 0)]
        while stack:
            e = stack.pop()
            if e in standard or any(_divides(t, e) for t in lts):
                continue
            standard.add(e)
            if len(standard) > 4 * self.entry.milnor:
                raise DomainError(f"{self.entry.name}: quotient is not finite")
            stack.extend(
                (e[0] + (i == 0), e[1] + (i == 1), e[2] + (i == 2))
                for i in range(NVARS)
            )
        return tuple(sorted(standard, key=self._key))

    def _change_of_basis(self) -> list[list[RatFun]]:
        """Matrix whose column b holds the staircase coordinates of the
        normal form of display-basis monomial b."""
        index = {e: i for i, e in enumerate(self.staircase)}
        mu = len(self.staircase)
        cols = []
        for b in self.basis:
            nf = self.normal_form(MultiPoly.monomial(b, Fraction(1)))
            col = [RatFun.const(0)] * mu
            for e, c in nf.terms.items():
                col[index[e]] = RatFun.coerce(c)
            cols.append(col)
        return [[cols[j][i] for j in range(mu)] for i in range(mu)]

    # -- basic queries ---------------------------------------------------------

    @property
    def milnor(self) -> int:
        return len(self.staircase)

    def phi(self, r: Sequence[int]) -> MultiPoly:
        """The monomial X^r with coefficient 1 in Q(sigma)."""
        return MultiPoly.monomial(tuple(int(e) for e in r), RatFun.const(1))

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        """Unique normal form of ``f`` modulo the Jacobian ideal."""
        return _reduce(f.map_coeffs(RatFun.coerce), self._gbdata, self._key)

    def residue(self, f: MultiPoly) -> RatFun:
        """Grothendieck residue of ``f``, normalized so the Hessian
        determinant has residue equal to the Milnor number."""
        nf = self.normal_form(f)
        c = nf.terms.get(self.socle)
        if c is None:
            return RatFun.const(0)
        return self._normalizer * c

    def coords(self, f: MultiPoly) -> dict[Exps, RatFun]:
        """Coordinates of ``f`` mod the Jacobian ideal over the display basis."""
        nf = self.normal_form(f)
        if self._basis_matrix is None:
            return {e: RatFun.coerce(c) for e, c in nf.terms.items()}
        index = {e: i for i, e in enumerate(self.staircase)}
        rhs = [RatFun.const(0)] * len(self.staircase)
        for e, c in nf.terms.items():
            rhs[index[e]] = RatFun.coerce(c)
        sol = solve_linear(self._basis_matrix, rhs, len(self.basis))
        return {
            b: RatFun.coerce(c) for b, c in zip(self.basis, sol) if RatFun.coerce(c)
        }

    # -- Jacobian-ideal decompositions ----------------------------------------

    def decompose(self, r: Sequence[int]) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
        """Polynomials (g_1, g_2, g_3), coefficients in Q[sigma], with

            (1 - C*sigma^l) * phi_{r+m} = g_1*d1(W_sigma) + ... + g_3*d3(W_sigma)

        for the family constants C, l of the marginal direction.  Each g_i is
        weighted-homogeneous of degree deg(phi_r) + q_i; among the solutions,
        a greedy scan zeroes coordinates from the highest sigma-power down,
        so the support is minimal-ish and the sigma-degree is as small as the
        system allows.
        """
        rvec = tuple(int(e) for e in r)
        if rvec not in self._decompositions:
            if rvec not in self.basis:
                raise DomainError(f"{rvec} is not a basis exponent")
            if rvec == (0, 0, 0):
                raise DomainError(
                    "phi_m has nonzero residue, so (1 - C*sigma^l)*phi_m "
                    "is not a Jacobian-ideal member"
                )
            self._decompositions[rvec] = self._solve_decomposition(rvec)
        return self._decompositions[rvec]

    def _solve_decomposition(self, rvec: Exps) -> tuple[MultiPoly, ...]:
        mar = self.marginal
        # Sigma-graded coefficients of the partials: d_i W_sigma = P_i0 + sigma*P_i1.
        w_plain = self.entry.polynomial.polynomial()
        phi_m = MultiPoly.monomial(mar.m, Fraction(1))
        layers = [
            (dict(w_plain.partial(i).terms), dict(phi_m.partial(i).terms))
            for i in range(NVARS)
        ]
        rm = tuple(rvec[i] + mar.m[i] for i in range(NVARS))
        # A sigma-degree 2 ansatz suffices in practice; fall back to the
        # guaranteed bound 2l when it does not.
        for bound in (2, 2 * mar.l):
            try:
                sol, cols = self._decomposition_system(rvec, rm, layers, bound)
            except NoSolution:
                if bound == 2 * mar.l:
                    raise
                continue
            break
        # Assemble the g_i from the solved coordinates.
        sigma_coeffs: list[dict[Exps, list[Rat]]] = [{}, {}, {}]
        for value, (i, e, d) in zip(sol, cols):
            if value:
                acc = sigma_coeffs[i].setdefault(e, [Fraction(0)] * (bound + 1))
                acc[d] = value
        gs = []
        for i in range(NVARS):
            g = MultiPoly.zero()
            for e, coeffs in sorted(sigma_coeffs[i].items()):
                g = g + MultiPoly.monomial(e, RatFun(UniPoly(coeffs)))
            gs.append(g)
        lhs = MultiPoly.monomial(
            rm, RatFun(UniPoly([1] + [0] * (mar.l - 1) + [-mar.C]))
        )
        total = MultiPoly.zero()
        for g, p in zip(gs, self.partials):
            total = total + g * p
        if total != lhs:
            raise DomainError(f"decomposition of {rvec} failed verification")
        return tuple(gs)

    def _decomposition_system(self, rvec, rm, layers, bound):
        """Set up and solve the sparse linear system for one sigma-degree
        bound; returns (solution, column labels)."""
        deg_r = self._degree(rvec)
        cols: list[tuple[int, Exps, int]] = []
        for i in range(NVARS):
            target = deg_r + self.weights[i]
            max_exps = tuple(int(target / self.weights[j]) for j in range(NVARS))
            for e in monomials_of_weighted_degree(self.weights, target, max_exps):
                for d in range(bound + 1):
                    cols.append((i, e, d))
        entries: dict[tuple[Exps, int], dict[int, Rat]] = {}
        for ci, (i, e, d) in enumerate(cols):
            for layer_shift, layer in enumerate(layers[i]):
                for pe, pc in layer.items():
                    te = (e[0] + pe[0], e[1] + pe[1], e[2] + pe[2])
                    row = entries.setdefault((te, d + layer_shift), {})
                    row[ci] = row.get(ci, Fraction(0)) + pc
        rhs_map = {(rm, 0): Fraction(1), (rm, self.marginal.l): Fraction(-self.marginal.C)}
        keys = sorted(set(entries) | set(rhs_map))
        rows = []
        rhs = []
        for kk in keys:
            row = [Fraction(0)] * len(cols)
            for ci, v in entries.get(kk, {}).items():
                row[ci] = v
            rows.append(row)
            rhs.append(rhs_map.get(kk, Fraction(0)))
        sol = solve_linear(rows, rhs, len(cols))
        kernel = nullspace(rows, len(cols))
        priority = sorted(
            range(len(cols)),
            key=lambda c: (cols[c][2], cols[c][0], self._key(cols[c][1])),
            reverse=True,
        )
        return _pin_zeros(sol, kernel, priority), cols

    # -- flat sections and correlators ----------------------------------------

    def flat_first_order(self, r: Sequence[int]) -> FlatSectionApprox:
        """First-order flat deformation of the basis monomial phi_r."""
        rvec = tuple(int(e) for e in r)
        if rvec in self._flats:
            return self._flats[rvec]
        deg_r = self._degree(rvec)
        if Fraction(deg_r).denominator == 1:
            raise IntegralDegree(f"phi_{rvec} has integral degree {deg_r}")
        gs = self.decompose(rvec)
        p = MultiPoly.zero()
        for i in range(NVARS):
            p = p - gs[i].partial(i)
        corrections = []
        for e, c in sorted(self.coords(p).items(), key=lambda t: self._key(t[0])):
            if self._degree(e) != deg_r:
                raise DomainError(f"correction {e} breaks the grading of {rvec}")
            if e == rvec:
                continue  # same-label term only renormalizes at higher order
            try:
                c0 = c.eval(0)
            except ZeroDivisionError as exc:
                raise FlatSectionPole(
                    f"{self.entry.name}, m={self.marginal.m}: the flat section of "
                    f"phi_{rvec} has a pole at sigma = 0 in its {e} coefficient"
                ) from exc
            if c0:
                corrections.append((e, -c0))
        flat = FlatSectionApprox(r=rvec, corrections=tuple(corrections))
        self._flats[rvec] = flat
        return flat

    def threepoint(self, xi: MultiPoly) -> RatFun:
        """Three-point function <a, b, c> at the product xi = a*b*c, as a
        rational function of sigma (exact at sigma = 0 through first order)."""
        return self.residue(xi) * self.k_constant

    def fourpoint(self, r1, r2, r3) -> Rat:
        """Four-point function with three flat insertions and one marginal:
        the sigma-derivative at 0 of the three-point function of the product
        of the first-order flat representatives."""
        xi = MultiPoly.const(RatFun.const(1))
        for r in (r1, r2, r3):
            flat = r if isinstance(r, FlatSectionApprox) else self.flat_first_order(r)
            xi = xi * flat.polynomial()
        return self.threepoint(xi).deriv().eval(0)

    def fourpoint_raw(self, exps: Sequence[int]) -> Rat:
        """Four-point function with a single raw monomial insertion (no flat
        correction) and one marginal."""
        mono = MultiPoly.monomial(tuple(int(e) for e in exps), Fraction(1))
        return self.threepoint(mono).deriv().eval(0)

    def raw_marginal_vector(self) -> tuple[Rat, Rat, Rat]:
        """The raw four-point values at the three monomials of W itself."""
        return tuple(self.fourpoint_raw(row) for row in self.entry.polynomial.exponents)

    def weight_one_triples(self) -> tuple[tuple[Exps, Exps, Exps], ...]:
        """All multisets {r1, r2, r3} of basis exponents of non-integral
        degree whose degrees sum to 1 (the domain of the four-point table)."""
        frac = [
            e for e in self.basis if Fraction(self._degree(e)).denominator != 1
        ]
        seen = set()
        out = []
        for a in frac:
            for b in frac:
                if self._key(b) < self._key(a):
                    continue
                for c in frac:
                    if self._key(c) < self._key(b):
                        continue
                    if self._degree(a) + self._degree(b) + self._degree(c) == 1:
                        trip = (a, b, c)
                        if trip not in seen:
                            seen.add(trip)
                            out.append(trip)
        return tuple(out)

    def fourpoint_table(self) -> dict[tuple[Exps, Exps, Exps], Rat]:
        """Four-point values with marginal insertion on all weight-one
        triples of flat basis insertions."""
        return {trip: self.fourpoint(*trip) for trip in self.weight_one_triples()}


def _pin_zeros(sol, kernel, priority):
    """Scan coordinates in ``priority`` order and zero each one when the
    remaining affine freedom allows, freezing it for later steps."""
    sol = list(sol)
    kernel = [list(v) for v in kernel]
    for c in priority:
        pivot = next((k for k, v in enumerate(kernel) if v[c]), None)
        if pivot is None:
            continue
        pv = kernel.pop(pivot)
        if sol[c]:
            f = sol[c] / pv[c]
            sol = [s - f * x for s, x in zip(sol, pv)]
        kernel = [
            [x - (v[c] / pv[c]) * y for x, y in zip(v, pv)] if v[c] else v
            for v in kernel
        ]
    return sol


# ---------------------------------------------------------------------------
# Operation-style wrappers
# ---------------------------------------------------------------------------


def jacobi_decompose(algebra: JacobianAlgebra, r: Sequence[int]):
    """See :meth:`JacobianAlgebra.decompose`."""
    return algebra.decompose(r)


def flat_first_order(algebra: JacobianAlgebra, r: Sequence[int]):
    """See :meth:`JacobianAlgebra.flat_first_order`."""
    return algebra.flat_first_order(r)


def sg_threepoint(algebra: JacobianAlgebra, xi: MultiPoly) -> RatFun:
    """See :meth:`JacobianAlgebra.threepoint`."""
    return algebra.threepoint(xi)


def sg_fourpoint_marginal(algebra: JacobianAlgebra, r1, r2, r3) -> Rat:
    """See :meth:`JacobianAlgebra.fourpoint`."""
    return algebra.fourpoint(r1, r2, r3)


def sg_fourpoint_raw(algebra: JacobianAlgebra, exps: Sequence[int]) -> Rat:
    """See :meth:`JacobianAlgebra.fourpoint_raw`."""
    return algebra.fourpoint_raw(exps)
