"""Period differential operators and their hypergeometric reduction.

For a one-parameter family ``W_sigma = W + sigma*phi_m`` the period integral
of a basis monomial ``phi_r`` satisfies an ordinary differential equation in
``sigma`` of Gelfand--Kapranov--Zelevinsky type.  With ``delta = sigma d/dsigma``
it takes the two-sided product form

    prod_c (delta + c_L) - C sigma^l prod_c (delta + c_R)

whose root multisets are read off from the marginal data: writing
``u = E^{-T} (r + 1)`` (so ``u = q^T`` for ``r = 0``) and
``beta_{i,k} = (u_i + k) / l_i``,

    leftRoots  = {-k : 0 <= k < l}  u  {l*beta_{i,k} : l_i < 0, 0 <= k < -l_i}
    rightRoots = {l*beta_{i,k} : l_i > 0, 0 <= k < l_i}

and ``C`` is the marginal normalising constant, so that in the coordinate
``x = C sigma^l`` the series coefficients follow exact Pochhammer ratios.

Cancelling a left root ``c`` against a right root ``c + l`` splits off the
left divisor ``(delta + c)``; what remains is again an operator of the same
shape and a right factor of the original.  Repeating until no pair remains
usually leaves a second-order operator, i.e. a Gauss hypergeometric equation
with weights ``(alpha, beta; gamma)``; occasionally it terminates at first
order, where the solution is ``(1 - x)^{-deg phi_r}``.  There is no general
rule for which factors survive, so reduction is greedy and deterministic,
and every reported weight triple is certified by :func:`annihilation_check`,
which substitutes both Frobenius solutions at ``x = 0`` into the *unreduced*
operator exactly.  It does so on ints: the exponent, the roots and the
series parameters of a solution are scaled by the lcm of their
denominators, each series coefficient is an unreduced int fraction, and
the identity at each power of ``x`` is one int cross-multiplication.
Weights, roots and every returned value stay ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .isespoly import NVARS, CatalogEntry, InvertiblePolynomial, _inverse3, _mat_vec
from .numcore import DomainError, Rat

__all__ = [
    "DeltaOperator",
    "HGWeights",
    "NotSecondOrder",
    "ResonantBasis",
    "build_gkz",
    "reduce_left_divisors",
    "all_reductions",
    "to_hg_weights",
    "annihilation_check",
    "weight_report",
]


class NotSecondOrder(DomainError):
    """The reduced operator is not of order two (and not first order)."""


class ResonantBasis(DomainError):
    """The two local exponents at x = 0 differ by an integer."""


@dataclass(frozen=True)
class DeltaOperator:
    """``prod(delta + c_L) - C sigma^l prod(delta + c_R)`` with exact roots."""

    left_roots: tuple[Rat, ...]
    right_roots: tuple[Rat, ...]
    step: int
    constant: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_roots", tuple(sorted(Fraction(c) for c in self.left_roots)))
        object.__setattr__(self, "right_roots", tuple(sorted(Fraction(c) for c in self.right_roots)))
        if len(self.left_roots) != len(self.right_roots):
            raise DomainError("operator must have equally many left and right roots")

    @property
    def order(self) -> int:
        return len(self.left_roots)

    def cancellable_pairs(self) -> tuple[Rat, ...]:
        """Left roots c whose partner c + l appears among the right roots."""
        return tuple(c for c in self.left_roots if c + self.step in self.right_roots)

    def cancel(self, c: Rat) -> "DeltaOperator":
        """Split off the left divisor ``(delta + c)``; needs ``c + l`` on the right."""
        if c not in self.left_roots or c + self.step not in self.right_roots:
            raise DomainError(f"no cancellable pair at {c}")
        left = list(self.left_roots)
        left.remove(c)
        right = list(self.right_roots)
        right.remove(c + self.step)
        return DeltaOperator(tuple(left), tuple(right), self.step, self.constant)

    def to_text(self) -> str:
        def factor(c: Rat) -> str:
            if c == 0:
                return "(d)"
            return f"(d{'+' if c > 0 else '-'}{abs(c)})"

        lhs = " ".join(factor(c) for c in self.left_roots)
        rhs = " ".join(factor(c) for c in self.right_roots)
        return f"{lhs} - ({self.constant}) s^{self.step} {rhs}"


@dataclass(frozen=True)
class HGWeights:
    """Hypergeometric data for a period: ``x^s * 2F1(alpha, beta; gamma; x)``.

    When ``first_order`` is set the period solves a first-order equation and
    equals ``x^s (1 - x)^{-alpha}``; ``beta`` and ``gamma`` are then None.
    """

    alpha: Rat
    beta: Rat | None
    gamma: Rat | None
    prefactor: Rat = Fraction(0)
    first_order: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.beta is not None:
            object.__setattr__(self, "beta", Fraction(self.beta))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "prefactor", Fraction(self.prefactor))
        if self.first_order:
            if self.beta is not None or self.gamma is not None:
                raise DomainError("first-order data carries a single exponent")
        else:
            if self.beta is None or self.gamma is None:
                raise DomainError("second-order data needs beta and gamma")

    @classmethod
    def of_first_order(cls, deg_phi: Rat, prefactor: Rat = Fraction(0)) -> "HGWeights":
        return cls(Fraction(deg_phi), None, None, Fraction(prefactor), True)

    @property
    def triple(self) -> tuple[Rat, Rat, Rat]:
        if self.first_order:
            raise DomainError("first-order data has no weight triple")
        return (self.alpha, self.beta, self.gamma)


def _transpose_inverse(poly: InvertiblePolynomial) -> tuple[tuple[Rat, ...], ...]:
    transposed = [[poly.exponents[j][i] for j in range(NVARS)] for i in range(NVARS)]
    return _inverse3(transposed)


def build_gkz(
    entry: CatalogEntry,
    m: Sequence[int],
    r: Sequence[int] = (0, 0, 0),
) -> DeltaOperator:
    """The (unreduced) period operator for ``phi_r`` in the family ``W + sigma phi_m``."""
    poly = entry.polynomial
    marginal = entry.marginal(m)
    inv_t = _transpose_inverse(poly)
    shifted = tuple(Fraction(int(ri) + 1) for ri in r)
    u = _mat_vec(inv_t, shifted)
    l = marginal.l
    lvec = marginal.l_vector
    left: list[Rat] = [Fraction(-k) for k in range(l)]
    right: list[Rat] = []
    for i in range(NVARS):
        li = lvec[i]
        if li > 0:
            right.extend(Fraction(l) * (u[i] + k) / li for k in range(li))
        elif li < 0:
            left.extend(Fraction(l) * (u[i] + k) / li for k in range(-li))
    return DeltaOperator(tuple(left), tuple(right), l, marginal.C)


def reduce_left_divisors(op: DeltaOperator) -> DeltaOperator:
    """Greedily remove all pairs (c, c + l): smallest left root first."""
    while True:
        pairs = op.cancellable_pairs()
        if not pairs:
            return op
        op = op.cancel(min(pairs))


def all_reductions(op: DeltaOperator) -> set[tuple[tuple[Rat, ...], tuple[Rat, ...]]]:
    """Final (left, right) multisets over every greedy cancellation order."""
    results: set[tuple[tuple[Rat, ...], tuple[Rat, ...]]] = set()
    stack = [op]
    while stack:
        cur = stack.pop()
        pairs = set(cur.cancellable_pairs())
        if not pairs:
            results.add((cur.left_roots, cur.right_roots))
            continue
        stack.extend(cur.cancel(c) for c in pairs)
    return results


def to_hg_weights(op: DeltaOperator, deg_phi: Rat) -> HGWeights:
    """Read hypergeometric weights off a (reduced) operator.

    The substitution ``x = C sigma^l`` turns ``delta`` into ``l * theta`` with
    ``theta = x d/dx``; conjugating by ``x^s`` shifts every root by ``l*s`` so
    that a left root sits at 0.  The remaining left root gives
    ``gamma = 1 + c_L / l`` and the right roots give ``alpha, beta = c_R / l``.
    """
    deg_phi = Fraction(deg_phi)
    if op.order not in (1, 2):
        raise NotSecondOrder(f"operator has order {op.order}")
    l = op.step
    if Fraction(0) in op.left_roots:
        s = Fraction(0)
    else:
        s = -max(op.left_roots) / l
    left = sorted(c + l * s for c in op.left_roots)
    right = sorted(c + l * s for c in op.right_roots)
    if op.order == 1:
        weights = HGWeights.of_first_order(right[0] / l, s)
        if weights.alpha - s != deg_phi:
            raise DomainError(
                f"first-order exponent {weights.alpha - s} does not match deg phi_r = {deg_phi}"
            )
        return weights
    alpha, beta = (right[0] / l, right[1] / l)
    other = left[0] if left[1] == 0 else left[1]
    gamma = 1 + other / l
    weights = HGWeights(alpha, beta, gamma, s)
    if alpha + beta - gamma - s != deg_phi:
        raise DomainError(
            f"weights {weights.triple} violate alpha+beta-gamma = deg phi_r = {deg_phi}"
        )
    return weights


def _series_ratios(w: HGWeights) -> list[tuple[Rat, tuple[Rat, ...], tuple[Rat, ...]]]:
    """The local solutions at x = 0 as (exponent, upper, lower) parameters.

    ``x^e 2F1(a, b; c; x)`` is ``(e, (a, b), (c,))`` and ``x^e (1 - x)^{-a}``
    is ``(e, (a,), ())``.  No lower parameter is a nonpositive integer: they
    are ``gamma`` and ``2 - gamma``, and an integral ``gamma`` is resonant.
    """
    if w.first_order:
        return [(w.prefactor, (w.alpha,), ())]
    exp2 = w.prefactor + 1 - w.gamma
    if (w.prefactor - exp2).denominator == 1:
        raise ResonantBasis(f"exponents {w.prefactor} and {exp2} differ by an integer")
    return [
        (w.prefactor, (w.alpha, w.beta), (w.gamma,)),
        (exp2, (w.alpha - w.gamma + 1, w.beta - w.gamma + 1), (2 - w.gamma,)),
    ]


def annihilation_check(op: DeltaOperator, w: HGWeights, order: int = 30) -> bool:
    """Does the full operator kill every local solution built from ``w``?

    Acting on ``x^{e+k}`` the operator contributes
    ``prod(l(e+k) + c_L)`` at the same power and, because
    ``C sigma^l = x``, ``-prod(l(e+k) + c_R)`` one power higher; the image
    vanishes iff ``f_k prod(l(e+k)+c_L) = f_{k-1} prod(l(e+k-1)+c_R)`` for all
    k, with ``f_{-1} = 0`` (so at k = 0 the test is ``prod(l e + c_L) = 0``).
    Checked exactly through ``x^{e+order}`` for each solution in turn.

    Every parameter of a solution -- ``l e``, the roots and the series
    parameters -- is scaled by the lcm D of their denominators, so the test
    runs on ints: both products gain the same factor ``D^n``, n the order
    of ``op``; ``f_k`` is carried as an unreduced pair ``num / den`` built
    from the Pochhammer step ``prod(A + kD) / (prod(C + kD) (1 + k) D)``;
    and each identity is one cross-multiplication.  ``den`` never vanishes,
    since no lower parameter is a nonpositive integer (see
    :func:`_series_ratios`).
    """
    l = op.step
    for exponent, upper, lower in _series_ratios(w):
        groups = ((l * exponent,), op.left_roots, op.right_roots, upper, lower)
        d = lcm(*(c.denominator for group in groups for c in group))
        (e,), left, right, up, low = (
            [c.numerator * (d // c.denominator) for c in group] for group in groups
        )
        shift = l * d
        prev_num, prev_den, num, den = 0, 1, 1, 1
        for k in range(order + 1):
            th = e + k * shift
            lhs = num * prev_den * prod(th + c for c in left)
            rhs = prev_num * den * prod(th - shift + c for c in right)
            if lhs != rhs:
                return False
            kd = k * d
            prev_num, prev_den = num, den
            num *= prod(a + kd for a in up)
            den *= (k + 1) * d * prod(c + kd for c in low)
    return True


def weight_report(
    entry: CatalogEntry, m: Sequence[int], r: Sequence[int] = (0, 0, 0)
) -> tuple[HGWeights, bool]:
    """Derive the weights of (entry, m, r) and certify them.

    The operator of :func:`build_gkz` is reduced by
    :func:`reduce_left_divisors` and read off by :func:`to_hg_weights`; the
    flag is :func:`annihilation_check` of those weights against the
    unreduced operator.  Where the reduction reaches first order the
    weights are first order, also where a degenerate 2F1(a, b; b; x) =
    (1 - x)^{-a} would describe the same function.  A :class:`DomainError`
    of the derivation or the check is raised again as its own class with
    the entry, m and r in front of its message.
    """
    op = build_gkz(entry, m, r)
    deg_phi = sum(Fraction(int(v)) * q for v, q in zip(r, entry.polynomial.charges))
    try:
        weights = to_hg_weights(reduce_left_divisors(op), deg_phi)
        return weights, annihilation_check(op, weights)
    except DomainError as exc:
        raise type(exc)(f"{entry.name} m={tuple(m)} r={tuple(r)}: {exc}") from exc
