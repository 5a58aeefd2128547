"""Period differential operators and their hypergeometric reduction.

For a one-parameter family ``W_sigma = W + sigma*phi_m`` the period integral
of a basis monomial ``phi_r`` satisfies an ordinary differential equation in
``sigma`` of Gelfand--Kapranov--Zelevinsky type.  Everything here is read off
``E``, its inverse and the marginal row of ``phi_m``; no Milnor ring is
computed.  That ``phi_m`` is nonzero in Jac(W) was decided when the row was
made, by :meth:`ises.isespoly.MarginalData.derive`.  With
``delta = sigma d/dsigma`` it takes the two-sided product form

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
shape and a right factor of the original.  The reduction cancels greedily,
smallest left root first, until no pair remains.  A cancellation removes
only right roots, so a left root without a partner never gains one later,
and the greedy loop is one pass over the left roots in ascending order.
The result is usually a second-order operator, i.e. a Gauss hypergeometric
equation with weights ``(alpha, beta; gamma)``; occasionally it terminates
at first order, where the solution is ``(1 - x)^{-deg phi_r}``.  There is
no general rule for which factors survive, so every reported weight triple
is certified by :func:`annihilation_check`, which substitutes both
Frobenius solutions at ``x = 0`` into the *unreduced* operator exactly.
It does so on ints: the exponent, the roots and the series parameters of
a solution are scaled by the lcm of their denominators, each series
coefficient is an unreduced int fraction, and the identity at each power
of ``x`` is one int cross-multiplication.  Weights, roots and every
returned value stay ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .isespoly import NVARS, CatalogEntry
from .numcore import DomainError, _exponent_vector, rat, scaled_ints

__all__ = [
    "DeltaOperator",
    "HGWeights",
    "NotSecondOrder",
    "ResonantBasis",
    "build_gkz",
    "reduce_left_divisors",
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
    """``prod(delta + c_L) - C sigma^l prod(delta + c_R)`` with exact roots.

    The operator is held in the coordinate ``x = C sigma^l``, which absorbs
    ``C``: it is the sorted left and right roots and the step ``l``, and the
    constant stays on the marginal (``MarginalData.C``).  Each root is an
    int or a ``Fraction`` and the step an int >= 1, or a DomainError names
    the field.
    """

    left_roots: tuple[Fraction, ...]
    right_roots: tuple[Fraction, ...]
    step: int

    def __post_init__(self) -> None:
        for side in ("left", "right"):
            roots = getattr(self, f"{side}_roots")
            roots = tuple(sorted(rat(c, f"operator {side} root", k) for k, c in enumerate(roots)))
            object.__setattr__(self, f"{side}_roots", roots)
        if len(self.left_roots) != len(self.right_roots):
            raise DomainError("operator must have equally many left and right roots")
        if type(self.step) is not int or self.step < 1:
            raise DomainError(f"operator step {self.step!r} is not an int >= 1")

    @property
    def order(self) -> int:
        return len(self.left_roots)


@dataclass(frozen=True)
class HGWeights:
    """Hypergeometric data for a period: ``x^s * 2F1(alpha, beta; gamma; x)``.

    When ``first_order`` is set the period solves a first-order equation and
    equals ``x^s (1 - x)^{-alpha}``; ``beta`` and ``gamma`` are then None.
    Every other weight is an int or a ``Fraction``, or a ``DomainError``
    names the field.
    """

    alpha: Fraction
    beta: Fraction | None
    gamma: Fraction | None
    prefactor: Fraction = Fraction(0)
    first_order: bool = False

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "prefactor"):
            value = getattr(self, name)
            if value is None and name in ("beta", "gamma"):
                continue  # first-order data; the checks below pair it with the flag
            if type(value) is not int and not isinstance(value, Fraction):
                raise DomainError(f"HGWeights {name} {value!r} is not an int or a Fraction")
        if self.first_order:
            if self.beta is not None or self.gamma is not None:
                raise DomainError("first-order data carries a single exponent")
        else:
            if self.beta is None or self.gamma is None:
                raise DomainError("second-order data needs beta and gamma")

    @classmethod
    def of_first_order(cls, deg_phi: Fraction, prefactor: Fraction = Fraction(0)) -> "HGWeights":
        return cls(deg_phi, None, None, prefactor, True)


def build_gkz(
    entry: CatalogEntry,
    m: Sequence[int],
    r: Sequence[int] = (0, 0, 0),
) -> DeltaOperator:
    """The (unreduced) period operator for ``phi_r`` in the family ``W + sigma phi_m``."""
    marginal = entry.marginal(m)
    u = entry.polynomial.solve_transposed([ri + 1 for ri in _exponent_vector(r, f"{entry.name} r")])
    l = marginal.l
    lvec = marginal.l_vector
    left: list[Fraction] = [Fraction(-k) for k in range(l)]
    right: list[Fraction] = []
    for i in range(NVARS):
        li = lvec[i]
        if li > 0:
            right.extend(Fraction(l) * (u[i] + k) / li for k in range(li))
        elif li < 0:
            left.extend(Fraction(l) * (u[i] + k) / li for k in range(-li))
    return DeltaOperator(tuple(left), tuple(right), l)


def reduce_left_divisors(op: DeltaOperator) -> DeltaOperator:
    """Greedily remove all pairs (c, c + l), smallest left root first.

    One ascending pass over the left roots: each root whose partner
    ``c + l`` is still among the right roots is dropped with one copy of
    that partner.  A cancellation removes only right roots, so a left root
    the pass keeps never gains a partner later, and the pass removes what
    repeated cancellation of the smallest cancellable root would.
    """
    left, right = [], list(op.right_roots)
    for c in op.left_roots:
        if c + op.step in right:
            right.remove(c + op.step)
        else:
            left.append(c)
    return DeltaOperator(tuple(left), tuple(right), op.step)


def to_hg_weights(op: DeltaOperator, deg_phi: Fraction) -> HGWeights:
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
            f"weights {(alpha, beta, gamma)} violate alpha+beta-gamma = deg phi_r = {deg_phi}"
        )
    return weights


def _series_ratios(w: HGWeights) -> list[tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]]:
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
    Checked exactly through ``x^{e+order}`` for each solution in turn;
    ``order`` is an int >= 0, and anything else raises :class:`DomainError`,
    so no call certifies without checking an identity.

    Every parameter of a solution -- ``l e``, the roots and the series
    parameters -- is scaled by the lcm D of their denominators, so the test
    runs on ints: both products gain the same factor ``D^n``, n the order
    of ``op``; ``f_k`` is carried as an unreduced pair ``num / den`` built
    from the Pochhammer step ``prod(A + kD) / (prod(C + kD) (1 + k) D)``;
    and each identity is one cross-multiplication.  ``den`` never vanishes,
    since no lower parameter is a nonpositive integer (see
    :func:`_series_ratios`).
    """
    if type(order) is not int or order < 0:
        raise DomainError(f"annihilation order {order!r} is not an int >= 0")
    l = op.step
    for exponent, upper, lower in _series_ratios(w):
        groups = ((l * exponent,), op.left_roots, op.right_roots, upper, lower)
        d = scaled_ints([c for group in groups for c in group])[1]
        (e,), left, right, up, low = (scaled_ints(group, d)[0] for group in groups)
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
    the entry, m and r in front of its message.  ``X^m`` is a marginal of
    the entry, and :meth:`~ises.isespoly.MarginalData.derive`, which made
    every marginal of a loaded catalog, has checked that it is nonzero in
    Jac(W).
    """
    op = build_gkz(entry, m, r)
    try:
        weights = to_hg_weights(reduce_left_divisors(op), entry.polynomial.weighted_degree(r))
        return weights, annihilation_check(op, weights)
    except DomainError as exc:
        raise type(exc)(f"{entry.name} m={tuple(m)} r={tuple(r)}: {exc}") from exc
