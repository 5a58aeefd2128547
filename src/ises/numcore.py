"""Exact arithmetic substrate.

Provides arbitrary-precision rationals (``Rat``), univariate polynomials and
rational functions in one deformation parameter, multivariate polynomials in
three variables with pluggable coefficient rings, truncated power series with
a fractional-power prefactor (``QSeries``) and an optional logarithmic part
(``LogSeries``), algebraic number fields ``Q[t]/(m(t))`` including cyclotomic
fields, and a small exact linear solver.

All values are immutable after construction and all operations are pure.
Coefficient rings are duck-typed: any type supporting ``+ - *``, division by
``int``, ``bool()`` zero-test and equality works (``Fraction``, ``RatFun``,
``AlgebraicNum``).  Every value is exact; there is no approximate mode.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

Rat = Fraction


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


class NonInvertibleSeries(DomainError):
    """Compositional inversion needs valuation exactly 1 and an invertible
    linear coefficient."""


class ZeroDenominator(DomainError):
    """A rational function with zero denominator was requested."""


class NoSolution(ValueError):
    """An exact linear system admits no solution."""


def rat(value, den=None) -> Fraction:
    """Coerce to an exact rational; ``rat(p, q)`` builds p/q."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def parse_rat(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    return Fraction(text.strip())


def fmt_rat(value) -> str:
    """Render an exact rational as "p/q" ("p" when integral)."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Univariate polynomials over Q
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over ``Fraction`` in one formal variable.

    Coefficients are stored low degree first with trailing zeros stripped;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((Fraction(c),))

    @classmethod
    def monomial(cls, k: int, c=1) -> "UniPoly":
        return cls((0,) * k + (Fraction(c),))

    @classmethod
    def variable(cls) -> "UniPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self or not other:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = UniPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "UniPoly"):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if len(rem) <= dq:
            return UniPoly(), self
        quo = [Fraction(0)] * (len(rem) - dq)
        for k in range(len(rem) - dq - 1, -1, -1):
            c = rem[k + dq] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UniPoly(quo), UniPoly(rem[:dq])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    @staticmethod
    def gcd(a: "UniPoly", b: "UniPoly") -> "UniPoly":
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    def monic(self) -> "UniPoly":
        if not self:
            return self
        lead = self.coeffs[-1]
        return UniPoly(tuple(c / lead for c in self.coeffs))

    def eval(self, v):
        out = Fraction(0) if isinstance(v, (int, Fraction)) else v * 0
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def deriv(self) -> "UniPoly":
        return UniPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def to_text(self, var: str = "s") -> str:
        if not self:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = fmt_rat(mag)
            else:
                head = "" if mag == 1 else fmt_rat(mag) + "*"
                body = f"{head}{var}" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"UniPoly({self.to_text()})"


# ---------------------------------------------------------------------------
# Rational functions over Q in one variable
# ---------------------------------------------------------------------------


class RatFun:
    """Quotient of two ``UniPoly`` in canonical form: coprime numerator and
    denominator with monic denominator.  Equality is structural equality of
    the normal form.

    The canonical form of a rational function is unique, so any route to it
    gives the same ``num`` and ``den``.  The arithmetic uses that to skip the
    Euclidean gcd where its answer is known: a constant on either side is
    coprime to the other, a sum over a shared denominator only has to cancel
    against that denominator, and a product cancels each numerator against
    the other factor's denominator (Henrici), which leaves a canonical pair.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = UniPoly.const(num)
        if den is None:
            den = _ONE
        elif isinstance(den, (int, Fraction)):
            den = UniPoly.const(den)
        if not den:
            raise ZeroDenominator("rational function with zero denominator")
        if num:
            num, den = _cancel(num, den)
            lead = den.coeffs[-1]
            if lead != 1:
                num = num * (1 / lead)
                den = den.monic()
        else:
            den = _ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _canonical(cls, num: UniPoly, den: UniPoly) -> "RatFun":
        """Wrap a pair that is already coprime with monic denominator."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den if num else _ONE)
        return out

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def const(cls, c) -> "RatFun":
        return cls(UniPoly.const(c))

    @classmethod
    def variable(cls) -> "RatFun":
        return cls(UniPoly.variable())

    @staticmethod
    def coerce(v) -> "RatFun":
        if isinstance(v, RatFun):
            return v
        if isinstance(v, UniPoly):
            return RatFun(v)
        return RatFun.const(v)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, UniPoly)):
            other = RatFun.coerce(other)
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, UniPoly)):
            other = RatFun.coerce(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._canonical(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, UniPoly)):
            other = RatFun.coerce(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, UniPoly)):
            other = RatFun.coerce(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return RatFun._canonical(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, UniPoly)):
            other = RatFun.coerce(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        lead = 1 / other.num.coeffs[-1]
        return self * RatFun._canonical(other.den * lead, other.num * lead)

    def __rtruediv__(self, other):
        return RatFun.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFun.const(1) / self ** (-n)
        return RatFun._canonical(self.num**n, self.den**n)

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def to_unipoly(self) -> UniPoly:
        if not self.is_polynomial:
            raise DomainError("not a polynomial")
        return self.num

    def to_rat(self) -> Fraction:
        if self.num.degree > 0 or not self.is_polynomial:
            raise DomainError("not a constant")
        return self.num.coeff(0)

    def eval(self, v):
        d = self.den.eval(v)
        if isinstance(d, (int, Fraction)) and d == 0:
            raise ZeroDivisionError("pole of rational function")
        return self.num.eval(v) / d

    def deriv(self) -> "RatFun":
        if self.den.degree == 0:
            return RatFun._canonical(self.num.deriv(), _ONE)
        return RatFun(
            self.num.deriv() * self.den - self.num * self.den.deriv(),
            self.den * self.den,
        )

    def to_text(self, var: str = "s") -> str:
        n = self.num.to_text(var)
        if self.den.degree == 0:
            return n
        return f"({n})/({self.den.to_text(var)})"

    def __repr__(self):
        return f"RatFun({self.to_text()})"


_ONE = UniPoly.const(1)


def _cancel(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Divide ``num`` and ``den`` by their monic gcd; a constant on either
    side is coprime to the other, so no Euclid step runs then."""
    if num.degree > 0 and den.degree > 0:
        g = UniPoly.gcd(num, den)
        if g.degree > 0:
            return num // g, den // g
    return num, den


# ---------------------------------------------------------------------------
# Multivariate polynomials in X1, X2, X3
# ---------------------------------------------------------------------------


VAR_NAMES = ("X1", "X2", "X3")


class MultiPoly:
    """Sparse polynomial in X1, X2, X3 with duck-typed coefficients.

    Terms map exponent triples to nonzero coefficients.  Coefficients of one
    polynomial must live in a common ring; mixing rings across operands is the
    caller's responsibility (use ``map_coeffs`` to lift).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        d = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, c in items:
            e = tuple(int(v) for v in exps)
            if len(e) != 3 or min(e) < 0:
                raise DomainError(f"bad exponent vector {exps}")
            if e in d:
                c = d[e] + c
            if c:
                d[e] = c
            elif e in d:
                del d[e]
        object.__setattr__(self, "terms", dict(d))

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls({(0, 0, 0): c}) if c else cls()

    @classmethod
    def monomial(cls, exps, c=Fraction(1)) -> "MultiPoly":
        return cls({tuple(exps): c})

    @classmethod
    def variable(cls, i: int, c=Fraction(1)) -> "MultiPoly":
        e = [0, 0, 0]
        e[i] = 1
        return cls({tuple(e): c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def coeff(self, exps):
        return self.terms.get(tuple(exps), 0)

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        d = dict(self.terms)
        for e, c in other.terms.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            elif e in d:
                del d[e]
        return MultiPoly(d)

    def __neg__(self):
        return MultiPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            d = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    s = d.get(e, 0) + c1 * c2
                    if s:
                        d[e] = s
                    elif e in d:
                        del d[e]
            return MultiPoly(d)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not c:
            return MultiPoly()
        return MultiPoly({e: v * c for e, v in self.terms.items()})

    def __pow__(self, n: int):
        out = MultiPoly.const(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def partial(self, i: int) -> "MultiPoly":
        d = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                d[tuple(ne)] = c * e[i]
        return MultiPoly(d)

    def map_coeffs(self, fn) -> "MultiPoly":
        return MultiPoly({e: fn(c) for e, c in self.terms.items()})

    def substitute(self, images) -> "MultiPoly":
        """Substitute X_i -> images[i] (each a MultiPoly)."""
        out = MultiPoly()
        for e, c in self.terms.items():
            term = MultiPoly.const(c)
            for i in range(3):
                if e[i]:
                    term = term * images[i] ** e[i]
            out = out + term
        return out

    def weighted_degree(self, weights):
        """Max weighted degree of the terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(w * k for w, k in zip(weights, e)) for e in self.terms)

    def is_weighted_homogeneous(self, weights) -> bool:
        degs = {sum(w * k for w, k in zip(weights, e)) for e in self.terms}
        return len(degs) <= 1

    def hessian_det(self) -> "MultiPoly":
        h = [[self.partial(i).partial(j) for j in range(3)] for i in range(3)]
        return (
            h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
            - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
            + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
        )

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"{VAR_NAMES[i]}" + (f"^{e[i]}" if e[i] > 1 else "")
                for i in range(3)
                if e[i]
            )
            cs = c.to_text() if hasattr(c, "to_text") else fmt_rat(c) if isinstance(c, (int, Fraction)) else str(c)
            if mono:
                parts.append(f"({cs})*{mono}" if cs != "1" else mono)
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


def monomials_of_weighted_degree(weights, degree, max_exps) -> list:
    """All exponent triples e with Σ weights[i]*e[i] == degree, bounded by
    max_exps componentwise."""
    out = []
    for e1 in range(max_exps[0] + 1):
        for e2 in range(max_exps[1] + 1):
            partial = weights[0] * e1 + weights[1] * e2
            rem = degree - partial
            if rem < 0:
                continue
            q3 = rem / weights[2]
            if q3 == int(q3) and 0 <= int(q3) <= max_exps[2]:
                out.append((e1, e2, int(q3)))
    return sorted(out)


# ---------------------------------------------------------------------------
# Algebraic number fields Q[t]/(m(t))
# ---------------------------------------------------------------------------


class AlgebraicField:
    """Number field Q[t]/(m(t)) for monic m, with exact field arithmetic.

    Elements are coordinate vectors in the power basis 1, t, ..., t^{n-1}.
    The minimal polynomial is trusted to be irreducible; inversion fails
    loudly (ZeroDivisionError) if a zero divisor is ever encountered.
    """

    __slots__ = ("minpoly", "n", "name", "_tpowers")

    def __init__(self, minpoly, name: str = "t"):
        mp = UniPoly(minpoly) if not isinstance(minpoly, UniPoly) else minpoly
        if mp.degree < 1 or mp.coeffs[-1] != 1:
            raise DomainError("minimal polynomial must be monic of degree >= 1")
        object.__setattr__(self, "minpoly", mp)
        object.__setattr__(self, "n", mp.degree)
        object.__setattr__(self, "name", name)
        # reductions of t^k for k = n .. 2n-2
        tp = []
        cur = UniPoly(tuple(-c for c in mp.coeffs[:-1]))  # t^n
        tp.append(cur)
        for _ in range(self.n - 2):
            cur = UniPoly((0,) + cur.coeffs)  # multiply by t
            if cur.degree >= self.n:
                top = cur.coeff(self.n)
                cur = UniPoly(cur.coeffs[: self.n]) + tp[0] * top
            tp.append(cur)
        object.__setattr__(self, "_tpowers", tuple(tp))

    def __setattr__(self, *a):
        raise AttributeError("AlgebraicField is immutable")

    def __eq__(self, other):
        return isinstance(other, AlgebraicField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def element(self, coeffs) -> "AlgebraicNum":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.n:
            poly = UniPoly(cs) % self.minpoly
            cs = list(poly.coeffs)
        cs += [Fraction(0)] * (self.n - len(cs))
        return AlgebraicNum(self, tuple(cs[: self.n]))

    @property
    def zero(self) -> "AlgebraicNum":
        return self.element(())

    @property
    def one(self) -> "AlgebraicNum":
        return self.element((1,))

    @property
    def gen(self) -> "AlgebraicNum":
        return self.element((0, 1))

    def __repr__(self):
        return f"AlgebraicField({self.name}: {self.minpoly.to_text(self.name)} = 0)"


class AlgebraicNum:
    """Element of an AlgebraicField; supports exact field arithmetic and
    mixes with int/Fraction scalars."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: AlgebraicField, coeffs: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraicNum is immutable")

    def _coerce(self, other):
        if isinstance(other, AlgebraicNum):
            if other.field != self.field:
                raise DomainError("mixing elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element((other,))
        return None

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        return o is not None and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicNum(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNum(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraicNum(self.field, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.field.n
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    prod[i + j] += a * b
        out = list(prod[:n])
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                red = self.field._tpowers[k - n]
                for j, b in enumerate(red.coeffs):
                    out[j] += c * b
        return AlgebraicNum(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNum":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid: a*self + b*minpoly = gcd (a constant for a field)
        r0, r1 = self.field.minpoly, UniPoly(self.coeffs)
        s0, s1 = UniPoly(), UniPoly.const(1)
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if not r1:
            raise ZeroDivisionError("zero divisor: minimal polynomial not irreducible?")
        inv = s1 * (1 / r1.coeff(0))
        return self.field.element(inv.coeffs)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraicNum(self.field, tuple(a / other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def to_rat(self) -> Fraction:
        if any(self.coeffs[1:]):
            raise DomainError(f"not rational: {self}")
        return self.coeffs[0]

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __repr__(self):
        t = self.field.name
        return f"AlgebraicNum({UniPoly(self.coeffs).to_text(t)})"


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> UniPoly:
    num = UniPoly((-1,) + (0,) * (n - 1) + (1,))  # t^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = num // _cyclotomic_poly(d)
    return num


@lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> AlgebraicField:
    """Q(zeta_n) with the primitive n-th root of unity as generator."""
    f = AlgebraicField(_cyclotomic_poly(n), name=f"z{n}")
    return f


def root_of_unity(field: AlgebraicField, k: int, n: int) -> AlgebraicNum:
    """e[k/n] = exp(2*pi*i*k/n) inside a cyclotomic field Q(zeta_m), n | m."""
    m = _cyclotomic_order(field)
    if m is None or m % n:
        raise DomainError(f"field does not contain {n}-th roots of unity")
    return field.gen ** ((k * (m // n)) % m)


def _cyclotomic_order(field: AlgebraicField):
    name = field.name
    if name.startswith("z") and name[1:].isdigit():
        return int(name[1:])
    return None


# ---------------------------------------------------------------------------
# Truncated series with fractional-power prefactor
# ---------------------------------------------------------------------------


class QSeries:
    """Truncated series u^base * (c0 + c1 u + ... + c_{N-1} u^{N-1}) + O(u^{base+N}).

    ``base`` is an exact rational (the fractional-power prefactor), ``var`` a
    formal tag used to prevent mixing series in different variables, and the
    coefficient ring is duck-typed.  The truncation order is always explicit:
    every arithmetic result carries the min-propagated error order.
    """

    __slots__ = ("var", "base", "coeffs")

    def __init__(self, var: str, base, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise DomainError("QSeries needs at least one tracked coefficient")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "base", Fraction(base))
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, var: str, c, order: int) -> "QSeries":
        return cls(var, 0, (c,) + (0,) * (order - 1))

    @classmethod
    def variable(cls, var: str, order: int) -> "QSeries":
        """The series u itself, with `order` tracked coefficients above u^1."""
        return cls(var, 1, (1,) + (0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def end_exponent(self) -> Fraction:
        """Exponent of the O(...) error term."""
        return self.base + len(self.coeffs)

    def __bool__(self):
        return any(bool(c) for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.var == other.var
            and self.base == other.base
            and len(self.coeffs) == len(other.coeffs)
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def coeff(self, exponent) -> object:
        """Coefficient of u^exponent; 0 if below truncation, error if beyond."""
        k = Fraction(exponent) - self.base
        if k.denominator != 1:
            return 0
        k = int(k)
        if k < 0:
            return 0
        if k >= len(self.coeffs):
            raise DomainError(f"exponent {exponent} beyond truncation {self.end_exponent}")
        return self.coeffs[k]

    def valuation(self):
        """Exponent of first nonzero tracked coefficient; None if none."""
        for k, c in enumerate(self.coeffs):
            if c:
                return self.base + k
        return None

    def truncate(self, n: int) -> "QSeries":
        """Keep the first n coefficients."""
        if n < 1:
            raise DomainError("truncation must keep at least one coefficient")
        return QSeries(self.var, self.base, self.coeffs[:n]) if n < len(self.coeffs) else self

    def trim(self) -> "QSeries":
        """Fold leading zero coefficients into the base exponent."""
        k = 0
        while k < len(self.coeffs) - 1 and not self.coeffs[k]:
            k += 1
        return QSeries(self.var, self.base + k, self.coeffs[k:]) if k else self

    def shift(self, exponent) -> "QSeries":
        """Multiply by u^exponent."""
        return QSeries(self.var, self.base + Fraction(exponent), self.coeffs)

    def map_coeffs(self, fn) -> "QSeries":
        return QSeries(self.var, self.base, tuple(fn(c) for c in self.coeffs))

    # -- ring ops ----------------------------------------------------------

    def _check(self, other: "QSeries"):
        if self.var != other.var:
            raise DomainError(f"mixing series in {self.var!r} and {other.var!r}")

    def __add__(self, other):
        if isinstance(other, QSeries):
            self._check(other)
            d = other.base - self.base
            if d.denominator != 1:
                a, b = self.trim(), other.trim()
                d = b.base - a.base
                if d.denominator != 1:
                    raise DomainError("incompatible fractional prefactors in addition")
                return a + b
            d = int(d)
            if d < 0:
                return other + self
            end = min(self.end_exponent, other.end_exponent)
            n = int(end - self.base)
            if n < 1:
                raise DomainError("addition leaves no tracked coefficients")
            out = list(self.coeffs[:n]) + [0] * max(0, n - len(self.coeffs))
            for k, c in enumerate(other.coeffs):
                if k + d < n:
                    out[k + d] = out[k + d] + c
            return QSeries(self.var, self.base, out)
        return self._add_scalar(other)

    def _add_scalar(self, c) -> "QSeries":
        """Add an exact scalar (exponent 0, known to all orders)."""
        if not c:
            return self
        b = self.base
        if b.denominator != 1:
            t = self.trim()
            if t.base.denominator != 1:
                raise DomainError("cannot add a scalar to a fractional-power series")
            return t._add_scalar(c)
        b = int(b)
        if b > 0:
            return QSeries(self.var, 0, (c,) + (0,) * (b - 1) + self.coeffs)
        idx = -b
        if idx >= len(self.coeffs):
            return self
        out = list(self.coeffs)
        out[idx] = out[idx] + c
        return QSeries(self.var, self.base, out)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.var, self.base, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, QSeries):
            return self + (-other)
        return self._add_scalar(-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "QSeries":
        return QSeries(self.var, self.base, tuple(v * c for v in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, QSeries):
            self._check(other)
            n1, n2 = len(self.coeffs), len(other.coeffs)
            v1 = next((k for k, c in enumerate(self.coeffs) if c), n1)
            v2 = next((k for k, c in enumerate(other.coeffs) if c), n2)
            n = min(n1 + v2, n2 + v1)
            if n < 1:
                n = 1
            out = [0] * n
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if i + j >= n:
                            break
                        if b:
                            out[i + j] = out[i + j] + a * b
            return QSeries(self.var, self.base + other.base, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def reciprocal(self) -> "QSeries":
        a = self.trim()
        lead = a.coeffs[0]
        if not lead:
            raise DomainError("reciprocal of a series with no tracked nonzero term")
        n = len(a.coeffs)
        inv0 = 1 / lead
        out = [inv0] + [0] * (n - 1)
        for k in range(1, n):
            s = 0
            for j in range(1, k + 1):
                if a.coeffs[j]:
                    s = s + a.coeffs[j] * out[k - j]
            out[k] = -(s * inv0) if s else 0
        return QSeries(self.var, -a.base, out)

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.reciprocal()
        if isinstance(other, (int, Fraction)):
            return QSeries(self.var, self.base, tuple(c / other for c in self.coeffs))
        return self.scale(1 / other if not isinstance(other, AlgebraicNum) else other.inverse())

    def __rtruediv__(self, other):
        return self.reciprocal().scale(other) if not isinstance(other, QSeries) else NotImplemented

    def __pow__(self, n):
        if isinstance(n, int):
            if n < 0:
                return self.reciprocal() ** (-n)
            out = QSeries.constant(self.var, 1, len(self.coeffs))
            for _ in range(n):
                out = out * self
            return out
        return series_pow(self, Fraction(n))

    def deriv(self) -> "QSeries":
        """d/du, lowering every exponent by one."""
        return QSeries(self.var, self.base - 1, self._euler_coeffs())

    def delta(self) -> "QSeries":
        """u d/du (the Euler operator), exponent-diagonal."""
        return QSeries(self.var, self.base, self._euler_coeffs())

    def _euler_coeffs(self):
        out = []
        for k, c in enumerate(self.coeffs):
            e = self.base + k
            out.append(c * e.numerator / e.denominator if c else c)
        return tuple(out)

    def __repr__(self):
        shown = []
        for k, c in enumerate(self.coeffs):
            if c and len(shown) < 6:
                e = self.base + k
                shown.append(f"{c}*{self.var}^{e}")
        tail = f" + O({self.var}^{self.end_exponent})"
        return "QSeries(" + (" + ".join(shown) if shown else "0") + tail + ")"


def series_compose(f: QSeries, g: QSeries) -> QSeries:
    """f(g(u)) for f with integer base >= 0 and g with valuation >= 1."""
    if f.base.denominator != 1 or f.base < 0:
        raise DomainError("composition needs an integer base >= 0 on the outer series")
    fc = (0,) * int(f.base) + f.coeffs
    gt = g.trim()
    if gt.base.denominator != 1 or gt.base < 1 or not gt.coeffs[0]:
        raise NonInvertibleSeries("inner series must have valuation >= 1")
    cap = max(1, min(int(gt.base) * len(fc), int(gt.end_exponent)))
    acc = QSeries(g.var, 0, (0,) * cap)
    for c in reversed(fc):  # Horner from the top coefficient down
        acc = _resize(acc * gt, cap)
        if c:
            acc = acc._add_scalar(c)
    return _resize(acc, cap)


def _resize(s: QSeries, n_abs: int) -> QSeries:
    """Clip/pad so the tracked window ends exactly at exponent n_abs (integer base)."""
    if s.base.denominator != 1:
        return s
    want = n_abs - int(s.base)
    if want < 1:
        return s
    if want <= len(s.coeffs):
        return s.truncate(want)
    return QSeries(s.var, s.base, s.coeffs + (0,) * (want - len(s.coeffs)))


def series_invert(f: QSeries, order: int | None = None) -> QSeries:
    """Compositional inverse: returns g with f(g(u)) = u + O(u^{order+1}).

    f must have valuation exactly 1 with invertible linear coefficient.
    """
    ft = f.trim()
    if ft.base != 1 or not ft.coeffs[0]:
        raise NonInvertibleSeries("inversion needs valuation exactly 1")
    n = order if order is not None else len(ft.coeffs)
    n = min(n, len(ft.coeffs))
    a = QSeries(ft.var, 1, ft.coeffs[:n])
    a1 = a.coeffs[0]
    inv_a1 = (1 / a1) if isinstance(a1, (int, Fraction)) else a1**-1 if isinstance(a1, AlgebraicNum) else 1 / a1
    # fixed point: g <- g - (f(g) - u) / a1, gaining one valid order per pass
    g = QSeries(ft.var, 1, (inv_a1,) + (0,) * (n - 1))
    u = QSeries(ft.var, 1, (1,) + (0,) * (n - 1))
    fplain = QSeries(ft.var, 0, (0,) + a.coeffs)  # as base-0 for composition
    for _ in range(n):
        err = _resize(series_compose(fplain, g) - u, n + 1)
        if not err:
            break
        g = _resize(g - err.scale(inv_a1), n + 1)
    return QSeries(ft.var, 1, g.coeffs[:n])


def series_exp(f: QSeries) -> QSeries:
    """exp(f) for a series with valuation >= 1 (zero constant term)."""
    t = f.trim()
    if not t:
        n = max(1, int(f.end_exponent)) if f.end_exponent.denominator == 1 else len(f.coeffs)
        return QSeries(f.var, 0, (1,) + (0,) * (n - 1))
    if t.base.denominator != 1 or t.base < 1:
        raise DomainError("exp needs a series with valuation >= 1")
    n = int(t.end_exponent)
    a = (0,) * int(t.base) + t.coeffs
    out = [0] * n
    out[0] = 1
    for k in range(1, n):
        s = 0
        for j in range(1, k + 1):
            c = a[j] if j < n else 0
            if c:
                s = s + c * out[k - j] * j
        out[k] = s / k if s else 0
    return QSeries(f.var, 0, out)


def series_log(f: QSeries) -> QSeries:
    """log(f) for a series with constant term 1."""
    if f.base != 0:
        raise DomainError("log needs base exponent 0")
    if f.coeffs[0] != 1:
        raise DomainError("log needs constant term 1")
    n = len(f.coeffs)
    out = [0] * n
    for k in range(1, n):
        s = f.coeffs[k] * k
        for j in range(1, k):
            if out[j]:
                s = s - out[j] * j * (f.coeffs[k - j] if k - j < n else 0)
        out[k] = s / k if s else 0
    return QSeries(f.var, 0, out)


def series_pow(f: QSeries, e: Fraction) -> QSeries:
    """f^e for rational e; the trimmed leading coefficient must be exactly 1
    (extract units explicitly before calling)."""
    a = f.trim()
    if a.coeffs[0] != 1:
        raise DomainError("fractional power needs leading coefficient 1")
    e = Fraction(e)
    n = len(a.coeffs)
    h = a.coeffs  # h[0] == 1
    out = [0] * n
    out[0] = 1
    en, ed = e.numerator, e.denominator
    for k in range(1, n):
        s = 0
        for j in range(1, k + 1):
            c = h[j] if j < n else 0
            if c:
                s = s + c * out[k - j] * (en * j - ed * (k - j))
        out[k] = s / (ed * k) if s else 0
    return QSeries(a.var, a.base * e, out)


def binomial_series(var: str, exponent: Fraction, order: int, sign: int = 1) -> QSeries:
    """(1 + sign*u)^exponent as an exact series."""
    e = Fraction(exponent)
    cs = [Fraction(1)]
    for k in range(1, order):
        cs.append(cs[-1] * (e - (k - 1)) / k * sign)
    return QSeries(var, 0, cs)


class LogSeries:
    """A(u) + log(u) * B(u) with both parts sharing variable and window."""

    __slots__ = ("plain", "logpart")

    def __init__(self, plain: QSeries, logpart: QSeries):
        if plain.var != logpart.var:
            raise DomainError("log-series parts must share a variable")
        object.__setattr__(self, "plain", plain)
        object.__setattr__(self, "logpart", logpart)

    def __setattr__(self, *a):
        raise AttributeError("LogSeries is immutable")

    def __add__(self, other):
        if isinstance(other, LogSeries):
            return LogSeries(self.plain + other.plain, self.logpart + other.logpart)
        return LogSeries(self.plain + other, self.logpart)

    __radd__ = __add__

    def __neg__(self):
        return LogSeries(-self.plain, -self.logpart)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return LogSeries(self.plain.scale(c), self.logpart.scale(c))

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return LogSeries(self.plain * other, self.logpart * other)
        return self.scale(other)

    __rmul__ = __mul__

    def delta(self) -> "LogSeries":
        """u d/du: delta(A + B log u) = delta(A) + B + log(u) delta(B)."""
        return LogSeries(self.plain.delta() + self.logpart, self.logpart.delta())

    def __repr__(self):
        return f"LogSeries({self.plain!r} + log*{self.logpart!r})"


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _rref(rows, ncols):
    """Reduced row echelon form of sparse rows, by Gauss-Jordan elimination.

    ``rows`` are ``{column: value}`` dicts of nonzero cells, which are
    reduced in place; only columns below ``ncols`` are pivoted on, and each
    step touches only nonzero cells.  Returns the pivot rows as
    ``(column, row)`` pairs in column order, each scaled to a leading 1 and
    clear in every other pivot column, and the leftover rows, which are
    empty below ``ncols``.  Int pivots are inverted as ``Fraction``s, so
    int input stays exact.
    """
    pending = list(rows)
    pivots = []
    for c in range(ncols):
        hits = [i for i, row in enumerate(pending) if c in row]
        if not hits:
            continue
        prow = pending.pop(min(hits, key=lambda i: len(pending[i])))
        p = prow[c]
        if isinstance(p, int):
            p = Fraction(p)
        inv = p ** -1 if isinstance(p, AlgebraicNum) else 1 / p
        for k in prow:
            prow[k] = prow[k] * inv
        for row in pending:
            if c in row:
                _eliminate(row, prow, c)
        for _, row in pivots:
            if c in row:
                _eliminate(row, prow, c)
        pivots.append((c, prow))
        if not pending:
            break
    return pivots, pending


def _eliminate(row, prow, c):
    """Subtract ``row[c]`` times the unit pivot row ``prow`` from ``row``,
    which has a (nonzero) cell in column ``c``."""
    f = row.pop(c)
    for k, v in prow.items():
        if k != c:
            x = row.get(k, 0) - f * v
            if x:
                row[k] = x
            else:
                row.pop(k, None)


def _sparse(row):
    """The nonzero cells of a row, given as a sequence or as a
    ``{column: value}`` dict, in a new dict."""
    cells = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: v for c, v in cells if v}


def solve_linear(rows, rhs, ncols=None):
    """Solve A x = b exactly over a field by Gaussian elimination.

    Each of ``rows`` is a sequence of cells or a sparse ``{column: value}``
    dict (duck-typed field elements mixed with ints; a dict row needs
    ``ncols``), and ``rhs`` is the right-hand column.  Returns a particular
    solution with every free variable set to 0.  Raises NoSolution when
    inconsistent.
    """
    n = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    aug = []
    for row, b in zip(rows, rhs):
        srow = _sparse(row)
        if b:
            srow[n] = b
        aug.append(srow)
    pivots, rest = _rref(aug, n)
    if any(rest):
        raise NoSolution("inconsistent linear system")
    x = [0] * n
    for c, row in pivots:
        x[c] = row.get(n, 0)
    return x


def inverse(rows) -> list:
    """Rows of the inverse of a square matrix, from one elimination of
    ``[A | I]``; rows are sequences or ``{column: value}`` dicts, as in
    ``solve_linear``.  Raises NoSolution when A is singular."""
    n = len(rows)
    pivots, _ = _rref([{**_sparse(row), n + i: 1} for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise NoSolution("singular matrix")
    return [[row.get(n + j, 0) for j in range(n)] for _, row in pivots]


def nullspace(rows, ncols) -> list:
    """Basis of the exact nullspace of A (list of coordinate lists), one
    vector per free column in column order, that column set to 1.  Rows
    are sequences or ``{column: value}`` dicts, as in ``solve_linear``."""
    pivots, _ = _rref([_sparse(row) for row in rows], ncols)
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [0] * ncols
        v[fc] = 1
        for c, row in pivots:
            if fc in row:
                v[c] = -row[fc]
        basis.append(v)
    return basis
