"""Exact arithmetic substrate.

Provides univariate polynomials over ``Fraction``, rational functions in one
deformation parameter (``RatFun``, on int coefficient tuples), multivariate
polynomials in three variables with pluggable coefficient rings, and one
sparse exact elimination kernel behind ``solve_columns`` (with
``solve_linear`` over it), ``inverse`` and ``nullspace``.  The kernel
takes int and ``Fraction`` cells only, and is fraction-free: primitive int
rows, kept primitive after each combination and bucketed by leading
column.  ``solve_columns`` returns each solution as int numerators over
one denominator, the form the elimination holds; ``solve_linear``,
``inverse`` and ``nullspace`` make a ``Fraction`` only for a cell they
return.

All values are immutable after construction and all operations are pure.
Polynomial coefficient rings are duck-typed: any type supporting ``+ - *``,
division by ``int``, ``bool()`` zero-test and equality works (``Fraction``,
``RatFun``).
Every value is exact; there is no approximate mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import zip_longest


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


class PoleError(DomainError, ZeroDivisionError):
    """A rational function was built with a zero denominator, divided by
    zero, or evaluated at a pole."""


class NoSolution(ValueError):
    """An exact linear system admits no solution."""


def rat(value, what: str, name) -> Fraction:
    """``value`` as a ``Fraction``; a DomainError naming ``what`` and
    ``name`` unless it is an int or a ``Fraction``: a bool is neither, so
    True is not read as 1, nor a float as its binary fraction."""
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    raise DomainError(f"{what} {name!r} is {value!r}, not an int or a Fraction")


def parse_rat(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    return Fraction(text.strip())


def scaled_ints(values, scale=None) -> tuple[tuple[int, ...], int]:
    """Rationals (ints or ``Fraction``s) on one integer grid: ``(t, L)`` with
    ``values[i] = t[i] / L``.  ``L`` is the lcm of their denominators, or
    ``scale`` when given, which each denominator must divide."""
    if scale is None:
        scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented  # so a RatFun compares itself
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its coefficient (zero equals 0), so it hashes alike
        return hash(self.coeff(0)) if len(self.coeffs) < 2 else hash(self.coeffs)

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
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
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


def _add(a, b):
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b):
                out[i + j] += c * e
    return tuple(out)


def _quo(a, b):
    """a/b for int tuples, when b divides a in Z[s]."""
    rem, db = list(a), len(b) - 1
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem[k + db] // b[-1]
        for j in range(db):
            rem[k + j] -= c * b[j]
    return tuple(quo)


def _primitive(*ts):
    """Int tuples divided by their joint content, signed so that the last
    one has a positive lead."""
    c = math.gcd(*sum(ts, ()))
    c = -c if ts[-1][-1] < 0 else c
    return ts if c == 1 else tuple(tuple(x // c for x in t) for t in ts)


def _coprime(a, b):
    """Int tuples a and b divided by their gcd in Q[s], found by Euclid on
    pseudo-remainders made primitive; a primitive gcd divides both in Z[s]
    (Gauss's lemma).  A constant on either side is coprime to the other, so
    no Euclid step runs then."""
    if len(a) < 2 or len(b) < 2:
        return a, b
    g, h = (a, b) if len(a) >= len(b) else (b, a)
    (h,) = _primitive(h)
    while len(h) > 1:
        rem, dh = list(g), len(h) - 1
        while len(rem) > dh:
            top, k = rem.pop(), len(rem) - dh
            rem = [x * h[-1] - (top * h[j - k] if j >= k else 0) for j, x in enumerate(rem)]
        rem = _add(rem, ())
        if not rem:
            return _quo(a, h), _quo(b, h)
        g, (h,) = h, _primitive(rem)
    return a, b


class RatFun:
    """Element n/d of Q(s), held as int coefficient tuples ``n`` and ``d``,
    low degree first, in canonical form: n and d coprime in Q[s], their
    coefficients jointly primitive, and lead(d) > 0 (zero is ``((), (1,))``).
    The form is unique, so equality and hashing compare the tuples.  ``num``
    and ``den`` are the same pair over ``Fraction``, with ``den`` monic.

    The arithmetic skips the gcd where its answer is known: a constant on
    either side is coprime to the other, a sum over a shared denominator
    only cancels against that denominator, a product cancels each
    numerator against the other factor's denominator only (Henrici), which
    leaves a coprime pair, and a product with an int scales the numerator.
    """

    __slots__ = ("n", "d")

    def __new__(cls, num, den=1):
        (n, num_scale), (d, den_scale) = (
            scaled_ints(p.coeffs if isinstance(p, UniPoly) else (Fraction(p),) if p else ())
            for p in (num, den)
        )
        if not d:
            raise PoleError("rational function with zero denominator")
        return cls._make(*_coprime(_mul(n, (den_scale,)), _mul(d, (num_scale,))))

    @classmethod
    def _make(cls, n, d) -> "RatFun":
        """Wrap int tuples n and d (nonzero) that are coprime in Q[s]."""
        out = object.__new__(cls)
        n, d = _primitive(n, d) if n else ((), (1,))
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "d", d)
        return out

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    @property
    def num(self) -> UniPoly:
        return UniPoly([Fraction(c, self.d[-1]) for c in self.n])

    @property
    def den(self) -> UniPoly:
        return UniPoly([Fraction(c, self.d[-1]) for c in self.d])

    @classmethod
    def const(cls, c) -> "RatFun":
        return cls.coerce(Fraction(c))

    @classmethod
    def variable(cls) -> "RatFun":
        return cls._make((0, 1), (1,))

    @staticmethod
    def coerce(v) -> "RatFun":
        if isinstance(v, RatFun):
            return v
        if isinstance(v, (int, Fraction)):
            return RatFun._make((v.numerator,) if v else (), (v.denominator,))
        return RatFun(v)

    def __bool__(self):
        return bool(self.n)

    def __eq__(self, other):
        other = _operand(other)
        return other is not None and self.n == other.n and self.d == other.d

    def __hash__(self):
        # with d constant it equals its UniPoly, and a constant its Fraction
        return hash(self.num) if len(self.d) == 1 else hash((self.n, self.d))

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if not self.n or not other.n:
            return self if self.n else other
        if self.d == other.d:
            return RatFun._make(*_coprime(_add(self.n, other.n), self.d))
        n = _add(_mul(self.n, other.d), _mul(other.n, self.d))
        return RatFun._make(*_coprime(n, _mul(self.d, other.d)))

    __radd__ = __add__

    def __neg__(self):
        return RatFun._make(tuple(-c for c in self.n), self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            # k n / d stays coprime, and _make makes it primitive again
            return RatFun._make(tuple(other * c for c in self.n) if other else (), self.d)
        other = _operand(other)
        if other is None:
            return NotImplemented
        n1, d2 = _coprime(self.n, other.d)
        n2, d1 = _coprime(other.n, self.d)
        return RatFun._make(_mul(n1, n2), _mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if not other.n:
            raise PoleError("division by zero rational function")
        return self * RatFun._make(other.d, other.n)

    def __rtruediv__(self, other):
        return RatFun.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFun.const(1) / self ** (-k)
        n = d = (1,)
        for _ in range(k):
            n, d = _mul(n, self.n), _mul(d, self.d)
        return RatFun._make(n, d)

    def eval(self, v) -> Fraction:
        n, d = (reduce(lambda acc, c: acc * v + c, reversed(t), 0) for t in (self.n, self.d))
        if not d:
            raise PoleError("pole of rational function")
        return Fraction(n, d)

    def deriv(self) -> "RatFun":
        dn, dd = (tuple(k * c for k, c in enumerate(t) if k) for t in (self.n, self.d))
        num = _add(_mul(dn, self.d), _mul(self.n, _mul(dd, (-1,))))
        return RatFun._make(*_coprime(num, _mul(self.d, self.d)))

    def to_text(self, var: str = "s") -> str:
        n = self.num.to_text(var)
        return n if len(self.d) == 1 else f"({n})/({self.den.to_text(var)})"

    def __repr__(self):
        return f"RatFun({self.to_text()})"


def _operand(v):
    """``v`` as a ``RatFun``, or None for a type the arithmetic does not take."""
    return RatFun.coerce(v) if isinstance(v, (RatFun, int, Fraction, UniPoly)) else None


# ---------------------------------------------------------------------------
# Multivariate polynomials in X1, X2, X3
# ---------------------------------------------------------------------------


VAR_NAMES = ("X1", "X2", "X3")


def _exponent_vector(v, where: str) -> tuple[int, int, int]:
    """The exponent vector ``v`` of a monomial in X1, X2, X3 as a tuple.

    The one reader of exponent vectors: the keys of :class:`MultiPoly`,
    and in ``ises.isespoly``, ``ises.jacobi`` and ``ises.pfsolve`` every
    exponent vector, the catalog loader's included.  A list or tuple of
    three nonnegative ``int``s is accepted, and anything else raises
    :class:`DomainError` with ``where`` (the entry, when there is one) in
    front.  Bools are rejected, though ``isinstance`` counts them as ints
    (JSON true and false load as bools), and so are floats, which ``int``
    would truncate.
    """
    vec = tuple(v) if isinstance(v, (list, tuple)) else ()
    if len(vec) != 3 or not all(type(e) is int and e >= 0 for e in vec):
        raise DomainError(f"{where}: expected three nonnegative integers, got {v!r}")
    return vec


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
            e = _exponent_vector(exps, "MultiPoly")
            if e in d:
                c = d[e] + c
            if c:
                d[e] = c
            elif e in d:
                del d[e]
        object.__setattr__(self, "terms", dict(d))

    @classmethod
    def _wrap(cls, terms: dict) -> "MultiPoly":
        """A polynomial that takes over ``terms``, whose keys are already
        exponent triples and whose coefficients are nonzero, unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

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
        return cls([(exps, c)])

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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
        return MultiPoly._wrap(d)

    def __neg__(self):
        return MultiPoly._wrap({e: -c for e, c in self.terms.items()})

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
            return MultiPoly._wrap(d)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not c:
            return MultiPoly()
        return MultiPoly._wrap({e: v * c for e, v in self.terms.items()})

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
        return MultiPoly._wrap(d)

    def map_coeffs(self, fn) -> "MultiPoly":
        return MultiPoly({e: fn(c) for e, c in self.terms.items()})

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
            cs = c.to_text() if hasattr(c, "to_text") else str(c)
            if mono:
                parts.append(f"({cs})*{mono}" if cs != "1" else mono)
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


def monomials_of_weighted_degree(weights, degree) -> list:
    """All exponent triples e >= 0 with Σ weights[i]*e[i] == degree, in
    ascending order; the weights are positive, and they and degree are ints
    or ``Fraction``s.  So e1 is at most degree // weights[0], and e2 at most
    what remains of the degree over weights[1]."""
    out = []
    for e1 in range(degree // weights[0] + 1):
        rest = degree - weights[0] * e1
        for e2 in range(rest // weights[1] + 1):
            e3, r3 = divmod(rest - weights[1] * e2, weights[2])
            if not r3:
                out.append((e1, e2, int(e3)))
    return out


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _rref(rows, ncols):
    """Reduced row echelon form of sparse rows, fraction-free.

    ``rows`` are ``{column: value}`` dicts of nonzero int or ``Fraction``
    cells (any other cell, a float say, raises a DomainError), reduced in
    place; only columns below ``ncols`` are pivoted on.
    Returns the pivot rows as ``(column, row)`` pairs in column order, each
    clear in every other pivot column and still scaled by its pivot cell
    (``_cell`` divides by it), and the leftover rows, which are empty below
    ``ncols``.

    Each row is scaled on entry to a primitive int row (a row scale keeps
    the solution set); a row of ints only needs no scale, just its content
    removed.  A combination is ``row = a*row - f*prow``, with a and f
    divided by their gcd, and the row's content is removed after it, so the
    loop makes no ``Fraction``.  A pending row waits in the bucket of its
    leading column: all lower columns are done, so the rows to clear at
    column c are that bucket.  The RREF is unique, so neither the pivot-row
    choice nor the order of the steps changes it.
    """
    buckets: dict[int, list[dict]] = {}
    rest = []

    def enqueue(row, lead):
        if lead is not None:
            (rest if lead >= ncols else buckets.setdefault(lead, [])).append(row)

    for row in rows:
        if not all(type(v) is int for v in row.values()):
            bad = [v for v in row.values() if not isinstance(v, (int, Fraction))]
            if bad:
                raise DomainError(f"matrix cell {bad[0]!r} is not an int or a Fraction")
            row.update(zip(list(row), scaled_ints(row.values())[0]))
        enqueue(row, _normalise(row))
    pivots = []
    for c in range(ncols):
        hits = buckets.pop(c, None)
        if hits is None:
            continue
        prow = min(hits, key=len)
        for row in hits:
            if row is not prow:
                enqueue(row, _combine(row, prow, c))
        pivots.append((c, prow))
    # Back substitution, last pivot first: clearing a row with a reduced
    # pivot row brings in no other pivot column.
    pivot_rows = dict(pivots)
    for c, row in reversed(pivots):
        for k in [k for k in row if k != c and k in pivot_rows]:
            _combine(row, pivot_rows[k], k)
    return pivots, rest


def _normalise(row):
    """Divide ``row`` by the gcd of its int cells; returns the leading
    column (None for no cell)."""
    if not row:
        return None
    g = math.gcd(*row.values())
    if g != 1:
        for k in row:
            row[k] //= g
    return min(row)


def _combine(row, prow, c):
    """Clear column ``c`` of ``row`` as row = a*row - f*prow, with ``prow``
    the pivot row of ``c``; normalise it and return its leading column."""
    a, f = prow[c], row.pop(c)
    if a != 1:
        g = math.gcd(a, f)
        a, f = a // g, f // g
        if a != 1:
            for k in row:
                row[k] *= a
    for k, v in prow.items():
        if k != c:
            x = row.get(k, 0) - f * v
            if x:
                row[k] = x
            else:
                row.pop(k, None)
    return _normalise(row)


def _cell(row, c, k):
    """Cell ``k`` of the pivot row of column ``c`` over its pivot cell: a
    ``Fraction``, or 0 for no cell."""
    v = row.get(k, 0)
    return Fraction(v, row[c]) if v else 0


def _sparse(row):
    """The nonzero cells of a row, given as a sequence or as a
    ``{column: value}`` dict, in a new dict."""
    cells = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: v for c, v in cells if v}


def solve_columns(rows, columns, ncols=None) -> list:
    """Solve A x = b_j exactly for each right-hand column b_j of ``columns``,
    all in one elimination of ``[A | b_1 ... b_k]``.

    ``rows`` are as in ``solve_linear``; each column is a sequence of int
    or ``Fraction`` cells or a sparse ``{row: value}`` dict.  Returns one
    entry per column: ``None`` when that column is inconsistent, else the
    particular solution with every free variable set to 0, as a pair
    ``(x, den)`` whose solution is x[i] / den, in the form the elimination
    holds it: x holds ints and den is the lcm of the solution's
    denominators.  A zero coordinate is the int 0.  The RREF of the
    augmented matrix is unique on every consistent column, so each
    solution is the one that ``solve_linear`` gives for its column alone.
    """
    n = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    aug = [_sparse(row) for row in rows]
    for j, col in enumerate(columns):
        for i, b in _sparse(col).items():
            aug[i][n + j] = b
    pivots, rest = _rref(aug, n)
    # A leftover row is 0 on A, so each of its cells marks an inconsistent column.
    inconsistent = {k - n for row in rest for k in row}
    out = []
    for k in range(n, n + len(columns)):
        if k - n in inconsistent:
            out.append(None)
            continue
        # each cell is row[k] over its pivot cell
        cells = [(c, row[c], row[k]) for c, row in pivots if k in row]
        den = math.lcm(*(p for _, p, _ in cells))
        x = [0] * n
        for c, p, v in cells:
            x[c] = v if p == den else v * (den // p)
        g = math.gcd(den, *x) if den != 1 else 1  # to the least denominator
        out.append(([v // g for v in x], den // g) if g != 1 else (x, den))
    return out


def solve_linear(rows, rhs, ncols=None):
    """Solve A x = b exactly over Q by Gaussian elimination.

    Each of ``rows`` is a sequence of int or ``Fraction`` cells or a sparse
    ``{column: value}`` dict (a dict row needs ``ncols``), and ``rhs`` is
    the right-hand column.  Returns a particular solution with every free
    variable set to 0, each coordinate a ``Fraction`` or the int 0.  Raises
    NoSolution when inconsistent.
    """
    (sol,) = solve_columns(rows, [rhs], ncols)
    if sol is None:
        raise NoSolution("inconsistent linear system")
    x, den = sol
    return [Fraction(v, den) if v else 0 for v in x]


def inverse(rows) -> list:
    """Rows of the inverse of a square matrix, from one elimination of
    ``[A | I]``; rows are sequences or ``{column: value}`` dicts, as in
    ``solve_linear``.  Raises NoSolution when A is singular, and a
    DomainError when a row is not n cells long for n rows (a dict row, when
    it has a column past n - 1)."""
    n = len(rows)
    for row in rows:
        if max(row, default=0) >= n if isinstance(row, dict) else len(row) != n:
            raise DomainError(f"inverse: the matrix is not square: {n} row(s), one of them {row!r}")
    pivots, _ = _rref([{**_sparse(row), n + i: 1} for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise NoSolution("singular matrix")
    return [[_cell(row, c, n + j) for j in range(n)] for c, row in pivots]


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
                v[c] = -_cell(row, c, fc)
        basis.append(v)
    return basis
