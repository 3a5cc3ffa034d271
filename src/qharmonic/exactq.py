"""Exact arithmetic in the field Q(q).

Provides arbitrary-precision rationals (``Rational``), dense polynomials in the
indeterminate q (``QPoly``), reduced rational functions (``QRat``), and the
q-combinatorial primitives built on them: q-integers, q-factorials and Gaussian
binomial coefficients.

All values are immutable and kept in a canonical form — polynomials carry no
trailing zero coefficients, rational functions are gcd-reduced with a monic
denominator — so structural equality decides equality in Q(q).

The arithmetic runs over Z: a polynomial is stored as integer numerators over
one positive common denominator, and a rational function is reduced with the
heuristic integer gcd GCDHEU (Char, Geddes & Gonnet, 1989), which falls back to
the primitive remainder sequence when the heuristic is unlucky.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Union

# Arbitrary-precision rationals: always in lowest terms, denominator > 0,
# zero is Fraction(0, 1).  These invariants are guaranteed by the class itself.
Rational = Fraction

Scalar = Union[int, Fraction]


class InexactDivisionError(ArithmeticError):
    """A polynomial division that was required to be exact left a remainder."""


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


def _format_terms(coeffs: tuple[Fraction, ...]) -> str:
    if not coeffs:
        return "0"
    parts: list[str] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif mag == 1:
            body = "q" if i == 1 else f"q^{i}"
        else:
            body = f"{mag}*q" if i == 1 else f"{mag}*q^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


class QPoly:
    """Dense univariate polynomial in q over the rationals.

    Stored as integer numerators over one positive common denominator that
    shares no factor with all of them: ``(1/den) * sum(nums[i] q**i)``.  That
    form is unique, so equality compares (nums, den).  ``coeffs[i]`` is the
    rational coefficient of q**i, built on first use.  Trailing zeros are
    stripped, so the zero polynomial has no coefficients and ``degree`` None.
    """

    __slots__ = ("_nums", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        self._nums, self._den, self._coeffs = tuple(nums), den if nums else 1, None

    @classmethod
    def zero(cls) -> QPoly:
        return cls()

    @classmethod
    def one(cls) -> QPoly:
        return cls((1,))

    @classmethod
    def constant(cls, c: Scalar) -> QPoly:
        return cls((c,))

    @classmethod
    def variable(cls) -> QPoly:
        """The polynomial q itself."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, c: Scalar, power: int) -> QPoly:
        if power < 0:
            raise ValueError("monomial power must be non-negative")
        return cls((0,) * power + (c,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(n, self._den) for n in self._nums)
        return self._coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (never a number)."""
        return len(self._nums) - 1 if self._nums else None

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._nums:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._den)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._nums == other._nums and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == _as_poly(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("QPoly", self._nums, self._den))

    def __neg__(self) -> QPoly:
        return _poly([-c for c in self._nums], self._den)

    def __add__(self, other: QPoly | Scalar) -> QPoly:
        if not isinstance(other, (QPoly, int, Fraction)):
            return NotImplemented
        other = _as_poly(other)
        a, b, den = self._nums, other._nums, self._den
        if den != other._den:
            g = math.gcd(den, other._den)
            fa, fb = other._den // g, den // g
            a, b, den = [c * fa for c in a], [c * fb for c in b], den * fa
        if len(a) < len(b):
            a, b = b, a
        return _reduced([x + y for x, y in zip(a, b)] + list(a[len(b):]), den)

    __radd__ = __add__

    def __sub__(self, other: QPoly | Scalar) -> QPoly:
        if not isinstance(other, (QPoly, int, Fraction)):
            return NotImplemented
        return self + (-_as_poly(other))

    def __rsub__(self, other: QPoly | Scalar) -> QPoly:
        if not isinstance(other, (QPoly, int, Fraction)):
            return NotImplemented
        return _as_poly(other) + (-self)

    def __mul__(self, other: QPoly | Scalar) -> QPoly:
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other)
        elif not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._nums, other._nums
        if not a or not b:
            return _poly((), 1)
        if len(a) > len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        return _reduced(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial; use QRat")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: QPoly | Scalar) -> tuple[QPoly, QPoly]:
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lb = other.leading_coefficient
        quo = [Fraction(0)] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            factor = rem[-1] / lb
            shift = len(rem) - 1 - db
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return QPoly(quo), QPoly(rem)

    def __mod__(self, other: QPoly | Scalar) -> QPoly:
        return divmod(self, other)[1]

    def exact_div(self, other: QPoly | Scalar) -> QPoly:
        """Divide, requiring a zero remainder."""
        quo, rem = divmod(self, other)
        if not rem.is_zero:
            raise InexactDivisionError(f"{self} is not divisible by {other}")
        return quo

    def monic(self) -> QPoly:
        if self.is_zero:
            return self
        lc = self.leading_coefficient
        return self if lc == 1 else self * (Fraction(1) / lc)

    def evaluate(self, q0: Scalar) -> Fraction:
        """Exact value at q = q0 (Horner)."""
        q0 = Fraction(q0)
        acc = Fraction(0)
        for c in reversed(self._nums):
            acc = acc * q0 + c
        return acc / self._den

    def __str__(self) -> str:
        return _format_terms(self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


def _poly(nums: Iterable[int], den: int) -> QPoly:
    # (1/den) * nums, already canonical: no trailing zero, den > 0 and in lowest terms.
    p = object.__new__(QPoly)
    p._nums, p._den, p._coeffs = tuple(nums), den, None
    return p


def _reduced(nums: list[int], den: int) -> QPoly:
    # (1/den) * nums for any den > 0: strip trailing zeros, cancel the common factor.
    while nums and not nums[-1]:
        nums.pop()
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
    return _poly(nums, den)


def _as_poly(x: QPoly | Scalar) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return _poly((x.numerator,) if x else (), x.denominator)
    raise TypeError(f"cannot interpret {x!r} as a polynomial in q")


def _int_primitive(v: Iterable[int]) -> tuple[list[int], int]:
    # v = cont * prim with prim having content 1 and positive leading coefficient.
    v = list(v)
    g = math.gcd(*v)
    if g == 0:
        return [], 0
    if v[-1] < 0:
        g = -g
    return [c // g for c in v], g


def _int_divide(a: list[int], b: list[int]) -> list[int] | None:
    # Quotient a / b in Z[q] when b divides a exactly, else None.  For primitive b
    # this decides divisibility in Q[q] too (Gauss's lemma).
    r, db, lb = list(a), len(b) - 1, b[-1]
    if len(r) <= db:
        return None if r else []
    quo = [0] * (len(r) - db)
    for shift in range(len(r) - 1 - db, -1, -1):
        lead, rem = divmod(r[shift + db], lb)
        if rem:
            return None
        if lead:
            quo[shift] = lead
            for i, bc in enumerate(b, shift):
                r[i] -= lead * bc
    return None if any(r[:db]) else quo


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    # Pseudo-remainder over Z; any accumulated content is removed by the caller.
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        lead = r[-1]
        r = [lb * c for c in r]
        shift = len(r) - 1 - db
        for i, bc in enumerate(b):
            r[shift + i] -= lead * bc
        while r and r[-1] == 0:
            r.pop()
    return r


def _int_prs_gcd(u: list[int], v: list[int]) -> list[int]:
    # Primitive remainder sequence on primitive u, v; the result is primitive
    # with positive lead.
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _int_primitive(_int_prem(u, v))[0]
    return u


def _int_eval(u: list[int], x: int) -> int:
    acc = 0
    for c in reversed(u):
        acc = acc * x + c
    return acc


_HEU_TRIES = 6


def _int_gcd(u: list[int], v: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, u/h, v/h) with h = gcd(u, v), for primitive u, v with positive leads.

    GCDHEU: evaluate at an integer xi, take the integer gcd of the values and
    read a candidate off its balanced base-xi digits.  For xi >= 2 min(|u|, |v|)
    + 2 (max norms) a candidate whose primitive part divides both operands is
    the gcd, and the verifying divisions give the cofactors.  A rejected
    candidate retries at a larger xi; after _HEU_TRIES rejections the primitive
    remainder sequence decides.
    """
    if len(u) == 1 or len(v) == 1:
        return [1], u, v
    xi = 2 * min(max(map(abs, u)), max(map(abs, v))) + 29
    for _ in range(_HEU_TRIES):
        eu, ev = _int_eval(u, xi), _int_eval(v, xi)
        if eu and ev:
            gamma, digits = math.gcd(eu, ev), []
            while gamma:
                d = gamma % xi
                if d > xi // 2:
                    d -= xi
                digits.append(d)
                gamma = (gamma - d) // xi
            h = _int_primitive(digits)[0]
            cu = _int_divide(u, h)
            cv = None if cu is None else _int_divide(v, h)
            if cv is not None:
                return h, cu, cv
        # grow xi by about 2.73 * xi^(1/4), the step of sympy's dup_zz_heu_gcd
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    h = _int_prs_gcd(u, v)
    return h, _int_divide(u, h), _int_divide(v, h)


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd in Q[q], via the heuristic integer gcd over Z."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    g = _int_gcd(_int_primitive(a._nums)[0], _int_primitive(b._nums)[0])[0]
    return _poly(g, g[-1])


@functools.cache
def q_integer(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1); the empty sum for n = 0."""
    if n < 0:
        raise ValueError("q_integer requires n >= 0")
    return QPoly((1,) * n)


@functools.cache
def q_factorial(n: int) -> QPoly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    if n == 0:
        return QPoly.one()
    return q_factorial(n - 1) * q_integer(n)


@functools.cache
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient [n choose k]_q, always a polynomial."""
    if n < 0:
        raise ValueError("q_binomial requires n >= 0")
    if k < 0 or k > n:
        raise ValueError(f"q_binomial index k={k} out of range for n={n}")
    # The factorial quotient must divide exactly; a remainder would mean the
    # polynomial arithmetic itself is broken, which exact_div surfaces.
    return q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))


class QRat:
    """Reduced element of Q(q): numerator/denominator in canonical form.

    Canonical form means gcd(num, den) is a nonzero constant and den is monic,
    so two values are equal in Q(q) exactly when they are structurally equal.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: QPoly | QRat | Scalar, den: QPoly | Scalar = 1) -> None:
        if isinstance(num, QRat):
            if _as_poly(den) != QPoly.one():
                raise TypeError("cannot re-divide an already rational value")
            self._num, self._den = num._num, num._den
            return
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(q)")
        # num/den = (n_cont * n_prim / n_den) / (d_cont * d_prim / d_den): reduce over
        # Z by cancelling the gcd of the primitive parts and folding the rest into
        # one scalar on the numerator.
        n_prim, n_cont = _int_primitive(num._nums)
        d_prim, d_cont = _int_primitive(den._nums)
        if n_cont and len(d_prim) > 1:
            _, n_prim, d_prim = _int_gcd(n_prim, d_prim)
        p, r = n_cont * den._den, d_cont * num._den * d_prim[-1]
        if r < 0:
            p, r = -p, -r
        g = math.gcd(p, r)
        self._num = _poly([c * (p // g) for c in n_prim], r // g)
        self._den = _poly(d_prim, d_prim[-1]) if n_cont else QPoly.one()

    @property
    def num(self) -> QPoly:
        return self._num

    @property
    def den(self) -> QPoly:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def __bool__(self) -> bool:
        return not self._num.is_zero

    def __eq__(self, other: object) -> bool:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash(("QRat", self._num, self._den))

    def __neg__(self) -> QRat:
        # -num/den is already canonical, so it skips the reduction in __init__.
        r = object.__new__(QRat)
        r._num, r._den = -self._num, self._den
        return r

    def __add__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        if other.is_zero or self.is_zero:
            return other if self.is_zero else self
        return QRat(self._num * other._den + other._num * self._den,
                    self._den * other._den)

    __radd__ = __add__

    def __sub__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        return QRat(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero in Q(q)")
        return QRat(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> QRat:
        if n >= 0:
            return QRat(self._num ** n, self._den ** n)
        if self.is_zero:
            raise ZeroDivisionError("zero has no negative powers")
        return QRat(self._den ** (-n), self._num ** (-n))

    def evaluate(self, q0: Scalar) -> Fraction:
        """Exact rational value at q = q0; PoleError at denominator roots."""
        d = self._den.evaluate(q0)
        if d == 0:
            raise PoleError(f"denominator vanishes at q = {q0}")
        return self._num.evaluate(q0) / d

    def __str__(self) -> str:
        return f"({self._num}) / ({self._den})"

    def __repr__(self) -> str:
        return f"QRat({self._num!r}, {self._den!r})"


def _coerce_rat(x: object) -> QRat | None:
    if isinstance(x, QRat):
        return x
    if isinstance(x, (QPoly, int, Fraction)):
        return QRat(x)
    return None


def _require_rat(x: QRat | QPoly | Scalar) -> QRat:
    r = _coerce_rat(x)
    if r is None:
        raise TypeError(f"cannot interpret {x!r} as an element of Q(q)")
    return r


@functools.cache
def q_power(e: int) -> QRat:
    """q**e as an element of Q(q); e may be negative."""
    if e >= 0:
        return QRat(QPoly.monomial(1, e))
    return QRat(QPoly.one(), QPoly.monomial(1, -e))


QRAT_ZERO = QRat(0)
QRAT_ONE = QRat(1)
