"""Exact arithmetic in the field Q(q).

Provides dense polynomials over Q in the indeterminate q (``QPoly``), reduced
rational functions (``QRat``), and the q-combinatorial primitives built on
them: q-integers, q-factorials and Gaussian binomial coefficients.

All values are immutable and kept in a canonical form, so structural equality
decides equality in Q(q).  A polynomial is stored as integer numerators over
one positive common denominator.  A rational function is stored as
(p/r) * n/d: n and d coprime primitive integer polynomials with positive
leading coefficients, and the scalar p/r in lowest terms with r > 0.  The
monic-denominator form ``num``/``den`` is built from that only for output.

Outside input is reduced with the heuristic integer gcd GCDHEU (Char, Geddes &
Gonnet, 1989), which falls back to the primitive remainder sequence when the
heuristic is unlucky.

Two reduced values combine by Henrici's algorithms (JACM 3, 1956; Knuth,
TAOCP vol. 2, 4.5.1), reading n, d, p and r directly: a product n1 n2 / d1 d2
cancels only gcd(n1, d2) and gcd(n2, d1); a sum, with g = gcd(d1, d2),
cancels only gcd(n1 (d2/g) + n2 (d1/g), g).  Inverses and powers take no gcd,
so no gcd ever sees the double-degree result.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


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
        # as equality does: a constant as its Fraction, anything else as its QRat
        if len(self._nums) <= 1:
            return hash(Fraction(self._nums[0], self._den) if self._nums else 0)
        return hash(QRat(self))

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
        if not self._nums or not other._nums:
            return _poly((), 1)
        return _reduced(_int_mul(self._nums, other._nums), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial; use QRat")
        if not self._nums:
            return self if n else QPoly.one()
        # content and den stay coprime in a power, so the result is canonical
        return _poly(_int_pow(self._nums, n), self._den ** n)

    def monic(self) -> QPoly:
        if self.is_zero:
            return self
        lc = self.leading_coefficient
        return self if lc == 1 else self * (Fraction(1) / lc)

    def evaluate(self, q0: Scalar) -> Fraction:
        """Exact value at q = q0 = p/s, by Horner over Z with one division at the end."""
        p, s = Fraction(q0).as_integer_ratio()
        acc, scale = 0, 1
        for c in reversed(self._nums):
            # acc / scale is the Horner value so far
            scale *= s
            acc = acc * p + c * scale
        return Fraction(acc, scale * self._den)

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


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # Schoolbook product of two nonzero integer coefficient lists.
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        return [a[0] * c for c in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _int_pow(v: Sequence[int], k: int) -> Sequence[int]:
    # v**k for nonzero v by square and multiply: bit_length - 1 squarings and
    # popcount - 1 products, none wasted.
    out = None
    while k:
        if k & 1:
            out = v if out is None else _int_mul(out, v)
        k >>= 1
        if k:
            v = _int_mul(v, v)
    return [1] if out is None else out


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


def _int_gcd(u: Sequence[int], v: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
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
            if len(h) == 1:  # a constant divides anything: u and v are coprime
                return h, u, v
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
    out = QPoly.one()
    for i in range(2, n + 1):
        out = out * q_integer(i)
    return out


@functools.cache
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient [n choose k]_q, by the q-Pascal recurrence over Z."""
    if n < 0:
        raise ValueError("q_binomial requires n >= 0")
    if k < 0 or k > n:
        raise ValueError(f"q_binomial index k={k} out of range for n={n}")
    # row[j] holds the integer coefficients of [i choose j] for the current i.
    row = [[1]] + [[] for _ in range(k)]
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            # [i, j] = [i-1, j-1] + q^j [i-1, j], where [i-1, i] = 0
            nxt = [0] * j + row[j] if row[j] else [0]
            for d, c in enumerate(row[j - 1]):
                nxt[d] += c
            row[j] = nxt
    return _poly(row[k], 1)


class QRat:
    """Reduced element of Q(q), stored as x = (p/r) * n/d.

    n and d are coprime primitive integer coefficient tuples with positive
    leading coefficients, r > 0 and gcd(p, r) = 1; zero is ((), (1,), 0, 1).
    That form is unique, so two values are equal in Q(q) exactly when they are
    structurally equal.  The monic-denominator pair ``num``/``den`` is built
    from it on each request, for output only.
    """

    __slots__ = ("_n", "_d", "_p", "_r")

    def __init__(self, num: QPoly | QRat | Scalar, den: QPoly | Scalar = 1) -> None:
        if isinstance(num, QRat):
            if _as_poly(den) != QPoly.one():
                raise TypeError("cannot re-divide an already rational value")
            self._n, self._d, self._p, self._r = num._n, num._d, num._p, num._r
            return
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(q)")
        # num/den = (n_cont * n_prim / n_den) / (d_cont * d_prim / d_den): reduce over
        # Z by cancelling the gcd of the primitive parts and folding the rest into
        # one scalar.
        n_prim, n_cont = _int_primitive(num._nums)
        d_prim, d_cont = _int_primitive(den._nums)
        if len(n_prim) > 1 and len(d_prim) > 1:
            _, n_prim, d_prim = _int_gcd(n_prim, d_prim)
        out = _canonical(n_prim, d_prim, n_cont * den._den, d_cont * num._den)
        self._n, self._d, self._p, self._r = out._n, out._d, out._p, out._r

    @property
    def num(self) -> QPoly:
        # the numerator over the monic den: x = p n / (r d[-1]) / (d / d[-1]), and
        # gcd(p, r d[-1]) = gcd(p, d[-1])
        ld = self._d[-1]
        g = math.gcd(self._p, ld)
        return _poly([c * (self._p // g) for c in self._n], self._r * ld // g)

    @property
    def den(self) -> QPoly:
        return _poly(self._d, self._d[-1])

    @property
    def is_zero(self) -> bool:
        return not self._p

    def __bool__(self) -> bool:
        return bool(self._p)

    def __eq__(self, other: object) -> bool:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        return (self._p == other._p and self._r == other._r
                and self._n == other._n and self._d == other._d)

    def __hash__(self) -> int:
        # a constant equals its int or Fraction, so it hashes as that value
        if len(self._n) <= 1 and len(self._d) == 1:
            return hash(Fraction(self._p, self._r))
        return hash((self._n, self._d, self._p, self._r))

    def __neg__(self) -> QRat:
        return _canonical(self._n, self._d, -self._p, self._r)

    def __add__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        if not self._p or not other._p:
            return self if self._p else other
        n1, d1, p1, r1 = self._n, self._d, self._p, self._r
        n2, d2, p2, r2 = other._n, other._d, other._p, other._r
        # Henrici: with g = gcd(d1, d2) and e_i = d_i/g, the sum is t / (e1 e2 g) over
        # r1 r2 for t = p1 r2 n1 e2 + p2 r1 n2 e1, and only gcd(t, g) can cancel.
        g, e1, e2 = (1,), d1, d2
        if d1 == d2:
            g, e1, e2 = d1, (1,), (1,)
        elif len(d1) > 1 and len(d2) > 1:
            g, e1, e2 = _int_gcd(d1, d2)
        a = _int_mul(n1, [p1 * r2 * c for c in e2])
        b = _int_mul(n2, [p2 * r1 * c for c in e1])
        if len(a) < len(b):
            a, b = b, a
        t = [x + y for x, y in zip(a, b)] + a[len(b):]
        while t and not t[-1]:
            t.pop()
        t, t_cont = _int_primitive(t)
        if len(t) > 1 and len(g) > 1:
            _, t, g = _int_gcd(t, g)
        return _canonical(t, _int_mul(_int_mul(e1, e2), g), t_cont, r1 * r2)

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
        if not self._p or not other._p:
            return QRAT_ZERO
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        # Henrici: n1/d1 and n2/d2 are reduced, so only gcd(n1, d2) and gcd(n2, d1)
        # can cancel from the product, and each involves one operand's degree only.
        # A constant operand leaves nothing to cancel, so it takes no gcd call.
        if len(n1) > 1 and len(d2) > 1:
            _, n1, d2 = _int_gcd(n1, d2)
        if len(n2) > 1 and len(d1) > 1:
            _, n2, d1 = _int_gcd(n2, d1)
        return _canonical(_int_mul(n1, n2), _int_mul(d1, d2), self._p * other._p,
                          self._r * other._r)

    __rmul__ = __mul__

    def __truediv__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        if not other._p:
            raise ZeroDivisionError("division by zero in Q(q)")
        return self * _canonical(other._d, other._n, other._r, other._p)

    def __rtruediv__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> QRat:
        if n < 0:
            if not self._p:
                raise ZeroDivisionError("zero has no negative powers")
            return _canonical(self._d, self._n, self._r, self._p) ** -n
        if not self._p:
            return self if n else QRAT_ONE
        # powers of coprime primitive n and d stay coprime and primitive
        return _canonical(_int_pow(self._n, n), _int_pow(self._d, n), self._p ** n, self._r ** n)

    def evaluate(self, q0: Scalar) -> Fraction:
        """Exact rational value at q = q0; PoleError at denominator roots."""
        d = _poly(self._d, 1).evaluate(q0)
        if d == 0:
            raise PoleError(f"denominator vanishes at q = {q0}")
        return _poly(self._n, 1).evaluate(q0) * self._p / (self._r * d)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QRat({self.num!r}, {self.den!r})"


def _canonical(n: Sequence[int], d: Sequence[int], p: int, r: int) -> QRat:
    # (p/r) * n/d for coprime primitive n, d with positive leads and r != 0: only
    # the sign and the gcd of the scalar are left to fix.
    out = object.__new__(QRat)
    if not p:
        out._n, out._d, out._p, out._r = (), (1,), 0, 1
        return out
    g = math.gcd(p, r) if r > 0 else -math.gcd(p, r)
    out._n, out._d, out._p, out._r = tuple(n), tuple(d), p // g, r // g
    return out


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
