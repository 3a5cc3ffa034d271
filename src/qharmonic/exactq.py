"""Exact arithmetic in the field Q(q).

Provides reduced rational functions (``QRat``), dense polynomials over Q in
the indeterminate q (``QPoly``), and the q-combinatorial primitives built on
them: q-integers, q-factorials and Gaussian binomial coefficients.

All values are immutable and kept in one canonical form, so structural
equality decides equality in Q(q).  A rational function is stored in Laurent
form (p/r) * q^e * n/d: n and d coprime primitive integer polynomials with
positive leading coefficients and nonzero constant terms, the scalar p/r in
lowest terms with r > 0, and the power of q an integer exponent e.  A
polynomial is the ``QRat`` it equals, with d = 1 and e >= 0, under a thin
wrapper that keeps results polynomial.  The monic-denominator form
``num``/``den`` is built from that only for output.

A factor known to be a product of cyclotomic polynomials Phi_k is carried as
its exponent vector {k: m}, and numerator and denominator are stored alike: a
generic part times a vector.  The q-constants produce vectors from their
closed forms, [n]_q the product of Phi_d over the divisors d > 1 of n and
[n choose k]_q that of Phi_d^(n//d - k//d - (n-k)//d), and coefficient lists
are built on request only: output, hashing and a sum's numerator.  A vector's
product is built once, by its binomial form Phi_k = prod (q^d - 1)^mu(k/d),
and kept in ``_phi_product``, a bounded table keyed by the vector and the only
store of coefficient lists, as values keep none; Phi_k is its one-factor entry.

Values combine by Henrici's algorithms (JACM 3, 1956; Knuth, TAOCP vol. 2,
4.5.1), reading n, d, p, r and e directly: a product n1 n2 / d1 d2 cancels
only gcd(n1, d2) and gcd(n2, d1); a sum, with g = gcd(d1, d2), cancels only
gcd(n1 (d2/g) + n2 (d1/g), g) after shifting the numerator of the operand
with the larger exponent to the smaller one.  Inverses and powers take no
gcd, and every gcd has a q-free denominator factor as one operand, so none
has a factor q.  A unit, a scalar times q^e (n = d = 1), multiplies by
changing p, r and e alone, with no polynomial product.  ``QRat(num, den)``
is num times the inverse of den, so this is the one reduction path.

Every gcd is taken along the stored form: the vectors by their componentwise
minimum, and each generic part against the other side's vector by trial
division, each Phi_k tried first by its residue mod q^k - 1 (k strided sums)
so that only a hit pays for a division.  Only where two generic parts meet,
as outside input builds them, does the heuristic integer gcd GCDHEU (Char,
Geddes & Gonnet, 1989) run, falling back to the primitive remainder sequence
when the heuristic is unlucky.  These gcds are internal to reduction; the
module exports none, and ``_canonical`` builds every ``QRat``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


def _format_terms(coeffs: tuple[Fraction, ...]) -> str:
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

    A thin type over the ``QRat`` it equals: ``_x`` is that canonical value,
    whose denominator d is 1 and exponent e >= 0, so the polynomial is
    (p/r) * q^e * n.  Equality, hashing and arithmetic are the ``QRat`` ones,
    wrapped back into ``QPoly``.
    ``coeffs[i]`` is the rational coefficient of q**i, built on each request.
    The zero polynomial has no coefficients and ``degree`` None.
    """

    __slots__ = ("_x",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        n, cont = _int_primitive(nums)
        self._x = _canonical(n, (1,), cont, den, 0)

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
        """c * q**power, a unit: no coefficient list is built."""
        _require_index(0, power=power)
        c = c if isinstance(c, (int, Fraction)) else Fraction(c)
        return _wrap(q_power(power) * c)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        x = self._x
        return (Fraction(0),) * x._e + tuple(Fraction(c * x._p, x._r) for c in x._ncoeffs())

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (never a number)."""
        x = self._x
        return x._e + len(x._ncoeffs()) - 1 if x._p else None

    @property
    def is_zero(self) -> bool:
        return not self._x._p

    @property
    def leading_coefficient(self) -> Fraction:
        x = self._x
        if not x._p:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(x._n[-1] * x._p, x._r)  # each Phi_k is monic

    def __bool__(self) -> bool:
        return bool(self._x._p)

    def __eq__(self, other: object) -> bool:
        other = _coerce_rat(other)
        return NotImplemented if other is None else self._x == other

    def __hash__(self) -> int:
        return hash(self._x)

    def __neg__(self) -> QPoly:
        return _wrap(-self._x)

    def __add__(self, other: QPoly | Scalar) -> QPoly:
        other = _poly_operand(other)
        return NotImplemented if other is None else _wrap(self._x + other)

    __radd__ = __add__

    def __sub__(self, other: QPoly | Scalar) -> QPoly:
        other = _poly_operand(other)
        return NotImplemented if other is None else _wrap(self._x - other)

    def __rsub__(self, other: QPoly | Scalar) -> QPoly:
        other = _poly_operand(other)
        return NotImplemented if other is None else _wrap(other - self._x)

    def __mul__(self, other: QPoly | Scalar) -> QPoly:
        other = _poly_operand(other)
        return NotImplemented if other is None else _wrap(self._x * other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QPoly:
        _require_index(0, n=n)
        return _wrap(self._x ** n)

    def monic(self) -> QPoly:
        if self.is_zero:
            return self
        lc = self.leading_coefficient
        return self if lc == 1 else self * (Fraction(1) / lc)

    def evaluate(self, q0: Scalar) -> Fraction:
        """Exact value at q = q0."""
        return self._x.evaluate(q0)

    def __str__(self) -> str:
        return _format_terms(self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


def _wrap(x: QRat) -> QPoly:
    # the polynomial equal to x, a canonical QRat with d == (1,)
    out = object.__new__(QPoly)
    out._x = x
    return out


def _poly_operand(x: object) -> QRat | None:
    # a QPoly operator's other operand as a QRat; None for QRat, so that its
    # reflected operator runs and the result stays rational
    return None if isinstance(x, QRat) else _coerce_rat(x)


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
    # popcount - 1 products, none wasted; a constant takes none.
    if len(v) == 1:
        return [v[0] ** k]
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


def _int_divide(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    # Quotient a / b in Z[q] when b divides a exactly, else None.  For primitive b
    # this decides divisibility in Q[q] too (Gauss's lemma).  Each quotient digit
    # takes the place of the lead it removes; zero terms of b cost nothing, and a
    # monic b, such as Phi_k, no divmod.
    r, db, lb = list(a), len(b) - 1, b[-1]
    if len(r) <= db:
        return None if r else []
    terms = [(i, bc) for i, bc in enumerate(b[:db]) if bc]
    for shift in range(len(r) - 1 - db, -1, -1):
        lead = r[shift + db]
        if lead:
            if lb != 1:
                lead, rem = divmod(lead, lb)
                if rem:
                    return None
                r[shift + db] = lead
            for i, bc in terms:
                r[shift + i] -= lead * bc
    return None if any(r[:db]) else r[db:]


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


def _int_horner(u: Sequence[int], p: int, s: int) -> tuple[int, int]:
    # (acc, scale) with acc / scale = u(p/s): Horner over Z, no division
    acc, scale = 0, 1
    for c in reversed(u):
        scale *= s
        acc = acc * p + c * scale
    return acc, scale


_HEU_TRIES = 6


def _int_gcd(u: Sequence[int], v: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, u/h, v/h) with h = gcd(u, v), for nonconstant primitive u, v with positive leads.

    GCDHEU: evaluate at an integer xi, take the integer gcd of the values and
    read a candidate off its balanced base-xi digits.  For xi >= 2 min(|u|, |v|)
    + 2 (max norms) a candidate whose primitive part divides both operands is
    the gcd, and the verifying divisions give the cofactors.  A rejected
    candidate retries at a larger xi; after _HEU_TRIES rejections the primitive
    remainder sequence decides.
    """
    xi = 2 * min(max(map(abs, u)), max(map(abs, v))) + 29
    for _ in range(_HEU_TRIES):
        eu, ev = _int_horner(u, xi, 1)[0], _int_horner(v, xi, 1)[0]
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


# --- cyclotomic exponent vectors ------------------------------------------------
#
# A vector {k: m} with every m > 0 stands for the product of Phi_k^m; the empty
# vector is 1.  Vectors are never mutated once built, so values share them.

def _phi_binomials(k: int) -> dict[int, int]:
    # {d: mu(k/d)}: Phi_k is the product of (q^d - 1)^mu(k/d) over the divisors
    # d of k with k/d squarefree
    binomials, rest, p = {k: 1}, k, 2
    while rest > 1:
        if not rest % p:
            binomials.update({d // p: -mu for d, mu in binomials.items()})
            while not rest % p:
                rest //= p
        p += 1
    return binomials


@functools.lru_cache(maxsize=4096)
def _phi_product(key: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """The coefficients of the product of Phi_k^m over the vector key, given as
    frozenset(v.items()) so that it does not depend on insertion order: its
    binomial form, the exponents of the q^d - 1, built on a miss only.  Phi_k
    is the entry of {(k, 1)}.  The bound holds every campaign measured."""
    exps: dict[int, int] = {}
    for k, m in key:
        for d, mu in _phi_binomials(k).items():
            exps[d] = exps.get(d, 0) + mu * m
    return tuple(_binomial_product([1], exps))


def _binomial_product(a: list[int], exps: dict[int, int]) -> list[int]:
    # a times the product of (q^d - 1)^m over exps, each factor in O(len a): the
    # products first, so that every division is exact
    for d, m in exps.items():
        for _ in range(m):
            a = [y - x for x, y in zip(a + [0] * d, [0] * d + a)]
    for d, m in exps.items():
        for _ in range(-m):
            # a = (q^d - 1) b reads b[i] = b[i-d] - a[i]: minus running sums along
            # each residue class mod d
            b = [0] * (len(a) - d)
            for j in range(d):
                b[j::d] = [-c for c in accumulate(a[j:len(b):d])]
            a = b
    return a


def _phi_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    if not a or not b:
        return a or b
    out = dict(a)
    for k, m in b.items():
        out[k] = out.get(k, 0) + m
    return out


def _phi_sub(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    # a - b for b <= a componentwise
    if not b:
        return a
    out = dict(a)
    for k, m in b.items():
        if out[k] == m:
            del out[k]
        else:
            out[k] -= m
    return out


def _phi_min(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    # the componentwise minimum: the vector of gcd(a, b)
    if len(a) > len(b):
        a, b = b, a
    return {k: min(m, b[k]) for k, m in a.items() if k in b}


def _phi_divides(t: Sequence[int], k: int, phi: Sequence[int]) -> bool:
    # Whether Phi_k divides t: t mod q^k - 1 is the k strided sums of t, and Phi_k
    # divides q^k - 1, so only that residue of length k is reduced mod Phi_k.
    w = [sum(t[j::k]) for j in range(k)]
    deg = len(phi) - 1
    for top in range(k - 1, deg - 1, -1):
        c = w[top]
        if c:
            for j in range(deg):
                if phi[j]:
                    w[top - deg + j] -= c * phi[j]
    return not any(w[:deg])


def _phi_cancel(t: Sequence[int], v: dict[int, int]) -> tuple[Sequence[int], dict[int, int]]:
    # (t / h, vector(h)) for h the largest divisor of t among the products of
    # Phi_k^j, j <= v[k]: gcd(t, product of v) by trial division
    h = {}
    for k, m in v.items():
        phi, j = _phi_product(frozenset(((k, 1),))), 0
        while j < m and _phi_divides(t, k, phi):
            t, j = _int_divide(t, phi), j + 1
        if j:
            h[k] = j
    return t, h


def _gcd(a: Sequence[int], av: dict[int, int], b: Sequence[int], bv: dict[int, int]):
    # (g, gv, a', av', b', bv'): g Phi^gv = gcd(a Phi^av, b Phi^bv) and the
    # cofactors a' Phi^av' and b' Phi^bv', each a generic part and a vector.  A
    # shared irreducible factor sits in a vector or a generic part on each side,
    # and the four pairings are taken in turn: the vectors by their minimum,
    # each generic part against the other side's leftover vector by trial
    # division, and two generic parts by GCDHEU unless they are equal or a is a
    # monomial c q^k, prime to every b here, as b(0) != 0.
    gv = {}
    if av and bv:
        if av == bv:
            gv, av, bv = av, {}, {}
        else:
            gv = _phi_min(av, bv)
            av, bv = _phi_sub(av, gv), _phi_sub(bv, gv)
    if bv and len(a) > 1:
        a, h = _phi_cancel(a, bv)
        bv, gv = _phi_sub(bv, h), _phi_add(gv, h)
    if av and len(b) > 1:
        b, h = _phi_cancel(b, av)
        av, gv = _phi_sub(av, h), _phi_add(gv, h)
    g = (1,)
    if len(a) > 1 and len(b) > 1 and (a[0] or any(a[:-1])):
        g, a, b = (a, (1,), (1,)) if a == b else _int_gcd(a, b)
    return g, gv, a, av, b, bv


def _mul(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    # the product of two primitive parts, free when either is 1
    return b if len(a) == 1 else a if len(b) == 1 else _int_mul(a, b)


def _times_phi(n: Sequence[int], v: dict[int, int]) -> Sequence[int]:
    # the coefficients of n times the product of v, read from the table; n when v is empty
    return tuple(_mul(n, _phi_product(frozenset(v.items())))) if v else n


def _require_index(low: int | None, **values: object) -> None:
    # The one check of a public index, order or exponent: an int, at or above
    # low unless low is None.  harmonic runs it before its memo tables, which
    # would take 1.0 for 1 as a key.
    for name, value in values.items():
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


@functools.cache
def q_integer(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1), the product of Phi_d over the divisors
    d > 1 of n; the empty sum for n = 0."""
    _require_index(0, n=n)
    if not n:
        return QPoly()
    nv = {d: 1 for d in range(2, n + 1) if not n % d}
    return _wrap(_canonical((1,), (1,), 1, 1, 0, nv))


def q_factorial(n: int) -> QPoly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, the product of Phi_d^(n//d); [0]_q! = 1."""
    _require_index(0, n=n)
    return _wrap(_canonical((1,), (1,), 1, 1, 0, {d: n // d for d in range(2, n + 1)}))


@functools.lru_cache(maxsize=None, typed=True)
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient [n choose k]_q, the product of
    Phi_d^(n//d - k//d - (n-k)//d)."""
    _require_index(0, n=n)
    _require_index(None, k=k)
    if k < 0 or k > n:
        raise ValueError(f"q_binomial index k={k} out of range for n={n}")
    nv = {d: m for d in range(2, n + 1) if (m := n // d - k // d - (n - k) // d)}
    return _wrap(_canonical((1,), (1,), 1, 1, 0, nv))


class QRat:
    """Reduced element of Q(q), stored in Laurent form x = (p/r) * q^e * n/d.

    n and d are coprime primitive integer polynomials with positive leading
    coefficients and nonzero constant terms, r > 0, gcd(p, r) = 1 and e is an
    integer.  Both are held alike: n as ``_n`` times the product of the
    cyclotomic vector ``_nv``, d as ``_d`` times that of ``_dv``, the part not
    known to be cyclotomic, a tuple, and the part that is; no read writes to
    these seven fields.  Zero has n = (), d = (1,) and p = e = 0, a unit (a
    scalar times q^e) n = d = (1,) and empty vectors.  The form is unique up
    to how n and d split, so equality and hashing build the coefficients
    wherever the splits differ.  The monic-denominator pair
    ``num``/``den`` is built on each request, for output only: the power q^e
    goes to ``num`` when e > 0 and to ``den`` when e < 0.
    """

    __slots__ = ("_n", "_nv", "_d", "_dv", "_p", "_r", "_e")

    def __init__(self, num: QRat | QPoly | Scalar, den: QRat | QPoly | Scalar = 1) -> None:
        """num / den for any two elements of Q(q): Henrici's product of num with
        the inverse of den, the one reduction path."""
        x = _require_rat(num) / _require_rat(den)
        self._n, self._nv, self._d, self._dv = x._n, x._nv, x._d, x._dv
        self._p, self._r, self._e = x._p, x._r, x._e

    def _ncoeffs(self) -> tuple[int, ...]:
        return _times_phi(self._n, self._nv)

    def _dcoeffs(self) -> tuple[int, ...]:
        return _times_phi(self._d, self._dv)

    @property
    def num(self) -> QPoly:
        # the numerator over the monic den: x = (p / (r d[-1])) q^e n / (d / d[-1])
        return _wrap(_canonical(self._n, (1,), self._p, self._r * self._d[-1], max(self._e, 0),
                                self._nv))

    @property
    def den(self) -> QPoly:
        return _wrap(_canonical(self._d, (1,), 1, self._d[-1], max(-self._e, 0), self._dv))

    @property
    def is_zero(self) -> bool:
        return not self._p

    def __bool__(self) -> bool:
        return bool(self._p)

    def __eq__(self, other: object) -> bool:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        if self._p != other._p or self._r != other._r or self._e != other._e:
            return False
        # splits with equal vectors are equal exactly when their generic parts are
        if self._d != other._d if self._dv == other._dv else self._dcoeffs() != other._dcoeffs():
            return False
        if self._nv == other._nv:
            return self._n == other._n
        return self._ncoeffs() == other._ncoeffs()

    def __hash__(self) -> int:
        n, d = self._ncoeffs(), self._dcoeffs()
        # a constant equals its int or Fraction, so it hashes as that value
        if len(n) <= 1 and len(d) == 1 and not self._e:
            return hash(Fraction(self._p, self._r))
        # 2e, because CPython hashes the ints -1 and -2 alike
        return hash((n, d, self._p, self._r, 2 * self._e))

    def __neg__(self) -> QRat:
        return _canonical(self._n, self._d, -self._p, self._r, self._e, self._nv, self._dv)

    def __add__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        if not self._p or not other._p:
            return self if self._p else other
        # Henrici: over the common denominator c1 c2 g, with g = gcd(d1, d2) and
        # c_i = d_i / g, only a factor of g can divide the sum's numerator t.
        g, gv, c1, c1v, c2, c2v = _gcd(self._d, self._dv, other._d, other._dv)
        t, t_cont, e = _sum_numerator(self, other, _times_phi(c1, c1v), _times_phi(c2, c2v))
        _, _, t, _, g, gv = _gcd(t, {}, g, gv)
        return _canonical(t, _mul(_mul(c1, c2), g), t_cont, self._r * other._r, e, None,
                          _phi_add(_phi_add(c1v, c2v), gv))

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
        p, r, e = self._p * other._p, self._r * other._r, self._e + other._e
        # A unit (n = d = 1) changes only the scalar and the power of q.
        if self._n == self._d == (1,) and not self._nv and not self._dv:
            return _canonical(other._n, other._d, p, r, e, other._nv, other._dv)
        if other._n == other._d == (1,) and not other._nv and not other._dv:
            return _canonical(self._n, self._d, p, r, e, self._nv, self._dv)
        # Henrici: n1/d1 and n2/d2 are reduced, so only gcd(n1, d2) and gcd(n2, d1)
        # can cancel from the product.
        _, _, n1, nv1, d2, dv2 = _gcd(self._n, self._nv, other._d, other._dv)
        _, _, n2, nv2, d1, dv1 = _gcd(other._n, other._nv, self._d, self._dv)
        return _canonical(_mul(n1, n2), _mul(d1, d2), p, r, e, _phi_add(nv1, nv2),
                          _phi_add(dv1, dv2))

    __rmul__ = __mul__

    def __truediv__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        if not other._p:
            raise ZeroDivisionError("division by zero in Q(q)")
        return self * _inverse(other)

    def __rtruediv__(self, other: QRat | QPoly | Scalar) -> QRat:
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> QRat:
        _require_index(None, n=n)
        if n < 0:
            if not self._p:
                raise ZeroDivisionError("zero has no negative powers")
            return _inverse(self) ** -n
        if not n or not self._p:
            return self if n else QRAT_ONE
        # powers of coprime primitive n and d stay coprime and primitive; a
        # vector scales by n
        return _canonical(_int_pow(self._n, n), _int_pow(self._d, n), self._p ** n,
                          self._r ** n, self._e * n, {k: m * n for k, m in self._nv.items()},
                          {k: m * n for k, m in self._dv.items()})

    def evaluate(self, q0: Scalar) -> Fraction:
        """Exact rational value at q = q0; PoleError at denominator roots."""
        p, s = Fraction(q0).as_integer_ratio()
        d, d_scale = _int_horner(self._dcoeffs(), p, s)
        e = self._e
        if not d or (e < 0 and not p):
            raise PoleError(f"denominator vanishes at q = {q0}")
        n, n_scale = _int_horner(self._ncoeffs(), p, s)
        # q0^e = p^e / s^e moves to the other side when e < 0
        up, down = (p ** e, s ** e) if e >= 0 else (s ** -e, p ** -e)
        return Fraction(self._p * n * d_scale * up, self._r * n_scale * d * down)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QRat({self.num!r}, {self.den!r})"


def _inverse(x: QRat) -> QRat:
    # 1/x for nonzero x: n and d trade places
    return _canonical(x._d, x._n, x._r, x._p, -x._e, x._dv, x._nv)


def _sum_numerator(x: QRat, y: QRat, c1: Sequence[int], c2: Sequence[int]):
    # Henrici's sum over the common denominator c1 c2 g, with c_i = d_i / g: the
    # primitive t and its content for p1 r2 n1 c2 q^(e1-e) + p2 r1 n2 c1 q^(e2-e)
    # at e = min(e1, e2), and e.  Only an equal-exponent sum can cancel in its low
    # terms; their q^k moves from t into e in _canonical.
    a = _int_mul(x._ncoeffs(), [x._p * y._r * c for c in c2])
    b = _int_mul(y._ncoeffs(), [y._p * x._r * c for c in c1])
    e1, e2 = x._e, y._e
    if e1 > e2:
        a = [0] * (e1 - e2) + a
    elif e2 > e1:
        b = [0] * (e2 - e1) + b
    if len(a) < len(b):
        a, b = b, a
    t = [u + v for u, v in zip(a, b)] + a[len(b):]
    while t and not t[-1]:
        t.pop()
    t, t_cont = _int_primitive(t)
    return t, t_cont, min(e1, e2)


def _canonical(n: Sequence[int], d: Sequence[int], p: int, r: int, e: int,
               nv: dict[int, int] | None = None, dv: dict[int, int] | None = None) -> QRat:
    # (p/r) * q^e * n Phi^nv / d Phi^dv for coprime primitive numerator and
    # denominator with positive leads, d(0) != 0 and r != 0: the low zeros of n
    # move into e, and then only the sign and the gcd of the scalar are left to
    # fix.
    out = object.__new__(QRat)
    if not p:
        out._n, out._nv, out._d, out._dv = (), {}, (1,), {}
        out._p, out._r, out._e = 0, 1, 0
        return out
    if not n[0]:
        k = next(i for i, c in enumerate(n) if c)
        n, e = n[k:], e + k
    g = math.gcd(p, r) if r > 0 else -math.gcd(p, r)
    out._n, out._nv = tuple(n), {} if nv is None else nv
    out._d, out._dv = tuple(d), {} if dv is None else dv
    out._p, out._r, out._e = p // g, r // g, e
    return out


def _coerce_rat(x: object) -> QRat | None:
    if isinstance(x, QRat):
        return x
    if isinstance(x, QPoly):
        return x._x
    if isinstance(x, (int, Fraction)):
        return _canonical((1,), (1,), x.numerator, x.denominator, 0)
    return None


def _require_rat(x: QRat | QPoly | Scalar) -> QRat:
    r = _coerce_rat(x)
    if r is None:
        raise TypeError(f"cannot interpret {x!r} as an element of Q(q)")
    return r


@functools.cache
def q_power(e: int) -> QRat:
    """q**e as an element of Q(q), the unit with exponent e; e may be negative."""
    _require_index(None, e=e)
    return _canonical((1,), (1,), 1, 1, e)


QRAT_ZERO = _canonical((), (1,), 0, 1, 0)
QRAT_ONE = _canonical((1,), (1,), 1, 1, 0)
