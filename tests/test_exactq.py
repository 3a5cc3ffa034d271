"""Exact arithmetic layer: polynomials, rational functions, q-primitives."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qharmonic import exactq
from qharmonic.exactq import (
    InexactDivisionError,
    PoleError,
    QPoly,
    QRat,
    Rational,
    poly_gcd,
    q_binomial,
    q_factorial,
    q_integer,
    q_power,
)


def test_rational_invariants():
    x = Rational(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert Rational(0, 7) == Rational(0, 1)
    assert math.gcd(abs(x.numerator), x.denominator) == 1


class TestQPoly:
    def test_trailing_zeros_stripped(self):
        assert QPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        assert QPoly((0, 0)).is_zero

    def test_degree_sentinel(self):
        assert QPoly().degree is None
        assert QPoly((5,)).degree == 0
        assert QPoly((0, 0, 1)).degree == 2

    def test_arithmetic(self):
        p = QPoly((1, 1))
        q = QPoly((0, 1))
        assert p + q == QPoly((1, 2))
        assert p - p == QPoly()
        assert p * q == QPoly((0, 1, 1))
        assert p * 0 == QPoly()
        assert 2 * p == QPoly((2, 2))
        assert p ** 3 == QPoly((1, 3, 3, 1))

    def test_divmod_and_exact_div(self):
        num = QPoly((-1, 0, 0, 1))  # q^3 - 1
        den = QPoly((-1, 1))        # q - 1
        quo, rem = divmod(num, den)
        assert rem.is_zero
        assert quo == QPoly((1, 1, 1))
        assert num.exact_div(den) == quo
        with pytest.raises(InexactDivisionError):
            QPoly((1, 1)).exact_div(QPoly((0, 1)))
        with pytest.raises(ZeroDivisionError):
            divmod(num, QPoly())

    def test_monic_and_evaluate(self):
        p = QPoly((2, 0, 4))
        assert p.monic() == QPoly((Fraction(1, 2), 0, 1))
        assert p.evaluate(Fraction(1, 2)) == 3
        assert QPoly().evaluate(7) == 0

    def test_str(self):
        assert str(QPoly((1, -1, 0, Fraction(3, 2)))) == "1 - q + 3/2*q^3"
        assert str(QPoly()) == "0"


class TestQPrimitives:
    def test_q_integer_examples(self):
        assert q_integer(0).is_zero
        assert q_integer(1) == QPoly((1,))
        assert q_integer(3) == QPoly((1, 1, 1))
        with pytest.raises(ValueError):
            q_integer(-1)

    def test_q_factorial_examples(self):
        assert q_factorial(0) == QPoly((1,))
        assert q_factorial(2) == QPoly((1, 1))
        # oracle: multiply the q-integers directly
        direct = reduce(lambda acc, i: acc * q_integer(i), range(1, 4), QPoly.one())
        assert q_factorial(3) == direct == QPoly((1, 2, 2, 1))

    def test_q_binomial_examples(self):
        for n in range(9):
            assert q_binomial(n, 0) == QPoly((1,))
            assert q_binomial(n, n) == QPoly((1,))
        assert q_binomial(2, 1) == q_integer(2)
        assert q_binomial(4, 2) == QPoly((1, 1, 2, 1, 1))

    def test_q_binomial_range_errors(self):
        with pytest.raises(ValueError):
            q_binomial(3, 4)
        with pytest.raises(ValueError):
            q_binomial(3, -1)

    def test_pascal_recurrence(self):
        # [n k] = [n-1 k-1] + q^k [n-1 k], exact polynomial equality
        for n in range(1, 13):
            for k in range(1, n):
                lhs = q_binomial(n, k)
                rhs = q_binomial(n - 1, k - 1) + QPoly.monomial(1, k) * q_binomial(n - 1, k)
                assert lhs == rhs, (n, k)

    def test_gaussian_coefficients_nonnegative_integers(self):
        for n in range(13):
            for k in range(n + 1):
                for c in q_binomial(n, k).coeffs:
                    assert c.denominator == 1 and c >= 0

    def test_classical_limit_at_one(self):
        for n in range(10):
            assert q_integer(n).evaluate(1) == n
            for k in range(n + 1):
                assert q_binomial(n, k).evaluate(1) == math.comb(n, k)


class TestQRat:
    def test_normalize_gcd_cancellation(self):
        r = QRat(QPoly((-1, 0, 1)), QPoly((-1, 1)))
        assert r == QRat(QPoly((1, 1)))
        assert r.den == QPoly((1,))

    def test_normalize_content_and_monic(self):
        assert QRat(QPoly((0, 2)), QPoly((2,))) == QRat(QPoly.variable())

    def test_normalize_monic_denominator(self):
        r = QRat(QPoly((1, 0, 0, -1)), QPoly((1, -1)) ** 2)
        assert r.num == QPoly((-1, -1, -1))
        assert r.den == QPoly((-1, 1))
        assert r.den.leading_coefficient == 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            QRat(QPoly((1,)), QPoly())

    def test_eval_examples(self):
        assert QRat(QPoly.variable()).evaluate(Fraction(2, 3)) == Fraction(2, 3)
        x = QRat(QPoly.one(), QPoly((1, 1)))
        assert x.evaluate(1) == Fraction(1, 2)
        with pytest.raises(PoleError):
            x.evaluate(-1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QRat(1) / QRat(0)

    def test_powers(self):
        x = QRat(QPoly((1, 1)), QPoly((0, 1)))
        assert x ** 0 == QRat(1)
        assert x ** 2 == x * x
        assert x ** -1 == QRat(1) / x
        assert q_power(-2) * q_power(2) == QRat(1)

    def test_hash_consistency(self):
        a = QRat(QPoly((0, 2)), QPoly((2,)))
        b = QRat(QPoly.variable())
        assert a == b and hash(a) == hash(b)


def _polys(max_deg=3, bound=4):
    return st.builds(
        QPoly,
        st.lists(st.integers(min_value=-bound, max_value=bound),
                 min_size=0, max_size=max_deg + 1))


def _qrats():
    return st.builds(
        lambda num, den: QRat(num, den),
        _polys(),
        _polys().filter(lambda p: not p.is_zero))


@settings(max_examples=60, deadline=None)
@given(_qrats(), _qrats(), _qrats())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=60, deadline=None)
@given(_qrats())
def test_inverse_and_canonical_idempotence(x):
    if not x.is_zero:
        assert x * (QRat(1) / x) == QRat(1)
    again = QRat(x.num, x.den)
    assert again == x
    assert again.num == x.num and again.den == x.den
    neg = QRat(-x.num, x.den)  # negation skips the reduction; the result must match it
    assert (-x).num == neg.num and (-x).den == neg.den
    assert -x + x == QRat(0)
    if not x.is_zero:
        assert poly_gcd(x.num, x.den).degree == 0
        assert x.den.leading_coefficient == 1


def _fraction_euclid_gcd(a: QPoly, b: QPoly) -> QPoly:
    # Independent oracle: textbook Euclid directly over Fraction coefficients.
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def test_poly_gcd_against_fraction_euclid():
    rng = random.Random(11)
    for _ in range(40):
        a = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
        b = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
        common = QPoly([rng.randint(-2, 2) for _ in range(3)])
        if not common.is_zero:
            a, b = a * common, b * common
        assert poly_gcd(a, b) == _fraction_euclid_gcd(a, b)


# --- differential tests of the integer kernel ---------------------------------


def _ref_strip(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref_strip([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                       for i in range(n)])


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_strip(out)


def _random_fracs(rng, max_len=7):
    return _ref_strip(Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6, 35)))
                      for _ in range(rng.randint(0, max_len)))


def _assert_canonical(p: QPoly):
    nums, den = p._nums, p._den
    assert den > 0 and math.gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    assert nums or den == 1
    assert p.coeffs == tuple(Fraction(n, den) for n in nums)


def test_qpoly_ops_against_fraction_reference():
    rng = random.Random(2027)
    for _ in range(300):
        a, b = _random_fracs(rng), _random_fracs(rng)
        pa, pb = QPoly(a), QPoly(b)
        assert pa.coeffs == a and pb.coeffs == b
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        k = rng.randint(-9, 9)
        cases = [
            (pa + pb, _ref_add(a, b)),
            (pa - pb, _ref_add(a, [-c for c in b])),
            (pa * pb, _ref_mul(a, b)),
            (-pa, _ref_strip(-c for c in a)),
            (pa * s, _ref_strip(c * s for c in a)),
            (k * pa, _ref_strip(c * k for c in a)),
            (pa + s, _ref_add(a, (s,))),
        ]
        for got, want in cases:
            _assert_canonical(got)
            assert got.coeffs == want
            assert got == QPoly(want) and hash(got) == hash(QPoly(want))


def _prim(cs):
    return exactq._int_primitive(cs)[0]


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _planted_pairs(seed, count):
    # Primitive pairs u = prim(f*a), v = prim(f*b) sharing the planted factor f.
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        bound = rng.choice((3, 50, 2 ** 20))
        f, a, b = ([rng.randint(-bound, bound) for _ in range(rng.randint(1, 6))] + [1]
                   for _ in range(3))
        pairs.append((_prim(_int_mul(f, a)), _prim(_int_mul(f, b))))
    return pairs


def _check_gcd(u, v):
    h, cu, cv = exactq._int_gcd(u, v)
    assert h == exactq._int_prs_gcd(u, v)
    assert _int_mul(h, cu) == u and _int_mul(h, cv) == v
    return h


def _record_xis(monkeypatch):
    # Every evaluation point the heuristic tries, in order.
    seen = []
    original = exactq._int_eval

    def recording(u, x):
        seen.append(x)
        return original(u, x)

    monkeypatch.setattr(exactq, "_int_eval", recording)
    return seen


def test_int_gcd_against_remainder_sequence(monkeypatch):
    xis = _record_xis(monkeypatch)
    for u, v in _planted_pairs(31, 200):
        xis.clear()
        _check_gcd(u, v)
        if xis:
            bound = 2 * min(max(map(abs, u)), max(map(abs, v))) + 2
            assert xis[0] >= bound


def test_int_gcd_retries_after_unlucky_point(monkeypatch):
    # u = f*q and v = f*(q + xi0) agree at q = xi0 up to the factor 2, so the
    # first candidate is f*q, which does not divide v: the heuristic must retry.
    xis = _record_xis(monkeypatch)
    rng = random.Random(7)
    for _ in range(20):
        # positive coefficients: no cancellation, so |v| >= |u| and xi0 depends on u alone
        f = _prim([rng.randint(1, 40) for _ in range(rng.randint(1, 5))])
        u = _prim(_int_mul(f, [0, 1]))
        xis.clear()
        exactq._int_gcd(u, _prim(_int_mul(f, [10 ** 6, 1])))
        xi0 = xis[0]
        v = _prim(_int_mul(f, [xi0, 1]))
        xis.clear()
        h = _check_gcd(u, v)
        assert xis[0] == xi0 and len(set(xis)) > 1
        assert h == _prim(f)


def test_int_gcd_fallback_path(monkeypatch):
    monkeypatch.setattr(exactq, "_HEU_TRIES", 0)
    xis = _record_xis(monkeypatch)
    for u, v in _planted_pairs(32, 60):
        _check_gcd(u, v)
    assert xis == []


def test_int_gcd_and_cancel_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(cs):
        return sympy.Poly(list(reversed(cs)), x, domain="QQ")

    def from_sympy(poly, scale):
        return tuple(Fraction(str(c / scale)) for c in reversed(poly.all_coeffs()))

    rng = random.Random(34)
    for u, v in _planted_pairs(33, 80):
        h = exactq._int_gcd(u, v)[0]
        assert from_sympy(to_sympy(u).gcd(to_sympy(v)), 1) == tuple(h)
        # canonical QRat of (s*u)/(t*v) against sympy.cancel, denominator made monic
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
        t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
        num, den = (QPoly([s * c for c in u]), QPoly([t * c for c in v]))
        expr = sympy.cancel(to_sympy(num.coeffs).as_expr() / to_sympy(den.coeffs).as_expr())
        want_num, want_den = (sympy.Poly(e, x, domain="QQ") for e in sympy.fraction(expr))
        r = QRat(num, den)
        assert r.num.coeffs == from_sympy(want_num, want_den.LC())
        assert r.den.coeffs == from_sympy(want_den, want_den.LC())
