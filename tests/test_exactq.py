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
from qharmonic.direct import q_binomial_at
from qharmonic.exactq import (
    PoleError,
    QPoly,
    QRat,
    poly_gcd,
    q_binomial,
    q_factorial,
    q_integer,
    q_power,
)


def test_rational_invariants():
    x = Fraction(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert Fraction(0, 7) == Fraction(0, 1)
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

    def test_power_takes_square_and_multiply_products(self, monkeypatch):
        # Powers multiply integer coefficient lists in exactq._int_mul: count those.
        p = QPoly((1, -2, Fraction(1, 3)))
        x = QRat(QPoly((1, -2, Fraction(1, 3))), QPoly((3, 0, 1)))
        wants = [(QPoly.one(), QRat(1))]
        for _ in range(9):
            wants.append((wants[-1][0] * p, wants[-1][1] * x))
        int_mul, calls = exactq._int_mul, []

        def counting_mul(a, b):
            calls.append(None)
            return int_mul(a, b)

        monkeypatch.setattr(exactq, "_int_mul", counting_mul)
        for n, (want_p, want_x) in enumerate(wants):
            # a square per bit below the top one, a product per set bit past the
            # first, for each non-constant list raised: n of p; n and d of x
            bound = max(0, n.bit_length() + bin(n).count("1") - 2)
            for base, want, raised in ((p, want_p, 1), (x, want_x, 2)):
                calls.clear()
                assert base ** n == want, (base, n)
                assert len(calls) <= raised * bound, (base, n)

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

    def test_q_binomial_times_factorials_is_factorial(self):
        # Independent of the q-Pascal recurrence that builds the binomials.
        for n in range(13):
            for k in range(n + 1):
                b = q_binomial(n, k)
                assert b * q_factorial(k) * q_factorial(n - k) == q_factorial(n), (n, k)
                assert b == q_binomial(n, n - k), (n, k)

    def test_q_binomial_matches_direct_point_values(self):
        for q0 in (Fraction(2, 3), Fraction(-2)):
            for n in range(13):
                for k in range(n + 1):
                    assert q_binomial(n, k).evaluate(q0) == q_binomial_at(n, k, q0), (q0, n, k)

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

    def test_hash_agrees_with_equality_across_types(self):
        # Values that compare equal hash equal, so they find each other in sets
        # and as dict keys: ints, Fractions, constant and non-constant values.
        groups = [
            [0, Fraction(0), QPoly(), QPoly.constant(0), QRat(0), QRat(QPoly(), QPoly((1, 1)))],
            [3, Fraction(3), QPoly.constant(3), QRat(3), QRat(QPoly((6,)), QPoly((2,)))],
            [Fraction(-2, 7), QPoly.constant(Fraction(-2, 7)), QRat(-2, 7),
             QRat(QPoly((-2, -2)), QPoly((7, 7)))],
            [QPoly((1, Fraction(1, 2))), QRat(QPoly((2, 1)), 2),
             QRat(QPoly((2, 3, 1)), QPoly((2, 2)))],
            [QRat(QPoly((1, 1)), QPoly((0, 3))), QRat(QPoly((-2, -2)), QPoly((0, -6)))],
        ]
        for group in groups:
            for x in group:
                for y in group:
                    assert x == y and hash(x) == hash(y), (x, y)
                    assert y in {x} and {x: 1}.get(y) == 1, (x, y)
        for group, other in zip(groups, groups[1:]):
            assert group[-1] != other[-1] and group[-1] not in {other[-1]}

    def test_ops_read_the_stored_form_without_re_splitting(self, monkeypatch):
        # A product re-splits no operand into content and primitive part, and a
        # sum splits only its new numerator t; the gcds may split their digits.
        calls, depth = [], [0]
        primitive, gcd = exactq._int_primitive, exactq._int_gcd

        def counting_primitive(v):
            if not depth[0]:
                calls.append(None)
            return primitive(v)

        def quiet_gcd(u, v):
            depth[0] += 1
            try:
                return gcd(u, v)
            finally:
                depth[0] -= 1

        pairs = [
            (QRat(QPoly((2, 4, 6)), 5), QRat(QPoly((Fraction(1, 2), -1)), 7)),
            (QRat(QPoly((1, 2)), QPoly((3, 0, 1))), QRat(QPoly((-3, 1)), QPoly((5, 1)))),
            (QRat(QPoly((4, 1)), QPoly((1, 1))), QRat(QPoly((1, 1)), QPoly((0, 1, 2)))),
        ]
        monkeypatch.setattr(exactq, "_int_primitive", counting_primitive)
        monkeypatch.setattr(exactq, "_int_gcd", quiet_gcd)
        for x, y in pairs:
            calls.clear()
            x * y
            assert len(calls) == 0, (x, y)
            calls.clear()
            x + y
            assert len(calls) == 1, (x, y)

    def test_constructor_is_the_quotient(self):
        # QRat(num, den) is num / den for any two elements of Q(q).
        values = [QRat(QPoly((1, 1)), QPoly((0, 3))), QRat(QPoly((2, 0, -1)), QPoly((1, 1))),
                  QRat(Fraction(-5, 6)), QRat(0), QPoly((1, 2, 1)), QPoly((Fraction(1, 2), 0, 3)),
                  QPoly.constant(7), QPoly(), 3, -1, 0, Fraction(2, 9), Fraction(-4, 3)]
        points = (Fraction(2, 3), Fraction(-5, 2), Fraction(7))

        def at(v, q0):
            return v.evaluate(q0) if isinstance(v, (QPoly, QRat)) else Fraction(v)

        for x in values:
            for y in values:
                if not y:
                    with pytest.raises(ZeroDivisionError):
                        QRat(x, y)
                    continue
                got = QRat(x, y)
                _assert_canonical_rat(got)
                assert got == QRat(1) * x / y, (x, y)
                for q0 in points:
                    assert got.evaluate(q0) == at(x, q0) / at(y, q0), (x, y, q0)

    def test_q_integer_operand_is_not_re_split(self, monkeypatch):
        # A cached polynomial enters a product as the QRat it holds: neither
        # order splits it into content and primitive part again.
        calls, depth = [], [0]
        primitive, gcd = exactq._int_primitive, exactq._int_gcd

        def counting_primitive(v):
            if not depth[0]:
                calls.append(None)
            return primitive(v)

        def quiet_gcd(u, v):
            depth[0] += 1
            try:
                return gcd(u, v)
            finally:
                depth[0] -= 1

        five = q_integer(5)
        values = [QRat(QPoly((1, 1)), QPoly((0, 3))), QRat(QPoly((2, -1)), five * QPoly((1, 1))),
                  QRat(Fraction(-5, 6)), QRat(0), QRat(QPoly((1, 1)), five)]
        monkeypatch.setattr(exactq, "_int_primitive", counting_primitive)
        monkeypatch.setattr(exactq, "_int_gcd", quiet_gcd)
        for x in values:
            calls.clear()
            left, right = five * x, x * five
            assert len(calls) == 0, x
            assert left == right and isinstance(left, QRat), x


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


def _fraction_remainder(a: QPoly, b: QPoly) -> QPoly:
    # Long division of a by a nonzero b over Fraction coefficients; the remainder.
    rem, db, lead = list(a.coeffs), b.degree, b.leading_coefficient
    while rem and len(rem) - 1 >= db:
        factor, shift = rem[-1] / lead, len(rem) - 1 - db
        for i, c in enumerate(b.coeffs, shift):
            rem[i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return QPoly(rem)


def _fraction_euclid_gcd(a: QPoly, b: QPoly) -> QPoly:
    # Independent oracle: textbook Euclid directly over Fraction coefficients.
    while not b.is_zero:
        a, b = b, _fraction_remainder(a, b)
    return a.monic() if not a.is_zero else a


def test_fraction_remainder_oracle():
    assert _fraction_remainder(QPoly((-1, 0, 0, 1)), QPoly((-1, 1))).is_zero  # (q^3 - 1) / (q - 1)
    assert _fraction_remainder(QPoly((1, 1)), QPoly((0, 1))) == QPoly((1,))
    assert _fraction_remainder(QPoly((1, 2)), QPoly((0, 0, 3))) == QPoly((1, 2))
    assert _fraction_remainder(QPoly((0, 0, 1)), QPoly((2,))).is_zero


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


def _assert_stored_form(x: QRat):
    # (p/r) * n/d: n, d coprime primitive tuples with positive leads, r > 0 and
    # gcd(p, r) = 1; zero is ((), (1,), 0, 1)
    n, d, p, s = x._n, x._d, x._p, x._r
    assert isinstance(n, tuple) and isinstance(d, tuple)
    assert s > 0 and math.gcd(p, s) == 1
    if not p:
        assert (n, d, s) == ((), (1,), 1)
    else:
        for v in (n, d):
            assert v[-1] > 0 and math.gcd(*v) == 1
        assert exactq._int_gcd(n, d)[0] == [1]


def _assert_canonical(p: QPoly):
    # a polynomial is the canonical QRat it equals, with d == (1,)
    x = p._x
    assert isinstance(x, QRat) and x._d == (1,)
    _assert_stored_form(x)
    assert p.coeffs == tuple(Fraction(c * x._p, x._r) for c in x._n)


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


def _fraction_horner(coeffs, q0):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q0 + c
    return acc


def test_evaluate_against_fraction_horner():
    rng = random.Random(2031)
    polys = [(), (Fraction(0),), (Fraction(5),), (Fraction(-7, 6),), (Fraction(1, 3), 0, 0)]
    polys += [_random_fracs(rng, max_len=12) for _ in range(200)]
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2),
              Fraction(-1, 7), Fraction(9)]
    points += [Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(10)]
    for coeffs in polys:
        p = QPoly(coeffs)
        for q0 in points:
            got = p.evaluate(q0)
            assert isinstance(got, Fraction)
            assert got == _fraction_horner(p.coeffs, q0), (coeffs, q0)
        assert p.evaluate(3) == _fraction_horner(p.coeffs, Fraction(3))


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


# --- Henrici product and sum --------------------------------------------------


def _generic_sum(x, y):
    # The full route: form n1*d2 + n2*d1 over d1*d2 and reduce it in QRat.__init__.
    return QRat(x.num * y.den + y.num * x.den, x.den * y.den)


def _henrici_corpus(seed, count):
    # Pairs of canonical values, built from random integer polynomials so that
    # every case Henrici's algorithms tell apart occurs.
    rng = random.Random(seed)

    def poly():
        while True:
            p = QPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            if not p.is_zero:
                return p

    def scalar():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    pairs = []
    for _ in range(count):
        f, a, b, c, d = (poly() for _ in range(5))
        qe = QPoly.monomial(1, rng.randint(1, 3))
        x = QRat(a * f * scalar(), b)
        z = QRat(c, d * f)
        pairs += [
            (x, QRat(c * scalar(), d * f)),  # n1 and d2 share f
            (x, QRat(c * scalar(), b)),  # equal denominators
            (x, QRat(c, d)),  # denominators coprime in general
            (x, QRat(qe * scalar())),  # a power of q
            (QRat(a, b * qe), QRat(c * qe, d)),  # q in a denominator and a numerator
            (x, -x),  # the sum cancels to zero
            (x, _generic_sum(z, -x)),  # the sum cancels down to z
        ]
    return pairs


def _assert_canonical_rat(r: QRat):
    # the stored form (p/r) * n/d ...
    _assert_stored_form(r)
    # ... and the monic pair built from it
    _assert_canonical(r.num)
    _assert_canonical(r.den)
    assert r.den.leading_coefficient == 1
    assert poly_gcd(r.num, r.den) == QPoly.one() or r.is_zero
    assert not r.is_zero or r.den == QPoly.one()


def test_henrici_ops_against_generic_route_and_point_values():
    points = (Fraction(2, 3), Fraction(-5, 2), Fraction(7), Fraction(-1, 4))
    for x, y in _henrici_corpus(41, 40):
        cases = [
            ("*", x * y, QRat(x.num * y.num, x.den * y.den)),
            ("+", x + y, _generic_sum(x, y)),
            ("-", x - y, _generic_sum(x, -y)),
        ]
        if y:
            cases.append(("/", x / y, QRat(x.num * y.den, x.den * y.num)))
        for e in (0, 1, 2, 3) + ((-1, -2) if x else ()):
            num, den = (x.num, x.den) if e >= 0 else (x.den, x.num)
            cases.append((f"**{e}", x ** e, QRat(num ** abs(e), den ** abs(e))))
        for op, got, want in cases:
            _assert_canonical_rat(got)
            assert got.num == want.num and got.den == want.den, (op, x, y)
        for q0 in points:
            try:
                xv, yv = x.evaluate(q0), y.evaluate(q0)
            except PoleError:
                continue
            assert (x * y).evaluate(q0) == xv * yv
            assert (x + y).evaluate(q0) == xv + yv
            assert (x - y).evaluate(q0) == xv - yv
            if yv:
                assert (x / y).evaluate(q0) == xv / yv
            assert (x ** 3).evaluate(q0) == xv ** 3


def test_henrici_product_gcds_stay_below_operand_degree(monkeypatch):
    # No gcd of the full product: each operand has at most the largest input degree.
    sizes = []
    original = exactq._int_gcd

    def recording(u, v):
        sizes.append(max(len(u), len(v)) - 1)
        return original(u, v)

    monkeypatch.setattr(exactq, "_int_gcd", recording)
    for x, y in _henrici_corpus(42, 40):
        bound = max(x.num.degree or 0, x.den.degree, y.num.degree or 0, y.den.degree)
        sizes.clear()
        x * y
        assert max(sizes, default=0) <= bound, (x, y)
