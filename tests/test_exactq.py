"""Exact arithmetic layer: polynomials, rational functions, q-primitives."""

from __future__ import annotations

import math
import os
import re
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qharmonic import exactq
from qharmonic.direct import q_binomial_at
from qharmonic.exactq import (
    PoleError,
    QPoly,
    QRat,
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
        for base, bad in ((QRat(2), 0.5), (q_integer(3), 2.0), (x, Fraction(1, 2)),
                          (QPoly((1, 1)), -0.5), (x, "2")):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                base ** bad

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

    def test_equality_compares_denominators(self):
        # equal numerators, scalars and exponents over different denominators,
        # split alike and apart, and one value stored in two splits
        x, y = QRat(1, QPoly((1, 2))), QRat(1, QPoly((1, 3)))
        assert x._dv == y._dv and x != y and y != x
        x, y = QRat(1, q_integer(2)), QRat(1, q_integer(3))
        assert x._dv != y._dv and x != y and y != x
        x, y = QRat(1, QPoly((1, 1))), QRat(1, q_integer(2))
        assert (x._d, x._dv) == ((1, 1), {}) and (y._d, y._dv) == ((1,), {2: 1})
        assert x == y and y == x and hash(x) == hash(y)

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
        assert _fraction_euclid_gcd(x.num, x.den) == QPoly.one()
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


_REF_CYCLOTOMIC = {}


def _ref_cyclotomic(k):
    # Phi_k over Z, built apart from the engine: q^k - 1 divided by Phi_d for
    # each divisor d < k of k, by long division, each quotient checked exact
    if k not in _REF_CYCLOTOMIC:
        a = [-1] + [0] * (k - 1) + [1]
        for d in range(1, k):
            if not k % d:
                b = _ref_cyclotomic(d)
                quotient = [0] * (len(a) - len(b) + 1)
                for shift in range(len(quotient) - 1, -1, -1):
                    quotient[shift] = a[shift + len(b) - 1]  # each Phi_d is monic
                    for i, c in enumerate(b):
                        a[shift + i] -= quotient[shift] * c
                assert not any(a), (k, d)
                a = quotient
        _REF_CYCLOTOMIC[k] = tuple(a)
    return _REF_CYCLOTOMIC[k]


def _ref_phi(v):
    # the product of Phi_k^m over a cyclotomic vector {k: m}, by schoolbook
    # products over Z of the Phi_k of _ref_cyclotomic
    return tuple(reduce(_int_mul, (_ref_cyclotomic(k) for k, m in v.items()
                                   for _ in range(m)), (1,)))


def _assert_vector(v):
    assert isinstance(v, dict) and all(isinstance(k, int) and k >= 1 and isinstance(m, int)
                                       and m > 0 for k, m in v.items()), v


def _assert_stored_form(x: QRat):
    # (p/r) * q^e * n/d: n = _n times the product of the vector _nv and d = _d
    # times that of _dv; n, d coprime primitive with positive leads and nonzero
    # constant terms, r > 0, gcd(p, r) = 1 and e an int; zero is
    # ((), {}, (1,), {}, 0, 1, 0)
    n, d, p, s, e = x._ncoeffs(), x._dcoeffs(), x._p, x._r, x._e
    assert all(isinstance(v, tuple) for v in (x._n, n, x._d, d))
    assert isinstance(e, int) and s > 0 and math.gcd(p, s) == 1
    _assert_vector(x._nv)
    _assert_vector(x._dv)
    if not p:
        assert (x._n, x._nv, x._d, x._dv, s, e) == ((), {}, (1,), {}, 1, 0)
        return
    assert n == tuple(_int_mul(x._n, _ref_phi(x._nv)))
    assert d == tuple(_int_mul(x._d, _ref_phi(x._dv)))
    for v in (x._n, n, x._d, d):
        assert v[-1] > 0 and v[0] != 0 and math.gcd(*v) == 1
    assert _fraction_euclid_gcd(QPoly(n), QPoly(d)) == QPoly.one()


def _assert_canonical(p: QPoly):
    # a polynomial is the canonical QRat it equals, with d == (1,) and e >= 0
    x = p._x
    assert isinstance(x, QRat) and x._dcoeffs() == (1,) and x._e >= 0
    _assert_stored_form(x)
    assert p.coeffs == (0,) * x._e + tuple(Fraction(c * x._p, x._r) for c in x._ncoeffs())


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
            (3 - pa, _ref_add((3,), [-c for c in a])),
        ]
        assert type(3 - pa) is QPoly
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
    # Every evaluation point the heuristic tries, in order: it evaluates through
    # the Horner that evaluate uses, at p / s with s = 1.
    seen = []
    original = exactq._int_horner

    def recording(u, p, s):
        if s == 1:
            seen.append(p)
        return original(u, p, s)

    monkeypatch.setattr(exactq, "_int_horner", recording)
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
    assert _fraction_euclid_gcd(r.num, r.den) == QPoly.one() or r.is_zero
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


# --- Laurent form: the power of q is the exponent e ---------------------------


def _laurent_corpus(seed, count):
    # Values (p/r) q^e n/d with factors of q in the numerator or the denominator
    # they were built from, as reference pairs of Fraction coefficient lists.
    rng = random.Random(seed)

    def coeffs(nonzero):
        while True:
            cs = [0] * rng.randint(0, 3) + [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                              for _ in range(rng.randint(1, 3))]
            if not nonzero or any(cs):
                return _ref_strip(cs)

    out = [((0, 0, 1, 2), (0, 3, 1)), ((1, 1), (0, 0, 0, 2)), ((0, 0, 5),), ((3,),)]
    out = [(_ref_strip(p[0]), _ref_strip(p[1] if len(p) > 1 else (1,))) for p in out]
    out += [(coeffs(False), coeffs(True)) for _ in range(count)]
    return [(QRat(QPoly(n), QPoly(d)), n, d) for n, d in out]


def _ref_value(n, d, q0):
    # n(q0) / d(q0) straight from the reference coefficient lists
    return _fraction_horner(n, q0) / _fraction_horner(d, q0)


def test_laurent_ops_against_fraction_reference():
    points = (Fraction(2, 3), Fraction(-5, 2), Fraction(7), Fraction(-1, 4), Fraction(0))
    corpus = _laurent_corpus(43, 40)
    rng = random.Random(44)
    for _ in range(400):
        (x, xn, xd), (y, yn, yd) = rng.choice(corpus), rng.choice(corpus)
        k = rng.randint(-3, 3)
        if rng.random() < 0.3:
            # y = q^j z - x: the sum cancels x's low terms, at equal exponents
            j = rng.randint(1, 3)
            z, zn, zd = rng.choice(corpus)
            y = QRat(QPoly((0,) * j + zn), QPoly(zd)) - x
            yn = _ref_add(_ref_mul((0,) * j + zn, xd), _ref_mul(xn, tuple(-c for c in zd)))
            yd = _ref_mul(zd, xd)
        cases = [
            (x + y, _ref_add(_ref_mul(xn, yd), _ref_mul(yn, xd)), _ref_mul(xd, yd)),
            (x - y, _ref_add(_ref_mul(xn, yd), _ref_mul(yn, tuple(-c for c in xd))),
             _ref_mul(xd, yd)),
            (x * y, _ref_mul(xn, yn), _ref_mul(xd, yd)),
            (3 - x, _ref_add(_ref_mul((3,), xd), [-c for c in xn]), xd),
            (Fraction(1, 2) - x, _ref_add(_ref_mul((Fraction(1, 2),), xd), [-c for c in xn]), xd),
        ]
        assert type(3 - x) is QRat and type(Fraction(1, 2) - x) is QRat
        if y:
            cases.append((x / y, _ref_mul(xn, yd), _ref_mul(xd, yn)))
        if x or k >= 0:
            num, den = (xn, xd) if k >= 0 else (xd, xn)
            cases.append((x ** k, reduce(_ref_mul, [num] * abs(k), (Fraction(1),)),
                          reduce(_ref_mul, [den] * abs(k), (Fraction(1),))))
        for got, rn, rd in cases:
            _assert_canonical_rat(got)
            # got = rn / rd exactly, by cross-multiplication over Fraction
            assert _ref_mul(got.num.coeffs, rd) == _ref_mul(rn, got.den.coeffs), (x, y, got)
            for q0 in points:
                if _fraction_horner(rd, q0):
                    assert got.evaluate(q0) == _ref_value(rn, rd, q0), (x, y, got, q0)


def test_unit_products_do_no_polynomial_work(monkeypatch):
    # A scalar times q^e multiplies by changing p, r and e alone: no integer
    # product and no gcd, and the result is the one the generic route gives.
    values = [x for x, _, _ in _laurent_corpus(45, 12)] + [QRat(0), QRat(Fraction(-2, 7))]
    units = [q_power(3), q_power(-1), q_power(0), Fraction(3, 2), -5]
    cases = []
    for x in values:
        for u in units:
            want = QRat(x.num * QRat(u).num, x.den * QRat(u).den)
            cases += [(lambda x=x, u=u: u * x, want), (lambda x=x, u=u: x * u, want)]
        want = QRat(x.num, x.den * QPoly.monomial(1, 4))
        cases.append((lambda x=x: x * q_power(-4), want))
    calls = []

    def counting(name):
        original = getattr(exactq, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(exactq, "_int_mul", counting("_int_mul"))
    monkeypatch.setattr(exactq, "_int_gcd", counting("_int_gcd"))
    for product, want in cases:
        calls.clear()
        got = product()
        assert calls == [], (got, calls)
        assert got == want
    monkeypatch.undo()
    for product, want in cases:
        _assert_canonical_rat(product())


def test_exponent_enters_equality_and_hash():
    # q-shifts of one value are distinct values with distinct hashes
    for x in (QRat(1), QRat(Fraction(-3, 4)), QRat(QPoly((1, 1)), QPoly((2, 1))),
              QRat(q_binomial(5, 2), q_integer(6))):
        shifts = [q_power(e) * x for e in (-3, -2, -1, 0, 1, 2, 5)]
        assert len({hash(s) for s in shifts}) == len(shifts), x
        for i, s in enumerate(shifts):
            for j, t in enumerate(shifts):
                assert (s == t) == (i == j), (x, i, j)
    # a value carried in cyclotomic form equals, and hashes as, the same value
    # built from dense coefficient lists
    pairs = [
        (QRat(1, q_integer(6)), QRat(1, QPoly((1,) * 6))),
        (q_integer(6), QPoly((1,) * 6)),
        (q_binomial(4, 2), QPoly((1, 1, 2, 1, 1))),
        (q_factorial(3), QRat(QPoly((1, 2, 2, 1)))),
        (q_power(-2) * q_integer(4) / q_binomial(4, 2),
         QRat(QPoly((1, 1, 1, 1)), QPoly((0, 0, 1, 1, 2, 1, 1)))),
        (QRat(q_binomial(6, 3), q_integer(2) * q_integer(3)),
         QRat(QPoly((1, 1, 2, 3, 3, 3, 3, 2, 1, 1)), QPoly((1, 2, 2, 1)))),
    ]
    for factored, dense in pairs:
        assert factored == dense and dense == factored, (factored, dense)
        assert hash(factored) == hash(dense) and dense in {factored}, (factored, dense)
        assert factored != dense + 1 and factored != q_power(1) * dense


def test_evaluate_at_zero():
    pole = QRat(QPoly((1, 1)), QPoly((0, 0, 3, 1)))
    for x in (pole, q_power(-1), QRat(QPoly((0, 1)), QPoly((0, 0, 1)))):
        with pytest.raises(PoleError, match=r"^denominator vanishes at q = 0$"):
            x.evaluate(0)
    assert QRat(QPoly((0, 0, 2, 1)), QPoly((3, 1))).evaluate(0) == 0
    assert QRat(QPoly((5, 1)), QPoly((3, 1))).evaluate(Fraction(0)) == Fraction(5, 3)
    assert QRat(QPoly((0, 5, 1)), QPoly((0, 3, 1))).evaluate(0) == Fraction(5, 3)
    assert q_power(0).evaluate(0) == 1 and q_power(2).evaluate(0) == 0
    assert QPoly((0, 0, 4)).evaluate(0) == 0 and QRat(0).evaluate(0) == 0


def test_q_constants_reject_non_integer_arguments():
    for bad in (1.5, 2.0, Fraction(1, 2), "2"):
        for call, name in ((lambda: q_integer(bad), "n"), (lambda: q_factorial(bad), "n"),
                           (lambda: q_binomial(3, bad), "k"), (lambda: q_binomial(bad, 1), "n")):
            with pytest.raises(ValueError,
                               match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
                call()
    # after the integral call, the float key must still miss the memo table
    assert q_binomial(3, 1) == q_integer(3)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 1\.0$"):
        q_binomial(3, 1.0)
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        q_integer(-1)


def test_monomial_is_a_unit_and_rejects_bad_powers(monkeypatch):
    calls = []
    monkeypatch.setattr(exactq, "_int_primitive", lambda v: calls.append(v))
    m = QPoly.monomial(Fraction(-3, 2), 5)
    assert calls == [] and m._x._n == (1,) and m._x._e == 5
    monkeypatch.undo()
    assert m == QPoly((0, 0, 0, 0, 0, Fraction(-3, 2))) and m.degree == 5
    assert QPoly.monomial(0, 3).is_zero and QPoly.monomial(7, 0) == 7
    assert QPoly.monomial(0.5, 2) == QPoly((0, 0, Fraction(1, 2)))
    assert QPoly.monomial(Fraction(2, 3), 1).coeffs == (0, Fraction(2, 3))
    for c in (QRat(1, q_integer(2)), QPoly.one()):
        with pytest.raises(TypeError):
            QPoly.monomial(c, 1)
    for bad in (1.5, 2.0, "2"):
        with pytest.raises(ValueError, match=f"^power must be an integer, got {re.escape(repr(bad))}$"):
            QPoly.monomial(1, bad)
    with pytest.raises(ValueError, match="^power must be >= 0, got -1$"):
        QPoly.monomial(1, -1)


def test_q_power_rejects_non_integer_exponent():
    for e in (1.5, 2.0, Fraction(1, 2), "2"):
        with pytest.raises(ValueError, match=re.escape(repr(e))):
            q_power(e)
    assert q_power(3) == QPoly.monomial(1, 3) and q_power(-2) * q_power(2) == 1


# --- cyclotomic factored form -------------------------------------------------


def _table_phi(k):
    # Phi_k as the engine reads it: the one-factor entry of the table of products
    return exactq._phi_product(frozenset({(k, 1)}))


def test_cyclotomic_table():
    # the product of Phi_d over the divisors d of k is q^k - 1, which fixes each
    # Phi_k in turn, and its binomial form multiplies back to it
    for k in range(1, 61):
        divisors = [d for d in range(1, k + 1) if not k % d]
        product = reduce(_ref_mul, (_table_phi(d) for d in divisors), (Fraction(1),))
        assert product == _ref_strip((-1,) + (0,) * (k - 1) + (1,)), k
        phi, binomials = _table_phi(k), exactq._phi_binomials(k)
        up, down = ((reduce(_ref_mul, ((-1,) + (0,) * (d - 1) + (1,)
                                       for d, mu in binomials.items() if mu == sign), (1,)))
                    for sign in (1, -1))
        assert _ref_mul(phi, down) == _ref_strip(up), k
    # coefficient lists of generic parts times vectors, short and long, read
    # from the table, against schoolbook products
    assert list(exactq._times_phi((2, 1), {})) == [2, 1]
    rng = random.Random(53)
    for _ in range(40):
        v = {k: rng.randint(1, 3) for k in rng.sample(range(1, 40), rng.randint(1, 8))}
        n = _prim([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [1])
        assert list(exactq._times_phi(n, v)) == _int_mul(n, _ref_phi(v)), v


def test_phi_product_table_against_schoolbook_products():
    # every entry of the table of cyclotomic products is the schoolbook product
    # of Phi_k built apart from the engine
    rng = random.Random(67)
    vectors = [{k: rng.randint(1, 3) for k in rng.sample(range(1, 40), rng.randint(1, 8))}
               for _ in range(60)]
    for v in vectors:
        entry = exactq._phi_product(frozenset(v.items()))
        assert type(entry) is tuple and entry == _ref_phi(v), v
    # one vector built in two insertion orders is one entry
    forwards = {1: 3, 5: 1, 12: 2, 30: 1}
    backwards = dict(reversed(forwards.items()))
    assert list(forwards) != list(backwards)
    first = exactq._times_phi((1,), forwards)
    info = exactq._phi_product.cache_info()
    assert exactq._times_phi((1,), backwards) is first
    after = exactq._phi_product.cache_info()
    assert (after.hits, after.misses, after.currsize) == (info.hits + 1, info.misses,
                                                          info.currsize)


def test_cyclotomic_table_is_built_lazily():
    code = ("import qharmonic.cli\nfrom qharmonic import exactq\n"
            "print(exactq._phi_product.cache_info().currsize)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout.strip() == "0"


def test_q_constants_carry_their_closed_forms():
    # [n]_q is Phi_d over the divisors d > 1 of n, [n choose k]_q is
    # Phi_d^(n//d - k//d - (n-k)//d), and their coefficients are the q-Pascal ones
    pascal = [[(Fraction(1),)]]
    for n in range(1, 15):
        prev = pascal[-1] + [()]
        pascal.append([_ref_add(prev[k - 1] if k else (), (0,) * k + prev[k])
                       for k in range(n + 1)])
    for n in range(15):
        if n:
            assert q_integer(n)._x._nv == {d: 1 for d in range(2, n + 1) if not n % d}
            assert q_integer(n).coeffs == (1,) * n
        for k in range(n + 1):
            b = q_binomial(n, k)
            assert b._x._n == (1,) and b._x._nv == {
                d: n // d - k // d - (n - k) // d for d in range(2, n + 1)
                if n // d - k // d - (n - k) // d}
            assert b.coeffs == pascal[n][k], (n, k)
        f = q_factorial(n)
        assert f._x._nv == {d: n // d for d in range(2, n + 1)}
        assert f == reduce(lambda acc, i: acc * QPoly((1,) * i), range(1, n + 1), QPoly.one())


def _phi_value(nv, dv):
    # Phi^nv / Phi^dv for disjoint supports, built directly in factored form: the
    # q-constants never put Phi_1 into a vector, so this is how Phi_1 enters one
    return exactq._canonical((1,), (1,), 1, 1, 0, nv, dv)


def _factored_corpus(seed, count):
    # (value, reference numerator, reference denominator) of three kinds:
    # factored (every denominator a vector), generic (dense denominators) and
    # mixed (a generic numerator over a vector), with factors of q and scalars
    rng = random.Random(seed)
    ks = (1, 2, 3, 4, 5, 6, 8, 12)

    def vectors():
        nv, dv = {}, {}
        for k in rng.sample(ks, rng.randint(0, 4)):
            (nv if rng.random() < 0.4 else dv)[k] = rng.randint(1, 2)
        return nv, dv

    def scalar():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    def generic(nonzero):
        while True:
            cs = [0] * rng.randint(0, 2) + [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
            if not nonzero or any(cs):
                return _ref_strip(cs)

    out = []
    for _ in range(count):
        nv, dv = vectors()
        s, e = scalar(), rng.randint(-3, 3)
        unit = QRat(s) * q_power(e)
        rn, rd = _ref_mul((s,), _ref_phi(nv)), _ref_phi(dv)
        rn, rd = (_ref_mul(rn, (0,) * e + (1,)), rd) if e >= 0 else (rn, _ref_mul(rd, (0,) * -e + (1,)))
        kind = rng.choice(("factored", "factored", "generic", "mixed"))
        if kind == "factored":
            out.append((unit * _phi_value(nv, dv), rn, rd))
        elif kind == "mixed":
            g = generic(True)
            out.append((QPoly(g) * unit * _phi_value(nv, dv), _ref_mul(rn, g), rd))
        else:
            a, b = generic(False), generic(True)
            out.append((QRat(QPoly(a), QPoly(b)), a, b))
    out += [(QRat(0), (), (Fraction(1),)), (QRat(q_binomial(6, 2)), q_binomial(6, 2).coeffs, (1,)),
            (QRat(1, q_integer(6)), (Fraction(1),), (1,) * 6)]
    return out


def _dense_twin(x):
    # the same value built from its coefficient lists: generic parts and no
    # vectors, so two such values meet through GCDHEU
    return QRat(QPoly(x.num.coeffs), QPoly(x.den.coeffs))


def _outcome(x, q0):
    try:
        return x.evaluate(q0)
    except PoleError as err:
        return str(err)


def test_factored_ops_against_henrici_route_and_fraction_reference(monkeypatch):
    points = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2))
    corpus = _factored_corpus(51, 60)
    rng = random.Random(52)
    gcd_calls, gcd = [], exactq._int_gcd

    def counting_gcd(u, v):
        gcd_calls.append(None)
        return gcd(u, v)

    for _ in range(200):
        (x, xn, xd), (y, yn, yd) = rng.choice(corpus), rng.choice(corpus)
        if rng.random() < 0.2:
            # y = z - x: the sum cancels down to z, or to zero for z = x
            z, zn, zd = rng.choice(corpus + [(x, xn, xd)])
            y = z - x
            yn = _ref_add(_ref_mul(zn, xd), _ref_mul(xn, tuple(-c for c in zd)))
            yd = _ref_mul(zd, xd)
        k = rng.randint(-2, 3)
        cases = [("+", x + y, _ref_add(_ref_mul(xn, yd), _ref_mul(yn, xd)), _ref_mul(xd, yd)),
                 ("-", x - y, _ref_add(_ref_mul(xn, yd), _ref_mul(yn, tuple(-c for c in xd))),
                  _ref_mul(xd, yd)),
                 ("*", x * y, _ref_mul(xn, yn), _ref_mul(xd, yd))]
        if y:
            cases.append(("/", x / y, _ref_mul(xn, yd), _ref_mul(xd, yn)))
        if x or k >= 0:
            num, den = (xn, xd) if k >= 0 else (xd, xn)
            cases.append((f"**{k}", x ** k, reduce(_ref_mul, [num] * abs(k), (Fraction(1),)),
                          reduce(_ref_mul, [den] * abs(k), (Fraction(1),))))
        twins = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
                 "/": lambda a, b: a / b}
        dx, dy = _dense_twin(x), _dense_twin(y)
        for op, got, rn, rd in cases:
            _assert_canonical_rat(got)
            # got = rn / rd exactly, by cross-multiplication over Fraction
            assert _ref_mul(got.num.coeffs, rd) == _ref_mul(rn, got.den.coeffs), (op, x, y)
            want = twins[op](dx, dy) if op in twins else dx ** k
            assert got == want and hash(got) == hash(want), (op, x, y)
            assert (got.num, got.den, str(got), repr(got)) == (want.num, want.den, str(want),
                                                                repr(want)), (op, x, y)
            for q0 in points:
                # the same value or the same PoleError message as the dense route
                assert _outcome(got, q0) == _outcome(want, q0), (op, x, y, q0)
                if _fraction_horner(rd, q0):
                    assert got.evaluate(q0) == _ref_value(rn, rd, q0), (op, x, y, q0)
        # operands whose denominators are vectors alone never reach the gcd
        if x._d == (1,) and y._d == (1,):
            monkeypatch.setattr(exactq, "_int_gcd", counting_gcd)
            gcd_calls.clear()
            x + y, x - y, x * y, x ** k if x or k >= 0 else None
            if y._n == (1,):
                x / y
            monkeypatch.undo()
            assert gcd_calls == [], (x, y)


def test_factored_poles_at_one_and_minus_one():
    for x, pole in ((_phi_value({}, {1: 1}), 1), (_phi_value({3: 1}, {1: 2, 4: 1}), 1),
                    (QRat(1, q_integer(2)), -1), (QRat(q_integer(3), q_binomial(4, 1)), -1),
                    (_phi_value({}, {2: 1, 1: 1}), 1), (_phi_value({}, {2: 1, 1: 1}), -1)):
        for value in (x, _dense_twin(x)):
            with pytest.raises(PoleError, match=rf"^denominator vanishes at q = {pole}$"):
                value.evaluate(pole)
            with pytest.raises(PoleError, match=rf"^denominator vanishes at q = {pole}$"):
                value.evaluate(Fraction(pole))
    # a Phi_1 or Phi_2 in the numerator is a zero there, not a pole
    assert _phi_value({1: 1, 2: 1}, {3: 1}).evaluate(1) == 0 == q_integer(2).evaluate(-1)
    assert QRat(q_integer(2) * q_integer(4), q_integer(8)).evaluate(-1) == 0
    assert QRat(q_integer(4), q_integer(2)).evaluate(-1) == 2


def test_mixed_operands_keep_their_vector(monkeypatch):
    # a vector denominator meets a generic one: the sum and the product keep the
    # vector whole beside the generic part, and no gcd runs
    calls, gcd = [], exactq._int_gcd
    monkeypatch.setattr(exactq, "_int_gcd", lambda u, v: calls.append((u, v)) or gcd(u, v))
    x, y = QRat(1, q_integer(6)), QRat(1, QPoly((1, 2)))
    for z in (x + y, y + x, x * y, y * x, x - y, x / QRat(QPoly((1, 2)))):
        assert z._dv == {2: 1, 3: 1, 6: 1} and z._d == (1, 2), z
    assert calls == []
    monkeypatch.undo()
    assert x * y == QRat(1, QPoly((1, 2)) * q_integer(6))
    assert x + y == QRat(QPoly((1, 2)) + q_integer(6), QPoly((1, 2)) * q_integer(6))


def test_equal_generic_denominators_take_no_gcd(monkeypatch):
    # gcd(d, d) is d itself, with unit cofactors
    x, y = QRat(QPoly((1, 1)), QPoly((1, 2, 3))), QRat(QPoly((2, -1)), QPoly((1, 2, 3)))
    calls, gcd = [], exactq._int_gcd
    monkeypatch.setattr(exactq, "_int_gcd", lambda u, v: calls.append((u, v)) or gcd(u, v))
    z = x + y
    assert calls == []
    monkeypatch.undo()
    assert z == QRat(3, QPoly((1, 2, 3))) and z._d == (1, 2, 3)


def test_sum_cancelling_to_a_monomial_takes_no_gcd(monkeypatch):
    # a numerator c q^k is prime to every generic denominator part g, as g(0) != 0
    x, y = QRat(1, QPoly((1, 3))), QRat(QPoly((-1, 1)), QPoly((1, 3)))
    s, t = QRat(QPoly((1, 2)), QPoly((1, 1, 1))), QRat(QPoly((-1, -2, 5)), QPoly((1, 1, 1)))
    calls, gcd = [], exactq._int_gcd
    monkeypatch.setattr(exactq, "_int_gcd", lambda u, v: calls.append((u, v)) or gcd(u, v))
    z, w = x + y, s + t
    assert calls == []
    monkeypatch.undo()
    assert z == QRat(QPoly.variable(), QPoly((1, 3))) and z._d == (1, 3)
    assert w == QRat(QPoly.monomial(5, 2), QPoly((1, 1, 1))) and w._d == (1, 1, 1)


def test_inverse_swaps_the_stored_form():
    mixed = QRat(QPoly((2, -1, 3)) * q_binomial(6, 3), QPoly((1, 0, 5)) * q_integer(7))
    values = [QRat(q_integer(5), q_factorial(4)), QRat(QPoly((1, 2)), QPoly((3, 0, -1))),
              QRat(QPoly((1, 1, 1)) * q_integer(6), q_binomial(5, 2)), mixed,
              Fraction(-3, 7) * q_power(-2) * mixed]
    values += [x for x, _, _ in _factored_corpus(53, 40) if x]
    assert mixed._n != (1,) and mixed._nv and mixed._d != (1,) and mixed._dv
    for x in values:
        y = 1 / x
        assert (y._n, y._nv, y._d, y._dv) == (x._d, x._dv, x._n, x._nv)
        assert (y._p * x._p, y._r * x._r, y._e) == (x._r * y._r, x._p * y._p, -x._e)
        z = 1 / y
        assert (z._n, z._nv, z._d, z._dv, z._p, z._r, z._e) == (
            x._n, x._nv, x._d, x._dv, x._p, x._r, x._e)
        _assert_stored_form(y)


def test_reading_a_value_never_writes_to_it():
    # a value is its seven stored fields; hashing, comparing, evaluating,
    # printing and combining it leave every one of them the same object
    values = [QRat(QPoly((1, 2))) * q_integer(3), QRat(1, q_binomial(4, 2)),
              q_factorial(4)._x]
    assert values[0]._n != (1,) and values[0]._nv and values[1]._dv and values[2]._nv
    for x in values:
        before = {name: getattr(x, name) for name in QRat.__slots__}
        x.num.coeffs, x.den.coeffs, hash(x), x == QRat(x.num, x.den)
        x.evaluate(Fraction(2, 3)), str(x), x + x, x * x
        changed = [name for name, value in before.items() if getattr(x, name) is not value]
        assert not changed, (x, changed)
