"""Harmonic chain sums and the q-difference calculus on sequences."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import brute_a, brute_b, brute_c, random_qrat
from qharmonic import direct, harmonic
from qharmonic.exactq import QPoly, QRat, q_factorial, q_integer, q_power
from qharmonic.harmonic import (
    QSeq,
    a_seq,
    a_value,
    b_value,
    c_value,
    delta_qk_closed,
    delta_qk_table,
)
from qharmonic.multiindex import MultiIndex, enumerate_by_weight

Q = QPoly.variable()
ONE_PLUS_Q = QPoly((1, 1))


class TestAValues:
    def test_single_part_one(self):
        for n in range(9):
            assert a_value(MultiIndex((1,)), n) == QRat(QPoly.one(), q_integer(n + 1))

    def test_weight_two_single_chain(self):
        assert a_value(MultiIndex((2,)), 1) == QRat(QPoly.monomial(1, 2), q_integer(2) ** 2)

    def test_two_chains(self):
        # chains (1,1) and (1,0): 1/[2]^2 + 1/[2]
        assert a_value(MultiIndex((1, 1)), 1) == QRat(QPoly((2, 1)), ONE_PLUS_Q ** 2)

    def test_at_zero_is_power_of_q(self):
        for m in range(1, 6):
            for mu in enumerate_by_weight(m):
                assert a_value(mu, 0) == q_power(mu.weight - len(mu))

    def test_against_brute_enumeration(self):
        for m in range(1, 5):
            for mu in enumerate_by_weight(m):
                for n in range(5):
                    assert a_value(mu, n) == brute_a(mu, n), (mu, n)


class TestBValues:
    def test_single_block(self):
        for m in range(1, 4):
            for n in range(5):
                assert b_value(MultiIndex((m,)), n) == QRat(QPoly.one(), q_integer(n + 1) ** m)

    def test_small_values(self):
        assert b_value(MultiIndex((1, 1)), 1) == QRat(QPoly((0, 1, 2)), ONE_PLUS_Q ** 2)
        assert b_value(MultiIndex((1, 1)), 0) == QRat(Q)

    def test_against_brute_enumeration(self):
        for m in range(1, 5):
            for mu in enumerate_by_weight(m):
                for n in range(5):
                    assert b_value(mu, n) == brute_b(mu, n), (mu, n)


def test_a_and_b_accept_a_plain_list():
    mu = MultiIndex((1, 1))
    assert a_value([1, 1], 2) == a_value(mu, 2)
    assert b_value([1, 1], 2) == b_value(mu, 2)
    assert c_value([1, 1], [2], 1, 1) == c_value(mu, MultiIndex((2,)), 1, 1)


def test_suffix_tables_are_shared_across_head_runs():
    # (2,1) and (3,1) against their one-block partners differ only in the run
    # before the first block boundary, so the second call reuses every entry
    # below its head.
    harmonic._c_value.cache_clear()
    harmonic._c_suffix.cache_clear()
    a_value((2, 1), 3)
    misses = harmonic._c_suffix.cache_info().misses
    a_value((3, 1), 3)
    assert harmonic._c_suffix.cache_info().misses == misses + 1


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_no_recursion_as_deep_as_n():
    # The c walk is a few calls deep and q_factorial is a loop, so
    # a few dozen frames of headroom suffice at n + k >= 40.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        mu = MultiIndex((1, 1))
        a = a_value(mu, 40)
        b = b_value(mu, 40)
        c = c_value(mu, MultiIndex((2,)), 21, 22)
    finally:
        sys.setrecursionlimit(limit)
    assert a.den.degree > 40 and b.den.degree > 40 and c.den.degree > 40


def test_no_recursion_as_deep_as_the_weight():
    # _c_value fills the suffixes of its walk shortest first, so 300 one-parts
    # return under the default recursion limit; a fresh interpreter starts
    # with that limit and an empty memo.
    code = "from qharmonic.harmonic import a_value\nprint(a_value((1,) * 300, 0))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0, out.stderr[-500:]
    assert out.stdout.strip() == "(1) / (1)"


def _clear_c_tables():
    harmonic._c_value.cache_clear()
    harmonic._c_suffix.cache_clear()


def test_grid_does_not_depend_on_request_order():
    # The running sums extend whatever the table holds, so a shuffled request
    # order must give the grid that ascending order gives.
    points = [(mu, nu, n, k)
              for w in range(2, 5)
              for mu in enumerate_by_weight(w) for nu in enumerate_by_weight(w)
              if (mu[0] >= 2) != (nu[0] >= 2)
              for n in range(6) for k in range(6)]
    assert len(points) == 42 * 36
    shuffled = points[:]
    random.Random(10).shuffle(shuffled)
    _clear_c_tables()
    got = {p: c_value(*p) for p in shuffled}
    _clear_c_tables()
    want = {p: c_value(*p) for p in points}
    assert got == want
    q0 = Fraction(2, 3)
    for mu, nu, n, k in random.Random(11).sample(points, 25):
        assert got[mu, nu, n, k].evaluate(q0) == direct.c_at(mu, nu, n, k, q0), (mu, nu, n, k)


def test_running_sums_take_two_additions_per_state(monkeypatch):
    # The walk of (2,1,1) against (1,1,2) has a nu-only, a both and a mu-only
    # step, so it has at most 3 (N+1)^2 states, each at most two additions.
    # A sum over every a2 <= a and b2 <= b at each state takes O(N^4).
    calls = []
    add = QRat.__add__
    monkeypatch.setattr(QRat, "__add__", lambda x, y: calls.append(1) or add(x, y))
    N = 10
    _clear_c_tables()
    c_value(MultiIndex((2, 1, 1)), MultiIndex((1, 1, 2)), N, N)
    assert 0 < len(calls) <= 2 * 3 * (N + 1) ** 2


class TestCValues:
    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            c_value(MultiIndex((2,)), MultiIndex((1, 1, 1)), 0, 0)

    def test_negative_indices_rejected_by_name(self):
        mu = MultiIndex((1, 1))
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            a_value(mu, -1)
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            b_value(mu, -1)
        with pytest.raises(ValueError, match="n must be >= 0, got -2"):
            c_value(mu, MultiIndex((2,)), -2, 0)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            c_value(mu, MultiIndex((2,)), 0, -1)

    def test_non_integer_indices_rejected_before_the_tables(self):
        # the memo tables take 1.0 for 1 as a key, so the check must come first:
        # the same error with cold tables and with the integer entries cached
        mu, nu = MultiIndex((1, 2)), MultiIndex((2, 1))
        seq = a_seq(mu)
        for warm in (False, True):
            _clear_c_tables()
            if warm:
                c_value(mu, nu, 1, 0), a_value(mu, 2), b_value(mu, 2), seq(2)
            for call, message in (
                    (lambda: c_value(mu, nu, 1.0, 0), "n must be an integer, got 1.0"),
                    (lambda: c_value(mu, nu, 1, Fraction(0)),
                     "k must be an integer, got Fraction(0, 1)"),
                    (lambda: a_value(mu, 2.0), "n must be an integer, got 2.0"),
                    (lambda: b_value(mu, 2.0), "n must be an integer, got 2.0"),
                    (lambda: seq(2.0), "n must be an integer, got 2.0"),
                    (lambda: delta_qk_table(seq, 1.5, 1), "n_max must be an integer, got 1.5"),
                    (lambda: delta_qk_closed(seq, 1, 1.5), "k must be an integer, got 1.5")):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call()

    def test_closed_form_for_ones(self):
        one = MultiIndex((1,))
        for n in range(6):
            for k in range(6):
                expect = QRat(q_factorial(n) * q_factorial(k), q_factorial(n + k + 1))
                assert c_value(one, one, n, k) == expect

    def test_k_zero_column_is_a(self):
        for m in range(1, 6):
            indices = enumerate_by_weight(m)
            for mu in indices:
                for nu in indices:
                    for n in range(6):
                        assert c_value(mu, nu, n, 0) == a_value(mu, n)

    def test_n_zero_row_is_b_of_dual(self):
        for m in range(1, 6):
            for mu in enumerate_by_weight(m):
                for k in range(6):
                    assert c_value(mu, mu.dual(), 0, k) == b_value(mu.dual(), k)

    def test_first_difference_instance(self):
        # c for the pair ((2),(1,1)) at (1,1) equals a_(2)(1) - q a_(2)(2)
        mu = MultiIndex((2,))
        lhs = c_value(mu, MultiIndex((1, 1)), 1, 1)
        rhs = a_value(mu, 1) - q_power(1) * a_value(mu, 2)
        assert lhs == rhs

    def test_against_brute_double_enumeration(self):
        for m in range(1, 5):
            indices = enumerate_by_weight(m)
            for mu in indices:
                for nu in indices:
                    for n in range(3):
                        for k in range(3):
                            assert c_value(mu, nu, n, k) == brute_c(mu, nu, n, k), \
                                (mu, nu, n, k)


class TestDifferenceOperators:
    def test_first_difference_of_constant(self):
        table = delta_qk_table(QSeq.from_values((), tail=1), 4, 1)
        for n in range(5):
            assert table[n][1] == QRat(QPoly((1, -1)))

    def test_first_difference_telescopes_single_harmonic(self):
        table = delta_qk_table(a_seq(MultiIndex((1,))), 5, 1)
        for n in range(6):
            assert table[n][1] == QRat(QPoly.one(), q_integer(n + 1) * q_integer(n + 2))

    def test_iterated_identity_and_single_step(self):
        seq = a_seq(MultiIndex((1, 2)))
        assert delta_qk_table(seq, 3, 0) == [[seq(n)] for n in range(4)]
        table = delta_qk_table(seq, 3, 2)
        assert len(table) == 4 and all(len(row) == 3 for row in table)
        for n in range(4):
            assert table[n][0] == seq(n)
            assert table[n][1] == seq(n) - q_power(1) * seq(n + 1)
        for n in range(3):
            assert table[n][2] == table[n][1] - q_power(2) * table[n + 1][1]
        with pytest.raises(ValueError, match="k_max must be >= 0, got -1"):
            delta_qk_table(seq, 3, -1)
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            delta_qk_table(seq, -1, 3)

    def test_table_reads_only_the_needed_prefix(self):
        reads = []
        delta_qk_table(QSeq(lambda n: reads.append(n) or QRat(n * n - 3)), 4, 2)
        assert reads == list(range(7))

    def test_iterated_matches_closed_on_harmonic(self):
        seq = a_seq(MultiIndex((1,)))
        table = delta_qk_table(seq, 10, 2)
        for n in range(11):
            assert table[n][2] == delta_qk_closed(seq, n, 2)

    def test_closed_small_orders(self):
        seq = a_seq(MultiIndex((3, 1)))
        for n in range(4):
            assert delta_qk_closed(seq, n, 0) == seq(n)
            assert delta_qk_closed(seq, n, 1) == seq(n) - q_power(1) * seq(n + 1)

    def test_closed_rejects_negative_index_by_name(self):
        seq = a_seq(MultiIndex((1, 1)))
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            delta_qk_closed(seq, 0, -1)
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            delta_qk_closed(seq, -1, 2)

    def test_closed_frozen_value(self):
        # a_(2)(0) = q, a_(2)(1) = q^2/[2]^2, difference q - q^3/(1+q)^2
        seq = a_seq(MultiIndex((2,)))
        got = delta_qk_closed(seq, 0, 1)
        assert got == QRat(Q) - QRat(QPoly.monomial(1, 3), ONE_PLUS_Q ** 2)
        assert got == QRat(QPoly((0, 1, 2)), ONE_PLUS_Q ** 2)

    def test_closed_equals_iterated_on_random_sequences(self):
        rng = random.Random(23)
        for _ in range(4):
            seq = QSeq.from_values([random_qrat(rng) for _ in range(14)])
            table = delta_qk_table(seq, 6, 6)
            for n in range(7):
                for k in range(7):
                    assert delta_qk_closed(seq, n, k) == table[n][k], (n, k)


class TestNabla:
    def test_at_zero(self):
        seq = a_seq(MultiIndex((1, 1)))
        assert delta_qk_closed(seq, 0, 0) == seq(0)

    def test_matches_dual_b(self):
        seq = a_seq(MultiIndex((2,)))
        assert delta_qk_closed(seq, 0, 1) == QRat(QPoly((0, 1, 2)), ONE_PLUS_Q ** 2)
        assert delta_qk_closed(seq, 0, 1) == b_value(MultiIndex((1, 1)), 1)

    def test_single_harmonic_closed_form(self):
        seq = a_seq(MultiIndex((1,)))
        one = MultiIndex((1,))
        for k in range(7):
            assert delta_qk_closed(seq, 0, k) == QRat(QPoly.one(), q_integer(k + 1))
            assert delta_qk_closed(seq, 0, k) == c_value(one, one, 0, k)


class TestQSeq:
    def test_cache_returns_identical_object(self):
        seq = a_seq(MultiIndex((2, 1)))
        assert seq(3) is seq(3)

    def test_negative_index(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            a_seq(MultiIndex((1,)))(-1)

    def test_from_values_with_tail(self):
        seq = QSeq.from_values([1, QRat(Q)], tail=0)
        assert seq(0) == QRat(1)
        assert seq(1) == QRat(Q)
        assert seq(5) == QRat(0)


class TestDualityAndMainSmall:
    def test_duality_small_weights(self):
        for m in range(1, 5):
            for mu in enumerate_by_weight(m):
                seq = a_seq(mu)
                dual = mu.dual()
                for k in range(5):
                    assert delta_qk_closed(seq, 0, k) == b_value(dual, k), (mu, k)

    def test_main_identity_small_weights(self):
        for m in range(1, 4):
            for mu in enumerate_by_weight(m):
                seq = a_seq(mu)
                dual = mu.dual()
                for n in range(3):
                    for k in range(3):
                        assert delta_qk_closed(seq, n, k) == c_value(mu, dual, n, k)

    def test_inductive_relation_case_one(self):
        # first case: mu starts >= 2, nu starts with 1
        mu, nu = MultiIndex((2, 1)), MultiIndex((1, 2))
        rmu, rnu = mu.minus_reduce(), nu.minus_reduce()
        for n in range(4):
            for k in range(1, 4):
                bracket = (QRat(q_integer(n + k + 1)) * c_value(mu, nu, n, k)
                           - QRat(q_integer(k)) * c_value(mu, nu, n, k - 1))
                assert q_power(-n - k - 1) * bracket == c_value(rmu, rnu, n, k)

    def test_inductive_relation_case_two(self):
        mu, nu = MultiIndex((1, 2)), MultiIndex((2, 1))
        rmu, rnu = mu.minus_reduce(), nu.minus_reduce()
        for n in range(1, 4):
            for k in range(4):
                lhs = (QRat(q_integer(n + k + 1)) * c_value(mu, nu, n, k)
                       - QRat(q_integer(n)) * c_value(mu, nu, n - 1, k))
                assert lhs == c_value(rmu, rnu, n, k)

    def test_inductive_relations_full_sweep_weight_5(self):
        # Both scalar relations on every admissible pair through weight 5,
        # n <= 4 and k >= 1 (resp. n >= 1, k <= 4).  The heavy end of the suite.
        for m in range(2, 6):
            indices = enumerate_by_weight(m)
            starts_high = [mu for mu in indices if mu[0] >= 2]
            starts_one = [mu for mu in indices if mu[0] == 1]
            for mu in starts_high:
                for nu in starts_one:
                    rmu, rnu = mu.minus_reduce(), nu.minus_reduce()
                    drmu, drnu = nu.minus_reduce(), mu.minus_reduce()
                    for n in range(5):
                        for k in range(1, 5):
                            bracket = (QRat(q_integer(n + k + 1)) * c_value(mu, nu, n, k)
                                       - QRat(q_integer(k)) * c_value(mu, nu, n, k - 1))
                            assert q_power(-n - k - 1) * bracket == c_value(rmu, rnu, n, k), \
                                ("case i", mu, nu, n, k)
                    for n in range(1, 5):
                        for k in range(5):
                            lhs = (QRat(q_integer(n + k + 1)) * c_value(nu, mu, n, k)
                                   - QRat(q_integer(n)) * c_value(nu, mu, n - 1, k))
                            assert lhs == c_value(drmu, drnu, n, k), \
                                ("case ii", nu, mu, n, k)
