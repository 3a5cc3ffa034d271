"""Acceptance gate: one test per criterion, exact tolerances, stated budgets.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  Every comparison is exact (canonical-form equality in Q(q) or
Fraction equality); the only tolerances are the runtime budgets.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from qharmonic.exactq import QPoly, QRat, q_factorial, q_integer, q_power
from qharmonic.harmonic import (
    QSeq,
    a_seq,
    c_value,
    delta_qk_closed,
    delta_qk_table,
)
from qharmonic.multiindex import MultiIndex, enumerate_by_weight
from qharmonic.qseries import (
    BiSeries,
    IDENTITY,
    LAMBDA_X,
    LAMBDA_Y,
    MUL_X,
    MUL_Y,
    PARTIAL_X,
    PARTIAL_Y,
    apply_op,
    lowering_op_i_shifted,
    lowering_op_ii_shifted,
    pde_operator,
    pde_residual,
    q_commutator,
    q_partial,
    qshift_product,
    scalar_op,
)
from qharmonic.verify import (
    _admissible_pairs,
    eval_crosscheck,
    verify_closed_difference,
    verify_duality,
    verify_inductive_relations,
    verify_injectivity,
    verify_main_identity,
    verify_pde_annihilation,
    verify_product_identity,
)


def _report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS - {description} ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_dual_combinatorics():
    started = time.perf_counter()
    assert MultiIndex((2, 2)).dual() == MultiIndex((1, 2, 1))
    assert MultiIndex((1, 1, 2)).dual() == MultiIndex((3, 1))
    assert MultiIndex((4,)).dual() == MultiIndex((1, 1, 1, 1))
    for m in range(1, 9):
        for mu in enumerate_by_weight(m):
            dual = mu.dual()
            assert dual.dual() == mu
            assert (len(mu) - 1) + (len(dual) - 1) == mu.weight - 1
            if m >= 2:
                assert mu.minus_reduce().dual() == dual.minus_reduce()
    _report(1, "dual examples, involution, length and reduction laws to weight 8",
            started, 1.0)


def test_criterion_2_main_identity():
    started = time.perf_counter()
    indices = [mu for w in range(1, 6) for mu in enumerate_by_weight(w)]
    assert len(indices) == 31
    instances = 0
    for mu in indices:
        report = verify_main_identity(mu, 4, 4)
        assert report.all_passed, (mu, report.failures()[0].params)
        instances += len(report.records)
    assert instances == 775
    _report(2, "difference formula on all 775 instances of weight <= 5",
            started, 300.0)


def test_criterion_3_duality():
    started = time.perf_counter()
    indices = [mu for w in range(1, 7) for mu in enumerate_by_weight(w)]
    assert len(indices) == 63
    for mu in indices:
        report = verify_duality(mu, 6)
        assert report.all_passed, (mu, report.failures()[0].params)
    _report(3, "duality for all 63 multi-indices of weight <= 6, k <= 6",
            started, 300.0)


def test_criterion_4_closed_c_for_ones():
    started = time.perf_counter()
    one = MultiIndex((1,))
    for n in range(9):
        for k in range(9):
            expect = QRat(q_factorial(n) * q_factorial(k), q_factorial(n + k + 1))
            assert c_value(one, one, n, k) == expect, (n, k)
    _report(4, "closed factorial form of c for the weight-1 pair, n,k <= 8",
            started, 1.0)


def test_criterion_5_inductive_relations():
    started = time.perf_counter()
    pairs = [pair for w in range(2, 5) for pair in _admissible_pairs(w)]
    assert len(pairs) == 42
    for mu, nu in pairs:
        report = verify_inductive_relations(mu, nu, 4, 4, series_orders=5)
        assert report.all_passed, (mu, nu, report.failures()[0].params)
    _report(5, "scalar and series lowering relations on all 42 admissible pairs",
            started, 120.0)


def test_criterion_6_annihilation():
    started = time.perf_counter()
    for w in range(1, 5):
        for mu in enumerate_by_weight(w):
            report = verify_pde_annihilation(mu, 6)
            assert report.all_passed, mu
    _report(6, "zero residual for all dual-pair series of weight <= 4 at orders 6",
            started, 120.0)


def test_criterion_7_difference_calculus_suite():
    started = time.perf_counter()
    rng = random.Random(2025)

    # closed form == iterated differences on random sequences, n,k <= 6
    report = verify_closed_difference(6, seed=2025, count=3)
    assert report.all_passed

    # product decomposition at orders 6 (random sequences + pde residuals)
    report = verify_product_identity(6, seed=2025, count=3, harmonic_weights=2)
    assert report.all_passed

    def rand_series(vx=6, vy=6):
        return BiSeries.from_function(lambda n, k: QRat(rng.randint(-5, 5)), vx, vy)

    # dilation identities
    for mul, lam, par in ((MUL_X, LAMBDA_X, PARTIAL_X), (MUL_Y, LAMBDA_Y, PARTIAL_Y)):
        s = rand_series()
        lhs = apply_op(scalar_op(QPoly((1, -1))) * mul * par, s)
        assert lhs.first_discrepancy(apply_op(IDENTITY - lam, s)) is None

    # commutation relations
    s = rand_series()
    for a, b in ((PARTIAL_X, LAMBDA_X), (PARTIAL_Y, LAMBDA_Y),
                 (LAMBDA_X, MUL_X), (LAMBDA_Y, MUL_Y)):
        assert apply_op(q_commutator(a, b), s).is_zero()
    for a, b in ((PARTIAL_X, MUL_X), (PARTIAL_Y, MUL_Y)):
        assert apply_op(q_commutator(a, b), s).first_discrepancy(s) is None

    # coefficient form of the annihilating operator on an arbitrary array
    s = rand_series()
    out = apply_op(pde_operator(), s)
    for n in range(6):
        for k in range(6):
            expect = (q_power(k + 1) * s.coeff(n + 1, k)
                      + s.coeff(n, k + 1) - s.coeff(n, k))
            assert out.coeff(n, k) == expect

    # derivative action on the shifted linear products, 1 <= m <= n <= 6
    for n in range(1, 7):
        for m in range(1, n + 1):
            p = qshift_product(m, n, 6, 6)
            got_x = q_partial(p, "x")
            want_x = qshift_product(m, n - 1, 6, 6).scale(QRat(q_integer(n - m + 1)))
            assert got_x.first_discrepancy(want_x) is None, (m, n)
            got_y = q_partial(p, "y")
            factor = QRat(QPoly.monomial(-1, m)) * QRat(q_integer(n - m + 1))
            want_y = qshift_product(m + 1, n, 6, 6).scale(factor)
            assert got_y.first_discrepancy(want_y) is None, (m, n)

    # kernel triviality: zero first column forces the zero triangle
    table = delta_qk_table(QSeq.from_values([0] * 7, tail=1), 6, 6)
    assert all(table[n][k].is_zero for n in range(7) for k in range(7 - n))

    # kernel triviality of the shifted lowering operators on truncations:
    # back-substituting the kernel recurrences recovers the input exactly
    [rec] = verify_injectivity(6, seed=2025, count=0).records
    assert rec.params["check"] == "kernel_recurrence"
    assert rec.status == "pass", rec.witness
    for trial in range(4):
        raw = BiSeries.from_function(
            lambda n, k: QRat(rng.randint(-5, 5)) if (n < 6 and k < 6) else QRat(0), 6, 6)
        if raw.is_zero():
            continue
        assert not apply_op(lowering_op_i_shifted(), raw).is_zero()
        assert not apply_op(lowering_op_ii_shifted(), raw).is_zero()

    _report(7, "difference-calculus suite: closed/iterated, products, operators, kernels",
            started, 60.0)


def test_criterion_8_cross_mode_agreement():
    started = time.perf_counter()
    rng = random.Random(808)
    indices = [mu for w in range(1, 6) for mu in enumerate_by_weight(w)]
    points = [Fraction(2, 3), Fraction(5), Fraction(-2)]
    for _ in range(20):
        mu = indices[rng.randrange(len(indices))]
        n = rng.randint(0, 4)
        k = rng.randint(0, 4)
        report = eval_crosscheck(mu, n, k, points)
        assert report.all_passed, (mu, n, k)
        assert report.counts["skip"] == 0, (mu, n, k)
        assert report.counts["pass"] == 3
    _report(8, "20 sampled instances agree between symbolic and direct evaluation",
            started, 30.0)
