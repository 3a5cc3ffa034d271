"""Truncated bivariate series, the operator algebra, and the series identities."""

from __future__ import annotations

import random

import pytest

from helpers import random_qrat
from qharmonic.exactq import QPoly, QRat, q_binomial, q_factorial, q_integer, q_power
from qharmonic.harmonic import QSeq, a_seq, delta_qk_closed, delta_qk_iter, delta_z
from qharmonic.multiindex import MultiIndex, enumerate_by_weight
from qharmonic.qseries import (
    BiSeries,
    F_a_series,
    G_series,
    IDENTITY,
    LAMBDA_X,
    LAMBDA_Y,
    MUL_X,
    MUL_Y,
    PARTIAL_X,
    PARTIAL_Y,
    TruncationError,
    apply_op,
    diag_q_integer,
    f_a_series,
    lambda_scale,
    lowering_op_i,
    lowering_op_i_shifted,
    lowering_op_ii,
    lowering_op_ii_shifted,
    mul_by_var,
    pde_operator,
    pde_residual,
    pde_solve_from_column,
    q_commutator,
    q_exp,
    q_partial,
    qshift_product,
    scalar_op,
    series_mul,
)

ORDERS = 6


def _random_series(seed: int, vx: int = ORDERS, vy: int = ORDERS,
                   ints_only: bool = True) -> BiSeries:
    rng = random.Random(seed)
    if ints_only:
        return BiSeries.from_function(lambda n, k: QRat(rng.randint(-5, 5)), vx, vy)
    return BiSeries.from_function(lambda n, k: random_qrat(rng), vx, vy)


def _monomial_series(n0: int, k0: int, vx: int = ORDERS, vy: int = ORDERS) -> BiSeries:
    # X^n0 Y^k0 in the divided-power basis: a(n0,k0) = [n0]! [k0]!
    return BiSeries.from_function(
        lambda n, k: QRat(q_factorial(n0) * q_factorial(k0)) if (n, k) == (n0, k0) else QRat(0),
        vx, vy)


def _divided_power(n0: int, k0: int, vx: int = ORDERS, vy: int = ORDERS) -> BiSeries:
    # X^n0 Y^k0 / ([n0]! [k0]!): a single unit coefficient
    return BiSeries.from_function(
        lambda n, k: QRat(1) if (n, k) == (n0, k0) else QRat(0), vx, vy)


class TestBiSeries:
    def test_region_and_coeff_access(self):
        s = BiSeries.from_function(lambda n, k: QRat(n + 2 * k), 3, 2)
        assert s.valid_region == (3, 2)
        assert s.coeff(3, 2) == QRat(7)
        with pytest.raises(IndexError):
            s.coeff(4, 0)

    def test_agreement_is_over_intersection(self):
        big = BiSeries.from_function(lambda n, k: QRat(1), 5, 5)
        small = BiSeries.from_function(lambda n, k: QRat(1), 2, 2)
        assert big.agrees_with(small)
        bumped = BiSeries.from_function(
            lambda n, k: QRat(2) if (n, k) == (4, 4) else QRat(1), 5, 5)
        assert bumped.agrees_with(small)       # difference sits outside (2,2)
        assert not bumped.agrees_with(big)
        assert bumped.first_discrepancy(big) == (4, 4, QRat(1))

    def test_add_restricts_to_intersection(self):
        a = BiSeries.from_function(lambda n, k: QRat(n), 4, 3)
        b = BiSeries.from_function(lambda n, k: QRat(k), 2, 5)
        out = a + b
        assert out.valid_region == (2, 3)
        assert out.coeff(2, 3) == QRat(5)

    def test_restrict(self):
        s = BiSeries.from_function(lambda n, k: QRat(1), 4, 4)
        assert s.restrict(2, 1).valid_region == (2, 1)
        with pytest.raises(TruncationError):
            s.restrict(5, 5)


class TestPrimitiveOps:
    def test_partial_shifts(self):
        e = q_exp(4, 4)
        de = q_partial(e, "y")
        assert de.valid_region == (4, 3)
        assert de.agrees_with(e)

        # X^2/[2]! -> X/[1]! under the X-partial
        assert q_partial(_divided_power(2, 0), "x").agrees_with(_divided_power(1, 0))

        # the series X itself drops to the constant 1
        x = _monomial_series(1, 0)
        assert q_partial(x, "x").agrees_with(_monomial_series(0, 0))

    def test_partial_exhaustion(self):
        s = BiSeries.from_function(lambda n, k: QRat(1), 0, 2)
        with pytest.raises(TruncationError):
            q_partial(s, "x")

    def test_lambda_scaling(self):
        s = _random_series(1)
        assert lambda_scale(lambda_scale(s, "x", 1), "x", -1).agrees_with(s)
        x = _monomial_series(1, 0)
        assert lambda_scale(x, "x", 1).agrees_with(x.scale(q_power(1)))
        f = _monomial_series(2, 0)
        assert lambda_scale(f, "x").coeff(2, 0) == q_power(2) * f.coeff(2, 0)

    def test_mul_by_var(self):
        x = _monomial_series(1, 0)
        xx = mul_by_var(x, "x")
        # X * X/[1]! = [2]_q X^2/[2]!
        assert xx.coeff(2, 0) == QRat(q_integer(2)) * QRat(q_factorial(1))
        one = _monomial_series(0, 0)
        assert mul_by_var(one, "y").agrees_with(_monomial_series(0, 1))

    def test_dilation_operator_identity(self):
        # (1-q) X dX = 1 - Lambda_X, and the Y twin, on random series
        for seed, axis, mul, lam, par in ((3, "x", MUL_X, LAMBDA_X, PARTIAL_X),
                                          (4, "y", MUL_Y, LAMBDA_Y, PARTIAL_Y)):
            s = _random_series(seed)
            lhs = apply_op(scalar_op(QPoly((1, -1))) * mul * par, s)
            rhs = apply_op(IDENTITY - lam, s)
            assert lhs.agrees_with(rhs)


class TestSeriesMul:
    def test_identity_element(self):
        s = _random_series(5)
        one = _monomial_series(0, 0)
        assert series_mul(s, one).agrees_with(s)

    def test_divided_power_product(self):
        x = _monomial_series(1, 0)
        out = series_mul(x, x)
        assert out.coeff(2, 0) == QRat(q_integer(2))  # [2 choose 1]_q

    def test_product_rule_first_order(self):
        # dX(st) = s * dX t + dX s * LX t ; dY likewise
        s = _random_series(6)
        t = _random_series(7)
        prod = series_mul(s, t)
        got_x = q_partial(prod, "x")
        want_x = series_mul(s, q_partial(t, "x")) + series_mul(q_partial(s, "x"), lambda_scale(t, "x"))
        assert got_x.agrees_with(want_x)
        got_y = q_partial(prod, "y")
        want_y = series_mul(s, q_partial(t, "y")) + series_mul(q_partial(s, "y"), lambda_scale(t, "y"))
        assert got_y.agrees_with(want_y)

    def test_product_rule_higher_orders(self):
        # n-fold X-derivative expands through binomially weighted dilated factors
        s = _random_series(8)
        t = _random_series(9)
        for order in (2, 3):
            got = series_mul(s, t)
            for _ in range(order):
                got = q_partial(got, "x")
            want = None
            for i in range(order + 1):
                ds = s
                for _ in range(i):
                    ds = q_partial(ds, "x")
                dt = t
                for _ in range(order - i):
                    dt = q_partial(dt, "x")
                for _ in range(i):
                    dt = lambda_scale(dt, "x")
                term = series_mul(ds, dt).scale(QRat(q_binomial(order, i)))
                want = term if want is None else want + term
            assert got.agrees_with(want), order


class TestCommutators:
    def test_vanishing_commutators(self):
        s = _random_series(10)
        for a, b in ((PARTIAL_X, LAMBDA_X), (PARTIAL_Y, LAMBDA_Y),
                     (LAMBDA_X, MUL_X), (LAMBDA_Y, MUL_Y)):
            assert apply_op(q_commutator(a, b), s).is_zero()

    def test_unit_commutators(self):
        s = _random_series(11)
        for a, b in ((PARTIAL_X, MUL_X), (PARTIAL_Y, MUL_Y)):
            assert apply_op(q_commutator(a, b), s).agrees_with(s)

    def test_inverse_dilation_swap(self):
        # Lambda_X^{-1} dX = q dX Lambda_X^{-1}
        s = _random_series(12)
        from qharmonic.qseries import LAMBDA_X_INV
        lhs = apply_op(LAMBDA_X_INV * PARTIAL_X, s)
        rhs = apply_op(q_power(1) * PARTIAL_X * LAMBDA_X_INV, s)
        assert lhs.agrees_with(rhs)


class TestCoefficientIdentity:
    def test_pde_operator_coefficient_form(self):
        # On any array the operator produces q^(k+1) a(n+1,k) + a(n,k+1) - a(n,k)
        s = _random_series(13, ints_only=False)
        out = apply_op(pde_operator(), s)
        assert out.valid_region == (ORDERS - 1, ORDERS - 1)
        for n in range(ORDERS):
            for k in range(ORDERS):
                expect = (q_power(k + 1) * s.coeff(n + 1, k)
                          + s.coeff(n, k + 1) - s.coeff(n, k))
                assert out.coeff(n, k) == expect


class TestQExp:
    def test_definition(self):
        e = q_exp(3, 5)
        for n in range(4):
            for k in range(6):
                assert e.coeff(n, k) == (QRat(1) if n == 0 else QRat(0))

    def test_self_reproducing_under_partial(self):
        e = q_exp(3, 5)
        assert q_partial(e, "y").agrees_with(e)


class TestShiftProducts:
    def test_empty_product(self):
        assert qshift_product(1, 0, 3, 3).agrees_with(_monomial_series(0, 0, 3, 3))

    def test_single_factor(self):
        p = qshift_product(1, 1, 3, 3)
        assert p.coeff(1, 0) == QRat(1)
        assert p.coeff(0, 1) == QRat(QPoly.monomial(-1, 1))
        assert p.coeff(1, 1) == QRat(0)

    def test_x_derivative_drops_last_factor(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                got = q_partial(qshift_product(m, n, ORDERS, ORDERS), "x")
                want = qshift_product(m, n - 1, ORDERS, ORDERS).scale(QRat(q_integer(n - m + 1)))
                assert got.agrees_with(want), (m, n)

    def test_y_derivative_drops_first_factor(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                got = q_partial(qshift_product(m, n, ORDERS, ORDERS), "y")
                factor = QRat(QPoly.monomial(-1, m)) * QRat(q_integer(n - m + 1))
                want = qshift_product(m + 1, n, ORDERS, ORDERS).scale(factor)
                assert got.agrees_with(want), (m, n)


class TestGeneratingSeries:
    def test_f_series_delta_sequence(self):
        assert f_a_series(QSeq.from_values([1]), 4, 4).agrees_with(_monomial_series(0, 0, 4, 4))
        lin = f_a_series(QSeq.from_values([0, 1]), 4, 4)
        assert lin.coeff(1, 0) == QRat(1)
        assert lin.coeff(0, 1) == QRat(QPoly.monomial(-1, 1))
        assert lin.coeff(2, 2) == QRat(0)

    def test_F_column_zero_is_sequence(self):
        seq = a_seq(MultiIndex((2,)))
        F = F_a_series(seq, 5, 5)
        for n in range(6):
            assert F.coeff(n, 0) == seq(n)

    def test_F_for_constant_sequence_matches_iterated_difference(self):
        const = QSeq.constant(1)
        F = F_a_series(const, 5, 5)
        for k in range(6):
            stepped = delta_qk_iter(const, k)
            for n in range(6):
                assert F.coeff(n, k) == stepped(n)

    def test_F_annihilated(self):
        rng = random.Random(17)
        seq = QSeq.from_values([random_qrat(rng) for _ in range(14)])
        assert pde_residual(F_a_series(seq, 5, 5)).is_zero()

    def test_product_decomposition(self):
        # F_a = f_a * e(Y) for a random sequence and a harmonic one
        rng = random.Random(18)
        for seq in (QSeq.from_values([QRat(rng.randint(-5, 5)) for _ in range(14)]),
                    a_seq(MultiIndex((2, 1)))):
            lhs = series_mul(f_a_series(seq, ORDERS, ORDERS), q_exp(ORDERS, ORDERS))
            rhs = F_a_series(seq, ORDERS, ORDERS)
            assert lhs.agrees_with(rhs)

    def test_product_decomposition_harmonic_weights(self):
        for m in range(1, 4):
            for mu in enumerate_by_weight(m):
                seq = a_seq(mu)
                lhs = series_mul(f_a_series(seq, 5, 5), q_exp(5, 5))
                assert lhs.agrees_with(F_a_series(seq, 5, 5)), mu

    def test_G_for_ones_pair(self):
        one = MultiIndex((1,))
        G = G_series(one, one, 4, 4)
        for n in range(5):
            for k in range(5):
                assert G.coeff(n, k) == QRat(q_factorial(n) * q_factorial(k),
                                             q_factorial(n + k + 1))

    def test_G_row_zero_is_a(self):
        mu = MultiIndex((2, 1))
        G = G_series(mu, MultiIndex((1, 1, 1)), 4, 4)
        seq = a_seq(mu)
        for n in range(5):
            assert G.coeff(n, 0) == seq(n)

    def test_G_weight_mismatch(self):
        with pytest.raises(ValueError):
            G_series(MultiIndex((2,)), MultiIndex((3,)), 2, 2)

    def test_G_of_dual_pair_is_F(self):
        mu = MultiIndex((2, 1))
        assert G_series(mu, mu.dual(), 5, 5).agrees_with(F_a_series(a_seq(mu), 5, 5))


class TestLoweringOperators:
    def test_case_one_and_two_on_small_pairs(self):
        cases = [
            (MultiIndex((2,)), MultiIndex((1, 1)), lowering_op_i()),
            (MultiIndex((3,)), MultiIndex((1, 1, 1)), lowering_op_i()),
            (MultiIndex((2, 1)), MultiIndex((1, 2)), lowering_op_i()),
            (MultiIndex((1, 1)), MultiIndex((2,)), lowering_op_ii()),
            (MultiIndex((1, 2)), MultiIndex((2, 1)), lowering_op_ii()),
        ]
        for mu, nu, op in cases:
            got = apply_op(op, G_series(mu, nu, 5, 5))
            want = G_series(mu.minus_reduce(), nu.minus_reduce(), 5, 5)
            assert got.agrees_with(want), (mu, nu)

    def test_annihilation_small_weights(self):
        for m in range(1, 4):
            for mu in enumerate_by_weight(m):
                residual = pde_residual(G_series(mu, mu.dual(), 5, 5))
                assert residual.is_zero(), mu

    def test_conjugation_identities(self):
        pde = pde_operator()
        s = _random_series(19)
        for lhs_op, rhs_op in (
            (pde * lowering_op_i(), lowering_op_i_shifted() * pde),
            (pde * lowering_op_ii(), lowering_op_ii_shifted() * pde),
        ):
            assert apply_op(lhs_op, s).agrees_with(apply_op(rhs_op, s))

    def test_diag_q_integer_action(self):
        s = _random_series(20)
        out = apply_op(diag_q_integer(2), s)
        for n in range(3):
            for k in range(3):
                assert out.coeff(n, k) == QRat(q_integer(n + k + 2)) * s.coeff(n, k)


class TestKernelTriviality:
    def test_zero_column_forces_zero_triangle(self):
        triangle = pde_solve_from_column([0] * 7, 6, 6)
        assert all(c.is_zero for row in triangle for c in row)

    def test_triangle_reconstructs_differences(self):
        # the recurrence is an independent derivation of the difference array
        seq = a_seq(MultiIndex((2,)))
        triangle = pde_solve_from_column(seq, 6, 6)
        for n, row in enumerate(triangle):
            for k, value in enumerate(row):
                assert value == delta_qk_closed(seq, n, k), (n, k)

    def test_shifted_lowering_kernel_recurrence_forces_zero(self):
        # Coefficient form of both shifted lowering operators on the whole image:
        #   case 1: q^(n+k+2) image(n,k) = [n+k+2] a(n,k) - q [k] a(n,k-1)
        #   case 2:           image(n,k) = [n+k+2] a(n,k) - [n] a(n-1,k)
        # so a zero image forces a = 0 row by row (k = 0 first) and column by column.
        rng = random.Random(19)
        a = BiSeries.from_function(
            lambda n, k: QRat(rng.randint(-5, 5)) if (n < ORDERS and k < ORDERS) else QRat(0),
            ORDERS, ORDERS)

        def at(n: int, k: int) -> QRat:
            return a.coeff(n, k) if n >= 0 and k >= 0 else QRat(0)

        image = apply_op(lowering_op_i_shifted(), a)
        assert image.valid_region == (ORDERS, ORDERS - 1)
        for n, k, c in image.enumerate():
            assert q_power(n + k + 2) * c == (QRat(q_integer(n + k + 2)) * at(n, k)
                                              - q_power(1) * QRat(q_integer(k)) * at(n, k - 1)), (n, k)
        image = apply_op(lowering_op_ii_shifted(), a)
        assert image.valid_region == (ORDERS - 1, ORDERS)
        for n, k, c in image.enumerate():
            assert c == (QRat(q_integer(n + k + 2)) * at(n, k)
                         - QRat(q_integer(n)) * at(n - 1, k)), (n, k)

    def test_shifted_lowering_injective_on_truncations(self):
        rng = random.Random(21)
        for _ in range(6):
            raw = BiSeries.from_function(
                lambda n, k: QRat(rng.randint(-5, 5)) if (n < ORDERS and k < ORDERS) else QRat(0),
                ORDERS, ORDERS)
            if raw.is_zero():
                continue
            for op in (lowering_op_i_shifted(), lowering_op_ii_shifted()):
                assert not apply_op(op, raw).is_zero()


class TestOpAlgebra:
    def test_identity_op(self):
        s = _random_series(22)
        assert apply_op(IDENTITY, s).agrees_with(s)

    def test_scalar_arithmetic(self):
        s = _random_series(24)
        op = 2 * IDENTITY - IDENTITY
        assert apply_op(op, s).agrees_with(s)
        assert apply_op(-IDENTITY, s).agrees_with(s.scale(-1))

    @pytest.mark.parametrize("build, expected", [
        (lambda op: 1 - op, lambda s, t: s - t),
        (lambda op: op - 1, lambda s, t: t - s),
        (lambda op: 2 + op, lambda s, t: s.scale(2) + t),
        (lambda op: q_power(1) * op, lambda s, t: t.scale(q_power(1))),
        (lambda op: op * QPoly((1, 1)),
         lambda s, t: q_partial(lambda_scale(s.scale(QPoly((1, 1))), "y"), "x")),
        (lambda op: -op, lambda s, t: -t),
    ], ids=["rsub", "sub", "radd", "rmul", "mul", "neg"])
    def test_scalar_coercions(self, build, expected):
        s = _random_series(25, ints_only=False)
        got = apply_op(build(PARTIAL_X * LAMBDA_Y), s)
        want = expected(s, q_partial(lambda_scale(s, "y"), "x"))
        assert got.valid_region == want.valid_region == (ORDERS - 1, ORDERS)
        assert got.first_discrepancy(want) is None

    def test_unsupported_operands(self):
        with pytest.raises(TypeError):
            PARTIAL_X + "x"
        with pytest.raises(TypeError):
            "x" * PARTIAL_X

    def test_exhaustion_through_composition(self):
        s = BiSeries.from_function(lambda n, k: QRat(1), 1, 1)
        with pytest.raises(TruncationError):
            apply_op(PARTIAL_X * PARTIAL_X, s)
