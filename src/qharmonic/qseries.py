"""Truncated bivariate series in the q-divided-power basis and their operators.

A ``BiSeries`` stores the coefficient array a(n, k) of a series written as

    sum a(n, k) * X^n Y^k / ([n]_q! [k]_q!)

for 0 <= n <= valid_x, 0 <= k <= valid_y.  In this basis the q-partial
derivatives are plain index shifts and the dilations X -> qX, Y -> qY are
diagonal scalings, so every operator identity verified here is a finite exact
statement about arrays of QRat values.

Valid-order tracking is strict: a q-partial or a multiplication by a variable
consumes one order on its axis, dilations and scalars preserve orders, sums and
comparisons restrict to the intersection of valid regions.  Truncation can
therefore never masquerade as equality.

``SeriesOp`` is the one operator type: it holds a function from series to
series.  Operators multiply as compositions (right factor applied first), add
pointwise, and admit scalar multiples from Q(q), which lets the package spell
composite operators the way the identities state them, e.g.
``q * PARTIAL_X * LAMBDA_Y + PARTIAL_Y - 1``.

``F_a_series`` stays on the closed difference form, and one private generator
expands the shifted products behind both ``qshift_product`` and ``f_a_series``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator

from .exactq import (QPoly, QRat, QRAT_ONE, QRAT_ZERO, Scalar, _require_index, _require_rat,
                     q_factorial, q_integer, q_power, q_binomial)
from .harmonic import QSeq, c_value, delta_qk_closed
from .multiindex import MultiIndex

AxisName = str  # "x" or "y"


class TruncationError(ValueError):
    """An operation needed more valid orders than the series carries."""


def _axis_step(axis: AxisName) -> tuple[int, int]:
    """The index step (dn, dk) of one order along the axis."""
    a = axis.lower()
    if a not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return (1, 0) if a == "x" else (0, 1)


def _consume_order(s: BiSeries, axis: AxisName) -> tuple[int, int, int, int]:
    """Axis step (dn, dk) and the valid region left after one order on the axis."""
    dn, dk = _axis_step(axis)
    if s.valid_region[dk] < 1:
        raise TruncationError(f"no valid orders left on axis {'XY'[dk]}")
    return dn, dk, s.valid_x - dn, s.valid_y - dk


class BiSeries:
    """Coefficient array of a truncated bivariate series, divided-power basis."""

    __slots__ = ("_rows", "_vx", "_vy")

    def __init__(self, rows) -> None:
        self._rows: tuple[tuple[QRat, ...], ...] = tuple(
            tuple(_require_rat(c) for c in row) for row in rows
        )
        vx = len(self._rows) - 1
        if vx < 0:
            raise ValueError("a series needs at least the (0,0) coefficient")
        widths = {len(r) for r in self._rows}
        if len(widths) != 1:
            raise ValueError("ragged coefficient rows")
        vy = widths.pop() - 1
        if vy < 0:
            raise ValueError("a series needs at least the (0,0) coefficient")
        self._vx, self._vy = vx, vy

    @classmethod
    def from_function(cls, fn: Callable[[int, int], QRat | Scalar],
                      valid_x: int, valid_y: int) -> BiSeries:
        _require_index(0, valid_x=valid_x, valid_y=valid_y)
        return cls(tuple(tuple(fn(n, k) for k in range(valid_y + 1))
                         for n in range(valid_x + 1)))

    @classmethod
    def zero(cls, valid_x: int, valid_y: int) -> BiSeries:
        return cls.from_function(lambda n, k: QRAT_ZERO, valid_x, valid_y)

    @property
    def valid_x(self) -> int:
        return self._vx

    @property
    def valid_y(self) -> int:
        return self._vy

    @property
    def valid_region(self) -> tuple[int, int]:
        return (self._vx, self._vy)

    def coeff(self, n: int, k: int) -> QRat:
        if not (0 <= n <= self._vx and 0 <= k <= self._vy):
            raise IndexError(f"({n},{k}) outside valid region {self.valid_region}")
        return self._rows[n][k]

    def enumerate(self) -> Iterator[tuple[int, int, QRat]]:
        for n, row in enumerate(self._rows):
            for k, c in enumerate(row):
                yield n, k, c

    def restrict(self, valid_x: int, valid_y: int) -> BiSeries:
        _require_index(0, valid_x=valid_x, valid_y=valid_y)
        if valid_x > self._vx or valid_y > self._vy:
            raise TruncationError("cannot enlarge a valid region")
        return BiSeries(tuple(row[: valid_y + 1] for row in self._rows[: valid_x + 1]))

    def is_zero(self) -> bool:
        return all(c.is_zero for _, _, c in self.enumerate())

    def scale(self, factor: QRat | QPoly | Scalar) -> BiSeries:
        f = _require_rat(factor)
        return BiSeries(tuple(tuple(f * c for c in row) for row in self._rows))

    def __neg__(self) -> BiSeries:
        return BiSeries(tuple(tuple(-c for c in row) for row in self._rows))

    def __add__(self, other: BiSeries) -> BiSeries:
        if not isinstance(other, BiSeries):
            return NotImplemented
        vx = min(self._vx, other._vx)
        vy = min(self._vy, other._vy)
        return BiSeries(tuple(
            tuple(self._rows[n][k] + other._rows[n][k] for k in range(vy + 1))
            for n in range(vx + 1)
        ))

    def __sub__(self, other: BiSeries) -> BiSeries:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self + (-other)

    def agrees_with(self, other: BiSeries) -> bool:
        """Equality over the intersection of the two valid regions."""
        return self.first_discrepancy(other) is None

    def first_discrepancy(self, other: BiSeries) -> tuple[int, int, QRat] | None:
        """Smallest (n, k) where the series differ on the common region, with the difference."""
        for n in range(min(self._vx, other._vx) + 1):
            for k in range(min(self._vy, other._vy) + 1):
                d = self._rows[n][k] - other._rows[n][k]
                if not d.is_zero:
                    return n, k, d
        return None

    def __repr__(self) -> str:
        return f"BiSeries(valid_x={self._vx}, valid_y={self._vy})"


# --- primitive series operations ---------------------------------------------

def q_partial(s: BiSeries, axis: AxisName) -> BiSeries:
    """q-partial derivative: an index shift along the axis, one order consumed."""
    dn, dk, vx, vy = _consume_order(s, axis)
    return BiSeries.from_function(lambda n, k: s.coeff(n + dn, k + dk), vx, vy)


def lambda_scale(s: BiSeries, axis: AxisName, sign: int = 1) -> BiSeries:
    """Dilation X -> qX (or Y -> qY): multiply a(n, k) by q^(+-n) (resp. q^(+-k))."""
    _, dk = _axis_step(axis)
    _require_index(None, sign=sign)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return BiSeries.from_function(lambda n, k: q_power(sign * (n, k)[dk]) * s.coeff(n, k),
                                  s.valid_x, s.valid_y)


def mul_by_var(s: BiSeries, axis: AxisName) -> BiSeries:
    """Multiply by X or Y: a'(n,k) = [n]_q a(n-1,k); one order consumed on the axis."""
    dn, dk, vx, vy = _consume_order(s, axis)
    return BiSeries.from_function(
        lambda n, k: (s.coeff(n - dn, k - dk) * q_integer((n, k)[dk])
                      if (n, k)[dk] >= 1 else QRAT_ZERO),
        vx, vy)


def series_mul(s: BiSeries, t: BiSeries) -> BiSeries:
    """Product of two series; Gaussian-binomial convolution in this basis."""
    vx = min(s.valid_x, t.valid_x)
    vy = min(s.valid_y, t.valid_y)

    def prod_coeff(n: int, k: int) -> QRat:
        acc = QRAT_ZERO
        for i in range(n + 1):
            for j in range(k + 1):
                a = s.coeff(i, j)
                if a.is_zero:
                    continue
                b = t.coeff(n - i, k - j)
                if b.is_zero:
                    continue
                acc = acc + a * (q_binomial(n, i) * q_binomial(k, j)) * b
        return acc

    return BiSeries.from_function(prod_coeff, vx, vy)


# --- generating functions ------------------------------------------------------

def q_exp(valid_x: int, valid_y: int) -> BiSeries:
    """The q-exponential e(Y): every pure-Y divided-power coefficient is 1."""
    return BiSeries.from_function(lambda n, k: QRAT_ONE if n == 0 else QRAT_ZERO,
                                  valid_x, valid_y)


def _shift_products(first: int, last: int) -> Iterator[dict[tuple[int, int], QRat]]:
    """(X - q^first Y)...(X - q^j Y) for j = first-1, ..., last, starting from the
    empty product 1, each as a map (i, j) -> coefficient of X^i Y^j."""
    coeffs: dict[tuple[int, int], QRat] = {(0, 0): QRAT_ONE}
    yield coeffs
    for j in range(first, last + 1):
        nxt: dict[tuple[int, int], QRat] = {}
        qj = q_power(j)
        for (i, jj), c in coeffs.items():
            nxt[(i + 1, jj)] = nxt.get((i + 1, jj), QRAT_ZERO) + c
            nxt[(i, jj + 1)] = nxt.get((i, jj + 1), QRAT_ZERO) - qj * c
        coeffs = nxt
        yield coeffs


def qshift_product(first: int, last: int, valid_x: int, valid_y: int) -> BiSeries:
    """The polynomial (X - q^first Y)(X - q^(first+1) Y) ... (X - q^last Y).

    Polynomials are exact, so any requested valid region is fully known.
    ``last < first`` gives the empty product 1.
    """
    _require_index(1, first=first)
    _require_index(None, last=last)
    *_, coeffs = _shift_products(first, last)

    def coeff(n: int, k: int) -> QRat:
        mono = coeffs.get((n, k))
        if mono is None:
            return QRAT_ZERO
        return mono * q_factorial(n) * q_factorial(k)

    return BiSeries.from_function(coeff, valid_x, valid_y)


def f_a_series(seq: QSeq, valid_x: int, valid_y: int) -> BiSeries:
    """The series sum_n seq(n) (X - qY)...(X - q^n Y) / [n]_q!.

    Each product is expanded in the monomial basis and converted to
    divided-power coefficients; the n-th is homogeneous of degree n, so none
    past n = valid_x + valid_y touches the region and the truncation is exact.
    """
    _require_index(0, valid_x=valid_x, valid_y=valid_y)
    rows = [[QRAT_ZERO] * (valid_y + 1) for _ in range(valid_x + 1)]
    for n, coeffs in enumerate(_shift_products(1, valid_x + valid_y)):
        an = seq(n)
        if an.is_zero:
            continue
        weight = an / q_factorial(n)
        for (i, jj), c in coeffs.items():
            if i <= valid_x and jj <= valid_y and not c.is_zero:
                rows[i][jj] = rows[i][jj] + weight * (c * q_factorial(i) * q_factorial(jj))
    return BiSeries(rows)


def F_a_series(seq: QSeq, valid_x: int, valid_y: int) -> BiSeries:
    """Generating series of all q-differences of seq: a(n,k) = k-th difference at n.

    Closed form on purpose: from the recurrence, prop240's residual check could not fail.
    """
    return BiSeries.from_function(lambda n, k: delta_qk_closed(seq, n, k),
                                  valid_x, valid_y)


def G_series(mu: MultiIndex, nu: MultiIndex, valid_x: int, valid_y: int) -> BiSeries:
    """Generating series of the double-chain sums: a(n,k) = c_value(mu, nu, n, k)."""
    return BiSeries.from_function(lambda n, k: c_value(mu, nu, n, k),
                                  valid_x, valid_y)


# --- the operator algebra -------------------------------------------------------

_SCALARS = (int, Fraction, QPoly, QRat)


class SeriesOp:
    """Linear operator on BiSeries, held as one function ``apply``.

    ``A * B`` composes (B first), ``A + B`` adds pointwise, scalars from Q(q)
    multiply from either side, and scalars coerce to scalar multiples of the
    identity so expressions like ``op - 1`` read as in the identities.  Each
    operation returns a new operator whose function closes over its operands.
    """

    __slots__ = ("apply",)

    def __init__(self, apply: Callable[[BiSeries], BiSeries]) -> None:
        self.apply = apply

    def __mul__(self, other) -> SeriesOp:
        other = _as_op(other)
        if other is None:
            return NotImplemented
        f, g = self.apply, other.apply
        return SeriesOp(lambda s: f(g(s)))

    def __rmul__(self, other) -> SeriesOp:
        other = _as_op(other)
        return NotImplemented if other is None else other * self

    def __add__(self, other) -> SeriesOp:
        other = _as_op(other)
        if other is None:
            return NotImplemented
        f, g = self.apply, other.apply
        return SeriesOp(lambda s: f(s) + g(s))

    __radd__ = __add__

    def __sub__(self, other) -> SeriesOp:
        # A scalar is negated before it becomes an operator: op - c is one scalar pass.
        return self + (-other) if isinstance(other, (SeriesOp, *_SCALARS)) else NotImplemented

    def __rsub__(self, other) -> SeriesOp:
        return (-self) + other if isinstance(other, _SCALARS) else NotImplemented

    def __neg__(self) -> SeriesOp:
        f = self.apply
        return SeriesOp(lambda s: -f(s))


def _as_op(x) -> SeriesOp | None:
    if isinstance(x, SeriesOp):
        return x
    return scalar_op(x) if isinstance(x, _SCALARS) else None


def scalar_op(value: QRat | QPoly | Scalar) -> SeriesOp:
    """Multiplication by a constant of Q(q)."""
    factor = _require_rat(value)
    return SeriesOp(lambda s: s.scale(factor))


def diag_q_integer(offset: int) -> SeriesOp:
    """Diagonal a(n,k) -> [n+k+offset]_q a(n,k).

    This is the exact array form of (1 - q^offset Lambda_X Lambda_Y) / (1 - q):
    no division by the polynomial 1 - q ever happens at the array level.
    """
    _require_index(0, offset=offset)
    return SeriesOp(lambda s: BiSeries.from_function(
        lambda n, k: s.coeff(n, k) * q_integer(n + k + offset), s.valid_x, s.valid_y))


IDENTITY = scalar_op(QRAT_ONE)
PARTIAL_X = SeriesOp(lambda s: q_partial(s, "x"))
PARTIAL_Y = SeriesOp(lambda s: q_partial(s, "y"))
LAMBDA_X = SeriesOp(lambda s: lambda_scale(s, "x"))
LAMBDA_Y = SeriesOp(lambda s: lambda_scale(s, "y"))
LAMBDA_X_INV = SeriesOp(lambda s: lambda_scale(s, "x", -1))
LAMBDA_Y_INV = SeriesOp(lambda s: lambda_scale(s, "y", -1))
MUL_X = SeriesOp(lambda s: mul_by_var(s, "x"))
MUL_Y = SeriesOp(lambda s: mul_by_var(s, "y"))


def apply_op(op: SeriesOp, s: BiSeries) -> BiSeries:
    """Apply a composite operator, tracking the shrunk valid region."""
    return op.apply(s)


def q_commutator(a: SeriesOp, b: SeriesOp) -> SeriesOp:
    """[A, B]_q = A B - q B A."""
    return a * b - q_power(1) * (b * a)


def pde_operator() -> SeriesOp:
    """q dX LY + dY - 1: annihilates every difference-generating series."""
    return q_power(1) * PARTIAL_X * LAMBDA_Y + PARTIAL_Y - 1


def lowering_op_i() -> SeriesOp:
    """Sends G(mu, nu) to G of the reduced pair when mu starts >= 2 and nu with 1."""
    return q_power(-1) * LAMBDA_X_INV * LAMBDA_Y_INV * (diag_q_integer(1) - MUL_Y)


def lowering_op_ii() -> SeriesOp:
    """Sends G(mu, nu) to G of the reduced pair when mu starts with 1 and nu >= 2."""
    return diag_q_integer(1) - MUL_X


def lowering_op_i_shifted() -> SeriesOp:
    """The conjugate of lowering_op_i across the annihilating operator; injective."""
    return q_power(-2) * LAMBDA_X_INV * LAMBDA_Y_INV * (diag_q_integer(2) - q_power(1) * MUL_Y)


def lowering_op_ii_shifted() -> SeriesOp:
    """The conjugate of lowering_op_ii across the annihilating operator; injective."""
    return diag_q_integer(2) - MUL_X


def pde_residual(s: BiSeries) -> BiSeries:
    """Residual array q^(k+1) a(n+1,k) + a(n,k+1) - a(n,k) on the shrunk region."""
    return pde_operator().apply(s)
