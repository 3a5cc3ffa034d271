"""Finite multiple harmonic q-sums and the q-difference calculus on sequences.

The three families computed here are nested sums over weakly decreasing chains
of non-negative integers:

* ``a_value(mu, n)``   — chains n = n_1 >= ... >= n_p >= 0, each block t
  contributing q^((mu_t - 1)(n_t + 1)) / [n_t + 1]^mu_t;
* ``b_value(mu, n)``   — same chains, numerator q^((n_2+1) + ... + (n_p+1));
* ``c_value(mu, nu, n, k)`` — a double chain (one for mu, one for nu) whose
  denominator fuses the two chains through the block expansions of mu and nu,
  scaled by the inverse Gaussian binomial [n+k choose n]_q.

Chains are never enumerated outright.  c is one suffix recursion over the
slot walk of (mu, nu), each run of slots between block boundaries contributing
one power of its fused factor, memoized on (run, remaining steps, n-value,
k-value); the key names neither mu nor nu, so pairs whose walks end alike share
entries.  At a boundary the sum over the lower chain values is a running 2-D
sum held in the same memo, so a state costs O(1) additions, not O(nk).  The
suffixes are filled shortest first, so the recursion stays a few calls deep
whatever the weight, n and k are.  a and b are c sums against a one-block
partner index, so they share that memo.

The q-differences of a sequence have one iterated route, ``delta_qk_table``,
which fills a whole (n, k) table by the first difference, beside the closed
Gaussian-binomial sum ``delta_qk_closed``.

All results are canonical QRat values; repeated calls return identical objects
via the caches, which are transparent to results.
"""

from __future__ import annotations

import functools
from typing import Callable

from .exactq import (
    QPoly,
    QRat,
    QRAT_ZERO,
    Scalar,
    _require_index,
    _require_rat,
    q_binomial,
    q_integer,
    q_power,
)
from .multiindex import MultiIndex


class QSeq:
    """A sequence of canonical QRat values with memoized evaluation."""

    __slots__ = ("_value",)

    def __init__(self, fn: Callable[[int], QRat]) -> None:
        self._value = functools.cache(lambda n: _require_rat(fn(n)))

    def __call__(self, n: int) -> QRat:
        _require_index(0, n=n)
        return self._value(n)

    @classmethod
    def from_values(cls, values, tail: QRat | Scalar = 0) -> QSeq:
        """Sequence given by an explicit prefix, constant `tail` afterwards."""
        prefix = [_require_rat(v) for v in values]
        tail_value = _require_rat(tail)
        return cls(lambda n: prefix[n] if n < len(prefix) else tail_value)


# --- the a and b families ---------------------------------------------------
#
# A one-block index has a constant chain, so c collapses onto a and b:
# c_{mu,(m)}(n, 0) = a_mu(n) and c_{(m),mu}(0, n) = q^(m-p) b_mu(n), with
# m = |mu| and p = len(mu).

def a_value(mu: MultiIndex, n: int) -> QRat:
    """The finite multiple harmonic q-sum a_mu(n), exact in Q(q)."""
    mu = MultiIndex(mu)
    return c_value(mu, MultiIndex((mu.weight,)), n, 0)


def b_value(mu: MultiIndex, n: int) -> QRat:
    """The companion sum b_mu(n), whose numerator shifts live on the inner blocks."""
    mu = MultiIndex(mu)
    _require_index(0, n=n)
    return q_power(len(mu) - mu.weight) * c_value(MultiIndex((mu.weight,)), mu, 0, n)


def a_seq(mu: MultiIndex) -> QSeq:
    mu = MultiIndex(mu)
    return QSeq(lambda n: a_value(mu, n))


# --- the double-chain family c ----------------------------------------------
#
# Slot s (1 <= s < m) is a block boundary of mu when s is a partial sum of mu,
# and likewise of nu.  Between boundaries the chain values stay fixed, so a run
# of slots contributes one power of its fused factor.  The slot walk of
# (mu, nu) is the head run's length plus one step (di, dj, part, run) per
# boundary: whether mu and nu open a block there, the opened mu block's size
# minus one, and the length of the run that follows.
#
# At a step the chain values drop to a2 <= a where mu opens a block and to
# b2 <= b where nu does, each (a2, b2) weighted
# w(a2, b2) = q^(part (a2+1) + dj b2) _c_suffix(next_run, rest, a2, b2).
# Run 0 holds that inner sum as a running 2-D sum,
#   P(a, b) = [di and a > 0] P(a-1, b) + R(a, b),
#   R(a, b) = [dj and b > 0] R(a, b-1) + w(a, b),
# the row sum R being P of the step with di cleared, so each state takes at
# most two additions and one product.  Each entry first requests its
# predecessors in ascending order, so no call recurses along a or b.  R is
# kept only where both open a block; elsewhere it is P itself or not carried.

@functools.cache
def _c_suffix(run: int, tail: tuple[tuple[int, int, int, int], ...], a: int, b: int) -> QRat:
    """A run of slots at n = a, k = b, contributing 1/[a+b+1]^run, then the steps of `tail`."""
    if run:
        factor = QRat(QPoly.one(), q_integer(a + b + 1) ** run)
        return factor * _c_suffix(0, tail, a, b) if tail else factor
    (di, dj, part, next_run), rest = tail[0], tail[1:]
    if di and dj:
        row = _c_suffix(0, ((0, 1, part, next_run),) + rest, a, b)
    else:
        e = part * (a + 1) + dj * b
        row = _c_suffix(next_run, rest, a, b)
        row = q_power(e) * row if e else row
        if dj and b:
            for b2 in range(b):
                up = _c_suffix(0, tail, a, b2)
            row = up + row
    if not (di and a):
        return row
    for a2 in range(a):
        left = _c_suffix(0, tail, a2, b)
    return left + row


def c_value(mu: MultiIndex, nu: MultiIndex, n: int, k: int) -> QRat:
    """The double-chain sum c_{mu,nu}(n, k); mu and nu must have equal weight."""
    _require_index(0, n=n, k=k)
    return _c_value(MultiIndex(mu), MultiIndex(nu), n, k)


@functools.cache
def _c_value(mu: MultiIndex, nu: MultiIndex, n: int, k: int) -> QRat:
    if mu.weight != nu.weight:
        raise ValueError(f"weight mismatch: |{mu.as_text()}| != |{nu.as_text()}|")
    opens = dict(zip(sorted(mu.subset_encode()), mu[1:]))  # slot -> mu block size
    nu_cuts = nu.subset_encode()
    bounds = sorted(opens.keys() | nu_cuts) + [mu.weight]
    steps = tuple((int(s in opens), int(s in nu_cuts), opens.get(s, 1) - 1, end - s)
                  for s, end in zip(bounds, bounds[1:]))
    # fill the suffixes shortest first, so each finds the next one in the memo
    # and the walk stays a few calls deep however many boundaries there are
    for i in range(len(steps) - 1, 0, -1):
        _c_suffix(0, steps[i:], n, k)
    prefactor = QRat(QPoly.one(), q_binomial(n + k, n))
    lead = q_power((mu[0] - 1) * (n + 1))
    return prefactor * lead * _c_suffix(bounds[0], steps, n, k)


c_value.cache_info = _c_value.cache_info  # read by the benchmark's tracer


# --- difference operators on sequences ---------------------------------------

def delta_qk_table(seq: QSeq, n_max: int, k_max: int) -> list[list[QRat]]:
    """rows[n][k] is the k-th q-difference of seq at n, for n <= n_max, k <= k_max.

    Reads seq(0..n_max+k_max) once, then fills column by column, without
    recursion, from the first difference d(n, k+1) = d(n, k) - q^(k+1) d(n+1, k).
    """
    _require_index(0, n_max=n_max, k_max=k_max)
    column = [seq(n) for n in range(n_max + k_max + 1)]
    rows = [[value] for value in column[: n_max + 1]]
    for k in range(k_max):
        z = q_power(k + 1)
        column = [column[n] - z * column[n + 1] for n in range(len(column) - 1)]
        for n, row in enumerate(rows):
            row.append(column[n])
    return rows


def delta_qk_closed(seq: QSeq, n: int, k: int) -> QRat:
    """k-th q-difference at n via the alternating Gaussian-binomial sum."""
    _require_index(0, n=n, k=k)
    total = QRAT_ZERO
    for i in range(k + 1):
        term = seq(n + i) * (q_power(i * (i + 1) // 2) * q_binomial(k, i))
        total = total - term if i & 1 else total + term
    return total
