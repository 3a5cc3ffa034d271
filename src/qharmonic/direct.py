"""Direct rational evaluation of the harmonic sums at a fixed q.

This is the cross-check route: every value is obtained by enumerating the
defining chains outright and summing plain Fractions, never touching the
symbolic Q(q) pipeline (no polynomials, no gcd).  Gaussian binomials are built
from the Pascal-type recurrence, again over Fractions only.

A q-integer that vanishes at the chosen point (possible at roots of unity)
makes a needed denominator zero; that raises PoleError so callers can report
the instance as skipped rather than failed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Sequence

from .exactq import PoleError, Scalar


def _q_ints_at(top: int, q0: Fraction) -> list[Fraction]:
    """[0]_q, [1]_q, ..., [top]_q at q = q0, each [j]_q = 1 + q0 + ... + q0^(j-1)."""
    out, p = [Fraction(0)], Fraction(1)
    for _ in range(top):
        out.append(out[-1] + p)
        p *= q0
    return out


def q_binomial_at(n: int, k: int, q0: Fraction) -> Fraction:
    """Gaussian binomial at q0 via the Pascal-type recurrence (pole-free)."""
    _require_nonnegative(n=n, k=k)
    if k > n:
        raise ValueError(f"binomial index k={k} out of range for n={n}")
    row = [Fraction(1)] + [Fraction(0)] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = row[j - 1] + row[j] * q0 ** j
    return row[k]


def _require_nonnegative(**values: int) -> None:
    # exactq's _require_index for low = 0, copied: this module imports no checks
    for name, value in values.items():
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _require_parts(mu: Sequence[int]) -> tuple[int, ...]:
    # MultiIndex's checks in its words, copied: this module imports no checks
    parts = tuple(int(m) for m in mu)
    for m, p in zip(mu, parts):
        if m != p:  # 2.0 passes as 2; 1.5 and "2" do not
            raise ValueError(f"multi-index parts must be integers: {m!r}")
    if not parts:
        raise ValueError("a multi-index must have at least one part")
    if any(p < 1 for p in parts):
        raise ValueError(f"multi-index parts must be positive: {parts}")
    return parts


def _chains(head: int, length: int) -> Iterator[tuple[int, ...]]:
    # All weakly decreasing tuples of the given length starting at head: each
    # weakly increasing tail from itertools, read backwards.
    for tail in combinations_with_replacement(range(head + 1), length - 1):
        yield (head,) + tail[::-1]


def _nonzero(q_ints: list[Fraction], j: int, q0: Fraction) -> Fraction:
    # A vanishing [j]_q is a pole only where a denominator actually uses it.
    if not q_ints[j]:
        raise PoleError(f"[{j}]_q vanishes at q = {q0}")
    return q_ints[j]


def _chain_sum_at(mu: Sequence[int], n: int, q0: Scalar,
                  exponent: Callable[[tuple[int, ...], tuple[int, ...]], int]) -> Fraction:
    # The sum over the chains n >= c_1 >= ... >= c_r >= 0 of
    # q0^exponent(mu, chain) / prod [c_i + 1]_q^mu_i, the one loop of a and b.
    mu = _require_parts(mu)
    _require_nonnegative(n=n)
    q0 = Fraction(q0)
    q_ints = _q_ints_at(n + 1, q0)
    total = Fraction(0)
    for chain in _chains(n, len(mu)):
        den = Fraction(1)
        for m, c in zip(mu, chain):
            den *= _nonzero(q_ints, c + 1, q0) ** m
        total += q0 ** exponent(mu, chain) / den
    return total


def a_at(mu: Sequence[int], n: int, q0: Scalar) -> Fraction:
    """a_mu(n) by full chain enumeration at q = q0."""
    return _chain_sum_at(mu, n, q0, lambda mu, chain: sum((m - 1) * (c + 1)
                                                          for m, c in zip(mu, chain)))


def b_at(mu: Sequence[int], n: int, q0: Scalar) -> Fraction:
    """b_mu(n) by full chain enumeration at q = q0."""
    return _chain_sum_at(mu, n, q0, lambda mu, chain: sum(c + 1 for c in chain[1:]))


def c_at(mu: Sequence[int], nu: Sequence[int], n: int, k: int, q0: Scalar) -> Fraction:
    """c_{mu,nu}(n, k) by enumerating both chains at q = q0."""
    q0 = Fraction(q0)
    mu, nu = _require_parts(mu), _require_parts(nu)
    if sum(mu) != sum(nu):
        raise ValueError("weight mismatch")
    _require_nonnegative(n=n, k=k)
    i_labels: list[int] = []
    for label, size in enumerate(mu):
        i_labels.extend([label] * size)
    j_labels: list[int] = []
    for label, size in enumerate(nu):
        j_labels.extend([label] * size)
    pref = q_binomial_at(n + k, n, q0)
    if pref == 0:
        raise PoleError(f"[{n + k} choose {n}]_q vanishes at q = {q0}")
    q_ints = _q_ints_at(n + k + 1, q0)
    total = Fraction(0)
    for nchain in _chains(n, len(mu)):
        n_exp = sum((m - 1) * (c + 1) for m, c in zip(mu, nchain))
        for kchain in _chains(k, len(nu)):
            exp = n_exp + sum(kchain[1:])
            den = Fraction(1)
            for il, jl in zip(i_labels, j_labels):
                den *= _nonzero(q_ints, nchain[il] + kchain[jl] + 1, q0)
            total += q0 ** exp / den
    return total / pref


def delta_closed_a_at(mu: Sequence[int], n: int, k: int, q0: Scalar) -> Fraction:
    """k-th q-difference of a_mu at n, via the alternating binomial sum at q = q0."""
    _require_nonnegative(n=n, k=k)
    q0 = Fraction(q0)
    total = Fraction(0)
    for i in range(k + 1):
        sign = -1 if i & 1 else 1
        total += sign * q0 ** (i * (i + 1) // 2) * q_binomial_at(k, i, q0) * a_at(mu, n + i, q0)
    return total
