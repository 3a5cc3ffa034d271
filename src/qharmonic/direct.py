"""Direct rational evaluation of the harmonic sums at a fixed q.

This is the cross-check route: every value is obtained by enumerating the
defining chains outright, never touching the symbolic Q(q) pipeline (no
polynomials, no polynomial gcd).  With q0 = p/s, s > 0, each q-integer is
[j]_q = I_j / s^(j-1) for an integer I_j, so every chain term is a quotient of
integers; a sum is held as one integer numerator over the running lcm of the
term denominators, and a single Fraction is built per value.  Gaussian
binomials come from the Pascal-type recurrence over Fractions, one row
[n choose 0..k]_q per call: the closed difference reads all its binomials from
one row, and c_at its prefactor.

A q-integer that vanishes at the chosen point (possible at roots of unity)
makes a needed denominator zero; that raises PoleError so callers can report
the instance as skipped rather than failed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, prod
from typing import Callable, Iterable, Iterator, Sequence

from .exactq import PoleError, Scalar


def q_binomial_at(n: int, k: int, q0: Fraction) -> Fraction:
    """Gaussian binomial at q0 via the Pascal-type recurrence (pole-free)."""
    _require_nonnegative(n=n, k=k)
    if k > n:
        raise ValueError(f"binomial index k={k} out of range for n={n}")
    return _q_binomial_row(n, k, q0)[k]


def _q_binomial_row(n: int, k: int, q0: Fraction) -> list[Fraction]:
    # [n choose j]_q at q0 for j = 0..k <= n, by the Pascal-type recurrence
    powers = [q0 ** j for j in range(k + 1)]
    row = [Fraction(1)] + [Fraction(0)] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = row[j - 1] + row[j] * powers[j]
    return row


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


def _scaled_q_ints(top: int, q0: Fraction) -> list[int]:
    # I_0, ..., I_top with [j]_q = I_j / s^(j-1) at q0 = p/s:
    # I_0 = 0 and I_j = s I_(j-1) + p^(j-1), so [j]_q vanishes exactly when I_j does.
    p, s = q0.numerator, q0.denominator
    out, power = [0], 1
    for _ in range(top):
        out.append(s * out[-1] + power)
        power *= p
    return out


def _pole(scaled: list[int], slots: Iterable[int], q0: Fraction) -> PoleError:
    # A vanishing [j]_q is a pole only where a denominator actually uses it;
    # the error names the first such j in slot order.
    j = next(j for j in slots if not scaled[j])
    return PoleError(f"[{j}]_q vanishes at q = {q0}")


def _lcm_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    # The sum of the integer quotients tn/td, held as num/den with den the
    # running lcm of the td (up to sign), so den grows with the distinct
    # factors and not with the number of terms.
    num, den = 0, 1
    for tn, td in terms:
        g = gcd(den, td)
        if g == td:
            num += tn * (den // td)
        else:
            f = td // g
            num = num * f + tn * (den // g)
            den *= f
    return Fraction(num, den)


def _chain_sum_at(mu: Sequence[int], n: int, q0: Scalar,
                  exponent: Callable[[tuple[int, ...], tuple[int, ...]], int]) -> Fraction:
    # The sum over the chains n >= c_1 >= ... >= c_r >= 0 of
    # q0^E / prod [c_i + 1]_q^mu_i, E = exponent(mu, chain), the one loop of a
    # and b; a term is p^E s^(sum mu_i c_i) / (s^E prod I_(c_i+1)^mu_i).
    mu = _require_parts(mu)
    _require_nonnegative(n=n)
    q0 = Fraction(q0)
    p, s = q0.numerator, q0.denominator
    scaled = _scaled_q_ints(n + 1, q0)

    def terms() -> Iterator[tuple[int, int]]:
        for chain in _chains(n, len(mu)):
            e = exponent(mu, chain)
            den = s ** e * prod(scaled[c + 1] ** m for m, c in zip(mu, chain))
            if not den:
                raise _pole(scaled, (c + 1 for c in chain), q0)
            yield p ** e * s ** sum(m * c for m, c in zip(mu, chain)), den

    return _lcm_sum(terms())


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
    pref = _q_binomial_row(n + k, n, q0)[n]
    if pref == 0:
        raise PoleError(f"[{n + k} choose {n}]_q vanishes at q = {q0}")
    p, s = q0.numerator, q0.denominator
    scaled = _scaled_q_ints(n + k + 1, q0)
    # each k-chain's exponent and its value in every fused slot, walked once per n-chain
    kchains = [(sum(kchain[1:]), [kchain[jl] for jl in j_labels])
               for kchain in _chains(k, len(nu))]

    def terms() -> Iterator[tuple[int, int]]:
        # slot j contributes 1/[j]_q = s^(j-1) / I_j
        for nchain in _chains(n, len(mu)):
            n_exp = sum((m - 1) * (c + 1) for m, c in zip(mu, nchain))
            n_slots = [nchain[il] for il in i_labels]
            for k_exp, k_slots in kchains:
                e = n_exp + k_exp
                slots = [a + b + 1 for a, b in zip(n_slots, k_slots)]
                den = s ** e * prod(scaled[j] for j in slots)
                if not den:
                    raise _pole(scaled, slots, q0)
                yield p ** e * s ** (sum(slots) - len(slots)), den

    return _lcm_sum(terms()) / pref


def delta_closed_a_at(mu: Sequence[int], n: int, k: int, q0: Scalar) -> Fraction:
    """k-th q-difference of a_mu at n, via the alternating binomial sum at q = q0."""
    _require_nonnegative(n=n, k=k)
    q0 = Fraction(q0)
    total = Fraction(0)
    for i, binomial in enumerate(_q_binomial_row(k, k, q0)):
        sign = -1 if i & 1 else 1
        total += sign * q0 ** (i * (i + 1) // 2) * binomial * a_at(mu, n + i, q0)
    return total
