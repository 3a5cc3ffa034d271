"""Independent Fraction oracle for the chain sums a, b, c and q-differences.

Nothing here imports qharmonic.  Every value is a plain ``Fraction`` at a
rational point q0, obtained by enumerating the defining chains outright:

* a_mu(n): chains n = n_1 >= ... >= n_p >= 0, weight
  prod q^((mu_t - 1)(n_t + 1)) / [n_t + 1]^mu_t;
* b_mu(n): the same chains, weight q^((n_2+1) + ... + (n_p+1)) / prod [n_t + 1]^mu_t;
* c_{mu,nu}(n, k): a chain for mu headed by n and one for nu headed by k,
  weight q^(sum (mu_t - 1)(n_t + 1) + k_2 + ... + k_r) over the fused
  denominator prod_s [n_{i_s} + k_{j_s} + 1], divided by [n+k choose n]_q.

The k-th q-difference is built by iterating first differences
s(n) - q^i s(n+1), i = 1..k, never through the closed binomial sum, so it is a
second route to the same number.  Polynomials (for the canonical-form check)
are lists of Fractions, lowest degree first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, Sequence


def q_int(m: int, q0: Fraction) -> Fraction:
    """[m]_q at q0."""
    return sum((q0 ** e for e in range(m)), Fraction(0))


def gauss_binomial(n: int, k: int, q0: Fraction) -> Fraction:
    """[n choose k]_q at q0 from the product formula."""
    out = Fraction(1)
    for i in range(1, k + 1):
        out = out * q_int(n - k + i, q0) / q_int(i, q0)
    return out


def chains(head: int, length: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples of the given length that start at head."""
    for rest in combinations_with_replacement(range(head, -1, -1), length - 1):
        yield (head,) + rest


def labels(mu: Sequence[int]) -> list[int]:
    """Block label of every unit of weight: label t repeated mu_t times."""
    return [t for t, part in enumerate(mu) for _ in range(part)]


def dual(mu: Sequence[int]) -> tuple[int, ...]:
    """The dual index: complement the partial-sum set inside {1, ..., |mu| - 1}."""
    weight = sum(mu)
    cuts, acc = set(), 0
    for part in mu[:-1]:
        acc += part
        cuts.add(acc)
    bounds = [0] + [s for s in range(1, weight) if s not in cuts] + [weight]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def a_at(mu: Sequence[int], n: int, q0: Fraction) -> Fraction:
    total = Fraction(0)
    for ch in chains(n, len(mu)):
        term = Fraction(1)
        for part, v in zip(mu, ch):
            term *= q0 ** ((part - 1) * (v + 1)) / q_int(v + 1, q0) ** part
        total += term
    return total


def b_at(mu: Sequence[int], n: int, q0: Fraction) -> Fraction:
    total = Fraction(0)
    for ch in chains(n, len(mu)):
        term = q0 ** sum(v + 1 for v in ch[1:])
        for part, v in zip(mu, ch):
            term /= q_int(v + 1, q0) ** part
        total += term
    return total


def c_at(mu: Sequence[int], nu: Sequence[int], n: int, k: int, q0: Fraction) -> Fraction:
    if sum(mu) != sum(nu):
        raise ValueError("c needs two indices of equal weight")
    fused = list(zip(labels(mu), labels(nu)))
    total = Fraction(0)
    for nch in chains(n, len(mu)):
        n_exp = sum((part - 1) * (v + 1) for part, v in zip(mu, nch))
        for kch in chains(k, len(nu)):
            term = q0 ** (n_exp + sum(kch[1:]))
            for i, j in fused:
                term /= q_int(nch[i] + kch[j] + 1, q0)
            total += term
    return total / gauss_binomial(n + k, n, q0)


def delta_a_at(mu: Sequence[int], n: int, k: int, q0: Fraction) -> Fraction:
    """k-th q-difference of a_mu at n by k iterated first differences."""
    values = [a_at(mu, n + j, q0) for j in range(k + 1)]
    for i in range(1, k + 1):
        z = q0 ** i
        values = [values[j] - z * values[j + 1] for j in range(len(values) - 1)]
    return values[0]


# --- canonical form ------------------------------------------------------------

def _strip(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _monic_remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b over Q, made monic (b must be monic and nonzero)."""
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db:
        lead = r[-1]
        shift = len(r) - 1 - db
        for i, c in enumerate(b):
            r[shift + i] -= lead * c
        _strip(r)
    if r:
        lead = r[-1]
        r = [c / lead for c in r]
    return r


def gcd_degree(a: Sequence[Fraction], b: Sequence[Fraction]) -> int:
    """Degree of gcd(a, b) in Q[q] by Euclid with monic remainders."""
    u = _strip([Fraction(c) for c in a])
    v = _strip([Fraction(c) for c in b])
    if not u or not v:
        raise ValueError("gcd_degree needs two nonzero polynomials")
    v = [c / v[-1] for c in v]
    while v:
        u, v = v, _monic_remainder(u, v)
    return len(u) - 1


def is_canonical(num: Sequence[Fraction], den: Sequence[Fraction]) -> bool:
    """Monic denominator, and numerator and denominator coprime (zero is 0/1)."""
    if not den or den[-1] != 1:
        return False
    if not num:
        return list(den) == [1]
    return gcd_degree(num, den) == 0


def evaluate(coeffs: Sequence[Fraction], q0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q0 + c
    return acc


def self_test() -> list[str]:
    """Check the oracle against hand values; returns the failed checks."""
    failed = []
    for q0 in (Fraction(2, 3), Fraction(5), Fraction(-2), Fraction(7, 4)):
        for n in range(6):
            if a_at((1,), n, q0) != 1 / q_int(n + 1, q0):
                failed.append(f"a_(1)({n}) != 1/[{n + 1}] at q = {q0}")
        # a_(1,1)(1) = 1/[2] (1 + 1/[2]) = (2 + q) / (1 + q)^2
        if a_at((1, 1), 1, q0) != (2 + q0) / (1 + q0) ** 2:
            failed.append(f"a_(1,1)(1) != (2+q)/(1+q)^2 at q = {q0}")
    if a_at((1, 1), 1, Fraction(2, 3)) != Fraction(24, 25):
        failed.append("a_(1,1)(1) != 24/25 at q = 2/3")
    if dual((2, 2)) != (1, 2, 1) or dual((1, 2, 1)) != (2, 2):
        failed.append("dual(2,2) != (1,2,1)")
    # (1 + q)^2 and (1 + q)(2 + q) share the factor 1 + q; q + 2 and q^2 + 1 do not.
    if gcd_degree([1, 2, 1], [2, 3, 1]) != 1 or gcd_degree([2, 1], [1, 0, 1]) != 0:
        failed.append("Euclid over Fraction gives a wrong gcd degree")
    return failed
