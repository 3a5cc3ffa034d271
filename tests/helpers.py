"""Shared test oracles: brute-force chain enumeration, independent of the
c suffix recursion under test (a and b are computed as one-block c sums)."""

from __future__ import annotations

import random
from typing import Iterator

from qharmonic.exactq import QPoly, QRat, q_binomial, q_integer, q_power
from qharmonic.multiindex import MultiIndex


def chains(head: int, length: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing non-negative tuples of the given length from head."""
    if length == 1:
        yield (head,)
        return
    for nxt in range(head + 1):
        for rest in chains(nxt, length - 1):
            yield (head,) + rest


def brute_a(mu: MultiIndex, n: int) -> QRat:
    total = QRat(0)
    for chain in chains(n, len(mu)):
        exp = sum((m - 1) * (c + 1) for m, c in zip(mu, chain))
        den = QPoly.one()
        for m, c in zip(mu, chain):
            den = den * q_integer(c + 1) ** m
        total = total + QRat(QPoly.monomial(1, exp), den)
    return total


def brute_b(mu: MultiIndex, n: int) -> QRat:
    total = QRat(0)
    for chain in chains(n, len(mu)):
        exp = sum(c + 1 for c in chain[1:])
        den = QPoly.one()
        for m, c in zip(mu, chain):
            den = den * q_integer(c + 1) ** m
        total = total + QRat(QPoly.monomial(1, exp), den)
    return total


def brute_c(mu: MultiIndex, nu: MultiIndex, n: int, k: int) -> QRat:
    assert mu.weight == nu.weight
    i_labels: list[int] = []
    for label, size in enumerate(mu):
        i_labels.extend([label] * size)
    j_labels: list[int] = []
    for label, size in enumerate(nu):
        j_labels.extend([label] * size)
    total = QRat(0)
    for nchain in chains(n, len(mu)):
        for kchain in chains(k, len(nu)):
            exp = (sum((m - 1) * (c + 1) for m, c in zip(mu, nchain))
                   + sum(kchain[1:]))
            den = QPoly.one()
            for il, jl in zip(i_labels, j_labels):
                den = den * q_integer(nchain[il] + kchain[jl] + 1)
            total = total + QRat(QPoly.monomial(1, exp), den)
    return total / QRat(q_binomial(n + k, n))


def random_qrat(rng: random.Random, max_deg: int = 2, bound: int = 4) -> QRat:
    num = QPoly([rng.randint(-bound, bound) for _ in range(max_deg + 1)])
    den = QPoly.zero()
    while den.is_zero:
        den = QPoly([rng.randint(-bound, bound) for _ in range(max_deg + 1)])
    return QRat(num, den)
