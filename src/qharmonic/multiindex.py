"""Multi-indices and their combinatorics.

A multi-index is a nonempty finite sequence of positive integers.  Multi-indices
of weight m correspond bijectively to subsets of {1, ..., m-1} through their
partial sums; complementing that subset gives the dual index, which drives all
the identities this package verifies.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable

from .exactq import _require_index


class MultiIndex(tuple):
    """Immutable multi-index (mu_1, ..., mu_p) of positive integers."""

    def __new__(cls, parts: Iterable[int]) -> MultiIndex:
        if type(parts) is cls:  # immutable and already checked
            return parts
        parts = _integers(parts, "multi-index parts")
        if not parts:
            raise ValueError("a multi-index must have at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"multi-index parts must be positive: {parts}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def subset_encode(self) -> frozenset[int]:
        """Partial sums {mu_1, mu_1+mu_2, ...} minus the last; a subset of {1..m-1}."""
        return frozenset(accumulate(self[:-1]))

    def dual(self) -> MultiIndex:
        """Complement the partial-sum subset inside {1, ..., m-1}."""
        m = self.weight
        complement = set(range(1, m)) - self.subset_encode()
        return subset_decode(m, complement)

    def minus_reduce(self) -> MultiIndex:
        """Lower the first part by one, dropping it if it reaches zero."""
        if self.weight < 2:
            raise ValueError("reduction is undefined for weight-1 multi-indices")
        if self[0] >= 2:
            return MultiIndex((self[0] - 1,) + tuple(self[1:]))
        return MultiIndex(self[1:])

    def as_text(self) -> str:
        """Comma-separated textual form, e.g. '2,1,3'."""
        return ",".join(str(p) for p in self)

    def __repr__(self) -> str:
        return f"MultiIndex({', '.join(str(p) for p in self)})"


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    # the values as ints; each must equal its int, so 2.0 passes and 1.5 and "2" do not
    given = tuple(values)
    ints = tuple(int(v) for v in given)
    if ints != given:
        bad = next(g for g, i in zip(given, ints) if g != i)
        raise ValueError(f"{what} must be integers: {bad!r}")
    return ints


def subset_decode(m: int, subset: Iterable[int]) -> MultiIndex:
    """The unique multi-index of weight m whose partial-sum set is `subset`."""
    _require_index(1, m=m)
    cuts = sorted(set(_integers(subset, "subset elements")))
    if any(s < 1 or s > m - 1 for s in cuts):
        raise ValueError(f"subset elements must lie in 1..{m - 1}: {cuts}")
    bounds = [0] + cuts + [m]
    return MultiIndex(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


def enumerate_by_weight(m: int) -> list[MultiIndex]:
    """All 2^(m-1) multi-indices of weight m, ordered by subset bitmask.

    Bit i-1 of the mask marks membership of i in the partial-sum subset, so the
    order is deterministic and campaign reports are reproducible.
    """
    _require_index(1, m=m)
    out = []
    for mask in range(1 << (m - 1)):
        subset = [i + 1 for i in range(m - 1) if mask >> i & 1]
        out.append(subset_decode(m, subset))
    return out


def parse_multiindex(text: str) -> MultiIndex:
    """Parse '2,1,3' into a multi-index; rejects zeros, negatives, empties."""
    pieces = [p.strip() for p in text.split(",")]
    if not pieces or any(not p for p in pieces):
        raise ValueError(f"malformed multi-index text: {text!r}")
    try:
        parts = [int(p) for p in pieces]
    except ValueError:
        raise ValueError(f"malformed multi-index text: {text!r}") from None
    if any(p < 1 for p in parts):
        raise ValueError(f"multi-index parts must be positive: {text!r}")
    return MultiIndex(parts)
