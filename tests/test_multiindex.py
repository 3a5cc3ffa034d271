"""Multi-index combinatorics: subset coding, duals, reduction, enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qharmonic.harmonic import c_value
from qharmonic.multiindex import (
    MultiIndex,
    enumerate_by_weight,
    parse_multiindex,
    subset_decode,
)


def test_construction_validation():
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((1, 0))
    with pytest.raises(ValueError):
        MultiIndex((-2,))


def test_weight_and_length():
    mu = MultiIndex((3, 1, 2))
    assert mu.weight == 6
    assert len(mu) == 3


def test_subset_encode_examples():
    assert MultiIndex((3,)).subset_encode() == frozenset()
    assert MultiIndex((1, 2)).subset_encode() == frozenset({1})
    assert MultiIndex((1, 1, 1)).subset_encode() == frozenset({1, 2})


def test_subset_decode_examples():
    assert subset_decode(3, {2}) == MultiIndex((2, 1))
    assert subset_decode(1, set()) == MultiIndex((1,))
    assert subset_decode(4, {1, 2, 3}) == MultiIndex((1, 1, 1, 1))


def test_subset_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        subset_decode(3, {3})
    with pytest.raises(ValueError):
        subset_decode(3, {0})


def test_subset_decode_elements_follow_the_parts_rule():
    # an element must equal its int, as a multi-index part must
    assert subset_decode(3, [2.0]) == MultiIndex((2, 1))
    for bad, text in ((1.5, "1.5"), ("2", "'2'")):
        with pytest.raises(ValueError, match=f"^subset elements must be integers: {text}$"):
            subset_decode(3, [bad])


def test_dual_examples():
    assert MultiIndex((2, 2)).dual() == MultiIndex((1, 2, 1))
    assert MultiIndex((1, 1, 2)).dual() == MultiIndex((3, 1))
    assert MultiIndex((4,)).dual() == MultiIndex((1, 1, 1, 1))
    assert MultiIndex((1,)).dual() == MultiIndex((1,))


def test_minus_reduce_examples():
    assert MultiIndex((3, 1)).minus_reduce() == MultiIndex((2, 1))
    assert MultiIndex((1, 2)).minus_reduce() == MultiIndex((2,))
    assert MultiIndex((2,)).minus_reduce() == MultiIndex((1,))
    with pytest.raises(ValueError):
        MultiIndex((1,)).minus_reduce()


def test_enumerate_by_weight_examples():
    assert enumerate_by_weight(1) == [MultiIndex((1,))]
    assert enumerate_by_weight(2) == [MultiIndex((2,)), MultiIndex((1, 1))]
    assert enumerate_by_weight(3) == [
        MultiIndex((3,)), MultiIndex((1, 2)), MultiIndex((2, 1)), MultiIndex((1, 1, 1))]


def test_enumerate_by_weight_counts():
    for m in range(1, 9):
        all_mu = enumerate_by_weight(m)
        assert len(all_mu) == 2 ** (m - 1)
        assert len(set(all_mu)) == len(all_mu)
        assert all(mu.weight == m for mu in all_mu)


def test_duality_properties_through_weight_8():
    for m in range(1, 9):
        for mu in enumerate_by_weight(m):
            dual = mu.dual()
            assert dual.dual() == mu
            assert dual.weight == mu.weight
            assert (len(mu) - 1) + (len(dual) - 1) == mu.weight - 1
            if m >= 2:
                assert mu.minus_reduce().dual() == dual.minus_reduce()
            assert subset_decode(m, mu.subset_encode()) == mu


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5))
def test_roundtrip_random(parts):
    mu = MultiIndex(parts)
    assert subset_decode(mu.weight, mu.subset_encode()) == mu
    assert mu.dual().dual() == mu


def test_parse_multiindex():
    assert parse_multiindex("2,1,3") == MultiIndex((2, 1, 3))
    assert parse_multiindex(" 4 ") == MultiIndex((4,))
    assert parse_multiindex("2,1,3").as_text() == "2,1,3"
    for bad in ("", ",", "1,,2", "0", "-1,2", "a,b", "1.5"):
        with pytest.raises(ValueError):
            parse_multiindex(bad)


def test_construction_rejects_non_integral_parts():
    for parts, bad in (([1.5], "1.5"), ([2.9, 1], "2.9"), ([1, "2"], "'2'")):
        with pytest.raises(ValueError, match=f"integers: {bad}$"):
            MultiIndex(parts)
    assert MultiIndex([2.0, 1]) == MultiIndex((2, 1))
    mu = MultiIndex((1, 2))
    assert MultiIndex(mu) is mu
    with pytest.raises(ValueError, match="integers: 1.5$"):
        c_value((1.5,), (1.5,), 0, 0)
    with pytest.raises(ValueError, match="malformed multi-index text: '1.5'"):
        parse_multiindex("1.5")
