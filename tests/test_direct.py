"""The direct evaluation route: input checks and independence from Q(q)."""

from __future__ import annotations

import ast
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from qharmonic import direct
from qharmonic.exactq import PoleError
from qharmonic.multiindex import MultiIndex, enumerate_by_weight

Q0 = Fraction(2)
MU = (1, 1)
NU = (2,)


@pytest.mark.parametrize("call, message", [
    (lambda: direct.a_at(MU, -1, Q0), "n must be >= 0, got -1"),
    (lambda: direct.b_at(MU, -1, Q0), "n must be >= 0, got -1"),
    (lambda: direct.c_at(MU, NU, -1, 0, Q0), "n must be >= 0, got -1"),
    (lambda: direct.c_at(MU, NU, 0, -1, Q0), "k must be >= 0, got -1"),
    (lambda: direct.delta_closed_a_at(MU, -1, 2, Q0), "n must be >= 0, got -1"),
    (lambda: direct.delta_closed_a_at(MU, 0, -1, Q0), "k must be >= 0, got -1"),
    (lambda: direct.a_at(MU, 1.0, Q0), "n must be an integer, got 1.0"),
    (lambda: direct.c_at(MU, NU, 1.5, 0, Q0), "n must be an integer, got 1.5"),
    (lambda: direct.delta_closed_a_at(MU, 0, 2.0, Q0), "k must be an integer, got 2.0"),
    (lambda: direct.q_binomial_at(2.0, 1, Q0), "n must be an integer, got 2.0"),
], ids=["a_at", "b_at", "c_at-n", "c_at-k", "delta_closed_a_at-n", "delta_closed_a_at-k",
        "a_at-float", "c_at-float", "delta_closed_a_at-float", "q_binomial_at-float"])
def test_negative_index_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _multiindex_message(parts) -> str:
    with pytest.raises(ValueError) as exc:
        MultiIndex(parts)
    return str(exc.value)


@pytest.mark.parametrize("parts", [(), (0, 2), (-1, 3), (1.5,), (1, "2")],
                         ids=["empty", "zero", "negative", "float", "str"])
@pytest.mark.parametrize("call", [
    lambda parts: direct.a_at(parts, 2, Q0),
    lambda parts: direct.b_at(parts, 2, Q0),
    lambda parts: direct.c_at(parts, (2,), 1, 1, Q0),
    lambda parts: direct.c_at((2,), parts, 1, 1, Q0),
], ids=["a_at", "b_at", "c_at-mu", "c_at-nu"])
def test_bad_multiindex_is_rejected_in_multiindex_words(call, parts):
    # the symbolic route refuses these through MultiIndex; direct says the same
    with pytest.raises(ValueError) as exc:
        call(parts)
    assert str(exc.value) == _multiindex_message(parts)


def test_integral_float_parts_count_as_integers():
    # MultiIndex takes 2.0 as 2, so the direct route gives the same exact value
    for got, want in [(direct.a_at((2.0, 1), 2, Q0), direct.a_at((2, 1), 2, Q0)),
                      (direct.b_at((1, 2.0), 2, Q0), direct.b_at((1, 2), 2, Q0)),
                      (direct.c_at((2.0,), (1.0, 1), 1, 1, Q0),
                       direct.c_at((2,), (1, 1), 1, 1, Q0))]:
        assert type(got) is Fraction and got == want


def test_imports_only_stdlib_and_two_kernel_names():
    # The cross-check route must not reach harmonic, qseries or verify.
    tree = ast.parse(Path(direct.__file__).read_text(encoding="utf-8"))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            ok = all(alias.name.split(".")[0] in sys.stdlib_module_names for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            ok = ((node.level, node.module) == (1, "exactq")
                  and {alias.name for alias in node.names} <= {"PoleError", "Scalar"})
        elif isinstance(node, ast.ImportFrom):
            ok = node.module.split(".")[0] in sys.stdlib_module_names
        else:
            continue
        if not ok:
            outside.append(ast.unparse(node))
    assert not outside, outside


def test_unused_vanishing_q_integer_is_not_a_pole():
    # [2]_q vanishes at q = -1; a_(1)(2) = 1/[3]_q never divides by it, a_(1)(1) does.
    assert direct.a_at((1,), 2, -1) == 1
    assert direct.b_at((1,), 2, -1) == 1
    with pytest.raises(PoleError, match=r"\[2\]_q vanishes at q = -1"):
        direct.a_at((1,), 1, -1)
    with pytest.raises(PoleError, match=r"\[2\]_q vanishes at q = -1"):
        direct.c_at((1,), (1,), 1, 0, -1)


# --- differential test against the Fraction loops the integer sums replaced ---
#
# The reference below sums one Fraction per chain term, as the direct route
# did before its chain sums moved to integers over a running lcm; both must
# give the same value, or raise the same PoleError, everywhere.

def _ref_q_ints(top: int, q0: Fraction) -> list[Fraction]:
    out, p = [Fraction(0)], Fraction(1)
    for _ in range(top):
        out.append(out[-1] + p)
        p *= q0
    return out


def _ref_nonzero(q_ints: list[Fraction], j: int, q0: Fraction) -> Fraction:
    if not q_ints[j]:
        raise PoleError(f"[{j}]_q vanishes at q = {q0}")
    return q_ints[j]


def _ref_chains(head: int, length: int):
    for tail in combinations_with_replacement(range(head + 1), length - 1):
        yield (head,) + tail[::-1]


def _ref_chain_sum(mu, n, q0, exponent) -> Fraction:
    q_ints = _ref_q_ints(n + 1, q0)
    total = Fraction(0)
    for chain in _ref_chains(n, len(mu)):
        den = Fraction(1)
        for m, c in zip(mu, chain):
            den *= _ref_nonzero(q_ints, c + 1, q0) ** m
        total += q0 ** exponent(mu, chain) / den
    return total


def _ref_a(mu, n, q0) -> Fraction:
    return _ref_chain_sum(mu, n, q0, lambda mu, chain: sum((m - 1) * (c + 1)
                                                           for m, c in zip(mu, chain)))


def _ref_b(mu, n, q0) -> Fraction:
    return _ref_chain_sum(mu, n, q0, lambda mu, chain: sum(c + 1 for c in chain[1:]))


def _ref_c(mu, nu, n, k, q0) -> Fraction:
    i_labels = [label for label, size in enumerate(mu) for _ in range(size)]
    j_labels = [label for label, size in enumerate(nu) for _ in range(size)]
    pref = direct.q_binomial_at(n + k, n, q0)  # unchanged, still over Fractions
    if pref == 0:
        raise PoleError(f"[{n + k} choose {n}]_q vanishes at q = {q0}")
    q_ints = _ref_q_ints(n + k + 1, q0)
    total = Fraction(0)
    for nchain in _ref_chains(n, len(mu)):
        n_exp = sum((m - 1) * (c + 1) for m, c in zip(mu, nchain))
        for kchain in _ref_chains(k, len(nu)):
            den = Fraction(1)
            for il, jl in zip(i_labels, j_labels):
                den *= _ref_nonzero(q_ints, nchain[il] + kchain[jl] + 1, q0)
            total += q0 ** (n_exp + sum(kchain[1:])) / den
    return total / pref


def _ref_delta_closed_a(mu, n, k, q0) -> Fraction:
    total = Fraction(0)
    for i in range(k + 1):
        sign = -1 if i & 1 else 1
        total += (sign * q0 ** (i * (i + 1) // 2) * direct.q_binomial_at(k, i, q0)
                  * _ref_a(mu, n + i, q0))
    return total


def _outcome(fn, args):
    # the value, or the text of the PoleError raised instead
    try:
        value = fn(*args)
    except PoleError as exc:
        return "pole", str(exc)
    assert type(value) is Fraction
    return "value", value


_rng = random.Random(5)
DIFF_POINTS = [Fraction(0), Fraction(2, 3), Fraction(5), Fraction(-2), Fraction(-7, 3),
               Fraction(1, 9), Fraction(3)] + [
    Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(2)]
DIFF_INDICES = [tuple(mu) for weight in range(1, 6) for mu in enumerate_by_weight(weight)]


def _cases(q0):
    # (new function, reference function, arguments) for every value compared at q0
    for mu in DIFF_INDICES:
        dual = tuple(MultiIndex(mu).dual())
        for n in range(4):
            yield direct.a_at, _ref_a, (mu, n, q0)
            yield direct.b_at, _ref_b, (mu, n, q0)
            for k in range(4):
                yield direct.c_at, _ref_c, (mu, dual, n, k, q0)
                yield direct.delta_closed_a_at, _ref_delta_closed_a, (mu, n, k, q0)


@pytest.mark.parametrize("q0", DIFF_POINTS, ids=str)
def test_integer_chain_sums_match_the_fraction_loops(q0):
    mismatches = [(new.__name__, args) for new, ref, args in _cases(q0)
                  if _outcome(new, args) != _outcome(ref, args)]
    assert not mismatches, mismatches[:5]


def test_pole_outcomes_match_the_fraction_loops():
    # at q = -1 every even q-integer vanishes: the same values, and the same
    # first vanishing q-integer named, wherever one is met
    outcomes = [(_outcome(new, args), _outcome(ref, args))
                for new, ref, args in _cases(Fraction(-1))]
    assert all(new == ref for new, ref in outcomes)
    poles = sum(new[0] == "pole" for new, _ in outcomes)
    assert 0 < poles < len(outcomes)


@pytest.mark.parametrize("q0", [Fraction(0), Fraction(-1), Fraction(2, 3), Fraction(5),
                                Fraction(-2)], ids=str)
def test_binomial_row_matches_q_binomial_at(q0):
    # the closed difference reads [k choose i]_q for every i from one row, and
    # each entry is the binomial q_binomial_at builds on its own
    for k in range(9):
        row = direct._q_binomial_row(k, k, q0)
        assert row == [direct.q_binomial_at(k, i, q0) for i in range(k + 1)], k
        for mu in ((2,), (1, 2)):
            args = (mu, 0, k, q0)
            assert _outcome(direct.delta_closed_a_at, args) == _outcome(_ref_delta_closed_a,
                                                                         args), args
