"""The direct evaluation route: input checks and independence from Q(q)."""

from __future__ import annotations

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qharmonic import direct
from qharmonic.exactq import PoleError
from qharmonic.multiindex import MultiIndex

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
