"""Every public index, order and exponent is checked alike.

A value that is not an int raises ``ValueError("<name> must be an integer, got
<repr>")`` and one below the argument's bound ``ValueError("<name> must be >=
<low>, got <value>")``, naming the argument, never a ``TypeError`` from deeper
down.  exactq's helper gives these texts everywhere but in ``direct``, which
keeps its own copy of the check.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from qharmonic import direct
from qharmonic.exactq import QPoly, QRat, QRAT_ONE, q_binomial, q_factorial, q_integer, q_power
from qharmonic.harmonic import a_seq, a_value, b_value, c_value, delta_qk_closed, delta_qk_table
from qharmonic.multiindex import MultiIndex, enumerate_by_weight, subset_decode
from qharmonic.qseries import (
    BiSeries,
    F_a_series,
    G_series,
    diag_q_integer,
    f_a_series,
    lambda_scale,
    q_exp,
    qshift_product,
)
from qharmonic.verify import CampaignConfig, run_campaign

MU, NU = MultiIndex((1, 2)), MultiIndex((2, 1))
SEQ = a_seq(MU)
SERIES = BiSeries.from_function(lambda n, k: QRAT_ONE, 2, 2)
Q0 = Fraction(2)

# (argument name, lower bound or None, the call with that argument set to v)
ENTRY_POINTS = [
    pytest.param("n", 0, lambda v: q_integer(v), id="q_integer"),
    pytest.param("n", 0, lambda v: q_factorial(v), id="q_factorial"),
    pytest.param("n", 0, lambda v: q_binomial(v, 0), id="q_binomial-n"),
    pytest.param("k", None, lambda v: q_binomial(3, v), id="q_binomial-k"),
    pytest.param("e", None, lambda v: q_power(v), id="q_power"),
    pytest.param("power", 0, lambda v: QPoly.monomial(1, v), id="QPoly.monomial"),
    pytest.param("n", 0, lambda v: QPoly((1, 1)) ** v, id="QPoly.__pow__"),
    pytest.param("n", None, lambda v: QRat(1, q_integer(2)) ** v, id="QRat.__pow__"),
    pytest.param("n", 0, lambda v: a_value(MU, v), id="a_value"),
    pytest.param("n", 0, lambda v: b_value(MU, v), id="b_value"),
    pytest.param("n", 0, lambda v: c_value(MU, NU, v, 0), id="c_value-n"),
    pytest.param("k", 0, lambda v: c_value(MU, NU, 0, v), id="c_value-k"),
    pytest.param("n", 0, lambda v: SEQ(v), id="QSeq"),
    pytest.param("n_max", 0, lambda v: delta_qk_table(SEQ, v, 1), id="delta_qk_table-n_max"),
    pytest.param("k_max", 0, lambda v: delta_qk_table(SEQ, 1, v), id="delta_qk_table-k_max"),
    pytest.param("n", 0, lambda v: delta_qk_closed(SEQ, v, 1), id="delta_qk_closed-n"),
    pytest.param("k", 0, lambda v: delta_qk_closed(SEQ, 1, v), id="delta_qk_closed-k"),
    pytest.param("m", 1, lambda v: subset_decode(v, ()), id="subset_decode"),
    pytest.param("m", 1, lambda v: enumerate_by_weight(v), id="enumerate_by_weight"),
    pytest.param("valid_x", 0, lambda v: BiSeries.from_function(lambda n, k: 0, v, 1),
                 id="BiSeries.from_function-x"),
    pytest.param("valid_y", 0, lambda v: BiSeries.from_function(lambda n, k: 0, 1, v),
                 id="BiSeries.from_function-y"),
    pytest.param("valid_x", 0, lambda v: BiSeries.zero(v, 1), id="BiSeries.zero"),
    pytest.param("valid_x", 0, lambda v: SERIES.restrict(v, 1), id="BiSeries.restrict-x"),
    pytest.param("valid_y", 0, lambda v: SERIES.restrict(1, v), id="BiSeries.restrict-y"),
    pytest.param("first", 1, lambda v: qshift_product(v, 2, 2, 2), id="qshift_product-first"),
    pytest.param("last", None, lambda v: qshift_product(1, v, 2, 2), id="qshift_product-last"),
    pytest.param("valid_y", 0, lambda v: qshift_product(1, 2, 2, v), id="qshift_product-valid_y"),
    pytest.param("valid_x", 0, lambda v: q_exp(v, 2), id="q_exp"),
    pytest.param("sign", None, lambda v: lambda_scale(SERIES, "x", v), id="lambda_scale"),
    pytest.param("offset", 0, lambda v: diag_q_integer(v), id="diag_q_integer"),
    pytest.param("valid_x", 0, lambda v: f_a_series(SEQ, v, 2), id="f_a_series-x"),
    pytest.param("valid_y", 0, lambda v: f_a_series(SEQ, 2, v), id="f_a_series-y"),
    pytest.param("valid_y", 0, lambda v: F_a_series(SEQ, 2, v), id="F_a_series"),
    pytest.param("valid_x", 0, lambda v: G_series(MU, NU, v, 2), id="G_series-x"),
    pytest.param("valid_y", 0, lambda v: G_series(MU, NU, 2, v), id="G_series-y"),
    pytest.param("max_weight", 1, lambda v: CampaignConfig(max_weight=v).validate(),
                 id="CampaignConfig-max_weight"),
    pytest.param("max_n", 0, lambda v: CampaignConfig(max_n=v).validate(),
                 id="CampaignConfig-max_n"),
    pytest.param("max_k", 0, lambda v: CampaignConfig(max_k=v).validate(),
                 id="CampaignConfig-max_k"),
    pytest.param("series_orders", 1, lambda v: CampaignConfig(series_orders=v).validate(),
                 id="CampaignConfig-series_orders"),
    pytest.param("series_max_weight", 1,
                 lambda v: CampaignConfig(series_max_weight=v).validate(),
                 id="CampaignConfig-series_max_weight"),
    pytest.param("parallelism", 1, lambda v: CampaignConfig(parallelism=v).validate(),
                 id="CampaignConfig-parallelism"),
    pytest.param("max_weight", 1, lambda v: run_campaign(CampaignConfig(max_weight=v)),
                 id="run_campaign"),
    pytest.param("n", 0, lambda v: direct.a_at(MU, v, Q0), id="direct.a_at"),
    pytest.param("n", 0, lambda v: direct.b_at(MU, v, Q0), id="direct.b_at"),
    pytest.param("n", 0, lambda v: direct.c_at(MU, NU, v, 0, Q0), id="direct.c_at-n"),
    pytest.param("k", 0, lambda v: direct.c_at(MU, NU, 0, v, Q0), id="direct.c_at-k"),
    pytest.param("n", 0, lambda v: direct.delta_closed_a_at(MU, v, 1, Q0),
                 id="direct.delta_closed_a_at-n"),
    pytest.param("k", 0, lambda v: direct.delta_closed_a_at(MU, 1, v, Q0),
                 id="direct.delta_closed_a_at-k"),
    pytest.param("n", 0, lambda v: direct.q_binomial_at(v, 0, Q0), id="direct.q_binomial_at-n"),
    pytest.param("k", 0, lambda v: direct.q_binomial_at(3, v, Q0), id="direct.q_binomial_at-k"),
]
BOUNDED = [entry for entry in ENTRY_POINTS if entry.values[1] is not None]


@pytest.mark.parametrize("bad", [2.0, Fraction(1, 2), "2"], ids=["float", "Fraction", "str"])
@pytest.mark.parametrize("name, low, call", ENTRY_POINTS)
def test_non_integer_is_rejected_by_name(name, low, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("name, low, call", BOUNDED)
def test_value_below_the_bound_is_rejected_by_name(name, low, call):
    with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        call(low - 1)
