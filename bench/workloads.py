"""The three campaign workloads, their expected record counts and their checks.

Every workload uses the eval points 2/3, 5 and -2.  The campaign's own random
inputs come from the seed 1729 fixed inside ``qharmonic.verify``; the
benchmark's ``--seed`` chooses which records the Fraction oracle re-checks and
one extra rational evaluation point.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from fractions import Fraction

import oracle

EVAL_POINTS = (Fraction(2, 3), Fraction(5), Fraction(-2))
SAMPLES = 6  # records re-checked against the oracle in each run

_BASE = {"max_weight": 5, "max_n": 4, "max_k": 4, "series_orders": 6, "series_max_weight": 4}

WORKLOADS = {
    "grid-w5": {**_BASE, "max_n": 2, "max_k": 2,
                "identities": ("duality", "main", "cor250"), "parallelism": 1},
    "series-ops": {**_BASE, "series_orders": 6, "series_max_weight": 1,
                   "identities": ("lemma360", "lemma370", "prop240", "cor250"),
                   "parallelism": 1},
    "pairs-par2": {**_BASE, "series_orders": 4, "series_max_weight": 3,
                   "identities": ("prop340", "prop350", "thm380"), "parallelism": 2},
}


def config_text(name: str, parallelism: int | None = None) -> str:
    cfg = dict(WORKLOADS[name])
    if parallelism is not None:
        cfg["parallelism"] = parallelism
    lines = [f"{key} = {value}" for key, value in cfg.items() if key != "identities"]
    lines.append("identities = " + ", ".join(cfg["identities"]))
    lines.append("eval_points = " + ", ".join(str(p) for p in EVAL_POINTS))
    return "\n".join(lines) + "\n"


def family(record: dict) -> str:
    """Record family; sampled-evaluation records are labelled main in the report."""
    if record["identity"] == "main" and record["params"].get("check") == "eval":
        return "eval"
    return record["identity"]


def expected_counts(name: str) -> Counter:
    """Records per family, by formula: 2^(w-1) multi-indices of weight w."""
    cfg = WORKLOADS[name]
    w_max, n, k = cfg["max_weight"], cfg["max_n"], cfg["max_k"]
    sw, ids = cfg["series_max_weight"], set(cfg["identities"])
    indices = lambda top: sum(2 ** (w - 1) for w in range(1, top + 1))  # noqa: E731
    out: Counter = Counter()
    if "duality" in ids:
        out["duality"] = indices(w_max) * (k + 1)
    if "main" in ids:
        out["main"] = indices(w_max) * (n + 1) * (k + 1)
        out["eval"] = indices(w_max) * len(EVAL_POINTS)
    # weight w has 2^(w-2) indices starting with 1 and 2^(w-2) starting >= 2
    if "prop340" in ids:
        out["prop340"] = sum(4 ** (w - 2) * ((n + 1) * k + n * (k + 1)) for w in range(2, sw + 1))
    if "prop350" in ids:
        out["prop350"] = sum(2 * 4 ** (w - 2) for w in range(2, sw + 1))
    if "thm380" in ids:
        out["thm380"] = indices(sw)
    # verify draws 10 random series for lemma360/370 and 5 random sequences
    # for prop240/cor250; lemma370 adds one recurrence record
    if "lemma360" in ids:
        out["lemma360"] = 2 * 10
    if "lemma370" in ids:
        out["lemma370"] = 1 + 2 * 10
    if "prop240" in ids:
        out["prop240"] = 2 * (5 + indices(min(3, sw)))
    if "cor250" in ids:
        out["cor250"] = 5 * (min(n + k, 6) + 1) ** 2
    return out


# --- oracle checks ---------------------------------------------------------------

def _candidates(name: str, records: list[dict]) -> list[tuple]:
    """(mu, nu, n, k) instances of this workload that the oracle may re-check."""
    orders = WORKLOADS[name]["series_orders"]
    if name == "grid-w5":
        return [(tuple(r["params"]["mu"]), oracle.dual(r["params"]["mu"]),
                 r["params"]["n"], r["params"]["k"])
                for r in records if family(r) == "main" and set(r["params"]) == {"mu", "n", "k"}]
    if name == "pairs-par2":
        return [(tuple(r["params"]["mu"]), tuple(r["params"]["nu"]),
                 r["params"]["n"], r["params"]["k"])
                for r in records if r["identity"] == "prop340"]
    mus = [tuple(r["params"]["mu"]) for r in records
           if r["identity"] == "prop240" and r["params"].get("kind") == "harmonic"
           and r["params"]["check"] == "product"]
    return [(mu, oracle.dual(mu), n, k)
            for mu in mus for n in range(orders + 1) for k in range(orders + 1)]


def _extra_point(rng: random.Random) -> Fraction:
    while True:
        q0 = Fraction(rng.choice([p for p in range(-9, 10) if p]), rng.randint(1, 9))
        if q0 not in (0, 1, -1):  # +-1 are the only rational roots of unity
            return q0


@functools.cache
def _f_series(mu, orders: int):
    from qharmonic import F_a_series, a_seq

    return F_a_series(a_seq(mu), orders, orders)


def _check_instance(name: str, mu, nu, n: int, k: int, points) -> list[str]:
    from qharmonic import G_series, a_seq, a_value, b_value, c_value, delta_qk_closed

    orders = WORKLOADS[name]["series_orders"]
    program = {
        "a": a_value(mu, n),
        "b": b_value(nu, k),
        "c": c_value(mu, nu, n, k),
        "delta": delta_qk_closed(a_seq(mu), n, k),
    }
    if name == "series-ops":
        program["F_a coefficient"] = _f_series(mu, orders).coeff(n, k)
    if name == "pairs-par2" and n <= orders and k <= orders:
        program["G coefficient"] = G_series(mu, nu, orders, orders).coeff(n, k)
    where = f"mu={mu} nu={nu} n={n} k={k}"
    failures = []
    for label, value in program.items():
        if not oracle.is_canonical(value.num.coeffs, value.den.coeffs):
            failures.append(f"{label} not canonical at {where}")
    for q0 in points:
        want = {
            "a": oracle.a_at(mu, n, q0),
            "b": oracle.b_at(nu, k, q0),
            "c": oracle.c_at(mu, nu, n, k, q0),
            "delta": oracle.delta_a_at(mu, n, k, q0),
        }
        want["F_a coefficient"] = want["delta"]
        want["G coefficient"] = want["c"]
        for label, value in program.items():
            got = oracle.evaluate(value.num.coeffs, q0) / oracle.evaluate(value.den.coeffs, q0)
            if got != want[label]:
                failures.append(f"{label} at {where}, q = {q0}: {got} != oracle {want[label]}")
    return failures


# --- negative controls: each compares two things that must differ ------------------

def _controls(name: str) -> dict[str, bool]:
    """Control name -> True when the wrong comparison does fail, as it must."""
    from qharmonic import (BiSeries, G_series, MultiIndex, a_seq, apply_op,
                           c_value, delta_qk_closed, f_a_series, lowering_op_i, series_mul)

    orders = WORKLOADS[name]["series_orders"]
    out = {}
    if name == "grid-w5":
        # difference formula with nu = mu instead of the dual index
        for mu, n, k in (((2, 1), 1, 1), ((3, 1, 1), 2, 1)):
            mu = MultiIndex(mu)
            diff = delta_qk_closed(a_seq(mu), n, k) - c_value(mu, mu, n, k)
            out[f"main with nu = mu = {mu.as_text()}, n={n}, k={k}"] = (
                mu != mu.dual() and not diff.is_zero)
    elif name == "series-ops":
        big_f = _f_series((1,), orders)
        small_f = f_a_series(a_seq((1,)), orders, orders)
        e_x = BiSeries.from_function(lambda i, j: 1 if j == 0 else 0, orders, orders)
        out["prop240 without e(Y)"] = big_f.first_discrepancy(small_f) is not None
        out["prop240 with e(X) for e(Y)"] = (
            big_f.first_discrepancy(series_mul(small_f, e_x)) is not None)
    else:
        # (1,2), (2,1) is a case-2 pair; lowering_op_i belongs to case 1
        mu, nu = MultiIndex((1, 2)), MultiIndex((2, 1))
        got = apply_op(lowering_op_i(), G_series(mu, nu, orders, orders))
        want = G_series(mu.minus_reduce(), nu.minus_reduce(), orders, orders)
        out["prop350 case-1 operator on a case-2 pair"] = got.first_discrepancy(want) is not None
    return out


def run_checks(name: str, records: list[dict], seed: int) -> dict:
    """Oracle self-test, seeded oracle sample and negative controls.

    Each is one operation; an operation fails when it reports any problem.
    """
    rng = random.Random(seed)
    points = EVAL_POINTS + (_extra_point(rng),)
    outcomes = [[f"oracle self-test: {f}" for f in oracle.self_test()]]
    for mu, nu, n, k in rng.sample(_candidates(name, records), SAMPLES):
        outcomes.append(_check_instance(name, mu, nu, n, k, points))
    for control, failed_as_it_must in _controls(name).items():
        outcomes.append([] if failed_as_it_must else [f"negative control did not fail: {control}"])
    return {"attempted": len(outcomes), "failed": sum(1 for o in outcomes if o),
            "failures": [f for o in outcomes for f in o], "extra_point": str(points[-1])}
