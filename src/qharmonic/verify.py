"""Verification campaigns over families of multi-indices, with JSON reports.

Each identity family is checked exactly, instance by instance; a failing record
always carries the nonzero difference as an exact witness (numerator and
denominator coefficient lists), so a red result is a reproducible counterexample
rather than a boolean.

Campaigns are deterministic: instances are generated in a fixed order, random
inputs come from seeds derived from a recorded base seed, and reports are
byte-identical across parallelism levels once timing fields are stripped.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from . import direct
from .exactq import PoleError, QPoly, QRat, q_integer, q_power
from .harmonic import QSeq, a_seq, b_value, c_value, delta_qk_closed, delta_z, nabla_q
from .multiindex import MultiIndex, enumerate_by_weight
from .qseries import (
    BiSeries,
    F_a_series,
    G_series,
    apply_op,
    f_a_series,
    lowering_op_i,
    lowering_op_i_shifted,
    lowering_op_ii,
    lowering_op_ii_shifted,
    pde_operator,
    pde_residual,
    q_exp,
    series_mul,
)

SCHEMA_VERSION = 1
DEFAULT_SEED = 1729

IDENTITY_TOKENS = (
    "duality",
    "main",
    "prop340",
    "prop350",
    "thm380",
    "lemma360",
    "lemma370",
    "prop240",
    "cor250",
)

DEFAULT_EVAL_POINTS = (Fraction(2, 3), Fraction(5), Fraction(-2))


@dataclass(frozen=True)
class CampaignConfig:
    """Ranges and switches for a verification campaign.

    Symbolic grids (duality, main, the scalar inductive relation) run up to
    max_weight; series-level checks run up to series_max_weight at
    series_orders in each variable, which keeps a full default run at desk
    scale.
    """

    max_weight: int = 5
    max_n: int = 4
    max_k: int = 4
    series_orders: int = 6
    series_max_weight: int = 4
    identities: tuple[str, ...] = IDENTITY_TOKENS
    eval_points: tuple[Fraction, ...] = DEFAULT_EVAL_POINTS
    parallelism: int = 1

    def validate(self) -> None:
        if self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        if self.max_n < 0 or self.max_k < 0:
            raise ValueError("max_n and max_k must be >= 0")
        if self.series_orders < 1:
            raise ValueError("series_orders must be >= 1")
        if self.series_max_weight < 1:
            raise ValueError("series_max_weight must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        bad = [t for t in self.identities if t not in IDENTITY_TOKENS]
        if bad:
            raise ValueError(f"unknown identities: {bad}")
        if not self.identities:
            raise ValueError("no identities selected")
        for p in self.eval_points:
            if p in (0, 1):
                raise ValueError("eval points must avoid q = 0 and q = 1")

    def to_dict(self) -> dict:
        return {
            "max_weight": self.max_weight,
            "max_n": self.max_n,
            "max_k": self.max_k,
            "series_orders": self.series_orders,
            "series_max_weight": self.series_max_weight,
            "identities": list(self.identities),
            "eval_points": [str(p) for p in self.eval_points],
            "parallelism": self.parallelism,
        }


def parse_config_text(text: str) -> CampaignConfig:
    """Parse the flat key/value campaign config format."""
    values: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        elif ":" in line:
            key, _, val = line.partition(":")
        else:
            raise ValueError(f"malformed config line: {raw!r}")
        key = key.strip()
        val = val.strip()
        if key in ("max_weight", "max_n", "max_k", "series_orders",
                   "series_max_weight", "parallelism"):
            values[key] = int(val)
        elif key == "identities":
            values[key] = tuple(t.strip() for t in val.split(",") if t.strip())
        elif key == "eval_points":
            values[key] = tuple(Fraction(t.strip()) for t in val.split(",") if t.strip())
        else:
            raise ValueError(f"unknown config key: {key!r}")
    config = replace(CampaignConfig(), **values)
    config.validate()
    return config


@dataclass
class Record:
    """One verified instance: parameters, outcome, exact witness when failing."""

    identity: str
    params: dict
    status: str  # "pass" | "fail" | "skip"
    witness: dict | None = None
    valid_region: list | None = None
    wall_ms: float = 0.0

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "valid_region": self.valid_region,
        }
        if include_timing:
            out["wall_ms"] = round(self.wall_ms, 3)
        return out


def witness_from_qrat(diff: QRat) -> dict:
    return {
        "num_coeffs": [str(c) for c in diff.num.coeffs],
        "den_coeffs": [str(c) for c in diff.den.coeffs],
    }


def qrat_from_witness(witness: dict) -> QRat:
    num = QPoly([Fraction(c) for c in witness["num_coeffs"]])
    den = QPoly([Fraction(c) for c in witness["den_coeffs"]])
    return QRat(num, den)


class VerificationReport:
    """Ordered collection of records plus campaign metadata."""

    def __init__(self, config: CampaignConfig | None = None,
                 seed: int = DEFAULT_SEED) -> None:
        self.records: list[Record] = []
        self.config = config
        self.seed = seed

    def add(self, record: Record) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[Record]) -> None:
        self.records.extend(records)

    @property
    def all_passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    @property
    def counts(self) -> dict:
        out = {"total": len(self.records), "pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def failures(self) -> list[Record]:
        return [r for r in self.records if r.status == "fail"]

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "random_seed": self.seed,
            "config": self.config.to_dict() if self.config else None,
            "summary": self.counts,
            "records": [r.to_dict(include_timing) for r in self.records],
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def _qrat_record(identity: str, params: dict, lhs: QRat, rhs: QRat,
                 started: float) -> Record:
    diff = lhs - rhs
    ok = diff.is_zero
    return Record(
        identity=identity,
        params=params,
        status="pass" if ok else "fail",
        witness=None if ok else witness_from_qrat(diff),
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )


def _series_record(identity: str, params: dict, got: BiSeries, want: BiSeries,
                   started: float) -> Record:
    vx = min(got.valid_x, want.valid_x)
    vy = min(got.valid_y, want.valid_y)
    disc = got.first_discrepancy(want)
    params = dict(params)
    if disc is not None:
        params["first_discrepancy_at"] = [disc[0], disc[1]]
    return Record(
        identity=identity,
        params=params,
        status="pass" if disc is None else "fail",
        witness=None if disc is None else witness_from_qrat(disc[2]),
        valid_region=[vx, vy],
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )


def _zero_series_record(identity: str, params: dict, got: BiSeries,
                        started: float) -> Record:
    return _series_record(identity, params,
                          got, BiSeries.zero(got.valid_x, got.valid_y), started)


# --- identity drivers ---------------------------------------------------------


def verify_main_identity(mu: MultiIndex, n_max: int, k_max: int) -> VerificationReport:
    """Difference formula: the k-th q-difference of a_mu at n equals c_{mu,mu*}(n,k).

    Both the closed alternating-sum form and the iterated first-difference form
    of the left side are exercised on every grid point.
    """
    mu = MultiIndex(mu)
    dual = mu.dual()
    seq = a_seq(mu)
    iterated = [seq]
    for i in range(1, k_max + 1):
        iterated.append(delta_z(iterated[-1], q_power(i)))
    report = VerificationReport()
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            started = time.perf_counter()
            closed = delta_qk_closed(seq, n, k)
            rhs = c_value(mu, dual, n, k)
            params = {"mu": list(mu), "n": n, "k": k}
            rec = _qrat_record("main", params, closed, rhs, started)
            if rec.status == "pass":
                stepped = iterated[k](n)
                if stepped != closed:
                    rec = Record("main", {**params, "check": "iterated_vs_closed"},
                                 "fail", witness_from_qrat(stepped - closed))
            rec.wall_ms = (time.perf_counter() - started) * 1000.0  # includes the iterated check
            report.add(rec)
    return report


def verify_duality(mu: MultiIndex, k_max: int) -> VerificationReport:
    """Duality: the alternating binomial transform of a_mu equals b at the dual index."""
    mu = MultiIndex(mu)
    dual = mu.dual()
    seq = a_seq(mu)
    report = VerificationReport()
    for k in range(k_max + 1):
        started = time.perf_counter()
        lhs = nabla_q(seq, k)
        rhs = b_value(dual, k)
        report.add(_qrat_record("duality", {"mu": list(mu), "k": k}, lhs, rhs, started))
    return report


def _inductive_case(mu: MultiIndex, nu: MultiIndex) -> int:
    if mu.weight != nu.weight:
        raise ValueError("weight mismatch")
    if mu.weight < 2:
        raise ValueError("the inductive relations need weight >= 2")
    if mu[0] >= 2 and nu[0] == 1:
        return 1
    if mu[0] == 1 and nu[0] >= 2:
        return 2
    raise ValueError(
        f"neither case applies to mu={mu.as_text()}, nu={nu.as_text()}: "
        "need (mu_1 >= 2, nu_1 = 1) or (mu_1 = 1, nu_1 >= 2)")


def verify_inductive_relations(mu: MultiIndex, nu: MultiIndex, n_max: int, k_max: int,
                               series_orders: int | None = None,
                               include_scalar: bool = True,
                               include_series: bool = True) -> VerificationReport:
    """The two-term relations lowering (mu, nu) to their reduced pair.

    Scalar form on the (n, k) grid, and its generating-function form: the
    matching lowering operator applied to G(mu, nu) agrees with G of the
    reduced pair on the shrunk valid region.
    """
    mu = MultiIndex(mu)
    nu = MultiIndex(nu)
    case = _inductive_case(mu, nu)
    rmu, rnu = mu.minus_reduce(), nu.minus_reduce()
    report = VerificationReport()
    if include_scalar:
        for n in range(n_max + 1):
            # case 1 references c(n, k-1), case 2 references c(n-1, k); the
            # undefined boundary instances are outside the relation's domain.
            for k in range(k_max + 1):
                if (case == 1 and k < 1) or (case == 2 and n < 1):
                    continue
                started = time.perf_counter()
                bracket = QRat(q_integer(n + k + 1)) * c_value(mu, nu, n, k)
                if case == 1:
                    bracket = bracket - QRat(q_integer(k)) * c_value(mu, nu, n, k - 1)
                    lhs = q_power(-n - k - 1) * bracket
                else:
                    lhs = bracket - QRat(q_integer(n)) * c_value(mu, nu, n - 1, k)
                rhs = c_value(rmu, rnu, n, k)
                params = {"mu": list(mu), "nu": list(nu), "case": case, "n": n, "k": k}
                report.add(_qrat_record("prop340", params, lhs, rhs, started))
    if include_series:
        orders = series_orders if series_orders is not None else 5
        started = time.perf_counter()
        G = G_series(mu, nu, orders, orders)
        op = lowering_op_i() if case == 1 else lowering_op_ii()
        got = apply_op(op, G)
        want = G_series(rmu, rnu, orders, orders)
        params = {"mu": list(mu), "nu": list(nu), "case": case, "orders": orders}
        report.add(_series_record("prop350", params, got, want, started))
    return report


def verify_pde_annihilation(mu: MultiIndex, orders: int) -> VerificationReport:
    """The annihilating operator sends G(mu, mu*) to the zero array."""
    mu = MultiIndex(mu)
    started = time.perf_counter()
    G = G_series(mu, mu.dual(), orders, orders)
    report = VerificationReport()
    report.add(_zero_series_record(
        "thm380", {"mu": list(mu), "orders": orders}, pde_residual(G), started))
    return report


def _random_series(rng: random.Random, vx: int, vy: int) -> BiSeries:
    return BiSeries.from_function(lambda n, k: QRat(rng.randint(-5, 5)), vx, vy)


def _random_seq(rng: random.Random, length: int) -> QSeq:
    return QSeq.from_values([QRat(rng.randint(-5, 5)) for _ in range(length)])


def verify_operator_conjugations(orders: int, seed: int, count: int = 10) -> VerificationReport:
    """Both conjugation identities for the lowering operators, on random series."""
    rng = random.Random(seed)
    report = VerificationReport()
    pde = pde_operator()
    pairs = (
        (1, pde * lowering_op_i(), lowering_op_i_shifted() * pde),
        (2, pde * lowering_op_ii(), lowering_op_ii_shifted() * pde),
    )
    for idx in range(count):
        s = _random_series(rng, orders, orders)
        for case, lhs_op, rhs_op in pairs:
            started = time.perf_counter()
            got = apply_op(lhs_op, s)
            want = apply_op(rhs_op, s)
            report.add(_series_record(
                "lemma360", {"case": case, "orders": orders, "seed": seed, "sample": idx},
                got, want, started))
    return report


def verify_injectivity(orders: int, seed: int, count: int = 10) -> VerificationReport:
    """Kernel triviality of the two shifted lowering operators on truncations.

    Checks the recurrence route (the kernel equations force the zero array) and
    the operator route (nonzero inputs keep a nonzero image on the valid
    region; inputs are restricted so their support lies inside the image
    region).
    """
    rng = random.Random(seed)
    report = VerificationReport()

    # Recurrence route: [n+k+2] a(n,k) = q [k] a(n,k-1) with a(n,-1) = 0 forces 0.
    started = time.perf_counter()
    forced_zero = True
    for n in range(orders + 1):
        prev = QRat(0)
        for k in range(orders + 1):
            cur = q_power(1) * QRat(q_integer(k)) * prev / QRat(q_integer(n + k + 2))
            if not cur.is_zero:
                forced_zero = False
            prev = cur
    report.add(Record("lemma370", {"check": "kernel_recurrence", "orders": orders},
                      "pass" if forced_zero else "fail",
                      wall_ms=(time.perf_counter() - started) * 1000.0))

    ops = ((1, lowering_op_i_shifted()), (2, lowering_op_ii_shifted()))
    for idx in range(count):
        # Support inside the image region so truncation cannot hide the witness.
        raw = _random_series(rng, orders, orders)
        masked = BiSeries.from_function(
            lambda n, k: raw.coeff(n, k) if (n < orders and k < orders) else QRat(0),
            orders, orders)
        if masked.is_zero():
            continue
        for case, op in ops:
            started = time.perf_counter()
            image = apply_op(op, masked)
            ok = not image.is_zero()
            report.add(Record(
                "lemma370",
                {"check": "injectivity", "case": case, "orders": orders,
                 "seed": seed, "sample": idx},
                "pass" if ok else "fail",
                valid_region=list(image.valid_region),
                wall_ms=(time.perf_counter() - started) * 1000.0))
    return report


def verify_product_identity(orders: int, seed: int, count: int = 5,
                            harmonic_weights: int = 0) -> VerificationReport:
    """F_a = f_a * e(Y) for random sequences (and harmonic ones when asked),
    plus the zero residual of F_a under the annihilating operator."""
    rng = random.Random(seed)
    report = VerificationReport()
    seqs: list[tuple[dict, QSeq]] = []
    for idx in range(count):
        seqs.append(({"kind": "random", "seed": seed, "sample": idx},
                     _random_seq(rng, 2 * orders + 2)))
    for w in range(1, harmonic_weights + 1):
        for mu in enumerate_by_weight(w):
            seqs.append(({"kind": "harmonic", "mu": list(mu)}, a_seq(mu)))
    for params, seq in seqs:
        started = time.perf_counter()
        F = F_a_series(seq, orders, orders)
        prod = series_mul(f_a_series(seq, orders, orders), q_exp(orders, orders))
        report.add(_series_record("prop240", {**params, "orders": orders, "check": "product"},
                                  F, prod, started))
        started = time.perf_counter()
        report.add(_zero_series_record(
            "prop240", {**params, "orders": orders, "check": "pde_residual"},
            pde_residual(F), started))
    return report


def verify_closed_difference(grid: int, seed: int, count: int = 5) -> VerificationReport:
    """Closed alternating-sum form of the k-th difference == iterated form."""
    rng = random.Random(seed)
    report = VerificationReport()
    for idx in range(count):
        seq = _random_seq(rng, 2 * grid + 2)
        iterated = [seq]
        for i in range(1, grid + 1):
            iterated.append(delta_z(iterated[-1], q_power(i)))
        for n in range(grid + 1):
            for k in range(grid + 1):
                started = time.perf_counter()
                report.add(_qrat_record(
                    "cor250",
                    {"seed": seed, "sample": idx, "n": n, "k": k},
                    delta_qk_closed(seq, n, k), iterated[k](n), started))
    return report


def verify_series_suite(config: CampaignConfig) -> VerificationReport:
    """All series-level families: residuals, conjugations, injectivity, product."""
    report = VerificationReport(config=config)
    orders = config.series_orders
    for w in range(1, config.series_max_weight + 1):
        for mu in enumerate_by_weight(w):
            report.extend(verify_pde_annihilation(mu, orders).records)
    report.extend(verify_operator_conjugations(orders, DEFAULT_SEED).records)
    report.extend(verify_injectivity(orders, DEFAULT_SEED).records)
    report.extend(verify_product_identity(
        orders, DEFAULT_SEED, harmonic_weights=min(3, config.series_max_weight)).records)
    return report


def eval_crosscheck(mu: MultiIndex, n: int, k: int,
                    q_points: Sequence[Fraction]) -> VerificationReport:
    """Compare the symbolic difference-formula values with direct evaluation.

    Four numbers per q-point must coincide: both sides summed directly over
    the defining chains in Fraction arithmetic, and both symbolic values
    evaluated at the point.  A point hitting a vanishing q-integer is skipped.
    """
    mu = MultiIndex(mu)
    dual = mu.dual()
    started = time.perf_counter()  # the first record also carries the symbolic values
    symbolic_lhs = delta_qk_closed(a_seq(mu), n, k)
    symbolic_rhs = c_value(mu, dual, n, k)
    report = VerificationReport()
    for q0 in q_points:
        q0 = Fraction(q0)
        params = {"mu": list(mu), "n": n, "k": k, "q": str(q0)}
        try:
            direct_lhs = direct.delta_closed_a_at(mu, n, k, q0)
            direct_rhs = direct.c_at(mu, dual, n, k, q0)
            sym_lhs = symbolic_lhs.evaluate(q0)
            sym_rhs = symbolic_rhs.evaluate(q0)
        except PoleError as exc:
            rec = Record("main", {**params, "reason": str(exc)}, "skip")
        else:
            ok = direct_lhs == direct_rhs == sym_lhs == sym_rhs
            witness = None if ok else {"values": [str(direct_lhs), str(direct_rhs),
                                                  str(sym_lhs), str(sym_rhs)]}
            rec = Record("main", {**params, "check": "eval"},
                         "pass" if ok else "fail", witness=witness)
        rec.wall_ms = (time.perf_counter() - started) * 1000.0
        report.add(rec)
        started = time.perf_counter()
    return report


# --- campaign driver ------------------------------------------------------------


def _admissible_pairs(weight: int) -> list[tuple[MultiIndex, MultiIndex]]:
    indices = enumerate_by_weight(weight)
    first = [m for m in indices if m[0] >= 2]
    second = [m for m in indices if m[0] == 1]
    pairs = [(m, v) for m in first for v in second]
    pairs += [(m, v) for m in second for v in first]
    return pairs


def _campaign_tasks(config: CampaignConfig) -> list[tuple]:
    tasks: list[tuple] = []
    wants = set(config.identities)
    if "duality" in wants:
        for w in range(1, config.max_weight + 1):
            for mu in enumerate_by_weight(w):
                tasks.append(("duality", tuple(mu), config.max_k))
    if "main" in wants:
        for w in range(1, config.max_weight + 1):
            for mu in enumerate_by_weight(w):
                tasks.append(("main", tuple(mu), config.max_n, config.max_k))
    if "prop340" in wants or "prop350" in wants:
        for w in range(2, config.series_max_weight + 1):
            for mu, nu in _admissible_pairs(w):
                tasks.append(("pair", tuple(mu), tuple(nu),
                              config.max_n, config.max_k, config.series_orders,
                              "prop340" in wants, "prop350" in wants))
    if "thm380" in wants:
        for w in range(1, config.series_max_weight + 1):
            for mu in enumerate_by_weight(w):
                tasks.append(("thm380", tuple(mu), config.series_orders))
    if "lemma360" in wants:
        tasks.append(("lemma360", config.series_orders, DEFAULT_SEED))
    if "lemma370" in wants:
        tasks.append(("lemma370", config.series_orders, DEFAULT_SEED))
    if "prop240" in wants:
        tasks.append(("prop240", config.series_orders, DEFAULT_SEED,
                      min(3, config.series_max_weight)))
    if "cor250" in wants:
        tasks.append(("cor250", min(config.max_n + config.max_k, 6), DEFAULT_SEED))
    if "main" in wants and config.eval_points:
        rng = random.Random(DEFAULT_SEED)
        for w in range(1, config.max_weight + 1):
            for mu in enumerate_by_weight(w):
                n = rng.randint(0, config.max_n)
                k = rng.randint(0, config.max_k)
                tasks.append(("eval", tuple(mu), n, k,
                              tuple(str(p) for p in config.eval_points)))
    return tasks


def _run_task(task: tuple) -> list[Record]:
    kind = task[0]
    if kind == "duality":
        return verify_duality(MultiIndex(task[1]), task[2]).records
    if kind == "main":
        return verify_main_identity(MultiIndex(task[1]), task[2], task[3]).records
    if kind == "pair":
        _, mu, nu, n_max, k_max, orders, scalar, series = task
        return verify_inductive_relations(
            MultiIndex(mu), MultiIndex(nu), n_max, k_max, orders,
            include_scalar=scalar, include_series=series).records
    if kind == "thm380":
        return verify_pde_annihilation(MultiIndex(task[1]), task[2]).records
    if kind == "lemma360":
        return verify_operator_conjugations(task[1], task[2]).records
    if kind == "lemma370":
        return verify_injectivity(task[1], task[2]).records
    if kind == "prop240":
        return verify_product_identity(task[1], task[2], harmonic_weights=task[3]).records
    if kind == "cor250":
        return verify_closed_difference(task[1], task[2]).records
    if kind == "eval":
        _, mu, n, k, points = task
        return eval_crosscheck(MultiIndex(mu), n, k,
                               [Fraction(p) for p in points]).records
    raise ValueError(f"unknown task kind {kind!r}")


def run_campaign(config: CampaignConfig | None = None) -> VerificationReport:
    """Enumerate every selected instance family, in a deterministic order.

    With parallelism > 1 the independent tasks run in a process pool; the
    aggregator preserves task order, so the report content does not depend on
    the parallelism level.
    """
    config = config or CampaignConfig()
    config.validate()
    tasks = _campaign_tasks(config)
    report = VerificationReport(config=config, seed=DEFAULT_SEED)
    if config.parallelism == 1:
        for task in tasks:
            report.extend(_run_task(task))
    else:
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            for records in pool.map(_run_task, tasks):
                report.extend(records)
    return report
