"""Verification campaigns over families of multi-indices, with JSON reports.

Each identity family is checked exactly, instance by instance.  A record fails
exactly when it carries a witness, so a red result is a reproducible
counterexample rather than a boolean.  The witness is the nonzero difference of
the two sides (numerator and denominator coefficient lists), the evaluation
values that fail to coincide, or a kernel element: the first nonzero
coefficient of an input that an operator sends to zero.

Campaigns are deterministic: instances are generated in a fixed order, random
inputs come from seeds derived from a recorded base seed, and reports are
byte-identical across parallelism levels once timing fields are stripped.
"""

from __future__ import annotations

import json
import os
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import direct
from .exactq import QRAT_ZERO, PoleError, QPoly, QRat, _require_index, q_integer, q_power
from .harmonic import QSeq, a_seq, b_value, c_value, delta_qk_closed, delta_qk_table
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

# The identity families, in report order.  Each entry pairs the tokens that
# select it with a function from a CampaignConfig to its tasks, each a
# (driver, args) pair run as driver(*args).  The functions name their drivers
# as module globals when they run, so rebinding a driver (to trace or patch
# it) reaches the campaign.
FAMILIES = (
    (("duality",), lambda c: [(verify_duality, (mu, c.max_k))
                              for mu in _indices(c.max_weight)]),
    (("main",), lambda c: [(verify_main_identity, (mu, c.max_n, c.max_k))
                           for mu in _indices(c.max_weight)]),
    (("prop340", "prop350"), lambda c: [
        (verify_inductive_relations, (mu, nu, c.max_n, c.max_k, c.series_orders,
                                      "prop340" in c.identities, "prop350" in c.identities))
        for w in range(2, c.series_max_weight + 1) for mu, nu in _admissible_pairs(w)]),
    (("thm380",), lambda c: [(verify_pde_annihilation, (mu, c.series_orders))
                             for mu in _indices(c.series_max_weight)]),
    (("lemma360",), lambda c: [(verify_operator_conjugations,
                                (c.series_orders, DEFAULT_SEED))]),
    (("lemma370",), lambda c: [(verify_injectivity, (c.series_orders, DEFAULT_SEED))]),
    (("prop240",), lambda c: [(verify_product_identity,
                               (c.series_orders, DEFAULT_SEED, 5,
                                min(3, c.series_max_weight)))]),
    (("cor250",), lambda c: [(verify_closed_difference,
                              (min(c.max_n + c.max_k, 6), DEFAULT_SEED))]),
    # Sampled evaluation of the difference formula, reported under "main".
    (("main",), lambda c: _eval_tasks(c)),
)

IDENTITY_TOKENS = tuple(dict.fromkeys(t for tokens, _ in FAMILIES for t in tokens))

DEFAULT_EVAL_POINTS = (Fraction(2, 3), Fraction(5), Fraction(-2))


class CampaignConfig(NamedTuple):
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
        _require_index(1, max_weight=self.max_weight)
        _require_index(0, max_n=self.max_n, max_k=self.max_k)
        _require_index(1, series_orders=self.series_orders,
                       series_max_weight=self.series_max_weight, parallelism=self.parallelism)
        bad = [t for t in self.identities if t not in IDENTITY_TOKENS]
        if bad:
            raise ValueError(f"unknown identities: {bad}")
        if not self.identities:
            raise ValueError("no identities selected")
        for p in self.eval_points:
            if p in (0, 1):
                raise ValueError("eval points must avoid q = 0 and q = 1")
        if self.parallelism > 1 and not hasattr(os, "fork"):
            raise ValueError("parallelism > 1 needs os.fork, which this platform lacks")

    def to_dict(self) -> dict:
        return {**self._asdict(), "identities": list(self.identities),
                "eval_points": [str(p) for p in self.eval_points]}


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
        if key not in CampaignConfig._fields:
            raise ValueError(f"unknown config key: {key!r}")
        if key in values:
            raise ValueError(f"repeated config key: {key!r}")
        items = tuple(t.strip() for t in val.split(",") if t.strip())
        try:
            if key == "identities":
                values[key] = items
            elif key == "eval_points":
                values[key] = tuple(Fraction(t) for t in items)
            else:
                values[key] = int(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad value for config key {key!r}: {val!r} ({exc})") from None
    config = CampaignConfig()._replace(**values)
    config.validate()
    return config


class Record(NamedTuple):
    """One verified instance: parameters, outcome, exact witness when failing."""

    identity: str
    params: dict
    status: str  # "pass" | "fail" | "skip"
    witness: dict | None = None
    valid_region: list | None = None
    wall_ms: float = 0.0

    def to_dict(self, include_timing: bool = True) -> dict:
        out = self._asdict()
        wall_ms = out.pop("wall_ms")
        if include_timing:
            out["wall_ms"] = round(wall_ms, 3)
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
    """Ordered collection of records plus campaign metadata.

    The report keeps the record clock: `add` stores a copy of each record
    whose wall_ms is the time since the previous `add`, or since the report
    was created, so the records of one identity check cover all of its work.
    """

    def __init__(self, config: CampaignConfig | None = None) -> None:
        self.records: list[Record] = []
        self.config = config
        self._clock = time.perf_counter()

    def add(self, record: Record) -> None:
        now = time.perf_counter()
        self.records.append(record._replace(wall_ms=(now - self._clock) * 1000.0))
        self._clock = now

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
            "random_seed": DEFAULT_SEED,
            "config": self.config.to_dict() if self.config else None,
            "summary": self.counts,
            "records": [r.to_dict(include_timing) for r in self.records],
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def _record(identity: str, params: dict, witness: dict | None,
            valid_region: list | None = None) -> Record:
    # The one place a check's outcome is set: it fails exactly when it has a witness.
    return Record(identity, params, "pass" if witness is None else "fail", witness,
                  valid_region)


def _qrat_record(identity: str, params: dict, lhs: QRat, rhs: QRat) -> Record:
    diff = lhs - rhs
    return _record(identity, params, None if diff.is_zero else witness_from_qrat(diff))


def _series_record(identity: str, params: dict, got: BiSeries, want: BiSeries) -> Record:
    vx = min(got.valid_x, want.valid_x)
    vy = min(got.valid_y, want.valid_y)
    disc = got.first_discrepancy(want)
    params = dict(params)
    if disc is not None:
        params["first_discrepancy_at"] = [disc[0], disc[1]]
    return _record(identity, params, None if disc is None else witness_from_qrat(disc[2]),
                   [vx, vy])


# --- identity drivers ---------------------------------------------------------


def verify_main_identity(mu: MultiIndex, n_max: int, k_max: int) -> VerificationReport:
    """Difference formula: the k-th q-difference of a_mu at n equals c_{mu,mu*}(n,k).

    Both the closed alternating-sum form and the iterated first-difference form
    of the left side are exercised on every grid point.
    """
    report = VerificationReport()
    mu = MultiIndex(mu)
    dual = mu.dual()
    seq = a_seq(mu)
    iterated = delta_qk_table(seq, n_max, k_max)
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            closed = delta_qk_closed(seq, n, k)
            rhs = c_value(mu, dual, n, k)
            params = {"mu": list(mu), "n": n, "k": k}
            rec = _qrat_record("main", params, closed, rhs)
            if rec.status == "pass" and iterated[n][k] != closed:
                rec = _qrat_record("main", {**params, "check": "iterated_vs_closed"},
                                   iterated[n][k], closed)
            report.add(rec)
    return report


def verify_duality(mu: MultiIndex, k_max: int) -> VerificationReport:
    """Duality: the alternating binomial transform of a_mu equals b at the dual index."""
    report = VerificationReport()
    mu = MultiIndex(mu)
    dual = mu.dual()
    seq = a_seq(mu)
    for k in range(k_max + 1):
        lhs = delta_qk_closed(seq, 0, k)
        rhs = b_value(dual, k)
        report.add(_qrat_record("duality", {"mu": list(mu), "k": k}, lhs, rhs))
    return report


def _inductive_case(mu: MultiIndex, nu: MultiIndex) -> int:
    if mu.weight != nu.weight:
        raise ValueError("weight mismatch")
    if mu[0] >= 2 and nu[0] == 1:
        return 1
    if mu[0] == 1 and nu[0] >= 2:
        return 2
    raise ValueError(
        f"neither case applies to mu={mu.as_text()}, nu={nu.as_text()}: "
        "need (mu_1 >= 2, nu_1 = 1) or (mu_1 = 1, nu_1 >= 2)")


def verify_inductive_relations(mu: MultiIndex, nu: MultiIndex, n_max: int, k_max: int,
                               series_orders: int,
                               include_scalar: bool = True,
                               include_series: bool = True) -> VerificationReport:
    """The two-term relations lowering (mu, nu) to their reduced pair.

    Scalar form on the (n, k) grid, and its generating-function form: the
    matching lowering operator applied to G(mu, nu) agrees with G of the
    reduced pair on the shrunk valid region.
    """
    report = VerificationReport()
    mu = MultiIndex(mu)
    nu = MultiIndex(nu)
    case = _inductive_case(mu, nu)
    rmu, rnu = mu.minus_reduce(), nu.minus_reduce()
    if include_scalar:
        for n in range(n_max + 1):
            # case 1 references c(n, k-1), case 2 references c(n-1, k); the
            # undefined boundary instances are outside the relation's domain.
            for k in range(k_max + 1):
                if (case == 1 and k < 1) or (case == 2 and n < 1):
                    continue
                bracket = c_value(mu, nu, n, k) * q_integer(n + k + 1)
                if case == 1:
                    bracket = bracket - c_value(mu, nu, n, k - 1) * q_integer(k)
                    lhs = q_power(-n - k - 1) * bracket
                else:
                    lhs = bracket - c_value(mu, nu, n - 1, k) * q_integer(n)
                rhs = c_value(rmu, rnu, n, k)
                params = {"mu": list(mu), "nu": list(nu), "case": case, "n": n, "k": k}
                report.add(_qrat_record("prop340", params, lhs, rhs))
    if include_series:
        G = G_series(mu, nu, series_orders, series_orders)
        op = lowering_op_i() if case == 1 else lowering_op_ii()
        got = apply_op(op, G)
        want = G_series(rmu, rnu, series_orders, series_orders)
        params = {"mu": list(mu), "nu": list(nu), "case": case, "orders": series_orders}
        report.add(_series_record("prop350", params, got, want))
    return report


def verify_pde_annihilation(mu: MultiIndex, orders: int) -> VerificationReport:
    """The annihilating operator sends G(mu, mu*) to the zero array."""
    report = VerificationReport()
    mu = MultiIndex(mu)
    residual = pde_residual(G_series(mu, mu.dual(), orders, orders))
    report.add(_series_record("thm380", {"mu": list(mu), "orders": orders},
                              residual, BiSeries.zero(*residual.valid_region)))
    return report


def _random_series(rng: random.Random, vx: int, vy: int) -> BiSeries:
    return BiSeries.from_function(lambda n, k: QRat(rng.randint(-5, 5)), vx, vy)


def _random_seq(rng: random.Random, length: int) -> QSeq:
    return QSeq.from_values([QRat(rng.randint(-5, 5)) for _ in range(length)])


def verify_operator_conjugations(orders: int, seed: int, count: int = 10) -> VerificationReport:
    """Both conjugation identities for the lowering operators, on random series."""
    report = VerificationReport()
    rng = random.Random(seed)
    pde = pde_operator()
    pairs = (
        (1, pde * lowering_op_i(), lowering_op_i_shifted() * pde),
        (2, pde * lowering_op_ii(), lowering_op_ii_shifted() * pde),
    )
    for idx in range(count):
        s = _random_series(rng, orders, orders)
        for case, lhs_op, rhs_op in pairs:
            got = apply_op(lhs_op, s)
            want = apply_op(rhs_op, s)
            report.add(_series_record(
                "lemma360", {"case": case, "orders": orders, "seed": seed, "sample": idx},
                got, want))
    return report


def _inside_image(fn: Callable[[int, int], QRat], orders: int) -> BiSeries:
    # Support inside the image region so truncation cannot hide the witness.
    return BiSeries.from_function(
        lambda n, k: fn(n, k) if (n < orders and k < orders) else QRAT_ZERO, orders, orders)


def _solve_shifted_lowering(case: int, image: BiSeries) -> BiSeries:
    """The a that shifted lowering operator `case` sends to b = `image`.

    Back-substitutes the kernel recurrence over the image region, a(-1, k) =
    a(n, -1) = 0; case 1: [n+k+2] a(n,k) = q^(n+k+2) b(n,k) + q [k] a(n,k-1),
    case 2: [n+k+2] a(n,k) = b(n,k) + [n] a(n-1,k).
    """
    vx, vy = image.valid_region
    a = [[QRAT_ZERO] * (vy + 1) for _ in range(vx + 1)]
    for n in range(vx + 1):
        for k in range(vy + 1):
            if case == 1:
                rhs = q_power(n + k + 2) * image.coeff(n, k)
                if k:
                    rhs = rhs + q_power(1) * a[n][k - 1] * q_integer(k)
            else:
                rhs = image.coeff(n, k)
                if n:
                    rhs = rhs + a[n - 1][k] * q_integer(n)
            a[n][k] = rhs / q_integer(n + k + 2)
    return BiSeries(a)


def verify_injectivity(orders: int, seed: int, count: int = 10) -> VerificationReport:
    """Kernel triviality of the two shifted lowering operators on truncations.

    Checks the recurrence route (back-substituting each operator's kernel
    recurrence recovers a fixed input exactly from its image, so only the zero
    array maps to zero) and the operator route (nonzero inputs keep a nonzero
    image on the valid region; inputs are restricted so their support lies
    inside the image region).
    """
    report = VerificationReport()
    rng = random.Random(seed)
    ops = ((1, lowering_op_i_shifted()), (2, lowering_op_ii_shifted()))

    # Recurrence route, on a fixed input so the seeded samples below stay put.
    fixed = _inside_image(lambda n, k: QRat(n + 2 * k + 1), orders)
    disc = next(filter(None, (_solve_shifted_lowering(case, apply_op(op, fixed))
                              .first_discrepancy(fixed) for case, op in ops)), None)
    report.add(_record("lemma370", {"check": "kernel_recurrence", "orders": orders},
                       None if disc is None else witness_from_qrat(disc[2])))

    for idx in range(count):
        masked = _inside_image(_random_series(rng, orders, orders).coeff, orders)
        if masked.is_zero():
            continue
        for case, op in ops:
            image = apply_op(op, masked)
            witness = None
            if image.is_zero():
                # the nonzero input lies in the kernel: its first nonzero coefficient
                witness = witness_from_qrat(next(c for _, _, c in masked.enumerate() if c))
            report.add(_record(
                "lemma370",
                {"check": "injectivity", "case": case, "orders": orders,
                 "seed": seed, "sample": idx},
                witness, list(image.valid_region)))
    return report


def verify_product_identity(orders: int, seed: int, count: int = 5,
                            harmonic_weights: int = 0) -> VerificationReport:
    """F_a = f_a * e(Y) for random sequences (and harmonic ones when asked),
    plus the zero residual of F_a under the annihilating operator."""
    report = VerificationReport()
    rng = random.Random(seed)
    seqs: list[tuple[dict, QSeq]] = []
    for idx in range(count):
        seqs.append(({"kind": "random", "seed": seed, "sample": idx},
                     _random_seq(rng, 2 * orders + 2)))
    for w in range(1, harmonic_weights + 1):
        for mu in enumerate_by_weight(w):
            seqs.append(({"kind": "harmonic", "mu": list(mu)}, a_seq(mu)))
    for params, seq in seqs:
        F = F_a_series(seq, orders, orders)
        prod = series_mul(f_a_series(seq, orders, orders), q_exp(orders, orders))
        report.add(_series_record("prop240", {**params, "orders": orders, "check": "product"},
                                  F, prod))
        residual = pde_residual(F)
        report.add(_series_record(
            "prop240", {**params, "orders": orders, "check": "pde_residual"},
            residual, BiSeries.zero(*residual.valid_region)))
    return report


def verify_closed_difference(grid: int, seed: int, count: int = 5) -> VerificationReport:
    """Closed alternating-sum form of the k-th difference == iterated form."""
    report = VerificationReport()
    rng = random.Random(seed)
    for idx in range(count):
        seq = _random_seq(rng, 2 * grid + 2)
        iterated = delta_qk_table(seq, grid, grid)
        for n in range(grid + 1):
            for k in range(grid + 1):
                report.add(_qrat_record(
                    "cor250",
                    {"seed": seed, "sample": idx, "n": n, "k": k},
                    delta_qk_closed(seq, n, k), iterated[n][k]))
    return report


def eval_crosscheck(mu: MultiIndex, n: int, k: int,
                    q_points: Sequence[Fraction]) -> VerificationReport:
    """Compare the symbolic difference-formula values with direct evaluation.

    Four numbers per q-point must coincide: both sides summed directly over
    the defining chains in exact rational arithmetic, and both symbolic values
    evaluated at the point.  A point hitting a vanishing q-integer is skipped.
    """
    report = VerificationReport()  # the first record also carries the symbolic values
    mu = MultiIndex(mu)
    dual = mu.dual()
    symbolic_lhs = delta_qk_closed(a_seq(mu), n, k)
    symbolic_rhs = c_value(mu, dual, n, k)
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
            rec = _record("main", {**params, "check": "eval"}, witness)
        report.add(rec)
    return report


# --- campaign driver ------------------------------------------------------------


def _admissible_pairs(weight: int) -> list[tuple[MultiIndex, MultiIndex]]:
    indices = enumerate_by_weight(weight)
    first = [m for m in indices if m[0] >= 2]
    second = [m for m in indices if m[0] == 1]
    pairs = [(m, v) for m in first for v in second]
    pairs += [(m, v) for m in second for v in first]
    return pairs


def _indices(max_weight: int) -> list[MultiIndex]:
    return [mu for w in range(1, max_weight + 1) for mu in enumerate_by_weight(w)]


def _eval_tasks(config: CampaignConfig) -> list[tuple]:
    # One random grid point per multi-index; draw n, then k, from the base seed.
    rng = random.Random(DEFAULT_SEED)
    return [(eval_crosscheck, (mu, rng.randint(0, config.max_n),
                               rng.randint(0, config.max_k), config.eval_points))
            for mu in _indices(config.max_weight)] if config.eval_points else []


def _run_task(task: tuple) -> list[Record]:
    driver, args = task
    return driver(*args).records


def _run_tasks(tasks: list[tuple], workers: int) -> list[list[Record]]:
    # Worker w runs tasks w, w + workers, w + 2 workers, ...: the calling process
    # is worker 0 and a forked child each of the others, so one worker forks
    # nothing. Strides, unlike contiguous blocks, split the default campaign's
    # costly families evenly. A child sends one pickled ("ok", records of each
    # task, "") or ("error", exception, traceback text) down its own pipe and
    # always leaves through os._exit, so no inherited stdio buffer or exit hook
    # runs twice.
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for w in range(1, workers):
            import pickle  # loaded only when a worker is forked

            rfd, wfd = os.pipe()
            pid = os.fork()
            if not pid:
                try:
                    try:
                        records = [_run_task(task) for task in tasks[w::workers]]
                        data = pickle.dumps(("ok", records, ""))
                    except Exception as exc:
                        import traceback

                        trace = traceback.format_exc()
                        try:
                            data = pickle.dumps(("error", exc, trace))
                            pickle.loads(data)  # some exceptions pickle but do not unpickle
                        except Exception:
                            data = pickle.dumps(("error", RuntimeError(repr(exc)), trace))
                    with open(wfd, "wb") as out:
                        out.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(wfd)
            children.append((pid, open(rfd, "rb")))
        per_task = [None] * len(tasks)
        per_task[::workers] = [_run_task(task) for task in tasks[::workers]]
        for w in range(1, workers):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status or not data:
                raise RuntimeError(f"campaign worker {w} ended without a result "
                                   f"(exit status {status})")
            kind, payload, trace = pickle.loads(data)
            if kind == "error":
                raise payload from RuntimeError(f"in campaign worker {w}:\n{trace}")
            per_task[w::workers] = payload
        return per_task
    finally:
        for pid, pipe in children:
            import signal

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_campaign(config: CampaignConfig | None = None) -> VerificationReport:
    """Enumerate every selected instance family, in a deterministic order.

    The tasks are dealt round-robin to max(1, min(parallelism, len(tasks)))
    workers, the calling process first and a child made by os.fork each of the
    others; one runner joins the records in task order at every parallelism
    level, so the report content does not depend on it.
    """
    config = config or CampaignConfig()
    config.validate()
    tasks = [task for tokens, build in FAMILIES
             if set(tokens) & set(config.identities) for task in build(config)]
    report = VerificationReport(config=config)
    for records in _run_tasks(tasks, max(1, min(config.parallelism, len(tasks)))):
        report.records.extend(records)
    return report
