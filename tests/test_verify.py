"""Campaign machinery: reports, determinism, witnesses, cross-evaluation."""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from qharmonic import direct, exactq, verify
from qharmonic.exactq import PoleError, QPoly, QRat, q_binomial, q_power
from qharmonic.harmonic import a_value, b_value, c_value, delta_qk_closed, a_seq
from qharmonic.multiindex import MultiIndex, enumerate_by_weight
from qharmonic.qseries import (
    IDENTITY,
    LAMBDA_Y,
    PARTIAL_X,
    PARTIAL_Y,
    BiSeries,
    apply_op,
    lowering_op_i,
    lowering_op_ii,
)
from qharmonic.verify import (
    CampaignConfig,
    DEFAULT_SEED,
    IDENTITY_TOKENS,
    Record,
    VerificationReport,
    _qrat_record,
    eval_crosscheck,
    parse_config_text,
    qrat_from_witness,
    run_campaign,
    verify_duality,
    verify_inductive_relations,
    verify_injectivity,
    verify_main_identity,
    witness_from_qrat,
)


def _off_by_one_table(seq, n_max, k_max):
    # delta_qk_table with the first difference stepping by q^(k+2), not q^(k+1)
    column = [seq(n) for n in range(n_max + k_max + 1)]
    rows = [[value] for value in column[: n_max + 1]]
    for k in range(k_max):
        z = q_power(k + 2)
        column = [column[n] - z * column[n + 1] for n in range(len(column) - 1)]
        for n, row in enumerate(rows):
            row.append(column[n])
    return rows


# Negative controls: token -> (name rebound in verify, a wrong ingredient).
NEGATIVE_CONTROLS = {
    # b at mu in place of mu*; verify_duality passes mu*, whose dual is mu
    "duality": ("b_value", lambda index, k: b_value(MultiIndex(index).dual(), k)),
    # c at (mu, mu) in place of (mu, mu*)
    "main": ("c_value", lambda mu, nu, n, k: c_value(mu, mu, n, k)),
    # q^(-n-k-2) in place of q^(-n-k-1) in the case-1 relation
    "prop340": ("q_power", lambda e: q_power(e - 1)),
    # the case-2 lowering operator on the case-1 pairs
    "prop350": ("lowering_op_i", lowering_op_ii),
    # dX LY + dY - 1, the annihilating operator without the q of q dX LY
    "thm380": ("pde_residual", lambda s: apply_op(PARTIAL_X * LAMBDA_Y + PARTIAL_Y - 1, s)),
    # the unshifted lowering operator in place of its conjugate under the PDE
    "lemma360": ("lowering_op_i_shifted", lowering_op_i),
    # the same swap in the kernel checks, whose back-substitution is for the shifted one
    "lemma370": ("lowering_op_i_shifted", lowering_op_i),
    # e(X) in place of e(Y)
    "prop240": ("q_exp", lambda vx, vy: BiSeries.from_function(
        lambda n, k: QRat(1) if k == 0 else QRat(0), vx, vy)),
    # the iterated difference stepping by q^(k+2)
    "cor250": ("delta_qk_table", _off_by_one_table),
}


def _closed_difference_unshifted(seq, n, k):
    # delta_qk_closed with q^(i(i-1)/2) in place of q^(i(i+1)/2)
    total = QRat(0)
    for i in range(k + 1):
        coeff = q_binomial(k, i) * QPoly.monomial(-1 if i & 1 else 1, i * (i - 1) // 2)
        total = total + QRat(coeff) * seq(n + i)
    return total


_direct_c_at = direct.c_at

# Second negative controls: id -> (token, module, name rebound there, a wrong
# ingredient, eval points of the control campaign).
SECOND_CONTROLS = {
    "cor250": ("cor250", verify, "delta_qk_closed", _closed_difference_unshifted, ()),
    # the direct route at (mu, mu) in place of (mu, mu*): only the eval records
    # read it, so this campaign has eval points
    "main-eval": ("main", direct, "c_at",
                  lambda mu, nu, n, k, q0: _direct_c_at(mu, mu, n, k, q0),
                  (Fraction(2, 3), Fraction(5), Fraction(-2))),
}


def _shows_its_discrepancy(rec: Record) -> bool:
    """Whether a failing record shows its discrepancy, for each witness kind."""
    if rec.witness is None:
        return False
    if "values" in rec.witness:
        # an eval record's witness is the four values that must coincide
        return len(set(rec.witness["values"])) > 1
    return not qrat_from_witness(rec.witness).is_zero


SMALL = CampaignConfig(max_weight=3, max_n=2, max_k=2, series_orders=4,
                       series_max_weight=2, parallelism=1)


class TestConfig:
    def test_defaults_valid(self):
        CampaignConfig().validate()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CampaignConfig(max_weight=0).validate()
        with pytest.raises(ValueError):
            CampaignConfig(identities=("nonsense",)).validate()
        with pytest.raises(ValueError):
            CampaignConfig(eval_points=(Fraction(1),)).validate()
        with pytest.raises(ValueError):
            CampaignConfig(eval_points=(Fraction(0),)).validate()
        with pytest.raises(ValueError):
            CampaignConfig(parallelism=0).validate()

    def test_parse_config_text(self):
        cfg = parse_config_text("""
            # a comment
            max_weight = 3
            max_n: 2
            max_k = 2
            identities = duality, main
            eval_points = 2/3, -2
            parallelism = 2
        """)
        assert cfg.max_weight == 3
        assert cfg.identities == ("duality", "main")
        assert cfg.eval_points == (Fraction(2, 3), Fraction(-2))
        assert cfg.parallelism == 2

    def test_parse_config_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config_text("wibble = 3")
        with pytest.raises(ValueError):
            parse_config_text("just a line")


    def test_parse_config_bad_value_names_key_and_value(self):
        with pytest.raises(ValueError, match=r"'max_n': 'x'"):
            parse_config_text("max_n = x")
        with pytest.raises(ValueError, match=r"'eval_points': '1/0'"):
            parse_config_text("eval_points = 1/0")


class TestRecordsAndWitnesses:
    def test_passing_record(self):
        rec = _qrat_record("main", {"n": 0}, QRat(1), QRat(1))
        assert rec.status == "pass" and rec.witness is None

    def test_failing_record_carries_exact_witness(self):
        lhs = QRat(QPoly((0, 1)), QPoly((1, 1)))
        rhs = QRat(QPoly((1,)), QPoly((1, 1)))
        rec = _qrat_record("main", {"n": 0}, lhs, rhs)
        assert rec.status == "fail"
        diff = qrat_from_witness(rec.witness)
        assert diff == lhs - rhs
        assert not diff.is_zero

    def test_witness_nonzero_at_some_random_point(self):
        # sanity contract: a failure witness survives numeric re-evaluation
        lhs = QRat(QPoly((0, 0, 3)), QPoly((1, 2, 1)))
        rhs = QRat(QPoly((1,)), QPoly((1, 1)))
        rec = _qrat_record("main", {}, lhs, rhs)
        diff = qrat_from_witness(rec.witness)
        rng = random.Random(5)
        values = []
        for _ in range(3):
            q0 = Fraction(rng.randint(2, 30), rng.randint(31, 60))
            try:
                values.append(diff.evaluate(q0))
            except PoleError:
                continue
        assert any(v != 0 for v in values)

    def test_witness_roundtrip(self):
        value = QRat(QPoly((1, -2, Fraction(1, 3))), QPoly((0, 0, 1)))
        assert qrat_from_witness(witness_from_qrat(value)) == value

    def test_witness_roundtrip_of_a_large_value_takes_one_heuristic_gcd(self, monkeypatch):
        # A witness rebuilds numerator and denominator as generic polynomials,
        # here of degree 279 over 298, so reducing them takes one integer gcd.
        # GCDHEU decides it; the remainder sequence alone is some 50 times slower here.
        value = a_value((1, 2), 20) + b_value((1, 2), 20)
        calls = {"_int_gcd": 0, "_int_prs_gcd": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(exactq, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(exactq, name, counting)
        witness = witness_from_qrat(value)
        assert (len(witness["num_coeffs"]), len(witness["den_coeffs"])) == (280, 299)
        assert qrat_from_witness(witness) == value
        assert calls == {"_int_gcd": 1, "_int_prs_gcd": 0}


class TestRecordClock:
    """The report stamps wall_ms; a fake clock makes the stamps exact."""

    @pytest.fixture
    def clock(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        return now

    @pytest.fixture
    def slow_c_value(self, monkeypatch, clock):
        # Each c_value call an identity check makes costs exactly 2 fake seconds.
        def fake(*args):
            clock[0] += 2.0
            return c_value(*args)
        monkeypatch.setattr(verify, "c_value", fake)

    def test_add_stamps_time_since_previous_add(self, clock):
        rep = VerificationReport()
        clock[0] += 0.5
        rep.add(Record("main", {}, "pass"))
        clock[0] += 0.25
        rep.add(Record("main", {}, "pass", wall_ms=99.0))
        assert [r.wall_ms for r in rep.records] == [500.0, 250.0]

    def test_extend_keeps_stamps(self, clock, monkeypatch):
        # run_campaign appends each task's records with the stamps its task gave
        monkeypatch.setattr(verify, "_run_task",
                            lambda task: [Record("main", {}, "pass", wall_ms=7.0)])
        clock[0] += 1.0
        rep = run_campaign(CampaignConfig(max_weight=2, identities=("main",)))
        assert rep.records and {r.wall_ms for r in rep.records} == {7.0}

    def test_eval_first_record_carries_symbolic_values(self, slow_c_value):
        rep = eval_crosscheck(MultiIndex((2, 1)), 1, 1, [Fraction(2, 3), Fraction(5)])
        assert [r.wall_ms for r in rep.records] == [2000.0, 0.0]

    def test_main_records_cover_every_c_value(self, slow_c_value):
        rep = verify_main_identity(MultiIndex((1, 2)), 1, 1)
        assert [r.wall_ms for r in rep.records] == [2000.0] * 4


class TestIdentityDrivers:
    def test_main_identity_family(self):
        rep = verify_main_identity(MultiIndex((2, 1)), 2, 2)
        assert rep.all_passed
        assert len(rep.records) == 9

    def test_duality_family(self):
        rep = verify_duality(MultiIndex((1, 2)), 4)
        assert rep.all_passed
        assert len(rep.records) == 5

    def test_inductive_relations_preconditions(self):
        with pytest.raises(ValueError, match="neither case applies to mu=2,1, nu=2,1"):
            verify_inductive_relations(MultiIndex((2, 1)), MultiIndex((2, 1)), 2, 2, 3)
        # the one pair of weight 1 fails the case test
        with pytest.raises(ValueError, match="neither case applies to mu=1, nu=1"):
            verify_inductive_relations(MultiIndex((1,)), MultiIndex((1,)), 2, 2, 3)
        with pytest.raises(ValueError, match="weight mismatch"):
            verify_inductive_relations(MultiIndex((2,)), MultiIndex((1, 1, 1)), 2, 2, 3)
        # case 2 by its first parts, but the weights differ: no reduction is tried
        with pytest.raises(ValueError, match="weight mismatch"):
            verify_inductive_relations(MultiIndex((1,)), MultiIndex((2,)), 2, 2, 3)

    def test_kernel_recurrence_record_passes(self):
        [rec] = verify_injectivity(4, DEFAULT_SEED, count=0).records
        assert rec.identity == "lemma370"
        assert rec.params == {"check": "kernel_recurrence", "orders": 4}
        assert rec.status == "pass" and rec.witness is None

    @pytest.mark.parametrize("name, wrong", [("lowering_op_i_shifted", lowering_op_i),
                                             ("lowering_op_ii_shifted", lowering_op_ii)])
    def test_kernel_recurrence_fails_for_wrong_operator(self, monkeypatch, name, wrong):
        # negative control: the unshifted operator does not satisfy the recurrence
        monkeypatch.setattr(verify, name, wrong)
        [rec] = verify_injectivity(4, DEFAULT_SEED, count=0).records
        assert rec.status == "fail"
        assert not qrat_from_witness(rec.witness).is_zero

    def test_injectivity_fails_with_a_kernel_element_for_a_zero_operator(self, monkeypatch):
        # negative control: the zero operator sends every input to the zero array
        monkeypatch.setattr(verify, "lowering_op_i_shifted", lambda: 0 * IDENTITY)
        records = [r for r in verify_injectivity(4, DEFAULT_SEED, count=2).records
                   if r.params["check"] == "injectivity" and r.params["case"] == 1]
        assert len(records) == 2
        for rec in records:
            assert rec.status == "fail"
            assert not qrat_from_witness(rec.witness).is_zero

    @pytest.mark.parametrize("run", [
        lambda: verify.verify_closed_difference(3, DEFAULT_SEED, count=2),
        lambda: verify_main_identity(MultiIndex((2, 1)), 2, 2),
    ], ids=["cor250", "main"])
    def test_iterated_difference_checks_fail_for_off_by_one_step(self, monkeypatch, run):
        monkeypatch.setattr(verify, "delta_qk_table", _off_by_one_table)
        failures = run().failures()
        assert failures
        for rec in failures:
            assert rec.params["k"] >= 1
            assert rec.identity == "cor250" or rec.params["check"] == "iterated_vs_closed"
            assert not qrat_from_witness(rec.witness).is_zero

    @pytest.mark.parametrize("token", list(NEGATIVE_CONTROLS))
    def test_family_fails_under_its_negative_control(self, monkeypatch, token):
        name, mutant = NEGATIVE_CONTROLS[token]
        monkeypatch.setattr(verify, name, mutant)
        failures = run_campaign(CampaignConfig(
            max_weight=3, max_k=2, series_orders=3, series_max_weight=3,
            identities=(token,), eval_points=())).failures()
        assert failures
        for rec in failures:
            assert rec.identity == token
            assert _shows_its_discrepancy(rec), rec

    @pytest.mark.parametrize("control", list(SECOND_CONTROLS))
    def test_family_fails_under_its_second_control(self, monkeypatch, control):
        token, module, name, mutant, points = SECOND_CONTROLS[control]
        monkeypatch.setattr(module, name, mutant)
        failures = run_campaign(CampaignConfig(
            max_weight=3, max_k=2, series_orders=3, series_max_weight=3,
            identities=(token,), eval_points=points)).failures()
        assert failures
        for rec in failures:
            assert rec.identity == token
            assert _shows_its_discrepancy(rec), rec
            if points:
                assert rec.params["check"] == "eval", rec

    def test_every_token_has_a_negative_control(self):
        assert set(NEGATIVE_CONTROLS) == set(IDENTITY_TOKENS)

    def test_inductive_relations_both_cases(self):
        rep = verify_inductive_relations(MultiIndex((2,)), MultiIndex((1, 1)), 3, 3, 4)
        assert rep.all_passed
        rep = verify_inductive_relations(MultiIndex((1, 1)), MultiIndex((2,)), 3, 3, 4)
        assert rep.all_passed

    def test_series_suite_small(self):
        rep = run_campaign(SMALL._replace(
            identities=("thm380", "lemma360", "lemma370", "prop240")))
        assert rep.all_passed
        kinds = {r.identity for r in rep.records}
        assert kinds == {"thm380", "lemma360", "lemma370", "prop240"}


class TestEvalCrosscheck:
    def test_default_points_agree(self):
        rep = eval_crosscheck(MultiIndex((2, 1)), 1, 2,
                              [Fraction(2, 3), Fraction(5), Fraction(-2)])
        assert rep.all_passed
        assert rep.counts["skip"] == 0

    def test_pole_is_skipped_not_failed(self):
        rep = eval_crosscheck(MultiIndex((2,)), 0, 1, [Fraction(-1)])
        assert rep.counts == {"total": 1, "pass": 0, "fail": 0, "skip": 1}
        assert rep.all_passed

    def test_direct_route_matches_symbolic(self):
        for parts, n, k in (((1,), 2, 2), ((2,), 1, 1), ((1, 2), 2, 1)):
            mu = MultiIndex(parts)
            q0 = Fraction(3, 7)
            assert direct.a_at(mu, n, q0) == a_value(mu, n).evaluate(q0)
            assert direct.b_at(mu, n, q0) == b_value(mu, n).evaluate(q0)
            assert direct.c_at(mu, mu.dual(), n, k, q0) == c_value(
                mu, mu.dual(), n, k).evaluate(q0)
            assert direct.delta_closed_a_at(mu, n, k, q0) == delta_qk_closed(
                a_seq(mu), n, k).evaluate(q0)


class TestCampaign:
    def test_single_weight_single_identity(self):
        cfg = CampaignConfig(max_weight=1, identities=("main",), eval_points=())
        rep = run_campaign(cfg)
        assert rep.all_passed
        assert {tuple(r.params["mu"]) for r in rep.records} == {(1,)}

    def test_duality_weight_three_has_seven_indices(self):
        cfg = CampaignConfig(max_weight=3, max_k=2, identities=("duality",),
                             eval_points=())
        rep = run_campaign(cfg)
        assert rep.all_passed
        mus = {tuple(r.params["mu"]) for r in rep.records}
        assert len(mus) == 7  # 2^0 + 2^1 + 2^2

    def test_small_campaign_all_identities(self):
        rep = run_campaign(SMALL)
        assert rep.all_passed
        assert rep.counts["fail"] == 0
        seen = {r.identity for r in rep.records}
        assert seen == {"duality", "main", "prop340", "prop350", "thm380",
                        "lemma360", "lemma370", "prop240", "cor250"}

    @pytest.mark.parametrize("token", IDENTITY_TOKENS)
    def test_single_token_campaign_yields_only_its_records(self, token):
        cfg = CampaignConfig(max_weight=2, max_n=1, max_k=1, series_orders=3,
                             series_max_weight=2, identities=(token,))
        rep = run_campaign(cfg)
        assert rep.all_passed
        assert rep.records
        assert {r.identity for r in rep.records} == {token}
        evals = [r for r in rep.records if r.params.get("check") == "eval"]
        # main adds one sampled-evaluation task per multi-index, 3 points each
        assert len(evals) == (9 if token == "main" else 0)

    def test_report_schema(self):
        rep = run_campaign(CampaignConfig(max_weight=1, identities=("duality",),
                                          eval_points=()))
        doc = json.loads(rep.to_json())
        assert doc["schema"] == 1
        assert doc["random_seed"] == DEFAULT_SEED
        assert doc["config"]["max_weight"] == 1
        assert doc["summary"]["fail"] == 0
        assert doc["summary"]["total"] == len(doc["records"])
        first = doc["records"][0]
        assert set(first) == {"identity", "params", "status", "witness",
                              "valid_region", "wall_ms"}

    def test_parallel_report_identical_modulo_timing(self):
        seq_rep = run_campaign(SMALL)
        par_rep = run_campaign(
            CampaignConfig(max_weight=3, max_n=2, max_k=2, series_orders=4,
                           series_max_weight=2, parallelism=2))
        a = json.loads(seq_rep.to_json(include_timing=False))
        b = json.loads(par_rep.to_json(include_timing=False))
        a["config"].pop("parallelism")
        b["config"].pop("parallelism")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        # every fork goes through a wrapper around the real os.fork; the calling
        # process is one of the workers, so w workers take w - 1 forks
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        for weight, ids, tasks, made in ((2, ("duality",), 3, 2), (1, ("duality",), 1, 0),
                                         (1, ("prop340",), 0, 0)):
            forks.clear()
            cfg = CampaignConfig(max_weight=weight, max_n=1, max_k=1, series_max_weight=weight,
                                 identities=ids, parallelism=500)
            rep = run_campaign(cfg)
            assert len(forks) == made
            assert rep.config.parallelism == 500 and rep.counts["fail"] == 0
            serial = run_campaign(cfg._replace(parallelism=1))
            assert [r.to_dict(include_timing=False) for r in rep.records] == [
                r.to_dict(include_timing=False) for r in serial.records]
            assert bool(rep.records) == bool(tasks)
        _assert_no_child_left()

    def test_repeat_run_byte_identical_modulo_timing(self):
        cfg = CampaignConfig(max_weight=2, max_n=1, max_k=1, series_orders=3,
                             series_max_weight=2)
        one = run_campaign(cfg).to_json(include_timing=False)
        two = run_campaign(cfg).to_json(include_timing=False)
        assert one == two

    def test_golden_report_digest(self):
        # Pins every canonical value of a small campaign over all families:
        # a change to the arithmetic kernel must leave this report byte-identical.
        cfg = CampaignConfig(max_weight=3, max_n=2, max_k=2, series_orders=3,
                             series_max_weight=2)
        rep = run_campaign(cfg)
        assert rep.counts == {"total": 304, "pass": 304, "fail": 0, "skip": 0}
        digest = hashlib.sha256(rep.to_json(include_timing=False).encode()).hexdigest()
        assert digest == "2c487ac9bd77dabd402aeee1e730f28e5d2a2bce813304d7a8cd1e69cbf3cb13"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# duality at weight 2 has three tasks, so at parallelism 3 the calling process
# runs one and each of two forked workers another
FORKED = CampaignConfig(max_weight=2, max_n=1, max_k=1, identities=("duality",),
                        parallelism=3)


def _split_duality(monkeypatch, in_parent, in_child):
    # verify_duality, with `in_parent` or `in_child` run first depending on
    # whether the calling process or a forked worker runs it
    parent = os.getpid()
    real = verify.verify_duality

    def driver(mu, k_max):
        (in_parent if os.getpid() == parent else in_child)()
        return real(mu, k_max)

    monkeypatch.setattr(verify, "verify_duality", driver)


class TwoArgError(Exception):
    # pickles, but unpickling calls TwoArgError(a), without b
    def __init__(self, a, b):
        super().__init__(a)


class TestForkedWorkers:
    def test_worker_exception_is_raised_in_the_caller(self, monkeypatch):
        def fail():
            raise ValueError("bad task in a worker")

        _split_duality(monkeypatch, lambda: None, fail)
        with pytest.raises(ValueError, match="^bad task in a worker$") as caught:
            run_campaign(FORKED)
        # the child's traceback comes along as the cause
        assert "in fail" in str(caught.value.__cause__)
        _assert_no_child_left()

    @pytest.mark.parametrize("kind", ["unpicklable", "not unpicklable"])
    def test_worker_exception_that_does_not_travel_keeps_its_repr(self, monkeypatch, kind):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def fail():
            raise (LocalError if kind == "unpicklable" else TwoArgError)("lost", "task")

        _split_duality(monkeypatch, lambda: None, fail)
        with pytest.raises(RuntimeError, match=r"Error\('lost'") as caught:
            run_campaign(FORKED)
        assert "in fail" in str(caught.value.__cause__)
        _assert_no_child_left()

    def test_worker_without_a_result_names_its_exit_status(self, monkeypatch):
        _split_duality(monkeypatch, lambda: None, lambda: os._exit(3))
        with pytest.raises(RuntimeError, match=r"worker 1 .*exit status 3\)"):
            run_campaign(FORKED)
        _assert_no_child_left()

    def test_callers_own_failure_reaps_its_workers(self, monkeypatch):
        def fail():
            raise KeyError("the caller's share")

        _split_duality(monkeypatch, fail, lambda: time.sleep(60))
        start = time.monotonic()
        with pytest.raises(KeyError, match="the caller's share"):
            run_campaign(FORKED)
        # the sleeping workers were killed, not waited for
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    def test_workers_report_in_task_order(self):
        serial = run_campaign(FORKED._replace(parallelism=1))
        rep = run_campaign(FORKED)
        assert [r.to_dict(include_timing=False) for r in rep.records] == [
            r.to_dict(include_timing=False) for r in serial.records]
        _assert_no_child_left()

    def test_no_fork_means_no_pool(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        FORKED._replace(parallelism=1).validate()
        with pytest.raises(ValueError, match="parallelism > 1 needs os.fork"):
            FORKED._replace(parallelism=2).validate()


def test_enumeration_order_is_stable():
    expected = [(2,), (1, 1)]
    assert [tuple(mu) for mu in enumerate_by_weight(2)] == expected
