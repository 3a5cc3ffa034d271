"""Command-line interface behaviour and exit codes."""

from __future__ import annotations

import json

import pytest

from qharmonic import cli
from qharmonic.cli import main
from qharmonic.verify import IDENTITY_TOKENS, CampaignConfig, VerificationReport

SERIES_TOKENS = ("thm380", "lemma360", "lemma370", "prop240")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dual(capsys):
    code, out, _ = run_cli(capsys, "dual", "2,2")
    assert code == 0
    assert out.strip() == "1,2,1"


def test_dual_rejects_malformed(capsys):
    code, _, err = run_cli(capsys, "dual", "2,0")
    assert code == 2
    assert "error" in err


def test_compute_a(capsys):
    code, out, _ = run_cli(capsys, "compute", "a", "1,1", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(2 + q) / (1 + 2*q + q^2)"
    assert "num coeffs: ['2', '1']" in out
    assert "den coeffs: ['1', '2', '1']" in out


def test_compute_a_with_evaluation(capsys):
    code, out, _ = run_cli(capsys, "compute", "a", "1,1", "1", "--at", "2/3")
    assert code == 0
    assert "value at q = 2/3: 24/25" in out


def test_compute_b(capsys):
    code, out, _ = run_cli(capsys, "compute", "b", "1,1", "0")
    assert code == 0
    assert out.splitlines()[0] == "(q) / (1)"


def test_compute_c(capsys):
    code, out, _ = run_cli(capsys, "compute", "c", "1", "1", "1", "1")
    assert code == 0
    # c for the pair (1),(1) at (1,1): [1]![1]!/[3]! = 1/((1+q)(1+q+q^2))
    assert out.splitlines()[0] == "(1) / (1 + 2*q + 2*q^2 + q^3)"


def test_compute_c_weight_mismatch(capsys):
    code, _, err = run_cli(capsys, "compute", "c", "2", "1,1,1", "0", "0")
    assert code == 2
    assert "weight mismatch" in err


def test_compute_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "compute", "a", "1,1")
    assert code == 2
    assert "error" in err


def test_compute_pole(capsys):
    code, _, err = run_cli(capsys, "compute", "a", "1", "1", "--at", "-1")
    assert code == 2
    assert "vanishes" in err


def test_compute_pole_prints_nothing_to_stdout(capsys):
    code, out, err = run_cli(capsys, "compute", "a", "1", "1", "--at", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: denominator vanishes at q = -1\n"


def test_compute_bad_point_is_rejected_before_the_value(capsys):
    code, out, err = run_cli(capsys, "compute", "a", "1,1", "3", "--at", "abc")
    assert code == 2
    assert out == ""
    assert "abc" in err


@pytest.mark.parametrize(
    "tokens", [(t,) for t in IDENTITY_TOKENS] + [SERIES_TOKENS],
    ids=list(IDENTITY_TOKENS) + ["series"])
def test_verify_small(capsys, tokens):
    code, out, _ = run_cli(capsys, "verify", *tokens, "--max-weight", "2",
                           "--max-n", "1", "--max-k", "1", "--orders", "3")
    assert code == 0
    assert out.startswith("ok:")
    assert out.strip().endswith("0 failed, 0 skipped")


def test_verify_defaults_come_from_campaign_config(capsys):
    # weight <= 2 gives 3 multi-indices; the default max_k = 4 gives k = 0..4
    assert CampaignConfig().max_k == 4
    code, out, _ = run_cli(capsys, "verify", "duality", "--max-weight", "2")
    assert code == 0
    assert out.strip() == "ok: 15 passed, 0 failed, 0 skipped"


def test_verify_rejects_unknown_token():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "series"])
    assert exc.value.code == 2


def test_compute_negative_index(capsys):
    code, _, err = run_cli(capsys, "compute", "a", "1,1", "-1")
    assert code == 2
    assert "n must be >= 0, got -1" in err


def test_campaign_with_config_and_report(tmp_path, capsys):
    config = tmp_path / "campaign.cfg"
    config.write_text(
        "max_weight = 2\nmax_n = 1\nmax_k = 1\nseries_orders = 3\n"
        "series_max_weight = 2\nidentities = duality, main\n"
        "eval_points = 2/3\nparallelism = 1\n",
        encoding="utf-8")
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "campaign", "--config", str(config),
                           "--json", str(report_path))
    assert code == 0
    assert f"report written to {report_path}" in out
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["schema"] == 1
    assert doc["summary"]["fail"] == 0
    identities = {r["identity"] for r in doc["records"]}
    assert identities == {"duality", "main"}


def test_campaign_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("identities = nonsense\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "campaign", "--config", str(config))
    assert code == 2
    assert "unknown identities" in err


def test_campaign_repeated_config_key(tmp_path, capsys):
    config = tmp_path / "twice.cfg"
    config.write_text("max_n = 2\nmax_k = 1\nmax_n: 3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "campaign", "--config", str(config))
    assert code == 2
    assert out == ""
    assert "repeated config key: 'max_n'" in err


def test_campaign_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    code, _, err = run_cli(capsys, "campaign", "--config", str(missing))
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


def test_campaign_json_in_missing_directory(tmp_path, capsys):
    config = tmp_path / "campaign.cfg"
    config.write_text("max_weight = 1\nmax_k = 0\nidentities = duality\n", encoding="utf-8")
    report_path = tmp_path / "absent" / "report.json"
    code, _, err = run_cli(capsys, "campaign", "--config", str(config),
                           "--json", str(report_path))
    assert code == 2
    assert err.startswith("error: ") and str(report_path) in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_campaign_json_directory_checked_before_the_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_campaign",
                        lambda config: calls.append(config) or VerificationReport(config))
    report_path = tmp_path / "absent" / "report.json"
    code, _, err = run_cli(capsys, "campaign", "--json", str(report_path))
    assert code == 2
    assert err.startswith("error: ") and str(report_path) in err
    assert calls == []
