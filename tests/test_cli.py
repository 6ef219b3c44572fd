import json

import numpy as np
import pytest
from click.testing import CliRunner

from glspec import semigroup
from glspec.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from glspec.core import ContourError, make_params
from glspec.density import lambda_values

VERIFY_ALL_CHECKS = [
    "biorth ||G-I||_max",
    "eigen max residual/sup",
    "mellin factorization",
    "representation agreement",
    "intertwine p_2",
    "bound region fixed_x ratio40/ratio20",
    "bound region middle ratio40/ratio20",
    "bound region suboptimal ratio40/ratio20",
    "bound region large ratio40/ratio20",
    "norm envelope slack (main)",
    "norm envelope slack (aux)",
]


def test_verify_all_json():
    res = CliRunner().invoke(main, ["verify", "all", "--format", "json"])
    assert res.exit_code == EXIT_OK, res.output
    report = json.loads(res.stdout)
    assert [c["name"] for c in report] == VERIFY_ALL_CHECKS
    assert all(c["pass"] is True for c in report)
    assert all(c["value"] <= c["bound"] for c in report)


def test_verify_biorth_irrational_alpha_and_high_order():
    res = CliRunner().invoke(main, ["verify", "biorth", "--alpha", "0.7071067811865476"])
    assert res.exit_code == EXIT_OK, res.output
    res = CliRunner().invoke(main, ["verify", "biorth", "--n", "40"])
    assert res.exit_code == EXIT_OK, res.output


def test_verify_eigen_up_to_alpha_one():
    # at alpha >= 0.96 delta = v^(1/(1-alpha)) underflows at some nodes of
    # the generator's grid, which must still give the integral's full value
    for alpha in ("0.96", "0.99", "0.999"):
        for beta in ("0", "1"):
            res = CliRunner().invoke(main, ["verify", "eigen", "--alpha", alpha, "--beta", beta])
            assert res.exit_code == EXIT_OK, (alpha, beta, res.output)


def test_verify_all_reports_every_check_near_alpha_one():
    # every check runs and reports; intertwine p_2 fails there on its own
    # (1.3e-5 against 1e-6: lambda's fixed panels at alpha -> 1)
    res = CliRunner().invoke(main, ["verify", "all", "--alpha", "0.99", "--beta", "1",
                                    "--format", "json"])
    assert res.exit_code == EXIT_VERIFY_FAIL, res.output
    report = json.loads(res.stdout)
    assert [c["name"] for c in report] == VERIFY_ALL_CHECKS
    assert report[1]["pass"] is True


def test_verify_runs_every_check_past_one_that_raises(monkeypatch):
    # a check that raises reports its error, the others still run and
    # report, and the exit code is that of a numerical failure
    def contour_fails(*args, **kwargs):
        raise ContourError("kernel contour failed to decay below tolerance")

    monkeypatch.setattr(semigroup, "intertwine_check", contour_fails)
    res = CliRunner().invoke(main, ["verify", "all"])
    assert res.exit_code == EXIT_NUMERICAL, res.output
    lines = res.stdout.splitlines()
    assert len(lines) == len(VERIFY_ALL_CHECKS)
    assert lines[4] == ("ERROR intertwine p_2: ContourError: kernel contour failed "
                        "to decay below tolerance")
    assert all(line.startswith("PASS  ") for i, line in enumerate(lines) if i != 4)
    res = CliRunner().invoke(main, ["verify", "all", "--format", "json"])
    assert res.exit_code == EXIT_NUMERICAL, res.output
    report = json.loads(res.stdout)
    assert [c["name"] for c in report] == VERIFY_ALL_CHECKS
    assert report[4]["error"].startswith("ContourError: ") and report[4]["pass"] is False
    assert all(c["pass"] is True and "error" not in c for i, c in enumerate(report) if i != 4)


def test_verify_rejects_csv_format():
    res = CliRunner().invoke(main, ["verify", "all", "--format", "csv"])
    assert res.exit_code == EXIT_USAGE
    assert "Invalid value for '--format'" in res.output


@pytest.mark.parametrize("args", [["eval", "P", "--x", "0:1:0"], ["eval", "P", "--x", "0:1:-0.5"],
                                  ["eval", "expand", "--f", "x^a"],
                                  ["eval", "expand", "--f", "L2.5"],
                                  ["eval", "expand", "--f", "L-1"], ["eval", "expand", "--f", "P-3"],
                                  ["eval", "P", "--n", "-1"], ["eval", "W", "--q", "-1"],
                                  ["verify", "eigen", "--n", "-1"]])
def test_usage_errors_exit_with_the_usage_code(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == EXIT_USAGE, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_eval_lambda_near_alpha_one():
    res = CliRunner().invoke(main, ["eval", "lambda", "--alpha", "0.95"])
    assert res.exit_code == EXIT_OK, res.output
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "z,lambda"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows[0, 0] == 0.0 and len(rows) == 101
    assert rows[:, 1].tolist() == lambda_values(make_params(0.95, 1.0), rows[:, 0]).tolist()


def test_eval_w_derivative_below_double_range():
    # W_10'''(2) at (0.1, 0) is below the double range: -0, not a numerical failure
    res = CliRunner().invoke(main, ["eval", "W", "--q", "3", "--alpha", "0.1", "--beta", "0",
                                    "--n", "10", "--x", "2"])
    assert res.exit_code == EXIT_OK, res.output
    assert res.stdout.strip().splitlines() == ["x,W_10^(3)", "2,-0"]


def test_verify_norms_at_the_defaults():
    # norm envelopes over n = 15..25, both norms of each R_n
    res = CliRunner().invoke(main, ["verify", "norms"])
    assert res.exit_code == EXIT_OK, res.output
    lines = res.stdout.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS  norm envelope slack (main)", "PASS  norm envelope slack (aux)"]
