import json

import numpy as np
from click.testing import CliRunner

from glspec.cli import EXIT_OK, EXIT_USAGE, main
from glspec.core import make_params
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


def test_verify_rejects_csv_format():
    res = CliRunner().invoke(main, ["verify", "all", "--format", "csv"])
    assert res.exit_code == EXIT_USAGE
    assert "Invalid value for '--format'" in res.output


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
