import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depbernstein import checks
from depbernstein.cli import main
from depbernstein.mixing import MarkovChain


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]]}))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "P": [[0.75, 0.25], [0.25, 0.75]],
        "D": [[1.0, 0.0], [0.0, -0.5]],
        "tau_map": [1.0, -1.0],
    }))
    return str(path)


class TestCantorCommand:
    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "cantor", "--A", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "depbernstein/1"
        assert set(payload) >= {"A", "delta", "ell", "n", "d", "K"}
        assert payload["A"] == 100
        assert payload["K"][0] == 1 and payload["K"][-1] == 100
        assert len(payload["K"]) == 94

    def test_level_blocks(self, capsys):
        code, out = run_cli(capsys, "cantor", "--A", "100", "--level", "1")
        payload = json.loads(out)
        assert code == 0 and len(payload["blocks"]) == 2

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "cantor", "--A", "10", "--format", "csv")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0
        assert rows[0] == ["set", "index"]
        assert len(rows) == 11  # header + the 10 kept indices (fallback regime)

    def test_invalid_A(self, capsys):
        code, _ = run_cli(capsys, "cantor", "--A", "1")
        assert code == 3

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "cantor.json"
        code, out = run_cli(capsys, "cantor", "--A", "50", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["A"] == 50


class TestBoundCommand:
    ARGS = ("--n", "4", "--d", "1", "--M", "1", "--v", "1", "--c", "100")

    def test_tail(self, capsys):
        code, out = run_cli(capsys, "bound", "--kind", "tail", *self.ARGS,
                            "--x", "40")
        payload = json.loads(out)
        assert code == 0
        assert payload["bound"] == pytest.approx(0.6677, abs=1e-3)
        assert payload["log_bound"] == pytest.approx(math.log(payload["bound"]), rel=1e-12)
        assert payload["config"]["kind"] == "tail"

    def test_laplace(self, capsys):
        code, out = run_cli(capsys, "bound", "--kind", "laplace", *self.ARGS,
                            "--t", "0.05")
        payload = json.loads(out)
        assert code == 0
        assert payload["log_laplace"] == pytest.approx(2.850125, abs=1e-6)

    def test_expectation(self, capsys):
        code, out = run_cli(capsys, "bound", "--kind", "expectation",
                            "--n", "4", "--d", "2", "--M", "1", "--v", "1",
                            "--c", "100")
        assert code == 0 and json.loads(out)["bound"] > 0

    def test_theorem1(self, capsys):
        code, out = run_cli(capsys, "bound", "--kind", "theorem1", *self.ARGS,
                            "--x", "0", "--C", "1.0")
        assert code == 0 and json.loads(out)["bound"] == 1.0

    def test_domain_error_is_exit_3(self, capsys):
        code, _ = run_cli(capsys, "bound", "--kind", "laplace", *self.ARGS,
                          "--t", "10.0")
        assert code == 3

    def test_batch_csv(self, capsys, tmp_path):
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,c,x\n4,1,1,1,100,40\n8,2,1,1,100,40\n"
                         "1024,4,1,0.5,0.69,3.5e6\n")
        out_path = tmp_path / "bounds.csv"
        code, _ = run_cli(capsys, "bound", "--kind", "tail",
                          "--batch", str(batch), "--out", str(out_path))
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 3
        assert float(rows[0]["bound"]) == pytest.approx(0.6677, abs=1e-3)
        assert {"bound", "log_bound", "t_star"} <= set(rows[0])
        # the bound underflows to 0 there; its log stays finite
        assert float(rows[2]["bound"]) == 0.0
        assert float(rows[2]["log_bound"]) == pytest.approx(-750.43, abs=0.01)


class TestMixingCommand:
    def test_csv_profile(self, capsys, chain_file):
        code, out = run_cli(capsys, "mixing", "--chain", chain_file,
                            "--beta-k", "1..5")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0
        assert rows[0] == ["k", "beta_k", "envelope"]
        for i, row in enumerate(rows[1:], start=1):
            assert int(row[0]) == i
            assert float(row[1]) == pytest.approx(0.5 ** (i + 1), abs=1e-12)

    def test_fit_c_json(self, capsys, chain_file):
        code, out = run_cli(capsys, "mixing", "--chain", chain_file,
                            "--beta-k", "1..50", "--fit-c", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["c"] == pytest.approx(51.0 / 49.0 * np.log(2.0), rel=1e-12)
        # fitted envelope dominates every listed coefficient
        for entry in payload["beta"]:
            if entry["k"] >= 2:
                assert entry["beta_k"] <= entry["envelope"] * (1 + 1e-12)

    def test_missing_file_is_exit_3(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "mixing", "--chain", str(tmp_path / "nope.json"))
        assert code == 3

    def test_bad_matrix_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"P": [[1.0, 0.5], [0.5, 0.5]]}))
        code, _ = run_cli(capsys, "mixing", "--chain", str(path))
        assert code == 3


class TestSimulateCommand:
    BASE = ("--n", "8", "--trials", "120", "--seed", "9",
            "--x-grid", "0.5:8:4")

    def test_json_report(self, capsys, model_file):
        code, out = run_cli(capsys, "simulate", "--model", "contraction",
                            "--config", model_file, *self.BASE)
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "depbernstein/1"
        assert payload["trials"] == 120 and payload["n"] == 8
        assert len(payload["tail_grid"]) == 4
        assert len(payload["lambda_max_samples"]) == 120

    def test_csv_report(self, capsys, model_file):
        code, out = run_cli(capsys, "simulate", "--model", "contraction",
                            "--config", model_file, *self.BASE,
                            "--format", "csv")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0
        assert rows[0] == ["x", "p_hat", "ci_low", "ci_high", "certified_bound",
                           "log_bound"]
        assert len(rows) == 5

    def test_byte_identical_reruns(self, capsys, model_file):
        _, first = run_cli(capsys, "simulate", "--model", "contraction",
                           "--config", model_file, *self.BASE)
        _, second = run_cli(capsys, "simulate", "--model", "contraction",
                            "--config", model_file, *self.BASE)
        assert first == second

    def test_worker_count_does_not_change_output(self, capsys, model_file):
        _, one = run_cli(capsys, "simulate", "--model", "contraction",
                         "--config", model_file, *self.BASE, "--workers", "1")
        _, two = run_cli(capsys, "simulate", "--model", "contraction",
                         "--config", model_file, *self.BASE, "--workers", "2")
        assert one == two

    def test_missing_config_key_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]]}))
        code, _ = run_cli(capsys, "simulate", "--model", "contraction",
                          "--config", str(path), *self.BASE)
        assert code == 3

    @pytest.mark.parametrize("model, key, value, named", [
        ("contraction", "P", [[math.nan, 1.0], [0.25, 0.75]], "P rows must be finite"),
        ("contraction", "D", [[1.0, 0.0], [0.0, math.nan]], "entries must be finite"),
        ("contraction", "tau_map", [math.nan, -1.0], "finite |tau|"),
        ("blockcov", "value_map", [1.0, math.nan], "value_map must be finite"),
    ])
    def test_nan_in_config_is_exit_3(self, capsys, tmp_path, model, key, value, named):
        config = {"P": [[0.75, 0.25], [0.25, 0.75]], "D": [[1.0, 0.0], [0.0, -0.5]],
                  "tau_map": [1.0, -1.0], "d": 2, "value_map": [1.0, -1.0], key: value}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))  # writes the NaN literal
        code = main(["simulate", "--model", model, "--config", str(path), *self.BASE])
        assert code == 3
        assert named in capsys.readouterr().err


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["cantor", "bounds", "coupling", "dominance"])
    def test_suites_pass(self, capsys, suite):
        code, out = run_cli(capsys, "verify", suite, "--budget", "20")
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True and payload["failures"] == []
        assert payload["checked"]
        assert all(isinstance(v, int) for v in payload["checked"].values())

    def test_cantor_counts_every_A(self, capsys):
        code, out = run_cli(capsys, "verify", "cantor", "--budget", "120")
        checked = json.loads(out)["checked"]
        assert code == 0 and checked["disjoint_cover"] == 4999
        assert checked["gap_floor"] == 23_401  # every gap level of every A

    @pytest.mark.parametrize("suite", sorted(checks.SUITES))
    def test_spent_budget_stops_every_suite(self, capsys, monkeypatch, suite):
        # a clock that moves on each read: a zero budget is spent by the first case
        monkeypatch.setattr(checks, "monotonic", itertools.count().__next__)
        code, out = run_cli(capsys, "verify", suite, "--budget", "0")
        payload = json.loads(out)
        assert code == 2 and payload["ok"] is False and payload["checked"] == {}
        assert payload["failures"] == [{"invariant": "budget", "case": 0}]

    @pytest.mark.parametrize("table", [[[30, 10], [12, 28]], [[5, 7], [9, 2]],
                                       [[500, 480], [515, 505]], [[1, 0], [0, 1]]])
    def test_independence_pvalue_matches_scipy(self, table):
        from scipy import stats
        expected = stats.chi2_contingency(np.array(table))[1]
        assert checks.independence_pvalue(table) == pytest.approx(expected, rel=1e-13)

    def test_dominance_counts_each_model(self, capsys):
        code, out = run_cli(capsys, "verify", "dominance")
        assert code == 0
        assert set(json.loads(out)["checked"]) == {
            "tail_dominance.iid", "tail_dominance.contraction", "tail_dominance.blockcov"}

    def test_scipy_stats_not_imported(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        code = ("import sys\n"
                "from depbernstein.cli import main\n"
                f"assert main(['verify', 'coupling', '--out', {str(tmp_path / 'v.json')!r}]) == 0\n"
                "print('scipy.stats' in sys.modules)\n")
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_inequality_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "inequalities", "--budget", "30")
        assert code == 0 and json.loads(out)["ok"] is True

    def test_inequality_suite_output_is_pinned(self, capsys):
        # every case runs at the default budget, so the bytes are fixed
        code, out = run_cli(capsys, "verify", "inequalities")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a4bbe69cb1dc81525ac750f3b08f5f977f1a3c498fd517a0f62d42accb52d8ee")
