"""Command-line surface: parsing, config layering, emission formats,
byte-level determinism, and the verify report contract."""

import csv
import json
import math

import pytest

from bsclab.cli import VerifyReport, _parse_n_grid, _parse_rates, main, run_verify


def run_cli(args):
    return main(args)


class TestParsing:
    def test_geometric_span(self):
        assert _parse_n_grid("512..8192:geometric") == [512, 1024, 2048, 4096, 8192]

    def test_geometric_default_kind(self):
        assert _parse_n_grid("8..32") == [8, 16, 32]

    def test_comma_list(self):
        assert _parse_n_grid("8,12,20") == [8, 12, 20]

    def test_bad_progression(self):
        with pytest.raises(ValueError):
            _parse_n_grid("8..32:linear")

    def test_rates(self):
        assert _parse_rates("0.05,0.2,0.3") == [0.05, 0.2, 0.3]


class TestConfig:
    def test_config_supplies_missing_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 0.25\nrate = 0.2\nn = 12\n# comment\ntie-policy = error\n")
        assert run_cli(["oracle", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 1
        assert rows[0]["p"] == "0.25" and rows[0]["n"] == "12"

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=0.25\nrate=0.2\nn=12\n")
        assert run_cli(["oracle", "--config", str(cfg), "--p", "0.1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows[0]["p"] == "0.1"

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p 0.25\n")
        assert run_cli(["oracle", "--config", str(cfg)]) == 2

    def test_missing_config_is_usage_error(self, tmp_path):
        assert run_cli(["oracle", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestCsvSurfaces:
    def test_exponents_columns_and_rows(self, capsys):
        assert run_cli(["exponents", "--p", "0.1", "--rates", "0.05,0.2,0.3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "p,R,delta_R,r0,b0,R_cr,R_crit,C,branch1,branch2,branch3,"
            "restricted_variational,classical,selected"
        )
        assert len(lines) == 4

    def test_oracle_columns_and_rows(self, capsys):
        assert run_cli(["oracle", "--p", "0.1", "--rate", "0.3",
                        "--n-grid", "16..64:geometric"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p,R,n,log_M,tie_policy,ln_Pe,per_step_slope"
        assert len(lines) == 4  # header + 3 grid points

    def test_simulate_columns(self, capsys):
        assert run_cli(["simulate", "--p", "0.1", "--rate", "0.3", "--n", "12",
                        "--trials", "2000", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "p,R,n,mode,tie_policy,trials,errors,estimate,ci_half_width,seed"
        )
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["mode"] == "distance-sampled" and row["trials"] == "2000"

    def test_statsum_columns(self, capsys):
        assert run_cli(["statsum", "--p", "0.1", "--rate", "0.1", "--n", "40",
                        "--samples", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "z,R,n,M,samples,mean_lnS,median_lnS,threshold,"
            "violation_frequency,ln_bound,predicted_per_symbol"
        )

    def test_json_format(self, capsys):
        assert run_cli(["oracle", "--p", "0.1", "--rate", "0.3", "--n", "24",
                        "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list) and rows[0]["n"] == 24


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["exponents", "--p", "0.1", "--rates", "0.05,0.2"],
            ["oracle", "--p", "0.1", "--rate", "0.3", "--n-grid", "16,32"],
            ["simulate", "--p", "0.1", "--rate", "0.3", "--n", "12",
             "--trials", "3000", "--seed", "9"],
            ["simulate", "--p", "0.1", "--rate", "0.3", "--n", "12",
             "--trials", "3000", "--seed", "9", "--mode", "full"],
            ["statsum", "--p", "0.1", "--rate", "0.1", "--n", "40",
             "--samples", "80", "--seed", "4"],
            ["verify", "--p", "0.1", "--rates", "0.05,0.2,0.3",
             "--n-grid", "64,128,256", "--trials", "4000", "--samples", "100"],
        ],
        ids=["exponents", "oracle", "simulate", "simulate-full", "statsum", "verify"],
    )
    def test_byte_identical_reruns(self, args, tmp_path):
        out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@pytest.fixture(scope="module")
def report():
    return run_verify(0.1, [0.05, 0.2, 0.3], [64, 128, 256], 4000, seed=0, samples=100)


class TestVerify:
    def test_top_level_keys_exact(self, report):
        want = {
            "inputs", "identity_checks", "threshold_order", "branch_table",
            "oracle_slopes", "statsum_findings", "open_flags", "versions", "seed",
        }
        assert set(report.to_dict().keys()) == want

    def test_round_trips_through_json(self, report):
        d = report.to_dict()
        assert json.loads(json.dumps(d)) == d

    def test_identity_rows_carry_values(self, report):
        assert report.identity_checks
        for row in report.identity_checks:
            assert {"name", "passed", "measured", "expected", "tolerance"} <= set(row)

    def test_internal_checks_pass(self, report):
        assert isinstance(report, VerifyReport)
        assert report.internal_ok

    def test_threshold_order_record(self, report):
        t = report.threshold_order
        assert t["R_crit"] == pytest.approx(0.5493061443340548, abs=1e-9)
        assert t["R_cr"] == pytest.approx(0.130812035941137, abs=1e-9)
        assert t["ordering_as_printed"] is False
        assert any(f["flag"] == "threshold-order" for f in report.open_flags)

    def test_exit_code_zero_despite_flags(self, tmp_path):
        rc = run_cli(["verify", "--p", "0.1", "--rates", "0.2",
                      "--n-grid", "64,128,256", "--trials", "2000",
                      "--samples", "50", "--out", str(tmp_path / "v.json")])
        assert rc == 0

    def test_default_rates_stop_below_capacity(self, tmp_path):
        # capacity at p = 0.2 is 0.193, so only the default rate 0.05 stays
        out = tmp_path / "v.json"
        rc = run_cli(["verify", "--p", "0.2", "--n-grid", "64,128,256", "--trials", "2000",
                      "--samples", "50", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["inputs"]["rates"] == [0.05]

    def test_no_default_rate_below_capacity(self, capsys):
        assert run_cli(["verify", "--p", "0.4"]) == 2
        assert "capacity" in capsys.readouterr().err

    def test_table_sizes_match_inputs(self, report):
        assert len(report.branch_table) == 3
        assert len(report.oracle_slopes) == 3
        assert all(len(s["per_step"]) == 2 for s in report.oracle_slopes)


class TestUsageErrors:
    def test_bad_n_grid(self):
        assert run_cli(["oracle", "--p", "0.1", "--rate", "0.3",
                        "--n-grid", "8..32:fibonacci"]) == 2

    def test_bad_p(self):
        assert run_cli(["exponents", "--p", "0.7"]) == 2

    def test_statsum_rejects_degenerate_channel(self):
        assert run_cli(["statsum", "--p", "0.5", "--rate", "0.1", "--n", "40",
                        "--samples", "10"]) == 2
