"""Command-line interface contract tests."""

import json

import pytest

from mlcp import exact_mgf
from mlcp.cli import main
from mlcp.exact_mgf import ln_mgf_exact
from mlcp.params import Params


def write_config(tmp_path, **overrides):
    cfg = {
        "params": {"b": 1.0, "alpha": 0.0, "r": 0.5, "u": 0.0, "a": 0},
        "n_list": [10, 100],
        "tol": 1e-9,
        "seed": 7,
        "samples": 1000,
        "output": "csv",
    }
    for key, value in overrides.items():
        if key == "params":
            cfg["params"].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExact:
    def test_null_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["exact", "--config", cfg]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "n,ln_mgf,seconds"
        assert len(out) == 3
        for line in out[1:]:
            assert float(line.split(",")[1]) == 0.0

    def test_rows_follow_n_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[256, 512, 1024],
                           params={"u": 0.5, "a": 1})
        assert main(["exact", "--config", cfg]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        ns = [int(r.split(",")[0]) for r in rows]
        assert ns == [256, 512, 1024]

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, params={"r": 1.5})
        assert main(["exact", "--config", cfg]) == 2
        err = capsys.readouterr().err
        record = json.loads(err)
        assert record["error"]["constraint"] == "r"

    def test_seventeen_digit_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[64], params={"u": 0.7, "a": 2})
        assert main(["exact", "--config", cfg]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        printed = float(row.split(",")[1])
        direct = ln_mgf_exact(Params(1.0, 0.0, 0.5, 0.7, 2), 64).ln_mgf
        assert printed == direct  # exact round-trip

    def test_json_mirrors_fields(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output="json", n_list=[16])
        assert main(["exact", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["rows"][0]) == {"n", "ln_mgf", "seconds"}

    def test_diagnostic_block(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            output="json",
            n_list=[400],
            params={"u": 0.5, "a": 2, "r": 0.6},
            diagnostic={"eps": 0.05, "m_prime": 10},
        )
        assert main(["exact", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        diag = payload["diagnostics"][0]
        total = diag["S0"] + diag["S1"] + diag["S2"] + diag["S3"]
        assert total == pytest.approx(payload["rows"][0]["ln_mgf"], abs=1e-10)

    def test_diagnostic_evaluates_once(self, tmp_path, capsys, monkeypatch):
        rows = []
        kernel = exact_mgf._log_terms

        def counted(ctx, j):
            rows.append(len(j))
            return kernel(ctx, j)

        monkeypatch.setattr(exact_mgf, "_log_terms", counted)
        params = {"u": 0.5, "a": 2, "r": 0.6}
        cfg = write_config(
            tmp_path,
            output="json",
            n_list=[400, 5000],
            params=params,
            diagnostic={"eps": 0.05, "m_prime": 10},
        )
        assert main(["exact", "--config", cfg]) == 0
        assert sum(rows) == 400 + 5000
        payload = json.loads(capsys.readouterr().out)
        for row in payload["rows"]:
            direct = ln_mgf_exact(Params(1.0, 0.0, 0.6, 0.5, 2), row["n"]).ln_mgf
            assert row["ln_mgf"] == direct

    def test_bad_diagnostic_eps_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            n_list=[100],
            params={"r": 0.95},
            diagnostic={"eps": 0.06, "m_prime": 2},
        )
        assert main(["exact", "--config", cfg]) == 2
        assert "eps" in capsys.readouterr().err


class TestCompare:
    def test_null_case_slope_null(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[10, 100, 1000])
        assert main(["compare", "--config", cfg]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "n,ln_mgf,prediction,residual"
        for line in out[1:-1]:
            assert float(line.split(",")[3]) == 0.0
        assert out[-1].startswith("#") and "slope=null" in out[-1]

    def test_convergence_slope(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            n_list=[256, 512, 1024, 2048, 4096, 8192],
            params={"u": 1.0, "a": 1},
        )
        assert main(["compare", "--config", cfg, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["slope"] <= -0.3
        res = [abs(r["residual"]) for r in payload["rows"]]
        assert res[-1] < res[0]

    def test_csv_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[16, 32, 64], params={"u": 0.5, "a": 1})
        assert main(["compare", "--config", cfg]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "n,ln_mgf,prediction,residual"


class TestMc:
    def test_null_stderr_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[10])
        assert main(["mc", "--config", cfg]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        fields = row.split(",")
        assert float(fields[1]) == 1.0
        assert float(fields[2]) == 0.0

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, n_list=[12], params={"u": 0.5, "a": 2})
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["mc", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["mc", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides_win(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[10], seed=1, samples=500)
        assert main(["mc", "--config", cfg, "--seed", "42", "--samples", "800"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        fields = row.split(",")
        assert fields[-2:] == ["800", "42"]

    def test_ess_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[10])
        assert main(["mc", "--config", cfg]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "n,estimate_E,stderr_E,ln_estimate,ln_stderr,ess,samples,seed"
        assert float(row.split(",")[5]) == 1000.0
        assert main(["mc", "--config", cfg, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["ess"] == 1000.0

    def test_overflowing_estimate_is_null_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[1500], seed=3, samples=3000,
                           params={"b": 0.5, "alpha": 0.5, "r": 1.0, "u": 2.5})
        assert main(["mc", "--config", cfg, "--format", "json"]) == 0

        def reject(token):
            raise ValueError(f"invalid JSON constant {token}")

        row = json.loads(capsys.readouterr().out, parse_constant=reject)["rows"][0]
        assert row["estimate_E"] is None and row["stderr_E"] is None
        assert row["ln_estimate"] > 709.8


class TestIdentities:
    def test_clean_build_exit_zero(self, capsys):
        assert main(["identities"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "name,status,worst_deviation,detail"
        assert all(",pass," in line for line in out[1:])


class TestDumpPolys:
    def test_quartic_row(self, capsys):
        assert main(["dump-polys", "--a-max", "4", "--b", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()
        p04 = [r for r in rows if r.startswith("p0,4,")]
        assert p04 == ["p0,4,3 0 6 0 1"]

    def test_rational_b(self, capsys):
        assert main(["dump-polys", "--a-max", "1", "--b", "3/2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["b"] == "3/2"
        q1_0 = [r for r in payload["rows"] if r["family"] == "q1" and r["index"] == 0]
        # q_{1,0} = b*(2/3 - 5/3 x^2) with b = 3/2
        assert q1_0[0]["coeffs"] == ["1", "0", "-5/2"]

    def test_deterministic_output(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["dump-polys", "--a-max", "6", "--b", "2", "--out", str(out1)]) == 0
        assert main(["dump-polys", "--a-max", "6", "--b", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_b_exit_2(self, capsys):
        assert main(["dump-polys", "--a-max", "2", "--b", "-1"]) == 2


class TestExitCodes:
    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["exact", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_n_list_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[100, 10])
        assert main(["exact", "--config", cfg]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["constraint"] == "n_list"

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[10], params={"u": 0.5, "a": 1})
        assert main(["mc", "--config", cfg, "--seed", "-1"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["constraint"] == "seed"

    @pytest.mark.parametrize("seed", [-3, "x", [1]])
    def test_bad_config_seed_exit_2(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, n_list=[10], seed=seed, params={"u": 0.5, "a": 1})
        assert main(["mc", "--config", cfg]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "DomainError"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("a", 1.5),
            ("a", True),
            ("n_list", [10.7, 20]),
            ("n_list", [True, 20]),
            ("seed", 7.5),
            ("seed", False),
            ("samples", 1000.5),
            ("samples", True),
        ],
    )
    def test_non_integral_config_exit_2(self, tmp_path, capsys, field, value):
        if field == "a":
            cfg = write_config(tmp_path, params={"u": 0.5, "a": value})
        else:
            cfg = write_config(tmp_path, **{field: value})
        assert main(["mc", "--config", cfg]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "DomainError"
        assert record["error"]["constraint"] == field

    def test_integral_float_config_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[10.0], seed=3.0, samples=500.0,
                           params={"u": 0.5, "a": 1.0})
        assert main(["mc", "--config", cfg]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.split(",")[0] == "10"
        assert row.split(",")[-2:] == ["500", "3"]

    def test_bad_config_field_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, params={"b": None})
        assert main(["exact", "--config", cfg]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["constraint"] == "config"

    def test_arithmetic_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def overflow(params, n):
            raise OverflowError("math range error")

        monkeypatch.setattr("mlcp.cli.ln_mgf_exact", overflow)
        cfg = write_config(tmp_path)
        assert main(["exact", "--config", cfg]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "OverflowError"

    def test_library_error_exit_3(self, tmp_path, capsys, monkeypatch):
        # an exception from outside mlcp, such as scipy's or mpmath's
        # ValueError, leaves as a record, not as a traceback on its own
        def fail(params, tol):
            raise ValueError("math domain error")

        monkeypatch.setattr("mlcp.cli.compute_coeffs", fail)
        cfg = write_config(tmp_path, n_list=[16, 32])
        assert main(["compare", "--config", cfg]) == 3
        record = json.loads(capsys.readouterr().err)["error"]
        assert (record["type"], record["message"]) == ("ValueError", "math domain error")
        assert "fail" in record["traceback"][-2]

    def test_interrupt_not_caught(self, tmp_path, monkeypatch):
        def interrupt(params, tol):
            raise KeyboardInterrupt

        monkeypatch.setattr("mlcp.cli.compute_coeffs", interrupt)
        cfg = write_config(tmp_path, n_list=[16, 32])
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--config", cfg])

    def test_unreachable_tolerance_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[16, 32], params={"u": 0.5, "a": 1})
        assert main(["compare", "--config", cfg, "--tol", "1e-18"]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "AccuracyError"
