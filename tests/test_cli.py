"""Command-line interface contract tests."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mlcp import cli, exact_mgf, identities
from mlcp.cli import main
from mlcp.errors import AccuracyError
from mlcp.exact_mgf import ln_mgf_exact
from mlcp.params import Params


def reject_constant(token):
    raise ValueError(f"invalid JSON constant {token}")


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
        for row, diag in zip(payload["rows"], payload["diagnostics"]):
            # ln_mgf is the total of the split
            assert row["ln_mgf"] == math.fsum(diag[s] for s in ("S0", "S1", "S2", "S3"))

    def test_diagnostic_sums_by_gregory_at_2_17(self, tmp_path, capsys, monkeypatch):
        # split_sums takes Gregory's formula on the saturated rows of its
        # ranges, as ln_mgf_exact does: far fewer than n rows
        rows = []
        kernel = exact_mgf._log_terms

        def counted(ctx, j):
            rows.append(j.size if np.all(j == np.floor(j)) else 0)
            return kernel(ctx, j)

        monkeypatch.setattr(exact_mgf, "_log_terms", counted)
        n = 2**17
        cfg = write_config(
            tmp_path,
            output="json",
            n_list=[n],
            params={"u": 0.5, "a": 2, "r": 0.3},
            diagnostic={"eps": 0.05, "m_prime": 10},
        )
        assert main(["exact", "--config", cfg]) == 0
        assert 0 < sum(rows) < n / 10
        payload = json.loads(capsys.readouterr().out)
        direct = ln_mgf_exact(Params(1.0, 0.0, 0.3, 0.5, 2), n).ln_mgf
        assert payload["rows"][0]["ln_mgf"] == pytest.approx(direct, rel=1e-13)

    def test_bad_diagnostic_eps_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            output="json",
            n_list=[100],
            params={"r": 0.95},
            diagnostic={"eps": 0.06, "m_prime": 2},
        )
        assert main(["exact", "--config", cfg]) == 2
        assert "eps" in capsys.readouterr().err

    def test_diagnostic_refused_in_csv(self, tmp_path, capsys, monkeypatch):
        # CSV has no place for the split: refused before any computation
        calls = []
        monkeypatch.setattr(cli, "split_sums", lambda *args: calls.append(args))
        cfg = write_config(
            tmp_path,
            n_list=[400],
            params={"u": 0.5, "a": 2, "r": 0.6},
            diagnostic={"eps": 0.05, "m_prime": 10},
        )
        assert main(["exact", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)["error"]
        assert (record["type"], record["constraint"]) == ("DomainError", "diagnostic")
        assert calls == []

    def test_nonpositive_row_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            n_list=[2**14],
            params={"b": 3.0, "r": 0.7, "u": 2.5, "a": 6},
        )
        assert main(["exact", "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)["error"]
        assert record["type"] == "AccuracyError"
        assert "j=" in record["message"]
        assert "traceback" not in record


    def test_overflowing_row_exit_3(self, tmp_path, capsys):
        # e^u = e^708 overflows a term of the k-sum at j = 1: one record,
        # no value and no RuntimeWarning
        cfg = write_config(
            tmp_path,
            n_list=[1, 64],
            params={"b": 0.5, "r": 1.8, "u": 708.0, "a": 4},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["exact", "--config", cfg]) == 3
        assert caught == []
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        record = json.loads(line)["error"]
        assert record["type"] == "AccuracyError"
        assert "not finite at j=1:" in record["message"]


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

    @pytest.mark.parametrize("u", [-40.0, -100.0])
    def test_vanishing_g0_exit_3_without_warning(self, tmp_path, capsys, u):
        # g0 underflows to 0 in C3's core: one record naming y, no division
        # by zero and no NaN error estimate
        cfg = write_config(tmp_path, n_list=[64], params={"u": u, "a": 0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["compare", "--config", cfg]) == 3
        assert caught == []
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        record = json.loads(line)["error"]
        assert record["type"] == "AccuracyError"
        assert record["message"].startswith("g0 nonpositive at y=-7.98")

    @pytest.mark.parametrize("u, a", [(708.0, 1), (-700.0, 1)])
    def test_overflowing_integrand_exit_3_without_warning(self, tmp_path, capsys, u, a):
        # e^u near the double limit: a term of the C2 integrand overflows a
        # double; one record naming y, with every warning an error, and no
        # NaN error estimate
        cfg = write_config(tmp_path, n_list=[64], params={"u": u, "a": a})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        record = json.loads(line)["error"]
        assert record["type"] == "AccuracyError"
        assert record["message"].startswith("C2 integrand not finite at y=")

    def test_large_a_certifies_without_warning(self, tmp_path, capsys):
        # a = 30: C2's smallest core nodes take psi2's definition form, so
        # no term overflows; every warning an error
        cfg = write_config(tmp_path, n_list=[8, 16], params={"u": 0.5, "a": 30},
                           output="json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--config", cfg]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert all(math.isfinite(summary[c]) for c in ("C1", "C2", "C3"))

    @pytest.mark.parametrize("u, a", [(-30.0, 0), (300.0, 1)])
    def test_c3_stall_exit_3_names_constant_and_call(self, tmp_path, capsys, u, a):
        cfg = write_config(tmp_path, n_list=[64], params={"u": u, "a": a})
        assert main(["compare", "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        record = json.loads(line)["error"]
        assert record["type"] == "AccuracyError"
        assert "in component 1 (C3) of the core call, |y| <= " in record["message"]

    def test_csv_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[16, 32, 64], params={"u": 0.5, "a": 1})
        assert main(["compare", "--config", cfg]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "n,ln_mgf,prediction,residual"


class TestParserReuse:
    """main builds its argparse tree once per process; no parsed flag may
    leak from one call into the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_carry_over(self, tmp_path, capsys, monkeypatch):
        loaded = []
        load = cli.load_config

        def recorded(*args):
            loaded.append(load(*args))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_config", recorded)
        cfg = write_config(tmp_path, n_list=[10])
        assert main(["mc", "--config", cfg, "--seed", "5", "--samples", "500"]) == 0
        assert main(["mc", "--config", cfg]) == 0
        assert [(c.seed, c.samples) for c in loaded] == [(5, 500), (7, 1000)]
        rows = capsys.readouterr().out.strip().splitlines()
        assert [row.split(",")[-1] for row in rows[1::2]] == ["5", "7"]

    def test_argparse_failure_then_valid_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[10])
        assert main(["mc", "--config", cfg]) == 0
        normal = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--config", cfg, "--seed", "5", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["mc", "--config", cfg]) == 0
        assert capsys.readouterr().out == normal


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

    def test_rows_equal_one_size_runs(self, tmp_path, capsys, monkeypatch):
        # one sampler call for the whole n_list, whose rows are those of
        # one run per size
        calls = []
        sizes = cli.mc_ln_mgf_sizes

        def recorded(params, ns, samples, seed):
            calls.append(ns)
            return sizes(params, ns, samples, seed)

        monkeypatch.setattr(cli, "mc_ln_mgf_sizes", recorded)
        rows = []
        for n_list in ([16, 64], [16], [64]):
            cfg = write_config(
                tmp_path, n_list=n_list, samples=9000, params={"u": 0.5, "a": 1}
            )
            assert main(["mc", "--config", cfg, "--format", "json"]) == 0
            rows.append(json.loads(capsys.readouterr().out)["rows"])
        assert calls == [(16, 64), (16,), (64,)]
        assert rows[0] == rows[1] + rows[2]

    def test_overflowing_estimate_is_null_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[1500], seed=3, samples=3000,
                           params={"b": 0.5, "alpha": 0.5, "r": 1.0, "u": 2.5})
        assert main(["mc", "--config", cfg, "--format", "json"]) == 0
        out = capsys.readouterr().out
        row = json.loads(out, parse_constant=reject_constant)["rows"][0]
        assert row["estimate_E"] is None and row["stderr_E"] is None
        assert row["ln_estimate"] > 709.8


class TestIdentities:
    def test_clean_build_exit_zero(self, capsys):
        assert main(["identities"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "name,status,worst_deviation,detail"
        assert all(",pass," in line for line in out[1:])

    def test_csv_detail_quoted(self, capsys):
        # several details hold commas ("a,ell <= 10, exact")
        assert main(["identities"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 + len(identities.ALL_CHECKS)
        assert all(len(row) == 4 for row in rows)
        assert any("," in row[3] for row in rows[1:])

    def test_crashed_check_is_null_json(self, capsys, monkeypatch):
        # a crashed check records worst = inf, which strict JSON cannot hold
        def crash():
            raise AccuracyError("forced failure")

        checks = (crash,) + identities.ALL_CHECKS[1:]
        monkeypatch.setattr(identities, "ALL_CHECKS", checks)
        assert main(["identities", "--format", "json"]) == 4
        out = capsys.readouterr().out
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["failures"] == ["crash"]
        row = payload["rows"][0]
        assert (row["name"], row["status"]) == ("crash", "fail")
        assert row["worst_deviation"] is None


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


class TestSchema:
    """Each command's CSV header and JSON row keys are the same columns."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--config"],
            ["compare", "--config"],
            ["mc", "--config"],
            ["identities"],
            ["dump-polys", "--a-max", "2"],
        ],
    )
    def test_csv_header_matches_json_rows(self, tmp_path, capsys, argv):
        if argv[-1] == "--config":
            argv = argv + [write_config(tmp_path, n_list=[16, 32],
                                        params={"u": 0.5, "a": 1})]
        assert main(argv + ["--format", "csv"]) == 0
        header = next(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(set(header)) == len(header)
        assert rows and all(set(row) == set(header) for row in rows)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--seed", "3"],
            ["exact", "--samples", "500"],
            ["exact", "--tol", "1e-8"],
            ["compare", "--seed", "3"],
            ["compare", "--samples", "500"],
            ["mc", "--tol", "1e-8"],
        ],
    )
    def test_unread_flag_rejected(self, tmp_path, capsys, argv):
        # each subcommand takes only the flags it reads
        cfg = write_config(tmp_path, n_list=[10])
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--config", cfg] + argv[1:])
        assert exc.value.code == 2

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["exact", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_n_list_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[100, 10])
        assert main(["exact", "--config", cfg]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["constraint"] == "n_list"

    def test_edge_overflow_exit_2(self, tmp_path, capsys):
        # b ** (-1/(2b)) overflows a double below b of about 0.0039
        cfg = write_config(tmp_path, n_list=[10],
                           params={"b": 0.001, "r": 0.5, "u": 0.5, "a": 1})
        assert main(["exact", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)["error"]
        assert (record["type"], record["constraint"]) == ("DomainError", "b")
        assert "traceback" not in record

    def test_exp_u_overflow_exit_2(self, tmp_path, capsys):
        # e**u overflows a double above u of about 709.78
        cfg = write_config(tmp_path, n_list=[10],
                           params={"b": 1.0, "r": 0.5, "u": 710.0, "a": 1})
        assert main(["exact", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)["error"]
        assert (record["type"], record["constraint"]) == ("DomainError", "u")
        assert "traceback" not in record

    def test_exp_u_overflow_compare_exit_2(self, tmp_path, capsys):
        # compare builds the asymptotic profile before any exact call; its
        # e**u is checked like the exact route's
        cfg = write_config(tmp_path, n_list=[10], output="json",
                           params={"b": 1.0, "r": 0.5, "u": 720.0, "a": 1})
        assert main(["compare", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        record = json.loads(err)["error"]
        assert (record["type"], record["constraint"]) == ("DomainError", "u")
        assert "traceback" not in record

    def test_exp_minus_u_overflow_compare_exit_2(self, tmp_path, capsys):
        # the C2 integrand takes e**-u, which overflows below u of about
        # -709.78; the exact route, whose e**u underflows to 0, runs
        params = {"b": 1.0, "r": 0.5, "u": -800.0, "a": 1}
        cfg = write_config(tmp_path, n_list=[10], output="json", params=params)
        assert main(["compare", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)["error"]
        assert (record["type"], record["constraint"]) == ("DomainError", "u")
        assert "traceback" not in record
        assert main(["exact", "--config", cfg]) == 0

    @pytest.mark.parametrize("frac", [6e-4, 8e-4])
    def test_far_end_overflow_compare_exit_2(self, tmp_path, capsys, frac):
        # C1 takes (edge/r)**(2b), which overflows a double at b = 50 below
        # r of about 8.05e-4 of the edge; the exact route runs
        params = {"b": 50.0, "r": frac * 50.0**-0.01, "u": 0.5, "a": 1}
        cfg = write_config(tmp_path, n_list=[10], output="json", params=params)
        assert main(["compare", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)["error"]
        assert (record["type"], record["constraint"]) == ("DomainError", "r")
        assert "traceback" not in record
        assert main(["exact", "--config", cfg]) == 0

    @pytest.mark.parametrize("b", ["1/0", "inf"])
    def test_b_not_rational_exit_2(self, capsys, b):
        assert main(["dump-polys", "--b", b]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)["error"]
        assert (record["type"], record["constraint"]) == ("DomainError", "b")
        assert record["message"] == f"b is not a rational literal: {b!r}"

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
            ("m_prime", 10.7),
            ("m_prime", True),
        ],
    )
    def test_non_integral_config_exit_2(self, tmp_path, capsys, field, value):
        if field == "a":
            cfg = write_config(tmp_path, params={"u": 0.5, "a": value})
        elif field == "m_prime":
            cfg = write_config(tmp_path, diagnostic={"eps": 0.05, "m_prime": value})
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
        cases = [
            ({"params": {"b": None}}, "b"),
            ({"params": {"b": True}}, "b"),
            ({"params": {"alpha": "0"}}, "alpha"),
            ({"params": {"r": "0.5"}}, "r"),
            ({"tol": True}, "tol"),
            ({"diagnostic": "yes"}, "diagnostic"),
            ({"diagnostic": {"eps": 0.05}}, "m_prime"),
            ({"diagnostic": {"m_prime": 10}}, "eps"),
            ({"diagnostic": {"eps": True, "m_prime": 10}}, "eps"),
            ({"diagnostic": {"eps": "0.05", "m_prime": 10}}, "eps"),
        ]
        for overrides, constraint in cases:
            cfg = write_config(tmp_path, **overrides)
            assert main(["exact", "--config", cfg]) == 2
            record = json.loads(capsys.readouterr().err)
            assert record["error"]["constraint"] == constraint

    @pytest.mark.parametrize("command", ["compare", "mc"])
    def test_diagnostic_refused(self, tmp_path, capsys, monkeypatch, command):
        # only exact writes the split; the others refuse the block before
        # computing anything, in either format
        calls = []
        monkeypatch.setattr(cli, "compute_coeffs", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "mc_ln_mgf_sizes", lambda *args: calls.append(args))
        cfg = write_config(tmp_path, diagnostic={"eps": 0.05, "m_prime": 10})
        for fmt in ("csv", "json"):
            assert main([command, "--config", cfg, "--format", fmt]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            record = json.loads(err)["error"]
            assert (record["type"], record["constraint"]) == ("DomainError", "diagnostic")
        assert calls == []

    def test_arithmetic_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def overflow(params, n):
            raise OverflowError("math range error")

        monkeypatch.setattr("mlcp.cli.ln_mgf_exact", overflow)
        cfg = write_config(tmp_path)
        assert main(["exact", "--config", cfg]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "OverflowError"

    def test_library_error_exit_3(self, tmp_path, capsys, monkeypatch):
        # an exception from outside mlcp, such as scipy's ValueError, leaves as a record, not as a traceback on its own
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

    @pytest.mark.parametrize("tol", ["Infinity", "NaN"])
    def test_nonfinite_tol_exit_2(self, tmp_path, capsys, tol):
        # in the config, written as a bare JSON constant, and as --tol
        for config_tol, flags in ((float(tol), []), (1e-9, ["--tol", tol])):
            cfg = write_config(tmp_path, n_list=[16, 32], tol=config_tol)
            assert main(["compare", "--config", cfg, *flags]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            record = json.loads(err)["error"]
            assert (record["type"], record["constraint"]) == ("DomainError", "tol")

    def test_unreachable_tolerance_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_list=[16, 32], params={"u": 0.5, "a": 1})
        assert main(["compare", "--config", cfg, "--tol", "1e-18"]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "AccuracyError"


def _floats(obj, path=()):
    """(path, value) for every number or null at any depth of obj, a path
    being the chain of keys that leads to it."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _floats(value, path + (key,))
    elif isinstance(obj, list):
        for value in obj:
            yield from _floats(value, path)
    elif obj is None or isinstance(obj, float):
        yield path, obj


class TestExitCodeContract:
    # the contract on seeded random configs: exit 0, 2 or 3; a nonzero exit
    # writes one JSON error record and no traceback; exit 0 writes finite
    # numbers, with null only where a value can overflow or is undefined
    NULLABLE = {("rows", "estimate_E"), ("rows", "stderr_E"), ("summary", "slope")}

    def test_random_calls(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        cfg = tmp_path / "config.json"
        for _ in range(50):
            command = str(rng.choice(["exact", "compare", "mc"]))
            b = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            params = {
                "b": b,
                "alpha": rng.uniform(-0.9, 2.0),
                "r": rng.uniform(0.01, 0.999) * b ** (-1.0 / (2.0 * b)),
                "u": float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, math.log10(2000.0))),
                "a": int(rng.integers(0, 9)),
            }
            n = int(2.0 ** rng.uniform(0.0, 12.0))
            cfg.write_text(json.dumps({"params": params, "n_list": [n]}))
            argv = [command, "--config", str(cfg), "--format", "json"]
            if command == "mc":
                argv += ["--samples", "200"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            out, err = capsys.readouterr()
            call = (argv, params, n)
            assert code in (0, 2, 3), call
            if code:
                assert out == "", call
                (line,) = err.splitlines()
                record = json.loads(line, parse_constant=reject_constant)["error"]
                assert "traceback" not in record, (call, record)
                continue
            assert err == "", call
            payload = json.loads(out, parse_constant=reject_constant)
            for path, value in _floats(payload):
                if value is None:
                    assert path in self.NULLABLE, (call, path)
                else:
                    assert math.isfinite(value), (call, path)


_LAZY_SPECIAL_SCRIPT = """
import sys

def loaded():
    return "scipy.special" in sys.modules

import mlcp
import mlcp.cli
assert not loaded(), "import"
from mlcp.cli import main
assert main(["mc", "--config", sys.argv[1], "--samples", "1000"]) == 0
assert not loaded(), "mc"
assert main(["dump-polys"]) == 0
assert not loaded(), "dump-polys"
assert main(["exact", "--config", sys.argv[1]]) == 0
assert loaded(), "exact"
"""


_NO_SPECIAL_EXACT_SCRIPT = """
import sys
from mlcp.cli import main
assert main(["exact", "--config", sys.argv[1]]) == 0
assert "scipy.special" not in sys.modules, "exact"
"""


_NO_SPECIAL_COMPARE_SCRIPT = """
import sys
from mlcp.cli import main
assert main(["compare", "--config", sys.argv[1]]) == 0
assert "scipy.special" not in sys.modules, "compare"
"""


class TestLazySpecial:
    @staticmethod
    def _run(script, cfg):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", script, cfg],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_exact_without_small_shapes_skips_it(self, tmp_path):
        # at n = 8192 every window shape is >= 1e3: P comes from the uniform
        # expansion alone, whose erfc is specfun's
        cfg = write_config(tmp_path, n_list=[8192], params={"u": 0.7, "a": 1})
        proc = self._run(_NO_SPECIAL_EXACT_SCRIPT, cfg)
        assert proc.returncode == 0, proc.stderr

    def test_compare_without_small_shapes_skips_it(self, tmp_path):
        # C1, C2 and C3 take no special function from scipy, and the exact
        # rows at n >= 8192 none either
        cfg = write_config(tmp_path, n_list=[8192, 32768], params={"u": 0.7, "a": 1})
        proc = self._run(_NO_SPECIAL_COMPARE_SCRIPT, cfg)
        assert proc.returncode == 0, proc.stderr

    def test_loaded_on_first_special_function_call(self, tmp_path):
        # mlcp reaches scipy.special only as an attribute of scipy, which
        # imports the submodule on first access: importing mlcp, mc and
        # dump-polys never load it, exact at n = 10 (shapes below 1e3) does
        cfg = write_config(tmp_path, n_list=[10, 64], params={"u": 0.5, "a": 1})
        proc = self._run(_LAZY_SPECIAL_SCRIPT, cfg)
        assert proc.returncode == 0, proc.stderr


class TestWithoutMpmath:
    def test_commands_run(self, tmp_path, capsys, monkeypatch):
        # mpmath is a test dependency only: a fresh import of mlcp, and every
        # command, runs without it
        monkeypatch.setitem(sys.modules, "mpmath", None)
        for name in [m for m in sys.modules if m == "mlcp" or m.startswith("mlcp.")]:
            monkeypatch.delitem(sys.modules, name)
        from mlcp.cli import main
        configs = [
            ("exact", {"n_list": [16, 2**14], "params": {"u": 0.7, "a": 4}}),
            ("compare", {"n_list": [16, 32], "params": {"u": 0.5, "a": 1}}),
            ("mc", {"n_list": [10], "params": {"u": 0.5, "a": 1}}),
        ]
        for command, overrides in configs:
            cfg = write_config(tmp_path, **overrides)
            assert main([command, "--config", cfg]) == 0, command
        assert main(["identities"]) == 0
        assert capsys.readouterr().err == ""
