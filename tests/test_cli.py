import csv
import json

import pytest

from dkg1d import cli, weights


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestVerify:
    def test_spinor(self, capsys):
        code, payload = run_cli(capsys, "verify", "spinor", "--samples", "5000")
        assert code == 0
        assert payload["pass"] is True
        assert payload["residuals"]["completeness"] <= 1e-14

    def test_lemma3(self, capsys):
        code, payload = run_cli(
            capsys, "verify", "lemma3", "--samples", "50000", "--seed", "4"
        )
        assert code == 0
        assert payload["pass"] is True
        assert payload["min_margin"] >= 0.0
        assert payload["max_margin"] > payload["min_margin"]
        assert payload["min_relative_sum_bound_margin"] >= -1e-9

    @pytest.mark.parametrize("target", ["lemma3", "spinor"])
    def test_bad_sample_count_reported(self, capsys, target):
        code, payload = run_cli(capsys, "verify", target, "--samples", "0")
        assert code == 2
        assert "n_samples" in payload["error"]

    def test_lemma3_gates_relative_sum_bound(self, capsys, monkeypatch):
        stats = weights.sample_margins(1000, seed=4)
        stats["min_relative_sum_bound_margin"] = -1e-6
        monkeypatch.setattr(weights, "sample_margins", lambda *args, **kwargs: stats)
        code, payload = run_cli(capsys, "verify", "lemma3", "--samples", "1000")
        assert code == 1
        assert payload["pass"] is False


def test_norms_subcommand_gone():
    # Weighted norms are library calls only; argparse exits with 2 on the subcommand.
    with pytest.raises(SystemExit) as err:
        cli.main(["norms", "--input", "x", "--a", "0", "--alpha", "0", "--flavor", "H"])
    assert err.value.code == 2


class TestCounterexampleAndFit:
    def test_ladder_csv_then_fit(self, capsys, tmp_path):
        out = tmp_path / "results.csv"
        code, payload = run_cli(
            capsys,
            "counterexample",
            "--family",
            "cond3",
            "--L",
            "32,64,128,256",
            "--exps",
            "1,0,1,0,0,0",
            "--out",
            str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["L"] for r in rows] == ["32.0", "64.0", "128.0", "256.0"]
        assert set(rows[0]) == {"family", "L", "numerator", "denom_u", "denom_v", "ratio"}

        code, payload = run_cli(
            capsys, "fit", "--in", str(out), "--exps", "1,0,1,0,0,0"
        )
        assert code == 0
        assert payload[0]["family"] == "cond3"
        assert payload[0]["pass"] is True
        assert payload[0]["predicted_slope"] == pytest.approx(-2.0)
        assert payload[0]["slope"] == pytest.approx(-2.0, abs=0.15)

    def test_fit_groups_families(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cli.main(["counterexample", "--family", "cond3", "--L", "32,64", "--out", str(out_a)])
        cli.main(["counterexample", "--family", "cond1_ab", "--L", "32,64", "--out", str(out_b)])
        capsys.readouterr()
        merged = tmp_path / "merged.csv"
        lines_a = out_a.read_text().splitlines()
        lines_b = out_b.read_text().splitlines()
        merged.write_text("\n".join(lines_a + lines_b[1:]) + "\n")
        code, payload = run_cli(capsys, "fit", "--in", str(merged))
        assert code == 0
        assert {entry["family"] for entry in payload} == {"cond3", "cond1_ab"}
        assert all(entry["pass"] for entry in payload)

    @pytest.mark.parametrize(
        "L, message",
        [("inf,64", "finite and exceed 4"), ("4,8", "finite and exceed 4"), ("abc", "abc")],
    )
    def test_bad_scale_reported(self, capsys, tmp_path, L, message):
        out = tmp_path / "x.csv"
        code, payload = run_cli(
            capsys, "counterexample", "--family", "cond3", "--L", L, "--out", str(out)
        )
        assert code == 2
        assert message in payload["error"]
        assert not out.exists()

    def test_unwritable_out_reported(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, payload = run_cli(
            capsys, "counterexample", "--family", "cond2", "--L", "64,128", "--out", str(out)
        )
        assert code == 2
        assert "No such file or directory" in payload["error"]

    def test_ladder_reports_offsets_and_pairs(self, capsys, tmp_path):
        out = tmp_path / "cond2.csv"
        code, payload = run_cli(
            capsys, "counterexample", "--family", "cond2", "--L", "64,128", "--out", str(out)
        )
        assert code == 0
        small, large = payload["ladder"]
        assert [small["L"], large["L"]] == [64.0, 128.0]
        for entry in (small, large):
            assert entry["pairs"] == entry["points_u"] * entry["points_v"]
        # About 22.5 L distinct offsets against about 25 L^2 pairs.
        assert 1.9 <= large["offsets"] / small["offsets"] <= 2.1
        assert 3.9 <= large["pairs"] / small["pairs"] <= 4.1

    @pytest.mark.parametrize("exps", ["nan,0,0,0,0,0", "0,0,0,0,0,inf", "0,-inf,0,0,0,0"])
    def test_non_finite_exps_rejected(self, capsys, tmp_path, exps):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            cli.main(
                ["counterexample", "--family", "cond2", "--exps", exps, "--out", str(out)]
            )
        assert err.value.code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("family,L,numerator\ncond3,32.0,1.0\n", "ratio"),
            ("family,L,ratio\ncond3,32.0,nan\ncond3,64.0,1.0\n", "positive ratio"),
            ("family,L,ratio\ncond3,32.0,0.0\ncond3,64.0,1.0\n", "positive ratio"),
            ("family,L,ratio\ncond3,32.0,-1.0\ncond3,64.0,1.0\n", "positive ratio"),
            ("family,L,ratio\ncond3,inf,1.0\ncond3,64.0,1.0\n", "positive L"),
            ("family,L,ratio\ncond3,32.0\ncond3,64.0,1.0\n", "float"),
            ("family,L,ratio\ncond3,32.0,x\n", "float"),
            ("family,L,ratio\ncond5,32.0,1.0\ncond5,64.0,1.0\n", "unknown family"),
            ("family,L,ratio\n", "no rows"),
            ("family,L,ratio\ncond3,32.0,1.0\n", "two distinct L"),
        ],
    )
    def test_fit_rejects_malformed_csv(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, payload = run_cli(capsys, "fit", "--in", str(bad))
        assert code == 2
        assert message in payload["error"]

    def test_fit_reports_missing_file(self, capsys, tmp_path):
        code, payload = run_cli(capsys, "fit", "--in", str(tmp_path / "absent.csv"))
        assert code == 2
        assert "absent.csv" in payload["error"]

    def test_bad_exps_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "counterexample",
                    "--family",
                    "cond3",
                    "--exps",
                    "1,2",
                    "--out",
                    str(tmp_path / "x.csv"),
                ]
            )


class TestRegion:
    def test_membership_and_solve(self, capsys):
        code, payload = run_cli(capsys, "region", "--s", "0", "--r", "0.5", "--solve")
        assert code == 0
        assert payload["wellposed"] is True
        assert payload["pecher"] is True
        assert 0.5 < payload["parameters"]["sigma"] <= 1.0
        assert all(payload["constraints"].values())

    def test_solve_near_edge(self, capsys):
        code, payload = run_cli(capsys, "region", "--s", "-0.2499999", "--r", "0.3", "--solve")
        assert code == 0
        assert payload["pecher"] is True
        assert "infeasible" not in payload
        assert all(payload["constraints"].values())

    def test_infeasible_reason(self, capsys):
        code, payload = run_cli(capsys, "region", "--s", "-0.2", "--r", "0.85", "--solve")
        assert code == 0
        assert payload["wellposed"] is False
        assert payload["infeasible"] == "r <= 1+s violated"

    def test_grid_sweep(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, payload = run_cli(
            capsys, "region-grid", "--out", str(out), "--ns", "40", "--nr", "40"
        )
        assert code == 0
        assert payload["containment_violations"] == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1600
        gained = [
            r
            for r in rows
            if r["wellposed"] == "1" and r["pecher"] == "0" and r["machihara"] == "0"
        ]
        assert gained

    def test_grid_unwritable_out_reported(self, capsys, tmp_path):
        out = tmp_path / "missing" / "grid.csv"
        code, payload = run_cli(capsys, "region-grid", "--out", str(out), "--ns", "2", "--nr", "2")
        assert code == 2
        assert "No such file or directory" in payload["error"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--s", "nan", "--r", "0.5", "--solve"], "--s must be finite"),
            (["--s", "0", "--r", "inf"], "--r must be finite"),
            (["--s=-inf", "--r", "0.5"], "--s must be finite"),
        ],
    )
    def test_non_finite_point_rejected(self, capsys, argv, message):
        code, payload = run_cli(capsys, "region", *argv)
        assert code == 2
        assert message in payload["error"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--s-max", "inf"], "--s-max must be finite"),
            (["--s-min", "nan"], "--s-min must be finite"),
            (["--r-max=-inf"], "--r-max must be finite"),
            (["--ns", "-1"], "at least 1"),
            (["--nr", "0"], "at least 1"),
        ],
    )
    def test_grid_bad_numbers_rejected(self, capsys, tmp_path, argv, message):
        out = tmp_path / "grid.csv"
        code, payload = run_cli(capsys, "region-grid", *argv, "--out", str(out))
        assert code == 2
        assert message in payload["error"]
        assert not out.exists()


class TestSolve:
    def test_smooth_run_writes_diagnostics(self, capsys, tmp_path):
        out = tmp_path / "diag.csv"
        state_out = tmp_path / "state.bin"
        code, payload = run_cli(
            capsys,
            "solve",
            "--n",
            "256",
            "--xbox",
            "16",
            "--T",
            "0.5",
            "--out",
            str(out),
            "--state-out",
            str(state_out),
        )
        assert code == 0
        assert payload["steps"] == 16  # T / dt with dt = dx / 2 = 1 / 32
        assert payload["charge_drift_rel"] <= 1e-10
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"t", "charge", "hs_psi", "hr_phi", "kg_energy"}
        assert float(rows[-1]["t"]) == pytest.approx(0.5)
        from dkg1d import solver

        state = solver.load_state(state_out)
        assert state.t == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "64", "--xbox", "16", "--dt", "1"], "dt must not exceed dx"),
            (["--M", "-1"], "masses must be finite and nonnegative"),
            (["--n", "100"], "power of two"),
        ],
    )
    def test_bad_input_reported(self, capsys, tmp_path, argv, message):
        out = tmp_path / "diag.csv"
        code, payload = run_cli(capsys, "solve", *argv, "--out", str(out))
        assert code == 2
        assert message in payload["error"]
        assert not out.exists()

    def test_unwritable_out_reported(self, capsys, tmp_path):
        out = tmp_path / "missing" / "diag.csv"
        code, payload = run_cli(
            capsys, "solve", "--n", "64", "--xbox", "16", "--T", "0.1", "--out", str(out)
        )
        assert code == 2
        assert "No such file or directory" in payload["error"]

    @pytest.mark.parametrize("option", ["--out", "--state-out"])
    def test_unwritable_output_reported_before_run(self, capsys, tmp_path, monkeypatch, option):
        from dkg1d import solver

        def no_run(*args, **kwargs):
            raise AssertionError("solver.run called before the outputs were opened")

        monkeypatch.setattr(solver, "run", no_run)
        paths = {"--out": str(tmp_path / "diag.csv"), "--state-out": str(tmp_path / "state.bin")}
        paths[option] = str(tmp_path / "missing" / "file")
        argv = [arg for pair in paths.items() for arg in pair]
        code, payload = run_cli(capsys, "solve", "--n", "64", "--xbox", "16", "--T", "0.1", *argv)
        assert code == 2
        assert "No such file or directory" in payload["error"]

    def test_negative_end_time_takes_no_steps(self, capsys, tmp_path):
        out = tmp_path / "diag.csv"
        code, payload = run_cli(
            capsys, "solve", "--n", "64", "--xbox", "16", "--T", "-1", "--out", str(out)
        )
        assert code == 0
        assert payload["steps"] == 0
        with open(out, newline="") as fh:
            assert [float(r["t"]) for r in csv.DictReader(fh)] == [0.0]

    def test_splitting_option_gone(self, tmp_path):
        # Strang is the only splitting; argparse exits with 2 on the old flag.
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", "--splitting", "strang", "--out", str(tmp_path / "diag.csv")])
        assert err.value.code == 2

    def test_rough_run(self, capsys, tmp_path):
        out = tmp_path / "diag.csv"
        code, payload = run_cli(
            capsys,
            "solve",
            "--n",
            "256",
            "--xbox",
            "16",
            "--T",
            "0.25",
            "--data",
            "rough",
            "--s",
            "-0.2",
            "--r",
            "0.3",
            "--seed",
            "3",
            "--out",
            str(out),
        )
        assert code == 0
        assert payload["charge_drift_rel"] <= 1e-10
