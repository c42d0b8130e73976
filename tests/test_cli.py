import csv
import json

import numpy as np
import pytest

from dkg1d import cli, norms, weights
from dkg1d.counterexamples import default_wave_grid


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

    def test_lemma3_gates_relative_sum_bound(self, capsys, monkeypatch):
        stats = weights.sample_margins(1000, seed=4)
        stats["min_relative_sum_bound_margin"] = -1e-6
        monkeypatch.setattr(weights, "sample_margins", lambda *args, **kwargs: stats)
        code, payload = run_cli(capsys, "verify", "lemma3", "--samples", "1000")
        assert code == 1
        assert payload["pass"] is False


class TestNorms:
    def test_norm_of_stored_field(self, capsys, tmp_path):
        grid = norms.Grid2D(64, 64, 20.0, 20.0)
        T, X = np.meshgrid(grid.t, grid.x, indexing="ij")
        u = norms.GridFunction2D(grid, np.exp(-(T**2 + X**2) / 2) + 0j, "physical")
        path = tmp_path / "gauss.bin"
        norms.save_gridfunction(path, u)
        code, payload = run_cli(
            capsys, "norms", "--input", str(path), "--a", "0", "--alpha", "0", "--flavor", "H"
        )
        assert code == 0
        expected = 2 * np.pi * norms.l2_norm_physical(u)
        assert payload["norm"] == pytest.approx(expected, rel=1e-8)

    def test_fourier_side_input_used_directly(self, capsys, tmp_path):
        grid = norms.Grid2D(32, 32, 10.0, 10.0)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        u_hat = norms.GridFunction2D(grid, vals, "fourier")
        path = tmp_path / "hat.bin"
        norms.save_gridfunction(path, u_hat)
        code, payload = run_cli(
            capsys, "norms", "--input", str(path), "--a", "1", "--alpha", "0.5",
            "--flavor", "X_minus",
        )
        assert code == 0
        expected = norms.weighted_norm(u_hat, norms.NormIndex(1.0, 0.5, "X_minus"))
        assert payload["norm"] == pytest.approx(expected, rel=1e-12)


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
        assert payload["charge_drift_rel"] <= 1e-10
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"t", "charge", "hs_psi", "hr_phi", "kg_energy"}
        assert float(rows[-1]["t"]) == pytest.approx(0.5)
        from dkg1d import solver

        state = solver.load_state(state_out)
        assert state.t == pytest.approx(0.5)

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
