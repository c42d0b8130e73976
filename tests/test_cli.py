import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dkg1d import cli, regions, spinor, weights
from dkg1d import counterexamples as cx


def with_zero_exponents(text):
    """``text`` with the six exponent columns, all zero, inserted after L."""
    lines = [line.split(",") for line in text.splitlines()]
    for k, fields in enumerate(lines):
        fields[2:2] = cx.ExponentTuple._fields if k == 0 else ["0"] * 6
    return "".join(",".join(fields) + "\n" for fields in lines)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


class TestVerify:
    def test_spinor(self, capsys):
        code, payload = run_cli(capsys, "verify", "spinor", "--samples", "5000")
        assert code == 0
        assert payload["pass"] is True
        assert payload["samples"] == 5000
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

    @pytest.mark.parametrize("target", ["lemma3", "spinor"])
    def test_sample_count_above_cap_refused_before_sampling(self, capsys, monkeypatch, target):
        # 10**12 samples would take hours; the count is refused before any chunk is drawn.
        def no_sampling(*args):
            raise AssertionError("sampled a count above the cap")

        monkeypatch.setattr(weights, "_chunk_stats", no_sampling)
        monkeypatch.setattr(spinor, "_chunk_residuals", no_sampling)
        code, payload = run_cli(capsys, "verify", target, "--samples", "1000000000000")
        assert code == 2
        assert "n_samples" in payload["error"] and "run time" in payload["error"]

    def test_lemma3_gates_relative_sum_bound(self, capsys, monkeypatch):
        stats = weights.sample_margins(1000, seed=4)
        stats["min_relative_sum_bound_margin"] = -1e-6
        monkeypatch.setattr(weights, "sample_margins", lambda *args, **kwargs: stats)
        code, payload = run_cli(capsys, "verify", "lemma3", "--samples", "1000")
        assert code == 1
        assert payload["pass"] is False


def test_norms_subcommand_gone(capsys):
    # Weighted norms are library calls only; the subcommand is an argument error.
    code, payload = run_cli(capsys, "norms", "--input", "x", "--a", "0", "--alpha", "0", "--flavor", "H")
    assert code == 2
    assert "invalid choice: 'norms'" in payload["error"]


def _no_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no-subcommand"),
        pytest.param(["norms"], id="unknown-subcommand"),
        pytest.param(["counterexample", "--family", "cond2"], id="missing-option"),
        pytest.param(["region", "--s", "0", "--r", "0.5", "--bogus"], id="unknown-option"),
        pytest.param(["verify", "spinor", "--samples", "abc"], id="non-numeric-samples"),
        pytest.param(["solve", "--data", "wavy", "--out", "{tmp}/x.csv"], id="bad-choice"),
        pytest.param(["region", "--s", "-1e-3", "--r", "0.5"], id="exponent-notation-without-equals"),
        pytest.param(["counterexample", "--family", "cond3", "--exps", "nan,0,0,0,0,0", "--out", "{tmp}/x.csv"], id="nan-exps"),
        pytest.param(["counterexample", "--family", "cond3", "--exps", "1,2", "--out", "{tmp}/x.csv"], id="two-exps"),
        pytest.param(["fit", "--in", "{tmp}/absent.csv", "--tolerance", "-1"], id="negative-tolerance"),
        pytest.param(["solve", "--n", "256", "--xbox", "16", "--m", "1e200", "--T", "0", "--out", "{tmp}/x.csv"], id="m-squared-overflows"),
        pytest.param(["solve", "--n", "256", "--xbox", "16", "--dt", "1e-320", "--out", "{tmp}/x.csv"], id="infinite-step-count"),
        pytest.param(["verify", "lemma3", "--samples", "1000"], id="memory-error"),
        pytest.param(["verify", "lemma3", "--samples", "1000000000000"], id="lemma3-samples-above-cap"),
        pytest.param(["verify", "spinor", "--samples", "1000000000000"], id="spinor-samples-above-cap"),
    ],
)
def test_every_refusal_is_one_json_error(capsys, tmp_path, monkeypatch, argv):
    # Only verify lemma3 with an admitted count reaches the sweep's chunks,
    # which here run out of memory.
    monkeypatch.setattr(weights, "_chunk_stats", _no_memory)
    code = cli.main([arg.format(tmp=tmp_path) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == ""
    payload = json.loads(out)  # one JSON document, nothing else
    assert isinstance(payload, dict) and payload["error"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    assert "usage: dkg1d" in capsys.readouterr().out


_STARTUP_PROBE = """
import importlib, pkgutil, sys
import numpy as np
import dkg1d
for info in pkgutil.iter_modules(dkg1d.__path__):
    importlib.import_module("dkg1d." + info.name)
assert "dkg1d.cli" in sys.modules
assert "scipy" not in sys.modules
from dkg1d import solver
grid = solver.GridSpec1D(16, 2.0)
state = solver.init_state(np.ones((16, 2)), np.zeros(16), np.zeros(16), 1.0, 1.0, grid)
solver.strang_step(state, 0.1)
assert "scipy.fft" in sys.modules
"""


def test_startup_defers_scipy_fft():
    # Importing scipy.fft takes about 0.3 s, so only a process that takes a
    # solver transform loads it; importing every module loads no SciPy at all,
    # so verify, region, counterexample and fit start without it.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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
        exponents = ["a", "b", "c", "alpha", "beta", "gamma"]
        assert list(rows[0]) == ["family", "L", *exponents, "numerator", "denom_u", "denom_v", "ratio"]
        assert [rows[0][name] for name in exponents] == ["1.0", "0.0", "1.0", "0.0", "0.0", "0.0"]

        # The tuple comes from the CSV; fit has no option to restate it.
        code, payload = run_cli(capsys, "fit", "--in", str(out))
        assert code == 0
        assert len(payload) == 1
        assert payload[0]["family"] == "cond3"
        assert payload[0]["exponents"] == dict(a=1.0, b=0.0, c=1.0, alpha=0.0, beta=0.0, gamma=0.0)
        assert payload[0]["pass"] is True
        assert payload[0]["predicted_slope"] == pytest.approx(-2.0)
        assert payload[0]["slope"] == pytest.approx(-2.0, abs=0.15)

    def test_fit_tolerance_zero_admits_exact_slope(self, capsys, tmp_path):
        # cond4 at zero exponents gives one ratio at every L: slope 0.0 and
        # delta 0 exactly, so a tolerance of 0 passes.
        out = tmp_path / "cond4.csv"
        code, _ = run_cli(capsys, "counterexample", "--family", "cond4", "--out", str(out))
        assert code == 0
        code, payload = run_cli(capsys, "fit", "--in", str(out), "--tolerance", "0")
        assert payload[0]["slope"] == 0.0 and payload[0]["predicted_slope"] == 0.0
        assert code == 0 and payload[0]["pass"] is True

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

    def test_fit_groups_tuples_of_one_family(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, exps in zip(paths, ["1,0,1,0,0,0", "0.5,0,0,0,0,0"]):
            cli.main(["counterexample", "--family", "cond3", "--exps", exps, "--out", str(path)])
        capsys.readouterr()
        merged = tmp_path / "merged.csv"
        lines_a, lines_b = (path.read_text().splitlines() for path in paths)
        merged.write_text("\n".join(lines_a + lines_b[1:]) + "\n")
        code, payload = run_cli(capsys, "fit", "--in", str(merged))
        assert code == 0
        assert [entry["family"] for entry in payload] == ["cond3", "cond3"]
        assert [entry["exponents"]["a"] for entry in payload] == [1.0, 0.5]
        assert [entry["predicted_slope"] for entry in payload] == pytest.approx([-2.0, -0.5])
        assert all(entry["pass"] for entry in payload)

    def test_fit_has_no_exps_option(self, capsys, tmp_path):
        code, payload = run_cli(capsys, "fit", "--in", str(tmp_path / "x.csv"), "--exps", "0,0,0,0,0,0")
        assert code == 2
        assert "unrecognized arguments: --exps" in payload["error"]

    @pytest.mark.parametrize(
        "L, message",
        [
            ("inf,64", "finite and exceed 4"),
            ("4,8", "finite and exceed 4"),
            ("abc", "abc"),
            ("1e30,2e30,4e30,8e30", "at most 2^48"),
        ],
    )
    def test_bad_scale_reported(self, capsys, tmp_path, L, message):
        out = tmp_path / "x.csv"
        code, payload = run_cli(
            capsys, "counterexample", "--family", "cond3", "--L", L, "--out", str(out)
        )
        assert code == 2
        assert message in payload["error"]
        assert not out.exists()

    def test_cond2_scale_budget_reported(self, capsys, tmp_path):
        # At L = 1e9 cond2's offset grid has about 2.25e10 cells, tens of
        # minutes of counting; it is refused at once.
        out = tmp_path / "x.csv"
        code, payload = run_cli(capsys, "counterexample", "--family", "cond2", "--L", "1e9", "--out", str(out))
        assert code == 2
        assert "more than 2^26 offset cells" in payload["error"]
        assert "time" in payload["error"]
        assert not out.exists()

    def test_unwritable_out_reported(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, payload = run_cli(
            capsys, "counterexample", "--family", "cond2", "--L", "64,128", "--out", str(out)
        )
        assert code == 2
        assert "No such file or directory" in payload["error"]

    def test_default_ladder_is_the_library_default(self, capsys, tmp_path, monkeypatch):
        # The --L default is built from cx.DEFAULT_L_LADDER when the parser is.
        monkeypatch.setattr(cx, "DEFAULT_L_LADDER", (40.0, 80.0))
        out = tmp_path / "x.csv"
        code, payload = run_cli(capsys, "counterexample", "--family", "cond3", "--out", str(out))
        assert code == 0
        assert [entry["L"] for entry in payload["ladder"]] == [40.0, 80.0]

    def test_unwritable_out_reported_before_ladder(self, capsys, tmp_path, monkeypatch):
        def no_ladder(*args, **kwargs):
            raise AssertionError("ratio_ladder called before the output was opened")

        monkeypatch.setattr(cx, "ratio_ladder", no_ladder)
        out = tmp_path / "missing" / "x.csv"
        code, payload = run_cli(capsys, "counterexample", "--family", "cond2", "--out", str(out))
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
        code, payload = run_cli(capsys, "counterexample", "--family", "cond2", "--exps", exps, "--out", str(out))
        assert code == 2
        assert "finite" in payload["error"]
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
        bad.write_text(with_zero_exponents(text))
        code, payload = run_cli(capsys, "fit", "--in", str(bad))
        assert code == 2
        assert message in payload["error"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("family,L,ratio\ncond3,32.0,1.0\ncond3,64.0,1.0\n", "lacks column(s) a, alpha, b, beta, c"),
            ("family,L,a,b,c,alpha,beta,ratio\ncond3,32.0,0,0,0,0,0,1.0\n", "lacks column(s) gamma"),
            ("family,L,a,b,c,alpha,beta,gamma,ratio\ncond3,32.0,0,0,nan,0,0,0,1.0\n", "finite"),
            ("family,L,a,b,c,alpha,beta,gamma,ratio\ncond3,32.0,0,0,0,0,0,-inf,1.0\n", "finite"),
            ("family,L,a,b,c,alpha,beta,gamma,ratio\ncond3,32.0,0,0,0,,0,0,1.0\n", "float"),
        ],
    )
    def test_fit_rejects_bad_exponent_columns(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, payload = run_cli(capsys, "fit", "--in", str(bad))
        assert code == 2
        assert message in payload["error"]

    def test_fit_reports_missing_file(self, capsys, tmp_path):
        code, payload = run_cli(capsys, "fit", "--in", str(tmp_path / "absent.csv"))
        assert code == 2
        assert "absent.csv" in payload["error"]

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_meaningless_tolerance_rejected(self, capsys, tmp_path, tolerance):
        ratios = tmp_path / "ratios.csv"
        ratios.write_text("family,L,ratio\ncond3,32.0,1.0\ncond3,64.0,1.0\n")
        code, payload = run_cli(capsys, "fit", "--in", str(ratios), "--tolerance", tolerance)
        assert code == 2
        assert "--tolerance must be finite and nonnegative" in payload["error"]

    def test_bad_exps_rejected(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, payload = run_cli(capsys, "counterexample", "--family", "cond3", "--exps", "1,2", "--out", str(out))
        assert code == 2
        assert "six numbers" in payload["error"]
        assert not out.exists()


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
        r_values = sorted({float(row["r"]) for row in rows})
        assert len(r_values) == 40 and r_values[0] > 0 and r_values[-1] == 1.5  # half-open (0, r_max]
        gained = [
            r
            for r in rows
            if r["wellposed"] == "1" and r["pecher"] == "0" and r["machihara"] == "0"
        ]
        assert gained

    def test_grid_containment_violation_exits_one(self, capsys, tmp_path, monkeypatch):
        # Pecher's region made to accept (-0.3, 0.75), which s > -1/4 excludes
        # from the certified region: one point of the 2 x 2 grid.
        pecher = regions.in_pecher_region
        monkeypatch.setattr(regions, "in_pecher_region", lambda s, r: (s, r) == (-0.3, 0.75) or pecher(s, r))
        out = tmp_path / "grid.csv"
        code, payload = run_cli(capsys, "region-grid", "--out", str(out), "--ns", "2", "--nr", "2")
        assert code == 1
        assert payload["containment_violations"] == 1
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["s"], r["r"]) for r in rows if r["pecher"] == "1" and r["wellposed"] == "0"] == [("-0.3", "0.75")]

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

    def test_grid_above_cap_refused_before_out_opens(self, capsys, tmp_path):
        # 10**10 points would take about 14 h and write about 335 GB.
        out = tmp_path / "grid.csv"
        code, payload = run_cli(capsys, "region-grid", "--ns", "100000", "--nr", "100000", "--out", str(out))
        assert code == 2
        assert payload == {"error": f"--ns * --nr must be at most {cli._MAX_GRID_POINTS} (a cap on run time)"}
        assert not out.exists()

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
        assert payload["dt"] == 1 / 32  # --dt auto: dx / 2
        assert payload["steps"] == 16  # T / dt
        assert payload["n_x"] == 256
        assert payload["rows"] == 2  # t = 0 and the last step; the default interval is 16
        assert payload["charge_drift_rel"] <= 1e-10
        assert payload["run_s"] > 0
        assert payload["step_us"] == pytest.approx(payload["run_s"] / 16 * 1e6)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"t", "charge", "hs_psi", "hr_phi", "kg_energy"}
        assert float(rows[-1]["t"]) == pytest.approx(0.5)
        from dkg1d import solver

        state = solver.load_state(state_out)
        assert state.t == pytest.approx(0.5)

    def test_dt_above_dx_runs(self, capsys, tmp_path):
        # dx = 1/4 here; every substep is exact, so dt = 4 dx is a valid step.
        out = tmp_path / "diag.csv"
        code, payload = run_cli(capsys, "solve", "--n", "64", "--xbox", "16", "--dt", "1", "--T", "8", "--out", str(out))
        assert code == 0
        assert payload["dt"] == 1.0 and payload["steps"] == 8
        assert payload["charge_drift_rel"] <= 1e-12

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--dt", "0"], "dt must be real, finite and positive"),
            (["--M", "-1"], "masses must be finite and nonnegative"),
            (["--n", "100"], "power of two"),
            (["--n", "256", "--xbox", "16", "--T", "0.2", "--s", "100", "--r", "0", "--every", "1"], "weights"),
            (["--data", "rough", "--s", "20", "--n", "256", "--xbox", "16"], "factor 1e6"),
            (["--n", "256", "--xbox", "16", "--m", "1e200", "--T", "0"], "m**2 finite"),
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

    def test_run_time_excludes_scipy_import(self, tmp_path):
        # Smooth data take no transform before the run, so the first one, in a
        # fresh process, would otherwise count SciPy's import (over 0.15 s).
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        argv = ["solve", "--n", "64", "--T", "0.5", "--out", str(tmp_path / "diag.csv")]
        result = subprocess.run(
            [sys.executable, "-m", "dkg1d.cli", *argv], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["steps"] == 1
        assert payload["step_us"] < 50_000

    def test_negative_end_time_takes_no_steps(self, capsys, tmp_path):
        out = tmp_path / "diag.csv"
        code, payload = run_cli(
            capsys, "solve", "--n", "64", "--xbox", "16", "--T", "-1", "--out", str(out)
        )
        assert code == 0
        assert payload["steps"] == 0
        assert payload["step_us"] is None and payload["run_s"] >= 0
        with open(out, newline="") as fh:
            assert [float(r["t"]) for r in csv.DictReader(fh)] == [0.0]

    def test_splitting_option_gone(self, capsys, tmp_path):
        # Strang is the only splitting; the old flag is an argument error.
        code, payload = run_cli(capsys, "solve", "--splitting", "strang", "--out", str(tmp_path / "diag.csv"))
        assert code == 2
        assert "unrecognized arguments: --splitting" in payload["error"]

    @pytest.mark.parametrize(
        "argv", [["--dt", "1e-320"], ["--T", "1e308", "--dt", "1e-300"], ["--dt", "1e-300", "--T", "1"]]
    )
    def test_infinite_step_count_reported(self, capsys, tmp_path, argv):
        # The run refuses before its first step, with --out opened and left
        # empty: the last argv asks for 1e300 steps, beyond the 2**53 bound.
        out = tmp_path / "diag.csv"
        code, payload = run_cli(capsys, "solve", "--n", "256", "--xbox", "16", *argv, "--out", str(out))
        assert code == 2
        assert "not a finite step count" in payload["error"]
        assert out.read_text() == ""

    def test_blow_up_reported_with_its_step(self, capsys, tmp_path):
        # m**2 = 1e308 passes the mass check and the t = 0 energy reads 1.6e307;
        # the next row, after the last step (3), overflows.
        out, state_out = tmp_path / "diag.csv", tmp_path / "state.bin"
        code, payload = run_cli(
            capsys, "solve", "--n", "256", "--xbox", "16", "--m", "1e154", "--T", "0.1",
            "--out", str(out), "--state-out", str(state_out),
        )
        assert code == 1
        assert payload == {"error": "non-finite diagnostics row at step 3 (t = 0.09375)", "step": 3}
        assert out.read_bytes() == state_out.read_bytes() == b""

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
