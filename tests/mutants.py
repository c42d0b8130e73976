"""Mutation check: each hand-written mutant of ``src/dkg1d`` must fail the tests named for it.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py

Each entry of ``MUTANTS`` is (module under ``src/dkg1d``, exact old text, new
text, test ids expected to catch it), and the old text must occur exactly
once in its module.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory and runs pytest there, with
bytecode caching off so that a mutant of unchanged length cannot run stale
bytecode.  The unmutated copy must pass every named test; then each mutant in
turn is written into the copy and must fail its named tests (pytest exit code
1).  The script prints one line per mutant and exits 1 if an old text is
missing or repeated, the unmutated copy fails, or a mutant survives.

Rules for later changes:

* a refactor that moves a mutant's old text updates the entry in the same change;
* no mutant is deleted to make the check pass;
* a mutant that a refactor makes equivalent is replaced by one that is not,
  and CHANGES.md says so.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    (
        "solver.py",
        "f_hat[1] += fft.r2c(kick,",
        "f_hat[1] -= fft.r2c(kick,",
        ["tests/test_solver.py::TestSystem::test_central_difference_matches_system"],
    ),
    (
        "solver.py",
        "a += swapped",
        "a -= swapped",
        ["tests/test_solver.py::TestCouplingFlow::test_awkward_angles"],
    ),
    (
        "solver.py",
        "return np.multiply(2.0, product.real, out=out)",
        "return np.multiply(1.0, product.real, out=out)",
        ["tests/test_solver.py::TestCouplingFlow::test_zero_field_kicks_phi_t"],
    ),
    (
        "solver.py",
        "tan = np.subtract(phi, M, out=work.phi)",
        "tan = np.add(phi, M, out=work.phi)",
        ["tests/test_solver.py::TestCouplingFlow::test_field_equal_to_mass_is_identity"],
    ),
    (
        "solver.py",
        "f_hat, work.f_hat = f_next, f_hat",
        "f_hat = f_next",
        ["tests/test_solver.py::TestRun::test_matches_step_loop"],
    ),
    (
        "solver.py",
        "omega = np.sqrt(grid.xi_rfft**2 + m**2)",
        "omega = np.sqrt(grid.xi_rfft**2 + 4 * m**2)",
        ["tests/test_solver.py::TestKGFlow::test_energy_conserved"],
    ),
    (
        "solver.py",
        "np.exp(-1j * xi * h) / grid.n_x",
        "np.exp(-1j * xi * h)",
        [
            "tests/test_solver.py::TestPropagatorCache::test_half_step_tables_compose_to_the_full_step",
            "tests/test_solver.py::TestStep::test_charge_conservation_long_run",
        ],
    ),
    (
        "solver.py",
        "finite_real(self.dt) and self.dt > 0",
        "finite_real(self.dt) and 0 < self.dt <= 8 * self.grid.dx",
        ["tests/test_solver.py::TestRun::test_steps_above_dx_keep_accuracy_and_charge"],
    ),
    (
        "weights.py",
        "return 1.5 * biggest - smallest",
        "return 1.4 * biggest - smallest",
        ["tests/test_weights.py::TestDominanceMargin::test_single_eta"],
    ),
    (
        "weights.py",
        "margin *= 1.5",
        "margin *= 1.6",
        ["tests/test_weights.py::TestChunkStats::test_equals_public_functions"],
    ),
    (
        "regions.py",
        "holds = (s > -0.25,",
        "holds = (s >= -0.25,",
        ["tests/test_regions.py::TestRegionMembership::test_violation_names_on_each_edge"],
    ),
    (
        "regions.py",
        "r < 1 + 2 * s)",
        "r <= 1 + 2 * s)",
        ["tests/test_regions.py::TestRegionMembership::test_pecher_edge_is_open"],
    ),
    (
        "regions.py",
        '"r3": r < 0.5 + sigma + 2 * s,',
        '"r3": r <= 0.5 + sigma + 2 * s,',
        ["tests/test_regions.py::TestCheckConstraints::test_r3_is_strict"],
    ),
    (
        "regions.py",
        '"s3": s >= -1 + rho + eps,',
        '"s3": s > -1 + rho + eps,',
        ["tests/test_regions.py::TestCheckConstraints::test_s3_edge_holds"],
    ),
    (
        "regions.py",
        '"r7": r <= 1 + 2 * s + 1 - rho - eps,',
        '"r7": r <= 1 + 2 * s + 1 - rho,',
        ["tests/test_regions.py::TestCheckConstraints::test_r7_counts_eps"],
    ),
    (
        "spinor.py",
        "return 0.5 * (psi + np.expand_dims(s, -1) * psi[..., ::-1])",
        "return 0.5 * (psi - np.expand_dims(s, -1) * psi[..., ::-1])",
        ["tests/test_spinor.py::TestDecompose::test_plus_range_vector"],
    ),
    (
        "norms.py",
        "padded[nt - kt : 2 * nt - kt, nx - kx : 2 * nx - kx]",
        "padded[nt - kt - 1 : 2 * nt - kt - 1, nx - kx : 2 * nx - kx]",
        [
            "tests/test_norms.py::TestBilinearConvolution::test_single_cells",
            "tests/test_norms.py::TestBilinearConvolution::test_fft_matches_direct",
        ],
    ),
    (
        "norms.py",
        "t0, x0 = nt // 2 - 1, nx // 2 - 1",
        "t0, x0 = nt // 2, nx // 2 - 1",
        [
            "tests/test_norms.py::TestBilinearConvolution::test_single_cells",
            "tests/test_norms.py::TestBilinearConvolution::test_fft_matches_direct",
        ],
    ),
    (
        "_checks.py",
        "return real and math.isfinite(value)",
        "return real",
        ["tests/test_checks.py::test_predicates", "tests/test_checks.py::test_finite_real_on_floats"],
    ),
    (
        "_checks.py",
        "1 <= n_samples <= cap",
        "0 <= n_samples <= cap",
        ["tests/test_checks.py::test_sample_count_admits_one_to_cap"],
    ),
    (
        "cli.py",
        "return 0 if violations == 0 else 1",
        "return 0",
        ["tests/test_cli.py::TestRegion::test_grid_containment_violation_exits_one"],
    ),
    (
        "cli.py",
        "r_values = args.r_max * (np.arange(args.nr) + 1) / args.nr",
        "r_values = args.r_max * np.arange(args.nr) / args.nr",
        ["tests/test_cli.py::TestRegion::test_grid_sweep"],
    ),
    (
        "cli.py",
        '"pass": abs(slope + delta) <= args.tolerance,',
        '"pass": abs(slope - delta) <= args.tolerance,',
        ["tests/test_cli.py::TestCounterexampleAndFit::test_ladder_csv_then_fit"],
    ),
    (
        "cli.py",
        '"pass": abs(slope + delta) <= args.tolerance,',
        '"pass": abs(slope + delta) < args.tolerance,',
        ["tests/test_cli.py::TestCounterexampleAndFit::test_fit_tolerance_zero_admits_exact_slope"],
    ),
    (
        "counterexamples.py",
        '("a", "c")',
        '("a", "b")',
        ["tests/test_counterexamples.py::TestFitExponent::test_predicted_delta_formulas"],
    ),
    (
        "counterexamples.py",
        "odd = np.maximum(((hi - 1) >> 1) - (lo >> 1) + 1, 0)",
        "odd = np.maximum(((hi - 1) >> 1) - (lo >> 1), 0)",
        ["tests/test_counterexamples.py::TestPairCounts::test_matches_point_pairs"],
    ),
    (
        "counterexamples.py",
        "return sxy / sxx, r_squared",
        "return sxy / syy, r_squared",
        ["tests/test_counterexamples.py::TestFitExponent::test_loglog_fit_matches_polyfit"],
    ),
    (
        "counterexamples.py",
        "1.0 if syy < 1e-18 else",
        "1.0 if syy < 1e-30 else",
        ["tests/test_counterexamples.py::TestFitExponent::test_loglog_fit_roundoff_ladder_explains_all"],
    ),
]


def run_tests(copy: Path, ids: list[str]) -> int:
    """pytest's exit code for ``ids`` in ``copy``, stopping at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    return subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = 0
    for module, old, new, _ in MUTANTS:
        found = (ROOT / "src" / "dkg1d" / module).read_text().count(old)
        if found != 1:
            print(f"{module}: old text {old!r} occurs {found} times, not once")
            failures += 1
    if failures:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        ids = sorted({test for *_, tests in MUTANTS for test in tests})
        start = time.perf_counter()
        if run_tests(copy, ids) != 0:
            print("the unmutated copy fails the named tests")
            return 1
        print(f"unmutated copy passes {len(ids)} test ids ({time.perf_counter() - start:.1f} s)")
        for module, old, new, tests in MUTANTS:
            path = copy / "src" / "dkg1d" / module
            original = path.read_text()
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            code = run_tests(copy, tests)
            path.write_text(original)
            verdict = "caught" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{verdict}: {module}: {old!r} -> {new!r} ({time.perf_counter() - start:.1f} s)")
            failures += code != 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
