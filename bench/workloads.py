"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (repeatable: the
same seed gives the same inputs), runs one round of its operations in
``run_round``, and checks a round's outputs in ``check``.  A round always
attempts the same operations, so the share of failed operations does not
depend on the seed or on how many rounds fit in a run.  Checks compare against
the mathematics (``reference``) or against invariants of the evolution, never
against stored outputs of the program.

``probe`` names the speed-probe kernel that resembles the workload's hot loop.
``steps`` is what ``step_us`` divides a round by (see README.md);
``field_steps`` is the number of solver field-steps in a round; ``samples`` in
a round is what ``samples_per_s`` counts, per second of the stage named
``sample_stage`` (the whole round when None).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from probe import Clock
from dkg1d import counterexamples as cx
from dkg1d import regions, solver, spinor, weights

SLOPE_TOL = 0.15
RATIO_RTOL = 1e-12


@dataclass
class Round:
    """One round's operations, and the times of its timed stages.

    ``raw`` is measured seconds; ``seconds`` and ``stage_seconds`` are the same
    times at the probe's reference speed (see ``probe``).
    """

    clock: Clock
    ops: list = field(default_factory=list)  # (label, output or the exception it raised)
    samples: int = 0
    raw: float = 0.0
    seconds: float = 0.0
    stage_seconds: dict = field(default_factory=dict)

    def stage(self, name: str, fn):
        out, raw, seconds = self.clock.measure(fn)
        self.raw += raw
        self.seconds += seconds
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
        return out

    def attempt(self, label, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises counts as failed; the run goes on
            out = exc
        self.ops.append((label, out))
        return out


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _state_distance(a, b) -> float:
    return float(
        np.sqrt(
            np.sum(np.abs(a.psi_plus - b.psi_plus) ** 2)
            + np.sum(np.abs(a.psi_minus - b.psi_minus) ** 2)
            + np.sum((a.phi - b.phi) ** 2)
            + np.sum((a.phi_t - b.phi_t) ** 2)
        )
    )


def _state_norm(a) -> float:
    return float(
        np.sqrt(
            np.sum(np.abs(a.psi_plus) ** 2)
            + np.sum(np.abs(a.psi_minus) ** 2)
            + np.sum(a.phi**2)
            + np.sum(a.phi_t**2)
        )
    )


def _reversal(state, dt: float) -> float:
    """Relative distance after one +dt Strang step and one -dt Strang step."""
    back = solver.strang_step(solver.strang_step(state, dt), -dt)
    return _state_distance(back, state) / max(_state_norm(state), 1.0)


def _check_series(series, rows: int, label: str, charge0: float | None = None) -> list[str]:
    """Row count, finiteness, and charge drift against ``charge0`` (default: the first row)."""
    problems = []
    if series.t.size != rows:
        problems.append(f"{label}: {series.t.size} diagnostics rows, expected {rows}")
    columns = (series.t, series.charge, series.hs_psi, series.hr_phi, series.kg_energy)
    if not all(np.all(np.isfinite(c)) for c in columns):
        problems.append(f"{label}: non-finite diagnostics")
    charge0 = series.charge[0] if charge0 is None else charge0
    drift = float(np.max(np.abs(series.charge - charge0)) / charge0)
    if not drift <= 1e-10:
        problems.append(f"{label}: relative charge drift {drift:.3e} > 1e-10")
    return problems


class StripLadder:
    """All five strip families over one ladder, with the exponent tuples of
    acceptance criteria 4 and 6 plus one seeded tuple per family."""

    name = "strip_ladder"
    sample_stage = None
    probe = "memory"
    LADDER = (32.0, 64.0, 128.0, 256.0)
    ZEROS = (0.0,) * 6
    SCALING = {
        "cond1_ab": [ZEROS, (1, 0, 0, 1, 1, 1)],
        "cond2": [ZEROS, (0.5, 0, 0, 0, 0.5, 0)],
        "cond3": [ZEROS, (1, 0, 1, 0, 0, 0)],
        "cond1_gamma": [ZEROS, (0.5, 0.5, 0, 1, 1, 0)],
        "cond4": [ZEROS, (0.5, 0.5, -0.5, 0, 0, 0.5)],
    }
    VIOLATORS = {
        "cond1": (0, 0, 1, 1, 1, -0.5),
        "cond2": (0, 0, 0, 0.6, 0, 0.6),
        "cond3": (-0.5, 0.5, 0, 0.5, 0.5, 0.5),
        "cond4": (1, 1, -1, 1, 1, -1.5),
    }
    # Seeded tuples have entries in [-1/2, 1/2]; over that box the fitted
    # slope stays within 0.05 of -delta on this ladder for every family, so
    # no seed can fail the 0.15 check.
    SEEDED_RANGE = 0.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._reference: dict = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.plan = {f: [tuple(map(float, e)) for e in ts] for f, ts in self.SCALING.items()}
        self.expected = {f: [("delta", e) for e in ts] for f, ts in self.plan.items()}
        for cond, e in self.VIOLATORS.items():
            e = tuple(map(float, e))
            margins = ref.necessary_margins(e)
            if {name for name, m in margins.items() if m < 0} != {cond}:
                raise RuntimeError(f"violator {e} must violate exactly {cond}")
            family = cond
            if cond == "cond1":
                family = "cond1_gamma" if e[5] <= min(e[3], e[4]) else "cond1_ab"
            self.plan[family].append(e)
            self.expected[family].append(("violation", -margins[cond]))
        for family in self.plan:
            e = tuple(float(x) for x in rng.uniform(-self.SEEDED_RANGE, self.SEEDED_RANGE, 6))
            self.plan[family].append(e)
            self.expected[family].append(("delta", e))
        self.steps = len(self.plan) * len(self.LADDER)
        self.field_steps = 0
        for family, tuples in self.plan.items():
            cx.ratio_ladder(family, self.LADDER[:1], [cx.ExponentTuple(*e) for e in tuples])

    def _ladder_and_fits(self, family: str):
        tuples = self.plan[family]
        rows = cx.ratio_ladder(family, self.LADDER, [cx.ExponentTuple(*e) for e in tuples])
        L = np.array(self.LADDER)
        slopes = []
        for e in tuples:
            ratios = np.array([r.ratio for r in rows if tuple(r.exponents) == e])
            slopes.append(cx.loglog_fit(L, ratios)[0])
        return rows, slopes

    def run_round(self, clock: Clock) -> Round:
        rnd = Round(clock)
        for family in self.plan:
            out = rnd.stage("ladder", lambda: rnd.attempt(family, self._ladder_and_fits, family))
            if not isinstance(out, Exception):
                rnd.samples += len(out[0])
        return rnd

    def _strip_reference(self, family: str, L: float) -> ref.StripReference:
        key = (family, L)
        if key not in self._reference:
            self._reference[key] = ref.StripReference(family, L)
        return self._reference[key]

    def check(self, rnd: Round) -> list[str]:
        problems = []
        for family, out in rnd.ops:
            if isinstance(out, Exception):
                continue
            rows, slopes = out
            tuples = self.plan[family]
            if len(rows) != len(tuples) * len(self.LADDER):
                problems.append(f"{family}: {len(rows)} ratio rows")
                continue
            for row in rows:
                e = tuple(row.exponents)
                want = self._strip_reference(family, row.L).terms(e)
                got = (row.numerator, row.denom_u, row.denom_v)
                err = max(abs(g - w) / w for g, w in zip(got, want))
                if not err <= RATIO_RTOL:
                    problems.append(f"{family} L={row.L} {e}: relative error {err:.3e} against the pair-count reference")
            for e, slope, (kind, target) in zip(tuples, slopes, self.expected[family]):
                if kind == "delta":
                    delta = ref.delta(family, target)
                    if not abs(slope + delta) <= SLOPE_TOL:
                        problems.append(f"{family} {e}: slope {slope:.4f} against -delta {-delta:.4f}")
                elif not slope >= target - SLOPE_TOL:
                    problems.append(f"{family} {e}: slope {slope:.4f} below violation {target:.4f} - {SLOPE_TOL}")
        return problems

    def final_check(self) -> list[str]:
        return []


def _smooth_data(rng, grid):
    """Gaussian data of seeded width, centre and amplitudes, well inside the box."""
    width = grid.x_extent * rng.uniform(1 / 20, 1 / 12)
    centre = grid.x_extent * rng.uniform(-1 / 16, 1 / 16)
    envelope = np.exp(-(((grid.x - centre) / width) ** 2))
    amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amp *= 1.1 / np.linalg.norm(amp)
    psi0 = envelope[:, None] * amp[None, :]
    phi0 = rng.uniform(0.3, 0.6) * envelope
    phi1 = rng.uniform(0.1, 0.3) * envelope * np.cos(2 * np.pi * grid.x / grid.x_extent)
    return psi0, phi0, phi1


class SmoothRun:
    """``solver.run`` with the criterion-7 set-up: smooth data, n = 1024, box 32,
    M = m = 1, dt = dx/2, 10^4 Strang steps, diagnostics every 16 steps.

    The 10^4 steps are ten chained ``solver.run`` calls of 10^3 steps each, so
    that the speed probe brackets every half second rather than every five.
    """

    name = "smooth_run"
    sample_stage = None
    probe = "compute"
    N, BOX, SEGMENTS, SEGMENT_STEPS, EVERY = 1024, 32.0, 10, 1000, 16

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.grid = solver.GridSpec1D(self.N, self.BOX)
        dt = self.grid.dx / 2
        psi0, phi0, phi1 = _smooth_data(rng, self.grid)
        self.state = solver.init_state(psi0, phi0, phi1, 1.0, 1.0, self.grid)
        self.charge0 = solver.charge(self.state)
        self.dt = dt
        self.configs = [
            solver.SolverConfig(grid=self.grid, dt=dt, t_end=(k + 1) * self.SEGMENT_STEPS * dt, diagnostics_every=self.EVERY)
            for k in range(self.SEGMENTS)
        ]
        # Exact transport: with a_- = 0 and phi = 0 the density vanishes and,
        # for M = 0, a_+ is translated rigidly by t; t is a whole number of cells.
        self.shift = int(rng.integers(32, 65))
        gauss = np.exp(-(((self.grid.x - rng.uniform(-2, 2)) / rng.uniform(1, 2)) ** 2))
        zeros = np.zeros(self.N)
        self.transport_state = solver.init_state(
            np.stack([gauss, gauss], axis=-1) / np.sqrt(2), zeros, zeros, 0.0, 1.0, self.grid
        )
        self.steps = self.field_steps = self.SEGMENTS * self.SEGMENT_STEPS
        warm = solver.SolverConfig(grid=self.grid, dt=dt, t_end=self.EVERY * dt, diagnostics_every=self.EVERY)
        solver.run(warm, self.state)

    def run_round(self, clock: Clock) -> Round:
        rnd = Round(clock)
        state = self.state
        for k, config in enumerate(self.configs):
            label = f"segment{k}"
            if isinstance(state, Exception):
                rnd.ops.append((label, state))
                continue
            out = rnd.stage("run", lambda: rnd.attempt(label, solver.run, config, state, return_final=True))
            if isinstance(out, Exception):
                state = out
            else:
                rnd.samples += out[0].t.size
                state = out[1]
        return rnd

    def check(self, rnd: Round) -> list[str]:
        problems = []
        rows = -(-self.SEGMENT_STEPS // self.EVERY) + 1
        for label, out in rnd.ops:
            if isinstance(out, Exception):
                continue
            series, final = out
            problems += _check_series(series, rows, label, self.charge0)
            self.final = final
        if hasattr(self, "final") and not abs(self.final.t - self.steps * self.dt) <= 1e-9 * self.final.t:
            problems.append(f"final time {self.final.t!r} after {self.steps} steps of {self.dt!r}")
        return problems

    def final_check(self) -> list[str]:
        problems = []
        if hasattr(self, "final"):
            rev = _reversal(self.final, self.dt)
            if not rev <= 1e-12:
                problems.append(f"reversal {rev:.3e} > 1e-12")
        config = solver.SolverConfig(grid=self.grid, dt=self.dt, t_end=self.shift * self.grid.dx, diagnostics_every=self.EVERY)
        _, moved = solver.run(config, self.transport_state, return_final=True)
        want = np.roll(self.transport_state.psi_plus, self.shift)
        err = max(
            float(np.abs(moved.psi_plus - want).max()),
            float(np.abs(moved.psi_minus).max()),
            float(np.abs(moved.phi).max()),
        )
        if not err <= 1e-8:
            problems.append(f"M = 0 transport error {err:.3e} > 1e-8")
        return problems


class RoughEnsemble:
    """Eight seeded members of ``rough_data`` at s = 1/4 on n = 4096, with
    r = 1/2 diagnostics every step; each final state is saved and loaded."""

    name = "rough_ensemble"
    sample_stage = None
    probe = "compute"
    N, BOX, MEMBERS, STEPS, S, R = 4096, 64.0, 8, 256, 0.25, 0.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.grid = solver.GridSpec1D(self.N, self.BOX)
        dt = self.grid.dx / 2
        zeros = np.zeros(self.N)
        self.states = [
            solver.init_state(solver.rough_data(self.S, s, self.grid), zeros, zeros, 1.0, 1.0, self.grid)
            for s in _seeds(self.seed, self.MEMBERS)
        ]
        self.config = solver.SolverConfig(
            grid=self.grid, dt=dt, t_end=self.STEPS * dt, diagnostics_every=1, diag_s=self.S, diag_r=self.R
        )
        self.paths = [self.workdir / f"member{i}.bin" for i in range(self.MEMBERS)]
        self.steps = self.field_steps = self.MEMBERS * self.STEPS
        warm = solver.SolverConfig(grid=self.grid, dt=dt, t_end=4 * dt, diagnostics_every=1, diag_s=self.S, diag_r=self.R)
        solver.run(warm, self.states[0])

    def _member(self, state, path):
        series, final = solver.run(self.config, state, return_final=True)
        solver.save_state(path, final)
        return series, final, solver.load_state(path)

    def run_round(self, clock: Clock) -> Round:
        rnd = Round(clock)
        for i, (state, path) in enumerate(zip(self.states, self.paths)):
            out = rnd.stage("member", lambda: rnd.attempt(f"member{i}", self._member, state, path))
            if not isinstance(out, Exception):
                rnd.samples += out[0].t.size
        return rnd

    def check(self, rnd: Round) -> list[str]:
        problems = []
        self.finals = []
        for label, out in rnd.ops:
            if isinstance(out, Exception):
                continue
            series, final, loaded = out
            problems += _check_series(series, self.STEPS + 1, label)
            if not abs(series.hs_psi[0] - 1.0) <= 1e-12:
                problems.append(f"{label}: H^s norm at t = 0 is {series.hs_psi[0]!r}, not 1")
            same = all(
                np.array_equal(getattr(loaded, k), getattr(final, k))
                and getattr(loaded, k).dtype == getattr(final, k).dtype
                for k in ("psi_plus", "psi_minus", "phi", "phi_t")
            ) and (loaded.t, loaded.M, loaded.m, loaded.grid) == (final.t, final.M, final.m, final.grid)
            if not same:
                problems.append(f"{label}: loaded snapshot differs from the saved state")
            self.finals.append(final)
        return problems

    def final_check(self) -> list[str]:
        problems = []
        for i, final in enumerate(getattr(self, "finals", [])):
            rev = _reversal(final, self.config.dt)
            if not rev <= 1e-12:
                problems.append(f"member{i}: reversal {rev:.3e} > 1e-12")
        return problems


class IdentitySweep:
    """Null-structure identities, the 3/2 weight inequality over 10^6-sample
    chunks, and the region grid with parameter choices inside and outside."""

    name = "identity_sweep"
    sample_stage = "sweep"
    probe = "memory"
    IDENTITY_SAMPLES, CHUNK, CHUNKS, BOX = 100_000, 1_000_000, 10, 1e3
    GRID, POINTS = 200, 1000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.identity_seed, *self.chunk_seeds = _seeds(self.seed, 1 + self.CHUNKS)
        self.s_grid = np.linspace(-0.3, 0.5, self.GRID)
        self.r_grid = 1.5 * (np.arange(self.GRID) + 1) / self.GRID
        self.inside, self.outside = [], []
        while len(self.inside) < self.POINTS:
            s, r = rng.uniform(-0.26, 0.6), rng.uniform(0.0, 1.7)
            if not ref.region_violations(s, r):
                self.inside.append((s, r))
        while len(self.outside) < self.POINTS:
            s, r = rng.uniform(-0.6, 0.8), rng.uniform(-0.5, 2.0)
            if ref.region_violations(s, r):
                self.outside.append((s, r))
        self.steps = self.CHUNKS
        self.field_steps = 0
        spinor.verify_identities(1000, seed=self.identity_seed)
        weights.sample_margins(10_000, seed=self.identity_seed, box=self.BOX)
        regions.choose_parameters(*self.inside[0])
        regions.choose_parameters(*self.outside[0])

    def _grid(self):
        flags = np.empty((self.GRID, self.GRID, 3), dtype=bool)
        for i, s in enumerate(self.s_grid):
            for j, r in enumerate(self.r_grid):
                flags[i, j] = (
                    regions.in_wellposed_region(s, r),
                    regions.in_pecher_region(s, r),
                    regions.in_machihara_region(s, r),
                )
        return flags

    def _choose(self, rnd: Round, side: str, points) -> None:
        for s, r in points:
            rnd.attempt((side, s, r), regions.choose_parameters, s, r)

    def run_round(self, clock: Clock) -> Round:
        rnd = Round(clock)
        rnd.stage(
            "identities",
            lambda: rnd.attempt("identities", spinor.verify_identities, self.IDENTITY_SAMPLES, seed=self.identity_seed),
        )
        for k, chunk_seed in enumerate(self.chunk_seeds):
            out = rnd.stage(
                "sweep",
                lambda: rnd.attempt(f"chunk{k}", weights.sample_margins, self.CHUNK, seed=chunk_seed, box=self.BOX),
            )
            if not isinstance(out, Exception):
                rnd.samples += out["samples"]
        rnd.stage("grid", lambda: rnd.attempt("grid", self._grid))
        rnd.stage("inside", lambda: self._choose(rnd, "inside", self.inside))
        rnd.stage("outside", lambda: self._choose(rnd, "outside", self.outside))
        return rnd

    def check(self, rnd: Round) -> list[str]:
        problems = []
        for label, out in rnd.ops:
            if isinstance(out, Exception):
                continue
            if label == "identities":
                # Criterion 1: identities at 1e-14, null-form vanishing at 1e-12.
                for key, value in out.items():
                    tol = 1e-12 if key == "null_form_vanishing" else 1e-14
                    if not value <= tol:
                        problems.append(f"identity {key}: residual {value:.3e} > {tol:.0e}")
            elif label == "grid":
                wellposed, pecher, machihara = out[..., 0], out[..., 1], out[..., 2]
                recheck = np.array(
                    [[not ref.region_violations(s, r) for r in self.r_grid] for s in self.s_grid]
                )
                if not np.array_equal(wellposed, recheck):
                    problems.append("region grid: membership differs from the recheck")
                if np.any((pecher | machihara) & ~wellposed):
                    problems.append("region grid: a Pecher or Machihara point is outside the region")
                if not np.any(wellposed & ~(pecher | machihara)):
                    problems.append("region grid: the region gains no point over the earlier ones")
            elif label[0] == "inside":
                _, s, r = label
                if not isinstance(out, regions.ParameterChoice) or not regions.all_constraints_hold(
                    regions.check_constraints(s, r, out)
                ):
                    problems.append(f"({s}, {r}) inside: no valid parameter choice")
            elif label[0] == "outside":
                _, s, r = label
                if not isinstance(out, regions.Infeasible) or set(out.violated) != ref.region_violations(s, r):
                    problems.append(f"({s}, {r}) outside: wrong violated inequalities {out!r}")
            else:
                # Criterion 2, with the summed bound made relative to the input scale.
                if out["samples"] != self.CHUNK:
                    problems.append(f"{label}: {out['samples']} samples")
                if not out["min_relative_margin"] >= -1e-9:
                    problems.append(f"{label}: relative margin {out['min_relative_margin']:.3e}")
                if not out["max_relative_residual"] <= 1e-12:
                    problems.append(f"{label}: identity residual {out['max_relative_residual']:.3e}")
                if not out["min_sum_bound_margin"] / (self.BOX + 1) >= -1e-9:
                    problems.append(f"{label}: summed-bound margin {out['min_sum_bound_margin']:.3e}")
        return problems

    def final_check(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (StripLadder, SmoothRun, RoughEnsemble, IdentitySweep)}
