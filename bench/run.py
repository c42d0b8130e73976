"""Benchmark of dkg1d's hot paths: one workload per run, one JSON line out.

    python3 bench/run.py --workload strip_ladder --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (tracing off); with ``--trace 1`` they are
the per-layer ones from a traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
THREADS = str(min(2, os.cpu_count() or 1))

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "step_us": "us",
    "samples_per_s": "1/s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dkg1d" / "__init__.py").is_file():
        print(f"no dkg1d sources under {SRC}", file=sys.stderr)
        return 2
    # At most one thread per core, in this one process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import dkg1d
    import probe
    import tracing
    import workloads

    if Path(dkg1d.__file__).resolve().parent != SRC / "dkg1d":
        print(f"dkg1d imported from {dkg1d.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up is interpreter start and imports, timed in fresh processes, plus
    # building the inputs and warming up; each part is the median of repeats.
    # It stays in raw seconds: the child process may run on the other core,
    # where a probe in this process says nothing about its speed.
    imports = [raw_seconds(lambda: import_program(tracing.LAYERS)) for _ in range(SETUP_REPEATS)]
    with tempfile.TemporaryDirectory(prefix=".scratch-", dir=HERE) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        builds = [raw_seconds(workload.setup) for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(imports) + statistics.median(builds)
        clock = probe.Clock(workload.probe)
        if args.trace:
            result = traced(workload, clock, args.seconds, dkg1d, tracing)
        else:
            result = untraced(workload, clock, args.seconds, setup_s)
    if result["problems"]:
        for line in result["problems"][:20]:
            print(f"check failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def raw_seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def import_program(layers) -> None:
    """Start a fresh interpreter that imports every layer of the program."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import " + ", ".join(f"dkg1d.{m}" for m in layers)
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)


class Tally:
    """Operations attempted and failed, and check failures of the ones that did not fail."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, rnd) -> None:
        self.attempted += len(rnd.ops)
        for label, out in rnd.ops:
            if isinstance(out, Exception):
                if not self.failed:
                    print(f"operation {label} raised {out!r}", file=sys.stderr)
                self.failed += 1
        self.problems += self.workload.check(rnd)


def untraced(workload, clock, seconds: float, setup_s: float) -> dict:
    tally = Tally(workload)
    walls, sample_rates = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        rnd = workload.run_round(clock)
        tally.add(rnd)
        walls.append(rnd.seconds)
        base = rnd.stage_seconds[workload.sample_stage] if workload.sample_stage else rnd.seconds
        sample_rates.append(rnd.samples / base)
    tally.problems += workload.final_check()
    wall_s = statistics.median(walls)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "step_us": wall_s / workload.steps * 1e6,
        "samples_per_s": statistics.median(sample_rates),
    }
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def traced(workload, clock, seconds: float, package, tracing) -> dict:
    """Alternate untraced and traced rounds; layer metrics come from the traced ones.

    Span times are scaled to the probe's reference speed by the traced rounds'
    ratio of reference to raw seconds, so that they add up like ``wall_s``.
    """
    tally = Tally(workload)
    tracer = tracing.Tracer()
    tracer.install(package)
    mark = tracer.mark()
    workload.setup()
    setup_spans = tracer.spans[mark:]
    tracer.uninstall()

    plain, with_trace = [], []
    first = tracer.mark()
    start = time.perf_counter()
    while not with_trace or time.perf_counter() - start < seconds:
        plain.append(workload.run_round(clock))
        tally.add(plain[-1])
        tracer.install(package)
        with_trace.append(workload.run_round(clock))
        tracer.uninstall()
        tally.add(with_trace[-1])
    tally.problems += workload.final_check()

    values = tracing.layer_metrics(tracer.spans[first:], first, len(with_trace), setup_spans)
    scale = sum(r.seconds for r in with_trace) / sum(r.raw for r in with_trace)
    values = {k: v * scale if k.endswith("_s") else v for k, v in values.items()}
    values["solver.steps"] = workload.field_steps
    values["trace.overhead_s"] = statistics.median(r.seconds for r in with_trace) - statistics.median(
        r.seconds for r in plain
    )
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {
            k: {"value": values[k], "unit": layer_unit(k)} for k in tracing.PER_LAYER
        },
    }


if __name__ == "__main__":
    sys.exit(main())
