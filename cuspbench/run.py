"""cuspflow benchmark: full per-trajectory pipeline, timed from outside the package.

One operation is one trajectory: ``enumerate_excursions``, then
``filter_excursions`` (xi = 2), then ``contfrac.trimmed_sum`` over the twists
of the complete records.  Run from the root of a checkout:

    python3 cuspbench/run.py --workload torus-long --seed 1 --seconds 25 --trace 0
    python3 cuspbench/run.py --workload all        # every workload, one table

``--trace 0`` runs trajectories back to back until their timed CPU time sums
to ``--seconds``, and at least the workload's batch, then reports the
end-to-end metrics.  Output checks and set-up probes run between
trajectories, outside the timed region.  Times are CPU time of the thread,
scaled to a reference machine speed by the interleaved kernel of
``speed.py``, because the shared host's own speed drifts by more than the
bounds between runs; the wall-clock figures are printed beside them.  ``--trace 1`` runs the workload's
fixed batch untraced and then traced, and reports the per-layer metrics of
the traced pass, so its counts repeat exactly for a given seed.  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from itertools import islice
from pathlib import Path
from time import perf_counter, thread_time

from checks import run_checks, start_checks
from layertrace import CYLINDERS, FILTER, RECORD, REMARK, TRIMMED, WALK, Tracer
from speed import REFERENCE_KERNEL_S, SpeedSampler
from workloads import (
    DEFAULT_SEED,
    ROOT,
    WORKLOADS,
    import_package,
    make_config,
    run_trajectory,
    src_available,
    trajectory_seeds,
)

SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_PROBES = 15  # fresh interpreters per untraced run; setup_s is their median
TRACED_SETUP_PROBES = 11
MAX_PROBLEMS_SHOWN = 20
CHECK_TIMEOUT_S = 120
WALL_CAP = 1.3  # an untraced run also stops once its timed wall time reaches this times --seconds


class SetupProbes:
    """Set-up phase times, each from a fresh interpreter (``setup_probe.py``).

    Probe i of ``count`` runs once the run's progress (0 to 1) reaches
    i / count, so that probes spread over the measured window and average
    the machine's drift as the trajectory metrics do, instead of all seeing
    it in one state.  One unmeasured probe runs first so that byte-code
    compilation of a new checkout is not counted.
    """

    def __init__(self, surface: str, count: int):
        self.surface = surface
        self.count = count
        self.samples = []
        self._probe()

    def _probe(self) -> dict:
        proc = subprocess.run(
            [sys.executable, str(SETUP_PROBE), self.surface],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def take_due(self, progress: float) -> None:
        while len(self.samples) < self.count and len(self.samples) <= progress * self.count:
            self.samples.append(self._probe())

    def medians(self) -> dict:
        """Median phase times at the reference speed; takes the probes not yet due first."""
        self.take_due(1.0)
        phases = [key for key in self.samples[0] if key != "kernel_s"]
        return {
            key: statistics.median(
                s[key] * REFERENCE_KERNEL_S / s["kernel_s"] for s in self.samples)
            for key in phases
        }


def peak_rss_mb() -> float:
    """Peak RSS of this process: the pipeline, not the checks (they run in a helper)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


class Run:
    """One workload in this process: surface, eps, checks and failure accounting.

    Use it as a context manager; the helper process that runs the checks is
    stopped on exit.
    """

    def __init__(self, workload, seed: int, sampler: SpeedSampler | None = None):
        self.workload = workload
        self.sampler = sampler
        self.seed = seed
        self.contfrac, self.excursions, self.origami = import_package()
        self.surface = self.origami.parse_origami(workload.surface)
        self.epsilon0 = self.origami.epsilon0(self.surface)
        self.eps = self.epsilon0 * workload.eps_factor
        self.seeds = trajectory_seeds(workload, seed)
        self.traj_seeds = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.checker = multiprocessing.get_context("fork").Pool(1, start_checks, (workload, seed))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # every check has been waited for; terminate also ends a hung one
        self.checker.terminate()
        self.checker.join()

    def timed(self, traj_seed: int):
        """Run one trajectory; returns (CPU seconds, wall seconds, output or
        None if it raised).  With a sampler, the reference kernel's time is
        taken off both."""
        cfg = make_config(self.excursions, self.surface, self.eps, self.workload, traj_seed)
        gc.collect()  # garbage of earlier trajectories is not this trajectory's cost
        out = None
        w0, c0 = perf_counter(), thread_time()
        with self.sampler.sampling() if self.sampler else nullcontext():
            try:
                out = run_trajectory(self.contfrac, self.excursions, cfg)
            except Exception:  # counted as a failed operation, the run goes on
                self.problems.append(f"seed {traj_seed} raised:\n{traceback.format_exc()}")
        # read after the timer is off, so every kernel call falls inside
        cpu, wall = thread_time() - c0, perf_counter() - w0
        if self.sampler:
            cpu -= self.sampler.interrupt_s
            wall -= self.sampler.interrupt_s
        return cpu, wall, out

    def check(self, index: int, traj_seed: int, out, problems=()) -> None:
        """Output checks (a), (b) and, on the default seed, (c); counts the
        trajectory, as failed if it raised or has any problem."""
        self.attempted += 1
        self.traj_seeds.append(traj_seed)
        if out is None:
            self.failed += 1
            return
        problems = list(problems)
        try:
            problems += self.checker.apply_async(run_checks, (index, traj_seed, out)).get(CHECK_TIMEOUT_S)
        except Exception:  # a check that raises or hangs fails the trajectory
            problems.append(f"the checks raised:\n{traceback.format_exc()}")
        if problems:
            self.failed += 1
            self.problems += [f"seed {traj_seed}: {p}" for p in problems]

    def stamp(self, args) -> dict:
        import mpmath

        return {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND,
            "workload": self.workload.name,
            "surface": self.workload.surface,
            "T": self.workload.T,
            "eps": self.eps,
            "epsilon0": self.epsilon0,
            "workload_seed": self.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "trajectory_seeds": self.traj_seeds,
            "speed_factor_p50": statistics.median(self.sampler.factors()) if self.sampler else None,
            "speed_samples": len(self.sampler.samples) if self.sampler else None,
        }


def run_untraced(run: Run, seconds: float, setup: SetupProbes):
    """Returns the trajectories' CPU and wall times."""
    cpu, wall = [], []
    setup.take_due(0.0)
    for index, traj_seed in enumerate(run.seeds):
        dt, wall_dt, out = run.timed(traj_seed)
        cpu.append(dt)
        wall.append(wall_dt)
        run.check(index, traj_seed, out)
        setup.take_due(sum(cpu) / seconds)
        if index + 1 >= run.workload.batch and (
                sum(cpu) >= seconds or sum(wall) >= WALL_CAP * seconds):
            break
    return cpu, wall


def run_traced(run: Run):
    batch = list(islice(run.seeds, run.workload.batch))
    plain = [run.timed(traj_seed) for traj_seed in batch]
    tracer = Tracer()
    with tracer.installed(run.contfrac, run.excursions):
        traced = [run.timed(traj_seed) for traj_seed in batch]
    for index, (traj_seed, (_, _, out), (_, _, traced_out)) in enumerate(zip(batch, plain, traced)):
        # dataclass equality: every record field, flag and count, floats exactly
        same = out == traced_out
        run.check(index, traj_seed, out, [] if same else ["traced outputs differ from untraced ones"])

    results = [out[0] for _, _, out in plain if out is not None]
    drops = [out[2] for _, _, out in plain if out is not None]
    s, calls = tracer.self_s, tracer.calls
    walk_s = s[WALK]
    record_calls = calls[RECORD]
    return {
        "excursions.walk.self_s": (walk_s, "s"),
        "excursions.walk.us_per_node": (1e6 * walk_s / max(tracer.nodes, 1), "us"),
        "origami.remark.calls": (calls[REMARK], "count"),
        "origami.remark.s": (s[REMARK], "s"),
        "origami.cylinders.calls": (calls[CYLINDERS], "count"),
        "origami.cylinders.s": (s[CYLINDERS], "s"),
        "excursions.record.calls": (record_calls, "count"),
        "excursions.record.s": (s[RECORD], "s"),
        "excursions.record.ms_per_call": (1e3 * s[RECORD] / max(record_calls, 1), "ms"),
        "excursions.nodes": (tracer.nodes, "count"),
        "excursions.cyl_tests": (tracer.cyl_tests, "count"),
        "excursions.hit_ratio": (record_calls / max(tracer.cyl_tests, 1), "ratio"),
        "excursions.records": (sum(len(r.records) for r in results), "count"),
        "excursions.coefficients": (sum(len(r.coefficients) for r in results), "count"),
        "excursions.exhausted": (sum(r.exhausted for r in results), "count"),
        "excursions.rational_terminal": (sum(r.rational_terminal for r in results), "count"),
        "excursions.overlap_pairs": (sum(r.overlap_pairs for r in results), "count"),
        "excursions.base_inside_clamps": (sum(r.base_inside_clamps for r in results), "count"),
        "excursions.filter.s": (s[FILTER], "s"),
        "excursions.filter.dropped_final_partial": (sum(d.final_partial for d in drops), "count"),
        "excursions.filter.dropped_shallow": (sum(d.shallow for d in drops), "count"),
        "excursions.filter.dropped_early": (sum(d.early for d in drops), "count"),
        "contfrac.trimmed_sum.s": (s[TRIMMED], "s"),
        "trace.overhead_frac": (
            sum(dt for _, dt, _ in traced) / sum(dt for _, dt, _ in plain) - 1, "ratio"),
    }


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    unscaled = {}
    with Run(workload, args.seed, None if args.trace else SpeedSampler()) as run:
        if args.trace:
            setup = SetupProbes(workload.surface, TRACED_SETUP_PROBES)
            metrics = run_traced(run)
            metrics["origami.epsilon0.s"] = (setup.medians()["epsilon0_s"], "s")
        else:
            setup = SetupProbes(workload.surface, SETUP_PROBES)
            cpu, wall = run_untraced(run, args.seconds, setup)
            scaled = [f * dt for f, dt in zip(run.sampler.factors(), cpu)]
            metrics = {
                "setup_s": (setup.medians()["total_s"], "s"),
                "traj_per_s": (len(scaled) / sum(scaled), "1/s"),
                "traj_ms_p50": (1e3 * statistics.median(scaled), "ms"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            unscaled = {
                "wall.traj_per_s": (len(wall) / sum(wall), "1/s"),
                "wall.traj_ms_p50": (1e3 * statistics.median(wall), "ms"),
                "cpu.traj_ms_p50": (1e3 * statistics.median(cpu), "ms"),
            }
    for problem in run.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"stamp": run.stamp(args)}))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:14s} {name:42s} {value:14.6g} {unit}")
    for name, (value, unit) in unscaled.items():
        print(f"{workload.name:14s} {name:42s} {value:14.6g} {unit} (not scaled)")
    print(f"{workload.name:14s} {'fail_frac':42s} {run.failed / run.attempted:14.6g} "
          f"({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not src_available():
        print(f"cuspbench: no cuspflow sources under {ROOT / 'src'}; "
              "run from the root of a cuspflow checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
