"""Workload definitions and the per-trajectory pipeline the benchmark times.

Each workload is a closed loop: one process, one thread, trajectories run
back to back.  Trajectory seeds are drawn from a stream seeded by the
workload name and the workload seed; the package only ever sees the
resulting ``TrajectoryConfig``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
XI = 2.0  # filter depth parameter


@dataclass(frozen=True)
class Workload:
    name: str
    surface: str
    T: float
    eps_factor: float  # eps = eps_factor * epsilon0
    batch: int  # traced batch and minimum untraced count


# why each workload was chosen is stated in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("torus-long", "1; (); ()", 1600.0, 0.5, 3),
        Workload("orbit8-short", "8; (1 2 3 4 5 6 7 8); (1 3)(2 5)(4 7)", 100.0, 0.5, 40),
        Workload("lshape-thick", "3; (1 2); (1 3)", 800.0, 1.0, 4),
    )
}


def src_available() -> bool:
    return (SRC / "cuspflow" / "__init__.py").is_file()


def import_package():
    """Import the package from the checkout's ``src`` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cuspflow import contfrac, excursions, origami

    return contfrac, excursions, origami


def trajectory_seeds(workload: Workload, seed: int):
    """Endless stream of per-trajectory seeds; the same workload seed gives the same stream."""
    rng = random.Random(f"cuspbench/{workload.name}/{seed}")
    while True:
        yield rng.getrandbits(63)


def make_config(excursions, surface, eps: float, workload: Workload, traj_seed: int):
    return excursions.TrajectoryConfig(
        surface=surface, T=workload.T, seed=traj_seed, eps=eps, xi=XI
    )


def run_trajectory(contfrac, excursions, cfg):
    """One operation: walk, filter, then the trimmed twist sum of the complete records.

    Module attributes are looked up at call time so that the tracer's
    wrappers, when installed, see every call.
    """
    result = excursions.enumerate_excursions(cfg)
    kept, dropped = excursions.filter_excursions(result.records, cfg.xi, cfg.T, cfg.s_xi)
    complete = excursions.complete_records(result.records, cfg.T)
    estimate = contfrac.trimmed_sum([r.tw for r in complete])
    return result, kept, dropped, estimate
