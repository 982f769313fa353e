"""Output checks, run outside the timed region.

(a) The walk's continued fraction coefficients equal the matching prefix of
    ``contfrac.cf_expand`` on the same theta (an independent Gauss-map engine).
(b) Every record is a real hit: its cylinder is recomputed from (p, q) alone
    with ``origami.apply_word`` and ``origami.horizontal_cylinders``, not the
    walk's incremental re-marking, and x <= 1 is tested with exact Fractions.
(c) On the default workload seed, records and stop flags match the reference
    committed under ``reference/``.  Integer and boolean fields must match
    exactly, float fields within ``REL_TOL``.  The angles ``phi`` and
    ``phi_max`` are left out: how they are stored is expected to change.

Regenerate the references with ``python3 cuspbench/checks.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import islice
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    import_package,
    make_config,
    run_trajectory,
    trajectory_seeds,
)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12  # for times clamped to 0.0 at the base point
REFERENCE_TRAJECTORIES = 3  # first trajectories of the default seed
RECORD_FIELDS = ("pq", "cyl_index", "complete", "weight", "t_entry", "t_exit", "E", "E_area", "tw")


def euclid_word(p: int, q: int):
    """Generator word W with W (p, q)^T = (1, 0)^T, for primitive p, q >= 0.

    One power of T or L per regular partial quotient of p/q (Euclid with
    positive remainders).  ``origami.direction_word`` sends (p, q) home too,
    but after its first step it divides with ceilings, so a regular partial
    quotient a turns into up to 2a letters: its words ran to 5*10^4 letters
    on ``orbit8-short`` and 3*10^4 on ``torus-long``, where this word has at
    most about 1400.  Partial quotients are heavy-tailed (P(a > N) is about
    1.44 / N), so its time and memory would be unbounded across runs.
    Any word with the same matrix gives the same cylinders.
    """
    word = []
    while p and q:
        if p >= q:
            word.append(("T", -(p // q)))  # T^-m (p, q) = (p - m q, q)
            p %= q
        else:
            word.append(("L", -(q // p)))  # L^-m (p, q) = (p, q - m p)
            q %= p
    if q:
        word.append(("S", -1))  # S^-1 (0, 1) = (1, 0)
    return word


class DirectionCylinders:
    """Sorted (circumference, height) of the cylinders in direction (p, q).

    Same route as ``origami.cylinder_decomposition``: re-mark the surface by
    a word sending (p, q) to (1, 0) and read its horizontal cylinders; no
    state of the walk is used.  Records come in time order, so consecutive
    words share long prefixes; the states along the previous word are kept
    and only the differing tail is applied.  Re-marking each record from
    scratch would add about 40 % of a trajectory's time on ``torus-long``
    and ``lshape-thick`` to every run's wall time.
    """

    def __init__(self, origami, surface):
        self._origami = origami
        self._word = []
        self._states = [surface]

    def __call__(self, p: int, q: int):
        word = euclid_word(p, q)
        k = 0
        limit = min(len(word), len(self._word))
        while k < limit and word[k] == self._word[k]:
            k += 1
        del self._states[k + 1:]
        for gen in word[k:]:
            self._states.append(self._origami.apply_word(self._states[-1], [gen]))
        self._word = word
        return sorted(self._origami.horizontal_cylinders(self._states[-1]), reverse=True)


def check_trajectory(contfrac, origami, surface, eps: float, result):
    """Checks (a) and (b); returns a list of problems (empty when correct)."""
    problems = []
    num, den = result.theta_num, result.theta_den
    coeffs = tuple(result.coefficients)
    oracle = contfrac.cf_expand(contfrac.PrecisionReal(num, den, None), len(coeffs) + 1)
    if tuple(oracle.coeffs[: len(coeffs)]) != coeffs:
        first = next(
            (i for i, (a, b) in enumerate(zip(coeffs, oracle.coeffs)) if a != b),
            min(len(coeffs), len(oracle.coeffs)),
        )
        problems.append(f"coefficient {first} differs from the Gauss expansion")

    n = surface.n
    eps_frac = Fraction(eps)
    norm = num * num + den * den
    cylinders = DirectionCylinders(origami, surface)
    for rec in result.records:
        p, q = rec.p, rec.q
        if math.gcd(p, q) != 1 or p < 0 or q < 0:
            problems.append(f"record {rec.label}: direction is not primitive and non-negative")
            continue
        cyls = cylinders(p, q)
        if not 0 <= rec.cyl_index < len(cyls):
            problems.append(f"record {rec.label}: no cylinder {rec.cyl_index} of {len(cyls)}")
            continue
        circ, height = cyls[rec.cyl_index]
        if rec.weight != circ * height / n:
            problems.append(f"record {rec.label}: weight {rec.weight} != {circ * height}/{n}")
        A = q * num - p * den
        B = q * den + p * num
        h_w = Fraction(circ * circ, n) / eps_frac
        if abs(2 * A * B * h_w) > norm:  # x = (2 A B h_w / norm)^2 > 1: a miss
            problems.append(f"record {rec.label}: the ray misses this horoball")
    return problems


class Checks:
    """Checks (a), (b) and, on the default workload seed, (c) for one workload."""

    def __init__(self, workload, seed: int):
        self.contfrac, _, self.origami = import_package()
        self.surface = self.origami.parse_origami(workload.surface)
        self.eps = self.origami.epsilon0(self.surface) * workload.eps_factor
        self.reference = load_reference(workload) if seed == DEFAULT_SEED else None

    def __call__(self, index: int, traj_seed: int, out):
        """Problems of the ``index``-th trajectory's outputs (empty when correct)."""
        problems = check_trajectory(self.contfrac, self.origami, self.surface, self.eps, out[0])
        if self.reference is not None and index < len(self.reference):
            problems += compare_summary(summarize(traj_seed, *out), self.reference[index])
        return problems


# The benchmark runs the checks in a helper process (a one-worker pool), so
# that their memory stays out of the benchmark process's peak RSS.
_checks = None


def start_checks(workload, seed: int) -> None:
    global _checks
    _checks = Checks(workload, seed)


def run_checks(index: int, traj_seed: int, out):
    return _checks(index, traj_seed, out)


# ---------------------------------------------------------------------------
# reference (check c)


def _pq_digest(p: int, q: int) -> str:
    # p and q run to thousands of bits; a digest keeps the reference small
    return hashlib.sha256(f"{p}/{q}".encode()).hexdigest()[:16]


def summarize(traj_seed: int, result, kept, dropped, estimate) -> dict:
    return {
        "seed": traj_seed,
        "exhausted": result.exhausted,
        "rational_terminal": result.rational_terminal,
        "coefficients": len(result.coefficients),
        "overlap_pairs": result.overlap_pairs,
        "base_inside_clamps": result.base_inside_clamps,
        "kept": len(kept),
        "dropped": [dropped.final_partial, dropped.shallow, dropped.early],
        "estimate": estimate,
        "records": [
            [_pq_digest(r.p, r.q), r.cyl_index, r.complete, r.weight,
             r.t_entry, r.t_exit, r.E, r.E_area, r.tw]
            for r in result.records
        ],
    }


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return False
        return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return type(a) is type(b) and a == b


def compare_summary(got: dict, want: dict):
    """Check (c) for one trajectory; returns a list of problems."""
    problems = []
    for key, value in want.items():
        if key == "records":
            continue
        if key == "dropped":
            if got[key] != value:
                problems.append(f"{key}: {got[key]} != reference {value}")
        elif not _same(got[key], value):
            problems.append(f"{key}: {got[key]!r} != reference {value!r}")
    rows, ref_rows = got["records"], want["records"]
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} records != reference {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        bad = [name for name, a, b in zip(RECORD_FIELDS, row, ref) if not _same(a, b)]
        if bad:
            problems.append(f"record {i}: {', '.join(bad)} differ from the reference")
    return problems


def reference_path(workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload) -> list:
    with open(reference_path(workload)) as fh:
        data = json.load(fh)
    return data["trajectories"]


def write_reference(workload) -> None:
    """Record the first ``REFERENCE_TRAJECTORIES`` trajectories of the default
    seed; each passes checks (a) and (b) first."""
    contfrac, excursions, origami = import_package()
    surface = origami.parse_origami(workload.surface)
    eps = origami.epsilon0(surface) * workload.eps_factor
    trajectories = []
    for traj_seed in islice(trajectory_seeds(workload, DEFAULT_SEED), REFERENCE_TRAJECTORIES):
        cfg = make_config(excursions, surface, eps, workload, traj_seed)
        result, kept, dropped, estimate = run_trajectory(contfrac, excursions, cfg)
        problems = check_trajectory(contfrac, origami, surface, eps, result)
        if problems:
            raise RuntimeError(f"{workload.name} seed {traj_seed}: {problems[:5]}")
        trajectories.append(summarize(traj_seed, result, kept, dropped, estimate))
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload), "w") as fh:
        head = {"workload": workload.name, "seed": DEFAULT_SEED, "fields": list(RECORD_FIELDS)}
        fh.write(json.dumps(head)[:-1] + ', "trajectories": [\n')
        for t, traj in enumerate(trajectories):
            rows = traj.pop("records")
            fh.write(json.dumps(traj)[:-1] + ', "records": [\n')
            fh.write(",\n".join(json.dumps(row) for row in rows))
            fh.write("\n]}" + (",\n" if t + 1 < len(trajectories) else "\n"))
        fh.write("]}\n")


if __name__ == "__main__":
    for wl in WORKLOADS.values():
        write_reference(wl)
        print(f"wrote {reference_path(wl)}")
