import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from random import Random
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspflow import excursions
from cuspflow.contfrac import PrecisionReal, cf_expand, convergent_pairs
from cuspflow.excursions import (
    _NEIGHBOURS,
    K_RUN,
    ExcursionRecord,
    TrajectoryConfig,
    _repeated_rows,
    _run_steps,
    complete_records,
    enumerate_excursions,
    filter_excursions,
    sample_theta,
    xi_prime,
)
from cuspflow.origami import (
    TORUS,
    DisconnectedSurfaceError,
    Origami,
    cylinder_decomposition,
    epsilon0,
    parse_origami,
    word_matrix,
)
from oracles.hyperbolic import (
    Horoball,
    UhpPoint,
    UnboundedExcursionError,
    excursion_exact,
    geodesic_ray,
    intersect,
    twist_count,
)
from oracles.sweep import sweep_records

L_ORIGAMI = parse_origami("3; (1 2); (1 3)")
ORBIT8 = parse_origami("8; (1 2 3 4 5 6 7 8); (1 3)(2 5)(4 7)")
# a 6-square torus cover with n epsilon0 = 2: some direction has a cylinder
# of circumference 1, so a hit needs only q |q theta - p| < 2 and Legendre's
# theorem no longer makes every hit a convergent
WITNESS6 = parse_origami("6; (1 4)(2 5)(3 6); (1 6 5 4 3 2)")


def cf_value(coeffs):
    """Fraction with the given continued fraction expansion [0; a1, a2...]."""
    val = Fraction(0)
    for a in reversed(coeffs):
        val = Fraction(1, a + val)
    return val


# ---------------------------------------------------------------------------
# xi_prime, and the oracle twist_count (the paper's angle form, which the
# sweep below checks the engine's twists against)


def test_xi_prime_two():
    assert xi_prime(2.0) == pytest.approx(math.sqrt(3) / 4)
    assert xi_prime(2.0) == pytest.approx(0.43301, abs=1e-5)


def test_xi_prime_limits():
    assert xi_prime(1.0000001) < 1e-3
    assert xi_prime(1e9) == pytest.approx(0.5, abs=1e-9)
    vals = [xi_prime(x) for x in (1.1, 1.5, 2.0, 4.0, 16.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_xi_prime_rejects_xi_at_most_one():
    with pytest.raises(ValueError):
        xi_prime(1.0)


def test_twist_count_vanishes_at_cone_edge():
    assert twist_count(1.0, 0.1, 0.1, 0.1) == 0.0


def test_twist_count_value_against_high_precision_oracle():
    # independent evaluation of the closed form at 60 digits
    with mpmath.mp.workdps(60):
        s1, s2 = mpmath.sin(mpmath.mpf("0.02")), mpmath.sin(mpmath.mpf("0.1"))
        oracle = (2 / mpmath.mpf("0.1")) * (s2 / s1) * mpmath.sqrt(1 - s1**2 / s2**2)
    val = twist_count(1.0, 0.1, 0.02, 0.1)
    assert val == pytest.approx(float(oracle), rel=1e-12)
    assert val == pytest.approx(97.816359, abs=1e-5)


def test_twist_count_domain_errors():
    with pytest.raises(ValueError):
        twist_count(1.0, 0.1, 0.2, 0.1)
    with pytest.raises(UnboundedExcursionError):
        twist_count(1.0, 0.1, 0.0, 0.1)


def test_twist_count_angle_ratio_sandwich():
    # deep in the cone the formula sits between the angle-ratio bounds
    xi = 2.0
    for phi_max in (0.05, 0.2, 0.6):
        for frac in (0.01, 0.1, 0.3):
            phi = frac * xi_prime(xi) * phi_max
            val = twist_count(1.0, 0.1, phi, phi_max)
            lo = (2 * 1.0 / (0.1 * xi)) * (phi_max / phi)
            hi = (2 * 1.0 * xi / 0.1) * (phi_max / phi)
            assert lo < val < hi


# ---------------------------------------------------------------------------
# enumerate_excursions


def test_golden_mean_visits_fibonacci_and_stays_thick():
    # the golden ray is maximally badly approximable: below the structural
    # bound it never enters a single horoball, while the walk's path is
    # exactly the Fibonacci convergents
    bits = 2048
    theta = Fraction((math.isqrt(5 << 2 * bits) - (1 << bits)) // 2, 1 << bits)
    cfg = TrajectoryConfig(surface=TORUS, T=40.0, theta=theta, eps=0.25)
    result = enumerate_excursions(cfg)
    assert result.records == []
    assert set(result.coefficients[:40]) == {1}


def test_large_coefficient_directions_are_entered_at_convergents():
    coeffs = [1, 25, 2, 40, 1, 1, 60, 3, 90]
    theta = cf_value(coeffs)
    cfg = TrajectoryConfig(surface=TORUS, T=30.0, theta=theta, eps=0.25)
    result = enumerate_excursions(cfg)
    assert result.rational_terminal
    assert result.coefficients == tuple(coeffs)
    hits = {(r.p, r.q) for r in result.records if r.complete}
    convergents = set(convergent_pairs(coeffs))
    assert hits, "expected excursions at the large coefficients"
    assert hits <= convergents
    # the deep hits sit right before the large coefficients: the record at
    # convergent p_k/q_k has E of about eps * a_{k+1}, so at eps = 1/4 the
    # records with E > 4 are those whose next coefficient is >= 25 (the
    # others are <= 3); the final convergent is theta itself, whose
    # rational-terminal record has E = 0
    deep = {(r.p, r.q) for r in result.records if r.E > 4}
    expected_deep = {pq for pq, a_next in zip(convergent_pairs(coeffs), coeffs[1:]) if a_next >= 25}
    assert deep == expected_deep


def test_rational_theta_terminates_with_partial_record():
    cfg = TrajectoryConfig(surface=TORUS, T=25.0, theta=Fraction(5, 13), eps=0.25)
    result = enumerate_excursions(cfg)
    assert result.rational_terminal
    last = result.records[-1]
    assert last.t_exit == math.inf and not last.complete
    assert (last.p, last.q) == (5, 13)
    assert all(r.complete for r in result.records[:-1])


def test_rational_terminal_past_the_horizon_is_still_tested():
    # theta = 1/1000 is a run of 999 steps ending on theta itself, whose q
    # has 10 bits against a 9-bit horizon at T = 3: the walk still ends on
    # theta, counts it in the last run, and tests it (its record enters
    # after T, so the anchor at 0/1 is the only record)
    cfg = TrajectoryConfig(surface=TORUS, T=3.0, theta=Fraction(1, 1000), eps=0.25)
    result = enumerate_excursions(cfg)
    assert result.rational_terminal
    assert result.coefficients == (1000,)
    assert [r.label for r in result.records] == ["0/1#0"]


def test_walk_coefficients_match_gauss_expansion():
    import random

    rng = random.Random(42)
    for _ in range(5):
        theta = sample_theta(4096, rng)
        cfg = TrajectoryConfig(surface=TORUS, T=18.0, theta=theta, eps=0.25)
        result = enumerate_excursions(cfg)
        oracle = cf_expand(PrecisionReal(theta.numerator, theta.denominator, None), 60)
        k = min(len(result.coefficients), 40)
        assert result.coefficients[:k] == oracle.coeffs[:k]


@pytest.mark.parametrize("surface", [TORUS, L_ORIGAMI, ORBIT8], ids=["torus", "L", "orbit8"])
def test_walk_never_reads_past_its_sample(surface):
    # a sample num / 2^bits resolves q of contfrac.resolvable_q_bits(bits)
    # bits; the Gauss expansion under that rule must give every coefficient
    # the walk read, and not stop short of them
    for T in (1e-6, 1.0, 100.0, 400.0):
        for seed in (1, 2, 3):
            result = enumerate_excursions(TrajectoryConfig(surface=surface, T=T, seed=seed))
            num, den, coeffs = result.theta_num, result.theta_den, result.coefficients
            sample = cf_expand(PrecisionReal(num, den, den.bit_length() - 1), len(coeffs))
            assert sample.coeffs == coeffs, (T, seed)
            assert not sample.exhausted, (T, seed)


def test_records_sorted_and_times_positive():
    cfg = TrajectoryConfig(surface=TORUS, T=200.0, seed=7)
    result = enumerate_excursions(cfg)
    times = [r.t_entry for r in result.records]
    assert times == sorted(times)
    assert all(0 <= r.t_entry < 200.0 for r in result.records)
    for r in result.records:
        if r.complete:
            assert r.t_exit > r.t_entry
            assert r.tw > 0
            assert r.E_area == r.weight * r.E


def test_torus_excursion_intervals_disjoint():
    # Ford interiors are disjoint at eps <= 1, so excursion intervals into
    # distinct horoballs cannot overlap
    for seed in (1, 2, 3):
        result = enumerate_excursions(TrajectoryConfig(surface=TORUS, T=300.0, seed=seed))
        assert result.overlap_pairs == 0
        assert result.base_inside_clamps == 0


def test_l_origami_same_tangency_records_nest():
    # two cylinders in one direction give concentric horoballs; when the
    # small one is entered the big one is too, and the intervals nest
    cfg = TrajectoryConfig(surface=L_ORIGAMI, T=400.0, seed=11)
    result = enumerate_excursions(cfg)
    by_tangency = {}
    for r in result.records:
        if r.complete:
            by_tangency.setdefault((r.p, r.q), []).append(r)
    nested = [v for v in by_tangency.values() if len(v) > 1]
    for group in nested:
        group.sort(key=lambda r: r.t_entry)
        outer, inner = group[0], group[1]
        assert outer.t_entry <= inner.t_entry <= inner.t_exit <= outer.t_exit + 1e-9


@pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0, 0.4], ids=["nan", "zero", "negative", "above-bound"])
def test_eps_outside_its_range_rejected(eps):
    # eps must lie in (0, epsilon0], and epsilon0 is 1/6 for the L origami
    theta = Fraction(961, 2237)
    with pytest.raises(ValueError, match=r"in \(0, epsilon0\]"):
        enumerate_excursions(TrajectoryConfig(surface=L_ORIGAMI, T=4.0, theta=theta, eps=eps))
    eps0 = epsilon0(L_ORIGAMI)
    enumerate_excursions(TrajectoryConfig(surface=L_ORIGAMI, T=4.0, theta=theta, eps=eps0))


def test_records_past_the_int_to_str_limit():
    # q runs past 10^4300 (the default int-to-str limit) after t ~ 9,900;
    # building a record must not format p or q
    coeffs = [3, 10**2200, 60, 10**2200, 60, 5]
    cfg = TrajectoryConfig(surface=TORUS, T=10300.0, theta=cf_value(coeffs), eps=0.25)
    result = enumerate_excursions(cfg)
    assert result.rational_terminal and result.coefficients == tuple(coeffs)
    assert len(result.records) == 5
    assert any(r.complete and r.q.bit_length() > 14300 for r in result.records)


def test_determinism_same_seed():
    a = enumerate_excursions(TrajectoryConfig(surface=TORUS, T=150.0, seed=5))
    b = enumerate_excursions(TrajectoryConfig(surface=TORUS, T=150.0, seed=5))
    assert [(r.label, r.t_entry, r.E, r.tw) for r in a.records] == [
        (r.label, r.t_entry, r.E, r.tw) for r in b.records
    ]


def test_config_rejects_a_surface_that_is_not_an_origami():
    with pytest.raises(TypeError, match="parse_origami"):
        TrajectoryConfig(surface="3; (1 2); (1 3)", T=10.0, seed=1)


@pytest.mark.parametrize(
    "field, value", [("T", math.inf), ("T", math.nan), ("s_xi", math.nan), ("xi", math.nan)]
)
def test_config_rejects_non_finite(field, value):
    kwargs = {"surface": TORUS, "T": 10.0, "seed": 1, field: value}
    with pytest.raises(ValueError, match=field):
        TrajectoryConfig(**kwargs)


def test_walk_rejects_a_disconnected_surface():
    # two squares, each glued to itself: the config takes any Origami, and
    # the walk's own check refuses it before any hit test
    cfg = TrajectoryConfig(surface=Origami(2, (0, 1), (0, 1)), T=10.0, seed=1)
    with pytest.raises(DisconnectedSurfaceError, match="surface splits into 2 components"):
        enumerate_excursions(cfg)


@pytest.mark.parametrize("theta", [0, 1, Fraction(3, 2), math.nan, math.inf, "one half"])
def test_config_rejects_theta_outside_the_unit_interval_or_not_rational(theta):
    # checked where the config is built, before any walk runs
    with pytest.raises(ValueError, match="theta must be a rational number in"):
        TrajectoryConfig(surface=TORUS, T=10.0, theta=theta)


def test_import_leaves_mpmath_out():
    # records are floats from the hit test's integers; mpmath is a test
    # dependency only, and would be about half of the package's import time
    src = str(Path(excursions.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, cuspflow.excursions; print(sorted(m for m in sys.modules if 'mpmath' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_neighbour_table_words_and_nodes():
    # each row's word sends its node (a, b) of the bracket to (1, 0), the
    # horizontal direction whose cylinders the walk reads
    for a, b, word in _NEIGHBOURS:
        m11, m12, m21, m22 = word_matrix(word)
        assert (m11 * a + m12 * b, m21 * a + m22 * b) == (1, 0), (a, b)
    # the rows are the Stern-Brocot tree below the mediant (1, 1) of the
    # bracket [(0, 1), (1, 0)], to depth two, in breadth-first order
    level, nodes = [((0, 1), (1, 0))], []
    for _ in range(3):
        next_level = []
        for left, right in level:
            mid = (left[0] + right[0], left[1] + right[1])
            nodes.append(mid)
            next_level += [(left, mid), (mid, right)]
        level = next_level
    assert [(a, b) for a, b, _ in _NEIGHBOURS] == nodes


@pytest.mark.parametrize("k_run", [1, K_RUN])
def test_run_steps_are_the_first_and_last_k_run(k_run, monkeypatch):
    # the run's tested steps: the first and the last K_RUN of its k, each
    # once and in order, on both sides of k = K_RUN and of k = 2 K_RUN
    monkeypatch.setattr(excursions, "K_RUN", k_run)
    for k in range(41):
        want = sorted(set(range(min(k, k_run))) | set(range(max(0, k - k_run), k)))
        assert list(_run_steps(k)) == want, k


def _walk_fields(result):
    return (
        result.records,
        result.coefficients,
        result.rational_terminal,
        result.overlap_pairs,
        result.base_inside_clamps,
        result.exact_hit_tests,
    )


@pytest.mark.parametrize("surface", [TORUS, L_ORIGAMI, ORBIT8], ids=["torus", "L", "orbit8"])
def test_fatou_candidates_give_the_same_walk(surface, monkeypatch):
    # a hit at p/q means q |q theta - p| <= C, with
    # C = n eps (1 + theta^2) / (2 c^2 (1 + p theta / q)) < n eps / c^2,
    # and n epsilon0 = 1/2 here, so C < 1/2 at every eps <= epsilon0 and by
    # Legendre's theorem every hit is a convergent.  Row (1, 1) alone at
    # each run's first and last step (K_RUN = 1) tests the convergents and
    # Fatou's mediants (p_k + p_(k-1)) / (q_k + q_(k-1)), and must give the
    # full walk
    assert surface.n * epsilon0(surface) == 0.5
    configs = []
    for eps in (epsilon0(surface) / 2, epsilon0(surface)):
        for seed in range(1, 11):
            configs.append(TrajectoryConfig(surface=surface, T=60.0, seed=seed, eps=eps))
            rng = Random(seed)
            den = rng.randrange(2, 10**12)
            theta = Fraction(rng.randrange(1, den), den)
            configs.append(TrajectoryConfig(surface=surface, T=30.0, theta=theta, eps=eps))
    full = [_walk_fields(enumerate_excursions(cfg)) for cfg in configs]
    monkeypatch.setattr(excursions, "_NEIGHBOURS", excursions._NEIGHBOURS[:1])
    monkeypatch.setattr(excursions, "K_RUN", 1)
    for cfg, want in zip(configs, full):
        assert _walk_fields(enumerate_excursions(cfg)) == want, cfg
    assert any(records for records, *_ in full)
    assert any(terminal for _, _, terminal, *_ in full)


def test_fatou_candidates_miss_records_on_a_witness(monkeypatch):
    # where n eps > 1/2 the convergents and Fatou's mediants are not enough:
    # on WITNESS6 at epsilon0, the patch above loses 11 of 239 records, each
    # at (p_k - p_(k-1)) / (q_k - q_(k-1)) for consecutive convergents, a
    # node the depth-two neighbourhood holds and any candidate set must keep
    eps = epsilon0(WITNESS6)
    assert WITNESS6.n * eps == 2
    configs = [TrajectoryConfig(surface=WITNESS6, T=60.0, seed=seed, eps=eps) for seed in range(1, 21)]
    full = [enumerate_excursions(cfg) for cfg in configs]
    monkeypatch.setattr(excursions, "_NEIGHBOURS", excursions._NEIGHBOURS[:1])
    monkeypatch.setattr(excursions, "K_RUN", 1)
    total = lost_count = 0
    for cfg, result in zip(configs, full):
        want = {(r.p, r.q, r.cyl_index) for r in result.records}
        got = {(r.p, r.q, r.cyl_index) for r in enumerate_excursions(cfg).records}
        assert got <= want, cfg
        theta = PrecisionReal(result.theta_num, result.theta_den)
        convergents = [(0, 1)] + list(convergent_pairs(cf_expand(theta, 10**6).coeffs))
        differences = {(p1 - p0, q1 - q0) for (p0, q0), (p1, q1) in zip(convergents, convergents[1:])}
        for p, q, _ in want - got:
            assert (p, q) in differences, (cfg, p, q)
        total += len(want)
        lost_count += len(want - got)
    assert (total, lost_count) == (239, 11)


# theta = [0; 33, 1, 34, 2, 32, 1, 33, 3, 40, 1, 1, 2, 33, 5]: with K_RUN =
# 16 its runs of 33, 34 and 32 put gaps of 2, 3 and 1 steps between the
# brackets tested at either end of the run
GAP_THETA = Fraction(8413576303, 285824542277)


@pytest.mark.parametrize(
    "patch, gap_count, seed_count",
    [("full", 845, 1811), ("k_run_2", 179, 814), ("fatou", 27, 133)],
)
def test_walk_tests_each_fraction_once(patch, gap_count, seed_count, monkeypatch):
    # _ratio_top is called once per tested fraction (anchors and the
    # terminal included); the counts were the same when the walk kept a
    # set of tested fractions, so a rule that skips too few rows repeats
    # one and a rule that skips too many loses some
    if patch == "k_run_2":
        monkeypatch.setattr(excursions, "K_RUN", 2)  # gap 2 on a run of 5
    elif patch == "fatou":  # D = 0: nothing repeats, at any gap
        monkeypatch.setattr(excursions, "_NEIGHBOURS", excursions._NEIGHBOURS[:1])
        monkeypatch.setattr(excursions, "K_RUN", 1)
    ratio_top = excursions._ratio_top
    seen = []

    def recorded(A, p, q, theta_top):
        seen.append((p, q))
        return ratio_top(A, p, q, theta_top)

    monkeypatch.setattr(excursions, "_ratio_top", recorded)
    for cfg, count in [
        (TrajectoryConfig(surface=TORUS, T=60.0, theta=GAP_THETA), gap_count),
        (TrajectoryConfig(surface=TORUS, T=100.0, seed=1), seed_count),
    ]:
        seen.clear()
        enumerate_excursions(cfg)
        assert len(seen) == len(set(seen)) == count, cfg


@pytest.mark.parametrize(
    "surface, theta, T, count",
    [
        (TORUS, GAP_THETA, 60.0, 207),
        (TORUS, None, 100.0, 467),
        (L_ORIGAMI, None, 100.0, 467),
        (ORBIT8, None, 100.0, 467),
    ],
    ids=["gap", "torus", "L", "orbit8"],
)
def test_candidates_called_once_per_tested_bracket(surface, theta, T, count, monkeypatch):
    # the benchmark's tracer counts nodes by wrapping _Interval.candidates
    # as a plain function of the bracket, so the walk calls it with no
    # argument once per tested bracket; the brackets depend only on theta,
    # which seed 1 and T fix on every surface
    candidates = excursions._Interval.candidates
    calls = 0

    def counted(iv):
        nonlocal calls
        calls += 1
        return candidates(iv)

    monkeypatch.setattr(excursions._Interval, "candidates", counted)
    seed = None if theta else 1
    enumerate_excursions(TrajectoryConfig(surface=surface, T=T, theta=theta, seed=seed))
    assert calls == count


@pytest.mark.parametrize("depth", [0, 1, 2])
@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(st.booleans(), max_size=12),
    steps=st.lists(st.booleans(), min_size=1, max_size=24),
    gaps=st.lists(st.integers(1, 4), min_size=1, max_size=12),
)
def test_repeated_rows_are_the_shared_nodes(depth, prefix, steps, gaps):
    # pure integers: walk a Stern-Brocot bracket by elementary steps (True
    # moves L to L + R, False R to R + L), test brackets at the given gaps,
    # and find the nodes a R + b L each shares with all tested before it
    rows = _NEIGHBOURS[: 2 ** (depth + 1) - 1]
    L, R = (0, 1), (1, 0)
    brackets = []
    for leftward in prefix + steps:
        brackets.append((L, R))
        if leftward:
            L = (L[0] + R[0], L[1] + R[1])
        else:
            R = (R[0] + L[0], R[1] + L[1])
    brackets = brackets[len(prefix):]
    earlier = set()
    with mock.patch.object(excursions, "_NEIGHBOURS", rows):
        for i, at in enumerate(accumulate([0] + gaps)):
            if at >= len(brackets):
                break
            gap = gaps[i - 1] if i else len(rows)  # the first: none before, as in the walk
            (pL, qL), (pR, qR) = brackets[at]
            nodes = [(a * pR + b * pL, a * qR + b * qL) for a, b, _ in rows]
            shared = [row for row, node in enumerate(nodes) if node in earlier]
            assert shared == list(range(_repeated_rows(gap))), (at, gap)
            earlier.update(nodes)


@pytest.mark.parametrize("surface", [TORUS, L_ORIGAMI], ids=["torus", "L"])
def test_walk_memory_grows_at_most_linearly_in_T(surface):
    # the walk tests O(T) fractions of O(T) bits, so a set of them made its
    # transient memory grow as T^2 (x7.8-8.3 from T = 200 to 800); the walk
    # itself holds a few brackets of O(T) bits.  The transient is the traced
    # peak less what is still traced at return, with the result held: the
    # records carry p and q of O(T) bits, so the result alone grows faster
    # than T, and allocations a first run makes once (caches, interned
    # objects) would otherwise inflate whichever T runs first
    transients = []
    for T in (200.0, 800.0):
        cfg = TrajectoryConfig(surface=surface, T=T, seed=1)
        tracemalloc.start()
        try:
            result = enumerate_excursions(cfg)
            size, peak = tracemalloc.get_traced_memory()
            transients.append(peak - size)
        finally:
            tracemalloc.stop()
    assert transients[1] <= 4 * transients[0], transients


# ---------------------------------------------------------------------------
# brute-force sweep: the candidate family covers every horoball met


@pytest.mark.parametrize(
    "surface, theta, eps_factor",
    [
        (TORUS, Fraction(961, 2237), 0.5),
        (L_ORIGAMI, Fraction(2237, 5003), 1.0),
        (ORBIT8, Fraction(961, 2237), 0.5),
        (ORBIT8, Fraction(961, 2237), 1.0),
    ],
    ids=["torus", "L", "orbit8-half", "orbit8"],
)
def test_sweep_against_float_kernel(surface, theta, eps_factor):
    # independent route: enumerate ALL primitive directions with small
    # denominator and intersect with the float kernel; the engine (exact
    # integers + Stern-Brocot candidates) must find the same excursions
    # with matching times.  Kernel times are hyperbolic arclength, engine
    # times are Teichmueller (half).
    #
    # Every crossing that enters before T and leaves the horoball is
    # compared, including those that exit after T (engine records with
    # complete=False).  Only rational-terminal records (t_exit = math.inf)
    # are left out on both sides: the kernel reports them as unbounded.
    # The twist is compared with the paper's angle form evaluated on the
    # kernel's angles.  The excursion E is compared for crossings that
    # enter after the base (t_entry > 0); a crossing under way at the base
    # is measured from the base's projection by the kernel but in full by
    # the engine.
    #
    # q < 130 covers every such crossing.  The horoball at p/q has
    # Euclidean diameter n*eps/(c^2 q^2) with c >= 1, a point at height y
    # lies at hyperbolic distance >= log(1/y) from i, and that distance is
    # 2t at Teichmueller time t.  An entry before T therefore needs
    # q <= sqrt(n*eps) * e^T.  Every surface here has n*eps0 = 1/2, so with
    # T = 4 that is about 27 at eps0/2 and about 39 at eps0.
    T = 4.0
    q_bound = 130
    eps = epsilon0(surface) * eps_factor
    assert math.sqrt(surface.n * eps) * math.exp(T) < q_bound
    cfg = TrajectoryConfig(surface=surface, T=T, theta=theta, eps=eps)
    engine = {
        (r.p, r.q, r.cyl_index): r
        for r in enumerate_excursions(cfg).records
        if r.t_exit != math.inf
    }

    base = UhpPoint(0.0, 1.0)
    ray = geodesic_ray(base, float(theta))
    found = {}
    for q in range(0, q_bound):
        for p in range(-2, q + 3):
            if math.gcd(p, q) != 1:
                continue
            direction = (1, 0) if q == 0 else (p, q)
            if q == 0 and p != 1:
                continue
            cyls = sorted(
                ((c.circumference, c.height) for c in cylinder_decomposition(surface, direction)),
                reverse=True,
            )
            for idx, (circ, height) in enumerate(cyls):
                if q == 0:
                    ball = Horoball(math.inf, surface.n * eps / circ**2)
                else:
                    ball = Horoball(p / q, surface.n * eps / (circ**2 * q**2))
                geom = intersect(ray, ball)
                if geom is None or geom.unbounded:
                    continue
                t_teich = geom.t_entry / 2
                if t_teich < T and geom.t_exit > geom.t_entry + 1e-9:
                    found[(p if q else 1, q, idx)] = (geom, ball)
    assert found, "the sweep met no horoball, so it checks nothing"
    assert set(found) == set(engine)
    for key, (geom, ball) in found.items():
        assert engine[key].t_entry == pytest.approx(geom.t_entry / 2, abs=1e-7)
        assert engine[key].t_exit == pytest.approx(geom.t_exit / 2, abs=1e-7)
        oracle_tw = twist_count(engine[key].weight, eps, geom.phi, geom.phi_max)
        assert engine[key].tw == pytest.approx(float(oracle_tw), rel=1e-9)
        if engine[key].t_entry > 0:
            assert engine[key].E == pytest.approx(excursion_exact(ray, ball), rel=1e-6)


@pytest.mark.parametrize(
    "surface, T, bits, seeds, count",
    [
        (WITNESS6, 9.0, 64, 60, 100),
        (parse_origami("4; (1 3)(2 4); (1 4 3 2)"), 7.0, 60, 30, 31),
    ],
    ids=["witness6", "witness4"],
)
def test_exact_sweep_on_a_witness(surface, T, bits, seeds, count):
    # the walk against tests/oracles/sweep.py, which tries every q up to
    # its bound and the p near q theta, at epsilon0 on two surfaces where
    # a hit needs only q |q theta - p| < n eps = 2 or 1, so Legendre's
    # theorem does not confine the hits to convergents; on WITNESS6, seeds
    # 1-60 are the first to reach 100 records in all
    eps = epsilon0(surface)
    assert surface.n * eps > 0.5
    total = 0
    for seed in range(1, seeds + 1):
        theta = Fraction(Random(seed).getrandbits(bits) | 1, 2**bits)
        cfg = TrajectoryConfig(surface=surface, T=T, theta=theta, eps=eps)
        walk = {(r.p, r.q, r.cyl_index) for r in enumerate_excursions(cfg).records}
        swept = {(r.p, r.q, r.cyl_index) for r in sweep_records(surface, theta, eps, T)}
        assert walk == swept, seed
        total += len(swept)
    assert total == count


# ---------------------------------------------------------------------------
# filter_excursions


def _synthetic(E, t_entry, t_exit, weight=1.0):
    return ExcursionRecord(
        p=0,
        q=1,
        cyl_index=0,
        weight=weight,
        t_entry=t_entry,
        t_exit=t_exit,
        E=E,
        E_area=weight * E,
        tw=2 * E,
        complete=t_exit != math.inf,
    )


def test_filter_all_shallow():
    records = [_synthetic(1.0, 3.0, 4.0), _synthetic(2.0, 5.0, 6.0)]
    kept, dropped = filter_excursions(records, xi=2.0, T=10.0)
    assert kept == []
    assert dropped.shallow == 2
    assert dropped.shallow_E_area == pytest.approx(3.0)


def test_filter_threshold_value():
    # 1/xi'(2) = 4/sqrt(3) ~ 2.309
    records = [_synthetic(2.3, 5.0, 6.0), _synthetic(2.32, 7.0, 8.0)]
    kept, _ = filter_excursions(records, xi=2.0, T=10.0)
    assert [r.E for r in kept] == [2.32]
    assert 1 / xi_prime(2.0) == pytest.approx(2.3094, abs=1e-4)


def test_filter_keeps_one_deep_late_record():
    records = [_synthetic(9.0, 1.0, 1.5), _synthetic(9.0, 5.0, 6.0), _synthetic(9.0, 9.5, 12.0)]
    kept, dropped = filter_excursions(records, xi=2.0, T=10.0, s_xi=2.0)
    assert [r.t_entry for r in kept] == [5.0]
    assert dropped.early == 1 and dropped.final_partial == 1
    assert kept == [records[1]] and kept[0] is records[1]


def test_complete_records_horizon():
    records = [_synthetic(9.0, 1.0, 1.5), _synthetic(9.0, 5.0, 12.0)]
    assert [r.t_entry for r in complete_records(records, 10.0)] == [1.0]
    assert [r.t_entry for r in complete_records(records, 15.0)] == [1.0, 5.0]


# ---------------------------------------------------------------------------
# sandwich and twist-coefficient structure (unit scale)


def test_sandwich_holds_on_kept_records():
    xi = 2.0
    checked = 0
    for seed in (21, 22):
        cfg = TrajectoryConfig(surface=TORUS, T=400.0, seed=seed, xi=xi)
        result = enumerate_excursions(cfg)
        kept, _ = filter_excursions(result.records, xi=xi, T=cfg.T, s_xi=2.0)
        for rec in kept:
            lo = 2 * rec.weight / (result.eps * xi) * rec.E
            hi = 2 * rec.weight * xi / result.eps * rec.E
            assert lo < rec.tw < hi
            checked += 1
    assert checked > 50


def test_torus_twist_tracks_coefficients():
    # deep records at convergent k have tw close to 2 a_{k+1}: the ratio
    # interquartile range stays within a factor-2 band of its median
    cfg = TrajectoryConfig(surface=TORUS, T=600.0, seed=31)
    result = enumerate_excursions(cfg)
    pairs = list(convergent_pairs(result.coefficients))
    index_of = {pq: k for k, pq in enumerate(pairs)}
    ratios = []
    for rec in result.records:
        if not rec.complete or rec.E < 2.5:
            continue
        k = index_of.get((rec.p, rec.q))
        if k is None or k + 1 >= len(result.coefficients):
            continue
        ratios.append(rec.tw / result.coefficients[k + 1])
    assert len(ratios) >= 20
    ratios.sort()
    q25 = ratios[len(ratios) // 4]
    q75 = ratios[(3 * len(ratios)) // 4]
    med = ratios[len(ratios) // 2]
    assert med / 2 <= q25 and q75 <= 2 * med
