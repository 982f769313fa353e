"""Tests of the benchmark itself: python3 -m pytest -q cuspbench"""

import dataclasses
import signal
from itertools import islice
from time import thread_time

import pytest

from checks import (
    DirectionCylinders,
    check_trajectory,
    compare_summary,
    euclid_word,
    load_reference,
    summarize,
)
from layertrace import CYLINDERS, RECORD, REMARK, WALK, Tracer
from speed import PERIOD_S, SpeedSampler
from workloads import DEFAULT_SEED, WORKLOADS, import_package, make_config, run_trajectory, trajectory_seeds

contfrac, excursions, origami = import_package()

# small versions of the workloads, so the tests run in seconds
SMALL = [
    dataclasses.replace(WORKLOADS["torus-long"], T=120.0),
    dataclasses.replace(WORKLOADS["orbit8-short"], T=40.0),
    dataclasses.replace(WORKLOADS["lshape-thick"], T=80.0),
]
HELD_OUT_SEED = 20260


def _trajectories(workload, seed, count):
    surface = origami.parse_origami(workload.surface)
    eps = origami.epsilon0(surface) * workload.eps_factor
    for traj_seed in islice(trajectory_seeds(workload, seed), count):
        cfg = make_config(excursions, surface, eps, workload, traj_seed)
        yield surface, eps, traj_seed, cfg


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_run_yields_the_same_records(workload):
    for _, _, _, cfg in _trajectories(workload, DEFAULT_SEED, 2):
        plain = run_trajectory(contfrac, excursions, cfg)
        tracer = Tracer()
        with tracer.installed(contfrac, excursions):
            traced = run_trajectory(contfrac, excursions, cfg)
        assert traced == plain
        assert tracer.nodes > 0 and tracer.cyl_tests > 0
        assert tracer.calls[WALK] == 1
        assert tracer.calls[REMARK] > 0 and tracer.calls[CYLINDERS] > 0
        assert tracer.calls[RECORD] >= len(plain[0].records)
    # the wrappers are gone again
    assert excursions.enumerate_excursions.__module__ == "cuspflow.excursions"
    assert excursions._Interval.candidates.__qualname__ == "_Interval.candidates"


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_checks_pass_on_a_held_out_seed(workload):
    for surface, eps, _, cfg in _trajectories(workload, HELD_OUT_SEED, 2):
        result = run_trajectory(contfrac, excursions, cfg)[0]
        assert result.records
        assert check_trajectory(contfrac, origami, surface, eps, result) == []


def test_direction_cylinders_match_cylinder_decomposition():
    workload = SMALL[2]
    for surface, _, _, cfg in _trajectories(workload, HELD_OUT_SEED, 1):
        result = excursions.enumerate_excursions(cfg)
        reader = DirectionCylinders(origami, surface)
        for rec in result.records:
            expected = [
                (c.circumference, c.height)
                for c in origami.cylinder_decomposition(surface, (rec.p, rec.q))
            ]
            assert reader(rec.p, rec.q) == expected


def test_checks_catch_wrong_outputs():
    workload = SMALL[2]
    surface, eps, _, cfg = next(_trajectories(workload, HELD_OUT_SEED, 1))
    result = excursions.enumerate_excursions(cfg)
    bad_coeffs = dataclasses.replace(
        result, coefficients=result.coefficients[:-1] + (result.coefficients[-1] + 1,)
    )
    assert check_trajectory(contfrac, origami, surface, eps, bad_coeffs)
    rec = result.records[len(result.records) // 2]
    moved = dataclasses.replace(rec, p=rec.p + 2 * rec.q)  # same cylinders, other cusp
    bad_hit = dataclasses.replace(result, records=[moved])
    assert any("misses" in p for p in check_trajectory(contfrac, origami, surface, eps, bad_hit))


def test_orbit8_matches_its_reference():
    workload = WORKLOADS["orbit8-short"]
    reference = load_reference(workload)
    runs = _trajectories(workload, DEFAULT_SEED, len(reference))
    for (_, _, traj_seed, cfg), want in zip(runs, reference):
        got = summarize(traj_seed, *run_trajectory(contfrac, excursions, cfg))
        assert compare_summary(got, want) == []
        got["records"][0][4] *= 1 + 1e-6  # t_entry off by far more than the tolerance
        assert compare_summary(got, want) == ["record 0: t_entry differ from the reference"]


@pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (1, 1), (3, 7), (7, 3), (355, 113), (10**6 + 1, 10**6)])
def test_euclid_word_sends_direction_home(p, q):
    a, b, c, d = origami.word_matrix(euclid_word(p, q))
    assert (a * p + b * q, c * p + d * q) == (1, 0)


def test_euclid_word_stays_short_on_a_large_partial_quotient():
    # 10^4 / (10^4 + 1) = [0; 1, 10^4]: three letters here, 2 * 10^4 in origami.direction_word
    p, q = 10**4, 10**4 + 1
    assert len(euclid_word(p, q)) == 3
    assert len(origami.direction_word(p, q)) > 10**4


def test_speed_sampler_interrupts_and_accounts_for_its_kernel():
    sampler = SpeedSampler()
    with sampler.sampling():
        t0 = thread_time()
        while thread_time() - t0 < 6 * PERIOD_S:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.interrupt_s >= sum(sampler.samples)
    assert len(sampler.factors()) == 1 and sampler.factors()[0] > 0
    # the timer and the handler are gone again
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
