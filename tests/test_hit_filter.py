"""The walk's certified float filter on the hit test 2 |A| B h_w <= norm.

The filter may answer only when its answer is the exact comparison's; at
tangencies and one unit away from them it must leave the test to the exact
comparison.
"""

import math
from fractions import Fraction
from random import Random

import pytest

from cuspflow.excursions import (
    FILTER_ERROR,
    MARGIN,
    MAX_EXPONENT,
    TrajectoryConfig,
    _filter_verdict,
    _fraction_top,
    _ratio_top,
    _top,
    enumerate_excursions,
)
from cuspflow.origami import TORUS

BIT_SIZES = (1, 2, 30, 53, 61, 62, 63, 64, 200, 1000, 5000, 12000)


def exact_hit(A, B, h, norm):
    return 2 * abs(A) * abs(B) * h.numerator <= norm * h.denominator


def verdict(A, B, h, norm):
    return _filter_verdict(_ratio_top(abs(A), abs(B), _top(norm)), _fraction_top(h))


def filter_ratio(A, B, h, norm):
    """The filter's float ratio m f_h 2^e, exactly, as a Fraction."""
    (m, e), (f_h, s_h) = _ratio_top(abs(A), abs(B), _top(norm)), _fraction_top(h)
    return Fraction(m * f_h) * Fraction(2) ** (e + s_h)


def tangency(rng, bits_a, bits_b, h):
    """(A, B, norm) with 2 A B h_w == norm exactly: A carries h's denominator."""
    A = (rng.getrandbits(bits_a) | 1 << (bits_a - 1)) * h.denominator
    B = rng.getrandbits(bits_b) | 1 << (bits_b - 1)
    return A, B, 2 * (A // h.denominator) * B * h.numerator


THRESHOLDS = (
    Fraction(1, 1),
    Fraction(4),  # torus at epsilon0 / 2
    Fraction(9, 2),
    Fraction(64, 3),
    Fraction(2**1100 // 3 + 1, 7),  # the size of h_w at a tiny user eps
    Fraction(3**700, 2**1050 + 1),
)


@pytest.mark.parametrize("bits_a", BIT_SIZES)
def test_tangencies_and_unit_near_misses(bits_a):
    rng = Random(bits_a)
    for bits_b in BIT_SIZES:
        for h in THRESHOLDS:
            A, B, norm = tangency(rng, bits_a, bits_b, h)
            assert 2 * A * B * h.numerator == norm * h.denominator
            # exactly tangent is a hit, and the filter may not claim it: its
            # float ratio can land on either side of 1
            assert exact_hit(A, B, h, norm)
            assert verdict(A, B, h, norm) is None, (A, B, h, norm)
            # one unit away in A or in norm, on each side
            for a, n in ((A - 1, norm), (A + 1, norm), (A, norm - 1), (A, norm + 1)):
                got = verdict(a, B, h, n)
                assert got is None or got == exact_hit(a, B, h, n), (a, B, h, n)
                if min(a.bit_length(), n.bit_length()) > 60:
                    assert got is None  # a unit is below the band's width there


def test_filter_agrees_with_exact_comparison_on_random_integers():
    rng = Random(20240906)
    decided = 0
    for _ in range(4000):
        A = rng.getrandbits(rng.choice(BIT_SIZES)) * rng.choice((-1, 1))
        B = rng.getrandbits(rng.choice(BIT_SIZES)) + 1
        norm = rng.getrandbits(rng.choice(BIT_SIZES)) + 1
        h = rng.choice(THRESHOLDS)
        if rng.random() < 0.5:
            # steer toward the band: norm near 2 |A| B h_w
            target = 2 * abs(A) * B * h.numerator // h.denominator
            norm = max(1, target + rng.randint(-3, 3) * (rng.getrandbits(rng.randint(0, 40))))
        got = verdict(A, B, h, norm)
        decided += got is not None
        assert got is None or got == exact_hit(A, B, h, norm), (A, B, h, norm)
    assert decided > 2000


@pytest.mark.parametrize("A, B, h, norm, hit", [
    (0, 5, Fraction(4), 7, True),  # theta's own direction: R = 0
    (0, 1 << 9000, Fraction(2**1100 + 1, 3), 1, True),
    (1, 1, Fraction(4), 1 << 3000, True),  # exponent far below -MAX_EXPONENT
    (1 << 2000, 1 << 2000, Fraction(4), 1, False),  # far above +MAX_EXPONENT
    (3, 5, Fraction(2**1100 + 1, 3), 1 << 40, False),  # huge h_w
    (3, 5, Fraction(3, 2**1100 + 1), 1 << 40, True),  # tiny h_w
])
def test_exponent_gaps_and_terminal_are_decided_exactly(A, B, h, norm, hit):
    assert exact_hit(A, B, h, norm) is hit
    assert verdict(A, B, h, norm) is hit


def test_exponents_just_inside_and_outside_the_ldexp_range():
    # ratios R = 2^k around +-MAX_EXPONENT: every verdict is certain and exact
    for k in range(MAX_EXPONENT - 70, MAX_EXPONENT + 70):
        for A, norm in ((1 << k, 2), (1, 1 << (k + 1))):
            assert exact_hit(A, 1, Fraction(1), norm) is (A < norm)
            assert verdict(A, 1, Fraction(1), norm) is (A < norm)


def test_relative_error_stays_below_the_stated_bound():
    rng = Random(1997)
    worst = Fraction(0)
    for _ in range(3000):
        A = rng.getrandbits(rng.choice(BIT_SIZES)) + 1
        B = rng.getrandbits(rng.choice(BIT_SIZES)) + 1
        norm = rng.getrandbits(rng.choice(BIT_SIZES)) + 1
        h = Fraction(rng.getrandbits(rng.choice(BIT_SIZES)) + 1,
                     rng.getrandbits(rng.choice(BIT_SIZES)) + 1)
        exact = Fraction(2 * A * B * h.numerator, norm * h.denominator)
        worst = max(worst, abs(filter_ratio(A, B, h, norm) / exact - 1))
    assert worst < FILTER_ERROR
    # the bound is not vacuous: the measured error reaches the float rounding
    assert worst > 2.0**-54
    assert MARGIN >= 100 * FILTER_ERROR


def near_tangent_eps(theta, p, q):
    """The dyadic eps nearest above the one that makes the torus horoball at
    p/q tangent to the ray toward theta (h_w = 1/eps)."""
    num, den = theta.numerator, theta.denominator
    A, B = q * num - p * den, q * den + p * num
    tangent = Fraction(2 * abs(A) * B, num * num + den * den)
    eps = float(tangent)
    return eps if Fraction(eps) >= tangent else math.nextafter(eps, 1)


def test_near_tangency_goes_to_the_exact_test():
    # a float eps is dyadic, and below 1/n that rules out an exact tangency
    # (the factors 2 cannot balance); one ulp of eps either side of it is as
    # close as the walk gets
    theta = Fraction(3, 8) + Fraction(1, 10**9)
    eps_hit = near_tangent_eps(theta, 3, 8)
    for eps, hit in ((eps_hit, True), (math.nextafter(eps_hit, 0), False)):
        result = enumerate_excursions(TrajectoryConfig(surface=TORUS, T=30.0, theta=theta, eps=eps))
        assert result.exact_hit_tests == 1
        grazing = [r for r in result.records if (r.p, r.q) == (3, 8)]
        assert len(grazing) == int(hit)
        # the grazing record's 1 - x^2 is taken exactly; no other term is
        assert result.exact_record_terms == int(hit)
        if hit:
            assert 0 < grazing[0].E < 1e-6  # x just below 1


def test_default_eps_walk_needs_no_exact_test():
    result = enumerate_excursions(TrajectoryConfig(surface=TORUS, T=200.0, seed=3))
    assert result.records and result.exact_hit_tests == 0


@pytest.mark.parametrize("eps", [5e-324, 1e-300])
def test_tiny_eps_never_overflows(eps):
    for theta in (Fraction(3, 8) + Fraction(1, 10**9), Fraction(5, 2**40 + 1)):
        result = enumerate_excursions(TrajectoryConfig(surface=TORUS, T=30.0, theta=theta, eps=eps))
        assert result.records == []
        assert result.exact_hit_tests == 0
