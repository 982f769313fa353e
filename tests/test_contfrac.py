import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspflow.contfrac import (
    PrecisionExhaustedError,
    PrecisionReal,
    cf_expand,
    convergent_pairs,
    gauss_step,
    trimmed_sum,
)


# ---------------------------------------------------------------------------
# gauss_step


def test_gauss_step_exact_rational():
    a, x1 = gauss_step(PrecisionReal.from_fraction(Fraction(3, 7)))
    assert a == 2
    assert x1.value == Fraction(1, 3)


def test_gauss_step_golden_fixed_point():
    # x = (sqrt(5) - 1)/2 satisfies x = 1/(1 + x), so the Gauss map fixes it
    with mpmath.mp.workprec(300):
        x = (mpmath.sqrt(5) - 1) / 2
    px = PrecisionReal.from_mpf(x)
    a, x1 = gauss_step(px)
    assert a == 1
    assert abs(x1.value - px.value) < Fraction(1, 2**240)


def test_gauss_step_sqrt2_fixed_point():
    # x = sqrt(2) - 1 satisfies x = 1/(2 + x)
    with mpmath.mp.workprec(300):
        x = mpmath.sqrt(2) - 1
    px = PrecisionReal.from_mpf(x)
    a, x1 = gauss_step(px)
    assert a == 2
    assert abs(x1.value - px.value) < Fraction(1, 2**240)


def test_gauss_step_budget_decreases():
    rng = random.Random(11)
    x = PrecisionReal(rng.getrandbits(512), 1 << 512, bits=512)
    a, x1 = gauss_step(x)
    assert x1.bits < x.bits


def test_gauss_step_below_floor_raises():
    x = PrecisionReal(1, 3, bits=64)
    with pytest.raises(PrecisionExhaustedError):
        gauss_step(x)


# ---------------------------------------------------------------------------
# cf_expand


def test_cf_expand_three_sevenths():
    e = cf_expand(PrecisionReal.from_fraction(Fraction(3, 7)), 10)
    assert e.coeffs == (2, 3)
    assert not e.exhausted


def test_cf_expand_golden():
    with mpmath.mp.workprec(300):
        x = (mpmath.sqrt(5) - 1) / 2
    e = cf_expand(PrecisionReal.from_mpf(x), 5)
    assert e.coeffs == (1, 1, 1, 1, 1)


def test_cf_expand_small_budget_no_garbage():
    # a sample at 100 bits with floor 64 stops early; the coefficients it
    # does emit must agree with the full-precision expansion of the same value
    rng = random.Random(5)
    num = rng.getrandbits(100) | 1
    short = cf_expand(PrecisionReal(num, 1 << 100, bits=100), 50)
    full = cf_expand(PrecisionReal(num, 1 << 100, bits=None), 50)
    assert short.exhausted
    assert 0 < len(short) < len(full)
    assert full.coeffs[: len(short)] == short.coeffs


def test_cf_expand_respects_n_max():
    rng = random.Random(3)
    e = cf_expand(PrecisionReal(rng.getrandbits(4096), 1 << 4096, bits=4096), 7)
    assert len(e) == 7
    assert not e.exhausted
    assert all(a >= 1 for a in e.coeffs)


# ---------------------------------------------------------------------------
# convergents


def test_convergents_basic():
    assert list(convergent_pairs([2, 3])) == [(1, 2), (3, 7)]


def test_convergents_fibonacci():
    assert list(convergent_pairs([1, 1, 1, 1])) == [(1, 1), (1, 2), (2, 3), (3, 5)]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=25))
def test_convergents_are_reduced(coeffs):
    for p, q in convergent_pairs(coeffs):
        assert math.gcd(p, q) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_convergents_approximate_and_alternate(mantissa):
    x = PrecisionReal(2 * mantissa + 1, 1 << 65, bits=None)
    e = cf_expand(x, 12)
    signs = []
    for p, q in convergent_pairs(e.coeffs):
        err = x.value - Fraction(p, q)
        if err != 0:
            signs.append(1 if err > 0 else -1)
        assert abs(err) < Fraction(1, q**2)
    assert all(a != b for a, b in zip(signs, signs[1:]))


# ---------------------------------------------------------------------------
# Ford circles


def test_ford_disjoint_interiors():
    # distinct reduced p/q, p'/q' with q, q' <= 50: the discs of diameter
    # 1/q^2 have disjoint interiors iff |p q' - p' q| >= 1, which holds for
    # any distinct reduced pair; check the geometric inequality directly
    balls = []
    for q in range(1, 51):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                balls.append((p, q))
    for i, (p1, q1) in enumerate(balls):
        r1 = 1 / (2 * q1 * q1)
        for p2, q2 in balls[i + 1 :]:
            r2 = 1 / (2 * q2 * q2)
            dx = p1 / q1 - p2 / q2
            dy = r1 - r2
            gap = dx * dx + dy * dy - (r1 + r2) ** 2
            assert gap >= -1e-15


# ---------------------------------------------------------------------------
# trimmed_sum


def test_trimmed_sum_examples():
    assert trimmed_sum([5, 2, 9, 3]) == 10
    assert trimmed_sum([7]) == 0
    assert trimmed_sum([4, 4]) == 4


def test_trimmed_sum_empty_raises():
    with pytest.raises(ValueError):
        trimmed_sum([])


@given(st.lists(st.integers(0, 2000), min_size=1, max_size=50), st.randoms())
def test_trimmed_sum_permutation_invariant(values, rnd):
    # nonnegative values, matching the statistic's domain (coefficients,
    # excursion lengths, twist counts)
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert trimmed_sum(shuffled) == trimmed_sum(values)
    assert trimmed_sum(values) <= sum(values)

