import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspflow.contfrac import (
    PrecisionReal,
    cf_expand,
    convergent_pairs,
    resolvable_q_bits,
    trimmed_sum,
)


def quadratic_sample(c, d, e, bits):
    """(sqrt(c) - d) / e rounded down to ``bits`` bits, as a sample."""
    return PrecisionReal((math.isqrt(c << 2 * bits) - (d << bits)) // e, 1 << bits, bits)


def exact(x):
    return PrecisionReal(x.num, x.den, None)


# ---------------------------------------------------------------------------
# the Gauss step, read through cf_expand: x -> 1/x - a drops the first
# coefficient, so a fixed point expands to one repeated coefficient


def test_gauss_step_exact_rational():
    # 3/7 = 1/(2 + 1/3)
    assert cf_expand(PrecisionReal(3, 7), 10).coeffs == (2,) + cf_expand(PrecisionReal(1, 3), 10).coeffs


def _check_fixed_point(x, a):
    # the exact expansion of a 300-bit sample follows the fixed point while
    # q has up to about 150 bits and then leaves it for the dyadic rounding;
    # the sample stops before the first coefficient whose q passes
    # resolvable_q_bits(300) = 118 bits, well inside the fixed point
    e = cf_expand(x, 1000)
    full = cf_expand(exact(x), 1000)
    qs = [q for _, q in convergent_pairs(full.coeffs)]
    k = len(e)
    assert e.exhausted and set(e.coeffs) == {a}
    assert full.coeffs[:k] == e.coeffs
    assert qs[k - 1].bit_length() <= resolvable_q_bits(300) == 118 < qs[k].bit_length()
    assert set(full.coeffs) != {a}


def test_gauss_step_golden_fixed_point():
    # x = (sqrt(5) - 1)/2 satisfies x = 1/(1 + x), so the Gauss map fixes it
    _check_fixed_point(quadratic_sample(5, 1, 2, 300), 1)


def test_gauss_step_sqrt2_fixed_point():
    # x = sqrt(2) - 1 satisfies x = 1/(2 + x)
    _check_fixed_point(quadratic_sample(2, 1, 1, 300), 2)


# ---------------------------------------------------------------------------
# cf_expand


def test_cf_expand_three_sevenths():
    e = cf_expand(PrecisionReal(3, 7), 10)
    assert e.coeffs == (2, 3)
    assert not e.exhausted


def test_cf_expand_golden():
    e = cf_expand(quadratic_sample(5, 1, 2, 300), 5)
    assert e.coeffs == (1, 1, 1, 1, 1)
    assert not e.exhausted


def test_cf_expand_small_budget_no_garbage():
    # a sample at 100 bits resolves q of 18 bits and stops there; the
    # coefficients it does emit must agree with the exact expansion of the
    # same value
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
        err = Fraction(x.num, x.den) - Fraction(p, q)
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

