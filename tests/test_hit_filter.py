"""The walk's certified float filter on the hit test 2 |A| B h_w <= norm.

For a direction (p, q) and theta = num / den, A = q num - p den, B = q den
+ p num and norm = num^2 + den^2.  The filter reads B's top from the tops
of p, q and theta, never forming B.  It may answer only when its answer is
the exact comparison's; at tangencies and one unit away from them it must
leave the test to the exact comparison.
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspflow.excursions import (
    FILTER_ERROR,
    MARGIN,
    MAX_EXPONENT,
    TrajectoryConfig,
    _filter_verdict,
    _quotient_top,
    _ratio_top,
    enumerate_excursions,
)
from cuspflow.origami import TORUS

BIT_SIZES = (1, 2, 30, 53, 61, 62, 63, 64, 200, 1000, 5000, 12000)


def exact_ratio(A, p, q, num, den, h):
    """R = 2 |A| B h_w / norm, exactly."""
    B, norm = q * den + p * num, num * num + den * den
    return Fraction(2 * abs(A) * B * h.numerator, norm * h.denominator)


def exact_hit(A, p, q, num, den, h):
    return exact_ratio(A, p, q, num, den, h) <= 1


def tops(A, p, q, num, den, h):
    """The filter's two inputs, as the walk builds them."""
    norm = num * num + den * den
    return (_ratio_top(A, p, q, _quotient_top(num, den)),
            _quotient_top(2 * den * h.numerator, norm * h.denominator))


def verdict(*args):
    return _filter_verdict(*tops(*args))


def filter_ratio(*args):
    """The filter's float ratio m f_h 2^e, exactly, as a Fraction."""
    (m, e), (f_h, s_h) = tops(*args)
    return Fraction(m * f_h) * Fraction(2) ** (e + s_h)


def draw(rng, bits):
    return rng.getrandbits(bits) | 1 << (bits - 1)


def direction(rng, bits_pq, bits_theta):
    """(p, q, num, den) with q of ``bits_pq`` bits, p below 3 q (as on the
    walk's nodes), and num and den of ``bits_theta`` bits (theta may
    exceed 1 here, which the filter does not rely on)."""
    q = draw(rng, bits_pq)
    return rng.randrange(0, 3 * q + 1), q, draw(rng, bits_theta), draw(rng, bits_theta)


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
    for bits_pq in BIT_SIZES:
        for bits_theta in BIT_SIZES[::3]:
            p, q, num, den = direction(rng, bits_pq, bits_theta)
            A = draw(rng, bits_a) * rng.choice((-1, 1))
            h = 1 / exact_ratio(A, p, q, num, den, Fraction(1))  # makes R = 1
            # exactly tangent is a hit, and the filter may not claim it: its
            # float ratio can land on either side of 1
            assert exact_hit(A, p, q, num, den, h)
            assert verdict(A, p, q, num, den, h) is None, (A, p, q, num, den)
            # one unit away in A or in either part of h_w, on each side
            hn, hd = h.numerator, h.denominator
            for a, an, ad, unit in ((A - 1, hn, hd, A), (A + 1, hn, hd, A),
                                    (A, hn - 1, hd, hn), (A, hn + 1, hd, hn),
                                    (A, hn, hd - 1, hd), (A, hn, hd + 1, hd)):
                if not (a and an and ad):
                    continue
                g = Fraction(an, ad)
                got = verdict(a, p, q, num, den, g)
                assert got is None or got == exact_hit(a, p, q, num, den, g), (a, p, q, num, den, g)
                if abs(unit).bit_length() > 60:
                    assert got is None  # a unit is below the band's width there


def test_filter_agrees_with_exact_comparison_on_random_integers():
    rng = Random(20240906)
    decided = 0
    for _ in range(4000):
        p, q, num, den = direction(rng, rng.choice(BIT_SIZES), rng.choice(BIT_SIZES))
        h = rng.choice(THRESHOLDS)
        A = rng.getrandbits(rng.choice(BIT_SIZES))
        if rng.random() < 0.5:
            # steer toward the band: |A| near norm / (2 B h_w)
            A = int(1 / exact_ratio(1, p, q, num, den, h))
            A = max(0, A + rng.randint(-3, 3) * rng.getrandbits(rng.randint(0, 40)))
        A *= rng.choice((-1, 1))
        got = verdict(A, p, q, num, den, h)
        decided += got is not None
        assert got is None or got == exact_hit(A, p, q, num, den, h), (A, p, q, num, den, h)
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
    # B and norm as given: the direction 0/B with den = 1 has q den + p num
    # = B, and norm enters the filter only through 2 den h_w / norm
    assert (2 * abs(A) * B * h.numerator <= norm * h.denominator) is hit
    ratio = _ratio_top(A, 0, B, _quotient_top(1, 1))
    assert _filter_verdict(ratio, _quotient_top(2 * h.numerator, norm * h.denominator)) is hit


def test_exponents_just_inside_and_outside_the_ldexp_range():
    # ratios R = 2^k and 2^-k whose filter exponents straddle
    # +-MAX_EXPONENT (the mantissa m f_h lies in [2^120, 2^127]): every
    # verdict is certain and exact.  p/q = 0/1 and theta = 1 give R = |A| h_w
    straddled = set()
    for k in range(MAX_EXPONENT - 200, MAX_EXPONENT + 200):
        for A, h in ((1 << k, Fraction(1)), (1, Fraction(1, 1 << k))):
            assert exact_hit(A, 0, 1, 1, 1, h) is (A == 1)
            assert verdict(A, 0, 1, 1, 1, h) is (A == 1)
            (_, e), (_, s_h) = tops(A, 0, 1, 1, 1, h)
            straddled.add((e + s_h > 0, abs(e + s_h) > MAX_EXPONENT))
    assert len(straddled) == 4


def test_relative_error_stays_below_the_stated_bound():
    rng = Random(1997)
    worst = Fraction(0)
    for _ in range(3000):
        q = rng.getrandbits(rng.choice(BIT_SIZES))
        p = rng.getrandbits(rng.choice(BIT_SIZES)) + (q == 0)
        num = rng.getrandbits(rng.choice(BIT_SIZES)) + 1
        den = rng.getrandbits(rng.choice(BIT_SIZES)) + 1
        A = rng.getrandbits(rng.choice(BIT_SIZES)) + 1
        h = Fraction(rng.getrandbits(rng.choice(BIT_SIZES)) + 1,
                     rng.getrandbits(rng.choice(BIT_SIZES)) + 1)
        args = (A * rng.choice((-1, 1)), p, q, num, den, h)
        worst = max(worst, abs(filter_ratio(*args) / exact_ratio(*args) - 1))
    assert worst < FILTER_ERROR
    # the bound is not vacuous: the measured error reaches the float rounding
    assert worst > 2.0**-54
    assert MARGIN >= 100 * FILTER_ERROR


# the edges of B's top: q = 0 (the 1/0 anchor), p = 0, a theta so small
# that p num leaves the float range beside q den, and p and q straddling
# the 62 bits kept of each
edge_pq = st.integers(0, 8).map(lambda j: (1 << 62) + j - 4) | st.integers(0, 2**130)
tiny_theta = st.tuples(st.integers(1, 2**64), st.integers(1100, 3000)).map(
    lambda t: (t[0], (t[0] << t[1]) + 1))  # theta below 2^-1100
any_theta = st.tuples(st.integers(1, 2**200), st.integers(1, 2**200))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.just(0), edge_pq), st.one_of(st.just(0), edge_pq),
       st.one_of(tiny_theta, any_theta), st.integers(1, 2**200), st.sampled_from(THRESHOLDS),
       st.booleans())
# the 1/0 anchor has B = num: at theta = 2^-1200 its top comes from p theta
# alone, and R = 2 theta h_w ~ 2^101 is a certain miss
@example(p=1, q=0, theta=(1, 1 << 1200), a=1 << 1200, h=Fraction(2**1300), tangent=False)
def test_b_top_at_its_edges(p, q, theta, a, h, tangent):
    if p == q == 0:
        p = 1
    num, den = theta
    if tangent:
        h = 1 / exact_ratio(a, p, q, num, den, Fraction(1))
    exact = exact_ratio(a, p, q, num, den, h)
    assert abs(filter_ratio(a, p, q, num, den, h) / exact - 1) < FILTER_ERROR
    got = verdict(-a, p, q, num, den, h)
    assert got is None or got == (exact <= 1)
    if tangent:
        assert got is None


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
