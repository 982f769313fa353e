"""The record builder against the high-precision oracle on integers built
to fall into its bands.

``_build_record`` takes three differences exactly in integers only inside
bands, and decides drops (u+ <= 1) and clamps (u- <= 1) exactly only when
the time they rest on lies within MARGIN of 0.  Each strategy below builds
the hit test's integers (|A|, B, h_w and norm, so g = norm hd) right at one
of those edges: a grazing crossing (g - k down to 0), a base on or near the
horoball (g close to m, so u- or u+ is 1 or next to it, on either side),
the twist's radicand near 0, and the rational terminal (A = 0, B^2 hn next
to g).  |A| and B run past the 62 bits the builder keeps of each, and g
stays below 2^160, where the oracle's 320-bit pass takes (g - k)(g + k)
exactly and so decides every drop and clamp exactly, ties included.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspflow.excursions import GRAZING_BAND, _build_record
from oracles.records import assert_matches_oracle, build_record

EPS = 0.1

sides = st.integers(min_value=1, max_value=2**70)  # |A| and B
thresholds = st.builds(Fraction, st.integers(1, 2**16), st.integers(1, 2**16))
offsets = st.integers(min_value=-3, max_value=3)


def check(A, B, h, norm):
    """The builder's record, drop and clamp against the oracle's, and the
    number of terms it took exactly; the integers must make a hit."""
    assert norm >= 1 and 2 * abs(A) * B * h.numerator <= norm * h.denominator < 2**160
    args = (1, 2, 0, 1, 1, A, B, h, norm, 1, EPS, math.inf)
    rec, exact = _build_record(*args)
    ref = build_record(*args)
    assert (rec is None) == (ref is None)
    if ref is not None:
        assert_matches_oracle(rec, ref)
    return exact


def hit_norm(k, hd, target):
    """A norm giving g = norm hd near ``target`` and at least k (a hit)."""
    return max(target // hd, -(-k // hd), 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sides, sides, thresholds, st.integers(0, 3))
def test_grazing_crossings(a, B, h, gap):
    k = 2 * a * B * h.numerator
    norm = -(-k // h.denominator) + gap  # g - k from 0 up to a few units of hd
    exact = check(a, B, h, norm)
    g = norm * h.denominator
    if (g - k) * (g + k) < g * g * GRAZING_BAND / 2:
        assert exact >= 1  # 1 - x^2 lies well inside the grazing band


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(sides, sides, thresholds, offsets)
def test_base_near_the_horoball(a, B, h, offset):
    # g next to m = hn (a^2 + B^2): u = 1 is a root of P or next to one,
    # u- when B > a and u+ when B < a, and offset 0 with hd = 1 puts it there
    k, m = 2 * a * B * h.numerator, h.numerator * (a * a + B * B)
    norm = hit_norm(k, h.denominator, m + offset * h.denominator)
    check(a, B, h, norm)
    check(-a, B, h, norm)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sides, sides, thresholds, offsets, st.booleans())
def test_twist_radicand_near_zero(a, B, h, offset, upper):
    # 4 g^2 (m^2 - g^2) = m^2 k^2 at g^2 = m (m +- sqrt(m^2 - k^2)) / 2
    k, m = 2 * a * B * h.numerator, h.numerator * (a * a + B * B)
    root = math.isqrt(m * m - k * k)
    g = math.isqrt(m * (m + root if upper else m - root) // 2)
    check(a, B, h, hit_norm(k, h.denominator, g + offset * h.denominator))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sides, thresholds, offsets)
def test_terminal_entry_near_the_base(B, h, offset):
    # A = 0: the ray enters at u- = B^2 hn / g, at the base when that is 1
    norm = max(1, (B * B * h.numerator) // h.denominator + offset)
    check(0, B, h, norm)


def test_exact_ties_match_the_oracle():
    # u+ = 1 exactly (dropped), u- = 1 exactly (clamped), x = 1 exactly, and
    # the terminal entering exactly at the base: g = m or g = k or B^2 hn = g
    h = Fraction(1)
    assert check(3, 1, h, 10) >= 1  # m = g = 10, w = 10 - 18 < 0: u+ = 1
    assert check(1, 3, h, 10) >= 1  # m = g = 10, w = 8 > 0: u- = 1
    assert check(2, 3, h, 12) >= 1  # k = g = 12: a tangency
    assert check(0, 3, h, 9) == 1  # B^2 hn = g


def test_excursion_past_the_float_range_is_inf_as_in_the_oracle():
    # theta = 1/2^1100: the tangency at 0/1 is entered at x of about 2^-1100,
    # so E and tw exceed the float range; the times stay finite
    args = (0, 1, 0, 1, 1, 1, 2**1100, Fraction(4), 2**2200 + 1, 1, 0.25, 3.0)
    rec, exact = _build_record(*args)
    ref = build_record(*args)
    assert rec.E == rec.tw == ref.E == ref.tw == math.inf
    assert_matches_oracle(rec, ref)
