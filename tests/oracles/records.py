"""The excursion record in one high-precision pass: the oracle for
``cuspflow.excursions._build_record``.

``build_record`` takes the same arguments as the package's builder and
evaluates the same closed forms in ``RECORD_PREC``-bit mpmath arithmetic,
from the three integers of the hit test (h_w = hn / hd):

    g = norm hd,   k = 2 |A| B hn  (hit iff k <= g),   m = hn (A^2 + B^2).

With root = sqrt((g - k)(g + k)) the crossing times are u = e^{2t}:

    u- = 2 B^2 hn / (g + root),    u+ = (g + root) / (2 A^2 hn),

the excursion is E = 2 root / k, and the twist is

    tw = (2 weight / eps) sqrt(max(0, 4 (m - g)(m + g) g^2 - m^2 k^2)) / (m k),

the paper's twist in its angle form, with the sine of the ray's angle to
the tangency written as k / m and that of the half opening of the cone of
entering directions as g / m.  The differences g -+ k and m -+ g are taken
exactly in integers before rounding; the radicand's outer difference is
taken in mpf.  Each float field is its 320-bit value rounded to a float.
While g < 2^160, (g - k)(g + k) is exact at that precision, so the
decisions (u+ <= 1: no record; u- <= 1: entry clamped to the base) are the
exact ones, ties included.

A == 0 is the rational terminal: the ray ends at p/q, enters the horoball
at u- = B^2 hn / g and never leaves, so t_exit = inf and E = tw = 0.
"""

from __future__ import annotations

import math

import mpmath
import pytest

from cuspflow.excursions import RECORD_ERROR, ExcursionRecord

RECORD_PREC = 320  # bits; record quantities start from exact integers


def build_record(p, q, idx, circ, height, A, B, h_w, norm, n, eps, T):
    """The record of the ray's visit to one horoball at p/q, or None if it
    enters at or after T or crossed before the base."""
    weight = circ * height / n
    hn = h_w.numerator
    g = norm * h_w.denominator
    # mpf(n) rounds an integer to the working precision; a bare int operand
    # enters mpf arithmetic exactly, and dividing by one of thousands of bits
    # costs a long division
    mpf = mpmath.mpf
    with mpmath.mp.workprec(RECORD_PREC):
        if A == 0:
            u_entry = mpf(B * B * hn) / mpf(g)
            t_entry = float(mpmath.log(u_entry) / 2) if u_entry > 1 else 0.0
            if t_entry >= T:
                return None
            t_exit, E, tw = math.inf, 0, 0
        else:
            A2, B2 = A * A, B * B
            k = 2 * abs(A) * abs(B) * hn
            m = hn * (A2 + B2)
            # g - k >= 0 exactly (the walk's hit test)
            root = mpmath.sqrt(mpf(g - k) * mpf(g + k))
            g_root = mpf(g) + root
            u_minus = mpf(2 * B2 * hn) / g_root
            u_plus = g_root / mpf(2 * A2 * hn)
            if u_plus <= 1:
                return None  # crossing happened before the base
            t_entry = float(mpmath.log(u_minus) / 2) if u_minus > 1 else 0.0
            if t_entry >= T:
                return None
            t_exit = float(mpmath.log(u_plus) / 2)
            E = 2 * root / mpf(k)
            mk = mpf(m) * mpf(k)
            radicand = 4 * mpf(m - g) * mpf(m + g) * mpf(g) ** 2 - mk * mk
            tw = 2 * mpf(weight) / eps * mpmath.sqrt(max(0, radicand)) / mk
        return ExcursionRecord(
            p=int(p),
            q=int(q),
            cyl_index=idx,
            weight=weight,
            t_entry=t_entry,
            t_exit=t_exit,
            E=float(E),
            E_area=float(weight * E),
            tw=float(tw),
            complete=t_exit <= T,
        )


def assert_matches_oracle(rec, ref):
    """``rec`` agrees with the oracle's record ``ref``: integer and boolean
    fields and the weight equal, a time clamped to the base (or the
    terminal's infinite exit) equal, other times within 1e-12 max(1, |t|),
    tw within 1e-12 and E, E_area within ``RECORD_ERROR``, relative."""
    for field in ("p", "q", "cyl_index", "weight", "complete"):
        assert getattr(rec, field) == getattr(ref, field), field
    for field in ("t_entry", "t_exit"):
        got, want = getattr(rec, field), getattr(ref, field)
        if want in (0.0, math.inf) or got in (0.0, math.inf):
            assert got == want, field
        else:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), field
    assert rec.tw == pytest.approx(ref.tw, rel=1e-12, abs=0), "tw"
    for field in ("E", "E_area"):
        assert getattr(rec, field) == pytest.approx(getattr(ref, field), rel=RECORD_ERROR, abs=0), field
