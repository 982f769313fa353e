"""Exact sweep over denominators: the oracle for the walk's candidate set.

``sweep_records`` finds every horoball the ray i -> theta enters before T
without continued fractions and without the walk.  It tries every
direction (p, q) with p >= 0 (the fractions p/q in [0, inf] that the
walk's Stern-Brocot tree holds) and q up to a bound, and keeps the
records that the oracle builder ``oracles.records.build_record`` makes.

With A = q theta - p, B = q + p theta and h_w = c^2 / (n eps) for a
cylinder of circumference c, the ray meets the horoball at p/q iff

    2 |A| B h_w <= 1 + theta^2.

Both bounds of the sweep follow from it:

- B >= q for p >= 0, and 1 + theta^2 < 2, so a hit needs
  q |q theta - p| < n eps / c^2 <= n eps.  For each q only the few p
  within n eps / q of q theta can pass, and that test is made in integers.
- The ray enters at e^{2 t_entry} >= B^2 h_w / (1 + theta^2), and
  h_w >= 1 / (n eps), so an entry before T needs q < e^T sqrt(2 n eps).

Neither bound rests on Legendre's theorem, so the sweep is complete where
n eps / c^2 > 1/2 and a hit need not be a convergent of theta.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cuspflow.origami import cylinder_decomposition

from .records import build_record


def sweep_records(o, theta: Fraction, eps: float, T: float):
    """Every record of the ray i -> theta (0 < theta < 1) on the origami o
    at threshold eps that enters before T, in the order of (q, p, cylinder)."""
    n = o.n
    num, den = theta.numerator, theta.denominator
    norm = den * den + num * num  # den^2 (1 + theta^2)
    n_eps = n * Fraction(eps)
    # q |A| < n eps den, in integers: q |A| e_den < e_num den for n eps = e_num / e_den
    e_num, e_den = n_eps.numerator, n_eps.denominator
    bound, n_eps_float = e_num * den, float(n_eps)
    q_max = math.floor(math.exp(T) * math.sqrt(2 * n * eps)) + 2
    records = []
    for q in range(q_max + 1):
        if q == 0:
            ps = [1]  # the cusp at infinity, the only primitive (p, 0) with p >= 0
        else:
            # |q theta - p| < n eps / q, widened by 2^-20, far more than the
            # rounding of these floats; the exact test below decides
            centre, width = q * num / den, n_eps_float / q + 2.0**-20
            ps = range(max(0, math.floor(centre - width)), math.floor(centre + width) + 1)
        for p in ps:
            A = q * num - p * den  # den (q theta - p)
            if q * abs(A) * e_den >= bound or math.gcd(p, q) != 1:
                continue
            B = q * den + p * num  # den (q + p theta)
            for idx, cyl in enumerate(cylinder_decomposition(o, (p, q))):
                circ = cyl.circumference
                h_w = Fraction(circ * circ, n) / Fraction(eps)
                if 2 * abs(A) * B * h_w.numerator > norm * h_w.denominator:
                    continue
                rec = build_record(p, q, idx, circ, cyl.height, A, B, h_w, norm, n, eps, T)
                if rec is not None:
                    records.append(rec)
    return records
