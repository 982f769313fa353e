"""The Gauss-map expansion, trusted exactly as far as a sample resolves it.

A ``PrecisionReal`` is an exact rational ``num/den`` in (0, 1).  A sampled
direction also carries its resolution ``bits``, and its coefficients are
read only while their convergent denominator q has at most
``resolvable_q_bits(bits)`` bits, the rule by which the walk in
``excursions`` samples theta; past it the expansion stops, flagged
``exhausted``, before the dyadic tail's noise.  With ``bits=None`` the
value is exact and expands until it terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


def resolvable_q_bits(bits: int) -> int:
    """Bits of a convergent denominator q that a ``bits``-bit sample resolves.

    The points whose expansion starts with the coefficients up to p/q fill
    an interval of length >= 1/(2 q^2).  For q of at most this many bits (a
    64-bit guard) it exceeds 2^62 times the sample's uncertainty 2^-bits.
    """
    return (bits + 1 - 64) // 2


@dataclass(frozen=True)
class PrecisionReal:
    """Exact rational in (0, 1): a sample resolved to ``bits`` bits, or
    exact when ``bits is None``."""

    num: int
    den: int
    bits: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.num < self.den:
            raise ValueError(f"value {self.num}/{self.den} is not in (0, 1)")


@dataclass(frozen=True)
class CfExpansion:
    """Continued fraction coefficients; ``exhausted`` is True when they
    stopped at the sample's resolution, not at the value's end or n_max."""

    coeffs: tuple
    exhausted: bool

    def __len__(self):
        return len(self.coeffs)


def cf_expand(x: PrecisionReal, n_max: int) -> CfExpansion:
    """First ``min(n_max, resolved)`` continued fraction coefficients of x:
    one Euclid loop, each Gauss step a ``divmod``, with q the convergent
    denominator."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    q_cap = None if x.bits is None else resolvable_q_bits(x.bits)
    num, den = x.num, x.den
    q_prev, q = 0, 1
    coeffs = []
    while num and len(coeffs) < n_max:
        a, r = divmod(den, num)
        q_prev, q = q, a * q + q_prev
        if q_cap is not None and q.bit_length() > q_cap:
            return CfExpansion(tuple(coeffs), True)
        coeffs.append(a)
        num, den = r, num
    return CfExpansion(tuple(coeffs), False)


def convergent_pairs(coeffs: Iterable[int]):
    """Convergents (p_k, q_k) of ``[0; a1, a2, ...]`` by the standard recurrence."""
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a in coeffs:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield p, q


def trimmed_sum(values):
    """Sum of the values with one occurrence of the maximum left out.

    The maximum is removed before summing, not subtracted after, so a
    dominant maximum (or an infinite one) cannot cancel the rest.  The sum
    is plain ``sum``: coefficients are ints that can pass the float range.
    """
    values = list(values)
    if not values:
        raise ValueError("trimmed sum of an empty sequence")
    values.remove(max(values))
    return sum(values)
