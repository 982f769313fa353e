"""Gauss-map dynamics with honest precision accounting.

A ``PrecisionReal`` is an exact rational ``num/den`` in (0, 1).  Values
sampled at a finite bit budget (or converted from an mpf, which is an
exact dyadic rational) carry a precision budget: every Gauss step
amplifies the initial sampling uncertainty by ``1/x^2``, so the budget is
decremented by the measured ``2 log2(1/x)`` (rounded up, plus a guard
bit).  The expansion halts with an explicit ``exhausted`` flag before the
budget crosses the safety floor, so the coefficient stream never degrades
silently into noise from the dyadic tail.  Values constructed from exact
rationals carry no budget and expand until the rational terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import mpmath

SAFETY_FLOOR_BITS = 64


class PrecisionExhaustedError(RuntimeError):
    """Operation requested below the precision safety floor."""


@dataclass(frozen=True)
class PrecisionReal:
    """Exact rational in (0, 1) with an optional remaining precision budget.

    ``bits is None`` means the value is an exact rational (no budget
    bookkeeping); otherwise ``bits`` is the remaining budget in bits.
    """

    num: int
    den: int
    bits: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.num < self.den:
            raise ValueError(f"value {self.num}/{self.den} is not in (0, 1)")

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @classmethod
    def from_fraction(cls, frac) -> "PrecisionReal":
        frac = Fraction(frac)
        return cls(frac.numerator, frac.denominator, None)

    @classmethod
    def from_mpf(cls, x, bits: Optional[int] = None) -> "PrecisionReal":
        """Exact dyadic conversion of an mpf, with a budget (default: its resolution).

        Reads the mantissa tuple directly; wrapping through ``mpmath.mpf``
        would re-round to the ambient working precision.
        """
        if not isinstance(x, mpmath.mpf):
            x = mpmath.mpf(x)
        sign, man, exp, bc = x._mpf_
        if sign or exp >= 0:
            raise ValueError(f"value {x} is not in (0, 1)")
        if bits is None:
            bits = -exp
        return cls(int(man), 1 << (-exp), bits)


def _step_loss(num: int, den: int) -> int:
    # error amplification of one Gauss step is 1/x^2; measure it from the
    # bit lengths of den/num and round up, with one guard bit
    return 2 * max(1, den.bit_length() - num.bit_length() + 1) + 1


def gauss_step(x: PrecisionReal):
    """One step of the Gauss map: ``a = floor(1/x)``, ``x' = 1/x - a``.

    Returns ``(a, x')`` where ``x'`` is None when the rational terminates
    exactly.  Raises ``PrecisionExhaustedError`` when the remaining budget
    is not above the safety floor.
    """
    if x.bits is not None and x.bits <= SAFETY_FLOOR_BITS:
        raise PrecisionExhaustedError(f"remaining budget {x.bits} bits is at the safety floor")
    a, r = divmod(x.den, x.num)
    if r == 0:
        return a, None
    new_bits = None if x.bits is None else x.bits - _step_loss(x.num, x.den)
    return a, PrecisionReal(r, x.num, new_bits)


@dataclass(frozen=True)
class CfExpansion:
    """Continued fraction coefficients plus an honesty flag.

    ``exhausted`` is True when the expansion stopped because the precision
    budget hit the safety floor rather than because the value terminated
    or ``n_max`` was reached.
    """

    coeffs: tuple
    exhausted: bool

    def __len__(self):
        return len(self.coeffs)


def cf_expand(x: PrecisionReal, n_max: int) -> CfExpansion:
    """First ``min(n_max, available)`` continued fraction coefficients of x."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    coeffs = []
    cur = x
    exhausted = False
    while len(coeffs) < n_max:
        if cur.bits is not None and cur.bits <= SAFETY_FLOOR_BITS:
            exhausted = True
            break
        a, cur = gauss_step(cur)
        coeffs.append(a)
        if cur is None:
            break
    return CfExpansion(tuple(coeffs), exhausted)


def convergent_pairs(coeffs: Iterable[int]):
    """Convergents (p_k, q_k) of ``[0; a1, a2, ...]`` by the standard recurrence."""
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a in coeffs:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield p, q


def trimmed_sum(values):
    """Sum minus one occurrence of the maximum."""
    values = list(values)
    if not values:
        raise ValueError("trimmed sum of an empty sequence")
    return sum(values) - max(values)
