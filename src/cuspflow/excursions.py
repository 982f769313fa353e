"""Drive a geodesic ray through the cylinder horoball family.

The ray runs from the base point i toward a boundary direction theta in
(0, 1).  Candidate tangencies are generated by walking the Stern-Brocot
tree toward theta: every mediant visited is a semiconvergent of theta,
and the walk also tests the Stern-Brocot nodes up to depth two below it
(a brute-force sweep test checks that this family covers every horoball
actually met).  The neighbourhood is the table ``_NEIGHBOURS``: one row
per node a R + b L of the bracket [L, R], with the T/L word that turns
the bracket's re-marked origami into the one whose horizontal cylinders
are the cylinders in that direction.  The brackets the walk tests lie on
one path down the tree, so the nodes a bracket shares with those tested
before it are its top levels, known from the number of steps since the
last tested one (``_repeated_rows``).  The walk skips those rows and so
tests each fraction once, without a set of tested fractions: such a set
would hold thousands of big-int pairs and grow as T^2 in memory.
``_Interval.candidates`` returns the rows themselves, and the walk forms a
node's integers from the bracket's endpoints only for the rows it tests:
q first (the horizon), then A, then p for the hit test.

The walk is one loop of runs.  Each run moves one endpoint of the
bracket by the other, in one ``_Interval.step``, as often as theta stays
on the same side of the mediant (one continued fraction coefficient);
the bracket's re-marked origami moves with it by one permutation power.
Every re-marking and cylinder read goes through a table that lives for
one trajectory (``_States``): a power is reduced modulo the order of its
permutation, each (state, move) pair is built once and each labeled
state's cylinders are read once.  The walk holds each state as an int id
of that table, and an ``Origami`` is built, validated and hashed only on
a table miss, so a trajectory that meets few states (one on the torus,
ten on the L-shaped surface) pays for them once and then only for dict
lookups keyed by ints, however long it runs.  The loop ends at the
denominator horizon, or when the bracket's own mediant is theta (A = 0
below), the rational terminal: theta = p/q, the last run takes one more
step onto it, and the same record builder makes the terminal records
there, as the ray enters every horoball at p/q and never leaves.

Exactness: theta is an exact rational num/den (samples are dyadic).  For
a direction (p, q) put

    A = q theta - p        (integer A_int / den)
    B = q + p theta        (integer B_int / den)

The walk carries (p, q, A_int) at the bracket's endpoints: each is linear
in (p, q), so a node's entries are small-integer combinations of the
endpoints' and the walk is exact integer arithmetic.  With h_w = c^2 /
(n eps) (one of n values, computed once per trajectory) the ray misses
the horoball at p/q unless x = (2 A B h_w / (1 + theta^2))^2 <= 1, that
is unless

    R = 2 |A_int| B_int h_w / (num^2 + den^2) <= 1.

The integers run to thousands of bits, so each cylinder's test is first
put to a certified float filter (``_filter_verdict``).  It rebuilds R in
floats from the top 62 bits of A_int, p, q and of per-trajectory
quotients: B_int = q den + p num = den (q + p theta) is a sum of two
nonnegative terms, so its top follows from the tops of q, p and theta
without cancellation, and B_int itself is not formed.  R is within
relative error ``FILTER_ERROR`` = 10 * 2^-53 (about 1.1e-15, derived in
its docstring), and the filter answers only when its float lies outside
1 +- ``MARGIN`` (1e-12): there its answer is the exact one.  Inside the
band, where tangencies lie, B_int = q den + p num is formed and the exact
integer comparison decides, and ``TrajectoryResult.exact_hit_tests``
counts those.  Every verdict is therefore exact.

Each hit's record (``_build_record``) is a closed form in three integers
of the hit test (B_int is formed exactly for it), g = norm hd,
k = 2 |A_int| B_int hn and m = hn (A_int^2 + B_int^2) for h_w = hn / hd,
but it is evaluated in
floats from the same 62-bit tops, without forming those products: the
ratios k / g and g / m and the ratios under the times' logs each carry a
relative error of about 1e-15, and each log is taken on a normalised
ratio plus its exponent times ln 2, so no float overflows however long
the integers are.  Where a difference cancels (1 - (k/g)^2 at a grazing
crossing, the twist's radicand at the edge of the cone of entering
directions) the floats could lose digits, so inside a band derived from
their error bound that difference is taken exactly in integers, and so
are the decisions whether the ray crossed before the base and whether it
starts inside the horoball, whenever the time they rest on lies within
``MARGIN`` of 0.  ``TrajectoryResult.exact_record_terms`` counts those
integer terms.  Every drop and clamp decision is therefore exact, and
E, E_area and tw are within ``RECORD_ERROR`` (2^-41, about 4.5e-13) and
the times within 5e-14 max(1, |t|) of the exact values (derived in the
docstring of ``_build_record``).

Times are Teichmueller times: half the hyperbolic arclength (the diagonal
flow moves i to e^{2t} i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from random import Random
from typing import List, Optional, Sequence, Tuple

from .origami import (
    Origami,
    act_L,
    act_S_inv,
    act_T,
    epsilon0,
    horizontal_cylinders,
    permutation_order,
)

KAPPA = 4.0  # denominator horizon safety factor

# The hit-test filter (see ``_filter_verdict``): its float ratio is within
# relative error FILTER_ERROR of the exact one, and it decides only outside
# 1 +- MARGIN, some 900 times wider than that error.
FILTER_ERROR = 10 * 2.0**-53
MARGIN = 1e-12
TOP_BITS = 62  # bits of each integer the filter keeps

# The record builder (see ``_build_record``): float terms outside these
# bands, exact integer ones inside, so E, E_area and tw are within relative
# error RECORD_ERROR of the exact values.  Its times decide their sign in
# floats outside +-MARGIN.
GRAZING_BAND = 2.0**-8  # on 1 - x^2
CONE_BAND = 2.0**-6  # on the twist's radicand
RECORD_ERROR = 2.0**-41
LN2 = math.log(2)


def xi_prime(xi: float) -> float:
    """The depth threshold constant: 0.5 sqrt(1 - 1/xi^2), in (0, 1/2)."""
    if not xi > 1:
        raise ValueError(f"xi must be > 1, got {xi}")
    return 0.5 * math.sqrt(1 - 1 / (xi * xi))


@dataclass
class ExcursionRecord:
    """One visit of the ray to the horoball of cylinder ``cyl_index`` at
    p/q.  ``_build_record`` gives every field in closed form from the hit
    test's integers."""

    p: int
    q: int
    cyl_index: int
    weight: float
    t_entry: float
    t_exit: float  # math.inf when the ray runs into the tangency
    E: float  # full-crossing value; 0.0 for tangency-bound records
    E_area: float
    tw: float
    complete: bool

    @property
    def label(self) -> str:
        """``p/q#cyl_index``; formatted on demand, as p and q can have more
        digits than ``int`` converts to ``str`` by default."""
        return f"{self.p}/{self.q}#{self.cyl_index}"


@dataclass(frozen=True)
class TrajectoryConfig:
    surface: Origami
    T: float
    seed: Optional[int] = None
    theta: Optional[Fraction] = None  # sampled from seed when None
    eps: Optional[float] = None  # defaults to epsilon0 / 2
    xi: float = 2.0
    s_xi: float = 2.0

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        xi_prime(self.xi)  # raises unless xi > 1
        if not self.s_xi >= 0:
            raise ValueError(f"s_xi must be >= 0, got {self.s_xi}")
        if not isinstance(self.surface, Origami):
            raise TypeError(
                f"surface must be an Origami (parse_origami builds one from text), "
                f"got {type(self.surface).__name__} {self.surface!r}"
            )
        if self.theta is None and self.seed is None:
            raise ValueError("either theta or a seed is required")
        if self.theta is not None:
            try:
                inside = 0 < Fraction(self.theta) < 1
            except (TypeError, ValueError, OverflowError):  # NaN, inf, not a number
                inside = False
            if not inside:
                raise ValueError(f"theta must be a rational number in (0, 1), got {self.theta!r}")

    def resolved_eps(self) -> float:
        e0 = epsilon0(self.surface)
        if self.eps is None:
            return e0 / 2
        if not 0 < self.eps <= e0:
            raise ValueError(f"eps={self.eps} must lie in (0, epsilon0], and epsilon0={e0}")
        return self.eps


@dataclass
class DroppedSummary:
    final_partial: int = 0
    shallow: int = 0
    early: int = 0
    shallow_E_area: float = 0.0
    early_E_area: float = 0.0


@dataclass
class TrajectoryResult:
    """What the walk found, and how it stopped.

    ``exhausted`` is always False: the walk stops at its denominator
    horizon, and a sampled theta resolves every q up to it
    (``contfrac.resolvable_q_bits``; see the comment where
    ``enumerate_excursions`` samples theta).  The flag stays for readers
    that report it.
    """

    records: List[ExcursionRecord]
    eps: float
    theta_num: int
    theta_den: int
    coefficients: Tuple[int, ...]
    exhausted: bool
    rational_terminal: bool
    overlap_pairs: int
    base_inside_clamps: int
    hit_tests: int  # per-cylinder hit tests made by the walk
    exact_hit_tests: int  # of those, the ones the float filter left to the exact comparison
    exact_record_terms: int  # record terms taken in integers inside their bands (_build_record)


def sample_theta(bits: int, rng: Random) -> Fraction:
    """Uniform dyadic direction in (0, 1) at the given resolution."""
    num = rng.getrandbits(bits) | 1  # odd: never terminates early in lowest terms
    return Fraction(num, 1 << bits)


def _top(x: int) -> Tuple[float, int]:
    """x >= 0 as (f, s) with x ~ f 2^s: f is the float of x's top
    ``TOP_BITS`` bits (x shifted left when shorter), so 2^61 <= f <= 2^62
    for x > 0, and f = 0 for x = 0."""
    s = x.bit_length() - TOP_BITS
    return float(x >> s if s >= 0 else x << -s), s


def _float(f: float, e: int) -> float:
    """f 2^e, correctly rounded: inf past the float range, a subnormal or 0
    below it.  The filter and the records leave the range to this rule."""
    try:
        return math.ldexp(f, e)
    except OverflowError:
        return math.inf


def _quotient_top(x: int, y: int) -> Tuple[float, int]:
    """x / y > 0 as (f, s), ~ f 2^s with 1/2 <= f <= 2: f is 2^-TOP_BITS
    times the float of floor(x / (y 2^(s - TOP_BITS))), an integer of
    TOP_BITS or TOP_BITS + 1 bits."""
    s = x.bit_length() - y.bit_length() - TOP_BITS
    return float((x >> s if s >= 0 else x << -s) // y) * 2.0**-TOP_BITS, s + TOP_BITS


def _ratio_top(A: int, p: int, q: int, theta_top: Tuple[float, int]) -> Tuple[float, int]:
    """|A| B / den = |A| (q + p theta) as (m, e), ~ m 2^e, for B = q den +
    p num, p, q >= 0 not both 0, and ``theta_top = _quotient_top(num,
    den)`` (taken once per trajectory); B itself is not formed.

    The tops of A, q and p are taken as in ``_top`` (a negative A's
    shift rounds its magnitude up, not down).  The two terms q and p theta
    are nonnegative, and the one with the smaller exponent is shifted down
    to the other's, so the sum neither cancels nor overflows.  A term
    shifted below the float range (p theta under about 2^-1080 q, as at a
    tiny theta) is rounded with an absolute error below 2^-1074 against a
    sum of at least 2^60, and q = 0 (the 1/0 anchor) or p = 0 adds exactly
    0.  So 2^121 <= m <= 2^126 for A != 0, and m = 0 for A = 0.
    """
    s = A.bit_length() - TOP_BITS
    fa = abs(float(A >> s if s >= 0 else A << -s))
    sq = q.bit_length() - TOP_BITS
    fq = float(q >> sq if sq >= 0 else q << -sq)
    sp = p.bit_length() - TOP_BITS
    fp = float(p >> sp if sp >= 0 else p << -sp) * theta_top[0]  # p theta ~ fp 2^sp
    sp += theta_top[1]
    if q and (not p or sq >= sp):
        return fa * (fq + math.ldexp(fp, sp - sq)), s + sq
    return fa * (fp + math.ldexp(fq, sq - sp)), s + sp


def _filter_verdict(ratio: Tuple[float, int], h_top: Tuple[float, int]) -> Optional[bool]:
    """Certified float verdict on the hit test 2 |A| B h_w <= norm.

    ``ratio = _ratio_top(A, p, q, _quotient_top(num, den))``, which stands
    for |A| B / den, and ``h_top = _quotient_top(2 den hn, norm hd)`` for
    h_w = hn / hd, which stands for 2 den h_w / norm (one per circumference
    and trajectory).  Returns True (hit) or False (miss) when that verdict
    is certain, and None when the exact integer comparison must decide.

    Error bound: r = m f_h 2^e stands for R = 2 |A| B h_w / norm.
    With u = 2^-53 (round to nearest) and t = 2^-61, each truncation puts
    a factor within [1 - t, 1/(1 - t)] on r / R (A, q and p cut to their
    top 62 bits, and each ``_quotient_top`` floored to an integer of at
    least 62 bits), and each rounding one within [1 - u, 1/(1 - u)]:

    * q: one truncation and one conversion, (t, u);
    * p theta: p (t, u), theta (t, u), their product (u), so (2t, 3u);
    * B / den = q + p theta: a sum of two nonnegative terms carries the
      worse of the two terms' factors, then one rounding, so (2t, 4u) (the
      float-range loss of a shifted term is below 2^-1130 relative, far
      inside the bound's slack);
    * |A|: (t, u); the product m = f_A f_B: u;
    * 2 den h_w / norm: (t, u), its integer products being exact;
    * m f_h: u.

    That is 4 truncations and 8 roundings in all, so

        |r / R - 1| <= (1 - u)^-8 (1 - t)^-4 - 1 < 8.1 u < FILTER_ERROR = 10 u,

    about 1.1e-15.  As FILTER_ERROR < MARGIN, r > 1 + MARGIN gives R > 1,
    a certain miss, and r < 1 - MARGIN gives R < 1, a certain hit; the
    band between, where tangencies (R = 1) lie, goes to the exact test.
    The float of r is ``_float``'s, the one range rule of the records too:
    exact while normal, inf past the range (R > 2^1023, a miss), and under
    2^-1022 below it (a hit; 0 when A = 0, the rational terminal).
    """
    r = _float(ratio[0] * h_top[0], ratio[1] + h_top[1])
    if r > 1 + MARGIN:
        return False
    if r < 1 - MARGIN:
        return True
    return None


K_RUN = 16  # nodes tested at each end of a same-direction run

# The candidate neighbourhood of a bracket [L, R]: the Stern-Brocot nodes
# a R + b L to depth two below the mediant R + L, each with the T/L word,
# applied left to right, that sends (a, b) to (1, 0).
_NEIGHBOURS = (
    (1, 1, (("L", -1),)),
    (1, 2, (("L", -2),)),
    (2, 1, (("T", -1), ("L", -1))),
    (1, 3, (("L", -3),)),
    (2, 3, (("L", -1), ("T", -1), ("L", -1))),
    (3, 2, (("T", -1), ("L", -2))),
    (3, 1, (("T", -2), ("L", -1))),
)


class _States:
    """The labeled origami states one trajectory meets, numbered and read once.

    The walk moves its bracket's origami by T^m and L^m, with m of up to
    thousands of bits, but h^ord = id for ord the order of h (the lcm of
    its cycle lengths), so T^m = T^(m mod ord), and likewise L^m with the
    order of v.  A trajectory therefore meets only finitely many (state,
    move) pairs, however long it runs.  The walk holds a state as an int:
    ``id`` numbers each labeled state the first time it is met, and is the
    one lookup keyed by an ``Origami``.  Each (state, move) pair is built
    (and validated) by ``act_T``/``act_L`` the first time the walk meets
    it, each state's horizontal cylinders are read by
    ``horizontal_cylinders`` the first time, and every later visit is a
    lookup keyed by ints, so an ``Origami`` is built and hashed only on a
    miss.  The table lives for one call of ``enumerate_excursions``.
    """

    def __init__(self):
        self._ids = {}  # Origami -> id
        self._origamis = []  # id -> Origami
        self._cylinders = []  # id -> its horizontal cylinders, None until read
        self._orders = {}  # permutation -> its order
        self._moves = {}  # (id, tag, m mod order) -> id
        self._neighbours = {}  # (id, _NEIGHBOURS row) -> id of the re-marked state

    def id(self, o: Origami) -> int:
        """The number of state ``o``: the next one the first time it is met."""
        s = self._ids.setdefault(o, len(self._origamis))
        if s == len(self._origamis):
            self._origamis.append(o)
            self._cylinders.append(None)
        return s

    def move(self, s: int, tag: str, m: int) -> int:
        """The id of ``act_T(o, m)`` for tag "T", of ``act_L(o, m)`` for tag
        "L", with ``o`` the state of id ``s``."""
        o = self._origamis[s]
        perm = o.h if tag == "T" else o.v
        order = self._orders.get(perm)
        if order is None:
            order = self._orders[perm] = permutation_order(perm)
        m %= order
        key = (s, tag, m)
        out = self._moves.get(key)
        if out is None:
            out = self._moves[key] = self.id(act_T(o, m) if tag == "T" else act_L(o, m))
        return out

    def neighbour(self, s: int, row: int) -> int:
        """The id of state ``s`` re-marked by the T/L word of
        ``_NEIGHBOURS[row]``, applied left to right."""
        key = (s, row)
        out = self._neighbours.get(key)
        if out is None:
            out = s
            for tag, m in _NEIGHBOURS[row][2]:
                out = self.move(out, tag, m)
            self._neighbours[key] = out
        return out

    def cylinders(self, s: int) -> List[Tuple[int, int]]:
        """``horizontal_cylinders`` of the state of id ``s``."""
        out = self._cylinders[s]
        if out is None:
            out = self._cylinders[s] = horizontal_cylinders(self._origamis[s])
        return out


@dataclass
class _Interval:
    """Stern-Brocot bracket [L, R] around theta with the re-marked origami.

    Each endpoint is a vector (p, q, A) with ``A = q num - p den`` (exact
    integers): every entry is linear in (p, q), so a node a R + b L is the
    same combination of the endpoint vectors.  B = q den + p num is not
    carried: the hit filter reads its top from p, q and theta
    (``_ratio_top``), and the walk forms it only for an exact comparison or
    a record.  ``Q`` is the ``_States`` id of ``M^-1 . o`` for the
    bracket matrix M = [R | L] (columns).  The node a R + b L has
    coordinates (a, b) in this basis, so its cylinder structure in its own
    direction is the horizontal structure of ``word . Q`` for its
    ``_NEIGHBOURS`` word.  Candidates carry the row of that word, not the
    re-marked state, and the trajectory's ``_States`` table turns (Q, row)
    into the re-marked state's id and its cylinders.  Every state is an
    int here: an ``Origami`` exists only inside the table, built on a miss.
    A bracket's first rows can repeat nodes of the bracket tested before
    it; the walk skips them by their count (``_repeated_rows``), so
    ``candidates`` returns every row and needs no memory of earlier
    brackets.  It returns the rows, not the nodes: the walk forms a node's
    p, q and A only for the rows it tests.
    """

    L: Tuple[int, int, int]
    R: Tuple[int, int, int]
    Q: int

    def candidates(self):
        """The bracket's candidate rows, ``_NEIGHBOURS`` as it stands at the
        call: row (a, b, word) is the node a R + b L.  The walk forms a
        node's q, A and p from the endpoints only for the rows it tests."""
        return _NEIGHBOURS

    def step(self, j: int, leftward: bool, states: _States) -> "_Interval":
        """The bracket after j same-direction steps: L -> L + j R (M -> M T^j)
        when ``leftward``, else R -> R + j L (M -> M L^j)."""
        if not j:
            return self
        (pL, qL, AL), (pR, qR, AR), Q = self.L, self.R, self.Q
        if leftward:
            L = (pL + j * pR, qL + j * qR, AL + j * AR)
            return _Interval(L, self.R, states.move(Q, "T", -j))
        R = (pR + j * pL, qR + j * qL, AR + j * AL)
        return _Interval(self.L, R, states.move(Q, "L", -j))


def _run_steps(k: int):
    """The steps j of a k-step run whose brackets the walk tests: the first
    and the last K_RUN, each once, in increasing order.  Consecutive tested
    brackets are then 1 step apart, or more across the untested middle of a
    long run; that gap fixes how many of a bracket's rows were tested
    already (``_repeated_rows``), so the walk keeps no set of them."""
    return chain(range(min(k, K_RUN)), range(max(K_RUN, k - K_RUN), k))


def _repeated_rows(gap: int) -> int:
    """How many leading ``_NEIGHBOURS`` rows of a bracket ``gap`` >= 1
    elementary steps past the last tested bracket were nodes of a tested
    bracket already: the walk skips them, and so tests each fraction once.

    The rows are the Stern-Brocot subtree under the bracket's mediant to
    depth D, in breadth-first order, so len(_NEIGHBOURS) = 2^(D+1) - 1 and
    level l fills rows 2^l - 1 to 2^(l+1) - 2.  Each elementary step moves
    the mediant to one of its children, so this bracket's mediant is a
    depth-``gap`` descendant of the last tested one's, and its level l
    was that bracket's level l + gap.  A fraction sits at one place in the
    tree, so a node here was a node of the last tested bracket exactly
    when l + gap <= D, that is in the first 2^(D+1-gap) - 1 rows, and none
    beyond.  An older tested bracket's mediant lies higher up the same
    path, so it shares only a part of those.  Whether a node is tested
    depends on (p, q) alone (A = 0, the horizon), so the skipped rows were
    each tested before or would be passed over again.  The anchors 1/0 and
    0/1 are no bracket's nodes, and the first bracket (a ``gap`` past D)
    skips nothing.
    """
    return max(((len(_NEIGHBOURS) + 1) >> gap) - 1, 0)


def enumerate_excursions(cfg: TrajectoryConfig) -> TrajectoryResult:
    """All excursions of the ray i -> theta with Teichmueller entry time < T."""
    o = cfg.surface
    o.validate()
    eps = cfg.resolved_eps()
    eps_frac = Fraction(eps)
    if cfg.theta is not None:
        # user-supplied directions are exact rationals: no sampling
        # uncertainty, so no precision budget applies
        theta = Fraction(cfg.theta)
    else:
        # need ~2.89 T bits to separate theta from denominators up to
        # KAPPA e^T; round up generously.  A sample of den = 2^bits resolves
        # q of contfrac.resolvable_q_bits(bits) = (bits + 1 - 64) // 2 bits,
        # which exceeds q_bit_cap below by at least 476 bits for every T > 0,
        # so the walk always stops at its horizon, never for lack of precision
        bits = int(math.ceil(2.9 * cfg.T)) + 1024
        theta = sample_theta(bits, Random(cfg.seed))
    num, den = theta.numerator, theta.denominator

    n = o.n
    norm = den * den + num * num  # den^2 (1 + theta^2)
    # horizon: candidates up to q <= KAPPA e^T; hit tests are exact so the
    # cap only needs to be generous
    q_bit_cap = int(math.ceil((cfg.T + math.log(KAPPA)) * 1.4426950408889634)) + 2

    # hit thresholds h_w = c^2 / (n eps), one per circumference c, and the
    # float filter's tops of theta and of 2 den h_w / norm
    thresholds = [None] + [Fraction(c * c, n) / eps_frac for c in range(1, n + 1)]
    h_tops = [None] + [_quotient_top(2 * den * h.numerator, norm * h.denominator)
                       for h in thresholds[1:]]
    theta_top = _quotient_top(num, den)

    records: List[ExcursionRecord] = []
    states = _States()
    clamps = 0
    hit_tests = 0
    exact_tests = 0
    exact_terms = 0

    def test_candidate(p, q, A, node: int):
        nonlocal clamps, hit_tests, exact_tests, exact_terms
        ratio = _ratio_top(A, p, q, theta_top)
        cylinders = states.cylinders(node)
        hit_tests += len(cylinders)
        B = 0  # q den + p num > 0, formed on first need
        for idx, (circ, height) in enumerate(cylinders):
            h_w = thresholds[circ]
            hit = _filter_verdict(ratio, h_tops[circ])
            if hit is None:
                exact_tests += 1
                B = B or q * den + p * num
                # hit iff (2 A B h_w / (den^2 + num^2))^2 <= 1, exactly
                hit = 2 * abs(A) * B * h_w.numerator <= norm * h_w.denominator
            if not hit:
                continue
            B = B or q * den + p * num
            rec, terms = _build_record(p, q, idx, circ, height, A, B, h_w, norm, n, eps, cfg.T)
            exact_terms += terms
            if rec is None:
                continue
            if A != 0 and rec.t_entry == 0.0:  # crossings only
                clamps += 1
            records.append(rec)

    # the initial bracket [0/1, 1/0]; its endpoints are the anchors: the
    # cusp at infinity (horizontal cylinders of o) and the tangency 0
    # (vertical cylinders)
    bracket = _Interval((0, 1, num), (1, 0, -den), states.id(o))
    test_candidate(*bracket.R, bracket.Q)
    test_candidate(*bracket.L, states.id(act_S_inv(o)))
    runs: List[int] = []
    rational_terminal = False
    pos = 0  # elementary steps from the initial bracket to ``bracket``
    last = -len(_NEIGHBOURS)  # the last tested bracket's pos + j: none yet, over D steps back

    while True:
        L, R = bracket.L, bracket.R
        Am = L[2] + R[2]
        if Am == 0:
            # the mediant (node (1, 1), word L^-1) is theta itself: the last
            # run ends on it.  It is tested even past the horizon, and only
            # here: the nodes skip it
            rational_terminal = True
            runs[-1] += 1
            terminal = states.move(bracket.Q, "L", -1)
            test_candidate(L[0] + R[0], L[1] + R[1], 0, terminal)
            break
        if (L[1] + R[1]).bit_length() > q_bit_cap:
            break
        # the walk moves in one direction for a whole run (one continued
        # fraction coefficient); only the run's first and last K_RUN nodes
        # can carry horoballs the ray enters, and the bulk of the run is
        # skipped with a single permutation power
        leftward = Am > 0  # theta above the mediant: left endpoint moves
        u, v = (L[2], -R[2]) if leftward else (-R[2], L[2])
        k = (u - 1) // v  # same-direction steps before the flip
        for j in _run_steps(k):
            iv = bracket.step(j, leftward, states)
            (pL, qL, AL), (pR, qR, AR) = iv.L, iv.R
            rows = iv.candidates()
            # skip the rows this bracket shares with the ones tested before
            # it; of the rest, q decides the horizon and A = 0 marks theta
            # itself, so p is formed only for a node that is tested
            for row in range(_repeated_rows(pos + j - last), len(rows)):
                a, b, _ = rows[row]
                q = a * qR + b * qL
                if q.bit_length() <= q_bit_cap:
                    A = a * AR + b * AL
                    if A:
                        test_candidate(a * pR + b * pL, q, A, states.neighbour(iv.Q, row))
            last = pos + j
        runs.append(k)
        pos += k
        bracket = bracket.step(k, leftward, states)

    records.sort(key=lambda r: (r.t_entry, r.t_exit))
    overlap = _count_overlaps(records)
    return TrajectoryResult(
        records=records,
        eps=eps,
        theta_num=num,
        theta_den=den,
        coefficients=tuple(runs),
        exhausted=False,
        rational_terminal=rational_terminal,
        overlap_pairs=overlap,
        base_inside_clamps=clamps,
        hit_tests=hit_tests,
        exact_hit_tests=exact_tests,
        exact_record_terms=exact_terms,
    )


def _log_top(f: float, e: int) -> float:
    """log(f 2^e) for f > 0: the log of f's frexp mantissa plus the exponent
    times ln 2, so that no float overflows however large e is."""
    mant, ex = math.frexp(f)
    return math.log(mant) + (e + ex) * LN2


def _build_record(p, q, idx, circ, height, A, B, h_w, norm, n, eps, T):
    """The record of the ray's visit to one horoball at p/q, or None if it
    enters at or after T or crossed before the base, together with the
    number of the record's terms taken exactly in integers (the bands
    below; ``TrajectoryResult.exact_record_terms`` sums them).

    Every quantity comes from three integers of the hit test, with h_w =
    hn / hd:

        g = norm hd,   k = 2 |A| B hn  (hit iff k <= g),   m = hn (A^2 + B^2).

    With x = k / g, s = sqrt(1 - x^2) and gamma = g / m, the crossing times
    u = e^{2t} are the roots u- <= u+ of P(u) = A^2 hn u^2 - g u + B^2 hn:

        log u- = log(2 B^2 hn / g) - log1p(s),
        log u+ = log(g / (2 A^2 hn)) + log1p(s),

    the excursion is E = 2 s / x, and the twist is

        tw = (2 weight / eps) sqrt(max(0, rho)) / x,   rho = 4 (1 - gamma^2) - x^2,

    the paper's twist in its angle form, with the sine of the ray's angle to
    the tangency written as k / m and that of the half opening of the cone
    of entering directions as g / m (rho < 0, and tw = 0, when m < g: the
    base lies inside the horoball).  A == 0 is the rational terminal: the
    ray ends at p/q, enters the horoball at u- = B^2 hn / g and never
    leaves, so t_exit = inf and E = tw = 0.

    Floats: all of these are evaluated from the ``_top`` floats and
    exponents of |A|, B, hn, norm and hd, and no product of the integers is
    formed.  x and the ratios under the two logs each take five truncated
    tops and four roundings, as the hit filter's ratio does, so
    (``_filter_verdict``) each is within relative error 10 u, u = 2^-53;
    gamma, with the sum A^2 + B^2 in it, is within 11 u.  A log is
    taken of the ratio's frexp mantissa and the exponent's multiple of ln 2
    is added, so with math.log and math.log1p within one ulp (as glibc's
    are) 2t carries an absolute error below 2^-45 (1 + |2t|) (the log1p(s)
    term contributes at most 12 u / (s (1 + s)) + 2 u, at most 183 u
    outside the band below).  So t is within 5e-14 max(1, |t|), and a time
    whose 2t lies outside +-MARGIN has the sign of the exact one.  Three
    terms cancel, and each is taken in floats only outside a band:

    * 1 - x^2, evaluated as (1 - x)(1 + x), has absolute error below 24 u;
      below ``GRAZING_BAND`` (2^-8; a grazing crossing) it is taken as
      ((g - k) / g) ((g + k) / g) from the exact integers, each quotient
      correctly rounded.  Outside the band s is within relative 3074 u, so
      E (one more division) is within 3086 u and E_area within 3087 u.
    * rho, evaluated as 4 - 4 gamma^2 - x^2, has absolute error below
      93 u + 25 u |rho|, which also covers 1 - gamma^2 at a base near the
      horoball, as that difference enters only through rho; inside
      +-``CONE_BAND`` (2^-6; the cone edge) it is the correctly rounded
      quotient of the exact integers
      4 g^2 (m - g)(m + g) - m^2 k^2 and (m g)^2.  Outside it the sign of
      rho is certain and tw is within relative 3264 u.
    * A time with |2t| <= MARGIN (the ray enters or leaves near the base;
      on the terminal, B^2 hn near g) is decided and evaluated from the
      exact integers (``_times_near_base``; on the terminal, 2t =
      log1p((B^2 hn - g) / g)), so whether the record exists (u+ > 1) and
      whether its entry is clamped to the base (u- <= 1) are the exact
      answers.

    So E, E_area and tw are within ``RECORD_ERROR`` = 2^-41 (4.5e-13)
    relative of the exact values, and the times within 5e-14 max(1, |t|),
    before the comparisons with T, which are made on the rounded times.  A
    record whose E or tw overflows a float gets inf, as a correctly
    rounded evaluation gives.
    """
    weight = circ * height / n
    hn, hd = h_w.numerator, h_w.denominator
    B = abs(B)
    fb, sb = _top(B)
    fh, sh = _top(hn)
    fn, sn = _top(norm)
    fd, sd = _top(hd)
    fg, sg = fn * fd, sn + sd  # g = norm hd
    exact = 0
    if A == 0:
        two_t = _log_top(fb * fb * fh / fg, 2 * sb + sh - sg)  # log(B^2 hn / g)
        if abs(two_t) <= MARGIN:
            exact += 1
            g = norm * hd
            two_t = math.log1p((B * B * hn - g) / g)
        t_entry = two_t / 2 if two_t > 0 else 0.0
        if t_entry >= T:
            return None, exact
        t_exit, E, tw = math.inf, 0.0, 0.0
    else:
        a = abs(A)
        fa, sa = _top(a)
        xm, xe = 2 * fa * fb * fh / fg, sa + sb + sh - sg  # x = k / g
        x = math.ldexp(xm, xe)
        s2 = (1 - x) * (1 + x)
        if s2 < GRAZING_BAND:
            exact += 1
            g, k = norm * hd, 2 * a * B * hn
            x = xm = k / g
            xe = 0
            s2 = (g - k) / g * ((g + k) / g)
        s = math.sqrt(s2)
        log1p_s = math.log1p(s)
        two_t_exit = _log_top(fg / (2 * fa * fa * fh), sg - 2 * sa - sh) + log1p_s
        if two_t_exit < -MARGIN:
            return None, exact  # crossing happened before the base
        two_t_entry = _log_top(2 * fb * fb * fh / fg, 2 * sb + sh - sg) - log1p_s
        if abs(two_t_exit) <= MARGIN or abs(two_t_entry) <= MARGIN:
            exact += 1
            times = _times_near_base(a, B, hn, norm * hd, s, two_t_exit, two_t_entry)
            if times is None:
                return None, exact
            two_t_exit, two_t_entry = times
        t_entry = two_t_entry / 2 if two_t_entry > 0 else 0.0
        if t_entry >= T:
            return None, exact
        t_exit = two_t_exit / 2
        E = _float(2 * s / xm, -xe)
        e = max(sa, sb)
        ab = math.ldexp(fa * fa, 2 * (sa - e)) + math.ldexp(fb * fb, 2 * (sb - e))
        gamma = _float(fg / (fh * ab), sg - sh - 2 * e)  # g / m
        rho = 4 - 4 * gamma * gamma - x * x
        if abs(rho) < CONE_BAND:
            exact += 1
            g, k, m = norm * hd, 2 * a * B * hn, hn * (a * a + B * B)
            rho = (4 * g * g * (m - g) * (m + g) - (m * k) ** 2) / (m * g) ** 2
        tw = 2 * weight / eps * _float(math.sqrt(rho) / xm, -xe) if rho > 0 else 0.0
    record = ExcursionRecord(
        p=int(p),
        q=int(q),
        cyl_index=idx,
        weight=weight,
        t_entry=t_entry,
        t_exit=t_exit,
        E=E,
        E_area=weight * E,
        tw=tw,
        complete=t_exit <= T,
    )
    return record, exact


def _times_near_base(a, b, hn, g, s, two_t_exit, two_t_entry):
    """(log u+, log u-) of a crossing with one of them within MARGIN of 0,
    each such one decided and evaluated from exact integers, or None when
    u+ <= 1 (no record).  ``s`` is the record's sqrt(1 - x^2).

    u -+ = 1 + y, where y runs over the roots of P(1 + y) = a^2 hn y^2 -
    w y + d, with d = m - g = P(1) and w = g - 2 a^2 hn (the vertex of P
    lies at or below 1 iff w <= 0); its discriminant is g^2 s^2.  So
    u+ <= 1 iff d >= 0 and w <= 0, and u- <= 1 (the entry is clamped to
    the base) iff d <= 0 or w <= 0.  Otherwise log u = log1p(y), with y
    in the form free of cancellation,

        y- = 2 d / (w + g s),   y+ = (w + g s) / (2 a^2 hn)  (w >= 0)  or  2 d / (w - g s),

    each integer divided by g before it is rounded.
    """
    a2 = 2 * a * a * hn
    d, w = hn * (a * a + b * b) - g, g - a2
    delta, omega = d / g, w / g
    if abs(two_t_exit) <= MARGIN:
        if d >= 0 and w <= 0:
            return None
        two_t_exit = math.log1p((omega + s) / (a2 / g) if w >= 0 else 2 * delta / (omega - s))
    if abs(two_t_entry) <= MARGIN:
        two_t_entry = math.log1p(2 * delta / (omega + s)) if d > 0 and w > 0 else 0.0
    return two_t_exit, two_t_entry


def _count_overlaps(records: Sequence[ExcursionRecord]) -> int:
    count = 0
    active_exit = -math.inf
    for rec in records:
        if rec.t_entry < active_exit:
            count += 1
        if rec.t_exit != math.inf:
            active_exit = max(active_exit, rec.t_exit)
    return count


def complete_records(records: Sequence[ExcursionRecord], T: float) -> List[ExcursionRecord]:
    """Records fully traversed by time T (the final partial one drops out)."""
    return [r for r in records if r.t_entry < T and r.t_exit <= T]


def filter_excursions(
    records: Sequence[ExcursionRecord],
    xi: float,
    T: float,
    s_xi: float = 2.0,
):
    """Split records into the deep late population and a dropped summary.

    Drops (a) excursions not completed by T (the final partial one), (b)
    shallow excursions with E <= 1/xi', (c) excursions entering before
    s_xi.  The kept population satisfies the twist sandwich; the trimmed
    statistics themselves run on all complete records.
    """
    threshold = 1 / xi_prime(xi)
    kept = []
    dropped = DroppedSummary()
    for rec in records:
        if rec.t_entry >= T:
            continue
        if not (rec.t_exit <= T):
            dropped.final_partial += 1
            continue
        if rec.E <= threshold:
            dropped.shallow += 1
            dropped.shallow_E_area += rec.E_area
            continue
        if rec.t_entry < s_xi:
            dropped.early += 1
            dropped.early_E_area += rec.E_area
            continue
        kept.append(rec)
    return kept, dropped
