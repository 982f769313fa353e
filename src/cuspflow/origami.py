"""Square-tiled surfaces: validation, strata, cylinders, the thin-part bound.

An origami is a pair of permutations ``(h, v)`` of the squares 0..n-1:
``h[i]`` is the square to the right of ``i`` and ``v[i]`` the square above.
The surface is connected iff the pair acts transitively.

Vertices of the tiling correspond to cycles of the corner-rotation
permutation ``sigma = v h v^-1 h^-1``; a cycle of length L is a cone point
of angle 2 pi L, i.e. an abelian zero of order L - 1.

The linear SL(2, Z) action re-tiles a sheared origami by unit squares.  On
the generators (acting on the permutation pair, applied on the left):

    T  = [[1,1],[0,1]]:  (h, v) -> (h, h^-1 v)     T^-1: (h, h v)
    L  = [[1,0],[1,1]]:  (h, v) -> (h v^-1, v)     L^-1: (h v, v)
    S  = [[0,-1],[1,0]]: (h, v) -> (v^-1, h)       S^-1: (v, h^-1)

Cylinders in a primitive rational direction (p, q) are read off as the
horizontal cylinders of ``W . o`` for any integral unimodular W sending
(p, q) to (1, 0): rows are cycles of the horizontal permutation, and a
stack of rows continues upward exactly while the seam between rows
carries no cone point.

At a disc coordinate z (unit-area normalization) the core curve of a
cylinder of combinatorial circumference c in direction (p, q) has

    length^2 = c^2 |q z - p|^2 / (n Im z),

so the locus where it is short is a horoball tangent at p/q of diameter
``n eps / (c^2 q^2)``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple


class DisconnectedSurfaceError(ValueError):
    """The permutation pair does not act transitively."""


# ---------------------------------------------------------------------------
# permutation helpers (0-based tuples)


def _inverse(perm):
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


def _compose(outer, inner):
    """Permutation x -> outer[inner[x]]."""
    return tuple(outer[inner[x]] for x in range(len(inner)))


def _power(perm, m: int):
    """perm^m via cycle decomposition (m may be negative or huge)."""
    n = len(perm)
    out = [0] * n
    for cycle in _cycles(perm):
        L = len(cycle)
        shift = m % L
        for idx, x in enumerate(cycle):
            out[x] = cycle[(idx + shift) % L]
    return tuple(out)


def permutation_order(perm) -> int:
    """The order of perm: the lcm of its cycle lengths, so perm^m = perm^(m mod order)."""
    return math.lcm(*map(len, _cycles(perm)))


def _cycles(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = perm[x]
        out.append(tuple(cycle))
    return out


# ---------------------------------------------------------------------------
# origami


@dataclass(frozen=True)
class Origami:
    n: int
    h: Tuple[int, ...]
    v: Tuple[int, ...]

    def __post_init__(self):
        try:
            operator.index(self.n)
        except TypeError:
            raise ValueError(f"square count n must be an integer, got n={self.n!r}") from None
        if self.n < 1:
            raise ValueError(f"square count n must be >= 1, got n={self.n}")
        identity = list(range(self.n))
        for name, given in (("h", self.h), ("v", self.v)):
            if type(given) is not tuple:
                # a list is unhashable, and unequal to the same tuple
                given = tuple(given)
                object.__setattr__(self, name, given)
            # a float entry compares equal to an int but cannot index
            try:
                is_perm = sorted(map(operator.index, given)) == identity
            except TypeError:
                raise ValueError(f"permutation {name} has a non-integer entry: {given}") from None
            if not is_perm:
                raise ValueError(f"{name} is not a permutation of 0..{self.n - 1}: {given}")

    def validate(self) -> None:
        """Connectedness: <h, v> must act transitively on the squares."""
        comps = _orbit_components(self.h, self.v)
        if len(comps) > 1:
            pretty = ", ".join("{" + " ".join(str(x + 1) for x in comp) + "}" for comp in comps)
            raise DisconnectedSurfaceError(
                f"surface splits into {len(comps)} components: {pretty}"
            )


def _reach(h, v, start):
    """Breadth-first order of the squares reached from ``start`` along h and
    v, and each square's position in it (None if not reached)."""
    # forward edges suffice: iterating a permutation walks its whole cycle,
    # so inverses are reachable
    order = [start]
    pos = [None] * len(h)
    pos[start] = 0
    for x in order:  # grows while read
        for y in (h[x], v[x]):
            if pos[y] is None:
                pos[y] = len(order)
                order.append(y)
    return order, pos


def _orbit_components(h, v):
    comps, seen = [], set()
    for start in range(len(h)):
        if start not in seen:
            comps.append(sorted(_reach(h, v, start)[0]))
            seen.update(comps[-1])
    return comps


TORUS = Origami(1, (0,), (0,))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_origami(text: str) -> Origami:
    """Parse ``"n; h as cycles; v as cycles"``, e.g. ``"3; (1 2); (1 3)"``."""
    parts = [part.strip() for part in text.split(";")]
    if len(parts) != 3:
        raise ValueError(f"expected 'n; h; v' with two semicolons, got {text!r}")
    try:
        n = int(parts[0])
    except ValueError:
        raise ValueError(f"square count {parts[0]!r} is not an integer") from None
    h = _parse_cycles(parts[1], n, "h")
    v = _parse_cycles(parts[2], n, "v")
    o = Origami(n, h, v)
    o.validate()
    return o


def _parse_cycles(text: str, n: int, name: str):
    stripped = text.replace(" ", "").replace(",", "")
    if not _CYCLE_RE.sub("", stripped) == "":
        bad = _CYCLE_RE.sub("", stripped)
        raise ValueError(f"permutation {name}: unexpected token {bad!r} in {text!r}")
    perm = list(range(n))
    seen = set()  # squares of the cycles so far (a fixed point leaves perm[x] == x)
    for body in _CYCLE_RE.findall(text):
        entries = [tok for tok in re.split(r"[,\s]+", body.strip()) if tok]
        cycle = []
        for tok in entries:
            try:
                val = int(tok)
            except ValueError:
                raise ValueError(f"permutation {name}: token {tok!r} is not an integer") from None
            if not 1 <= val <= n:
                raise ValueError(f"permutation {name}: square {tok} outside 1..{n}")
            cycle.append(val - 1)
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"permutation {name}: repeated square in cycle ({body})")
        for idx, x in enumerate(cycle):
            if x in seen:
                raise ValueError(f"permutation {name}: square {x + 1} appears in two cycles")
            seen.add(x)
            perm[x] = cycle[(idx + 1) % len(cycle)]
    return tuple(perm)


# ---------------------------------------------------------------------------
# stratum


def corner_rotation(o: Origami):
    """sigma = v h v^-1 h^-1; its cycles are the vertex classes."""
    hinv, vinv = _inverse(o.h), _inverse(o.v)
    return tuple(o.v[o.h[vinv[hinv[x]]]] for x in range(o.n))


def stratum(o: Origami) -> Tuple[int, ...]:
    """Multiset of abelian zero orders, descending (empty for the torus)."""
    o.validate()
    orders = [len(c) - 1 for c in _cycles(corner_rotation(o))]
    return tuple(sorted((k for k in orders if k > 0), reverse=True))


# ---------------------------------------------------------------------------
# SL(2, Z) action


def act_T(o: Origami, m: int = 1) -> Origami:
    """[[1, m], [0, 1]] . o  =  (h, h^-m v)."""
    return Origami(o.n, o.h, _compose(_power(o.h, -m), o.v))


def act_L(o: Origami, m: int = 1) -> Origami:
    """[[1, 0], [m, 1]] . o  =  (h v^-m, v)."""
    return Origami(o.n, _compose(o.h, _power(o.v, -m)), o.v)


def act_S(o: Origami) -> Origami:
    """[[0, -1], [1, 0]] . o  =  (v^-1, h)."""
    return Origami(o.n, _inverse(o.v), o.h)


def act_S_inv(o: Origami) -> Origami:
    return Origami(o.n, o.v, _inverse(o.h))


def apply_word(o: Origami, word) -> Origami:
    """Apply generator tags in order; each tag is ('T'|'L'|'S', power)."""
    for tag, m in word:
        if tag == "T":
            o = act_T(o, m)
        elif tag == "L":
            o = act_L(o, m)
        elif tag == "S":
            for _ in range(m % 4 if m >= 0 else (-m) % 4):
                o = act_S(o) if m >= 0 else act_S_inv(o)
        else:
            raise ValueError(f"unknown generator {tag!r}")
    return o


_S_POWERS = {0: (1, 0, 0, 1), 1: (0, -1, 1, 0), 2: (-1, 0, 0, -1), 3: (0, 1, -1, 0)}


def word_matrix(word):
    """Integer matrix of a generator word (entries (a, b, c, d))."""
    a, b, c, d = 1, 0, 0, 1
    for tag, m in word:
        if tag == "T":
            e, f, g, h = 1, m, 0, 1
        elif tag == "L":
            e, f, g, h = 1, 0, m, 1
        elif tag == "S":
            e, f, g, h = _S_POWERS[m % 4]
        else:
            raise ValueError(f"unknown generator {tag!r}")
        a, b, c, d = e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d
    return a, b, c, d


def direction_word(p: int, q: int):
    """Generator word W with W (p, q)^T = (1, 0)^T, for primitive (p, q)."""
    if math.gcd(p, q) != 1:
        raise ValueError(f"direction ({p}, {q}) is not primitive")
    word = []
    while q != 0:
        m = p // q
        if m != 0:
            # T^-m sends (p, q) to (p - m q, q)
            word.append(("T", -m))
            p -= m * q
        # S sends (p, q) to (-q, p)
        word.append(("S", 1))
        p, q = -q, p
    if p == -1:
        word.append(("S", 2))
        p = 1
    return word


# ---------------------------------------------------------------------------
# cylinders


@dataclass(frozen=True)
class Cylinder:
    circumference: int
    height: int
    area_fraction: Fraction


def horizontal_cylinders(o: Origami) -> List[Tuple[int, int]]:
    """(circumference, height) of the horizontal cylinders, largest first.

    Rows are cycles of h.  The seam above a row is regular iff
    ``h[v[x]] == v[h[x]]`` for every square x of the row: the corner at the
    top-left of h x is a cone point iff the corner rotation
    ``v h v^-1 h^-1`` moves it, i.e. iff h v x != v h x.  Across a regular
    seam v commutes with h, so it maps the row onto the row above and the
    circumference is kept.  A cylinder climbs while seams stay regular,
    closing on itself if it never meets a singular one.

    The list is sorted in descending (circumference, height) order; a
    cylinder's position in it is its ``cyl_index``.
    """
    h, v = o.h, o.v
    rows = _cycles(h)
    row_of = [0] * o.n
    for idx, row in enumerate(rows):
        for x in row:
            row_of[x] = idx
    # above[r]: the row across a regular seam above row r, None if singular
    above = [
        row_of[v[row[0]]] if all(h[v[x]] == v[h[x]] for x in row) else None
        for row in rows
    ]
    has_below = set(above)
    # stacks start at rows with no regular seam below; what is left after
    # them are closed stacks, which may start anywhere
    starts = [r for r in range(len(rows)) if r not in has_below] + list(range(len(rows)))
    seen = [False] * len(rows)
    out = []
    for start in starts:
        if seen[start]:
            continue
        height = 0
        cur = start
        while cur is not None and not seen[cur]:
            seen[cur] = True
            height += 1
            cur = above[cur]
        out.append((len(rows[start]), height))
    out.sort(reverse=True)
    return out


def _norm_direction(p: int, q: int) -> Tuple[int, int]:
    g = math.gcd(p, q)
    if g == 0:
        raise ValueError("direction (0, 0) is not a direction")
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def cylinder_decomposition(o: Origami, direction: Tuple[int, int]) -> List[Cylinder]:
    """Maximal cylinders in a primitive rational direction, largest first
    (the order of ``horizontal_cylinders``); areas sum to 1."""
    p, q = _norm_direction(*direction)
    cylinders = horizontal_cylinders(apply_word(o, direction_word(p, q)))
    out = [Cylinder(c, ht, Fraction(c * ht, o.n)) for c, ht in cylinders]
    assert sum(cyl.area_fraction for cyl in out) == 1
    return out


# ---------------------------------------------------------------------------
# flat lengths, structural bound


def flat_length_sq(o: Origami, direction: Tuple[int, int], circ: int, z):
    """Squared flat length of a core curve at disc coordinate z (unit area)."""
    x, y = z.real, z.imag
    if not y > 0:
        raise ValueError(f"disc coordinate needs Im z > 0, got {z}")
    p, q = direction
    return circ * circ * ((q * x - p) ** 2 + (q * y) ** 2) / (o.n * y)


# base point i and six integral unimodular translates of it
BASE_POINTS = (
    (0.0, 1.0),
    (1.0, 1.0),
    (-1.0, 1.0),
    (2.0, 1.0),
    (-2.0, 1.0),
    (0.5, 0.5),
    (-0.5, 0.5),
)


def _min_length_sq_at(o: Origami, x0: float, y0: float, circumferences: Dict) -> float:
    """Shortest core length^2 at x0 + i y0.  Length^2 grows as c^2, so only
    a direction's narrowest cylinder can give it; ``circumferences`` maps
    each direction read so far to that cylinder's circumference and gains
    the ones read here."""
    z0 = complex(x0, y0)

    def length_sq(p, q):
        c = circumferences.get((p, q))
        if c is None:
            c = circumferences[p, q] = cylinder_decomposition(o, (p, q))[-1].circumference
        return flat_length_sq(o, (p, q), c, z0)

    best = min(length_sq(1, 0), length_sq(0, 1))
    # any shorter core needs |q z0 - p|^2 <= n y0 best, which bounds q and p
    qmax = int(math.isqrt(int(o.n * best / (y0 * y0)))) + 1
    for q in range(1, qmax + 1):
        if q * q * y0 * y0 > o.n * y0 * best:
            continue
        half_width = math.sqrt(max(0.0, o.n * y0 * best - q * q * y0 * y0))
        p_lo = math.floor(q * x0 - half_width)
        p_hi = math.ceil(q * x0 + half_width)
        for p in range(p_lo, p_hi + 1):
            if math.gcd(p, q) == 1:
                best = min(best, length_sq(p, q))
    return best


@lru_cache(maxsize=1024)
def epsilon0(o: Origami) -> float:
    """Structural thin-part bound: half the shortest core length^2 over the
    base point i and its six unimodular translates.  Each direction's
    cylinders are read once, for all seven base points."""
    o.validate()
    circumferences = {}
    return 0.5 * min(_min_length_sq_at(o, x0, y0, circumferences) for x0, y0 in BASE_POINTS)


# ---------------------------------------------------------------------------
# SL(2, Z) orbit


def canonical_key(o: Origami):
    """Label-independent key: lexicographic minimum over BFS relabelings."""
    keys = []
    for start in range(o.n):
        order, pos = _reach(o.h, o.v, start)
        if len(order) < o.n:
            raise DisconnectedSurfaceError("cannot canonicalize a disconnected origami")
        keys.append((tuple(pos[o.h[x]] for x in order), tuple(pos[o.v[x]] for x in order)))
    return min(keys)


def sl2z_orbit(o: Origami) -> List[Origami]:
    """The (finite) SL(2, Z) orbit of the origami, up to relabeling.

    Breadth-first under T and L alone: they generate SL(2, Z), and each
    permutes the finite orbit, so its inverse is one of its powers."""
    o.validate()
    seen = {canonical_key(o)}
    orbit = [o]
    for cur in orbit:  # grows while read
        for img in (act_T(cur), act_L(cur)):
            key = canonical_key(img)
            if key not in seen:
                seen.add(key)
                orbit.append(img)
    return orbit


def c_area_exact(o: Origami) -> Fraction:
    """F, the mean over the SL(2, Z) orbit of ``o`` (up to relabeling) of
    the sum of height / circumference over its horizontal cylinders.

    By Eskin, Kontsevich and Zorich (Publ. Math. IHES 120, 2014) the area
    Siegel-Veech constant of the Teichmueller curve of ``o`` is
    c_area = (3 / pi^2) F, so F is that constant exactly, up to the one
    irrational factor: 1 on the torus, and 10/9 on every Teichmueller curve
    in H(2), where Bainbridge's lambda_1 + lambda_2 = 4/3 holds."""
    orbit = sl2z_orbit(o)
    total = sum(Fraction(height, circ)
                for img in orbit for circ, height in horizontal_cylinders(img))
    return total / len(orbit)
