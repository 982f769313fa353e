import math
import random
import re
from itertools import permutations
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cuspflow.origami as origami_module
from cuspflow.origami import (
    TORUS,
    Cylinder,
    DisconnectedSurfaceError,
    Origami,
    act_L,
    act_S,
    act_S_inv,
    act_T,
    apply_word,
    c_area_exact,
    canonical_key,
    corner_rotation,
    cylinder_decomposition,
    direction_word,
    epsilon0,
    flat_length_sq,
    horizontal_cylinders,
    parse_origami,
    sl2z_orbit,
    stratum,
    word_matrix,
)

L_ORIGAMI = parse_origami("3; (1 2); (1 3)")


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_l_origami():
    assert L_ORIGAMI.n == 3
    assert L_ORIGAMI.h == (1, 0, 2)
    assert L_ORIGAMI.v == (2, 1, 0)


def test_torus_is_valid():
    TORUS.validate()


def test_disconnected_lists_orbits():
    with pytest.raises(DisconnectedSurfaceError, match=r"\{1\}.*\{2\}"):
        parse_origami("2; (); ()")


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError, match="outside"):
        parse_origami("3; (1 5); (1 3)")
    with pytest.raises(ValueError, match="token"):
        parse_origami("3; (1 x); (1 3)")
    with pytest.raises(ValueError, match="two cycles"):
        parse_origami("3; (1 2)(1 3); ()")
    # a fixed point listed again: it leaves no mark in the permutation itself
    with pytest.raises(ValueError, match="two cycles"):
        parse_origami("2; (1)(1 2); ()")
    with pytest.raises(ValueError, match="two cycles"):
        parse_origami("3; (1)(1)(2 3); ()")
    with pytest.raises(ValueError, match="semicolons"):
        parse_origami("3; (1 2)")
    with pytest.raises(ValueError, match="not an integer"):
        parse_origami("two; (); ()")


@pytest.mark.parametrize("n", [0, -1])
def test_empty_surface_rejected(n):
    # no squares is no surface: rejected where it is built, naming n, not
    # later by an assertion deep in epsilon0
    with pytest.raises(ValueError, match=f"n={n}"):
        Origami(n, (), ())
    with pytest.raises(ValueError, match=f"n={n}"):
        parse_origami(f"{n}; (); ()")


@pytest.mark.parametrize("n", [2.0, "2"], ids=["float", "str"])
def test_non_integer_square_count_rejected(n):
    # refused where it is built, naming n, not later by range() with a
    # TypeError that does not say which field is wrong
    with pytest.raises(ValueError, match=re.escape(f"n={n!r}")):
        Origami(n, (1, 0), (0, 1))


def test_permutations_stored_as_int_tuples():
    # a list is stored as a tuple: hashable (epsilon0 is cached on the
    # surface) and equal to the tuple-built surface
    o = Origami(2, [1, 0], [0, 1])
    assert o == Origami(2, (1, 0), (0, 1))
    assert type(o.h) is tuple and type(o.v) is tuple
    assert epsilon0(o) == epsilon0(Origami(2, (1, 0), (0, 1)))


@pytest.mark.parametrize("h, v, name", [((1.0, 0.0), (0, 1), "h"), ((1, 0), (0, "1"), "v")])
def test_non_integer_entries_rejected(h, v, name):
    with pytest.raises(ValueError, match=f"permutation {name} has a non-integer entry"):
        Origami(2, h, v)


def test_parse_accepts_commas():
    o = parse_origami("3; (1, 2); (1, 3)")
    assert o == L_ORIGAMI


# ---------------------------------------------------------------------------
# stratum


def test_stratum_torus():
    assert stratum(TORUS) == ()


def test_stratum_l_origami():
    # hand oracle: commutator of h = (1 2), v = (1 3) is a 3-cycle, so one
    # zero of order 2 and genus 2
    assert stratum(L_ORIGAMI) == (2,)


def test_stratum_orders_have_even_sum():
    rng = random.Random(0)
    found = 0
    while found < 25:
        n = rng.randrange(2, 9)
        h = list(range(n))
        v = list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        o = Origami(n, tuple(h), tuple(v))
        try:
            o.validate()
        except DisconnectedSurfaceError:
            continue
        found += 1
        assert sum(stratum(o)) % 2 == 0


def test_genus_against_euler_characteristic():
    # independent oracle: V - E + F = 2 - 2g with E = 2n, F = n and V the
    # number of corner-rotation cycles, against the genus from the stratum
    # (the zero orders of an abelian differential sum to 2g - 2)
    rng = random.Random(1)
    cases = [TORUS, L_ORIGAMI]
    while len(cases) < 20:
        n = rng.randrange(2, 9)
        h = list(range(n))
        v = list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        o = Origami(n, tuple(h), tuple(v))
        try:
            o.validate()
        except DisconnectedSurfaceError:
            continue
        cases.append(o)
    from cuspflow.origami import _cycles

    for o in cases:
        V = len(_cycles(corner_rotation(o)))
        chi = V - 2 * o.n + o.n
        genus = (sum(stratum(o)) + 2) / 2
        assert chi == 2 - 2 * genus


# ---------------------------------------------------------------------------
# cylinder decompositions


def _table(cyls):
    return sorted((c.circumference, c.height, c.area_fraction) for c in cyls)


def test_torus_horizontal():
    assert _table(cylinder_decomposition(TORUS, (1, 0))) == [(1, 1, Fraction(1))]


def test_torus_diagonal():
    assert _table(cylinder_decomposition(TORUS, (1, 1))) == [(1, 1, Fraction(1))]


def test_l_origami_horizontal():
    assert _table(cylinder_decomposition(L_ORIGAMI, (1, 0))) == [
        (1, 1, Fraction(1, 3)),
        (2, 1, Fraction(2, 3)),
    ]


def test_l_origami_vertical():
    assert _table(cylinder_decomposition(L_ORIGAMI, (0, 1))) == [
        (1, 1, Fraction(1, 3)),
        (2, 1, Fraction(2, 3)),
    ]


def test_l_origami_diagonal():
    # hand oracle: shearing the L by [[1,0],[1,1]]^-1 gives h' = (1 3 2),
    # one row of circumference 3 with a singular seam
    assert _table(cylinder_decomposition(L_ORIGAMI, (1, 1))) == [(3, 1, Fraction(1))]


def _cylinders_from_cone_points(o):
    # oracle: the seam above a row is singular iff some corner on it (the
    # bottom-left corner of v[j], j in the row) lies on a corner-rotation
    # cycle of length > 1; a cylinder is a connected set of rows joined by
    # regular seams
    from cuspflow.origami import _cycles

    cone = {x for cyc in _cycles(corner_rotation(o)) if len(cyc) > 1 for x in cyc}
    rows = _cycles(o.h)
    row_of = {x: r for r, row in enumerate(rows) for x in row}
    parent = list(range(len(rows)))

    def find(r):
        while parent[r] != r:
            r = parent[r]
        return r

    for r, row in enumerate(rows):
        if not any(o.v[j] in cone for j in row):
            parent[find(r)] = find(row_of[o.v[row[0]]])
    stacks = {}
    for r in range(len(rows)):
        stacks.setdefault(find(r), []).append(len(rows[r]))
    return sorted(((c[0], len(c)) for c in stacks.values()), reverse=True)


def test_horizontal_cylinders_match_cone_point_oracle():
    rng = random.Random(4)
    found = 0
    while found < 2000:
        n = rng.randint(1, 9)
        h = list(range(n))
        v = list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        o = Origami(n, tuple(h), tuple(v))
        try:
            o.validate()
        except DisconnectedSurfaceError:
            continue
        found += 1
        cyls = horizontal_cylinders(o)
        assert cyls == sorted(cyls, reverse=True)
        assert sum(c * ht for c, ht in cyls) == n
        assert cyls == _cylinders_from_cone_points(o)


def test_direction_word_sends_direction_home():
    rng = random.Random(2)
    for _ in range(200):
        p = rng.randrange(-40, 41)
        q = rng.randrange(-40, 41)
        g = math.gcd(p, q)
        if g == 0:
            continue
        p, q = p // g, q // g
        word = direction_word(p, q)
        a, b, c, d = word_matrix(word)
        assert (a * p + b * q, c * p + d * q) == (1, 0)
        assert a * d - b * c == 1


def test_areas_sum_to_one_sample():
    for o in (TORUS, L_ORIGAMI):
        for p in range(-12, 13):
            for q in range(0, 13):
                if math.gcd(p, q) != 1:
                    continue
                cyls = cylinder_decomposition(o, (p, q))
                assert sum(c.area_fraction for c in cyls) == 1


def test_remarking_equivariance():
    # cylinders of o in direction M.dir match cylinders of M^-1.o in dir
    rng = random.Random(3)
    words = [
        [("T", 1)],
        [("L", -1)],
        [("S", 1)],
        [("T", 2), ("S", 1)],
        [("L", 1), ("T", -1), ("S", 3)],
    ]
    for o in (TORUS, L_ORIGAMI):
        for word in words:
            a, b, c, d = word_matrix(word)
            inv_word = _invert_word(word)
            o_pulled = apply_word(o, inv_word)
            for _ in range(12):
                p = rng.randrange(-8, 9)
                q = rng.randrange(-8, 9)
                if math.gcd(p, q) != 1:
                    continue
                mp, mq = a * p + b * q, c * p + d * q
                left = [(cy.circumference, cy.height) for cy in cylinder_decomposition(o, (mp, mq))]
                right = [
                    (cy.circumference, cy.height) for cy in cylinder_decomposition(o_pulled, (p, q))
                ]
                assert sorted(left) == sorted(right)


def _invert_word(word):
    out = []
    for tag, m in reversed(word):
        out.append((tag, -m) if tag in ("T", "L") else (tag, (4 - m % 4) % 4))
    return out


def test_stratum_invariant_under_remarking():
    for o in (TORUS, L_ORIGAMI):
        ref = stratum(o)
        for img in (act_T(o), act_T(o, -3), act_S(o), act_L(o, 2), act_S_inv(o)):
            assert stratum(img) == ref


# ---------------------------------------------------------------------------
# flat lengths


def test_flat_length_unit_square():
    assert flat_length_sq(TORUS, (1, 0), 1, complex(0, 1)) == pytest.approx(1.0)
    assert flat_length_sq(TORUS, (0, 1), 1, complex(0, 1)) == pytest.approx(1.0)


def test_flat_length_diagonal():
    assert flat_length_sq(TORUS, (1, 1), 1, complex(0, 1)) == pytest.approx(2.0)


def test_flat_length_decays_up_the_cusp():
    vals = [flat_length_sq(TORUS, (1, 0), 1, complex(0, y)) for y in (1, 10, 100, 1000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1e-3)


def test_flat_length_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        flat_length_sq(TORUS, (1, 0), 1, complex(0, -1))


def test_flat_length_mobius_remarking_invariance():
    # length^2 of (M.o, M.dir) at the Moebius image of z equals length^2 of
    # (o, dir) at z
    words = [[("T", 1)], [("S", 1)], [("L", -2), ("T", 1)], [("S", 1), ("T", 3)]]
    zs = [complex(0.3, 0.9), complex(-0.2, 2.0), complex(0.1, 0.4)]
    for o in (TORUS, L_ORIGAMI):
        for word in words:
            a, b, c, d = word_matrix(word)
            o_img = apply_word(o, word)
            for p, q in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 3)):
                cyls = cylinder_decomposition(o, (p, q))
                mp, mq = a * p + b * q, c * p + d * q
                cyls_img = cylinder_decomposition(o_img, (mp, mq))
                assert sorted((cy.circumference, cy.height) for cy in cyls) == sorted(
                    (cy.circumference, cy.height) for cy in cyls_img
                )
                for z in zs:
                    w = (complex(a, 0) * z + b) / (complex(c, 0) * z + d)
                    for cy in cyls:
                        l0 = flat_length_sq(o, (p, q), cy.circumference, z)
                        l1 = flat_length_sq(o_img, (mp, mq), cy.circumference, w)
                        assert l1 == pytest.approx(l0, rel=1e-9)


# ---------------------------------------------------------------------------
# structural bound


def test_epsilon0_values():
    # hand oracles: shortest core at i has length^2 = 1 on the torus and
    # 1/3 on the L-origami (the circumference-1 cylinder), and no translate
    # does better
    assert epsilon0(TORUS) == pytest.approx(0.5)
    assert epsilon0(L_ORIGAMI) == pytest.approx(1 / 6)


@pytest.mark.parametrize(
    "surface, value, directions",
    [
        (TORUS, 0.5, 6),
        (L_ORIGAMI, 1 / 6, 6),
        (parse_origami("8; (1 2 3 4 5 6 7 8); (1 3)(2 5)(4 7)"), 0.0625, 10),
    ],
    ids=["torus", "L", "8-square"],
)
def test_epsilon0_reads_each_direction_once(monkeypatch, surface, value, directions):
    # the seven base points share their directions; each is decomposed once
    calls = []

    def counted(o, direction):
        calls.append(direction)
        return cylinder_decomposition(o, direction)

    monkeypatch.setattr(origami_module, "cylinder_decomposition", counted)
    assert epsilon0.__wrapped__(surface) == value  # past the lru_cache
    assert len(calls) == len(set(calls)) == directions


# ---------------------------------------------------------------------------
# orbit machinery


def test_orbit_sizes():
    assert len(sl2z_orbit(TORUS)) == 1
    assert len(sl2z_orbit(L_ORIGAMI)) == 3


@pytest.mark.parametrize(
    "text, size, zeros",
    [
        ("4; (1 2 3); (1 4)", 9, (2,)),
        ("5; (1 2 3 4); (1 5)", 18, (2,)),
        ("8; (1 2 3 4 5 6 7 8); (1 3)(2 5)(4 7)", 1800, (4, 2)),
        ("8; (1 2 3 4)(5 6 7 8); (1 5 3 7)(2 8 4 6)", 1, (1, 1, 1, 1)),
        ("6; (1 4)(2 5)(3 6); (1 6 5 4 3 2)", 12, ()),
        ("4; (1 3)(2 4); (1 4 3 2)", 6, ()),
    ],
    ids=["L4", "L5", "8-square", "EW", "witness6", "witness4"],
)
def test_orbit_catalogue(text, size, zeros):
    # the larger L's, the 8-square bench surface, the Eierlegende
    # Wollmilchsau and the two torus covers whose Legendre margin fails
    orbit = sl2z_orbit(parse_origami(text))
    assert len(orbit) == size
    assert len({canonical_key(img) for img in orbit}) == size
    assert {stratum(img) for img in orbit} == {zeros}


@pytest.mark.parametrize(
    "text, size, F",
    [
        ("1; (1); (1)", 1, Fraction(1)),
        ("3; (1 2); (1 3)", 3, Fraction(10, 9)),
        ("4; (1 2 3); (1 4)", 9, Fraction(10, 9)),
        ("5; (1 2 3 4); (1 5)", 18, Fraction(10, 9)),
        ("8; (1 2 3 4 5 6 7 8); (1 3)(2 5)(4 7)", 1800, Fraction(59, 45)),
        ("8; (1 2 3 4)(5 6 7 8); (1 5 3 7)(2 8 4 6)", 1, Fraction(1, 2)),
        ("6; (1 4)(2 5)(3 6); (1 6 5 4 3 2)", 12, Fraction(1)),
        ("4; (1 3)(2 4); (1 4 3 2)", 6, Fraction(1)),
    ],
    ids=["torus", "L3", "L4", "L5", "8-square", "EW", "witness6", "witness4"],
)
def test_c_area_exact_catalogue(text, size, F):
    # c_area = (3 / pi^2) F (Eskin-Kontsevich-Zorich); F is the orbit mean
    # of sum height / circumference over the horizontal cylinders
    o = parse_origami(text)
    assert len(sl2z_orbit(o)) == size
    assert c_area_exact(o) == F


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_c_area_exact_is_10_9_on_every_h2_orbit():
    # every connected origami of n <= 6 squares is, up to relabeling, one
    # with h of a fixed permutation per cycle type; those in H(2) fall in
    # six orbits, the non-primitive ones (covers of a larger torus) included,
    # and all share Bainbridge's lambda_1 + lambda_2 = 4/3, so F = 10/9
    sizes = {}
    for n in range(3, 7):
        seen = set()
        for parts in _partitions(n):
            h, start = [0] * n, 0
            for length in parts:
                for i in range(length):
                    h[start + i] = start + (i + 1) % length
                start += length
            for v in permutations(range(n)):
                o = Origami(n, tuple(h), v)
                try:
                    key = canonical_key(o)
                except DisconnectedSurfaceError:
                    continue
                if key in seen or stratum(o) != (2,):
                    continue
                orbit = sl2z_orbit(o)
                seen.update(canonical_key(img) for img in orbit)
                sizes.setdefault(n, []).append(len(orbit))
                assert c_area_exact(o) == Fraction(10, 9), o
    assert {n: sorted(s) for n, s in sizes.items()} == {3: [3], 4: [9], 5: [9, 18], 6: [3, 6, 36]}


def test_canonical_key_rejects_a_disconnected_origami():
    with pytest.raises(DisconnectedSurfaceError, match="disconnected"):
        canonical_key(Origami(3, (1, 0, 2), (0, 1, 2)))


def test_orbit_elements_share_stratum():
    for img in sl2z_orbit(L_ORIGAMI):
        assert stratum(img) == (2,)


def test_canonical_key_ignores_labels():
    # relabeling by the transposition (2 3): h = (1 3), v = (1 2)
    relabeled = parse_origami("3; (1 3); (1 2)")
    assert canonical_key(relabeled) == canonical_key(L_ORIGAMI)
