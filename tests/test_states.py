"""The walk's per-trajectory state table, ``excursions._States``.

It must give exactly what the origami layer gives (moves reduced modulo a
permutation's order included), build each (state, move) pair and read
each state's cylinders only once per trajectory, and keep nothing from one
trajectory to the next.  The walk holds states as the table's int ids, so
an ``Origami`` is hashed only when the table builds a new one.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspflow.excursions as excursions
from cuspflow.excursions import _NEIGHBOURS, TrajectoryConfig, _States, enumerate_excursions
from cuspflow.origami import (
    TORUS,
    Origami,
    act_L,
    act_T,
    epsilon0,
    horizontal_cylinders,
    parse_origami,
    permutation_order,
)

L_ORIGAMI = parse_origami("3; (1 2); (1 3)")
ORBIT8 = parse_origami("8; (1 2 3 4 5 6 7 8); (1 3)(2 5)(4 7)")
SURFACES = (TORUS, L_ORIGAMI, ORBIT8)
ACT = {"T": act_T, "L": act_L}


def test_permutation_order():
    assert permutation_order((0,)) == 1
    assert permutation_order((1, 0, 2)) == 2
    assert permutation_order((1, 2, 0, 4, 3)) == 6
    assert permutation_order(ORBIT8.h) == 8


@settings(max_examples=60, deadline=None)
@given(
    surface=st.sampled_from(SURFACES),
    path=st.lists(st.tuples(st.sampled_from("TL"), st.integers(-3, 3)), max_size=6),
    tag=st.sampled_from("TL"),
    r=st.integers(0, 1000),
    row=st.integers(0, len(_NEIGHBOURS) - 1),
)
def test_table_is_exact(surface, path, tag, r, row):
    # a state reached from a bench surface, then moves by every kind of m
    o = surface
    for t, m in path:
        o = ACT[t](o, m)
    order = permutation_order(o.h if tag == "T" else o.v)
    states = _States()
    s = states.id(o)
    for m in (0, 1, -1, order, -order, 10**40 + r, -(10**40 + r)):
        moved = ACT[tag](o, m)
        want = states.id(moved)
        assert (want == s) == (moved == o)  # ids tell states apart
        assert states.move(s, tag, m) == want
        assert states.move(s, tag, m + order) == want  # a hit on the reduced key
    node = o
    for t, m in _NEIGHBOURS[row][2]:
        node = ACT[t](node, m)
    assert states.neighbour(s, row) == states.id(node)
    assert states.cylinders(s) == horizontal_cylinders(o)
    assert states.cylinders(states.id(node)) == horizontal_cylinders(node)


@pytest.fixture
def misses(monkeypatch):
    """Counts of the table's calls into the origami layer, by name."""
    counts = {}
    for name in ("act_T", "act_L", "act_S_inv", "horizontal_cylinders"):

        def counted(*args, _name=name, _fn=getattr(excursions, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(excursions, name, counted)
    return counts


def _misses(counts, surface, T):
    counts.clear()
    enumerate_excursions(TrajectoryConfig(surface=surface, T=T, seed=1))
    return dict(counts)


def test_torus_reads_its_cylinders_once(misses):
    assert _misses(misses, TORUS, 400.0)["horizontal_cylinders"] == 1


def test_l_misses_do_not_grow_with_T(misses):
    short = _misses(misses, L_ORIGAMI, 100.0)
    long = _misses(misses, L_ORIGAMI, 400.0)
    # 3 unlabeled states, 3! labelings of each
    assert short["horizontal_cylinders"] == long["horizontal_cylinders"] <= 18


def test_no_state_outlives_its_trajectory(misses):
    first = _misses(misses, L_ORIGAMI, 100.0)
    assert _misses(misses, L_ORIGAMI, 100.0) == first


@pytest.fixture
def hashes(monkeypatch):
    """A one-element list: the count of ``Origami.__hash__`` calls."""
    count = [0]
    original = Origami.__hash__

    def counted(self):
        count[0] += 1
        return original(self)

    monkeypatch.setattr(Origami, "__hash__", counted)
    return count


@pytest.mark.parametrize("T", (100.0, 400.0))
@pytest.mark.parametrize("surface", SURFACES, ids=("torus", "L", "orbit8"))
def test_walk_hashes_an_origami_only_when_it_builds_one(misses, hashes, surface, T):
    # the walk carries int ids: an Origami is hashed when the table numbers
    # a state it has just built (act_T, act_L, act_S_inv) and when
    # epsilon0's cache is read, not on every lookup
    hashes[0] = 0
    built = _misses(misses, surface, T)
    assert hashes[0] <= 2 * sum(built.get(name, 0) for name in ("act_T", "act_L", "act_S_inv"))


# (surface, T, seed, theta, eps factor of epsilon0, hit tests): the counts
# of per-cylinder hit tests that the benchmark's tracer measured, as
# excursions.cyl_tests, when every candidate read its cylinders afresh
HIT_TESTS = {
    "torus": (TORUS, 100.0, 1, None, 0.5, 1811),
    "L": (L_ORIGAMI, 100.0, 1, None, 1.0, 3024),
    "L-rational": (L_ORIGAMI, 40.0, None, Fraction(68932786, 71636679), 1.0, 907),
    "orbit8": (ORBIT8, 100.0, 1, None, 0.5, 4483),
    # these four: hit_tests when the walk still kept a set of tested
    # fractions.  theta = [0; 33, 1, 34, 2, 32, ...] puts gaps of 2, 3 and
    # 1 steps between tested brackets (GAP_THETA in test_excursions.py)
    "torus-gaps": (TORUS, 60.0, None, Fraction(8413576303, 285824542277), 0.5, 845),
    "L-gaps": (L_ORIGAMI, 60.0, None, Fraction(8413576303, 285824542277), 0.5, 1394),
    "orbit8-gaps": (ORBIT8, 60.0, None, Fraction(8413576303, 285824542277), 0.5, 2093),
}


@pytest.mark.parametrize("case", HIT_TESTS)
def test_hit_tests_count_every_cylinder_tested(case):
    surface, T, seed, theta, factor, hit_tests = HIT_TESTS[case]
    eps = epsilon0(surface) * factor
    cfg = TrajectoryConfig(surface=surface, T=T, seed=seed, theta=theta, eps=eps)
    result = enumerate_excursions(cfg)
    assert result.hit_tests == hit_tests
    assert result.hit_tests >= len(result.records)
