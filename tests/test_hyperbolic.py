import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles.hyperbolic import (
    ExcursionGeometry,
    Horoball,
    InvalidMatrixError,
    Mat2,
    UhpPoint,
    UnboundedExcursionError,
    dist,
    excursion_angle,
    excursion_exact,
    geodesic_ray,
    intersect,
    mobius_apply,
)

I_POINT = UhpPoint(0.0, 1.0)


# ---------------------------------------------------------------------------
# mobius_apply


def test_mobius_identity():
    z = mobius_apply([[1, 0], [0, 1]], I_POINT)
    assert (z.x, z.y) == (0.0, 1.0)


def test_mobius_translation():
    z = mobius_apply([[1, 1], [0, 1]], I_POINT)
    assert (z.x, z.y) == pytest.approx((1.0, 1.0))


def test_mobius_inversion():
    z = mobius_apply([[0, -1], [1, 0]], UhpPoint(0.0, 2.0))
    assert (z.x, z.y) == pytest.approx((0.0, 0.5))


def test_mobius_rejects_non_unit_determinant():
    with pytest.raises(InvalidMatrixError):
        mobius_apply([[2, 0], [0, 1]], I_POINT)


@given(
    t=st.floats(-4, 4),
    s=st.floats(0.2, 4),
    theta=st.floats(0, math.pi),
    x=st.floats(-3, 3),
    y=st.floats(0.05, 10),
)
def test_mobius_preserves_distance(t, s, theta, x, y):
    m = (
        Mat2(1, t, 0, 1)
        .mul(Mat2(s, 0, 0, 1 / s))
        .mul(Mat2(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta)))
    )
    z = UhpPoint(x, y)
    d0 = dist(z, I_POINT)
    d1 = dist(m.apply_point(z), m.apply_point(I_POINT))
    assert d1 == pytest.approx(d0, abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# geodesic_ray


def test_vertical_ray_up():
    ray = geodesic_ray(I_POINT, math.inf)
    for t in (0.0, 0.7, 3.0):
        p = ray.point_at(t)
        assert p.x == pytest.approx(0.0, abs=1e-14)
        assert p.y == pytest.approx(math.exp(t), rel=1e-13)


def test_vertical_ray_down():
    ray = geodesic_ray(I_POINT, 0.0)
    for t in (0.0, 1.2, 5.0):
        p = ray.point_at(t)
        assert p.x == pytest.approx(0.0, abs=1e-14)
        assert p.y == pytest.approx(math.exp(-t), rel=1e-13)


def test_ray_to_one_is_unit_semicircle():
    # center c solves |i - c| = |1 - c|, giving c = 0 and radius 1
    ray = geodesic_ray(I_POINT, 1.0)
    for t in (0.1, 0.5, 2.0, 6.0):
        p = ray.point_at(t)
        assert p.x**2 + p.y**2 == pytest.approx(1.0, rel=1e-12)


def test_ray_rejects_boundary_base():
    with pytest.raises(ValueError):
        geodesic_ray(UhpPoint(0.0, 0.0), 1.0)


@given(
    x0=st.floats(-3, 3),
    y0=st.floats(0.05, 20),
    endpoint=st.one_of(st.floats(-50, 50), st.just(math.inf)),
    t=st.floats(0, 30),
)
def test_unit_speed_parameterization(x0, y0, endpoint, t):
    base = UhpPoint(x0, y0)
    assume(endpoint == math.inf or abs(endpoint - x0) > 1e-9 or True)
    ray = geodesic_ray(base, endpoint)
    assert dist(base, ray.point_at(t)) == pytest.approx(t, abs=1e-12 * max(1.0, t))


def test_unit_speed_exact_tolerance_grid():
    # the spec's 1e-12 absolute tolerance for t <= 30 on concrete rays
    for endpoint in (math.inf, 0.0, 1.0, -2.5):
        ray = geodesic_ray(UhpPoint(0.25, 1.5), endpoint)
        for t in [30.0 * i / 60 for i in range(61)]:
            assert abs(dist(ray.base, ray.point_at(t)) - t) < 1e-12 * max(1.0, t)


def test_ray_converges_to_endpoint():
    ray = geodesic_ray(UhpPoint(0.3, 2.0), 4.0)
    p = ray.point_at(25.0)
    assert p.x == pytest.approx(4.0, abs=1e-9)
    assert p.y < 1e-9


# ---------------------------------------------------------------------------
# intersect


def test_intersect_cusp_at_infinity():
    # region y >= e is the horoball at infinity with diameter 1/e
    ray = geodesic_ray(I_POINT, math.inf)
    ball = Horoball(math.inf, 1 / math.e)
    geom = intersect(ray, ball)
    assert geom is not None
    assert geom.t_entry == pytest.approx(1.0, abs=1e-12)
    assert geom.unbounded
    assert geom.phi == 0.0


def test_intersect_base_on_boundary_running_to_tangency():
    ray = geodesic_ray(I_POINT, 0.0)
    geom = intersect(ray, Horoball(0.0, 1.0))
    assert geom is not None
    assert geom.t_entry == pytest.approx(0.0, abs=1e-12)
    assert geom.unbounded


def test_intersect_miss():
    ray = geodesic_ray(I_POINT, 1.0)
    assert intersect(ray, Horoball(0.0, 0.1)) is None


def test_intersect_angle_invariants():
    ray = geodesic_ray(I_POINT, 30.0)
    geom = intersect(ray, Horoball(math.inf, 0.5))
    assert geom is not None
    assert not geom.unbounded
    assert 0 < geom.phi < geom.phi_max < math.pi
    assert geom.t_exit > geom.t_entry


@given(
    endpoint=st.floats(0.5, 60),
    diameter=st.floats(0.05, 0.9),
)
def test_entering_iff_phi_below_half_cone(endpoint, diameter):
    # the cone of entering directions has full opening phi_max, so the ray
    # enters exactly when phi < phi_max / 2
    ray = geodesic_ray(I_POINT, endpoint)
    ball = Horoball(math.inf, diameter)
    geom = intersect(ray, ball)
    ref = geodesic_ray(I_POINT, math.inf)
    ref_geom = intersect(ref, ball)
    assert ref_geom is not None
    phi = 2 * math.atan2(1, endpoint)
    margin = abs(phi - ref_geom.phi_max / 2)
    assume(margin > 1e-9)
    assert (geom is not None) == (phi < ref_geom.phi_max / 2)


# ---------------------------------------------------------------------------
# excursion_exact


def test_excursion_horocycle_chord():
    # entry (-1, c), exit (1, c) on {y >= c}: horocyclic length 2/c.
    # realized by the geodesic with radius sqrt(1 + c^2) centered at 0
    c = 0.8
    r = math.hypot(1.0, c)
    base = UhpPoint(-r + 1e-9, 1e-4)  # near the left endpoint, outside the ball
    base = _point_on_circle(0.0, r, 3.1)
    ray = geodesic_ray(base, r)
    ball = Horoball(math.inf, 1 / c)
    assert excursion_exact(ray, ball) == pytest.approx(2 / c, rel=1e-9)


def _point_on_circle(center, radius, angle):
    return UhpPoint(center + radius * math.cos(angle), radius * math.sin(angle))


def test_excursion_tangent_ray_is_zero():
    # geodesic through i tangent to y = h: radius h, center sqrt(h^2 - 1).
    # exact tangency gives the degenerate chord; a hair inside stays tiny
    from oracles.hyperbolic import chord_excursion_length, crossing_roots

    assert chord_excursion_length(1.0) == 0.0
    roots = crossing_roots(0.5, 0.5, 2.0)  # x = (2*0.25*2)^2 = 1 exactly
    assert roots is not None and roots[0] == 1.0

    h = 2.0
    c = math.sqrt(h * h - 1)
    ray = geodesic_ray(I_POINT, (c + h) * (1 + 1e-12))
    ball = Horoball(math.inf, 1 / h)
    assert 0 <= excursion_exact(ray, ball) < 1e-4


def test_excursion_against_quadrature_oracle():
    # geodesic from -1 to 1 against {y >= 1/2}: project the crossing to the
    # horocycle and integrate the path metric |dz|/y numerically
    h = 0.5
    x_entry, x_exit = -math.sqrt(1 - h * h), math.sqrt(1 - h * h)
    xs = [x_entry + (x_exit - x_entry) * i / 20000 for i in range(20001)]
    oracle = math.fsum((b - a) * (1 / h + 1 / h) / 2 for a, b in zip(xs, xs[1:]))
    base = _point_on_circle(0.0, 1.0, 2.95)
    assert base.y < h
    ray = geodesic_ray(base, 1.0)
    ball = Horoball(math.inf, 1 / h)
    val = excursion_exact(ray, ball)
    assert val == pytest.approx(oracle, rel=1e-6)
    assert val == pytest.approx(2 * math.sqrt(3), rel=1e-9)


def test_excursion_unbounded_raises():
    ray = geodesic_ray(I_POINT, 0.0)
    with pytest.raises(UnboundedExcursionError):
        excursion_exact(ray, Horoball(0.0, 1.0))


def test_excursion_miss_raises():
    ray = geodesic_ray(I_POINT, 1.0)
    with pytest.raises(ValueError):
        excursion_exact(ray, Horoball(0.0, 0.1))


# ---------------------------------------------------------------------------
# excursion_angle


def test_excursion_angle_substitution():
    geom = ExcursionGeometry(0.0, 1.0, phi=0.02, phi_max=0.1)
    assert excursion_angle(geom) == pytest.approx(5.0)


def test_excursion_angle_boundary():
    geom = ExcursionGeometry(0.0, 1.0, phi=0.1, phi_max=0.1)
    assert excursion_angle(geom) == pytest.approx(1.0)


def test_excursion_angle_zero_phi_raises():
    geom = ExcursionGeometry(0.0, math.inf, phi=0.0, phi_max=0.1)
    with pytest.raises(UnboundedExcursionError):
        excursion_angle(geom)


# ---------------------------------------------------------------------------
# structural invariants


def _random_isometry(t, s, theta):
    return (
        Mat2(1, t, 0, 1)
        .mul(Mat2(s, 0, 0, 1 / s))
        .mul(Mat2(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta)))
    )


@settings(max_examples=1000, deadline=None)
@given(
    endpoint=st.floats(2.2, 200),
    diameter=st.floats(0.05, 0.95),
    t=st.floats(-3, 3),
    s=st.floats(0.3, 3),
    theta=st.one_of(st.just(0.0), st.floats(0.01, math.pi - 0.01)),
)
def test_isometry_invariance_of_excursion(endpoint, diameter, t, s, theta):
    ray = geodesic_ray(I_POINT, endpoint)
    ball = Horoball(math.inf, diameter)
    geom = intersect(ray, ball)
    assume(geom is not None and not geom.unbounded)
    assume(geom.t_entry > 1e-6 and geom.t_exit - geom.t_entry > 1e-4)
    e0 = excursion_exact(ray, ball)
    m = _random_isometry(t, s, theta)
    e1 = excursion_exact(ray.transform(m), ball.transform(m))
    assert e1 == pytest.approx(e0, rel=1e-9, abs=1e-9)


@settings(max_examples=400, deadline=None)
@given(
    endpoint=st.floats(2.2, 200),
    diameter=st.floats(0.05, 0.95),
    t=st.floats(-3, 3),
    s=st.floats(0.3, 3),
    theta=st.one_of(st.just(0.0), st.floats(0.01, math.pi - 0.01)),
)
def test_isometry_invariance_of_angles(endpoint, diameter, t, s, theta):
    ray = geodesic_ray(I_POINT, endpoint)
    ball = Horoball(math.inf, diameter)
    geom = intersect(ray, ball)
    assume(geom is not None and not geom.unbounded)
    assume(geom.t_entry > 1e-6 and geom.t_exit - geom.t_entry > 1e-4)
    m = _random_isometry(t, s, theta)
    geom1 = intersect(ray.transform(m), ball.transform(m))
    assert geom1 is not None
    assert geom1.phi == pytest.approx(geom.phi, rel=1e-8, abs=1e-11)
    assert geom1.phi_max == pytest.approx(geom.phi_max, rel=1e-8, abs=1e-11)
    assert geom1.t_entry == pytest.approx(geom.t_entry, rel=1e-8, abs=1e-8)


@settings(max_examples=500, deadline=None)
@given(endpoint=st.floats(2.2, 500), diameter=st.floats(0.05, 0.95))
def test_exact_excursion_matches_sine_identity(endpoint, diameter):
    # E = 2 (sin psi / sin phi) sqrt(1 - sin^2 phi / sin^2 psi) with
    # psi = phi_max / 2 the half opening of the entering cone
    ray = geodesic_ray(I_POINT, endpoint)
    ball = Horoball(math.inf, diameter)
    geom = intersect(ray, ball)
    assume(geom is not None and not geom.unbounded)
    assume(geom.t_exit - geom.t_entry > 1e-4 and geom.t_entry > 0)
    psi = geom.phi_max / 2
    ratio = math.sin(geom.phi) / math.sin(psi)
    assume(ratio < 1 - 1e-8)
    expected = 2 / ratio * math.sqrt(1 - ratio * ratio)
    assert excursion_exact(ray, ball) == pytest.approx(expected, rel=1e-8)


def test_monotonicity_deeper_rays_have_larger_excursions():
    ball = Horoball(math.inf, 0.5)
    endpoints = [3.9, 6.0, 12.0, 50.0, 400.0]
    values, phis = [], []
    for e in endpoints:
        ray = geodesic_ray(I_POINT, e)
        geom = intersect(ray, ball)
        values.append(excursion_exact(ray, ball))
        phis.append(geom.phi)
    assert all(a > b for a, b in zip(phis, phis[1:]))  # aiming closer to the cusp
    assert all(a < b for a, b in zip(values, values[1:]))
    ratios = [g2 / g1 for g1, g2 in zip(phis, phis[1:])]
    assert all(r < 1 for r in ratios)


def test_horoball_transform_roundtrip():
    m = _random_isometry(1.3, 0.7, 0.9)
    for ball in (Horoball(0.25, 0.4), Horoball(-3.0, 1.7)):
        back = ball.transform(m).transform(m.inv())
        assert back.tangency == pytest.approx(ball.tangency, abs=1e-9)
        assert back.diameter == pytest.approx(ball.diameter, rel=1e-9)
    # the cusp at infinity may come back as a huge finite tangency; the
    # represented region {Im z / |z - p|^2 >= 1/d} is then a height cutoff
    # p^2 / d near finite points
    ball = Horoball(math.inf, 0.8)
    back = ball.transform(m).transform(m.inv())
    if back.tangency == math.inf:
        assert back.diameter == pytest.approx(0.8, rel=1e-9)
    else:
        assert abs(back.tangency) > 1e9
        assert back.tangency**2 / back.diameter == pytest.approx(1 / 0.8, rel=1e-6)


def test_horoball_validation():
    with pytest.raises(ValueError):
        Horoball(0.0, -1.0)
    with pytest.raises(ValueError):
        Horoball(0.0, 1.0, weight=0.0)
    with pytest.raises(ValueError):
        UhpPoint(0.0, -1.0)
